"""Faithful 3-tape Turing machine interpreter.

A machine is a finite state set with a transition table that is total on
state x (input symbol, work symbol, output symbol).  The three tapes are
one-way infinite: the read-only input tape, the work tape, and the output
tape, each starting with the start symbol '^' in cell 0 and blanks '_'
beyond the written region.  A step reads the three symbols under the
heads, writes the work and output cells, moves each head (left moves clamp
at cell 0), and enters the next state.  On halting, the output is the
longest run of 0/1 symbols starting at output cell 1.

The nondeterministic variant carries two transition tables and distinct
accept/reject states; acceptance searches the binary tree of table choices
by iterative deepening up to a depth budget.
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass, field
from enum import Enum
from typing import NamedTuple

from .errors import (CapExceededError, MachineHaltedError, ParseError, ValidationError,
                     dump_json, excerpt, read_field, read_object)

SYMBOLS = ("0", "1", "_", "^")
BLANK = "_"
START = "^"
MOVES = ("L", "S", "R")
TRACE_CAP = 64 << 20   # characters of all of a run's trace lines together

# (state, in_sym, work_sym, out_sym) -> (state', work_write, out_write, m_in, m_work, m_out)
TransitionTable = dict[tuple[str, str, str, str], tuple[str, str, str, str, str, str]]

# Tapes hold the ASCII bytes of the symbols, and ``byte & 3`` codes
# 0 1 ^ _ as 0 1 2 3.
_BLANK_BYTE = ord(BLANK)
_MOVE_STEP = {"L": -1, "S": 0, "R": 1}


class _Program(NamedTuple):
    """A transition table compiled for :func:`_advance`.  Entry
    ``64·q + 16·c_in + 4·c_work + c_out`` of ``code`` holds ``(64·q',
    work byte, out byte, move_in, move_work, move_out)`` with moves coded
    -1/0/+1, and ``~(64·q')`` in place of ``64·q'`` for a transition that
    stops a run: one into the halt state, or a stationary self-loop (same
    state, the symbols read written back, no move), whose configuration is
    its own successor.  ``halt`` is ``64·q`` of the halt state, or -1."""

    code: list
    states: tuple[str, ...]
    index: dict[str, int]
    halt: int


def _compile(states: tuple[str, ...], table: TransitionTable, label: str,
             halt_state=None, rows: bool = False) -> _Program:
    """Check that no state is listed twice, then each transition of
    ``table`` as it is encoded, then that the table is total.  A repeated
    state, else the first bad transition in the dict's order, else the
    first missing key in ``states`` x ``SYMBOLS``^3 order, raises a
    ValidationError led by ``label``; with ``rows``, a bad transition is
    also named by its position, ``transitions[<pos>]``."""
    index = {q: i for i, q in enumerate(states)}
    if len(index) < len(states):
        twice = next(q for i, q in enumerate(states) if index[q] != i)
        raise ValidationError(f"{label}: state {excerpt(twice)} listed twice")
    entries = {}   # slot -> entry; the program is allocated once the table is total
    for pos, (key, action) in enumerate(table.items()):
        at = f"{label}: transitions[{pos}]" if rows else label
        q, s_in, s_work, s_out = key
        if q not in index:
            raise ValidationError(f"{at}: unknown state {excerpt(q)} in transition key")
        for sym in (s_in, s_work, s_out):
            if sym not in SYMBOLS:
                raise ValidationError(f"{at}: unknown symbol {excerpt(sym)} in transition key")
        q2, w_work, w_out, m_in, m_work, m_out = action
        if q2 not in index:
            raise ValidationError(f"{at}: unknown target state {excerpt(q2)}")
        for sym in (w_work, w_out):
            if sym not in SYMBOLS:
                raise ValidationError(f"{at}: unknown write symbol {excerpt(sym)}")
        for move in (m_in, m_work, m_out):
            if move not in MOVES:
                raise ValidationError(f"{at}: unknown move {excerpt(move)}")
        slot = 64 * index[q] + 16 * (ord(s_in) & 3) + 4 * (ord(s_work) & 3) + (ord(s_out) & 3)
        stops = q2 == halt_state or (q2, w_work, w_out, m_in, m_work, m_out) == (
            q, s_work, s_out, "S", "S", "S")
        entries[slot] = (~(64 * index[q2]) if stops else 64 * index[q2], ord(w_work), ord(w_out),
                         _MOVE_STEP[m_in], _MOVE_STEP[m_work], _MOVE_STEP[m_out])
    for q in states:
        for s1, s2, s3 in itertools.product(SYMBOLS, repeat=3):
            if (q, s1, s2, s3) not in table:
                raise ValidationError(f"{label}: transition table not total, missing "
                                      f"({excerpt(q)[1:-1]}, {s1}, {s2}, {s3})")   # unquoted
    code = [entries[slot] for slot in range(64 * len(states))]
    halt = -1 if halt_state is None else 64 * index[halt_state]
    return _Program(code, states, index, halt)


@dataclass(frozen=True)
class TuringMachine:
    """A deterministic machine; its table is checked and compiled in one
    pass, at construction.  ``_file`` (set by :func:`load_machine`) leads
    table faults with ``machine file`` and names a bad row by position."""

    states: tuple[str, ...]
    start_state: str
    halt_state: str
    table: TransitionTable
    _file: InitVar[bool] = False
    _program: _Program = field(init=False, repr=False, compare=False)

    def __post_init__(self, _file):
        if self.start_state not in self.states or self.halt_state not in self.states:
            message = "start and halt states must be listed in states"
            raise ParseError(f"machine file: {message}") if _file else ValidationError(message)
        label = "machine file" if _file else "machine"
        object.__setattr__(self, "_program",
                           _compile(self.states, self.table, label, self.halt_state, _file))


@dataclass(frozen=True)
class NDTM:
    """Two transition tables; distinct accept/reject states take the place
    of the single halting state."""

    states: tuple[str, ...]
    start_state: str
    accept_state: str
    reject_state: str
    table0: TransitionTable
    table1: TransitionTable
    _programs: tuple[_Program, _Program] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for q in (self.start_state, self.accept_state, self.reject_state):
            if q not in self.states:
                raise ValidationError(f"state {q!r} must be listed in states")
        if self.accept_state == self.reject_state:
            raise ValidationError("accept and reject states must be distinct")
        object.__setattr__(self, "_programs", (_compile(self.states, self.table0, "table0"),
                                               _compile(self.states, self.table1, "table1")))


@dataclass
class Configuration:
    """Machine state plus the three materialized tapes and head positions.
    Each tape is a ``bytearray`` of the ASCII symbols; tapes grow with
    blanks on demand, and cell 0 holds the start symbol."""

    state: str
    tapes: list[bytearray]
    heads: list[int]

    @classmethod
    def initial(cls, start_state: str, input_string: str) -> "Configuration":
        for ch in input_string:
            if ch not in ("0", "1"):
                raise ValidationError(f"input must be a binary string, got {ch!r}")
        return cls(
            state=start_state,
            tapes=[bytearray((START + text).encode("ascii")) for text in (input_string, "", "")],
            heads=[0, 0, 0])

    def clone(self) -> "Configuration":
        return Configuration(
            state=self.state,
            tapes=[tape.copy() for tape in self.tapes],
            heads=self.heads.copy())

    def render(self) -> str:
        labels = ("in", "work", "out")
        parts = [self.state]
        for label, tape, head in zip(labels, self.tapes, self.heads):
            parts.append(f"{label}:{head}:{tape.decode('ascii')}")
        return " | ".join(parts)


def _advance(program: _Program, config: Configuration, limit: int,
             lines: list[str] | None = None) -> int:
    """Apply up to ``limit`` transitions to ``config`` in place, stopping
    early in the program's halt state, and return the number applied.  A
    stationary self-loop repeats its configuration, so once one is taken
    every remaining step counts without being stepped.  With ``lines``
    given, appends ``"<step> | <render>"`` after each one, refusing a trace
    whose lines would together pass ``TRACE_CAP`` characters."""
    code, states = program.code, program.states
    q = 64 * program.index[config.state]
    if q == program.halt:
        q = ~q
    t_in, t_work, t_out = config.tapes
    h_in, h_work, h_out = config.heads
    steps = chars = 0
    while steps < limit and q >= 0:
        q, t_work[h_work], t_out[h_out], m_in, m_work, m_out = code[
            q + 16 * (t_in[h_in] & 3) + 4 * (t_work[h_work] & 3) + (t_out[h_out] & 3)]
        if m_in:
            h_in += m_in
            if h_in < 0:
                h_in = 0
            elif h_in == len(t_in):
                t_in.append(_BLANK_BYTE)
        if m_work:
            h_work += m_work
            if h_work < 0:
                h_work = 0
            elif h_work == len(t_work):
                t_work.append(_BLANK_BYTE)
        if m_out:
            h_out += m_out
            if h_out < 0:
                h_out = 0
            elif h_out == len(t_out):
                t_out.append(_BLANK_BYTE)
        steps += 1
        if lines is not None:
            config.state, config.heads[:] = states[max(q, ~q) >> 6], (h_in, h_work, h_out)
            lines.append(f"{steps} | {config.render()}")
            chars = _within_trace_cap(chars + len(lines[-1]))
    config.state, config.heads[:] = states[max(q, ~q) >> 6], (h_in, h_work, h_out)
    if q < 0 and ~q != program.halt:
        if lines is not None:
            tail = f" | {config.render()}"
            _within_trace_cap(chars + (limit - steps) * len(tail)
                              + _digits(limit) - _digits(steps))
            lines.extend(f"{n}{tail}" for n in range(steps + 1, limit + 1))
        steps = limit
    return steps


def _digits(m: int) -> int:
    """Digits in the numbers 1 to ``m`` written out, for ``m >= 0``."""
    width = len(str(m))
    return (m + 1) * width - (10 ** width - 1) // 9


def _within_trace_cap(chars: int) -> int:
    """``chars``, the characters of a trace so far, unless they pass ``TRACE_CAP``."""
    if chars > TRACE_CAP:
        raise CapExceededError(f"trace exceeds cap of {TRACE_CAP} characters")
    return chars


def step(machine: TuringMachine, config: Configuration) -> Configuration:
    """Apply one transition in place and return the same configuration.
    The input tape is never written; left moves at cell 0 stay put."""
    if config.state == machine.halt_state:
        raise MachineHaltedError("cannot step a halted configuration")
    _advance(machine._program, config, 1)
    return config


def extract_output(config: Configuration) -> str:
    """Longest run of 0/1 symbols on the output tape starting at cell 1."""
    written = config.tapes[2][1:].decode("ascii")
    return written[:len(written) - len(written.lstrip("01"))]


@dataclass(frozen=True)
class Halted:
    output: str
    steps: int
    trace: tuple[str, ...] = field(default=())


@dataclass(frozen=True)
class BudgetExceeded:
    steps: int
    trace: tuple[str, ...] = field(default=())


def run(machine: TuringMachine, input_string: str, budget: int,
        trace: bool = False) -> Halted | BudgetExceeded:
    """Run from the initial configuration for at most ``budget`` steps.

    Returns the extracted output and step count on halting, or
    BudgetExceeded after ``budget`` steps.  With ``trace`` set, collects
    one rendered configuration line per executed step (so the trace length
    equals the step count)."""
    if budget < 1:
        raise ValidationError("budget must be >= 1")
    config = Configuration.initial(machine.start_state, input_string)
    lines: list[str] = []
    steps = _advance(machine._program, config, budget, lines if trace else None)
    if config.state != machine.halt_state:
        return BudgetExceeded(steps=steps, trace=tuple(lines))
    return Halted(output=extract_output(config), steps=steps, trace=tuple(lines))


class NdtmResult(Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    BUDGET_EXCEEDED = "budget_exceeded"


def ndtm_accepts(machine: NDTM, input_string: str, depth_budget: int) -> NdtmResult:
    """Iterative-deepening search of the choice tree, table 0 first.  Each
    pass walks the tree to one more level on an explicit stack of
    ``(configuration, levels left)``, so the budget is not bounded by the
    recursion limit.

    ACCEPT iff some branch reaches the accept state within the depth
    budget; REJECT iff every branch reaches the reject state within it;
    otherwise BUDGET_EXCEEDED."""
    if depth_budget < 1:
        raise ValidationError("depth budget must be >= 1")
    for depth in range(1, depth_budget + 1):
        stack = [(Configuration.initial(machine.start_state, input_string), depth)]
        cutoff = False
        while stack:
            config, left = stack.pop()
            if config.state == machine.accept_state:
                return NdtmResult.ACCEPT
            if config.state == machine.reject_state:
                continue
            if left == 0:
                cutoff = True
                continue
            for program in reversed(machine._programs):
                branch = config.clone()
                _advance(program, branch, 1)
                stack.append((branch, left - 1))
        if not cutoff:
            return NdtmResult.REJECT
    return NdtmResult.BUDGET_EXCEEDED


# ---------------------------------------------------------------------------
# JSON machine format
# ---------------------------------------------------------------------------

def save_machine(machine: TuringMachine) -> str:
    obj = {
        "states": list(machine.states),
        "start_state": machine.start_state,
        "halt_state": machine.halt_state,
        "transitions": [list(key) + list(action) for key, action in sorted(machine.table.items())],
    }
    return dump_json(obj) + "\n"


def load_machine(text: str) -> TuringMachine:
    """Parse a deterministic machine from JSON.  The transition list must
    cover every (state, symbol triple) exactly once: the transition
    function is total, so missing rows are rejected at load."""
    where = "machine file"
    obj = read_object(text, where)
    states = read_field(obj, "states", list, where)
    if not states or not all(isinstance(s, str) for s in states):
        raise ParseError(f"{where}: 'states' must be a nonempty list of strings")
    table: TransitionTable = {}
    for pos, row in enumerate(read_field(obj, "transitions", list, where)):
        if not isinstance(row, list) or len(row) != 10 or not all(isinstance(v, str) for v in row):
            raise ParseError(f"{where}: transitions[{pos}] must be a list of 10 strings")
        key = tuple(row[:4])
        if key in table:
            raise ParseError(f"{where}: duplicate transition for {excerpt(key)}")
        table[key] = tuple(row[4:])
    return TuringMachine(
        states=tuple(states),
        start_state=read_field(obj, "start_state", str, where),
        halt_state=read_field(obj, "halt_state", str, where),
        table=table, _file=True)
