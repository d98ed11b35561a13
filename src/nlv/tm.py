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
import json
from dataclasses import dataclass, field
from enum import Enum

from .errors import MachineHaltedError, ParseError, ValidationError

SYMBOLS = ("0", "1", "_", "^")
BLANK = "_"
START = "^"
MOVES = ("L", "S", "R")

# (state, in_sym, work_sym, out_sym) -> (state', work_write, out_write, m_in, m_work, m_out)
TransitionTable = dict[tuple[str, str, str, str], tuple[str, str, str, str, str, str]]


def _check_table(states: tuple[str, ...], table: TransitionTable, label: str) -> None:
    state_set = set(states)
    for key, action in table.items():
        q, s1, s2, s3 = key
        if q not in state_set:
            raise ValidationError(f"{label}: unknown state {q!r} in transition key")
        for sym in (s1, s2, s3):
            if sym not in SYMBOLS:
                raise ValidationError(f"{label}: unknown symbol {sym!r} in transition key")
        q2, w2, w3, m1, m2, m3 = action
        if q2 not in state_set:
            raise ValidationError(f"{label}: unknown target state {q2!r}")
        for sym in (w2, w3):
            if sym not in SYMBOLS:
                raise ValidationError(f"{label}: unknown write symbol {sym!r}")
        for move in (m1, m2, m3):
            if move not in MOVES:
                raise ValidationError(f"{label}: unknown move {move!r}")
    for q in states:
        for s1, s2, s3 in itertools.product(SYMBOLS, repeat=3):
            if (q, s1, s2, s3) not in table:
                raise ValidationError(
                    f"{label}: transition table not total, missing ({q}, {s1}, {s2}, {s3})")


@dataclass(frozen=True)
class TuringMachine:
    states: tuple[str, ...]
    start_state: str
    halt_state: str
    table: TransitionTable

    def __post_init__(self):
        if self.start_state not in self.states or self.halt_state not in self.states:
            raise ValidationError("start and halt states must be listed in states")
        _check_table(self.states, self.table, "machine")


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

    def __post_init__(self):
        for q in (self.start_state, self.accept_state, self.reject_state):
            if q not in self.states:
                raise ValidationError(f"state {q!r} must be listed in states")
        if self.accept_state == self.reject_state:
            raise ValidationError("accept and reject states must be distinct")
        _check_table(self.states, self.table0, "table0")
        _check_table(self.states, self.table1, "table1")


@dataclass
class Configuration:
    """Machine state plus the three materialized tapes and head positions.
    Tapes grow with blanks on demand; cell 0 holds the start symbol."""

    state: str
    tapes: list[list[str]]
    heads: list[int]

    @classmethod
    def initial(cls, start_state: str, input_string: str) -> "Configuration":
        for ch in input_string:
            if ch not in ("0", "1"):
                raise ValidationError(f"input must be a binary string, got {ch!r}")
        return cls(
            state=start_state,
            tapes=[[START] + list(input_string), [START], [START]],
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
            parts.append(f"{label}:{head}:{''.join(tape)}")
        return " | ".join(parts)


def _apply(table: TransitionTable, config: Configuration) -> None:
    symbols = tuple(config.tapes[t][config.heads[t]] for t in range(3))
    state2, w_work, w_out, *moves = table[(config.state, *symbols)]
    config.tapes[1][config.heads[1]] = w_work
    config.tapes[2][config.heads[2]] = w_out
    for t, move in enumerate(moves):
        if move == "L":
            if config.heads[t] > 0:
                config.heads[t] -= 1
        elif move == "R":
            config.heads[t] += 1
            if config.heads[t] == len(config.tapes[t]):
                config.tapes[t].append(BLANK)
    config.state = state2


def step(machine: TuringMachine, config: Configuration) -> Configuration:
    """Apply one transition in place and return the same configuration.
    The input tape is never written; left moves at cell 0 stay put."""
    if config.state == machine.halt_state:
        raise MachineHaltedError("cannot step a halted configuration")
    _apply(machine.table, config)
    return config


def extract_output(config: Configuration) -> str:
    """Longest run of 0/1 symbols on the output tape starting at cell 1."""
    out = []
    for sym in config.tapes[2][1:]:
        if sym in ("0", "1"):
            out.append(sym)
        else:
            break
    return "".join(out)


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
    steps = 0
    while config.state != machine.halt_state:
        if steps == budget:
            return BudgetExceeded(steps=steps, trace=tuple(lines))
        step(machine, config)
        steps += 1
        if trace:
            lines.append(f"{steps} | {config.render()}")
    return Halted(output=extract_output(config), steps=steps, trace=tuple(lines))


class NdtmResult(Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    BUDGET_EXCEEDED = "budget_exceeded"


_CUTOFF = "cutoff"


def _explore(machine: NDTM, config: Configuration, depth: int):
    if config.state == machine.accept_state:
        return NdtmResult.ACCEPT
    if config.state == machine.reject_state:
        return NdtmResult.REJECT
    if depth == 0:
        return _CUTOFF
    saw_cutoff = False
    for table in (machine.table0, machine.table1):
        branch = config.clone()
        _apply(table, branch)
        outcome = _explore(machine, branch, depth - 1)
        if outcome is NdtmResult.ACCEPT:
            return NdtmResult.ACCEPT
        if outcome is _CUTOFF:
            saw_cutoff = True
    return _CUTOFF if saw_cutoff else NdtmResult.REJECT


def ndtm_accepts(machine: NDTM, input_string: str, depth_budget: int) -> NdtmResult:
    """Iterative-deepening search of the choice tree.

    ACCEPT iff some branch reaches the accept state within the depth
    budget; REJECT iff every branch reaches the reject state within it;
    otherwise BUDGET_EXCEEDED."""
    if depth_budget < 1:
        raise ValidationError("depth budget must be >= 1")
    for depth in range(1, depth_budget + 1):
        outcome = _explore(machine, Configuration.initial(machine.start_state, input_string),
                           depth)
        if outcome is NdtmResult.ACCEPT:
            return NdtmResult.ACCEPT
        if outcome is NdtmResult.REJECT:
            return NdtmResult.REJECT
    return NdtmResult.BUDGET_EXCEEDED


# ---------------------------------------------------------------------------
# JSON machine format and bundled machines
# ---------------------------------------------------------------------------

def _table_to_rows(table: TransitionTable) -> list[list[str]]:
    return [list(key) + list(action) for key, action in sorted(table.items())]


def _rows_to_table(rows, label: str) -> TransitionTable:
    if not isinstance(rows, list):
        raise ParseError(f"machine file: '{label}' must be a list")
    table: TransitionTable = {}
    for pos, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 10 or not all(isinstance(v, str) for v in row):
            raise ParseError(f"machine file: {label}[{pos}] must be a list of 10 strings")
        key = tuple(row[:4])
        if key in table:
            raise ParseError(f"machine file: duplicate transition for {key}")
        table[key] = tuple(row[4:])
    return table


def save_machine(machine: TuringMachine) -> str:
    obj = {
        "states": list(machine.states),
        "start_state": machine.start_state,
        "halt_state": machine.halt_state,
        "transitions": _table_to_rows(machine.table),
    }
    return json.dumps(obj, indent=2) + "\n"


def load_machine(text: str) -> TuringMachine:
    """Parse a deterministic machine from JSON.  The transition list must
    cover every (state, symbol triple) exactly once: the transition
    function is total, so missing rows are rejected at load."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"machine file: invalid JSON at line {err.lineno}: {err.msg}") from err
    if not isinstance(obj, dict):
        raise ParseError("machine file: top level must be an object")
    for fld in ("states", "start_state", "halt_state", "transitions"):
        if fld not in obj:
            raise ParseError(f"machine file: missing field '{fld}'")
    states = obj["states"]
    if (not isinstance(states, list) or not states
            or not all(isinstance(s, str) for s in states)):
        raise ParseError("machine file: 'states' must be a nonempty list of strings")
    table = _rows_to_table(obj["transitions"], "transitions")
    return TuringMachine(
        states=tuple(states),
        start_state=obj["start_state"],
        halt_state=obj["halt_state"],
        table=table)


def dense_table(states: tuple[str, ...], rules: dict, default) -> TransitionTable:
    """Fill a total table: ``rules`` maps specific (state, s1, s2, s3) keys
    to actions; every uncovered key gets ``default(state, s1, s2, s3)``."""
    table: TransitionTable = {}
    for q in states:
        for s1, s2, s3 in itertools.product(SYMBOLS, repeat=3):
            key = (q, s1, s2, s3)
            table[key] = rules.get(key, default(q, s1, s2, s3))
    return table


def _halt_in_place(halt_state: str):
    def default(_q, _s1, s2, s3):
        return (halt_state, s2, s3, "S", "S", "S")
    return default


def copier_machine() -> TuringMachine:
    """Copies the input string to the output tape.

    One step leaves the start cells, then each step copies one input
    symbol; the first blank halts.  Unreachable symbol combinations
    default to halting in place."""
    states = ("go", "copy", "halt")
    rules = {}
    rules[("go", START, START, START)] = ("copy", START, START, "R", "S", "R")
    for s1 in ("0", "1"):
        for s2 in SYMBOLS:
            for s3 in SYMBOLS:
                rules[("copy", s1, s2, s3)] = ("copy", s2, s1, "R", "S", "R")
    for s2 in SYMBOLS:
        for s3 in SYMBOLS:
            rules[("copy", BLANK, s2, s3)] = ("halt", s2, s3, "S", "S", "S")
    return TuringMachine(
        states=states, start_state="go", halt_state="halt",
        table=dense_table(states, rules, _halt_in_place("halt")))


def looper_machine() -> TuringMachine:
    """Loops forever: every transition rewrites the cells it read and stays
    put, and no transition reaches the halt state."""
    states = ("spin", "halt")

    def spin(q, _s1, s2, s3):
        return ("spin" if q == "spin" else "halt", s2, s3, "S", "S", "S")

    return TuringMachine(
        states=states, start_state="spin", halt_state="halt",
        table=dense_table(states, {}, spin))


def clamp_machine() -> TuringMachine:
    """Single-step machine whose only move is left from cell 0 on every
    tape: exercises the left-edge clamp."""
    states = ("edge", "halt")

    def push_left(q, _s1, s2, s3):
        return ("halt", s2, s3, "L", "L", "L") if q == "edge" else ("halt", s2, s3, "S", "S", "S")

    return TuringMachine(
        states=states, start_state="edge", halt_state="halt",
        table=dense_table(states, {}, push_left))
