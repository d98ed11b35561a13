"""Turing machine step semantics, golden traces, and NDTM acceptance."""

import itertools
import json
import random
import re
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlv import data_path, tm
from nlv.errors import CapExceededError, MachineHaltedError, ParseError, ValidationError
from nlv.tm import (MOVES, NDTM, BLANK, SYMBOLS, TRACE_CAP, BudgetExceeded, Configuration,
                    Halted, NdtmResult, TuringMachine, extract_output, load_machine,
                    ndtm_accepts, run, save_machine, step)

DATA = Path(__file__).parent / "data"


def bundled(name):
    """One of the bundled machines: copier, looper or clamp."""
    return load_machine(data_path(f"{name}.json").read_text())


def dense_table(states, default):
    """The total table mapping each key (state, s1, s2, s3) to
    ``default(state, s1, s2, s3)``."""
    return {(q, *symbols): default(q, *symbols)
            for q in states for symbols in itertools.product(SYMBOLS, repeat=3)}


def halt_default(halt_state):
    def default(_q, _s1, s2, s3):
        return (halt_state, s2, s3, "S", "S", "S")
    return default


def immediate_halt_machine():
    states = ("begin", "halt")
    return TuringMachine(states=states, start_state="begin", halt_state="halt",
                         table=dense_table(states, halt_default("halt")))


# -- step --------------------------------------------------------------------

def test_immediate_halt_one_step():
    machine = immediate_halt_machine()
    config = Configuration.initial("begin", "")
    step(machine, config)
    assert config.state == "halt"
    assert extract_output(config) == ""


def test_left_move_clamps_at_edge():
    machine = bundled("clamp")
    config = Configuration.initial("edge", "")
    step(machine, config)
    assert config.heads == [0, 0, 0]
    assert config.state == "halt"


def test_step_rejects_halted_configuration():
    machine = immediate_halt_machine()
    config = Configuration.initial("begin", "")
    step(machine, config)
    with pytest.raises(MachineHaltedError):
        step(machine, config)


def test_step_never_writes_input_tape():
    machine = bundled("copier")
    config = Configuration.initial("go", "1011")
    reference = ["^", "1", "0", "1", "1"]
    while config.state != "halt":
        step(machine, config)
        materialized = list(config.tapes[0].decode("ascii"))
        assert materialized[:5] == reference
        assert all(sym == BLANK for sym in materialized[5:])


# -- run and golden traces ---------------------------------------------------

@pytest.mark.parametrize("text,expected,steps,golden", [
    ("", "", 2, "copier_trace_empty.txt"),
    ("1", "1", 3, "copier_trace_1.txt"),
    ("1011", "1011", 6, "copier_trace_1011.txt"),
])
def test_copier_golden_traces(text, expected, steps, golden):
    result = run(bundled("copier"), text, 100, trace=True)
    assert isinstance(result, Halted)
    assert result.output == expected
    assert result.steps == steps
    assert len(result.trace) == result.steps
    assert "\n".join(result.trace) + "\n" == DATA.joinpath(golden).read_text()


def test_looper_budget_exceeded():
    result = run(bundled("looper"), "1", 10_000)
    assert isinstance(result, BudgetExceeded)
    assert result.steps == 10_000


def test_run_rejects_zero_budget():
    with pytest.raises(ValidationError):
        run(bundled("copier"), "1", 0)


def test_run_rejects_non_binary_input():
    with pytest.raises(ValidationError):
        run(bundled("copier"), "10x", 10)


def test_run_deterministic_full_trace():
    a = run(bundled("copier"), "1011", 100, trace=True)
    b = run(bundled("copier"), "1011", 100, trace=True)
    assert a == b


def test_budget_monotonicity():
    small = run(bundled("copier"), "1011", 6)
    large = run(bundled("copier"), "1011", 5000)
    assert isinstance(small, Halted) and isinstance(large, Halted)
    assert small.output == large.output
    assert small.steps == large.steps
    under = run(bundled("copier"), "1011", 5)
    assert isinstance(under, BudgetExceeded)


# -- machine files -----------------------------------------------------------

def test_bundled_machines_round_trip():
    for name in ("copier", "looper", "clamp"):
        text = data_path(f"{name}.json").read_text()
        assert save_machine(load_machine(text)) == text


def test_load_rejects_missing_transition():
    machine = immediate_halt_machine()
    obj = json.loads(save_machine(machine))
    del obj["transitions"][0]
    with pytest.raises(ValidationError, match=exactly(
            "machine file: transition table not total, missing (begin, 0, 0, 0)")):
        load_machine(json.dumps(obj))


def test_load_rejects_duplicate_transition():
    machine = immediate_halt_machine()
    import json
    obj = json.loads(save_machine(machine))
    obj["transitions"].append(obj["transitions"][0])
    with pytest.raises(ParseError, match="duplicate"):
        load_machine(json.dumps(obj))


def test_load_rejects_non_list_transitions():
    import json
    obj = json.loads(save_machine(immediate_halt_machine()))
    for bad in (None, 3, 1.5, True):
        obj["transitions"] = bad
        with pytest.raises(ParseError, match="'transitions' must be a list"):
            load_machine(json.dumps(obj))


def test_load_rejects_bad_json():
    with pytest.raises(ParseError, match="line"):
        load_machine("{oops")


def test_table_totality_enforced_at_construction():
    with pytest.raises(ValidationError, match="not total"):
        TuringMachine(states=("a", "halt"), start_state="a", halt_state="halt",
                      table={})


FAULT_STATES = ("begin", "halt", "stop")
FIRST_KEY = ("begin", "0", "0", "0")
TO_HALT = ("halt", "0", "0", "S", "S", "S")


def faulty_table(*faults):
    """A total table over ``FAULT_STATES`` with each ``(key, action)`` of
    ``faults`` set in turn: a known key is replaced in place, a new one
    goes last in the dict's order."""
    table = dense_table(FAULT_STATES, halt_default("halt"))
    table.update(faults)
    return table


def machine_with(table):
    return TuringMachine(states=FAULT_STATES, start_state="begin", halt_state="halt",
                         table=table)


def ndtm_with(table0, table1):
    return NDTM(states=FAULT_STATES, start_state="begin", accept_state="halt",
                reject_state="stop", table0=table0, table1=table1)


def exactly(message):
    return f"^{re.escape(message)}$"


@pytest.mark.parametrize("key, action, message", [
    (("nowhere", "0", "0", "0"), TO_HALT, "unknown state 'nowhere' in transition key"),
    (("begin", "0", "x", "0"), TO_HALT, "unknown symbol 'x' in transition key"),
    (FIRST_KEY, ("nowhere", "0", "0", "S", "S", "S"), "unknown target state 'nowhere'"),
    (FIRST_KEY, ("halt", "0", "x", "S", "S", "S"), "unknown write symbol 'x'"),
    (FIRST_KEY, ("halt", "0", "0", "S", "U", "S"), "unknown move 'U'"),
])
def test_each_bad_transition_is_named_with_its_table(key, action, message):
    with pytest.raises(ValidationError, match=exactly(f"machine: {message}")):
        machine_with(faulty_table((key, action)))
    with pytest.raises(ValidationError, match=exactly(f"table1: {message}")):
        ndtm_with(faulty_table(), faulty_table((key, action)))


def test_table_faults_are_reported_in_a_fixed_order():
    bad_move = (FIRST_KEY, ("halt", "0", "0", "S", "U", "S"))
    # A bad item comes before a missing key, and the first bad item in
    # the dict's order comes first, whatever the kinds of the faults.
    table = faulty_table(bad_move, (("nowhere", "0", "0", "0"), TO_HALT))
    del table[("stop", "^", "^", "^")]
    with pytest.raises(ValidationError, match=exactly("machine: unknown move 'U'")):
        machine_with(table)
    # Missing keys are found in states x SYMBOLS^3 order, where '_'
    # comes before '^'.
    table = faulty_table()
    del table[("begin", "0", "0", "^")]
    del table[("begin", "0", "0", "_")]
    missing = "transition table not total, missing (begin, 0, 0, _)"
    with pytest.raises(ValidationError, match=exactly(f"machine: {missing}")):
        machine_with(table)
    # table0 is checked before table1.
    with pytest.raises(ValidationError, match=exactly(f"table0: {missing}")):
        ndtm_with(table, faulty_table(bad_move))


@pytest.mark.parametrize("pos", [0, 37])
@pytest.mark.parametrize("column, value, message", [
    (0, "nowhere", "unknown state 'nowhere' in transition key"),
    (2, "x", "unknown symbol 'x' in transition key"),
    (4, "nowhere", "unknown target state 'nowhere'"),
    (5, "x", "unknown write symbol 'x'"),
    (8, "U", "unknown move 'U'"),
])
def test_bad_file_transition_is_named_by_its_row(pos, column, value, message):
    obj = json.loads(data_path("copier.json").read_text())
    obj["transitions"][pos][column] = value
    with pytest.raises(ValidationError,
                       match=exactly(f"machine file: transitions[{pos}]: {message}")):
        load_machine(json.dumps(obj))


def test_repeated_state_is_refused():
    states = ("a", "a", "h")
    table = dense_table(states, halt_default("h"))
    with pytest.raises(ValidationError, match=exactly("machine: state 'a' listed twice")):
        TuringMachine(states=states, start_state="a", halt_state="h", table=table)
    with pytest.raises(ValidationError, match=exactly("table0: state 'a' listed twice")):
        NDTM(states=("a", "a", "h", "r"), start_state="a", accept_state="h",
             reject_state="r", table0=table, table1=table)
    obj = json.loads(data_path("looper.json").read_text())
    obj["states"] = ["spin", "halt", "spin"]
    with pytest.raises(ValidationError,
                       match=exactly("machine file: state 'spin' listed twice")):
        load_machine(json.dumps(obj))


def test_table_is_checked_before_its_program_is_allocated():
    # 64 slots per state would be 1,280,000 list slots (10 MB); the refusal
    # needs the parsed file, its state index and little more.
    n = 20_000
    text = json.dumps({"states": [f"s{i}" for i in range(n)], "start_state": "s0",
                       "halt_state": "s1", "transitions": []})
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=exactly(
                "machine file: transition table not total, missing (s0, 0, 0, 0)")):
            load_machine(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 64 * n / 2


# -- stationary self-loops ----------------------------------------------------

def walk_then_rest_machine():
    """Copies the input to the work tape, one cell per step.  On the first
    blank input cell it enters ``turn`` with no write and no move, which
    is not a self-loop, then ``rest``, whose every transition is a
    stationary self-loop: the configuration repeats from then on."""
    states = ("walk", "turn", "rest", "halt")

    def default(q, s_in, s_work, s_out):
        if q == "walk" and s_in != BLANK:
            return ("walk", s_in, s_out, "R", "R", "S")
        if q == "walk":
            return ("turn", s_work, s_out, "S", "S", "S")
        if q == "turn":
            return ("rest", s_work, "1", "S", "S", "R")
        return (q, s_work, s_out, "S", "S", "S")

    return TuringMachine(states=states, start_state="walk", halt_state="halt",
                         table=dense_table(states, default))


@pytest.mark.parametrize("input_string", ["", "101"])
@pytest.mark.parametrize("extra", [-2, -1, 0, 1, 2, 40])
@pytest.mark.parametrize("trace", [False, True])
def test_stationary_loop_matches_reference(input_string, extra, trace):
    machine = walk_then_rest_machine()
    # The first stationary step is step len(input_string) + 4.
    budget = max(len(input_string) + 4 + extra, 1)
    result = run(machine, input_string, budget, trace=trace)
    status, steps, output, lines = reference_run(machine, input_string, budget)
    assert status == "budget_exceeded" and isinstance(result, BudgetExceeded)
    assert result.steps == steps == budget
    assert getattr(result, "output", None) == output
    assert list(result.trace) == (lines if trace else [])


def test_stationary_loop_at_a_huge_budget_and_by_one_step():
    assert run(bundled("looper"), "1", 10**12) == BudgetExceeded(steps=10**12)
    machine = walk_then_rest_machine()
    config = Configuration.initial("walk", "")
    for _ in range(4):
        step(machine, config)
    rendered = config.render()
    step(machine, config)
    assert config.render() == rendered


def test_traced_stationary_tail_past_the_cap_is_refused_before_it_is_built():
    # 10^12 lines of the looper's tail would be ~4 * 10^13 characters.
    started = time.perf_counter()
    with pytest.raises(CapExceededError, match=f"^trace exceeds cap of {TRACE_CAP} characters$"):
        run(bundled("looper"), "1", 10**12, trace=True)
    assert time.perf_counter() - started < 0.5


@pytest.mark.parametrize("machine, input_string, budget", [
    (lambda: bundled("copier"), "1011", 100),   # stepped lines only; halts
    (lambda: bundled("looper"), "1", 1000),   # one stepped line, then the tail
    (walk_then_rest_machine, "101", 1234),   # both, over 1- to 4-digit step numbers
], ids=["copier", "looper", "walk-then-rest"])
def test_trace_cap_counts_every_character_of_the_lines(machine, input_string, budget,
                                                      monkeypatch):
    machine = machine()
    full = run(machine, input_string, budget, trace=True)
    chars = sum(map(len, full.trace))
    monkeypatch.setattr(tm, "TRACE_CAP", chars)
    assert run(machine, input_string, budget, trace=True) == full
    monkeypatch.setattr(tm, "TRACE_CAP", chars - 1)
    with pytest.raises(CapExceededError):
        run(machine, input_string, budget, trace=True)
    # The cap bounds the trace only: an untraced run is not refused.
    assert run(machine, input_string, budget).steps == full.steps


def test_copier_trace_under_a_small_cap_is_refused_while_it_steps(monkeypatch):
    monkeypatch.setattr(tm, "TRACE_CAP", 100)
    with pytest.raises(CapExceededError, match="trace exceeds cap of 100 characters"):
        run(bundled("copier"), "1" * 50, 200, trace=True)


def test_start_in_halt_state_takes_no_steps():
    states = ("halt", "other")

    def default(_q, _s1, s2, s3):
        return ("other", s2, s3, "R", "R", "R")

    machine = TuringMachine(states=states, start_state="halt", halt_state="halt",
                            table=dense_table(states, default))
    assert run(machine, "10", 5, trace=True) == Halted(output="", steps=0)


# -- NDTM --------------------------------------------------------------------

def guess_bit_ndtm():
    """Guesses a bit with the first nondeterministic choice, then accepts
    iff the guess matches the first input symbol."""
    states = ("start", "guessed0", "guessed1", "accept", "reject")

    def chain(guessed):
        def default(q, s1, s2, s3):
            if q == "start":
                return (guessed, s2, s3, "R", "S", "S")
            if q == "guessed0":
                return ("accept" if s1 == "0" else "reject", s2, s3, "S", "S", "S")
            if q == "guessed1":
                return ("accept" if s1 == "1" else "reject", s2, s3, "S", "S", "S")
            return (q, s2, s3, "S", "S", "S")
        return default

    return NDTM(states=states, start_state="start",
                accept_state="accept", reject_state="reject",
                table0=dense_table(states, chain("guessed0")),
                table1=dense_table(states, chain("guessed1")))


def test_ndtm_guess_bit_accepts_matching_input():
    machine = guess_bit_ndtm()
    assert ndtm_accepts(machine, "1", 4) is NdtmResult.ACCEPT
    assert ndtm_accepts(machine, "0", 4) is NdtmResult.ACCEPT


def test_ndtm_all_branches_reject():
    states = ("start", "accept", "reject")

    def to_reject(q, _s1, s2, s3):
        return ("reject" if q == "start" else q, s2, s3, "S", "S", "S")

    machine = NDTM(states=states, start_state="start",
                   accept_state="accept", reject_state="reject",
                   table0=dense_table(states, to_reject),
                   table1=dense_table(states, to_reject))
    assert ndtm_accepts(machine, "1", 1) is NdtmResult.REJECT


def test_ndtm_deep_accept_beyond_budget():
    states = ("start", "s1", "s2", "s3", "accept", "reject")
    order = {"start": "s1", "s1": "s2", "s2": "s3", "s3": "accept"}

    def chain(q, _s1, s2, s3):
        return (order.get(q, q), s2, s3, "S", "S", "S")

    machine = NDTM(states=states, start_state="start",
                   accept_state="accept", reject_state="reject",
                   table0=dense_table(states, chain),
                   table1=dense_table(states, chain))
    assert ndtm_accepts(machine, "", 2) is NdtmResult.BUDGET_EXCEEDED
    assert ndtm_accepts(machine, "", 4) is NdtmResult.ACCEPT


def test_ndtm_distinct_halting_states_required():
    states = ("start", "stop")
    with pytest.raises(ValidationError, match="distinct"):
        NDTM(states=states, start_state="start", accept_state="stop",
             reject_state="stop",
             table0=dense_table(states, halt_default("stop")),
             table1=dense_table(states, halt_default("stop")))


@pytest.mark.parametrize("start, halt", [("nowhere", "halt"), ("begin", "nowhere")])
def test_machine_states_must_be_listed(start, halt):
    states = ("begin", "halt")
    with pytest.raises(ValidationError, match="start and halt states must be listed in states"):
        TuringMachine(states=states, start_state=start, halt_state=halt,
                      table=dense_table(states, halt_default("halt")))


@pytest.mark.parametrize("missing", ["start", "accept", "reject"])
def test_ndtm_states_must_be_listed(missing):
    states = ("start", "accept", "reject")
    table = dense_table(states, halt_default("accept"))
    roles = {f"{q}_state": "nowhere" if q == missing else q for q in states}
    with pytest.raises(ValidationError, match="state 'nowhere' must be listed in states"):
        NDTM(states=states, table0=table, table1=table, **roles)


def test_ndtm_rejects_zero_budget():
    with pytest.raises(ValidationError):
        ndtm_accepts(guess_bit_ndtm(), "1", 0)


def one_branch_ndtm():
    """One live branch per level: table 0 moves the input head right and
    accepts on reading 1, and table 1 rejects."""
    states = ("scan", "accept", "reject")

    def scan(q, s1, s2, s3):
        if q == "scan":
            return ("accept" if s1 == "1" else "scan", s2, s3, "R", "S", "S")
        return (q, s2, s3, "S", "S", "S")

    def to_reject(q, _s1, s2, s3):
        return ("reject" if q == "scan" else q, s2, s3, "S", "S", "S")

    return NDTM(states=states, start_state="scan", accept_state="accept",
                reject_state="reject", table0=dense_table(states, scan),
                table1=dense_table(states, to_reject))


@pytest.mark.parametrize("input_string, expected", [
    ("0" * 150 + "1", NdtmResult.ACCEPT),
    ("0" * 300, NdtmResult.BUDGET_EXCEEDED),
], ids=["accept", "budget-exceeded"])
def test_ndtm_depth_budget_past_the_recursion_limit(input_string, expected):
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        outcome = ndtm_accepts(one_branch_ndtm(), input_string, 200)
    finally:
        sys.setrecursionlimit(limit)
    assert outcome is expected


# -- differential check against a reference interpreter -----------------------

def reference_step(table, state, tapes, heads):
    """One transition as the module docstring states it, on list tapes."""
    state2, w_work, w_out, *moves = table[(state, *(tape[h] for tape, h in zip(tapes, heads)))]
    tapes[1][heads[1]] = w_work
    tapes[2][heads[2]] = w_out
    for t, move in enumerate(moves):
        if move == "L":
            heads[t] = max(heads[t] - 1, 0)
        elif move == "R":
            heads[t] += 1
            if heads[t] == len(tapes[t]):
                tapes[t].append(BLANK)
    return state2


def reference_run(machine, input_string, budget):
    """(status, steps, output, trace lines) of a traced run."""
    state, tapes, heads = machine.start_state, [["^", *input_string], ["^"], ["^"]], [0, 0, 0]
    lines = []
    while state != machine.halt_state and len(lines) < budget:
        state = reference_step(machine.table, state, tapes, heads)
        cells = " | ".join(f"{label}:{h}:{''.join(tape)}"
                           for label, tape, h in zip(("in", "work", "out"), tapes, heads))
        lines.append(f"{len(lines) + 1} | {state} | {cells}")
    if state != machine.halt_state:
        return "budget_exceeded", len(lines), None, lines
    output = "".join(itertools.takewhile(lambda sym: sym in "01", tapes[2][1:]))
    return "halted", len(lines), output, lines


def reference_accepts(machine, input_string, depth):
    """The whole choice tree to ``depth`` at once, without deepening."""
    def explore(state, tapes, heads, depth):
        if state in (machine.accept_state, machine.reject_state):
            return state == machine.accept_state
        if depth == 0:
            return None
        outcomes = []
        for table in (machine.table0, machine.table1):
            branch_tapes, branch_heads = [tape.copy() for tape in tapes], heads.copy()
            state2 = reference_step(table, state, branch_tapes, branch_heads)
            outcomes.append(explore(state2, branch_tapes, branch_heads, depth - 1))
        if True in outcomes:
            return True
        return None if None in outcomes else False

    outcome = explore(machine.start_state, [["^", *input_string], ["^"], ["^"]], [0, 0, 0],
                      depth)
    return {True: NdtmResult.ACCEPT, False: NdtmResult.REJECT,
            None: NdtmResult.BUDGET_EXCEEDED}[outcome]


@st.composite
def total_tables(draw, states):
    """Every action drawn as one integer, so a table is one list of integers."""
    keys = [(q, *symbols) for q in states for symbols in itertools.product(SYMBOLS, repeat=3)]
    actions = list(itertools.product(states, SYMBOLS, SYMBOLS, MOVES, MOVES, MOVES))
    codes = draw(st.lists(st.integers(0, len(actions) - 1),
                          min_size=len(keys), max_size=len(keys)))
    return {key: actions[code] for key, code in zip(keys, codes)}


@st.composite
def machines(draw):
    states = ("q0", "q1", "halt")[-draw(st.integers(2, 3)):]
    return TuringMachine(states=states, start_state=states[0], halt_state="halt",
                         table=draw(total_tables(states)))


@st.composite
def ndtms(draw):
    states = ("q0", "q1", "accept", "reject")[-draw(st.integers(3, 4)):]
    return NDTM(states=states, start_state=states[0], accept_state="accept",
                reject_state="reject", table0=draw(total_tables(states)),
                table1=draw(total_tables(states)))


binary = st.text(alphabet="01", max_size=6)


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(machine=machines(), input_string=binary, budget=st.integers(1, 60))
def test_run_matches_reference_interpreter(machine, input_string, budget):
    result = run(machine, input_string, budget, trace=True)
    status, steps, output, lines = reference_run(machine, input_string, budget)
    assert isinstance(result, Halted if status == "halted" else BudgetExceeded)
    assert result.steps == steps
    assert getattr(result, "output", None) == output
    assert list(result.trace) == lines


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(machine=ndtms(), input_string=binary, depth=st.integers(1, 6))
def test_ndtm_accepts_matches_reference_search(machine, input_string, depth):
    assert ndtm_accepts(machine, input_string, depth) is reference_accepts(
        machine, input_string, depth)


def test_long_tape_growing_run():
    """Copies the input to the work tape and its complement to the output
    tape, every head moving right, and halts on the first blank input cell:
    all three tapes grow on every one of the 10^5 + 2 steps."""
    bits = "".join(random.Random(0).choice("01") for _ in range(100_000))
    flip = {"0": "1", "1": "0", "^": "^"}
    states = ("walk", "halt")

    def walk(q, s_in, s_work, s_out):
        if q == "halt" or s_in == BLANK:
            return ("halt", s_work, s_out, "S", "S", "S")
        return ("walk", s_in, flip[s_in], "R", "R", "R")

    machine = TuringMachine(states=states, start_state="walk", halt_state="halt",
                            table=dense_table(states, walk))
    result = run(machine, bits, 200_000)
    assert isinstance(result, Halted)
    assert result.steps == len(bits) + 2
    assert result.output == "".join(flip[b] for b in bits)
    config = Configuration.initial("walk", bits)
    while config.state != "halt":
        step(machine, config)
    assert config.heads == [len(bits) + 1] * 3
    assert [len(tape) for tape in config.tapes] == [len(bits) + 2] * 3
    assert config.tapes[1].decode("ascii") == "^" + bits + BLANK
