"""Turing machine step semantics, golden traces, and NDTM acceptance."""

from pathlib import Path

import pytest

from nlv import data_path
from nlv.errors import MachineHaltedError, ParseError, ValidationError
from nlv.tm import (NDTM, BLANK, BudgetExceeded, Configuration, Halted,
                    NdtmResult, TuringMachine, clamp_machine, copier_machine,
                    dense_table, extract_output, load_machine, looper_machine,
                    ndtm_accepts, run, save_machine, step)

DATA = Path(__file__).parent / "data"


def halt_default(halt_state):
    def default(_q, _s1, s2, s3):
        return (halt_state, s2, s3, "S", "S", "S")
    return default


def immediate_halt_machine():
    states = ("begin", "halt")
    return TuringMachine(states=states, start_state="begin", halt_state="halt",
                         table=dense_table(states, {}, halt_default("halt")))


# -- step --------------------------------------------------------------------

def test_immediate_halt_one_step():
    machine = immediate_halt_machine()
    config = Configuration.initial("begin", "")
    step(machine, config)
    assert config.state == "halt"
    assert extract_output(config) == ""


def test_left_move_clamps_at_edge():
    machine = clamp_machine()
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
    machine = copier_machine()
    config = Configuration.initial("go", "1011")
    reference = ["^", "1", "0", "1", "1"]
    while config.state != "halt":
        step(machine, config)
        materialized = config.tapes[0]
        assert materialized[:5] == reference
        assert all(sym == BLANK for sym in materialized[5:])


# -- run and golden traces ---------------------------------------------------

@pytest.mark.parametrize("text,expected,steps,golden", [
    ("", "", 2, "copier_trace_empty.txt"),
    ("1", "1", 3, "copier_trace_1.txt"),
    ("1011", "1011", 6, "copier_trace_1011.txt"),
])
def test_copier_golden_traces(text, expected, steps, golden):
    result = run(copier_machine(), text, 100, trace=True)
    assert isinstance(result, Halted)
    assert result.output == expected
    assert result.steps == steps
    assert len(result.trace) == result.steps
    assert "\n".join(result.trace) + "\n" == DATA.joinpath(golden).read_text()


def test_looper_budget_exceeded():
    result = run(looper_machine(), "1", 10_000)
    assert isinstance(result, BudgetExceeded)
    assert result.steps == 10_000


def test_run_rejects_zero_budget():
    with pytest.raises(ValidationError):
        run(copier_machine(), "1", 0)


def test_run_rejects_non_binary_input():
    with pytest.raises(ValidationError):
        run(copier_machine(), "10x", 10)


def test_run_deterministic_full_trace():
    a = run(copier_machine(), "1011", 100, trace=True)
    b = run(copier_machine(), "1011", 100, trace=True)
    assert a == b


def test_budget_monotonicity():
    small = run(copier_machine(), "1011", 6)
    large = run(copier_machine(), "1011", 5000)
    assert isinstance(small, Halted) and isinstance(large, Halted)
    assert small.output == large.output
    assert small.steps == large.steps
    under = run(copier_machine(), "1011", 5)
    assert isinstance(under, BudgetExceeded)


# -- machine files -----------------------------------------------------------

def test_bundled_machines_round_trip():
    for name, builder in (("copier", copier_machine), ("looper", looper_machine),
                          ("clamp", clamp_machine)):
        text = data_path(f"{name}.json").read_text()
        assert load_machine(text) == builder()
        assert save_machine(load_machine(text)) == text


def test_load_rejects_missing_transition():
    machine = immediate_halt_machine()
    import json
    obj = json.loads(save_machine(machine))
    del obj["transitions"][0]
    with pytest.raises(ValidationError, match="not total"):
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
                table0=dense_table(states, {}, chain("guessed0")),
                table1=dense_table(states, {}, chain("guessed1")))


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
                   table0=dense_table(states, {}, to_reject),
                   table1=dense_table(states, {}, to_reject))
    assert ndtm_accepts(machine, "1", 1) is NdtmResult.REJECT


def test_ndtm_deep_accept_beyond_budget():
    states = ("start", "s1", "s2", "s3", "accept", "reject")
    order = {"start": "s1", "s1": "s2", "s2": "s3", "s3": "accept"}

    def chain(q, _s1, s2, s3):
        return (order.get(q, q), s2, s3, "S", "S", "S")

    machine = NDTM(states=states, start_state="start",
                   accept_state="accept", reject_state="reject",
                   table0=dense_table(states, {}, chain),
                   table1=dense_table(states, {}, chain))
    assert ndtm_accepts(machine, "", 2) is NdtmResult.BUDGET_EXCEEDED
    assert ndtm_accepts(machine, "", 4) is NdtmResult.ACCEPT


def test_ndtm_distinct_halting_states_required():
    states = ("start", "stop")
    with pytest.raises(ValidationError, match="distinct"):
        NDTM(states=states, start_state="start", accept_state="stop",
             reject_state="stop",
             table0=dense_table(states, {}, halt_default("stop")),
             table1=dense_table(states, {}, halt_default("stop")))


def test_ndtm_rejects_zero_budget():
    with pytest.raises(ValidationError):
        ndtm_accepts(guess_bit_ndtm(), "1", 0)
