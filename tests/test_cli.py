"""Dispatcher behavior: exit codes, JSON schemas, reproducibility."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlv import data_path
from nlv.cli import build_parser, dispatch

CHSH = str(data_path("chsh.json"))
UNIFORM = str(data_path("uniform.json"))
LOOPER = str(data_path("looper.json"))
COPIER = str(data_path("copier.json"))


def run_json(capsys, argv):
    code = dispatch(argv + ["--json"] if "--json" not in argv else argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def strip_runtime(payload):
    payload = json.loads(json.dumps(payload))
    payload["manifest"].pop("runtime_seconds")
    return payload


def check_manifest(payload, subcommand):
    manifest = payload["manifest"]
    assert manifest["subcommand"] == subcommand
    assert manifest["version"]
    assert isinstance(manifest["parameters"], dict)
    assert isinstance(manifest["runtime_seconds"], float)


def test_value_uniform_is_half(capsys):
    payload = run_json(capsys, ["value", "--game", CHSH, "--strategy", UNIFORM])
    assert payload["value"] == pytest.approx(0.5, abs=1e-12)
    check_manifest(payload, "value")


def test_classical_chsh(capsys):
    payload = run_json(capsys, ["classical", "--game", CHSH])
    assert payload["value"] == 0.75
    assert payload["A"] == [1, 1]
    assert payload["B"] == [1, 1]
    check_manifest(payload, "classical")


def test_classical_cap_exit_code(capsys):
    code = dispatch(["classical", "--game", CHSH, "--cap", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert "exceeds cap" in err


def test_quantum_lb_writes_spec(tmp_path, capsys):
    spec_file = str(tmp_path / "spec.json")
    payload = run_json(capsys, [
        "quantum-lb", "--game", CHSH, "--dim", "2", "--restarts", "2",
        "--seed", "1", "--iters", "20", "--spec-out", spec_file])
    assert payload["value"] >= 0.75
    assert payload["dim"] == 2
    assert payload["spec_file"] == spec_file
    from nlv.quantum import load_spec, quantum_correlation
    from nlv.game import chsh_game, game_value
    reloaded = load_spec((tmp_path / "spec.json").read_text())
    assert game_value(chsh_game(), quantum_correlation(reloaded)) == payload["value"]
    check_manifest(payload, "quantum-lb")


def test_quantum_lb_reproducible_apart_from_runtime(tmp_path, capsys):
    argv = ["quantum-lb", "--game", CHSH, "--dim", "2", "--restarts", "1",
            "--seed", "7", "--iters", "10",
            "--spec-out", str(tmp_path / "s.json")]
    first = strip_runtime(run_json(capsys, list(argv)))
    second = strip_runtime(run_json(capsys, list(argv)))
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_sync_lb(tmp_path, capsys):
    payload = run_json(capsys, [
        "sync-lb", "--game", CHSH, "--dim", "2", "--restarts", "1",
        "--seed", "3", "--iters", "10",
        "--family-out", str(tmp_path / "fam.json")])
    assert payload["value"] == pytest.approx(0.75, abs=1e-9)
    assert payload["note"] == "finite-dimensional lower bound"
    fam = json.loads((tmp_path / "fam.json").read_text())
    assert fam["dim"] == 2 and len(fam["families"]) == 2
    check_manifest(payload, "sync-lb")


def test_superdense_all_messages(capsys):
    for msg in ("11", "12", "21", "22"):
        payload = run_json(capsys, ["superdense", "--msg", msg])
        assert payload["roundtrip_ok"] is True
        assert payload["decoded"] == [int(msg[0]), int(msg[1])]
        assert max(payload["outcome_probabilities"]) == pytest.approx(1.0, abs=1e-12)
        check_manifest(payload, "superdense")


def test_superdense_bad_message(capsys):
    assert dispatch(["superdense", "--msg", "13"]) == 1


def test_epr(capsys):
    payload = run_json(capsys, ["epr", "--trials", "2000", "--seed", "5"])
    assert payload["agreement_frequency"] == 1.0
    assert abs(payload["alice_marginal"][0] - 0.5) < 0.05
    check_manifest(payload, "epr")


def test_epr_reproducible(capsys):
    argv = ["epr", "--trials", "500", "--seed", "42", "--basis", "horizontal"]
    first = strip_runtime(run_json(capsys, list(argv)))
    second = strip_runtime(run_json(capsys, list(argv)))
    assert first == second


def test_moments_map(tmp_path, capsys):
    mats = {"dim": 2, "matrices": [[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0]]}
    path = tmp_path / "mats.json"
    path.write_text(json.dumps(mats))
    payload = run_json(capsys, ["moments", "map", "--n", "1", "--d", "2",
                                "--matrices", str(path)])
    assert payload["count"] == 6
    values = payload["values"]
    assert values[0::2] == [0.0, 0.0, 1.0, 1.0, 1.0, 1.0]
    check_manifest(payload, "moments")


def test_moments_cloud_csv(tmp_path, capsys):
    out = tmp_path / "cloud.csv"
    payload = run_json(capsys, ["moments", "cloud", "--n", "1", "--d", "1",
                                "--p", "2", "--count", "4", "--seed", "2",
                                "--out", str(out)])
    assert payload["rows"] == 4
    assert payload["moments_per_row"] == 2
    rows = out.read_text().strip().split("\n")
    assert len(rows) == 4
    assert all(len(row.split(",")) == 4 for row in rows)  # interleaved re/im


def test_moments_density(capsys):
    payload = run_json(capsys, ["moments", "density", "--n", "1", "--d", "1",
                                "--p1", "1", "--p2", "2", "--eps", "0.1",
                                "--count1", "500", "--count2", "50", "--seed", "3"])
    assert 0.0 <= payload["covered_fraction"] <= 1.0
    assert payload["note"].startswith("empirical estimate")


def test_tm_run_copier(capsys):
    payload = run_json(capsys, ["tm", "run", "--machine", COPIER,
                                "--input", "1011", "--budget", "100"])
    assert payload["status"] == "halted"
    assert payload["output"] == "1011"
    assert payload["steps"] == 6


def test_tm_run_looper_budget_is_result_not_error(capsys):
    payload = run_json(capsys, ["tm", "run", "--machine", LOOPER,
                                "--input", "1", "--budget", "100"])
    assert payload["status"] == "budget_exceeded"
    assert payload["steps"] == 100


def test_tm_trace_flag(capsys):
    payload = run_json(capsys, ["tm", "run", "--machine", COPIER,
                                "--input", "1", "--budget", "10", "--trace"])
    assert len(payload["trace"]) == payload["steps"] == 3


def test_demo_chsh(capsys):
    payload = run_json(capsys, ["demo-chsh"])
    assert payload["classical_value"] == 0.75
    assert payload["quantum_value"] == pytest.approx(np.cos(np.pi / 8) ** 2, abs=1e-9)
    assert payload["gap"] == pytest.approx(payload["quantum_value"] - 0.75, abs=1e-12)
    check_manifest(payload, "demo-chsh")


def test_demo_chsh_threshold_flags(capsys):
    payload = run_json(capsys, ["demo-chsh", "--completeness", "0.6667",
                                "--soundness", "0.3333"])
    assert payload["quantum_clears_completeness"] is True
    assert payload["classical_below_soundness"] is False


def test_demo_chsh_human_output(capsys):
    assert dispatch(["demo-chsh"]) == 0
    out = capsys.readouterr().out
    assert "0.75" in out
    assert "0.853553" in out


# Published result schemas: required keys and their types per subcommand.
SCHEMAS = {
    "value": {"value": float},
    "classical": {"value": float, "A": list, "B": list},
    "quantum-lb": {"value": float, "dim": int, "spec_file": str},
    "sync-lb": {"value": float, "dim": int, "note": str},
    "superdense": {"message": list, "encoded_state": list, "decoded": list,
                   "outcome_probabilities": list, "roundtrip_ok": bool},
    "epr": {"trials": int, "basis": str, "agreement_frequency": float,
            "alice_marginal": list},
    "moments": {"covered_fraction": float, "max_gap": float, "eps": float,
                "counts": list, "note": str},
    "tm": {"status": str, "steps": int},
    "demo-chsh": {"classical_value": float, "quantum_value": float, "gap": float},
}


def test_every_subcommand_output_matches_schema(tmp_path, capsys):
    invocations = {
        "value": ["value", "--game", CHSH, "--strategy", UNIFORM],
        "classical": ["classical", "--game", CHSH],
        "quantum-lb": ["quantum-lb", "--game", CHSH, "--dim", "1", "--restarts", "1",
                       "--seed", "0", "--iters", "2",
                       "--spec-out", str(tmp_path / "q.json")],
        "sync-lb": ["sync-lb", "--game", CHSH, "--dim", "1", "--restarts", "1",
                    "--seed", "0", "--iters", "2"],
        "superdense": ["superdense", "--msg", "11"],
        "epr": ["epr", "--trials", "10", "--seed", "0"],
        "moments": ["moments", "density", "--n", "1", "--d", "1", "--p1", "1",
                    "--p2", "1", "--eps", "0.5", "--count1", "5", "--count2", "5",
                    "--seed", "0"],
        "tm": ["tm", "run", "--machine", COPIER, "--input", "1", "--budget", "10"],
        "demo-chsh": ["demo-chsh"],
    }
    for subcommand, argv in invocations.items():
        payload = run_json(capsys, argv)
        for key, kind in SCHEMAS[subcommand].items():
            assert key in payload, f"{subcommand} missing {key}"
            if kind is float:
                assert isinstance(payload[key], (int, float)), (subcommand, key)
            else:
                assert isinstance(payload[key], kind), (subcommand, key)
        check_manifest(payload, subcommand)


def test_unknown_subcommand_usage_error(capsys):
    assert dispatch(["frobnicate"]) == 2


def test_missing_required_flag_usage_error(capsys):
    assert dispatch(["value", "--game", CHSH]) == 2


def test_dispatch_reuses_one_parser_without_leaking_values(tmp_path, capsys):
    assert build_parser() is build_parser()
    assert dispatch(["value", "--game", CHSH]) == 2
    assert run_json(capsys, ["value", "--game", CHSH, "--strategy", UNIFORM])["value"] == 0.5
    argv = ["quantum-lb", "--game", CHSH, "--dim", "1", "--restarts", "1", "--seed", "0",
            "--spec-out", str(tmp_path / "q.json")]
    assert run_json(capsys, argv + ["--iters", "5"])["manifest"]["parameters"]["iters"] == 5
    assert run_json(capsys, argv)["manifest"]["parameters"]["iters"] == 60


def test_missing_file_domain_error(capsys):
    assert dispatch(["value", "--game", "no-such.json", "--strategy", UNIFORM]) == 1


def test_invalid_game_file_domain_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"k": 0, "n": 1, "pi": [], "wins": []}')
    assert dispatch(["classical", "--game", str(bad)]) == 1


def domain_error_line(capsys, argv):
    """Run argv, require exit 1, and return its single stderr line."""
    assert dispatch(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert captured.out == ""
    return lines[0]


def test_non_finite_game_domain_error(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text('{"k": 2, "n": 2, "pi": [[NaN, 0.25], [0.25, 0.25]], '
                   '"wins": [[1, 1, 1, 1]]}')
    assert "non-finite" in domain_error_line(capsys, ["classical", "--game", str(bad)])


def test_directory_as_game_domain_error(tmp_path, capsys):
    domain_error_line(capsys, ["sync-lb", "--game", str(tmp_path), "--dim", "1",
                               "--restarts", "1", "--seed", "0"])


def test_moments_map_non_json_domain_error(tmp_path, capsys):
    bad = tmp_path / "mats.json"
    bad.write_text("not json")
    line = domain_error_line(capsys, ["moments", "map", "--n", "1", "--d", "1",
                                      "--matrices", str(bad)])
    assert "invalid JSON" in line


def test_oversized_game_is_refused_before_allocation(tmp_path, capsys):
    # k^2 n^2 = 1.6e7 entries: past the cap, yet small enough to allocate
    # if the cap were missing.
    big = tmp_path / "big.json"
    big.write_text('{"k": 1, "n": 4000, "pi": [[1.0]], "wins": []}')
    assert "exceeds cap" in domain_error_line(capsys, ["classical", "--game", str(big)])


# One position of a bundled file gets one of these: wrong types, empty and
# nested containers, and small numbers.  Large integers are left out, since
# a large declared size is its own resource cap (test above).
MUTANTS = ["x", [], [[]], {}, None, True, -1, 0, 1.5, float("nan"), 3, [1, 2]]

MUTATED_RUNS = {
    "chsh.json": lambda path: ["value", "--game", path, "--strategy", UNIFORM],
    "uniform.json": lambda path: ["value", "--game", CHSH, "--strategy", path],
    "copier.json": lambda path: ["tm", "run", "--machine", path, "--input", "1011",
                                 "--budget", "100"],
}


def json_positions(obj, path=()):
    """Key/index paths of a JSON tree's nodes, the root included.  Of a list
    longer than 10, only the first two items are entered: the rest repeat
    their schema."""
    yield path
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj if len(obj) <= 10 else obj[:2])
    else:
        children = ()
    for key, child in children:
        yield from json_positions(child, path + (key,))


def replaced(obj, path, value):
    if not path:
        return value
    out = json.loads(json.dumps(obj))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


@pytest.mark.parametrize("name", sorted(MUTATED_RUNS))
def test_mutated_bundled_file_gives_at_most_one_error_line(name, tmp_path_factory):
    original = json.loads(data_path(name).read_text())
    target = tmp_path_factory.mktemp("mutant") / name
    argv = MUTATED_RUNS[name](str(target))

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.sampled_from(list(json_positions(original))), st.sampled_from(MUTANTS))
    def check(path, value):
        target.write_text(json.dumps(replaced(original, path, value)))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = dispatch(argv)
        assert code in (0, 1)
        assert sum(line.startswith("error:") for line in err.getvalue().splitlines()) <= 1

    check()
