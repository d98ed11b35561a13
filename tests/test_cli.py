"""Dispatcher behavior: exit codes, JSON schemas, reproducibility."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nlv import cli, data_path
from nlv.cli import build_parser, dispatch
from nlv.errors import NlvError, ParseError
from nlv.game import chsh_game, game_value, load_game, load_strategy, random_game, save_game
from nlv.linalg import interleave
from nlv.moments import load_matrices, sample_moment_cloud
from nlv.quantum import chsh_optimal_spec, load_spec, save_spec
from nlv.synchronous import load_family, save_family, sync_value_lower_bound, tracial_correlation
from nlv.tm import load_machine, run

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


def test_sync_lb_reports_the_value_its_family_file_certifies(tmp_path, capsys):
    family_file = tmp_path / "fam.json"
    payload = run_json(capsys, ["sync-lb", "--game", CHSH, "--dim", "3", "--restarts", "2",
                                "--seed", "5", "--family-out", str(family_file)])
    reloaded = load_family(family_file.read_text())
    assert game_value(chsh_game(), tracial_correlation(reloaded)) == payload["value"]
    assert payload["value"] == sync_value_lower_bound(chsh_game(), 3, 2, 5)[0]


@pytest.mark.parametrize("command, out_flag, digest", [
    ("quantum-lb", "--spec-out", "4b2382f4543f51ca290dd5e0430eec70d60fa33dcef69dbb734d747856d3b5b9"),
    ("sync-lb", "--family-out", "07a18b73ef2c974fa1ddbc80846ad11d393dc0447558d2b50ba089933826bb93"),
])
def test_search_file_bytes_are_pinned(tmp_path, capsys, command, out_flag, digest):
    # Digests of the files the json.dumps(indent=2) writer produced.
    game, out = tmp_path / "game.json", tmp_path / "out.json"
    game.write_text(save_game(random_game(2, 3, 1)))
    run_json(capsys, [command, "--game", str(game), "--dim", "3", "--restarts", "2",
                      "--seed", "4", out_flag, str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_shrinking_rewrite_leaves_no_stale_tail(tmp_path, capsys):
    def quantum_lb(dim, out):
        run_json(capsys, ["quantum-lb", "--game", CHSH, "--dim", dim, "--restarts", "2",
                          "--seed", "0", "--spec-out", str(out)])

    reused, fresh = tmp_path / "spec.json", tmp_path / "fresh.json"
    quantum_lb("3", reused)
    longer = reused.stat().st_size
    quantum_lb("2", reused)
    quantum_lb("2", fresh)
    assert fresh.stat().st_size < longer
    assert reused.read_bytes() == fresh.read_bytes()


def test_moments_cloud_to_dev_null(capsys):
    payload = run_json(capsys, ["moments", "cloud", "--n", "1", "--d", "2", "--p", "2",
                                "--count", "5", "--seed", "3", "--out", "/dev/null"])
    assert payload["rows"] == 5


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


def test_moments_cloud_csv_bytes_are_pinned(tmp_path, capsys):
    # Rows are shortest-repr Python floats; numpy scalar reprs would change them.
    out = tmp_path / "cloud.csv"
    run_json(capsys, ["moments", "cloud", "--n", "1", "--d", "2", "--p", "2",
                      "--count", "5", "--seed", "3", "--out", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "c32892e22d99596fe7c731ea4e1541e10116944df47ff6ccc7cc3d728fc199a6"


def repr_csv(values):
    """The rows of a float array as CSV through the plain ``repr`` loop."""
    return "".join(",".join(map(repr, row.tolist())) + "\n" for row in values)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(0, 70), st.integers(0, 6)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_cloud_csv_rows_are_repr(values):
    assert cli._csv_text(values) == repr_csv(values)


# Where orjson's layout and repr's part, and their neighbours.
CSV_BOUNDARIES = [0.0, 5e-324, float(np.nextafter(1e-4, 0)), 1e-4, 1e-5, 1e15,
                  float(np.nextafter(1e16, 0)), 1e16, 9999999999999998.0,
                  1.7976931348623157e308]


def test_cloud_csv_boundary_values_are_repr():
    row = CSV_BOUNDARIES + [-x for x in CSV_BOUNDARIES]
    non_finite = [float("nan"), float("inf"), -float("inf")] * 4 + [1.5] * 8
    values = np.array([row, row[::-1], non_finite])
    text = cli._csv_text(values)
    assert text == repr_csv(values)
    assert text.splitlines()[0].split(",")[:10] == [
        "0.0", "5e-324", "9.999999999999999e-05", "0.0001", "1e-05", "1000000000000000.0",
        "9999999999999998.0", "1e+16", "9999999999999998.0", "1.7976931348623157e+308"]


def test_moments_cloud_of_no_rows_is_an_empty_file(tmp_path, capsys):
    out = tmp_path / "cloud.csv"
    out.write_text("stale\n")
    payload = run_json(capsys, ["moments", "cloud", "--n", "2", "--d", "3", "--p", "3",
                                "--count", "0", "--seed", "31", "--out", str(out)])
    assert payload["rows"] == 0
    assert out.read_bytes() == b""


def benchmark_cloud():
    return sample_moment_cloud(2, 3, 3, 400, 31)


def repr_loop(cloud):
    """The cloud's CSV as written before orjson: ``repr`` of every float."""
    lines = [",".join(map(repr, interleave(row))) for row in cloud]
    return "\n".join(lines) + ("\n" if lines else "")


def test_benchmark_cloud_csv_is_the_repr_loop(tmp_path, capsys):
    cloud = benchmark_cloud()
    size = np.abs(cloud.view(np.float64))
    assert np.count_nonzero((size > 0) & (size < 1e-4)) == 50
    out = tmp_path / "cloud.csv"
    run_json(capsys, ["moments", "cloud", "--n", "2", "--d", "3", "--p", "3",
                      "--count", "400", "--seed", "31", "--out", str(out)])
    assert out.read_text() == repr_loop(cloud)


def test_cloud_csv_peaks_no_higher_than_the_repr_loop():
    cloud = benchmark_cloud()
    cli._csv_text(cloud[:1].view(np.float64))  # load orjson outside the measurement
    peaks = []
    for write in (repr_loop, lambda cloud: cli._csv_text(cloud.view(np.float64))):
        tracemalloc.start()
        write(cloud)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def python_with_nlv(args, stdout=subprocess.PIPE):
    """Run a fresh interpreter that imports this checkout's nlv."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def test_searches_never_load_orjson(tmp_path):
    code = (f"import sys\nfrom nlv.cli import dispatch\n"
            f"assert dispatch(['quantum-lb', '--game', {CHSH!r}, '--dim', '2', '--restarts', '1',"
            f" '--seed', '0', '--spec-out', {str(tmp_path / 'spec.json')!r}]) == 0\n"
            f"assert dispatch(['sync-lb', '--game', {CHSH!r}, '--dim', '2', '--restarts', '1',"
            f" '--seed', '0']) == 0\n"
            f"assert 'orjson' not in sys.modules\n")
    done = python_with_nlv(["-c", code])
    assert done.returncode == 0, done.stderr


def test_moments_map_admits_contraction_within_tolerance(tmp_path, capsys):
    # 1.0000000005 passes the operator-norm check, so its cube must be admitted.
    path = tmp_path / "mats.json"
    path.write_text('{"dim": 1, "matrices": [[1.0000000005, 0.0]]}')
    payload = run_json(capsys, ["moments", "map", "--n", "1", "--d", "3",
                                "--matrices", str(path)])
    assert payload["count"] == 14


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


def test_tm_trace_prints_its_lines_in_text_mode(capsys):
    argv = ["tm", "run", "--machine", COPIER, "--input", "1", "--budget", "10", "--trace"]
    trace = run_json(capsys, argv)["trace"]
    assert dispatch(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("trace:") + 1
    assert lines[start:start + len(trace)] == [f"  {line}" for line in trace]
    assert lines[start + len(trace)].startswith("[tm v")


def test_tm_trace_past_its_cap_is_one_error_line(capsys):
    started = time.perf_counter()
    line = domain_error_line(capsys, ["tm", "run", "--machine", LOOPER,
                                      "--budget", "1000000000000", "--trace"])
    assert line == "error: trace exceeds cap of 67108864 characters"
    assert time.perf_counter() - started < 1.0


class Discard:
    """A stdout that keeps nothing, so that only the run's own memory counts."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def test_json_trace_is_streamed_not_copied(monkeypatch):
    # The looper's 50,000-line trace is ~5 MB; printing it as JSON must
    # not copy it.
    machine = load_machine(Path(LOOPER).read_text())
    tracemalloc.start()
    run(machine, "", 50_000, trace=True)
    alone = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    monkeypatch.setattr(sys, "stdout", Discard())
    tracemalloc.start()
    code = dispatch(["tm", "run", "--json", "--machine", LOOPER, "--budget", "50000", "--trace"])
    whole = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 0
    assert whole <= 1.2 * alone


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


def refuses_unwritable_stdout(stdout):
    done = python_with_nlv(["-m", "nlv.cli", "demo-chsh", "--json"], stdout=stdout)
    assert done.returncode == 1
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_result_on_a_full_device_is_one_error_line():
    with open("/dev/full", "w") as full:
        refuses_unwritable_stdout(full)


def test_result_into_a_closed_pipe_is_one_error_line():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        refuses_unwritable_stdout(write_end)
    finally:
        os.close(write_end)


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


@pytest.mark.parametrize("command, out_flag", [("quantum-lb", "--spec-out"),
                                               ("sync-lb", "--family-out")])
def test_a_dimension_below_one_is_a_usage_error(tmp_path, capsys, command, out_flag):
    assert dispatch([command, "--game", CHSH, "--dim", "0", "--restarts", "1", "--seed", "0",
                     out_flag, str(tmp_path / "out.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --dim: must be >= 1" in captured.err


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
    # Entries of +-1e308 are finite, but their sum overflows to a violation.
    bad = tmp_path / "bad.json"
    for pi, message in (([[float("nan"), 0.25], [0.25, 0.25]], "non-finite"),
                        ([[1e308, 1e308], [-1e308, -1e308]], "distribution mass inf != 1"),
                        ([[1e308, 1e308, 0], [0, -1e308, -1e308], [0, 0, 0]],
                         "distribution mass nan != 1")):
        bad.write_text(json.dumps({"k": len(pi), "n": 2, "pi": pi, "wins": [[1, 1, 1, 1]]}))
        assert message in domain_error_line(capsys, ["classical", "--game", str(bad)])


def test_overflowing_strategy_domain_error(tmp_path, capsys):
    p = np.full((2, 2, 2, 2), 0.25)
    p[0, 0, 0] = 1e308
    bad = tmp_path / "strategy.json"
    bad.write_text(json.dumps({"k": 2, "n": 2, "p": p.tolist()}))
    line = domain_error_line(capsys, ["value", "--game", CHSH, "--strategy", str(bad)])
    assert "answers for questions (1, 1) sum to inf != 1" in line


def test_directory_as_game_domain_error(tmp_path, capsys):
    domain_error_line(capsys, ["sync-lb", "--game", str(tmp_path), "--dim", "1",
                               "--restarts", "1", "--seed", "0"])


WRITERS = {
    "quantum-lb": lambda path: ["quantum-lb", "--game", CHSH, "--dim", "2", "--restarts", "1",
                                "--seed", "0", "--spec-out", path],
    "sync-lb": lambda path: ["sync-lb", "--game", CHSH, "--dim", "2", "--restarts", "1",
                             "--seed", "0", "--family-out", path],
    "moments-cloud": lambda path: ["moments", "cloud", "--n", "1", "--d", "2", "--p", "2",
                                   "--count", "5", "--seed", "3", "--out", path],
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_directory_as_output_file_domain_error(name, tmp_path, capsys):
    assert "Is a directory" in domain_error_line(capsys, WRITERS[name](str(tmp_path)))


@pytest.mark.parametrize("name, flag, search, target", [
    *((name, flag, search, target)
      for name, flag, search in (("quantum-lb", "--spec-out", "entangled_lower_bound"),
                                 ("sync-lb", "--family-out", "sync_value_lower_bound"))
      for target in ("/dev/null", "directory", "missing parent")),
    ("moments-cloud", "--out", "sample_moment_cloud", "missing parent"),
    ("moments-cloud", "--out", "sample_moment_cloud", "directory"),
    ("quantum-lb", "--spec-out", "entangled_lower_bound", "empty"),
    ("sync-lb", "--family-out", "sync_value_lower_bound", "empty"),
    ("moments-cloud", "--out", "sample_moment_cloud", "empty")])
def test_certificate_target_that_is_not_a_regular_file_is_refused_before_the_search(
        monkeypatch, tmp_path, capsys, name, flag, search, target):
    # The value is re-derived from the file read back, which /dev/null
    # or a directory cannot give, and a file in a missing directory, a
    # directory or an empty path cannot be written, so a moment cloud is
    # not sampled for them either.
    def never(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, search, never)
    path = {"directory": str(tmp_path), "empty": "",
            "missing parent": str(tmp_path / "no-such-dir" / "out.json")}.get(target, target)
    line = domain_error_line(capsys, WRITERS[name](path))
    assert line.startswith(f"error: {flag} {path}: ")


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_read_only_output_file_domain_error(name, tmp_path, capsys):
    target = tmp_path / "out"
    target.write_text("kept\n")
    target.chmod(0o444)
    if os.access(target, os.W_OK):
        pytest.skip("this process may write to read-only files")
    assert "Permission denied" in domain_error_line(capsys, WRITERS[name](str(target)))
    assert target.read_text() == "kept\n"


def test_moments_map_non_json_domain_error(tmp_path, capsys):
    bad = tmp_path / "mats.json"
    bad.write_text("not json")
    line = domain_error_line(capsys, ["moments", "map", "--n", "1", "--d", "1",
                                      "--matrices", str(bad)])
    assert "invalid JSON" in line


def test_moments_map_empty_matrices_domain_error(tmp_path, capsys):
    mats = tmp_path / "mats.json"
    mats.write_text('{"dim": 0, "matrices": [[]]}')
    line = domain_error_line(capsys, ["moments", "map", "--n", "1", "--d", "1",
                                      "--matrices", str(mats)])
    assert line == "error: matrices file: dim must be an integer >= 1, got 0"


# A nested matrix holds the 8 numbers of one 2 x 2 matrix in two rows: a
# reader that flattens would take the rows as real and imaginary parts.
@pytest.mark.parametrize("text, message", [
    ('{"dim": 1.5, "matrices": [[0.5, 0.0]]}', "dim must be an integer >= 1, got 1.5"),
    ('{"dim": true, "matrices": [[0.5, 0.0]]}', "dim must be an integer >= 1, got True"),
    ('{"dim": 2, "matrices": [[[0.5, 0.0, 0.0, 0.5], [0.0, -0.5, 0.5, 0.0]]]}',
     "matrix 1 must be a numeric array of shape (8,)"),
    ('{"dim": 1, "matrices": [[0.5, 0.0], [NaN, 0.0]]}', "matrix 2 has a non-finite entry"),
], ids=["dim-1.5", "dim-true", "nested", "nan"])
def test_moments_map_malformed_matrices_domain_error(tmp_path, capsys, text, message):
    mats = tmp_path / "mats.json"
    mats.write_text(text)
    line = domain_error_line(capsys, ["moments", "map", "--n", "1", "--d", "1",
                                      "--matrices", str(mats)])
    assert line == f"error: matrices file: {message}"


@pytest.mark.parametrize("eps", ["nan", "-1", "inf"])
def test_density_bad_eps_domain_error(capsys, eps):
    line = domain_error_line(capsys, ["moments", "density", "--json", "--n", "1", "--d", "1",
                                      "--p1", "1", "--p2", "2", "--eps", eps, "--seed", "0"])
    assert line.startswith("error: eps must be finite and >= 0")


@pytest.mark.parametrize("flag", ["--completeness", "--soundness"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_demo_chsh_non_finite_threshold_usage_error(capsys, flag, value):
    assert dispatch(["demo-chsh", "--json", f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be finite" in captured.err


def test_oversized_game_is_refused_before_allocation(tmp_path, capsys):
    # k^2 n^2 = 1.6e7 entries: past the cap, yet small enough to allocate
    # if the cap were missing.
    big = tmp_path / "big.json"
    big.write_text('{"k": 1, "n": 4000, "pi": [[1.0]], "wins": []}')
    assert "exceeds cap" in domain_error_line(capsys, ["classical", "--game", str(big)])


# Each size would need far more memory than a desk machine has: the
# entangled search's game operator at d = 400 is 381 GiB, a sync family at
# d = 10^5 is 300 GiB, one p x p matrix at p = 10^6 is 15 TiB, and the
# products one tuple holds for words up to d = 19 at p = 64 are 32 GiB.
@pytest.mark.parametrize("argv, cap", [
    (["quantum-lb", "--game", CHSH, "--dim", "400", "--restarts", "1", "--seed", "0"],
     "dim^2 = 160000 exceeds the entangled search cap"),
    (["sync-lb", "--game", CHSH, "--dim", "100000", "--restarts", "1", "--seed", "0"],
     "dim = 100000 exceeds the synchronous search cap"),
    (["moments", "cloud", "--n", "1", "--d", "1", "--p", "1000000", "--count", "1",
      "--seed", "0", "--out", "never-written.csv"], "p = 1000000 exceeds cap"),
    (["moments", "density", "--n", "1", "--d", "1", "--p1", "1", "--p2", "1000000",
      "--eps", "0.1", "--seed", "0"], "p = 1000000 exceeds cap"),
    (["moments", "cloud", "--n", "1", "--d", "19", "--p", "64", "--count", "1",
      "--seed", "0", "--out", "never-written.csv"], "needs 34359869440 bytes exceeding cap"),
], ids=["quantum-lb", "sync-lb", "moments-cloud", "moments-density", "moments-tuple"])
def test_oversized_dimension_is_refused_before_allocation(capsys, argv, cap):
    assert cap in domain_error_line(capsys, argv)


def test_restart_past_byte_cap_is_refused_before_allocation(tmp_path, capsys):
    # One sync-lb restart of a k = 100, n = 2 game at d = 512 holds
    # 96 k n d^2 bytes = 4.7 GiB, though d is within the dimension cap.
    game = tmp_path / "wide.json"
    game.write_text(save_game(random_game(100, 2, 0)))
    argv = ["sync-lb", "--game", str(game), "--dim", "512", "--restarts", "1", "--seed", "0",
            "--family-out", str(tmp_path / "never-written.json")]
    assert "needs 5033164800 bytes exceeding cap" in domain_error_line(capsys, argv)
    assert not (tmp_path / "never-written.json").exists()


# A run that reads each file kind from ``path``; the searches read games.
READS = {
    "classical": ("game file", lambda path: ["classical", "--game", path]),
    "quantum-lb": ("game file", lambda path: ["quantum-lb", "--game", path, "--dim", "2",
                                              "--restarts", "1", "--seed", "0"]),
    "sync-lb": ("game file", lambda path: ["sync-lb", "--game", path, "--dim", "2",
                                           "--restarts", "1", "--seed", "0"]),
    "value": ("strategy file", lambda path: ["value", "--game", CHSH, "--strategy", path]),
    "moments-map": ("matrices file", lambda path: ["moments", "map", "--n", "1", "--d", "1",
                                                   "--matrices", path]),
    "tm-run": ("machine file", lambda path: ["tm", "run", "--machine", path, "--budget", "10"]),
}


@pytest.mark.parametrize("name", sorted(READS))
def test_deeply_nested_file_is_refused_on_one_line(tmp_path, capsys, name):
    # 100,000 nested lists: past the JSON decoder's recursion limit on any
    # Python version (1,100 already is on 3.10 and 3.11).
    kind, argv = READS[name]
    path = tmp_path / "deep.json"
    path.write_text('{"x": ' + "[" * 100_000 + "]" * 100_000 + "}")
    line = domain_error_line(capsys, argv(str(path)))
    assert line == f"error: {kind}: invalid JSON: nested too deeply"


# An integer of 400 digits parses, but overflows float64.
BIG = "9" * 400


@pytest.mark.parametrize("name, text, where", [
    ("classical", f'{{"k": 1, "n": 1, "pi": [[{BIG}]], "wins": []}}', "'pi'"),
    ("value", json.dumps({"k": 2, "n": 2, "p": np.full((2, 2, 2, 2), 0.25).tolist()}).replace(
        "0.25", BIG, 1), "'p'"),
    ("moments-map", f'{{"dim": 1, "matrices": [[{BIG}, 0]]}}', "matrix 1"),
], ids=["game", "strategy", "matrices"])
def test_number_past_float64_is_refused_on_one_line(tmp_path, capsys, name, text, where):
    kind, argv = READS[name]
    path = tmp_path / "big.json"
    path.write_text(text)
    line = domain_error_line(capsys, argv(str(path)))
    assert line == f"error: {kind}: {where}: number or dimension out of range"


# 3,001 digits parse, but k^2 n^2 or the shape of a dim x dim matrix would
# be too long to print.
HUGE = "1" + "0" * 3000


@pytest.mark.parametrize("name, text, key", [
    ("classical", f'{{"k": {HUGE}, "n": 1, "pi": [], "wins": []}}', "k"),
    ("moments-map", f'{{"dim": {HUGE}, "matrices": [[0.5, 0]]}}', "dim"),
], ids=["game", "matrices"])
def test_count_past_a_numpy_index_is_refused_on_one_line(tmp_path, capsys, name, text, key):
    kind, argv = READS[name]
    path = tmp_path / "huge.json"
    path.write_text(text)
    assert domain_error_line(capsys, argv(str(path))) == f"error: {kind}: {key} out of range"


def long_wins_index(obj):
    obj["wins"].append([1, 1, 1, int("9" * 3001)])


def long_state_row(obj):
    obj["transitions"][0][0] = "q" * 5000


def long_state_listed(obj):
    obj["states"].append("q" * 5000)


@pytest.mark.parametrize("name, spoil", [
    ("classical", long_wins_index),
    ("classical", lambda obj: obj.update(k="x" * 5000)),
    ("classical", lambda obj: obj.update(k=-int("9" * 3000))),
    ("tm-run", long_state_row),
    ("tm-run", long_state_listed),
    ("tm-run", lambda obj: obj["states"].append("a\nb")),
], ids=["wins-index", "k-string", "k-negative", "unknown-state", "state-not-covered",
        "state-with-line-break"])
def test_long_file_values_give_a_short_error_line(tmp_path, capsys, name, spoil):
    # The line names the bad value's position and shows at most 40
    # characters of it, whatever its length, with line breaks escaped.
    kind, argv = READS[name]
    obj = json.loads(Path(COPIER if name == "tm-run" else CHSH).read_text())
    spoil(obj)
    path = tmp_path / "long.json"
    path.write_text(json.dumps(obj))
    line = domain_error_line(capsys, argv(str(path)))
    assert line.startswith(f"error: {kind}: ") and len(line) <= 200


@pytest.mark.parametrize("limit", ["default", "none"])
def test_overlong_integer_is_refused_on_one_line(tmp_path, capsys, limit):
    # 5,000 digits: past Python's default limit on integer literals; with
    # no limit it parses and overflows float64 instead.
    path = tmp_path / "long.json"
    path.write_text(f'{{"k": 1, "n": 1, "pi": [[{"9" * 5000}]], "wins": []}}')
    old = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    setter = getattr(sys, "set_int_max_str_digits", lambda _digits: None)
    setter(0 if limit == "none" else old)
    try:
        line = domain_error_line(capsys, ["classical", "--game", str(path)])
    finally:
        setter(old)
    expected = ("invalid JSON: integer literal too long" if limit == "default" and old
                else "'pi': number or dimension out of range")
    assert line == f"error: game file: {expected}"


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


def check_mutants(original, target, check):
    """Write ``original`` with one position replaced to ``target`` and run
    ``check(str(target))``, over positions and MUTANTS drawn by hypothesis."""
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.sampled_from(list(json_positions(original))), st.sampled_from(MUTANTS))
    def check_one(path, value):
        target.write_text(json.dumps(replaced(original, path, value)))
        check(str(target))

    check_one()


def exits_with_at_most_one_error_line(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = dispatch(argv)
    assert code in (0, 1)
    assert sum(line.startswith("error:") for line in err.getvalue().splitlines()) <= 1


@pytest.mark.parametrize("name", sorted(MUTATED_RUNS))
def test_mutated_bundled_file_gives_at_most_one_error_line(name, tmp_path_factory):
    target = tmp_path_factory.mktemp("mutant") / name
    argv = MUTATED_RUNS[name](str(target))
    check_mutants(json.loads(data_path(name).read_text()), target,
                  lambda _path: exits_with_at_most_one_error_line(argv))


MATRICES = {"dim": 2, "matrices": [[0.5, 0.0, 0.0, 0.5, 0.0, -0.5, 0.5, 0.0]]}

# Each file kind's loader and a file it reads, as JSON text.
LOADERS = {
    "game": (load_game, lambda: data_path("chsh.json").read_text()),
    "strategy": (load_strategy, lambda: data_path("uniform.json").read_text()),
    "spec": (load_spec, lambda: save_spec(chsh_optimal_spec())),
    "family": (load_family, lambda: save_family(
        sync_value_lower_bound(chsh_game(), dim=2, restarts=1, seed=0, iters=5)[1])),
    "matrices": (load_matrices, lambda: json.dumps(MATRICES)),
    "machine": (load_machine, lambda: data_path("copier.json").read_text()),
}


def loads_or_is_refused_by_kind(load, kind):
    """A check that ``load`` returns an object for the file at a path, or
    raises an NlvError whose message is one line of at most 200
    characters, led by the file kind."""
    def check(path):
        try:
            load(Path(path).read_text())
        except NlvError as err:
            message = str(err)
            assert len(message.splitlines()) == 1 and len(message) <= 200, message
            assert message.startswith((f"{kind} file: ", f"invalid {kind}: ")), message
    return check


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_mutated_file_loads_or_is_refused_by_kind(kind, tmp_path):
    load, text = LOADERS[kind]
    check_mutants(json.loads(text()), tmp_path / f"{kind}.json",
                  loads_or_is_refused_by_kind(load, kind))


def commuting_on_two_spaces(obj):
    obj.update(flavor="commuting", dim_bob=1, state=obj["state"][:4])
    for family in obj["bob"]:
        family["outcomes"] = [[1.0, 0.0], [0.0, 0.0]]


def flavor_families(obj, flavor):
    for family in obj["alice"] + obj["bob"]:
        family["flavor"] = flavor


# Refusals that take more than one position to reach: a spec's flavor with
# a state of its size, the measurement of every family, the dimensions
# with the flavor; and a machine's start or halt state.
@pytest.mark.parametrize("kind, spoil, message", [
    ("spec", lambda obj: obj.update(flavor="x", state=obj["state"][:4]),
     "spec file: flavor must be 'tensor' or 'commuting', got 'x'"),
    ("spec", lambda obj: flavor_families(obj, "y"),
     "spec file: measurement must be 'povm' or 'pvm', got 'y'"),
    ("spec", commuting_on_two_spaces,
     "spec file: commuting flavor needs both players on one space"),
    ("machine", lambda obj: obj.update(start_state="nowhere"),
     "machine file: start and halt states must be listed in states"),
    ("machine", lambda obj: obj.update(halt_state="nowhere"),
     "machine file: start and halt states must be listed in states"),
], ids=["spec-flavor", "spec-measurement", "spec-commuting-dims", "machine-start",
        "machine-halt"])
def test_semantic_refusal_is_a_parse_error_led_by_the_kind(kind, spoil, message):
    load, text = LOADERS[kind]
    obj = json.loads(text())
    spoil(obj)
    with pytest.raises(ParseError) as err:
        load(json.dumps(obj))
    assert str(err.value) == message


def test_mutated_matrices_file_gives_at_most_one_error_line(tmp_path):
    check_mutants(MATRICES, tmp_path / "mats.json", lambda path: exits_with_at_most_one_error_line(
        ["moments", "map", "--n", "1", "--d", "2", "--matrices", path]))
