"""Benchmark of the nlv command-line workbench.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Requests go in-process through
``nlv.cli.dispatch`` with ``--json`` and the CLI's default thread setting
(no ``--threads`` flag, ``NLV_THREADS`` removed), as a closed loop with one
client: each request is sent when the previous one has returned.  Every
request's output is checked, and the deterministic part of its JSON (all
but ``manifest.runtime_seconds``) must repeat byte for byte each time the
request runs again.  An untimed warm-up first runs the first request of
each command once.

``--trace 0`` measures the end-to-end metrics: it repeats whole passes
until ``--seconds`` have gone by.  ``--trace 1`` runs one untraced pass and
then the same pass with every public ``nlv`` function wrapped in a span
recorder, and reports the per-layer metrics.  The last line of standard
output is the JSON result; a fuller report (environment, per-kind
latencies, failures) goes to standard error and to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

import metrics
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
# A fresh interpreter is ready once the CLI module is imported and its
# parser built.
READY = "import sys; sys.path.insert(0, sys.argv[1]); import nlv.cli; nlv.cli.build_parser()"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("search-entangled", "search-sync", "workbench"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


class Runner:
    """Sends the requests of one pass and checks each output."""

    def __init__(self, requests, dispatch_module):
        self.requests = requests
        self.cli = dispatch_module
        self.first_output: dict[int, str] = {}
        self.attempted = 0
        self.errors: list[str] = []

    def execute(self, index: int, tracer=None) -> dict:
        request = self.requests[index]
        self.attempted += 1
        stdout, stderr = io.StringIO(), io.StringIO()
        code = None
        error = None
        if tracer is not None:
            tracer.begin(self.attempted)
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.dispatch(list(request.argv))
        except Exception:  # a crashing request is a failed request; keep going
            error = "raised " + traceback.format_exc(limit=-3)
        latency = time.perf_counter() - started
        if tracer is not None:
            tracer.end()
        outcome = {"index": index, "kind": request.kind, "latency": latency,
                   "value": None, "output_bytes": 0}
        if error is None and code != 0:
            error = f"exit code {code}: {stderr.getvalue().strip()[:200]}"
        if error is None:
            error = self._inspect(index, stdout.getvalue(), outcome)
        if error is not None:
            self.errors.append(f"{' '.join(request.argv)[:120]}: {error}")
        outcome["ok"] = error is None
        return outcome

    def _inspect(self, index: int, text: str, outcome: dict) -> str | None:
        request = self.requests[index]
        try:
            payload = json.loads(text)
            runtime = payload["manifest"].pop("runtime_seconds")
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"unparseable JSON output ({exc})"
        # The printed length of the runtime varies from run to run.
        outcome["output_bytes"] = len(text.encode()) - len(json.dumps(runtime))
        deterministic = json.dumps(payload, sort_keys=True)
        if self.first_output.setdefault(index, deterministic) != deterministic:
            return "deterministic output differs from an earlier run of the same argv"
        try:
            problem = request.check(payload)
            if problem is None and request.value_key is not None:
                outcome["value"] = float(payload[request.value_key])
        except Exception:  # malformed output or files make the check itself fail
            problem = "check failed: " + traceback.format_exc(limit=-1).strip()
        return problem

    def run_pass(self, tracer=None) -> tuple[list[dict], float]:
        started = time.perf_counter()
        outcomes = [self.execute(index, tracer) for index in range(len(self.requests))]
        return outcomes, time.perf_counter() - started

    def warm_up(self) -> None:
        """Run the first request of each command once, untimed: imports and
        lazy set-up inside the program happen here."""
        seen = set()
        for index, request in enumerate(self.requests):
            command = tuple(arg for arg in request.argv[:2] if not arg.startswith("-"))
            if command not in seen:
                seen.add(command)
                self.execute(index)


def measure_setup(build) -> tuple[list, list[float]]:
    """Time a fresh interpreter until the CLI is ready, plus input
    generation, ``SETUP_REPEATS`` times after one untimed start that fills
    the bytecode cache.  Returns the requests and the samples."""
    command = [sys.executable, "-c", READY, str(SRC)]
    subprocess.run(command, check=True)
    samples = []
    requests = None
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(command, check=True)
        ready = time.perf_counter() - started
        started = time.perf_counter()
        requests = build()
        samples.append(ready + time.perf_counter() - started)
    return requests, samples


def environment(cli) -> dict:
    import numpy
    blas = None
    try:
        found = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: found.get(key) for key in ("name", "version")}
    except (TypeError, KeyError, ValueError):
        pass
    resolve = getattr(cli, "_resolve_threads", None)
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "default_threads": resolve(argparse.Namespace(threads=None)) if resolve else None,
    }


def kind_latencies(outcomes) -> dict:
    by_kind = defaultdict(list)
    for outcome in outcomes:
        by_kind[outcome["kind"]].append(outcome["latency"])
    return dict(by_kind)


def request_medians(requests, outcomes) -> list[dict]:
    """Median latency of each request of the pass, for the report."""
    by_index = defaultdict(list)
    for outcome in outcomes:
        by_index[outcome["index"]].append(outcome["latency"])
    return [{"argv": " ".join(request.argv)[:100], "p50_s": metrics.median(by_index[index])}
            for index, request in enumerate(requests) if by_index[index]]


def end_to_end(timed, wall, setup_samples) -> tuple[dict, dict]:
    """End-to-end metrics of the timed passes, and the per-kind report."""
    by_kind = kind_latencies(timed)
    values = [o["value"] for o in timed if o["value"] is not None]
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "setup_s": (metrics.median(setup_samples), "s"),
        "peak_rss_mb": (usage / 1024.0, "MB"),
        "requests_per_s": (sum(o["ok"] for o in timed) / wall, "1/s"),
        "latency_p50_s": (metrics.geomean(metrics.median(v) for v in by_kind.values()), "s"),
        # No value when every value request failed; the run is incorrect then.
        "value_mean": (sum(values) / len(values) if values else 0.0, "prob"),
    }
    kinds = {kind: metrics.latency_summary(v) for kind, v in sorted(by_kind.items())}
    return out, kinds


def run(args) -> tuple[dict, dict]:
    import nlv
    import nlv.cli
    if Path(nlv.__file__).resolve().parent != SRC / "nlv":
        raise SystemExit(f"error: imported nlv from {nlv.__file__}, not from {SRC}")
    import workloads

    def build():
        return workloads.build(args.workload, args.seed)

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(nlv.cli)}
    if args.trace:
        requests, setup_samples = build(), []
    else:
        requests, setup_samples = measure_setup(build)
    runner = Runner(requests, nlv.cli)
    runner.warm_up()
    if not args.trace:
        timed, wall, passes = [], 0.0, 0
        while wall < args.seconds:
            outcomes, elapsed = runner.run_pass()
            timed += outcomes
            wall += elapsed
            passes += 1
        found, report["kinds"] = end_to_end(timed, wall, setup_samples)
        report.update(passes=passes, timed_s=wall, setup_samples_s=setup_samples,
                      requests=request_medians(requests, timed))
    else:
        untraced, untraced_s = runner.run_pass()
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, traced_s = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        found = {}
        for name, value in metrics.layer_totals(tracer.spans, spans.LAYERS).items():
            found[name] = (value, "count" if name.endswith(".calls") else "s")
        named, absent = metrics.named_metrics(
            tracer.spans, tracer.installed, sum(o["output_bytes"] for o in traced),
            traced_s / untraced_s - 1.0)
        for name, value in named.items():
            found[name] = (value, metrics.NAMED[name][0])
        tracer.dump(OUT / f"spans-{args.workload}.jsonl.gz")
        report.update(untraced_s=untraced_s, traced_s=traced_s, spans=len(tracer.spans),
                      absent=absent, kinds={kind: metrics.latency_summary(v) for kind, v
                                            in sorted(kind_latencies(untraced).items())})
    failed = len(runner.errors)
    report.update(errors=runner.errors[:20],
                  failed_frac=metrics.failed_frac(runner.attempted, failed))
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in found.items()}}
    return result, report


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "nlv" / "__init__.py").is_file():
        print(f"error: no nlv sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("NLV_THREADS", None)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    here = os.getcwd()
    try:
        # Inputs, specs, families and CSVs are written here, never into the tree.
        os.chdir(workdir)
        result, report = run(args)
    finally:
        os.chdir(here)
        shutil.rmtree(workdir, ignore_errors=True)
    text = json.dumps(report, indent=1, sort_keys=True)
    (OUT / f"report-{args.workload}-trace{args.trace}.json").write_text(text + "\n")
    print(text, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
