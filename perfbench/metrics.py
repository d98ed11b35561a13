"""Arithmetic of the benchmark: summary statistics over request latencies,
and self times, layer totals and named per-layer metrics over spans.

Everything here is a pure function of its arguments.  A span is the tuple
recorded by :mod:`spans` (fields in ``spans.FIELDS``).
"""

from __future__ import annotations

import math
from collections import defaultdict

ID, PARENT, NAME, REQUEST, THREAD, T0, T1, C0, C1, NOTE = range(10)

PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
VALUE_TOL = 1e-9


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def geomean(values) -> float:
    values = list(values)
    if not values or min(values) <= 0.0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail_percentile(values):
    """Highest percentile in :data:`PERCENTILES` with at least ten samples
    beyond it, as ``(percentile, value)``; ``None`` with fewer than twenty
    samples.  The value is the nearest-rank percentile, and a sample is
    beyond it when it ranks after it."""
    ordered = sorted(values)
    count = len(ordered)
    best = None
    for q in PERCENTILES:
        rank = max(1, math.ceil(round(q * count / 100.0, 9)))
        if count - rank >= 10:
            best = (q, float(ordered[rank - 1]))
    return best


def latency_summary(latencies) -> dict:
    """Median, sample count and the tail percentile of one request kind."""
    tail = tail_percentile(latencies)
    return {"p50_s": median(latencies), "samples": len(latencies),
            "tail": None if tail is None else {"percentile": tail[0], "s": tail[1]}}


def failed_frac(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no requests attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie between 0 and attempted")
    return failed / attempted


def restart_yield(searches, tol: float = VALUE_TOL) -> float:
    """Share of candidates within ``tol`` of the value their search
    returned.  ``searches`` holds ``(returned_value, candidate_values)``
    pairs; a search with no candidates contributes nothing."""
    hits = total = 0
    for returned, candidates in searches:
        total += len(candidates)
        hits += sum(1 for value in candidates if abs(value - returned) <= tol)
    return hits / total if total else 0.0


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    covered = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def self_times(spans) -> dict:
    """``{span id: (self wall seconds, self thread-CPU seconds)}``.

    Self wall time is the span's duration minus the part of it covered by
    its children, on any thread (children on two pool threads overlap, so
    their union is taken).  Self CPU time subtracts only the CPU time of
    children on the span's own thread, since ``time.thread_time`` counts
    that thread alone."""
    children = defaultdict(list)
    for span in spans:
        children[span[PARENT]].append(span)
    out = {}
    for span in spans:
        t0, t1 = span[T0], span[T1]
        kids = children.get(span[ID], ())
        covered = _covered((max(k[T0], t0), min(k[T1], t1))
                           for k in kids if k[T1] > t0 and k[T0] < t1)
        child_cpu = sum(k[C1] - k[C0] for k in kids if k[THREAD] == span[THREAD])
        out[span[ID]] = (t1 - t0 - covered, span[C1] - span[C0] - child_cpu)
    return out


def layer_totals(spans, layers) -> dict:
    """``<layer>.calls``, ``<layer>.self_s`` and ``<layer>.wait_s`` for
    every layer; wait is self wall time not spent on the thread's CPU."""
    own = self_times(spans)
    totals = {layer: [0, 0.0, 0.0] for layer in layers}
    for span in spans:
        entry = totals.get(span[NAME].split(".", 1)[0])
        if entry is None:
            continue
        wall, cpu = own[span[ID]]
        entry[0] += 1
        entry[1] += wall
        entry[2] += wall - cpu
    out = {}
    for layer, (calls, wall, wait) in totals.items():
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = wall
        out[f"{layer}.wait_s"] = wait
    return out


class SpanIndex:
    """Span lookups by function and binding, with ancestor tests."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {span[ID]: span for span in self.spans}

    def matching(self, functions, binding=None):
        """Spans of any of ``functions`` (``owner.function``), called
        through ``binding`` when one is given."""
        wanted = set(functions)
        out = []
        for span in self.spans:
            function, _, via = span[NAME].partition("@")
            if function in wanted and (binding is None or via == binding):
                out.append(span)
        return out

    def ancestors(self, span):
        parent = self.by_id.get(span[PARENT])
        while parent is not None:
            yield parent
            parent = self.by_id.get(parent[PARENT])

    def calls(self, functions, binding=None) -> int:
        return len(self.matching(functions, binding))

    def inclusive_s(self, functions, binding=None) -> float:
        """Wall time inside the matched spans, counting a span nested in
        another matched span only once."""
        matched = self.matching(functions, binding)
        ids = {span[ID] for span in matched}
        return sum(span[T1] - span[T0] for span in matched
                   if not any(a[ID] in ids for a in self.ancestors(span)))

    def searches(self, search_function: str):
        """``(returned value, candidate values)`` per search span: the
        candidates are the ``game.game_value`` spans beneath it."""
        found = {search[ID]: (search[NOTE], []) for search in self.matching([search_function])
                 if search[NOTE] is not None}
        for span in self.matching(["game.game_value"]):
            if span[NOTE] is None:
                continue
            for ancestor in self.ancestors(span):
                if ancestor[ID] in found:
                    found[ancestor[ID]][1].append(span[NOTE])
                    break
        return list(found.values())


# Named per-layer metrics: name -> (unit, better, source).  The source names
# the functions the number is read from (see SOURCES).  README.md says which
# end-to-end metric and workload each should move.
NAMED = {
    "quantum.measurement_update_s": ("s", "lower", "quantum.measurement_update"),
    "quantum.measurement_update_calls": ("count", "lower", "quantum.measurement_update"),
    "quantum.state_update_s": ("s", "lower", "quantum.state_update"),
    "quantum.state_update_calls": ("count", "lower", "quantum.state_update"),
    "quantum.certify_s": ("s", "lower", "quantum.certify"),
    "quantum.spec_write_s": ("s", "lower", "quantum.spec_write"),
    "quantum.candidates": ("count", "lower", "quantum.search"),
    "quantum.restart_yield": ("ratio", "higher", "quantum.search"),
    "synchronous.measurement_update_s": ("s", "lower", "synchronous.measurement_update"),
    "synchronous.certify_s": ("s", "lower", "synchronous.certify"),
    "synchronous.candidates": ("count", "lower", "synchronous.search"),
    "synchronous.restart_yield": ("ratio", "higher", "synchronous.search"),
    "linalg.eigh_calls": ("count", "lower", "linalg.eigh"),
    "linalg.eigh_s": ("s", "lower", "linalg.eigh"),
    "linalg.random_unitary_calls": ("count", "lower", "linalg.random_unitary"),
    "linalg.operator_norm_calls": ("count", "lower", "linalg.operator_norm"),
    "linalg.operator_norm_s": ("s", "lower", "linalg.operator_norm"),
    "linalg.power_iteration_calls": ("count", "lower", "linalg.power_iteration"),
    "moments.vectors": ("count", "lower", "moments.moment_map"),
    "moments.words": ("count", "lower", "moments.words"),
    "moments.moment_map_s": ("s", "lower", "moments.moment_map"),
    "moments.sampling_s": ("s", "lower", "moments.sampling"),
    "tm.steps": ("count", "lower", "tm.run"),
    "tm.run_s": ("s", "lower", "tm.run"),
    "tm.steps_per_busy_s": ("1/s", "higher", "tm.run"),
    "tm.trace_lines": ("count", "lower", "tm.run"),
    "cli.output_bytes": ("bytes", "lower", None),
    "classical.enumerate_s": ("s", "lower", "classical.enumerate"),
    "game.load_s": ("s", "lower", "game.load"),
    "game.value_calls": ("count", "lower", "game.value"),
    "trace.overhead_frac": ("ratio", "lower", None),
}

# source -> (functions as owner.function, binding or None for any binding)
SOURCES = {
    "quantum.measurement_update": (["quantum.climb_family"], "quantum"),
    "quantum.state_update": (["linalg.power_iteration"], "quantum"),
    "quantum.certify": (["quantum.validate_spec", "quantum.quantum_correlation"], None),
    "quantum.spec_write": (["quantum.save_spec"], None),
    "quantum.search": (["quantum.entangled_lower_bound"], None),
    "synchronous.measurement_update": (["quantum.climb_family"], "synchronous"),
    "synchronous.certify": (["synchronous.tracial_correlation"], None),
    "synchronous.search": (["synchronous.sync_value_lower_bound"], None),
    "linalg.eigh": (["linalg.jacobi_eigh"], None),
    "linalg.random_unitary": (["linalg.random_unitary"], None),
    "linalg.operator_norm": (["linalg.operator_norm"], None),
    "linalg.power_iteration": (["linalg.power_iteration"], None),
    "moments.moment_map": (["moments.moment_map"], None),
    "moments.words": (["moments.enumerate_monomials"], None),
    "moments.sampling": (["moments.random_contractions"], None),
    "tm.run": (["tm.run"], None),
    "classical.enumerate": (["classical.classical_value"], None),
    "game.load": (["game.load_game"], None),
    "game.value": (["game.game_value"], None),
}


def named_metrics(spans, installed, output_bytes: int, overhead_frac: float):
    """Values of :data:`NAMED`, and the sorted names of those whose source
    functions were not found to wrap (a refactor deleted them); those read
    as 0."""
    index = SpanIndex(spans)

    def calls(source):
        return index.calls(*SOURCES[source])

    def inclusive(source):
        return index.inclusive_s(*SOURCES[source])

    def notes(source):
        return [span[NOTE] for span in index.matching(*SOURCES[source])
                if span[NOTE] is not None]

    q_searches = index.searches("quantum.entangled_lower_bound")
    s_searches = index.searches("synchronous.sync_value_lower_bound")
    runs = notes("tm.run")
    steps = sum(steps for steps, _ in runs)
    run_s = inclusive("tm.run")
    values = {
        "quantum.measurement_update_s": inclusive("quantum.measurement_update"),
        "quantum.measurement_update_calls": calls("quantum.measurement_update"),
        "quantum.state_update_s": inclusive("quantum.state_update"),
        "quantum.state_update_calls": calls("quantum.state_update"),
        "quantum.certify_s": inclusive("quantum.certify"),
        "quantum.spec_write_s": inclusive("quantum.spec_write"),
        "quantum.candidates": sum(len(c) for _, c in q_searches),
        "quantum.restart_yield": restart_yield(q_searches),
        "synchronous.measurement_update_s": inclusive("synchronous.measurement_update"),
        "synchronous.certify_s": inclusive("synchronous.certify"),
        "synchronous.candidates": sum(len(c) for _, c in s_searches),
        "synchronous.restart_yield": restart_yield(s_searches),
        "linalg.eigh_calls": calls("linalg.eigh"),
        "linalg.eigh_s": inclusive("linalg.eigh"),
        "linalg.random_unitary_calls": calls("linalg.random_unitary"),
        "linalg.operator_norm_calls": calls("linalg.operator_norm"),
        "linalg.operator_norm_s": inclusive("linalg.operator_norm"),
        "linalg.power_iteration_calls": calls("linalg.power_iteration"),
        "moments.vectors": calls("moments.moment_map"),
        "moments.words": sum(notes("moments.words")),
        "moments.moment_map_s": inclusive("moments.moment_map"),
        "moments.sampling_s": inclusive("moments.sampling"),
        "tm.steps": steps,
        "tm.run_s": run_s,
        "tm.steps_per_busy_s": steps / run_s if run_s > 0 else 0.0,
        "tm.trace_lines": sum(lines for _, lines in runs),
        "cli.output_bytes": output_bytes,
        "classical.enumerate_s": inclusive("classical.enumerate"),
        "game.load_s": inclusive("game.load"),
        "game.value_calls": calls("game.value"),
        "trace.overhead_frac": overhead_frac,
    }

    def found(source):
        functions, binding = SOURCES[source]
        for name in installed:
            function, _, via = name.partition("@")
            if function in functions and (binding is None or via == binding):
                return True
        return False

    absent = sorted(name for name, (_, _, source) in NAMED.items()
                    if source is not None and not found(source))
    return values, absent
