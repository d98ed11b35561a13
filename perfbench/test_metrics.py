"""Tests of the benchmark's own arithmetic and span recording.

    python3 -m pytest perfbench
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

import metrics
import spans


def span(span_id, parent, name, t0, t1, c0=0.0, c1=0.0, thread=1, request=1, note=None):
    return (span_id, parent, name, request, thread, t0, t1, c0, c1, note)


def test_self_time_subtracts_nested_children():
    recorded = [
        span(1, 0, "cli.dispatch@cli", 0.0, 10.0, 0.0, 8.0),
        span(2, 1, "quantum.entangled_lower_bound@cli", 2.0, 5.0, 2.0, 4.5),
        span(3, 2, "game.game_value@quantum", 3.0, 4.0, 3.0, 4.0),
    ]
    own = metrics.self_times(recorded)
    assert own[1] == pytest.approx((7.0, 5.5))
    assert own[2] == pytest.approx((2.0, 1.5))
    assert own[3] == pytest.approx((1.0, 1.0))


def test_self_time_takes_union_of_children_on_two_threads():
    # The parent waits on a pool whose two threads overlap between 4 and 6.
    recorded = [
        span(1, 0, "quantum.entangled_lower_bound@cli", 0.0, 10.0, 0.0, 0.5, thread=1),
        span(2, 1, "quantum.climb_family@quantum", 1.0, 6.0, 0.0, 3.0, thread=2),
        span(3, 1, "quantum.climb_family@quantum", 4.0, 9.0, 0.0, 4.0, thread=3),
    ]
    own = metrics.self_times(recorded)
    # Children cover 1..9; their CPU is on other threads and is not subtracted.
    assert own[1] == pytest.approx((2.0, 0.5))
    totals = metrics.layer_totals(recorded, ("quantum", "linalg"))
    assert totals["quantum.calls"] == 3
    assert totals["quantum.self_s"] == pytest.approx(2.0 + 5.0 + 5.0)
    assert totals["quantum.wait_s"] == pytest.approx(1.5 + 2.0 + 1.0)
    assert totals["linalg.calls"] == 0 and totals["linalg.self_s"] == 0.0


def test_child_outside_its_parent_interval_is_clipped():
    recorded = [span(1, 0, "quantum.entangled_lower_bound@cli", 0.0, 4.0),
                span(2, 1, "quantum.climb_family@quantum", 3.0, 7.0, thread=2)]
    assert metrics.self_times(recorded)[1][0] == pytest.approx(3.0)


def test_inclusive_time_counts_nested_matches_once():
    recorded = [
        span(1, 0, "quantum.quantum_correlation@quantum", 0.0, 3.0),
        span(2, 1, "quantum.validate_spec@quantum", 0.5, 2.0),
        span(3, 0, "quantum.validate_spec@quantum", 4.0, 5.0),
    ]
    index = metrics.SpanIndex(recorded)
    functions = ["quantum.validate_spec", "quantum.quantum_correlation"]
    assert index.inclusive_s(functions) == pytest.approx(4.0)
    assert index.calls(["quantum.validate_spec"]) == 2
    assert index.calls(["quantum.validate_spec"], binding="cli") == 0


@pytest.mark.parametrize("count, expected", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    values = [float(v) for v in range(count, 0, -1)]
    found = metrics.tail_percentile(values)
    if expected is None:
        assert found is None
        return
    percentile, value = found
    assert percentile == expected
    assert sum(1 for v in values if v > value) >= 10


def test_latency_summary_reports_count_and_median():
    summary = metrics.latency_summary([3.0, 1.0, 2.0, 4.0])
    assert summary == {"p50_s": 2.5, "samples": 4, "tail": None}


def test_failed_frac():
    assert metrics.failed_frac(12, 0) == 0.0
    assert metrics.failed_frac(12, 3) == 0.25
    with pytest.raises(ValueError):
        metrics.failed_frac(0, 0)
    with pytest.raises(ValueError):
        metrics.failed_frac(3, 4)


def test_restart_yield_pools_candidates_across_searches():
    searches = [(0.85, [0.75, 0.85, 0.85 + 1e-10, 0.84]), (0.9, [0.9]), (0.7, [])]
    assert metrics.restart_yield(searches) == pytest.approx(3 / 5)
    assert metrics.restart_yield([]) == 0.0


def test_named_metrics_read_candidates_under_each_search():
    recorded = [
        span(1, 0, "quantum.entangled_lower_bound@cli", 0.0, 9.0, note=0.85),
        span(2, 1, "game.game_value@quantum", 1.0, 2.0, note=0.75),
        span(3, 1, "game.game_value@quantum", 2.0, 3.0, note=0.85),
        span(4, 0, "game.game_value@cli", 9.0, 9.5, note=0.5),
    ]
    installed = {"quantum.entangled_lower_bound@cli", "game.game_value@quantum"}
    values, absent = metrics.named_metrics(recorded, installed, 10, 0.1)
    assert values["quantum.candidates"] == 2
    assert values["quantum.restart_yield"] == 0.5
    assert values["game.value_calls"] == 3
    assert "quantum.candidates" not in absent
    assert "linalg.eigh_calls" in absent and values["linalg.eigh_calls"] == 0


def test_pool_thread_spans_belong_to_the_request_in_flight():
    tracer = spans.Tracer()
    inner = tracer._wrap(lambda x: x * 2, "quantum.climb_family@quantum", None)

    def search():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(inner, range(4)))

    outer = tracer._wrap(search, "quantum.entangled_lower_bound@cli", None)
    assert outer() == [0, 2, 4, 6]
    assert tracer.spans == []          # nothing is recorded between requests
    tracer.begin(7)
    assert outer() == [0, 2, 4, 6]
    tracer.end()
    by_name = {}
    for recorded in tracer.spans:
        by_name.setdefault(recorded[metrics.NAME], []).append(recorded)
    (search_span,) = by_name["quantum.entangled_lower_bound@cli"]
    pool_spans = by_name["quantum.climb_family@quantum"]
    assert len(pool_spans) == 4
    assert all(s[metrics.PARENT] == search_span[metrics.ID] for s in pool_spans)
    assert all(s[metrics.REQUEST] == 7 for s in tracer.spans)
