"""Self-time arithmetic on synthetic spans, and span parenting across threads."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import tracing
from tracing import Span, Tracer, op_accounting, self_times, union_length


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1)]) == 1.0
    assert union_length([(0, 2), (1, 3)]) == 3.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(2, 3), (0, 4), (1, 2)]) == 4.0
    assert union_length([(0, 1), (1, 2)]) == 2.0


def test_self_time_sequential_children():
    spans = [
        Span(0, "root", 0.0, 10.0, op=0),
        Span(1, "a", 1.0, 3.0, parent=0, op=0),
        Span(2, "b", 4.0, 8.0, parent=0, op=0),
        Span(3, "leaf", 5.0, 6.0, parent=2, op=0),
    ]
    st = self_times(spans)
    assert st == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0}
    (row,) = op_accounting(spans, root_name="root")
    assert row["wall_s"] == 10.0
    assert row["self_sum_s"] == 10.0
    assert row["overlap_s"] == 0.0
    assert row["residual_s"] == 0.0


def test_self_time_overlapping_children_from_two_threads():
    # an estimator span whose two worker threads evaluate concurrently
    spans = [
        Span(0, "bench.op", 0.0, 10.0, op=0),
        Span(1, "symbol_estimator", 1.0, 9.0, parent=0, op=0),
        Span(2, "potentials.eval", 2.0, 6.0, parent=1, op=0, thread=1),
        Span(3, "potentials.eval", 3.0, 7.0, parent=1, op=0, thread=2),
        Span(4, "potentials.eval", 6.5, 8.0, parent=1, op=0, thread=1),
    ]
    st = self_times(spans)
    # children cover [2, 8]: the union, not the 9.5 s sum of their durations
    assert st[1] == pytest.approx(8.0 - 6.0)
    assert st[0] == pytest.approx(2.0)
    (row,) = op_accounting(spans)
    assert row["overlap_s"] == pytest.approx(9.5 - 6.0)
    assert row["self_sum_s"] == pytest.approx(row["wall_s"] + row["overlap_s"])
    assert row["residual_s"] == pytest.approx(0.0)


def test_child_outside_parent_is_clipped_and_breaks_accounting():
    spans = [
        Span(0, "bench.op", 0.0, 4.0, op=0),
        Span(1, "late", 3.0, 6.0, parent=0, op=0),
    ]
    assert self_times(spans)[0] == pytest.approx(3.0)
    (row,) = op_accounting(spans)
    assert row["residual_s"] == pytest.approx(2.0)


def test_orphan_span_breaks_accounting():
    spans = [
        Span(0, "bench.op", 0.0, 4.0, op=0),
        Span(1, "orphan", 1.0, 2.0, parent=None, op=0),
    ]
    (row,) = op_accounting(spans)
    assert row["residual_s"] == pytest.approx(1.0)


def test_worker_thread_spans_attach_to_open_span():
    tracer = Tracer()
    tracer.op = 7

    def work(_):
        span = tracer.open("potentials.eval")
        tracer.close(span)
        return threading.get_ident()

    outer = tracer.open("symbol_estimator")
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(work, range(6)))
    tracer.close(outer)
    evals = [s for s in tracer.spans if s.name == "potentials.eval"]
    assert len(evals) == 6
    assert all(s.parent == outer.id and s.op == 7 for s in evals)
    assert all(outer.start <= s.start and s.end <= outer.end for s in evals)


def test_wrap_skips_recursion_and_calls_outside_ops():
    tracer = Tracer()

    def fact(n):
        return 1 if n <= 1 else n * traced(n - 1)

    traced = tracing.wrap(tracer, "fact", fact, counts=lambda args, out: {"n": args["n"]})
    assert traced(4) == 24
    assert tracer.spans == []
    tracer.op = 0
    assert traced(4) == 24
    (span,) = tracer.spans
    assert span.counts == {"n": 4}


def test_layer_metrics_ratios():
    spans = [
        Span(0, "bench.op", 0.0, 4.0, op=0),
        Span(1, "symbol_estimator", 0.0, 4.0, parent=0, op=0,
             counts={"path_points": 1000, "cpu_s": 6.0, "peak_alloc_bytes": 2**20}),
        Span(2, "potentials.eval", 1.0, 3.0, parent=1, op=0, counts={"points": 4000}),
    ]
    m = tracing.layer_metrics(spans)
    assert m["potentials.eval.points_per_path_step"] == 4.0
    assert m["potentials.eval.points_per_s"] == 2000.0
    assert m["symbol_estimator.self_s"] == 2.0
    assert m["symbol_estimator.cpu_per_wall"] == 1.5
    assert m["symbol_estimator.peak_alloc_mb"] == 1.0
    assert m["oracle.wigner.busy_s"] == 0.0
