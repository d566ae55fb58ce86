"""Tests for the benchmark's span accounting and percentile helpers.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from spans import (
    Span,
    SpanRecorder,
    layer_of,
    layer_self_times,
    percentile,
    quartile_spread,
    self_times,
    unattributed_s,
)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("study", 0.0, 10.0, None),
        Span("machine", 1.0, 4.0, 0),
        Span("store.append", 3.0, 6.0, 0),  # overlaps the first child
        Span("runner", 2.0, 3.0, 1),
    ]
    assert self_times(spans) == [5.0, 2.0, 3.0, 1.0]


def test_children_are_clipped_to_their_parent():
    spans = [Span("study", 0.0, 10.0, None), Span("machine", 9.0, 12.0, 0)]
    assert self_times(spans)[0] == 9.0


def test_worker_lanes_run_beside_their_cause():
    spans = [
        Span("study", 0.0, 10.0, None, lane=0),
        Span("engine.pool", 0.0, 10.0, 0, lane=0),
        Span("job", 1.0, 9.0, 1, lane=4242),
        Span("viz.advection", 2.0, 8.0, 2, lane=4242),
    ]
    assert self_times(spans) == [0.0, 10.0, 2.0, 6.0]
    # Each lane's wall minus its layer self time: 0 in the parent lane,
    # the job's glue in the worker's.
    assert unattributed_s(spans) == 2.0


def test_layer_totals_fold_sub_spans_into_their_layer():
    spans = [
        Span("study", 0.0, 10.0, None),
        Span("viz.advection", 0.0, 4.0, 0),
        Span("viz.volume", 4.0, 5.0, 0),
        Span("store.append", 5.0, 5.5, 0),
        Span("store.append", 5.5, 6.0, 0),
    ]
    totals = layer_self_times(spans)
    assert totals == {"viz": 5.0, "viz.advection": 4.0, "viz.volume": 1.0,
                      "store": 1.0, "store.append": 1.0}
    assert unattributed_s(spans) == 10.0 - 6.0
    assert layer_of("study") is None and layer_of("job") is None
    assert layer_of("pricing.cache_get") == "pricing"


def test_recorder_nests_and_self_times_partition_the_root():
    rec = SpanRecorder()
    with rec.span("study") as root:
        with rec.span("data"):
            sum(range(20000))
        with rec.span("viz.contour"):
            with rec.span("profiles"):
                sum(range(20000))
    assert [s.parent for s in rec.spans] == [None, 0, 0, 2]
    layers = sum(t for s, t in zip(rec.spans, self_times(rec.spans)) if s.name != "study")
    assert rec.spans[root].duration == pytest.approx(layers + unattributed_s(rec.spans))


def test_adopted_worker_spans_are_rebased_under_their_cause():
    rec = SpanRecorder()
    with rec.span("study"):
        with rec.span("engine.pool") as cause:
            pass
    worker = SpanRecorder(lane=7)
    with worker.span("job"):
        with worker.span("data"):
            pass
    rec.adopt(worker.spans, parent=cause)
    assert [(s.name, s.parent, s.lane) for s in rec.spans[2:]] == [
        ("job", cause, 7), ("data", 2, 7)]


@pytest.mark.parametrize("n", [1, 2, 5, 100, 20000])
def test_percentile_matches_numpy_linear_interpolation(n):
    rng = random.Random(n)
    xs = [rng.expovariate(1.0) for _ in range(n)]
    for q in (0, 1, 50, 90, 99, 99.9, 100):
        assert percentile(xs, q) == pytest.approx(float(np.percentile(xs, q)), rel=1e-12)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_quartile_spread_uses_exclusive_quartiles():
    # statistics.quantiles(range 1..10, n=4) -> [2.75, 5.5, 8.25]
    assert quartile_spread(list(range(1, 11))) == pytest.approx((8.25 - 2.75) / 5.5)
