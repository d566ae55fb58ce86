"""In-memory spans, self-time accounting and percentiles for the benchmark.

A span is (name, start, end, parent, lane).  The benchmark keeps every
span in memory while it runs and writes them out once at the end, so
recording costs one ``perf_counter`` pair and a list append.

*Lanes* separate processes: the parent process is lane 0 and each pool
worker records its spans in a lane of its own (its pid).  A span's self
time is its duration minus the part of that interval covered by its
children *in the same lane*; a worker's spans still name the parent-side
span that caused them, but run beside it rather than inside it.

Span names are dotted: the first component is the layer (a module of
``repro``: ``data``, ``viz``, ``profiles``, ...).  Spans whose first
component is not a layer -- the ``study`` and ``setup`` roots and the
per-job ``job`` roots of worker lanes -- hold the benchmark's own glue,
so their self time is what the trace could not attribute to a layer.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import asdict, dataclass

__all__ = [
    "LAYERS",
    "Span",
    "SpanRecorder",
    "layer_of",
    "self_times",
    "layer_self_times",
    "unattributed_s",
    "percentile",
    "quartile_spread",
]

#: Layer names, after the ``repro`` modules the benchmark calls into.
LAYERS = frozenset(
    {"data", "viz", "profiles", "runner", "machine", "validate", "store",
     "engine", "pricing", "advisor", "obs"}
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    lane: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    """Context manager closing one span; cheaper than a generator."""

    __slots__ = ("_rec", "_idx")

    def __init__(self, rec: "SpanRecorder", idx: int):
        self._rec = rec
        self._idx = idx

    def __enter__(self) -> int:
        return self._idx

    def __exit__(self, *exc) -> None:
        self._rec.spans[self._idx].end = time.perf_counter()
        self._rec._stack.pop()


class SpanRecorder:
    """Records nested spans of one lane in memory."""

    def __init__(self, lane: int = 0):
        self.lane = lane
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str) -> _Open:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.lane))
        self._stack.append(idx)
        return _Open(self, idx)

    def adopt(self, spans: list[Span], parent: int | None) -> None:
        """Append spans recorded elsewhere (a worker's lane).

        Their parent indices are relative to ``spans``; a root among them
        is re-parented under ``parent``.  ``perf_counter`` is the
        system-wide monotonic clock on Linux, so worker timestamps are
        comparable with this process's.
        """
        base = len(self.spans)
        for s in spans:
            self.spans.append(
                Span(s.name, s.start, s.end,
                     parent if s.parent is None else base + s.parent, s.lane)
            )

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def layer_of(name: str) -> str | None:
    """The layer a span name belongs to, or None for benchmark glue."""
    head = name.split(".", 1)[0]
    return head if head in LAYERS else None


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its same-lane children's coverage.

    Children are clipped to their parent's interval, and overlapping
    children are counted once (the union of their intervals).
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is None:
            continue
        p = spans[s.parent]
        if p.lane != s.lane:
            continue
        lo, hi = max(s.start, p.start), min(s.end, p.end)
        if hi > lo:
            children[s.parent].append((lo, hi))
    return [s.duration - _union_length(children[i]) for i, s in enumerate(spans)]


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per span name *and* per layer.

    ``viz.advection`` contributes to both ``viz.advection`` and ``viz``.
    Names of benchmark glue (no layer) are left out.
    """
    out: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        layer = layer_of(s.name)
        if layer is None:
            continue
        out[layer] = out.get(layer, 0.0) + t
        if s.name != layer:
            out[s.name] = out.get(s.name, 0.0) + t
    return out


def unattributed_s(spans: list[Span]) -> float:
    """Wall time of every lane minus the self time of every layer span.

    Equals the summed self time of the non-layer spans (the roots and
    worker ``job`` spans), because self times partition each lane's root.
    """
    return sum(
        t for s, t in zip(spans, self_times(spans)) if layer_of(s.name) is None
    )


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Same convention as ``numpy.percentile``'s default: rank
    ``q/100 * (n-1)`` between the two nearest order statistics.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile rank must be within [0, 100], got {q}")
    rank = q / 100.0 * (len(xs) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles``
    (``n=4``, exclusive method) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
