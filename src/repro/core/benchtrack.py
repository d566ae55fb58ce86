"""Kernel benchmark trajectory: per-kernel timings persisted across PRs.

The extraction kernels are the cost center of every sweep (288 Phase 3
configurations reduce to 32 real extractions, each sweeping up to 16.7M
cells), so their wall-clock performance is a regression surface in its
own right.  This module records per-kernel timings into a small JSON
document — ``BENCH_kernels.json`` by default — so every PR leaves a
trajectory point the next one can regress against:

* :func:`time_kernel` — min-of-``repeats`` timing of a callable (min is
  the standard noise-robust estimator for micro-benchmarks).
* :class:`BenchTracker` — load/record/save the trajectory document,
  written atomically via :mod:`repro.core.atomicio` so an interrupted
  benchmark run never corrupts the history.

Entries are keyed ``kernel/size``; recording the same key again
overwrites the measurement but preserves ``baseline_s`` (the pre-
optimization reference time) unless a new baseline is given, and keeps
``speedup_vs_baseline`` up to date.  A key recorded without any
baseline anchors to the best available reference — the previous
measurement if one exists, else itself — so every entry carries a
``baseline_s`` and the trajectory has no un-regressable gaps.

:data:`SPEEDUP_FLOORS` pins the acceptance floors (kernel, size) →
minimum speedup vs that baseline; :func:`trend_rows` /
:func:`format_trend` / :func:`check_floors` turn the document into the
``repro bench --trend`` table and the CI regression gate.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable

from ..obs.metrics import get_registry
from .atomicio import atomic_write_json

__all__ = [
    "BenchTracker",
    "time_kernel",
    "DEFAULT_BENCH_PATH",
    "SPEEDUP_FLOORS",
    "trend_rows",
    "format_trend",
    "check_floors",
]

BENCH_FORMAT = "repro-bench-kernels"
BENCH_VERSION = 1

#: Repo-root trajectory file (CI uploads it as an artifact per PR).
DEFAULT_BENCH_PATH = Path("BENCH_kernels.json")

#: Acceptance floors: minimum speedup vs the recorded pre-optimization
#: baseline per (kernel, size).  The 128³ entries are PR 3's tiling/
#: culling floors; the 256³ entries are the Table 3 scale floors from
#: the tiled + counts-only kernel rework.  The advection entries are the
#: structure-of-arrays trilinear sampler's floors (~2.7x measured; 1.5x
#: leaves room for machine-to-machine noise).  Only enforced where the
#: size was measured with a baseline present.
SPEEDUP_FLOORS: dict[tuple[str, int], float] = {
    ("contour", 128): 3.0,
    ("clip", 128): 2.0,
    ("isovolume", 128): 2.0,
    ("contour", 256): 2.0,
    ("clip", 256): 2.0,
    ("isovolume", 256): 2.0,
    ("advection", 32): 1.5,
    ("advection", 64): 1.5,
}


def time_kernel(
    fn: Callable[[], Any], *, repeats: int = 3, warmup: int = 1
) -> dict[str, float]:
    """Time ``fn`` and return ``{"best_s", "mean_s", "repeats"}``.

    ``warmup`` un-timed calls come first so one-time costs (index cache
    population, allocator warm-up) don't pollute the measurement.
    """
    if repeats < 1:
        raise ValueError("repeats must be positive")
    for _ in range(warmup):
        fn()
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - t0)
    return {
        "best_s": min(runs),
        "mean_s": sum(runs) / len(runs),
        "repeats": float(repeats),
    }


class BenchTracker:
    """The ``BENCH_kernels.json`` document: load, record, save atomically."""

    def __init__(self, path: str | Path = DEFAULT_BENCH_PATH):
        self.path = Path(path)
        self.entries: dict[str, dict[str, Any]] = {}
        if self.path.exists():
            doc = json.loads(self.path.read_text())
            if doc.get("format") != BENCH_FORMAT:
                raise ValueError(
                    f"{self.path} is not a kernel benchmark file "
                    f"(format={doc.get('format')!r})"
                )
            if int(doc.get("version", 1)) > BENCH_VERSION:
                raise ValueError(
                    f"{self.path} has version {doc['version']}, newer than "
                    f"supported {BENCH_VERSION}"
                )
            self.entries = {k: dict(v) for k, v in doc.get("entries", {}).items()}

    @staticmethod
    def key(kernel: str, size: int) -> str:
        return f"{kernel}/{int(size)}"

    def record(
        self,
        kernel: str,
        size: int,
        seconds: float,
        *,
        baseline_s: float | None = None,
        **meta: Any,
    ) -> dict[str, Any]:
        """Record a timing; returns the stored entry.

        ``baseline_s`` pins the reference time the speedup is computed
        against.  Omitted, any previously recorded baseline is kept, so
        re-running the suite updates the measurement while preserving
        the pre-optimization anchor.  A key with no baseline anywhere
        backfills one — the previous measurement when the key was
        recorded before, else this measurement itself — so every entry
        carries a reference the next PR can regress against.
        """
        key = self.key(kernel, size)
        prev = self.entries.get(key, {})
        if baseline_s is None:
            baseline_s = prev.get("baseline_s")
        if baseline_s is None:
            baseline_s = prev.get("seconds")
        if baseline_s is None:
            baseline_s = float(seconds)
        # Mirror into the process metrics registry so a benchmark run
        # shows up in `repro metrics` output alongside sweep counters.
        get_registry().histogram(
            "repro_bench_kernel_seconds",
            help="Recorded kernel benchmark wall time",
            kernel=kernel,
            size=str(int(size)),
        ).observe(float(seconds))
        entry: dict[str, Any] = {
            "kernel": kernel,
            "size": int(size),
            "seconds": float(seconds),
            "recorded_unix": time.time(),
        }
        if baseline_s is not None:
            entry["baseline_s"] = float(baseline_s)
            if seconds > 0:
                entry["speedup_vs_baseline"] = float(baseline_s) / float(seconds)
        entry.update(meta)
        self.entries[key] = entry
        return entry

    def get(self, kernel: str, size: int) -> dict[str, Any] | None:
        entry = self.entries.get(self.key(kernel, size))
        return dict(entry) if entry is not None else None

    def save(self) -> None:
        doc = {"format": BENCH_FORMAT, "version": BENCH_VERSION, "entries": self.entries}
        atomic_write_json(self.path, doc, indent=1)

    def __len__(self) -> int:
        return len(self.entries)


# ----------------------------------------------------------------- trajectory
def trend_rows(tracker: BenchTracker) -> list[dict[str, Any]]:
    """Flatten the trajectory into kernel × size rows, floors attached.

    Rows are ordered kernel-then-size; ``ok`` is False only where a
    floor exists and the measured speedup (baseline present) sits below
    it — un-floored or baseline-less rows never fail.
    """
    rows = []
    for entry in sorted(
        tracker.entries.values(), key=lambda e: (e["kernel"], int(e["size"]))
    ):
        kernel, size = entry["kernel"], int(entry["size"])
        speedup = entry.get("speedup_vs_baseline")
        floor = SPEEDUP_FLOORS.get((kernel, size))
        rows.append(
            {
                "kernel": kernel,
                "size": size,
                "seconds": float(entry["seconds"]),
                "baseline_s": entry.get("baseline_s"),
                "speedup": speedup,
                "floor": floor,
                "ok": floor is None or speedup is None or speedup >= floor,
            }
        )
    return rows


def format_trend(rows: list[dict[str, Any]]) -> str:
    """Render trend rows as the ``repro bench --trend`` table."""
    lines = [
        f"{'kernel':>10s} {'size':>6s} {'seconds':>9s} {'baseline':>9s} "
        f"{'speedup':>8s} {'floor':>6s}"
    ]
    for r in rows:
        base = f"{r['baseline_s']:.3f}s" if r["baseline_s"] is not None else "-"
        speed = f"{r['speedup']:.2f}x" if r["speedup"] is not None else "-"
        floor = f"{r['floor']:.1f}x" if r["floor"] is not None else "-"
        flag = "" if r["ok"] else "  << BELOW FLOOR"
        lines.append(
            f"{r['kernel']:>10s} {r['size']:>4d}^3 {r['seconds']:>8.3f}s "
            f"{base:>9s} {speed:>8s} {floor:>6s}{flag}"
        )
    return "\n".join(lines)


def check_floors(tracker: BenchTracker) -> list[str]:
    """Failure messages for every measured kernel below its speedup floor."""
    failures = []
    for r in trend_rows(tracker):
        if r["ok"]:
            continue
        failures.append(
            f"{r['kernel']}@{r['size']}^3: {r['speedup']:.2f}x < {r['floor']}x floor "
            f"({r['seconds']:.3f}s vs baseline {r['baseline_s']:.3f}s)"
        )
    return failures
