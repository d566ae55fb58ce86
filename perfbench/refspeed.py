"""Timing at a reference speed, for a host whose speed moves.

The benchmark runs on a few vCPUs of a shared host.  The speed of those
vCPUs moves with the load of other tenants, by 20-60% over seconds to
minutes, and it slows pure-Python and NumPy work alike.  A median over a
run cannot remove a slowdown that lasts the whole run, so runs made a few
minutes apart disagree by more than any useful bound.

So every timed piece of work is bracketed by a fixed calibration kernel
(``calibrate``: a pure-Python and small-array NumPy loop that does not
call into ``repro``), and its CPU time is reported at reference speed::

    cpu_s * REF_S / mean(calibration before, calibration after)

The kernel follows the speed of the CPU, not of the shared disk, whose
fsync latency moves several-fold from one run to the next.  So the piece
is also bracketed by a few small appends made durable with fsync
(``fsync_latency``), and its wall time is reported as its busy part
(its CPU time) at reference CPU speed plus the rest, the time it waited,
at reference fsync latency (``reference_wall``)::

    busy_s * REF_S / calibration + wait_s * FSYNC_REF_S / fsync latency

``REF_S`` and ``FSYNC_REF_S`` fix the scale: on a host where the kernel
takes ``REF_S`` and an fsync ``FSYNC_REF_S``, a reference second is a
wall second.  They are the kernel's and an fsync's times on the 2-vCPU
VM of ``NOTES.md`` at its least loaded.  Kernel and probe are fixed code
of the benchmark's own: a change to ``repro`` moves the piece and not
them, so it moves the reported time by its full share.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from pathlib import Path

import numpy as np

#: Seconds ``calibrate`` took on a 2-vCPU VM at its least loaded
#: (Python 3.11.7, NumPy 2.4.6).
REF_S = 0.007
#: Seconds a 256-byte append + fsync took on the same VM's disk.
FSYNC_REF_S = 1.0e-4

_CAPS = np.linspace(40.0, 120.0, 321)
_ITERATIONS = 12_000
_FSYNCS = 8


def calibrate() -> float:
    """Run the fixed calibration kernel once; return its wall time (s).

    Dict updates, float arithmetic and a short vector op every eighth
    step: the mix of the advisor's and the engine's inner loops, on
    data that stays in cache.
    """
    t0 = time.perf_counter()
    rng = random.Random(1)
    table: dict[tuple[int, int], list[float]] = {}
    acc = 0.0
    for i in range(_ITERATIONS):
        key = (i % 16, i % 9)
        rec = table.get(key)
        if rec is None:
            rec = table[key] = [0.0, 0.0]
        x = rng.random()
        rec[0] += x * 1.5
        rec[1] += 1.0
        if i % 8 == 0:
            w = np.minimum(_CAPS, 40.0 + 80.0 * x)
            acc += float(w @ w)
    if not acc > 0.0:
        raise AssertionError("calibration kernel computed nothing")
    return time.perf_counter() - t0


def fsync_latency(path: Path) -> float:
    """Median time of a few 256-byte appends to ``path``, each made
    durable with fsync, as the result store makes its appends."""
    times = []
    with open(path, "ab") as f:
        for _ in range(_FSYNCS):
            t0 = time.perf_counter()
            f.write(bytes(256))
            f.flush()
            os.fsync(f.fileno())
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def at_reference(fn, probe: Path):
    """Run ``fn()`` between two calibrations and two fsync probes (on
    ``probe``, a file on the disk ``fn`` writes to).

    Returns ``(result, scale, wait_scale, cal_s)``: ``fn``'s result, the
    factors that turn its busy and its waiting time into reference
    seconds, and the mean of the two calibration times.
    """
    cal0, sync0 = calibrate(), fsync_latency(probe)
    result = fn()
    cal_s = (cal0 + calibrate()) / 2.0
    sync_s = (sync0 + fsync_latency(probe)) / 2.0
    return result, REF_S / cal_s, FSYNC_REF_S / sync_s, cal_s


def reference_wall(wall_s: float, cpu_s: float, scale: float, wait_scale: float) -> float:
    """A piece's wall time in reference seconds: its busy part at
    reference CPU speed, the rest at reference fsync latency.

    The busy part is the CPU time, or the whole wall when CPU time
    exceeds it (a pool's workers ran in parallel).
    """
    busy = min(cpu_s, wall_s)
    return busy * scale + (wall_s - busy) * wait_scale
