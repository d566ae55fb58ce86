"""Experiment harness: one driver per paper table/figure.

The harness is a thin client of the sweep engine
(:class:`~repro.core.engine.SweepEngine`): each (algorithm, size) pair's
real execution is recorded once in a versioned JSON ledger cache
(``.cache/counts.json``) and re-priced thereafter, so regenerating all
tables and figures after the first run takes seconds.  ``REPRO_MAX_SIZE``
(environment) caps the dataset sizes for smoke runs on small machines.

Reach the harness through the :mod:`repro.api` facade
(``repro.api.harness()`` / ``repro.api.run_study()``).
"""

from __future__ import annotations

import os
from pathlib import Path

from ..core.engine import SweepEngine
from ..core.profiles import ProfileCache
from ..core.runner import DEFAULT_VIZ_CYCLES, StudyResult
from ..core.store import ResultStore
from ..core.study import (
    ALGORITHM_NAMES,
    DATASET_SIZES,
    StudyConfig,
    phase1_config,
    phase2_config,
    phase3_config,
)
from ..workload import WorkProfile

__all__ = ["TableHarness", "effective_sizes", "DEFAULT_CACHE_PATH"]

#: Default ledger-cache location (versioned JSON).
DEFAULT_CACHE_PATH = ".cache/counts.json"


def effective_sizes(requested: tuple[int, ...] = DATASET_SIZES) -> tuple[int, ...]:
    """The requested sizes, capped by the REPRO_MAX_SIZE environment
    variable (useful to smoke-test the full harness quickly).

    Raises
    ------
    ValueError
        If ``REPRO_MAX_SIZE`` is set to something that is not a whole
        number (e.g. ``REPRO_MAX_SIZE=64.5`` or ``REPRO_MAX_SIZE=big``).
    """
    raw = os.environ.get("REPRO_MAX_SIZE", "").strip()
    if not raw:
        return tuple(requested)
    try:
        cap = int(raw, 10)
    except ValueError:
        raise ValueError(
            f"REPRO_MAX_SIZE must be a whole number of cells per axis "
            f"(e.g. REPRO_MAX_SIZE=64), got {raw!r}"
        ) from None
    if cap <= 0:
        return tuple(requested)
    kept = tuple(s for s in requested if s <= cap)
    # When the cap excludes every requested size, substitute the cap
    # itself (e.g. table3's 256³ becomes a 64³ smoke run).
    return kept if kept else (cap,)


class TableHarness:
    """Regenerates the paper's tables and figures through the engine.

    Parameters
    ----------
    cache_path:
        Where recorded op ledgers live (None disables persistence).
    n_cycles:
        Visualization cycles aggregated per measurement.
    workers:
        Process-pool width for uncached profile executions (``0``/``1``
        runs serially, the default here — table-sized grids rarely pay
        for pool startup; ``python -m repro sweep`` defaults to parallel).
    store:
        Optional :class:`~repro.core.store.ResultStore` (or path) to
        stream completed points into, enabling resumable sweeps.
    """

    def __init__(
        self,
        cache_path: str | Path | None = DEFAULT_CACHE_PATH,
        *,
        n_cycles: int = DEFAULT_VIZ_CYCLES,
        seed: int = 7,
        workers: int = 0,
        store: ResultStore | str | Path | None = None,
        progress=None,
    ):
        self.profile_cache = ProfileCache(cache_path)
        self.cache_path = self.profile_cache.path
        self.engine = SweepEngine(
            n_cycles=n_cycles,
            seed=seed,
            workers=workers,
            store=store,
            profile_cache=self.profile_cache,
            progress=progress,
        )
        self.n_cycles = n_cycles

    @property
    def processor(self):
        """The simulated socket (for spec introspection)."""
        return self.engine.processor

    # ------------------------------------------------------------- profiles
    def profile(self, algorithm: str, size: int) -> WorkProfile:
        """Profile from the ledger cache, executing for real on a miss."""
        return self.engine.profile_for(algorithm, size)

    # ---------------------------------------------------------------- sweeps
    def sweep(self, config: StudyConfig) -> StudyResult:
        """Run a phase grid through the engine (cache- and store-aware)."""
        return self.engine.run(config)

    # ----------------------------------------------------- per-experiment API
    def table1(self) -> StudyResult:
        """Table I: contour at 128³ across the 9 caps (Phase 1)."""
        cfg = phase1_config()
        sizes = effective_sizes(cfg.sizes)
        return self.sweep(StudyConfig(name=cfg.name, algorithms=cfg.algorithms, sizes=sizes))

    def table2(self) -> StudyResult:
        """Table II + Fig. 2/3: all algorithms at 128³ (Phase 2)."""
        cfg = phase2_config()
        sizes = effective_sizes(cfg.sizes)
        return self.sweep(StudyConfig(name=cfg.name, algorithms=cfg.algorithms, sizes=sizes))

    def table3(self) -> StudyResult:
        """Table III: all algorithms at 256³."""
        sizes = effective_sizes((256,))
        return self.sweep(StudyConfig(name="table3", algorithms=ALGORITHM_NAMES, sizes=sizes))

    def phase3(self) -> StudyResult:
        """Figs. 4–6: all algorithms across all four sizes (Phase 3)."""
        cfg = phase3_config(effective_sizes(DATASET_SIZES))
        return self.sweep(cfg)
