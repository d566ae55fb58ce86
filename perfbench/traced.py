"""Layer-by-layer replay of the workloads, for the traced run.

Each function here makes the calls the engine (``repro.core.engine``) or
the advisor (``repro.core.advisor``) makes, in the same order, but from
the benchmark's own code, so a span can sit around every call into a
layer.  The traced run compares the replay's points with the real
engine's bitwise: a replay that drifted from the engine fails the run.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict
from pathlib import Path

from repro import api
from repro.core.advisor import recommend_cap
from repro.core.atomicio import atomic_write_json
from repro.core.profiles import ProfileCache, profile_from_ledger
from repro.core.runner import make_run_point
from repro.core.store import ResultStore
from repro.core.study import StudyConfig
from repro.core.validate import PointValidator
from repro.data.generators import make_dataset
from repro.machine.simulator import Processor
from repro.obs.manifest import build_manifest, manifest_path_for, write_manifest
from repro.obs.metrics import get_registry
from repro.viz import ALGORITHMS as FILTERS

from spans import SpanRecorder
from workloads import CYCLES, DATASET

#: Ledger entries reported as work counts (summed over sizes).
WORK_COUNTS = {
    "viz.advection.steps": ("advection", "steps"),
    "viz.advection.interp_evals": ("advection", "interp_evals"),
    "viz.volume.samples": ("volume", "samples"),
    "viz.raytrace.node_visits": ("raytrace", "node_visits"),
}


def _ledger_job(rec: SpanRecorder, algorithm: str, size: int, seed: int) -> dict[str, float]:
    """``run_algorithm_ledger``'s body, one span per layer."""
    with rec.span("data"):
        ds = make_dataset(size, kind=DATASET, seed=seed)
    with rec.span(f"viz.{algorithm}"):
        return FILTERS[algorithm]().execute(ds).counts.as_dict()


def pool_ledger_job(algorithm: str, size: int, seed: int):
    """Worker body: one ledger job, its spans in a lane of the worker's own."""
    rec = SpanRecorder(lane=os.getpid())
    with rec.span("job"):
        ledger = _ledger_job(rec, algorithm, size, seed)
    return ledger, rec.spans


class StudyReplay:
    """``SweepEngine.run`` for a cold or cached study, one layer call at a time."""

    def __init__(self, rec: SpanRecorder, config: StudyConfig, *, workers: int, seed: int,
                 cache: Path, store: Path | None):
        self.rec, self.config, self.workers, self.seed = rec, config, workers, seed
        self.cache_path, self.store_path = cache, store
        self.processor = Processor()
        self.validator = PointValidator(self.processor.spec)
        self.results: dict = {}
        self.ledgers: dict[str, dict[str, float]] = {}
        self.counts = {"data.calls": 0, "machine.run_calls": 0, "store.appends": 0,
                       "validate.quarantined": 0}
        self.store: ResultStore | None = None

    def run(self) -> list:
        rec, config = self.rec, self.config
        with rec.span("profiles"):
            self.cache = ProfileCache(self.cache_path)
        if self.store_path is not None:
            engine = api.sweep_engine(workers=self.workers, seed=self.seed,
                                      dataset_kind=DATASET, n_cycles=CYCLES)
            fingerprint = engine.fingerprint()
            with rec.span("store.open"):
                self.store = ResultStore(self.store_path)
                self.store.ensure_compatible(fingerprint, {
                    "config_name": config.name, "spec": self.processor.spec.name,
                    "n_cycles": CYCLES})
            with rec.span("obs"):
                write_manifest(manifest_path_for(self.store_path), build_manifest(
                    spec=asdict(self.processor.spec),
                    config={"name": config.name, "algorithms": list(config.algorithms),
                            "sizes": list(config.sizes), "caps_w": list(config.caps_w)},
                    seed=self.seed, n_cycles=CYCLES, dataset_kind=DATASET,
                    fingerprint=fingerprint,
                    extra={"workers": self.workers, "store": str(self.store_path)}))
        jobs = []
        for a in config.algorithms:
            for s in config.sizes:
                with rec.span("profiles"):
                    cached = self.cache.get(a, s)
                if cached is None:
                    jobs.append((a, s))
                else:
                    self._price_group(a, s)
        if self.workers > 1 and len(jobs) > 1:
            self._run_pool(jobs)
        else:
            for a, s in jobs:
                self.counts["data.calls"] += 1
                self._recorded(a, s, _ledger_job(rec, a, s, self.seed))
        if self.store is not None:
            with rec.span("obs"):
                atomic_write_json(self.store_path.with_suffix(".metrics.json"),
                                  get_registry().to_json(), indent=1)
            self.counts["store.bytes"] = self.store_path.stat().st_size
        rapl = self.processor.rapl
        self.counts["machine.rapl_decisions"] = rapl.decisions
        self.counts["machine.throttle_decisions"] = rapl.throttle_decisions
        return [self.results[(a, s, c)] for a in config.algorithms for s in config.sizes
                for c in config.caps_w if (a, s, c) in self.results]

    def _recorded(self, a: str, s: int, ledger: dict[str, float]) -> None:
        self.ledgers[f"{a}/{s}"] = ledger
        with self.rec.span("profiles"):
            self.cache.put(a, s, ledger)
        self._price_group(a, s)

    def _run_pool(self, jobs) -> None:
        """``SweepEngine._run_pool``: the same pool type, width and window.

        The pool uses the platform's default start method, as the
        engine's does, so the traced/untraced ratio compares like with like.
        """
        rec = self.rec
        window = max(2 * self.workers, 4)
        pending = deque(jobs)
        in_flight: dict = {}
        with rec.span("engine.pool"):
            pool = ProcessPoolExecutor(max_workers=self.workers)
        try:
            while pending or in_flight:
                with rec.span("engine.pool") as cause:
                    while pending and len(in_flight) < window:
                        a, s = pending.popleft()
                        in_flight[pool.submit(pool_ledger_job, a, s, self.seed)] = (a, s, cause)
                    finished, _ = wait(set(in_flight), return_when=FIRST_COMPLETED)
                for fut in finished:
                    a, s, cause = in_flight.pop(fut)
                    ledger, worker_spans = fut.result()
                    rec.adopt(worker_spans, parent=cause)
                    self.counts["data.calls"] += 1
                    self._recorded(a, s, ledger)
        finally:
            with rec.span("engine.pool"):
                pool.shutdown(wait=True)

    def _price_group(self, a: str, s: int) -> None:
        """``SweepEngine._price_group``: price, gate, then persist each cap."""
        rec, caps, counts = self.rec, self.config.caps_w, self.counts
        default_cap = self.config.default_cap_w
        with rec.span("profiles"):
            profile = profile_from_ledger(a, s, self.cache.get(a, s), n_cycles=CYCLES)
        with rec.span("machine"):
            base = self.processor.run(profile, default_cap)
        counts["machine.run_calls"] += 1
        fresh = []
        for cap in caps:
            if cap == default_cap:
                run = base
            else:
                with rec.span("machine"):
                    run = self.processor.run(profile, cap)
                counts["machine.run_calls"] += 1
            with rec.span("runner"):
                fresh.append(make_run_point(a, s, cap, run, base, default_cap))
        with rec.span("validate"):
            bad = self.validator.check_group(fresh)
        for point in fresh:
            reasons = bad.get(point.key)
            if reasons:
                counts["validate.quarantined"] += 1
                if self.store is not None:
                    with rec.span("store.quarantine"):
                        self.store.quarantine(point, reasons)
                continue
            self.results[point.key] = point
            if self.store is not None:
                with rec.span("store.append"):
                    self.store.append(point)
                counts["store.appends"] += 1


def replay_advise(rec: SpanRecorder, adv, queries):
    """``PowerAdvisor.advise`` for every query, one layer call at a time.

    Returns the answers and the pricing counts.
    """
    counts = {"pricing.cache_gets": 0, "pricing.cache_hits": 0,
              "pricing.reprice_calls": 0, "pricing.offgrid_reprice_calls": 0}
    base_cap = max(adv.caps_w)
    answers = []
    for algorithm, size, cap in queries:
        with rec.span("pricing.cache_get"):
            ledger = adv.cache.get(algorithm, size, dataset=adv.dataset, machine=adv.machine)
        counts["pricing.cache_gets"] += 1
        if ledger is None:
            answers.append(None)  # a warm advisor never misses; the gate flags it
            continue
        counts["pricing.cache_hits"] += 1
        with rec.span("pricing.reprice"):
            points = adv.repricer.reprice(algorithm, size, ledger, adv.caps_w)
        counts["pricing.reprice_calls"] += 1
        with rec.span("advisor.recommend"):
            target = (recommend_cap(points, tolerance=adv.tolerance).cap_w
                      if cap is None else float(cap))
            point = next((p for p in points
                          if math.isclose(p.cap_w, target, rel_tol=1e-9, abs_tol=1e-6)), None)
        if point is None:
            with rec.span("pricing.reprice"):
                point = adv.repricer.reprice(algorithm, size, ledger, (target,),
                                             default_cap_w=base_cap)[0]
            counts["pricing.reprice_calls"] += 1
            counts["pricing.offgrid_reprice_calls"] += 1
        answers.append(point)
    return answers, counts


def work_counts(ledgers: dict[str, dict[str, float]]) -> dict[str, float]:
    """The reported ledger op counts, summed over sizes."""
    out = {}
    for name, (algorithm, entry) in WORK_COUNTS.items():
        out[name] = sum(l.get(entry, 0.0) for key, l in ledgers.items()
                        if key.split("/")[0] == algorithm)
    return out
