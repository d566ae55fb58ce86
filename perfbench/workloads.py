"""The four reference-study workloads, run through ``repro.api``.

Every workload uses the ``blobs`` dataset at 87 visualization cycles and
the paper's 8 algorithms at 32^3 and 64^3; the seed picks the dataset
field and the advise query mix.

* ``study-cold``   -- 8 x {32, 64} x the 9 paper caps (144 points), serial,
  with an empty on-disk ledger cache and a fresh store for every study.
* ``study-pooled`` -- the same grid and cold state with a pool of 2.
* ``study-warm``   -- 8 x {32, 64} x 321 caps (120 -> 40 W by 0.25 W;
  5,136 points), serial, on a ledger cache filled in set-up; timed as
  16 studies of one (algorithm, size) each (``split``).
* ``advise``       -- 20,000 seeded queries from one closed-loop client
  to a warm ``PowerAdvisor``: a third with no cap, a third at paper caps,
  a third at off-grid fractional caps.

This module holds the untraced (timed) path and the correctness gates;
``traced.py`` replays the same work layer by layer.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import api
from repro.core.advisor import recommend_cap
from repro.core.pricing import BatchRepricer
from repro.core.profiles import ProfileCache, profile_from_ledger
from repro.core.runner import make_run_point
from repro.core.store import ResultStore
from repro.core.study import ALGORITHM_NAMES, POWER_CAPS_W, StudyConfig
from repro.machine.simulator import Processor
from repro.obs.metrics import get_registry

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_LEDGERS = REPO_ROOT / "tests" / "golden" / "ledgers.json"

ALGORITHMS = ALGORITHM_NAMES
SIZES = (32, 64)
DATASET = "blobs"
CYCLES = 87
PAPER_CAPS = POWER_CAPS_W
#: 120 W down to 40 W in 0.25 W steps: every value is exact in binary.
FINE_CAPS = tuple(120.0 - 0.25 * i for i in range(321))
POOL_WORKERS = 2
ADVISE_QUERIES = 20_000
#: Queries per timed unit of the advise workload.
ADVISE_BLOCK = 1_000
#: Set-ups per run; the median is reported.
SETUP_REPS = 3


def grid(name: str, caps) -> StudyConfig:
    return StudyConfig(name=name, algorithms=ALGORITHMS, sizes=SIZES, caps_w=tuple(caps))


def split(config: StudyConfig) -> list[StudyConfig]:
    """``config`` as one study per (algorithm, size): the same points,
    in pieces short enough to be timed between calibrations."""
    return [
        StudyConfig(name=f"{config.name}-{a}-{s}", algorithms=(a,), sizes=(s,),
                    caps_w=config.caps_w)
        for a in config.algorithms
        for s in config.sizes
    ]


def cpu_s() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _rapl_counters() -> tuple[float, float]:
    reg = get_registry()
    return (
        reg.counter("repro_rapl_decisions_total").value,
        reg.counter("repro_rapl_throttle_decisions_total").value,
    )


def jsonl(points) -> list[str]:
    """Points as canonical JSON lines: equal strings mean bitwise-equal floats."""
    return [p.to_jsonl() for p in points]


def line(point) -> str | None:
    """One point's JSON line; None for a failed query's missing answer."""
    return None if point is None else point.to_jsonl()


# --------------------------------------------------------------- engine runs
@dataclass
class EngineRun:
    """One ``api.run_study`` call: its outputs, observed counts and cost."""

    points: list[str]
    ledgers: dict[str, dict[str, float]]
    quarantined: int
    events: list[dict]
    counts: dict[str, float]
    wall_s: float
    cpu_s: float
    stored: list[str] = field(default_factory=list)


def engine_study(workdir: Path, config: StudyConfig, *, workers: int, seed: int,
                 cache: Path, store: bool = True) -> EngineRun:
    """Run one study through the public API and collect what it left.

    Only the ``run_study`` call is timed; reading the store and the
    ledger cache back happens afterwards.
    """
    store_path = workdir / f"{config.name}.jsonl" if store else None
    events: list[dict] = []
    request = api.StudyRequest(
        config=config, workers=workers, store=store_path, cache=cache,
        dataset_kind=DATASET, n_cycles=CYCLES, seed=seed, progress=events.append,
    )
    rapl0 = _rapl_counters()
    c0, t0 = cpu_s(), time.perf_counter()
    result = api.run_study(request)
    wall, cpu = time.perf_counter() - t0, cpu_s() - c0
    rapl1 = _rapl_counters()
    summary = next(e for e in events if e["kind"] == "summary")
    counts = {
        "machine.rapl_decisions": rapl1[0] - rapl0[0],
        "machine.throttle_decisions": rapl1[1] - rapl0[1],
        "validate.quarantined": summary["quarantined"],
    }
    stored: list[str] = []
    if store_path is not None:
        stored = jsonl(ResultStore(store_path))
        counts["store.appends"] = len(stored)
        counts["store.bytes"] = store_path.stat().st_size
    ledgers = {f"{a}/{s}": ledger for a, s, ledger in ProfileCache(cache).entries()}
    return EngineRun(jsonl(result.points), ledgers, summary["quarantined"], events,
                     counts, wall, cpu, stored)


def check_study(run: EngineRun, config: StudyConfig, seed: int, problems: list[str]) -> None:
    """Gates on one engine study: completeness, durability, ledgers, pricing."""
    expected = config.n_configurations
    if len(run.points) + run.quarantined != expected:
        problems.append(f"{config.name}: {len(run.points)} points + {run.quarantined} "
                        f"quarantined != {expected} configurations")
    if run.stored and sorted(run.stored) != sorted(run.points):
        problems.append(f"{config.name}: store read back differs from the returned points")
    keys = {f"{a}/{s}" for a in config.algorithms for s in config.sizes}
    if not keys <= set(run.ledgers):
        problems.append(f"{config.name}: ledger cache holds {sorted(run.ledgers)}")
        return
    check_golden({k: run.ledgers[k] for k in keys}, seed, problems)
    # An independent pricing path: the vectorized repricer, fed the
    # engine's own ledgers, must reproduce every surviving point.
    repricer = BatchRepricer(n_cycles=CYCLES)
    repriced = {
        line
        for a in config.algorithms
        for s in config.sizes
        for line in jsonl(repricer.reprice(a, s, run.ledgers[f"{a}/{s}"], config.caps_w))
    }
    if not set(run.points) <= repriced:
        problems.append(f"{config.name}: points differ from BatchRepricer's")


def check_golden(ledgers: dict, seed: int, problems: list[str]) -> None:
    """At the seed the golden ledgers were recorded with, ledgers match them."""
    golden = json.loads(GOLDEN_LEDGERS.read_text())
    if seed != golden["seed"] or golden["dataset_kind"] != DATASET:
        return
    for key, ledger in ledgers.items():
        if golden["entries"].get(key) != ledger:
            problems.append(f"ledger {key} differs from tests/golden/ledgers.json")


# ------------------------------------------------------------------- set-up
def import_api_s() -> float:
    """Start a fresh interpreter and import the public API: the fixed
    cost every command-line run pays before its study starts."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.api"],
        check=True, cwd=REPO_ROOT, env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
    )
    return time.perf_counter() - t0


def fill_ledgers(workdir: Path, seed: int) -> tuple[Path, EngineRun]:
    """The reference study, pooled, into a fresh on-disk ledger cache."""
    cache = workdir / "ledgers.json"
    run = engine_study(workdir, grid("fill", PAPER_CAPS), workers=POOL_WORKERS,
                       seed=seed, cache=cache, store=False)
    return cache, run


def warm_advisor(cache: Path, seed: int):
    """A ``PowerAdvisor`` holding every ledger, with its pricing tables built."""
    adv = api.advisor(seed=seed, n_cycles=CYCLES)
    adv.cache.ingest_profile_cache(ProfileCache(cache), dataset=adv.dataset,
                                   machine=adv.machine)
    for a in ALGORITHMS:
        for s in SIZES:
            adv.advise(a, s)
    return adv


# ------------------------------------------------------------------- advise
def make_queries(seed: int, n: int = ADVISE_QUERIES) -> list[tuple[str, int, float | None]]:
    """``n`` seeded queries: no cap, a paper cap and an off-grid cap in turn."""
    rng = random.Random(seed)
    queries = []
    for i in range(n):
        algorithm, size = rng.choice(ALGORITHMS), rng.choice(SIZES)
        kind = i % 3
        if kind == 0:
            cap = None
        elif kind == 1:
            cap = rng.choice(PAPER_CAPS)
        else:
            cap = round(rng.uniform(40.0, 120.0), 2)
            while any(math.isclose(cap, c, abs_tol=1e-6) for c in PAPER_CAPS):
                cap = round(rng.uniform(40.0, 120.0), 2)
        queries.append((algorithm, size, cap))
    return queries


@dataclass
class AdviseRun:
    answers: list  # RunPoint, or None for a failed query
    latencies_s: list[float]
    failed: int
    wall_s: float
    cpu_s: float


def advise_loop(adv, queries) -> AdviseRun:
    """Closed loop, one client: each query is sent when the last one returned."""
    answers, lat, failed = [], [], 0
    c0, t0 = cpu_s(), time.perf_counter()
    for algorithm, size, cap in queries:
        q0 = time.perf_counter()
        try:
            resp = api.advise(api.AdviseRequest(algorithm, size, cap_w=cap), advisor=adv)
        except Exception:  # a failed query is counted, never fatal to the loop
            failed += 1
            answers.append(None)
        else:
            answers.append(resp.point)
        lat.append(time.perf_counter() - q0)
    return AdviseRun(answers, lat, failed, time.perf_counter() - t0, cpu_s() - c0)


def check_advise(adv, queries, answers, problems: list[str]) -> None:
    """Gate the answers against a fresh repricer and the per-point path.

    On-grid and uncapped answers must equal ``BatchRepricer`` grid points
    bitwise (uncapped ones at the recommended cap); off-grid answers must
    equal a fresh single-cap repricing, and a sample of them the
    simulator's ``Processor.run`` + ``make_run_point``.
    """
    repricer = BatchRepricer(n_cycles=CYCLES)
    processor = Processor()
    base_cap = max(PAPER_CAPS)
    ledgers, grids = {}, {}
    for a in ALGORITHMS:
        for s in SIZES:
            ledgers[(a, s)] = adv.cache.get(a, s, dataset=adv.dataset, machine=adv.machine)
            grids[(a, s)] = repricer.reprice(a, s, ledgers[(a, s)], PAPER_CAPS)
    sampled = 0
    for (a, s, cap), got in zip(queries, answers):
        if got is None:
            continue
        points = grids[(a, s)]
        target = recommend_cap(points, tolerance=adv.tolerance).cap_w if cap is None else cap
        want = next((p for p in points if p.cap_w == target), None)
        if want is None:
            want = repricer.reprice(a, s, ledgers[(a, s)], (target,), default_cap_w=base_cap)[0]
            if sampled < 50:
                sampled += 1
                profile = profile_from_ledger(a, s, ledgers[(a, s)], n_cycles=CYCLES)
                ref = make_run_point(a, s, target, processor.run(profile, target),
                                     processor.run(profile, base_cap), base_cap)
                if ref.to_jsonl() != want.to_jsonl():
                    problems.append(f"advise: {a}@{s} {target} W repricer != Processor.run")
                    return
        if got.to_jsonl() != want.to_jsonl():
            problems.append(f"advise: answer for {a}@{s} cap={cap} differs from BatchRepricer")
            return


def offgrid(queries, answers) -> int:
    """Answers priced off the paper grid (each cost the advisor a second reprice)."""
    return sum(
        1 for (_, _, cap), p in zip(queries, answers)
        if p is not None and cap is not None and cap not in PAPER_CAPS
    )


def fresh_dir(tmp: Path) -> Path:
    return Path(tempfile.mkdtemp(dir=tmp))
