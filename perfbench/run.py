"""Reference-study benchmark: four workloads, timed end to end and by layer.

Runs the paper's study grid (8 algorithms x {32, 64}^3, ``blobs``, 87
cycles) through ``repro.api`` as four workloads -- ``study-cold``,
``study-pooled``, ``study-warm`` and ``advise`` (see ``workloads.py``) --
checks every output, and prints each metric with its unit.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` ones of
``BENCHMARK.json``; with ``--trace 1`` they are its ``per_layer`` ones,
from a run that replays the workload layer by layer under spans
(``traced.py``) beside an untraced run of the same work.  Spans are
written to ``.perfbench_out/`` at the end.

Usage, from the repository root::

    python3 perfbench/run.py                          # all four, seed 7
    python3 perfbench/run.py --seed 11                # the held-out seed
    python3 perfbench/run.py --workload advise --seed 3 --seconds 12 --trace 1

The exit code is 1 when a correctness gate fails and 2 when the
``repro`` sources or ``BENCHMARK.json`` are missing.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALL = ("study-cold", "study-pooled", "study-warm", "advise")


class Outcome:
    """What one workload run measured and found."""

    def __init__(self, name: str):
        self.name = name
        self.metrics: dict[str, float] = {}               # units come from BENCHMARK.json
        self.extras: dict[str, tuple[float, str]] = {}    # printed only
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.points: list[str] = []


def _config(W, name: str):
    if name == "study-warm":
        return W.grid(name, W.FINE_CAPS), 0
    return W.grid(name, W.PAPER_CAPS), W.POOL_WORKERS if name == "study-pooled" else 0


def _latency_extras(out: Outcome, latencies_s: list[float], wall_s: float) -> None:
    from spans import percentile

    out.extras["advise_p50_us"] = (percentile(latencies_s, 50) * 1e6, "us")
    out.extras["advise_p99_us"] = (percentile(latencies_s, 99) * 1e6, "us")
    out.extras["advise_qps"] = (len(latencies_s) / wall_s, "1/s")


# ------------------------------------------------------------------ untraced
def _reference_s(units: list[list[float]]) -> float:
    """A unit's time at reference speed: for each piece of the unit, the
    median over units of that piece's reference time, summed."""
    return sum(statistics.median(piece) for piece in zip(*units))


def untraced(name: str, seed: int, seconds: float, tmp: Path) -> Outcome:
    """Set up ``SETUP_REPS`` times; after each set-up, time units until
    its share of ``seconds`` is measured, so units sample the whole run.

    A unit is one block of ``ADVISE_BLOCK`` queries, taken in turn from
    the 20,000-query list, or one pass over the study's grid: a single
    study, or for ``study-warm`` one study per (algorithm, size), so that
    each piece is short enough for the calibrations around it
    (``refspeed.py``) to follow the host's speed.  The first unit after
    the first set-up is a warm-up: checked in full, not timed.  Every
    later unit must give the same outputs and work counts as the first.
    """
    import refspeed as R
    import workloads as W

    out = Outcome(name)
    setups, walls, cpus, cals, latencies = [], [], [], [], []
    ref_walls: list[list[float]] = []  # per unit, each piece's wall at reference speed
    ref_cpus: list[list[float]] = []
    firsts: dict[int, tuple] = {}      # piece -> its outputs, counts and stored lines, first run
    answers: dict = {}                 # query index -> first answer
    queries = W.make_queries(seed) if name == "advise" else []
    cursor = 0
    probe = tmp / "fsync-probe.bin"
    if name != "advise":
        config, workers = _config(W, name)
        pieces = W.split(config) if name == "study-warm" else [config]

    def run_unit(state) -> tuple[list[tuple[float, float, float, float, float]], list[float]]:
        """Run one unit; return (wall, CPU, scale, wait scale, calibration)
        per piece, and the query latencies."""
        nonlocal cursor
        if name == "advise":
            block = [(cursor + i) % len(queries) for i in range(W.ADVISE_BLOCK)]
            cursor = (block[-1] + 1) % len(queries)
            unit, scale, wait_scale, cal = R.at_reference(
                functools.partial(W.advise_loop, state, [queries[i] for i in block]), probe)
            out.attempted += len(block)
            out.failed += unit.failed
            for i, answer in zip(block, unit.answers):
                if i not in answers:
                    answers[i] = answer
                elif W.line(answer) != W.line(answers[i]):
                    out.problems.append(f"advise: query {i} answered differently on repeat")
            return [(unit.wall_s, unit.cpu_s, scale, wait_scale, cal)], unit.latencies_s
        timed = []
        for j, piece in enumerate(pieces):
            workdir = W.fresh_dir(tmp)
            cache = state if name == "study-warm" else workdir / "ledgers.json"
            run, scale, wait_scale, cal = R.at_reference(functools.partial(
                W.engine_study, workdir, piece, workers=workers, seed=seed, cache=cache), probe)
            out.attempted += piece.n_configurations
            out.failed += run.quarantined
            signature = (run.points, run.counts, run.ledgers, sorted(run.stored))
            if j not in firsts:
                # Repeats are held to this run's outputs, so it alone
                # goes through the full (slower) gates.
                W.check_study(run, piece, seed, out.problems)
                firsts[j] = signature
                out.points += run.points
            elif signature != firsts[j]:
                out.problems.append(f"{piece.name}: outputs or work counts differ between repeats")
            timed.append((run.wall_s, run.cpu_s, scale, wait_scale, cal))
        return timed, []

    for rep in range(W.SETUP_REPS):
        t0 = time.perf_counter()
        W.import_api_s()
        workdir = W.fresh_dir(tmp)
        fill, state = None, None
        if name in ("study-warm", "advise"):
            cache, fill = W.fill_ledgers(workdir, seed)
            state = cache if name == "study-warm" else W.warm_advisor(cache, seed)
        setups.append(time.perf_counter() - t0)
        if fill is not None:
            W.check_study(fill, W.grid("fill", W.PAPER_CAPS), seed, out.problems)
            out.attempted += len(fill.points) + fill.quarantined
            out.failed += fill.quarantined
        if rep == 0:
            run_unit(state)

        while not walls or sum(walls) < seconds * (rep + 1) / W.SETUP_REPS:
            timed, unit_latencies = run_unit(state)
            latencies += unit_latencies
            walls.append(sum(piece[0] for piece in timed))
            cpus.append(sum(piece[1] for piece in timed))
            ref_walls.append([R.reference_wall(*piece[:4]) for piece in timed])
            ref_cpus.append([cpu * scale for _, cpu, scale, _, _ in timed])
            cals += [piece[4] for piece in timed]
    if answers:
        index = sorted(i for i in answers if answers[i] is not None)
        W.check_advise(state, [queries[i] for i in index], [answers[i] for i in index],
                       out.problems)

    fail_ratio = out.failed / out.attempted
    out.metrics = {
        "setup_s": statistics.median(setups),
        "cpu_ref_s": _reference_s(ref_cpus),
        "peak_rss_mb": W.peak_rss_mb(),
        "success_ratio": 1.0 - fail_ratio,
    }
    if name == "advise":
        _latency_extras(out, latencies, sum(walls))
    else:
        out.extras["study_s"] = (statistics.median(walls), "s")
        out.extras["points_per_s"] = (config.n_configurations / statistics.median(walls), "1/s")
    # Printed, not gated: see "Why CPU time is the gated timing" in NOTES.md.
    out.extras["run_ref_s"] = (_reference_s(ref_walls), "s")
    out.extras["run_median_s"] = (statistics.median(walls), "s")
    out.extras["cpu_median_s"] = (statistics.median(cpus), "s")
    out.extras["calibration_s"] = (statistics.median(cals), "s")
    out.extras["fail_ratio"] = (fail_ratio, "ratio")
    out.extras["units_timed"] = (len(walls), "count")
    return out


# -------------------------------------------------------------------- traced
def _same(label: str, replayed, engine, problems: list[str]) -> None:
    if replayed != engine:
        problems.append(f"traced replay differs from the engine: {label}")


def traced(name: str, seed: int, seconds: float, tmp: Path) -> Outcome:
    """Untraced and traced runs of the same work, side by side.

    Set-up is included where it calls into the layers (the ledger fill of
    ``study-warm`` and ``advise``).  ``seconds`` is not used: the traced
    run times one study, or one pass over the 20,000 queries.
    """
    import traced as T
    import workloads as W
    from spans import SpanRecorder

    out = Outcome(name)
    rec = SpanRecorder()
    engine_runs = []  # every untraced engine call
    counts: dict[str, float] = {}
    ledgers: dict = {}
    untraced_s = traced_s = 0.0

    def add_counts(c: dict) -> None:
        for k, v in c.items():
            counts[k] = counts.get(k, 0) + v

    if name in ("study-warm", "advise"):
        t0 = time.perf_counter()
        cache_u, fill = W.fill_ledgers(W.fresh_dir(tmp), seed)
        adv_u = W.warm_advisor(cache_u, seed) if name == "advise" else None
        untraced_s += time.perf_counter() - t0
        engine_runs.append(fill)
        W.check_study(fill, W.grid("fill", W.PAPER_CAPS), seed, out.problems)

        cache_t = W.fresh_dir(tmp) / "ledgers.json"
        with rec.span("setup") as root:
            replay = T.StudyReplay(rec, W.grid("fill", W.PAPER_CAPS), workers=W.POOL_WORKERS,
                                   seed=seed, cache=cache_t, store=None)
            points = replay.run()
            if name == "advise":
                with rec.span("advisor.warm"):
                    adv_t = W.warm_advisor(cache_t, seed)
        traced_s += rec.spans[root].duration
        _same("set-up points", W.jsonl(points), fill.points, out.problems)
        _same("set-up ledgers", replay.ledgers, fill.ledgers, out.problems)
        ledgers = replay.ledgers
        add_counts(replay.counts)
        out.attempted += len(fill.points) + fill.quarantined
        out.failed += fill.quarantined

    if name == "advise":
        queries = W.make_queries(seed)
        run = W.advise_loop(adv_u, queries)
        untraced_s += run.wall_s
        W.check_advise(adv_u, queries, run.answers, out.problems)
        with rec.span("study") as root:
            answers, pricing = T.replay_advise(rec, adv_t, queries)
        traced_s += rec.spans[root].duration
        _same("advise answers", [W.line(a) for a in answers],
              [W.line(a) for a in run.answers], out.problems)
        _same("reprice calls", pricing["pricing.reprice_calls"],
              len(queries) - run.failed + W.offgrid(queries, run.answers), out.problems)
        add_counts(pricing)
        out.attempted += len(queries)
        out.failed += run.failed
        _latency_extras(out, run.latencies_s, run.wall_s)
    else:
        config, workers = _config(W, name)
        workdir = W.fresh_dir(tmp)
        run = W.engine_study(workdir, config, workers=workers, seed=seed,
                             cache=cache_u if name == "study-warm" else workdir / "ledgers.json")
        untraced_s += run.wall_s
        engine_runs.append(run)
        W.check_study(run, config, seed, out.problems)
        workdir = W.fresh_dir(tmp)
        with rec.span("study") as root:
            replay = T.StudyReplay(
                rec, config, workers=workers, seed=seed,
                cache=cache_t if name == "study-warm" else workdir / "ledgers.json",
                store=workdir / f"{config.name}.jsonl")
            points = replay.run()
        traced_s += rec.spans[root].duration
        _same("study points", W.jsonl(points), run.points, out.problems)
        for key, value in run.counts.items():
            _same(key, replay.counts.get(key), value, out.problems)
        if name != "study-warm":
            _same("ledgers", replay.ledgers, run.ledgers, out.problems)
            ledgers = replay.ledgers
        add_counts(replay.counts)
        out.attempted += config.n_configurations
        out.failed += run.quarantined

    out.metrics = _layer_metrics(W, T, rec, counts, ledgers, engine_runs)
    for metric, extra in (("advise.p50_us", "advise_p50_us"), ("advise.p99_us", "advise_p99_us"),
                          ("advise.qps", "advise_qps")):
        out.metrics[metric] = out.extras[extra][0] if extra in out.extras else 0.0
    out.metrics["trace.overhead_ratio"] = traced_s / untraced_s

    spans_dir = ROOT / ".perfbench_out"
    spans_dir.mkdir(exist_ok=True)
    rec.write_jsonl(spans_dir / f"spans-{name}-seed{seed}.jsonl")
    return out


def _layer_metrics(W, T, rec, counts, ledgers, engine_runs) -> dict[str, float]:
    """Per-layer metrics from the spans, the replay's counts and the
    engine's progress events.  A layer the workload never calls reads 0."""
    from spans import layer_self_times, unattributed_s

    st = layer_self_times(rec.spans)
    m: dict[str, float] = {"viz.self_s": st.get("viz", 0.0)}
    for key in ("data", "profiles", "runner", "machine", "validate", "store", "obs",
                "pricing.cache_get", "pricing.reprice", "advisor.recommend",
                *(f"viz.{a}" for a in W.ALGORITHMS)):
        m[f"{key}.self_s"] = st.get(key, 0.0)
    m.update(T.work_counts(ledgers))
    for key in ("data.calls", "machine.run_calls", "machine.rapl_decisions",
                "machine.throttle_decisions", "validate.quarantined", "store.appends",
                "store.bytes", "pricing.reprice_calls", "pricing.offgrid_reprice_calls"):
        m[key] = counts.get(key, 0)
    steps_s = m["viz.advection.self_s"]
    m["viz.advection.steps_per_s"] = m["viz.advection.steps"] / steps_s if steps_s else 0.0
    runs = m["machine.run_calls"]
    m["machine.us_per_run"] = m["machine.self_s"] / runs * 1e6 if runs else 0.0
    appends = m["store.appends"]
    m["store.us_per_append"] = st.get("store.append", 0.0) / appends * 1e6 if appends else 0.0
    gets = counts.get("pricing.cache_gets", 0)
    m["pricing.cache_hit_ratio"] = counts["pricing.cache_hits"] / gets if gets else 0.0

    # Job times come from the engine's progress events, which time a job
    # from its submission: in a pool they include the wait in the
    # submission window.  Pool utilization therefore comes from the
    # replay's worker lanes: busy time / (workers x pool lifetime).
    job_s = [e["elapsed_s"] for r in engine_runs for e in r.events if e["kind"] == "profile-done"]
    summaries = [next(e for e in r.events if e["kind"] == "summary") for r in engine_runs]
    m["engine.jobs_run"] = sum(s["jobs_run"] for s in summaries)
    m["engine.retries"] = sum(s["retries"] for s in summaries)
    m["engine.serial_fallback"] = sum(
        e["kind"] == "serial-fallback" for r in engine_runs for e in r.events)
    m["engine.job_s_sum"] = sum(job_s)
    m["engine.max_job_s"] = max(job_s, default=0.0)
    pool = [s for s in rec.spans if s.name == "engine.pool"]
    busy = sum(s.duration for s in rec.spans if s.name == "job" and s.lane != 0)
    lifetime = max((s.end for s in pool), default=0.0) - min((s.start for s in pool), default=0.0)
    m["engine.pool_utilization"] = busy / (W.POOL_WORKERS * lifetime) if pool else 0.0
    m["trace.unattributed_s"] = unattributed_s(rec.spans)
    return m


# ---------------------------------------------------------------------- main
def _report(out: Outcome, units: dict[str, str]) -> None:
    rows = [(k, v, units[k]) for k, v in out.metrics.items()]
    rows += [(k, v, u) for k, (v, u) in out.extras.items()]
    for key, value, unit in rows:
        print(f"{out.name:13s} {key:30s} {value:16.6f} {unit}")
    for problem in out.problems:
        print(f"{out.name:13s} GATE FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=ALL + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="time units until this much has been measured")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {SRC / 'repro'} or {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    sys.path.insert(0, str(SRC))
    import numpy

    names = ALL if args.workload == "all" else (args.workload,)
    measure = traced if args.trace else untraced
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=ROOT))
    outcomes = []
    try:
        for name in names:
            out = measure(name, args.seed, args.seconds, tmp)
            if set(out.metrics) != set(units):
                raise RuntimeError(f"{name} measured {sorted(set(out.metrics) ^ set(units))} "
                                   f"differently from BENCHMARK.json")
            outcomes.append(out)
            _report(out, units)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    problems = [p for o in outcomes for p in o.problems]
    by_name = {o.name: o for o in outcomes}
    if not args.trace and {"study-cold", "study-pooled"} <= set(by_name):
        if by_name["study-pooled"].points != by_name["study-cold"].points:
            problems.append("study-pooled points differ from study-cold's")
            print("study-pooled  GATE FAILED: points differ from study-cold's")
    metrics = {
        (k if len(outcomes) == 1 else f"{o.name}/{k}"): {"value": o.metrics[k], "unit": units[k]}
        for o in outcomes for k in units
    }
    print(f"machine: nproc={os.cpu_count()} python={sys.version.split()[0]} "
          f"numpy={numpy.__version__}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
