"""Run-to-run spread of the end-to-end metrics, across seeds.

Runs ``perfbench/run.py`` once per seed for each workload, as
``BENCHMARK.json`` specifies, and prints each end-to-end metric's median
and its quartile spread ((Q3 - Q1) / median) next to the metric's bound.
A spread above a third of its bound is marked ``WIDE``.  Run from the
repository root::

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/spread.py --workloads advise --seeds 1 2 3 4 5
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from spans import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: incorrect (exit {proc.returncode})")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, xs in values.items():
            spread = quartile_spread(xs) if len(xs) > 1 else 0.0
            flag = "WIDE" if name != "setup_s" and spread > bounds[name] / 3 else ""
            print(f"{workload:13s} {name:14s} median {statistics.median(xs):12.4f} "
                  f"spread {spread:7.4f} bound {bounds[name]:.2f} {flag:4s} "
                  + " ".join(f"{x:.4g}" for x in xs))
            sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
