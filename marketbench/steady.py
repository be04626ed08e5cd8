"""Steadiness check for the market benchmark.

Run from the repository root::

    python3 marketbench/steady.py --runs 10 --workloads onboard shop
    python3 marketbench/steady.py --guard

The first form runs each workload once per seed (seeds 1..runs) with tracing
off and prints, for every end-to-end metric, the median and the distance
between the first and third quartiles as a share of the median, next to the
metric's bound in ``BENCHMARK.json``.  The second form runs each workload
twice with tracing on, on the same seed, and checks that the same-work
counts (index candidates, plan-cache traffic, planner work, rows out,
deliveries, bytes on the wire, profiled rows) repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: per-layer counts that must repeat exactly between two runs of one seed
EXACT = (
    "index.candidates", "plan.cache_hits", "plan.cache_misses",
    "plan.cache_invalidations", "plan.states_expanded", "plan.plans_built",
    "engine.rows_out", "round.deliveries", "profile.rows",
)
EXACT_PREFIXES = ("http.req_kb.", "http.resp_kb.")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} incorrect:\n{proc.stdout}")
    return result


def spreads(spec: dict, workloads, runs: int) -> bool:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in workloads:
        values: dict[str, list[float]] = {}
        for seed in range(1, runs + 1):
            result = run(workload, seed, spec["run_seconds"], 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
            ), flush=True)
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            ok = spread <= bounds[name] / 3
            steady &= ok
            print(f"  {workload:<8} {name:<16} median {median:12.4f} "
                  f"spread {spread:7.2%} bound {bounds[name]:.0%} "
                  f"{'ok' if ok else 'WIDE'}", flush=True)
    return steady


def guard(spec: dict, workloads, seed: int) -> bool:
    """Two traced runs per workload on one seed: the same-work counts must
    repeat exactly."""
    same = True
    for workload in workloads:
        a, b = (run(workload, seed, spec["run_seconds"], 1) for _ in range(2))
        differ = 0
        for name in a["metrics"]:
            if name in EXACT or name.startswith(EXACT_PREFIXES):
                x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
                if x != y:
                    differ += 1
                    print(f"  {workload:<8} {name:<28} {x} vs {y} "
                          f"({abs(x - y) / max(abs(x), abs(y)):.2%})")
        same &= differ == 0
        print(f"{workload}: {differ} same-work counts differ", flush=True)
    return same


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=["onboard", "shop"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--guard", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.guard:
        ok = guard(spec, args.workloads, args.seed)
    else:
        ok = spreads(spec, args.workloads, args.runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
