#!/usr/bin/env python3
"""Steadiness report: repeat each workload and show how much it spreads.

    python3 mrpbench/steady.py --runs 10

Run from the repository root. For every workload in ``BENCHMARK.json``
each run is a fresh interpreter running ``mrpbench/run.py --trace 0``
with its own seed (1, 2, ..., runs) for ``run_seconds``. For every
end-to-end metric the report prints the median, the first and third
quartiles and the relative spread ``(q3 - q1) / median``, and flags a
spread above the metric's bound. The exit code is 1 if a run failed or
a spread is out of bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One fresh-interpreter run; returns its result object."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: "
                           f"{(lines or [done.stderr.strip()])[-1][:300]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, relative spread) as ``statistics.quantiles`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bad = False
    for workload in names:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(1, args.runs + 1):
            try:
                result = run_once(workload, seed, spec["run_seconds"])
            except RuntimeError as exc:
                print(f"FAILED {exc}")
                bad = True
                continue
            if not result["correct"] or result["failed"]:
                print(f"FAILED {workload} seed {seed}: {result['failed']} failed operations")
                bad = True
            for name, series in values.items():
                series.append(result["metrics"][name]["value"])
        print(f"{workload}: {args.runs} runs, seeds 1..{args.runs}")
        print(f"  {'metric':20s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            if len(series) < 2:
                continue
            median, q1, q3, rel = spread(series)
            flag = ""
            if rel > metric["bound"]:
                flag = "  OUT OF BOUND"
                bad = True
            elif rel > metric["bound"] / 3:
                flag = "  above a third of the bound"
            print(f"  {metric['name']:20s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{rel:8.3f} {metric['bound']:6.2f}{flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
