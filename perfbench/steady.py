"""Steadiness of the benchmark: repeat runs and report each metric's spread.

Usage, from the root of a keldrot checkout::

    python3 perfbench/steady.py --runs 10 [--workload momentum ...]

Runs ``perfbench/run.py --trace 0`` once per seed (seeds 1..runs) for
each workload, one run at a time, at the run length of BENCHMARK.json.
For each end-to-end metric it prints the median, the first and third
quartiles (``statistics.quantiles(n=4)``), the spread (q3 - q1) / median,
whether the spread is within the metric's bound and within a third of it,
and the value of every run in order.  The share
of failed operations is printed per workload; it must be the same in
every run.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT_FILE = "BENCHMARK.json"


def run_once(cmd: list[str], workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([*cmd, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads(Path(ROOT_FILE).read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workload or names:
        results = [run_once(bench["command"], workload, seed, bench["run_seconds"])
                   for seed in range(1, args.runs + 1)]
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"\n{workload}: {args.runs} runs, all correct={correct}, "
              f"failed share {sorted(shares)}")
        ok &= correct and len(shares) == 1
        print(f"  {'metric':46s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}  bound")
        for metric in results[0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            verdict = ""
            if bound is not None:
                verdict = (f"{bound:.2f} {'ok' if spread <= bound else 'OVER'}"
                           f"{' (<1/3)' if spread <= bound / 3 else ''}")
                ok &= spread <= bound
            print(f"  {metric:46s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}  {verdict}")
            print(f"    runs: {' '.join(f'{v:.4g}' for v in vals)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
