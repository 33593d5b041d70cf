#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1-10 [--seconds S] [--trace 1] [--out FILE]

Runs ``bench/run.py`` once per workload and seed, one run at a time, and
prints for every metric its median, quartiles and the distance between
the quartiles as a share of the median (the figure a bound must exceed).
``--out`` writes every run's full report and the spreads as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    return {"result": json.loads(lines[-1]), "report": json.loads(lines[-2])["report"]}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / abs(med) if med else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out")
    args = parser.parse_args()

    doc = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            run = run_once(workload, seed, args.seconds, args.trace)
            runs.append(run)
            print(workload, seed, json.dumps(run["result"]), flush=True)
        metrics = {}
        for run in runs:
            merged = {**run["report"]["workload_metrics"], **run["report"]["metrics"]}
            for name, m in merged.items():
                metrics.setdefault(name, []).append(m["value"])
        spreads = {name: spread(v) for name, v in metrics.items() if len(v) >= 2}
        for name, s in spreads.items():
            share = "n/a" if s["iqr_share"] is None else f"{s['iqr_share']:.4f}"
            print(f"  {workload:14s} {name:26s} median {s['median']:12.6g}  "
                  f"iqr/median {share}", flush=True)
        doc["workloads"][workload] = {
            "spreads": spreads,
            "all_correct": all(r["result"]["correct"] for r in runs),
            "runs": runs,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
