"""Steadiness mode: run one workload repeatedly and summarise each metric.

    python3 perfbench/steady.py --workload certify --runs 10 [--first-seed 1]
        [--out FILE]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...), one
run at a time, each for the run_seconds of BENCHMARK.json.  Prints for every
metric of the last JSON line: the median, the first and third quartiles and
the spread, (q3 - q1) / median, with the quartiles of
statistics.quantiles(values, n=4).  It also prints the share of failed
operations of every run, and the rounds and wall time of each run.  The
bounds in BENCHMARK.json are set from this output.  With --out the whole
summary is written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall_s = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"steady.py: run failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["rounds"] = json.loads(lines[-2])["rounds"]
    result["wall_s"] = wall_s
    return result


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    if args.runs < 2:
        raise SystemExit("steady.py: need at least two runs")
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for k in range(args.runs):
        seed = args.first_seed + k
        r = run_once(args.workload, seed, seconds)
        runs.append(r)
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} rounds={r['rounds']} wall={r['wall_s']:.1f}s", flush=True)
    names = list(runs[0]["metrics"])
    table = {}
    print(f"{'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name in names:
        s = summarise([r["metrics"][name]["value"] for r in runs])
        table[name] = s
        print(f"{name:36} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g} "
              f"{s['spread']:8.4f}")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"failed share per run: {shares}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seconds": seconds,
            "seeds": [args.first_seed + k for k in range(args.runs)],
            "runs": runs, "summary": table}, indent=1))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
