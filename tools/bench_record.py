"""Record the end-to-end benchmark figures of a change in BENCH_<pr>.json.

    python3 tools/bench_record.py --pr N --seeds 1-4 \\
        --seeds mul-large:101-110 --baseline ../parent-checkout

Each side must be the top level of a git checkout, so that the file names
its revision; the tool exits 2 naming any side that is not.  Make the
parent's checkout with one of

    git worktree add --detach ../parent-checkout <parent revision>
    git clone --no-checkout . ../parent-checkout && \\
        git -C ../parent-checkout checkout --detach <parent revision>

Runs `perfbench/run.py --trace 0` on each of the three workloads, once per
seed and for BENCHMARK.json's `run_seconds`, from the root of this checkout.
`--seeds` takes a range (`1-4`) or a list (`1,3,5`) for every workload, or
`WORKLOAD:SEEDS` for one of them.  With `--baseline`, the same seeds also
run from that checkout (the parent commit, say), and the two sides alternate
which one runs first.  Then each side runs the tier-1 suite once,

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors \\
        --durations=0 -p no:cacheprovider

and its wall time, its summary line and its `--durations=0` table are kept.

The file holds, per workload and side, every run's end-to-end metrics and
each metric's median, quartiles, spread (the distance between the quartiles)
and range.  With a baseline it also holds, per metric, the number of seeds
on which the change did better, as the metric's `better` field in
BENCHMARK.json defines it, and whether the medians differ by more than the
baseline's spread.  Per side it holds the tier-1
run: each test phase of 5 ms or more with its seconds, slowest first.  It
records the machine: nproc, the Python version and the platform.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mul-large", "wordfold", "certify")
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=0",
         "-p", "no:cacheprovider"]
# a row of the --durations table: "12.34s call     tests/test_x.py::test_y"
_DURATION = re.compile(r"^(\d+\.\d+)s (setup|call|teardown)\s+(\S.*)$", re.M)


def parse_seeds(specs) -> dict:
    """Seeds by workload, from `SEEDS` and `WORKLOAD:SEEDS` specs."""
    every, one = [], {}
    for spec in specs:
        workload, _, seeds = spec.rpartition(":")
        if workload and workload not in WORKLOADS:
            raise SystemExit(f"bench_record.py: unknown workload {workload!r}")
        values = []
        for part in seeds.split(","):
            lo, _, hi = part.partition("-")
            values += range(int(lo), int(hi or lo) + 1)
        if workload:
            one[workload] = values
        else:
            every = values
    return {w: one.get(w, every) for w in WORKLOADS if one.get(w, every)}


def git(checkout: Path, *args) -> str:
    r = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else ""


def revision(checkout: Path) -> str | None:
    """The checkout's `git describe`, or None unless it is the top level of a
    git checkout: a plain directory (a `git archive` export, say) has no
    revision, and one nested in another repository's tree has that one's."""
    if not checkout.is_dir() or Path(git(checkout, "rev-parse", "--show-toplevel")) != checkout:
        return None
    return git(checkout, "describe", "--always", "--dirty") or "unknown"


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if r.returncode != 0:
        raise SystemExit(f"bench_record.py: {' '.join(cmd)} in {checkout} failed:\n{r.stderr}")
    last = json.loads(r.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": last["correct"], "attempted": last["attempted"],
            "failed": last["failed"],
            "metrics": {k: v["value"] for k, v in last["metrics"].items()}}


def tier1(checkout: Path) -> dict:
    """One tier-1 run in checkout: wall seconds, summary line, durations."""
    env = dict(os.environ, PYTHONPATH="src")
    t0 = time.perf_counter()
    r = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=env,
                       capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = r.stdout.strip().splitlines()
    return {"wall_s": round(wall, 1), "exit": r.returncode,
            "summary": lines[-1].strip("= ") if lines else "",
            "durations": [[float(s), phase, test]
                          for s, phase, test in _DURATION.findall(r.stdout)]}


def summary(runs) -> dict:
    """Median, quartiles and spread of each metric over the runs.  The spread
    is the distance between the quartiles: the run-to-run noise of one side."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                       if len(values) > 1 else values * 3)
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": q3 - q1,
                     "min": min(values), "max": max(values)}
    return out


def beyond_noise(change: dict, baseline: dict) -> dict:
    """Per metric, whether the medians differ by more than the baseline's
    spread; a difference inside it cannot be told from noise."""
    return {name: abs(change[name]["median"] - b["median"]) > b["spread"]
            for name, b in baseline.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True)
    p.add_argument("--seeds", action="append", required=True)
    p.add_argument("--baseline", type=Path)
    args = p.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    sides = {"change": ROOT}
    if args.baseline is not None:
        sides["baseline"] = args.baseline.resolve()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    revisions = {side: revision(path) for side, path in sides.items()}
    if None in revisions.values():
        print("bench_record.py: not the top level of a git checkout: "
              + ", ".join(str(sides[side]) for side, rev in revisions.items() if rev is None),
              file=sys.stderr)
        return 2
    record = {
        "pr": args.pr,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "seconds": seconds,
        "revisions": revisions,
        "workloads": {},
    }
    for workload, wl_seeds in seeds.items():
        runs = {side: [] for side in sides}
        for i, seed in enumerate(wl_seeds):
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for side in order:
                runs[side].append(run_once(sides[side], workload, seed, seconds))
                print(workload, seed, side, runs[side][-1]["metrics"], flush=True)
        entry = {"seeds": wl_seeds}
        for side, side_runs in runs.items():
            entry[side] = {"summary": summary(side_runs), "runs": side_runs}
        if "baseline" in runs:
            entry["change_better"] = {
                name: sum((c["metrics"][name] > b["metrics"][name]) == (sense == "higher")
                          and c["metrics"][name] != b["metrics"][name]
                          for c, b in zip(runs["change"], runs["baseline"]))
                for name, sense in better.items()}
            entry["beyond_noise"] = beyond_noise(entry["change"]["summary"],
                                                 entry["baseline"]["summary"])
        record["workloads"][workload] = entry
    record["tier1"] = {}
    for side, path in sides.items():
        record["tier1"][side] = tier1(path)
        print("tier-1", side, record["tier1"][side]["summary"], flush=True)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
