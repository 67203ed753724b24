"""Layered host-time benchmark of tapegroups.

    python3 perfbench/run.py --workload mul-large --seed 1 --seconds 20 --trace 0

Runs one workload (mul-large, wordfold or certify) from the root of a source
checkout, importing the package from its `src/`.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  The same object, with every span of a traced run, is also written
under perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
IMPORT_REPEATS = 9


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("mul-large", "wordfold", "certify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program(repeats: int):
    """Import tapegroups from this checkout's src/ and nowhere else,
    `repeats` times from scratch.  Returns the framework module of the last
    import, each import's time and the mean of the calibration loops timed
    just before and just after it: the import's share of set-up.  The first
    import may also compile the bytecode; the median leaves that out."""
    src = ROOT / "src"
    if not (src / "tapegroups" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no tapegroups package under {src}")
    sys.path.insert(0, str(src))
    import_s, loop_s = [], []
    for _ in range(repeats):
        for name in [m for m in sys.modules if m.split(".")[0] == "tapegroups"]:
            del sys.modules[name]
        before = calib.calibration_loop()
        t0 = time.perf_counter()
        tapegroups = importlib.import_module("tapegroups")
        framework = importlib.import_module("tapegroups.framework")
        import_s.append(time.perf_counter() - t0)
        loop_s.append((before + calib.calibration_loop()) / 2)
    if Path(tapegroups.__file__).resolve().parent != (src / "tapegroups").resolve():
        raise SystemExit(f"run.py: imported tapegroups from {tapegroups.__file__}")
    return framework, import_s, loop_s


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        raise SystemExit("run.py: --seconds must be positive")
    framework, import_s, import_loop_s = _import_program(IMPORT_REPEATS)
    import layers
    import workloads as wl

    tracer = layers.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    # representations capture the module functions, so build them after the
    # wrappers are in place
    reps = {g: framework.REPRESENTATIONS[g]() for g in wl.GROUPS}
    result = wl.run(args.workload, args.seed, args.seconds, wl.Sizes(), reps,
                    import_s=import_s, import_loop_s=import_loop_s,
                    phase=tracer.phase if tracer is not None else (lambda name: None))
    e2e = {
        "setup_s": {"value": result.setup_s, "unit": "s"},
        "peak_rss_mib": {"value": result.peak_rss_mib, "unit": "MiB"},
    }
    for g in wl.GROUPS:
        e2e[f"ops_per_s.{g}"] = {"value": result.rate(g), "unit": "1/s"}
    summary = {
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(result.rounds),
        "build_s": result.build_s, "import_s": import_s,
        "calibration_median_s": statistics.median(result.calibration.samples),
        "raw_ops_per_s": {g: result.raw_rate(g) for g in wl.GROUPS},
        "problems": result.problems[:20], "end_to_end": e2e,
    }
    if tracer is not None:
        per_layer = tracer.metrics(result)
        detail["per_layer"] = per_layer
        summary["metrics"] = per_layer
    else:
        summary["metrics"] = e2e
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({**summary, "detail": detail}, fh, indent=1)
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.json.gz")
    for p in result.problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({k: detail[k] for k in ("rounds", "calibration_median_s",
                                              "raw_ops_per_s", "end_to_end")}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
