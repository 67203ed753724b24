"""Command-line front end.

Subcommands: normalize, mul, wp, fuzz, bench, probe, demo-nonqg.  Every
subcommand but demo-nonqg, whose table is of Z2 wr Z^2, takes --group {z2wrz2,
z2wrf2, thompson-f}; normalize and mul also take --format {text, json}.
Generator words are whitespace-separated tokens a a- b b- c / x0 x0- x1 x1-.
Counts and lengths are positive integers, --sizes and --ks comma lists of
them, --sizes of at least two distinct ones.  Exit codes: 0 ok, 1 bad input
(not in the language / bad word), 2 internal fault, 64 usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import framework as fw
from .errors import BadWord, NotInLanguage

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _positive(text: str) -> int:
    """An option's positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not positive")
    return value


def _positives(text: str) -> list[int]:
    """An option's comma list of positive integers."""
    return [_positive(item) for item in text.split(",")]


def _build_parser() -> _Parser:
    p = _Parser(prog="tapegroups", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--group", required=True, choices=sorted(fw.REPRESENTATIONS))
        sp.add_argument("--out", default=None, help="write the report to a file")

    sp = sub.add_parser("normalize", help="normal form of a generator word")
    common(sp)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--word", required=True, help="whitespace-separated generators")

    sp = sub.add_parser("mul", help="right-multiply a normal form by one generator")
    common(sp)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--nf", required=True)
    sp.add_argument("--gen", required=True)

    sp = sub.add_parser("wp", help="word problem: trivial or nontrivial")
    common(sp)
    sp.add_argument("--word", required=True)

    sp = sub.add_parser("fuzz", help="differential fuzz against the oracle")
    common(sp)
    sp.add_argument("--trials", type=_positive, default=200)
    sp.add_argument("--max-len", type=_positive, default=100)
    sp.add_argument("--seed", type=int, default=42)

    sp = sub.add_parser("bench", help="linearity benchmark for one generator")
    common(sp)
    sp.add_argument("--gen", required=True)
    sp.add_argument("--sizes", type=_positives,
                    default="64,128,256,512,1024,2048,4096,8192,16384")
    sp.add_argument("--samples", type=_positive, default=4)
    sp.add_argument("--seed", type=int, default=42)

    sp = sub.add_parser("probe", help="quasigeodesic probe over random walks")
    common(sp)
    sp.add_argument("--trials", type=_positive, default=20)
    sp.add_argument("--max-walk", type=_positive, default=2000)
    sp.add_argument("--seed", type=int, default=42)

    sp = sub.add_parser("demo-nonqg", help="divergence table for the spiral form of Z2 wr Z^2")
    sp.add_argument("--out", default=None, help="write the table to a file")
    sp.add_argument("--ks", type=_positives, default="5,10,20,50,100")
    return p


def _emit(args, payload_text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload_text + "\n")
    else:
        print(payload_text)


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    rep = fw.REPRESENTATIONS[args.group]() if args.command != "demo-nonqg" else None
    try:
        if args.command == "normalize":
            nf = fw.word_to_nf(rep, args.word.split())
            _emit(args, nf if args.format == "text" else json.dumps({"nf": nf}))
        elif args.command == "mul":
            if not rep.validate(args.nf):
                raise NotInLanguage(f"{args.nf!r} is not a normal form of {args.group}")
            out, report = rep.apply_report(args.nf, args.gen)
            if args.format == "json":
                _emit(args, json.dumps({"nf": out, "steps": report.steps}))
            else:
                _emit(args, f"{out}\nsteps={report.steps}")
        elif args.command == "wp":
            trivial = fw.word_problem(rep, args.word.split())
            _emit(args, "trivial" if trivial else "nontrivial")
        elif args.command == "fuzz":
            report = fw.differential_fuzz(rep, args.trials, args.max_len, args.seed)
            _emit(args, fw.report_json(report))
            return 0 if report.passed else 2
        elif args.command == "bench":
            if len(set(args.sizes)) < 2:
                parser.error("argument --sizes: needs at least two distinct sizes")
            report = fw.linearity_bench(rep, args.gen, args.sizes, args.samples, args.seed)
            _emit(args, fw.report_json(report))
        elif args.command == "probe":
            report = fw.quasigeodesic_probe(rep, args.trials, args.max_walk, args.seed)
            _emit(args, fw.report_json(report))
        elif args.command == "demo-nonqg":
            rows = fw.nonqg_diagonal_ratios(args.ks)
            lines = ["k\t|nf|/(4k+2)"]
            lines += [f"{k}\t{ratio:.2f}" for k, ratio in rows]
            _emit(args, "\n".join(lines))
    except (NotInLanguage, BadWord) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal fault
        print(f"internal fault: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
