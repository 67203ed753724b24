"""Uniform interface over the three groups plus the certification machinery.

A Representation bundles a group's normal-form codec, its tape programs and
the independent oracle, so the word problem, differential fuzzing, linearity
benchmarks and quasigeodesic probes are written once.  Fuzz trials are
independent; each owns its tape sets and oracle state.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import oracle_groups as og
from . import spiral, thompson_f, z2wrf2, z2wrz2
from .errors import NotInLanguage
from .tapevm import StepReport
from .tokens import codes_z2f2, codes_z2z2

ApplyFn = Callable[[str, str], Tuple[str, StepReport]]


@dataclass(frozen=True)
class Representation:
    group_id: str
    generators: Tuple[str, ...]
    inverse: Dict[str, str]
    identity_nf: str
    apply_report: ApplyFn
    validate: Callable[[str], bool]
    decode: Callable[[str], object]  # raises NotInLanguage off the language
    oracle_identity: object
    oracle_mul: Callable[[object, str], object]
    sample_nf: Callable[[random.Random, int], str]

    def apply(self, nf: str, gen: str) -> str:
        return self.apply_report(nf, gen)[0]

    def with_apply(self, apply_report: ApplyFn) -> "Representation":
        return replace(self, apply_report=apply_report)


# ---------------------------------------------------------------------------
# samplers used by the benchmarks: random normal forms of roughly a target size

def _sample_z2wrz2(rng: random.Random, target: int) -> str:
    hi = max(2, target)
    pos_k = rng.randint(max(1, (9 * hi) // 10), hi)
    lamps = frozenset(spiral.spiral_point(rng.randint(1, hi))
                      for _ in range(rng.randint(0, 8)))
    return z2wrz2.encode(og.LampConfigZ2(lamps, spiral.spiral_point(pos_k)))


def _rand_reduced_word(rng: random.Random, max_len: int) -> str:
    w = []
    for _ in range(rng.randint(1, max_len)):
        choices = [c for c in "aAbB" if not w or og._F2_INV[w[-1]] != c]
        w.append(rng.choice(choices))
    return "".join(w)


def _sample_z2wrf2(rng: random.Random, target: int) -> str:
    # fixed word length keeps the nesting statistics the same at every size,
    # so the bench compares like with like as the target grows
    lamps: set = set()
    word_len = 12
    pos = _rand_reduced_word(rng, word_len) if rng.random() < 0.8 else ""
    while True:
        cfg = og.LampConfigF2(frozenset(lamps), pos)
        nf = z2wrf2.encode(cfg)
        if len(codes_z2f2(nf)) >= target:
            return nf
        for _ in range(max(1, target // (3 * word_len))):
            lamps.add(_rand_reduced_word(rng, word_len))


def _sample_thompson(rng: random.Random, target: int) -> str:
    rs: List[int] = []
    ss: List[int] = []
    remaining = target
    while remaining > 0 or not rs:
        r = rng.choice((0, 0, 1, 1, 2, 3))
        s = rng.choice((0, 0, 0, 1, 1, 2))
        rs.append(r)
        ss.append(s)
        remaining -= r + s + 1
    for i in range(len(rs) - 1):
        if rs[i] > 0 and ss[i] > 0 and rs[i + 1] + ss[i + 1] == 0:
            rs[i + 1] = 1
    if rs[-1] > 0 and ss[-1] > 0:
        ss[-1] = 0
    if rs[-1] == 0 and ss[-1] == 0:
        rs[-1] = 1
    return thompson_f.serialize(thompson_f.ExpSeq(tuple(rs), tuple(ss)))


def _decode_thompson(nf: str) -> og.DyadicPL:
    """The PL map of an F normal form.  pl_eval_normalform alone also maps
    block strings that are not reduced, so membership is checked first."""
    if not thompson_f.validate(nf):
        raise NotInLanguage("not a normal form of thompson-f")
    return og.pl_eval_normalform(nf)


def _representation(group, decode, oracle_identity, oracle_mul, sample_nf) -> Representation:
    """A group module's Representation, read off the module when called.
    g- inverts g, and a generator with no g- is its own inverse."""
    gens = group.GENERATORS
    inverse = {g: g[:-1] if g.endswith("-") else g + "-" if g + "-" in gens else g
               for g in gens}
    return Representation(group.GROUP, gens, inverse, group.IDENTITY_NF,
                          group.apply_gen_report, group.validate, decode,
                          oracle_identity, oracle_mul, sample_nf)


def representation_z2wrz2() -> Representation:
    return _representation(z2wrz2, z2wrz2.decode, og.IDENTITY_Z2, og.wreath_mul_gen,
                           _sample_z2wrz2)


def representation_z2wrf2() -> Representation:
    return _representation(z2wrf2, z2wrf2.decode, og.IDENTITY_F2, og.wreath_mul_gen,
                           _sample_z2wrf2)


def representation_thompson_f() -> Representation:
    return _representation(thompson_f, _decode_thompson, og.PL_IDENTITY, og.pl_mul_gen,
                           _sample_thompson)


REPRESENTATIONS = {
    "z2wrz2": representation_z2wrz2,
    "z2wrf2": representation_z2wrf2,
    "thompson-f": representation_thompson_f,
}


# ---------------------------------------------------------------------------
# word problem

def word_to_nf_report(rep: Representation, word: Sequence[str]) -> Tuple[str, int]:
    """Fold the generator programs over the word; total steps accumulate."""
    nf = rep.identity_nf
    steps = 0
    for gen in word:
        nf, report = rep.apply_report(nf, gen)
        steps += report.steps
    return nf, steps


def word_to_nf(rep: Representation, word: Sequence[str]) -> str:
    return word_to_nf_report(rep, word)[0]


def word_problem(rep: Representation, word: Sequence[str]) -> bool:
    return word_to_nf(rep, word) == rep.identity_nf


# ---------------------------------------------------------------------------
# differential fuzzing

@dataclass
class FuzzReport:
    group: str
    trials: int
    checks: int
    checks_per_gen: Dict[str, int]
    failure: Optional[dict]
    case_coverage: Dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.failure is None

    def to_json(self) -> dict:
        return {"group": self.group, "trials": self.trials, "checks": self.checks,
                "checks_per_gen": self.checks_per_gen, "passed": self.passed,
                "failure": self.failure, "case_coverage": self.case_coverage}


def differential_fuzz(rep: Representation, trials: int, max_len: int,
                      seed: int) -> FuzzReport:
    """Random walks from the identity; after every step the output must
    decode (the closure check: decode raises NotInLanguage on a non-member),
    match the oracle, and cancel with the inverse generator.  Stops at the
    first counterexample.  case_coverage counts the case labels that the
    reports of all these runs carry."""
    rng = random.Random(seed)
    checks = 0
    per_gen = {g: 0 for g in rep.generators}
    coverage: Dict[str, int] = {}
    failure = None

    def apply(nf: str, gen: str) -> str:
        out, report = rep.apply_report(nf, gen)
        for case in report.cases:
            coverage[case] = coverage.get(case, 0) + 1
        return out

    for trial in range(trials):
        nf = rep.identity_nf
        elem = rep.oracle_identity
        word: List[str] = []
        for _ in range(rng.randint(1, max_len)):
            gen = rng.choice(rep.generators)
            word.append(gen)
            out = apply(nf, gen)
            elem2 = rep.oracle_mul(elem, gen)
            checks += 1
            per_gen[gen] += 1
            try:
                kind = "psi-commutation" if rep.decode(out) != elem2 else None
            except NotInLanguage:
                kind = "closure"
            if kind is None and apply(out, rep.inverse[gen]) != nf:
                kind = "inverse-pair"
            if kind:
                failure = {"kind": kind, "trial": trial, "word": list(word),
                           "nf": nf, "gen": gen, "got": out}
                break
            nf, elem = out, elem2
        if failure:
            break
    return FuzzReport(rep.group_id, trials, checks, per_gen, failure, coverage)


# ---------------------------------------------------------------------------
# linearity benchmark

# the largest size's worst ratio may exceed the median size's by this factor
PLATEAU_FACTOR = 1.25


@dataclass
class SizeRow:
    n: int
    max_steps: int
    max_ratio: float


@dataclass
class LinearityReport:
    group: str
    gen: str
    rows: List[SizeRow]
    slope: float
    verdict: bool

    def to_json(self) -> dict:
        return {"group": self.group, "gen": self.gen,
                "sizes": [{"n": r.n, "max_steps": r.max_steps,
                           "max_ratio": round(r.max_ratio, 3)} for r in self.rows],
                "slope": round(self.slope, 3), "verdict": self.verdict}


def linearity_bench(rep: Representation, gen: str, sizes: Sequence[int],
                    samples_per_size: int, seed: int) -> LinearityReport:
    """Empirical certification of the linear step bound: the worst steps-per-
    symbol ratio must not drift upward between the median and largest sizes
    (the lower median of an even count).  Takes at least two distinct sizes,
    in any order; raises ValueError on fewer.

    Sample j draws from the same generator stream at every size, so each j is
    a size-scaled copy of one shape family and the per-size maxima compare
    like with like (the cost constant differs between edit classes).
    """
    sizes = sorted(set(sizes))
    if len(sizes) < 2:
        raise ValueError(f"need at least two distinct sizes, got {sizes}")
    rows: List[SizeRow] = []
    for n in sizes:
        max_steps = 0
        max_ratio = 0.0
        for j in range(samples_per_size):
            rng = random.Random((seed << 20) ^ (j + 1))
            nf = rep.sample_nf(rng, n)
            _out, report = rep.apply_report(nf, gen)
            ratio = report.steps / max(1, report.input_len)
            max_steps = max(max_steps, report.steps)
            max_ratio = max(max_ratio, ratio)
        rows.append(SizeRow(n, max_steps, max_ratio))
    num = sum(r.n * r.max_steps for r in rows)
    den = sum(r.n * r.n for r in rows)
    slope = num / den if den else 0.0
    mid = rows[(len(rows) - 1) // 2]
    verdict = rows[-1].max_ratio <= PLATEAU_FACTOR * mid.max_ratio
    return LinearityReport(rep.group_id, gen, rows, slope, verdict)


# ---------------------------------------------------------------------------
# quasigeodesic probes

@dataclass
class ProbeReport:
    group: str
    trials: int
    max_walk: int
    at: Dict[int, float]
    max_ratio: float

    def to_json(self) -> dict:
        return {"group": self.group, "trials": self.trials, "max_walk": self.max_walk,
                "at": {str(k): round(v, 3) for k, v in self.at.items()},
                "max_ratio": round(self.max_ratio, 3)}


def _nf_len(rep: Representation, nf: str) -> int:
    if rep.group_id == "z2wrf2":
        return len(codes_z2f2(nf))
    if rep.group_id == "z2wrz2":
        return len(codes_z2z2(nf))
    return len(nf)


def quasigeodesic_probe(rep: Representation, trials: int, max_walk: int,
                        seed: int, checkpoints: Sequence[int] = ()) -> ProbeReport:
    """Empirical max of |nf| / (walk length + 1).  Quasigeodesic normal forms
    plateau; the probe can refute quasigeodesicity, never prove it."""
    rng = random.Random(seed)
    cps = sorted(set(checkpoints) | {max_walk}) if checkpoints else \
        sorted({max_walk // 4, max_walk // 2, max_walk})
    at = {k: 0.0 for k in cps}
    overall = 0.0
    for _ in range(trials):
        nf = rep.identity_nf
        for k in range(1, max_walk + 1):
            nf = rep.apply(nf, rng.choice(rep.generators))
            if k in at:
                ratio = _nf_len(rep, nf) / (k + 1)
                at[k] = max(at[k], ratio)
                overall = max(overall, ratio)
    return ProbeReport(rep.group_id, trials, max_walk, at, overall)


def nonqg_diagonal_ratios(ks: Sequence[int]) -> List[Tuple[int, float]]:
    """The witness family against quasigeodesicity of the spiral normal form:
    one lamp at (k,k) costs ~4k generators but a quadratic-length string."""
    out = []
    for k in ks:
        cfg = og.LampConfigZ2(frozenset({(k, k)}), (0, 0))
        nf = z2wrz2.encode(cfg)
        out.append((k, len(codes_z2z2(nf)) / (4 * k + 2)))
    return out


def report_json(report) -> str:
    return json.dumps(report.to_json(), indent=2)
