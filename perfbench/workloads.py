"""The three benchmark workloads: inputs, timed rounds and output checks.

Every workload is a closed loop with one client: one process, one thread,
the next call issued when the previous one returns.  A run repeats whole
rounds of identical operations until its time is up; each round applies the
same inputs to all three groups in turn, so slow moments of a shared machine
fall on every group alike.  Outputs are checked after the timed rounds
against computations made apart from the program: lamp configurations from
`oracle_groups` for the wreath products and exact point evaluation
(`fpoints`) for Thompson's F.

Inputs come from `--seed` alone.  The program sees only normal forms and
generator words.
"""

from __future__ import annotations

import hashlib
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import fpoints
from calib import REF_S, Calibration, calibration_loop

from tapegroups import framework as fw
from tapegroups import oracle_groups as og
from tapegroups import spiral, thompson_f, z2wrf2, z2wrz2

GROUPS = ("z2wrz2", "z2wrf2", "thompson-f")
WORKLOADS = ("mul-large", "wordfold", "certify")
WREATH = {"z2wrz2": z2wrz2, "z2wrf2": z2wrf2}
PLATEAU_FACTOR = 1.25

# the defining relators of F, as in the package's own tests
R1 = ("x1", "x0-", "x0-", "x1-", "x0", "x0", "x1-", "x0-", "x1", "x0")
R2 = ("x1", "x0-", "x0-", "x0-", "x1-", "x0", "x0", "x0",
      "x1-", "x0-", "x0-", "x1", "x0", "x0")


@dataclass(frozen=True)
class Sizes:
    """Workload sizes.  The defaults are the benchmark; tests shrink them.

    Word and walk counts are set so that the seed moves a group's rate by a
    few percent only: the cost of one fold varies by 10-25% from word to
    word (a walk's reach), and a round averages over many of them."""

    mul_n: int = 1 << 14          # normal-form length in mul-large, tokens
    mul_small: int = 1 << 12      # same-shape inputs for the plateau check
    mul_inputs: Tuple[int, ...] = (2, 2, 4)      # inputs per group; F: one per head
    fold_len: Tuple[int, ...] = (150, 100, 120)  # letters per word, by group
    fold_words: Tuple[int, ...] = (96, 64, 64)   # random words per group
    fold_box: Tuple[int, ...] = (3, 0, 2)        # box radius; z2wrf2's entry is unused
    fuzz_walks: Tuple[int, ...] = (960, 360, 480)  # one-walk fuzz runs per group
    fuzz_max_len: int = 24        # walks of every length 1..fuzz_max_len, equally many
    recheck_walks: int = 4        # fuzz walks re-checked by the benchmark
    setup_repeats: int = 5
    points: int = 16              # F evaluation points per check


TINY = Sizes(mul_n=256, mul_small=64, mul_inputs=(1, 1, 4), fold_len=(24, 24, 24),
             fold_words=(2, 2, 2), fold_box=(2, 0, 2), fuzz_walks=(3, 3, 3),
             fuzz_max_len=8, recheck_walks=2, setup_repeats=1, points=8)


def group_seed(seed: int, workload: str, group: str, j: int = 0) -> int:
    """A stable per-(workload, group, sample) seed; str hashing is salted."""
    key = f"{seed}/{workload}/{group}/{j}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little")


# ---------------------------------------------------------------------------
# inputs

@dataclass
class MulInput:
    nf: str
    elem: object  # lamp configuration, or None for F
    small_nf: str  # same shape at the plateau size


@dataclass
class Inputs:
    mul: Dict[str, List[MulInput]] = field(default_factory=dict)
    words: Dict[str, List[Tuple[str, ...]]] = field(default_factory=dict)
    identity_words: Dict[str, List[Tuple[str, ...]]] = field(default_factory=dict)
    fuzz_seeds: Dict[str, List[int]] = field(default_factory=dict)


def _z2wrz2_config(rng: random.Random, n: int) -> og.LampConfigZ2:
    # lamplighter in the last tenth, a few lamps anywhere, one lamp on the
    # last cell so the normal form has exactly n symbols
    pos = max(1, round(rng.uniform(0.9, 1.0) * n))
    lit = {max(1, round(rng.random() * n)) for _ in range(rng.randint(0, 8))}
    lit.add(n)
    return og.LampConfigZ2(frozenset(spiral.spiral_point(k) for k in lit),
                           spiral.spiral_point(pos))


_F2_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


def _reduced_word(rng: random.Random, length: int, after: str = "") -> str:
    w = after
    for _ in range(length):
        w += rng.choice([c for c in "aAbB" if not w or _F2_INVERSE[w[-1]] != c])
    return w[len(after):]


def _z2wrf2_config(rng: random.Random, n: int) -> og.LampConfigF2:
    # the lamplighter sits under a^4, right of almost every lamp, so every
    # program scans nearly the whole string at every size; lamps are random
    # reduced words of length 1..12 drawn from one stream, so the inputs at
    # two sizes share their first lamps and their shape
    head = "aaaa"
    pos = head + _reduced_word(rng, rng.randint(0, 8), after=head)
    stream = random.Random(rng.random())
    lamps: List[str] = []

    def config(m: int) -> og.LampConfigF2:
        while len(lamps) < m:
            lamps.append(_reduced_word(stream, stream.randint(1, 12)))
        return og.LampConfigF2(frozenset(lamps[:m]), pos)

    # about four tokens per lamp at these sizes; one proportional correction
    # lands within a few percent of n
    m = max(1, n // 4)
    m = max(1, round(m * n / len(z2wrf2.tokenize_z2f2(z2wrf2.encode(config(m))))))
    return config(m)


# Each F input of mul-large opens with one of these blocks (r_i, s_i).  The
# head decides which case of the x1 analysis the guess-and-check accepts:
# 1.2, 1.3c, 2.1c3/2.2.1 and 2.2.2a, the four that random blocks reach.
# Their x1 costs differ by 5x, so a seeded mix of cases would move the F rate
# by a third from seed to seed; one input per case keeps the mix fixed.
F_HEADS = (((0, 0), (1, 1), (1, 0)), ((0, 0), (1, 0), (0, 0)),
           ((1, 1), (1, 0), (0, 0)), ((1, 1), (1, 0), (2, 1)))


def _thompson_blocks(rng: random.Random, n: int, head=()) -> str:
    rs = [r for r, _ in head]
    ss = [s for _, s in head]
    total = sum(rs) + sum(ss) + len(rs)
    while total < n or not rs:
        rs.append(rng.choice((0, 0, 1, 1, 2, 3)))
        ss.append(rng.choice((0, 0, 0, 1, 1, 2)))
        total += rs[-1] + ss[-1] + 1
    # the normal-form conditions of thompson_f.parse
    for i in range(len(rs) - 1):
        if rs[i] > 0 and ss[i] > 0 and rs[i + 1] + ss[i + 1] == 0:
            rs[i + 1] = 1
    if rs[-1] > 0 and ss[-1] > 0:
        ss[-1] = 0
    if rs[-1] == 0 and ss[-1] == 0:
        rs[-1] = 1
    return thompson_f.serialize(thompson_f.ExpSeq(tuple(rs), tuple(ss)))


def _mul_input(group: str, seed: int, j: int, n: int, small: int) -> MulInput:
    if group == "thompson-f":
        head = F_HEADS[j % len(F_HEADS)]
        return MulInput(_thompson_blocks(random.Random(seed), n, head), None,
                        _thompson_blocks(random.Random(seed), small, head))
    make = _z2wrz2_config if group == "z2wrz2" else _z2wrf2_config
    mod = WREATH[group]
    cfg = make(random.Random(seed), n)
    return MulInput(mod.encode(cfg), cfg, mod.encode(make(random.Random(seed), small)))


def _box_walk(rng: random.Random, gens: Sequence[str], step: Dict[str, Tuple[int, int]],
              length: int, box: int) -> Tuple[str, ...]:
    # a uniform walk that redraws any letter taking its image in Z^2 (the
    # lamplighter's position, or the exponent sums of x0 and x1) out of the
    # box; it keeps the normal forms near one size, where a free walk's reach
    # and so its fold cost varies widely from word to word
    x = y = 0
    word = []
    while len(word) < length:
        g = rng.choice(gens)
        dx, dy = step.get(g, (0, 0))
        if max(abs(x + dx), abs(y + dy)) <= box:
            word.append(g)
            x, y = x + dx, y + dy
    return tuple(word)


_STEP = {"z2wrz2": {"a": (1, 0), "a-": (-1, 0), "b": (0, 1), "b-": (0, -1)},
         "thompson-f": {"x0": (1, 0), "x0-": (-1, 0), "x1": (0, 1), "x1-": (0, -1)}}


def fuzz_seeds(rng: random.Random, walks: int, max_len: int) -> List[int]:
    """Seeds for `walks` one-walk differential_fuzz runs whose walk lengths
    cycle through 1..max_len.  A check costs more the longer its walk's
    normal forms grow, so a seeded mix of lengths would move the rate from
    seed to seed; a fixed mix leaves only the walks' letters to the seed."""
    lengths = [1 + j % max_len for j in range(walks)]
    want = {n: lengths.count(n) for n in set(lengths)}
    drawn: Dict[int, List[int]] = {n: [] for n in want}
    while any(len(drawn[n]) < k for n, k in want.items()):
        s = rng.getrandbits(63)
        n = random.Random(s).randint(1, max_len)  # the fuzz's first draw, as in fuzz_walk()
        if n in want and len(drawn[n]) < want[n]:
            drawn[n].append(s)
    return [drawn[n].pop() for n in lengths]


def _fold_words(rng: random.Random, rep: fw.Representation, group: str, length: int,
                count: int, box: int) -> Tuple[List[Tuple[str, ...]], List[Tuple[str, ...]]]:
    """`count` random words, and the words that must fold to the identity."""
    if group in _STEP:
        words = [_box_walk(rng, rep.generators, _STEP[group], length, box)
                 for _ in range(count + 1)]
    else:
        words = [tuple(rng.choice(rep.generators) for _ in range(length))
                 for _ in range(count + 1)]
    half = words.pop()[: length // 2]
    ident = [half + tuple(rep.inverse[x] for x in reversed(half))]
    if group == "thompson-f":
        ident += [R1, R2]
    return words, ident


def build_inputs(workload: str, seed: int, sizes: Sizes, reps: Dict[str, fw.Representation],
                 timed: Callable[[Callable], object] = lambda make: make()) -> Inputs:
    """Draw and encode every input a run of the workload needs.  Each piece
    of the work (one mul-large input, or one group's words or seeds) is made
    through `timed`, so a run can time the pieces apart."""
    inp = Inputs()
    for gi, g in enumerate(GROUPS):
        rng = random.Random(group_seed(seed, workload, g))
        if workload == "mul-large":
            inp.mul[g] = [timed(lambda: _mul_input(g, group_seed(seed, workload, g, j), j,
                                                   sizes.mul_n, sizes.mul_small))
                          for j in range(sizes.mul_inputs[gi])]
        elif workload == "wordfold":
            inp.words[g], inp.identity_words[g] = timed(lambda: _fold_words(
                rng, reps[g], g, sizes.fold_len[gi], sizes.fold_words[gi], sizes.fold_box[gi]))
        elif workload == "certify":
            inp.fuzz_seeds[g] = timed(lambda: fuzz_seeds(rng, sizes.fuzz_walks[gi],
                                                         sizes.fuzz_max_len))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return inp


# ---------------------------------------------------------------------------
# timed rounds

@dataclass
class GroupRound:
    """One group's share of a round.  Each timed call (a multiplication, a
    fold or a differential_fuzz run) adds its duration, the calibration time
    current when it started, and the operations it did: multiplications,
    folded letters or fuzz checks."""

    calibration: Calibration
    seconds: List[float] = field(default_factory=list)
    loop_s: List[float] = field(default_factory=list)
    work: List[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)

    def timed(self, call: Callable[[], tuple]) -> Optional[tuple]:
        """Time one call; an exception counts as a failed operation."""
        self.attempted += 1
        self.loop_s.append(self.calibration.current())
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failed operation, counted and reported
            self.seconds.append(time.perf_counter() - t0)
            self.work.append(0)
            self.failed += 1
            self.outputs.append(("error", repr(exc)))
            return None
        self.seconds.append(time.perf_counter() - t0)
        return result


def _round_mul(gr: GroupRound, rep: fw.Representation, inputs: List[MulInput]) -> None:
    for mi in inputs:
        for gen in rep.generators:
            res = gr.timed(lambda: rep.apply_report(mi.nf, gen))
            if res is not None:
                out, report = res
                gr.work.append(1)
                gr.outputs.append((out, report.steps))


def _round_fold(gr: GroupRound, rep: fw.Representation, words: List[Tuple[str, ...]]) -> None:
    for word in words:
        res = gr.timed(lambda: fw.word_to_nf_report(rep, word))
        if res is not None:
            nf, steps = res
            gr.work.append(len(word))
            gr.outputs.append((nf, steps))


def _round_fuzz(gr: GroupRound, rep: fw.Representation, seeds: List[int], sizes: Sizes) -> None:
    for seed in seeds:
        report = gr.timed(lambda: fw.differential_fuzz(rep, 1, sizes.fuzz_max_len, seed))
        if report is not None:
            gr.work.append(report.checks)
            gr.attempted += report.checks - 1  # one operation per check
            gr.outputs.append((report.passed, report.checks, report.failure))


def run_round(workload: str, inp: Inputs, sizes: Sizes, reps: Dict[str, fw.Representation],
              calibration: Calibration) -> Dict[str, GroupRound]:
    """One round: the same calls on all three groups, in turn."""
    out = {}
    for g in GROUPS:
        gr = out[g] = GroupRound(calibration)
        if workload == "mul-large":
            _round_mul(gr, reps[g], inp.mul[g])
        elif workload == "wordfold":
            _round_fold(gr, reps[g], inp.words[g] + inp.identity_words[g])
        else:
            _round_fuzz(gr, reps[g], inp.fuzz_seeds[g], sizes)
    return out


# ---------------------------------------------------------------------------
# checks

def plateau_problems(group: str, gens: Sequence[str], large: Sequence[Tuple[str, int, int]],
                     small: Sequence[Tuple[str, int, int]]) -> List[str]:
    """Linear plateau: per generator, the worst steps per input symbol at the
    large size is at most PLATEAU_FACTOR times the worst at the small size.
    Rows are (gen, steps, input_len) over inputs of the same shape."""
    problems = []
    for gen in gens:
        hi = max((s / max(1, n) for g, s, n in large if g == gen), default=None)
        lo = max((s / max(1, n) for g, s, n in small if g == gen), default=None)
        if hi is None or lo is None:
            continue
        if hi > PLATEAU_FACTOR * lo:
            problems.append(f"{group} {gen}: {hi:.3f} steps/symbol at the large size, "
                            f"{lo:.3f} at the small size")
    return problems


def _f_points(seed: int, depth: int, sizes: Sizes) -> List[Fraction]:
    spread = sizes.points // 3
    return fpoints.sample_points(random.Random(seed), depth, spread, sizes.points - spread)


def _check_mul(g: str, rep: fw.Representation, mi: MulInput, gen: str, out: str,
               points: List[Fraction]) -> Optional[str]:
    where = f"{g} {gen} on a {len(mi.nf)}-character input"
    if not rep.validate(out):
        return f"{where}: output does not validate"
    if rep.apply(out, rep.inverse[gen]) != mi.nf:
        return f"{where}: the inverse generator does not return the input"
    if g in WREATH:
        if WREATH[g].decode(out) != og.wreath_mul_gen(mi.elem, gen):
            return f"{where}: decoded output differs from the oracle product"
    else:
        got = fpoints.eval_nf_at(out, points)
        want = fpoints.eval_nf_at(mi.nf, [fpoints.eval_word((gen,), x) for x in points])
        for x, y, z in zip(points, got, want):
            if y != z:
                return f"{where}: output disagrees with the point evaluator at {x}"
    return None


def _check_fold(g: str, rep: fw.Representation, word: Tuple[str, ...], nf: str,
                identity: bool, points: List[Fraction]) -> Optional[str]:
    where = f"{g} fold of {len(word)} letters"
    if identity:
        return None if nf == rep.identity_nf else f"{where}: w.w^-1 or a relator gave {nf!r}"
    if not rep.validate(nf):
        return f"{where}: output does not validate"
    if g in WREATH:
        elem = rep.oracle_identity
        for gen in word:
            elem = og.wreath_mul_gen(elem, gen)
        if WREATH[g].decode(nf) != elem:
            return f"{where}: decoded output differs from the oracle product"
    else:
        for x, y in zip(points, fpoints.eval_nf_at(nf, points)):
            if y != fpoints.eval_word(word, x):
                return f"{where}: output disagrees with the point evaluator at {x}"
    return None


def fuzz_walk(rep: fw.Representation, seed: int, max_len: int) -> List[str]:
    """The walk framework.differential_fuzz(rep, 1, max_len, seed) draws."""
    rng = random.Random(seed)
    return [rng.choice(rep.generators) for _ in range(rng.randint(1, max_len))]


def _recheck_walk(g: str, rep: fw.Representation, word: List[str],
                  points: List[Fraction]) -> Optional[str]:
    nf = rep.identity_nf
    elem = rep.oracle_identity
    for k, gen in enumerate(word):
        out = rep.apply(nf, gen)
        where = f"{g} walk {word[:k + 1]}"
        if not rep.validate(out):
            return f"{where}: output does not validate"
        if rep.apply(out, rep.inverse[gen]) != nf:
            return f"{where}: the inverse generator does not return the input"
        if g in WREATH:
            elem = og.wreath_mul_gen(elem, gen)
            if WREATH[g].decode(out) != elem:
                return f"{where}: decoded output differs from the oracle product"
        else:
            elem = og.pl_mul_gen(elem, gen)
            for x in points:
                n, e = elem(og.dy(x.numerator, x.denominator.bit_length() - 1))
                want = Fraction(n, 1 << e) if e >= 0 else Fraction(n << -e)
                if fpoints.eval_nf(out, x) != want:
                    return f"{where}: output disagrees with the oracle map at {x}"
        nf = out
    return None


def _guarded(check: Callable[[], Optional[str]]) -> Optional[str]:
    try:
        return check()
    except Exception as exc:  # a check that raises is a problem found, not a crash
        return f"check raised {exc!r}"


def verify(workload: str, seed: int, inp: Inputs, first: Dict[str, GroupRound],
           sizes: Sizes, reps: Dict[str, fw.Representation]) -> List[str]:
    """Every problem found in the outputs of a round; empty when all hold."""
    problems: List[str] = []
    for g in GROUPS:
        rep = reps[g]
        outs = first[g].outputs
        if workload == "mul-large":
            large, small = [], []
            rows = iter(outs)
            for j, mi in enumerate(inp.mul[g]):
                pts = _f_points(group_seed(seed, "points", g, j), mi.nf.count("#") + 2,
                                sizes) if g == "thompson-f" else []
                n_large, n_small = _symbols(g, mi.nf), _symbols(g, mi.small_nf)
                for gen in rep.generators:
                    out, steps = next(rows)
                    if out == "error":
                        continue
                    large.append((gen, steps, n_large))
                    try:
                        small.append((gen, rep.apply_report(mi.small_nf, gen)[1].steps, n_small))
                    except Exception as exc:  # reported as a problem found
                        problems.append(f"{g} {gen} on the plateau input raised {exc!r}")
                    problems.append(_guarded(lambda: _check_mul(g, rep, mi, gen, out, pts)))
            problems += plateau_problems(g, rep.generators, large, small)
        elif workload == "wordfold":
            words = inp.words[g] + inp.identity_words[g]
            pts = _f_points(group_seed(seed, "points", g), max(sizes.fold_len) + 2,
                            sizes) if g == "thompson-f" else []
            for k, (word, row) in enumerate(zip(words, outs)):
                if row[0] != "error":
                    identity = k >= len(inp.words[g])
                    problems.append(_guarded(
                        lambda: _check_fold(g, rep, word, row[0], identity, pts)))
        else:
            for row in outs:
                if row[0] is False:
                    problems.append(f"{g}: differential_fuzz failed: {row[2]}")
            pts = _f_points(group_seed(seed, "points", g), sizes.fuzz_max_len + 2,
                            sizes) if g == "thompson-f" else []
            for s in inp.fuzz_seeds[g][: sizes.recheck_walks]:
                word = fuzz_walk(rep, s, sizes.fuzz_max_len)
                problems.append(_guarded(lambda: _recheck_walk(g, rep, word, pts)))
    return [p for p in problems if p]


def _symbols(group: str, nf: str) -> int:
    """Tape symbols of a normal form, counted apart from the program."""
    if group == "z2wrz2":
        return len(nf) - nf.count("C")
    if group == "z2wrf2":
        return len(z2wrf2.tokenize_z2f2(nf))
    return len(nf)


# ---------------------------------------------------------------------------
# one run

@dataclass
class RunResult:
    workload: str
    import_s: List[float]
    import_loop_s: List[float]
    build_s: List[float]       # each input build, in measured seconds
    build_ref_s: List[float]   # the same, in reference seconds
    build_loop_s: List[float]  # the calibration times the builds were scaled by
    rounds: List[Dict[str, GroupRound]]
    problems: List[str]
    peak_rss_mib: float
    calibration: Calibration

    @property
    def setup_s(self) -> float:
        """The median import plus the median input build, in reference
        seconds; import_loop_s holds the calibration time of each import."""
        imports = [t / c * REF_S for t, c in zip(self.import_s, self.import_loop_s)]
        return statistics.median(imports or [0.0]) + statistics.median(self.build_ref_s)

    def _rate(self, group: str, scaled: bool) -> float:
        # every round makes the same calls: take each call's median duration
        # over the rounds, so a burst of load moves single calls, not the sum
        per_call = [statistics.median(times) for times in zip(*(
            [t / c * REF_S for t, c in zip(r[group].seconds, r[group].loop_s)]
            if scaled else r[group].seconds for r in self.rounds))]
        return sum(self.rounds[0][group].work) / sum(per_call)

    def rate(self, group: str) -> float:
        """Operations per reference second of one group."""
        return self._rate(group, scaled=True)

    def raw_rate(self, group: str) -> float:
        """Operations per measured second of one group."""
        return self._rate(group, scaled=False)

    @property
    def attempted(self) -> int:
        return sum(r[g].attempted for r in self.rounds for g in GROUPS)

    @property
    def failed(self) -> int:
        return sum(r[g].failed for r in self.rounds for g in GROUPS)


def run(workload: str, seed: int, seconds: float, sizes: Sizes,
        reps: Dict[str, fw.Representation], import_s: Sequence[float] = (),
        import_loop_s: Sequence[float] = (),
        phase: Callable[[str], None] = lambda name: None) -> RunResult:
    """Set up `sizes.setup_repeats` times, run whole rounds for `seconds`,
    then check the outputs of the first round."""
    pieces: List[List[Tuple[float, float]]] = []

    def timed_piece(make: Callable):
        # a build lasts about a second, longer than the machine keeps one
        # speed, so each piece of it is scaled by the mean of calibration
        # times taken just before and just after it
        before = calibration_loop()
        t0 = time.perf_counter()
        made = make()
        spent = time.perf_counter() - t0
        pieces[-1].append((spent, (before + calibration_loop()) / 2))
        return made

    phase("setup")
    for _ in range(sizes.setup_repeats):
        pieces.append([])
        inp = build_inputs(workload, seed, sizes, reps, timed_piece)
    phase("timed")
    calibration = Calibration()
    rounds: List[Dict[str, GroupRound]] = []
    problems: List[str] = []
    t_start = time.perf_counter()
    while not rounds or time.perf_counter() - t_start < seconds:
        r = run_round(workload, inp, sizes, reps, calibration)
        if rounds:  # later rounds must repeat the first; keep only its outputs
            for g in GROUPS:
                if r[g].outputs != rounds[0][g].outputs:
                    problems.append(f"{g}: round {len(rounds)} differs from round 0")
                r[g].outputs = []
        rounds.append(r)
    phase("verify")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += verify(workload, seed, inp, rounds[0], sizes, reps)
    return RunResult(workload, list(import_s), list(import_loop_s),
                     [sum(t for t, _ in b) for b in pieces],
                     [sum(t / c * REF_S for t, c in b) for b in pieces],
                     [c for b in pieces for _, c in b], rounds, problems, rss, calibration)
