"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
The sample sizes follow the stated criteria; random sampling is seeded, so
every run checks the same corpus.
"""

import dataclasses
import hashlib
import random
import time

from tapegroups import framework as fw
from tapegroups import spiral, thompson_f, z2wrf2
from tapegroups.errors import NoCaseMatched, NotInLanguage
from tapegroups.tapevm import StepReport

SIZES = (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)
WALK_LENGTHS = (6, 12, 25, 50, 100)
WALK_WEIGHTS = (0.30, 0.30, 0.20, 0.15, 0.05)

FIG3_ITERATIONS = [
    "11D0AD01",
    "11(1E0D0AE0)(E0D0E1)1",
    "11(1[1E01]D0A[E0D1])([1E0]D0[1E1])1",
    "11(1[1E01]D0A[E0(C1D1)])([1E0]D0[1E1])1",
]

R1 = ["x1", "x0-", "x0-", "x1-", "x0", "x0", "x1-", "x0-", "x1", "x0"]
R2 = ["x1", "x0-", "x0-", "x0-", "x1-", "x0", "x0", "x0",
      "x1-", "x0-", "x0-", "x1", "x0", "x0"]

# sha256 of every sample criteria 2 and 3 draw, in order, each followed by a
# newline: a change to a sampler must keep its samples byte-identical
SAMPLES_SHA256 = {
    "z2wrz2": "377bd317d2a863bee07159bb0eec83ed4d8fb938fad9c17e562696205f7cb067",
    "z2wrf2": "80857ac8e42658d6a74221fafc42a2941673d00d85cdc718c750a3c5689ed00b",
}


def _verdict(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def _hashing_samples(rep, digest):
    """rep with a sample_nf that feeds every sample it draws to digest."""
    def sample_nf(rng, n):
        nf = rep.sample_nf(rng, n)
        digest.update(nf.encode() + b"\n")
        return nf
    return dataclasses.replace(rep, sample_nf=sample_nf)


def _walk_corpus(rep, per_gen: int, seed: int):
    """Seeded random walks until every generator has per_gen checked samples.

    Each step checks closure (decode raises NotInLanguage on a non-member),
    psi-commutation against the oracle, and the inverse-pair cancellation
    (criteria 1 and 7 share the corpus).
    """
    rng = random.Random(seed)
    tally = {g: 0 for g in rep.generators}
    failures = []
    while min(tally.values()) < per_gen and not failures:
        nf = rep.identity_nf
        elem = rep.oracle_identity
        word = []
        length = rng.choices(WALK_LENGTHS, WALK_WEIGHTS)[0]
        for _ in range(length):
            gen = rng.choice(rep.generators)
            word.append(gen)
            out = rep.apply(nf, gen)
            elem = rep.oracle_mul(elem, gen)
            tally[gen] += 1
            try:
                decoded = rep.decode(out)
            except NotInLanguage:  # decode is the closure check
                failures.append(("closure", word, nf, gen, out))
                break
            if decoded != elem:
                failures.append(("psi", word, nf, gen, out))
                break
            if rep.apply(out, rep.inverse[gen]) != nf:
                failures.append(("inverse", word, nf, gen, out))
                break
            nf = out
    return tally, failures


def test_criterion_1_and_7_psi_commutation_and_bijectivity():
    t0 = time.time()
    summaries = []
    for make, seed in ((fw.representation_z2wrz2, 101),
                       (fw.representation_z2wrf2, 102),
                       (fw.representation_thompson_f, 103)):
        rep = make()
        tally, failures = _walk_corpus(rep, per_gen=10_000, seed=seed)
        assert not failures, failures[:1]
        summaries.append(f"{rep.group_id}:{sum(tally.values())}")
    took = time.time() - t0
    _verdict(1, True, "psi-commutation, zero failures on 10^4 samples per "
                      f"generator ({', '.join(summaries)}; {took:.0f}s)")
    _verdict(7, True, "inverse pairs cancel and every output validates on the "
                      "same corpus")


def test_criterion_2_z2wrz2_linear_and_jumps():
    samples = hashlib.sha256()
    rep = _hashing_samples(fw.representation_z2wrz2(), samples)
    verdicts = {}
    for gen in rep.generators:
        report = fw.linearity_bench(rep, gen, SIZES, samples_per_size=6, seed=11)
        verdicts[gen] = report.verdict
    assert all(verdicts.values()), verdicts
    assert samples.hexdigest() == SAMPLES_SHA256[rep.group_id]

    # jumps from k near 1e5 land up to ~8*turns+15 further along: keep margin
    walk = list(spiral.walk(103_000))
    index = {p: k for k, p in enumerate(walk, start=1)}
    mism = 0
    for k in range(1, 100_001):
        p = walk[k - 1]
        for d, (dx, dy) in spiral.DIRS.items():
            if spiral.neighbor_index(k, d) != index[(p[0] + dx, p[1] + dy)]:
                mism += 1
    _verdict(2, mism == 0, "Z2 wr Z2: linear verdict for all 5 generators over "
                           f"2^6..2^14; jump formulas exact on k<=10^5 ({mism} mismatches)")


def test_criterion_3_z2wrf2_linear_and_fig3():
    samples = hashlib.sha256()
    rep = _hashing_samples(fw.representation_z2wrf2(), samples)
    for gen in rep.generators:
        report = fw.linearity_bench(rep, gen, SIZES, samples_per_size=6, seed=12)
        assert report.verdict, (gen, report.to_json())
    assert samples.hexdigest() == SAMPLES_SHA256[rep.group_id]
    cfg = z2wrf2.decode(FIG3_ITERATIONS[-1])
    replay = z2wrf2.encode_iterations(cfg)
    _verdict(3, replay == FIG3_ITERATIONS,
             "Z2 wr F2: linear verdict for all 5 generators; the four "
             "construction iterations replay byte-exact")


def test_criterion_4_thompson_linear_coverage_relators():
    rep = fw.representation_thompson_f()
    for gen in rep.generators:
        report = fw.linearity_bench(rep, gen, SIZES, samples_per_size=6, seed=13)
        assert report.verdict, (gen, report.to_json())
    fuzz = fw.differential_fuzz(rep, trials=220, max_len=40, seed=14)
    assert fuzz.passed, fuzz.failure
    thin = {c: fuzz.case_coverage.get(c, 0) for c in thompson_f.CASE_LABELS
            if fuzz.case_coverage.get(c, 0) < 10}
    assert not thin, thin
    ok = fw.word_problem(rep, R1) and fw.word_problem(rep, R2)
    _verdict(4, ok, "Thompson F: linear verdict for x0/x1 both signs; every "
                    "case branch fired >= 10 times; both relators normalize "
                    "to the identity")


def test_criterion_5_quadratic_normal_form():
    sizes = (32, 64, 128, 256, 512, 1024, 2048)
    msgs = []
    for make, seed in ((fw.representation_z2wrf2, 21),
                       (fw.representation_thompson_f, 22)):
        rep = make()
        rng = random.Random(seed)
        ratios = []
        for n in sizes:
            word = [rng.choice(rep.generators) for _ in range(n)]
            _nf, steps = fw.word_to_nf_report(rep, word)
            ratios.append(steps / (n * n))
        for a, b in zip(ratios[2:], ratios[3:]):  # beyond n = 2^7
            assert b <= 1.25 * a, (rep.group_id, sizes, ratios)
        msgs.append(f"{rep.group_id} ratio at 2^11: {ratios[-1]:.2f}")
    _verdict(5, True, "word-to-normal-form steps fit C*n^2 with non-increasing "
                      f"ratio beyond 2^7 ({'; '.join(msgs)})")


def test_criterion_6_quasigeodesic_probes():
    msgs = []
    for make in (fw.representation_z2wrf2, fw.representation_thompson_f):
        rep = make()
        report = fw.quasigeodesic_probe(rep, trials=6, max_walk=2000, seed=31,
                                        checkpoints=(500, 2000))
        assert report.at[2000] <= 1.25 * report.at[500], report.to_json()
        msgs.append(f"{rep.group_id}: {report.at[500]:.2f}->{report.at[2000]:.2f}")
    ratios = dict(fw.nonqg_diagonal_ratios([10, 100]))
    assert ratios[100] > 5 * ratios[10], ratios
    _verdict(6, True, f"probe plateaus ({'; '.join(msgs)}); spiral form "
                      f"diverges on the diagonal family "
                      f"({ratios[10]:.1f} -> {ratios[100]:.1f})")


def test_criterion_8_harness_self_test(f_case_deleted):
    rep = fw.representation_z2wrz2()

    def quadratic(nf, gen):
        out, report = rep.apply_report(nf, gen)
        n = report.input_len
        return out, StepReport(n, report.steps + (n * n) // 8, gen, rep.group_id)

    bench = fw.linearity_bench(rep.with_apply(quadratic), "a",
                               (32, 64, 128, 256, 512, 1024), 3, seed=41)
    assert not bench.verdict

    repf = fw.representation_thompson_f()

    def shielded(nf, gen):
        try:
            return f_case_deleted(nf, gen)
        except NoCaseMatched:
            return nf + b"###", StepReport(len(nf), 1, gen, repf.group_id)
    fuzz = fw.differential_fuzz(repf.with_apply(shielded), 400, 40, seed=42)
    assert not fuzz.passed and fuzz.failure["kind"] == "psi-commutation"
    assert fuzz.failure["word"][-4:] == ["x0", "x0", "x0-", "x1-"]
    _verdict(8, True, "planted quadratic mutant flagged by the bench; planted "
                      "case deletion caught by fuzzing with witness word "
                      f"{' '.join(fuzz.failure['word'][-4:])!r}")
