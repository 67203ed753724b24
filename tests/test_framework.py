import json
import random

import pytest

from tapegroups import framework as fw
from tapegroups.errors import BadWord, NoCaseMatched, NotInLanguage
from tapegroups.tapevm import StepReport

R1 = ["x1", "x0-", "x0-", "x1-", "x0", "x0", "x1-", "x0-", "x1", "x0"]
R2 = ["x1", "x0-", "x0-", "x0-", "x1-", "x0", "x0", "x0",
      "x1-", "x0-", "x0-", "x1", "x0", "x0"]


def test_word_to_nf_examples():
    assert fw.word_to_nf(fw.representation_z2wrz2(), []) == "C0"
    assert fw.word_to_nf(fw.representation_thompson_f(), ["x0-", "x1-"]) == "b##b"
    assert fw.word_to_nf(fw.representation_z2wrf2(), ["a", "a-"]) == "B0"


def test_word_to_nf_rejects_bad_letters():
    with pytest.raises(BadWord):
        fw.word_to_nf(fw.representation_z2wrz2(), ["x0"])


# per group: a normal form and a generator, and the message that a text
# holding a tape marker or a symbol with no tape code raises
MEMBER = {"z2wrz2": ("C0", "c"), "z2wrf2": ("B0", "c"), "thompson-f": ("a", "x0")}
NON_MEMBER = {"z2wrz2": "unknown symbol {!r} at position 0",
              "z2wrf2": "unknown symbol {!r} at position 0",
              "thompson-f": "{!r} is not a normal form"}


@pytest.mark.parametrize("group", fw.REPRESENTATIONS)
def test_step_report_names_the_group_id(group):
    rep = fw.REPRESENTATIONS[group]()
    _, report = rep.apply_report(*MEMBER[group])
    assert report.group == group == rep.group_id


@pytest.mark.parametrize("group", fw.REPRESENTATIONS)
def test_unknown_generator_raises_bad_word(group):
    rep = fw.REPRESENTATIONS[group]()
    for gen in ("x0", "x2", "a", "d", ""):
        if gen not in rep.generators:
            with pytest.raises(BadWord) as err:
                rep.apply_report(MEMBER[group][0], gen)
            assert str(err.value) == f"unknown generator {gen!r} for {group}"
    # the generator is checked before the input is read
    with pytest.raises(BadWord):
        rep.apply_report("?", "x9")


@pytest.mark.parametrize("group", fw.REPRESENTATIONS)
def test_tape_marker_and_nul_raise_not_in_language(group):
    rep = fw.REPRESENTATIONS[group]()
    for text in ("⊞", "\0"):
        for gen in rep.generators:
            with pytest.raises(NotInLanguage) as err:
                rep.apply_report(text, gen)
            assert str(err.value) == NON_MEMBER[group].format(text), gen


def test_word_problem_two_sided():
    Z2 = fw.representation_z2wrz2()
    F = fw.representation_thompson_f()
    assert fw.word_problem(F, R1)
    assert fw.word_problem(F, R2)
    assert fw.word_problem(Z2, ["c", "c"])
    assert not fw.word_problem(Z2, ["c", "a", "c", "a-"])
    # a planted relator insertion stays trivial; an extra generator does not
    rng = random.Random(2)
    noise = [rng.choice(F.generators) for _ in range(6)]
    inv = [F.inverse[g] for g in reversed(noise)]
    assert fw.word_problem(F, noise + R1 + inv)
    assert not fw.word_problem(F, noise + R1 + inv + ["x1"])


def test_fuzz_passes_all_groups():
    for make, trials, mlen in ((fw.representation_z2wrz2, 50, 40),
                               (fw.representation_z2wrf2, 35, 40),
                               (fw.representation_thompson_f, 35, 30)):
        rpt = make()
        report = fw.differential_fuzz(rpt, trials, mlen, 42)
        assert report.passed, report.failure
        assert report.checks > 300
        blob = json.loads(fw.report_json(report))
        assert blob["group"] == rpt.group_id and blob["passed"]


def test_fuzz_reports_thompson_coverage():
    rep = fw.representation_thompson_f()
    report = fw.differential_fuzz(rep, 60, 30, 7)
    assert report.passed and report.checks == 976
    # one count per x1^-1 run: each x1- and every candidate round trip of x1
    assert report.case_coverage == {
        "1.1": 116, "1.2": 259, "1.3a": 32, "1.3b": 84, "1.3c": 116,
        "2.1a": 228, "2.1b": 174, "2.1c1": 36, "2.1c2": 6, "2.1c3": 28,
        "2.2.1": 58, "2.2.2a": 229, "2.2.2c": 141}
    assert fw.differential_fuzz(fw.representation_z2wrz2(), 5, 10, 7).case_coverage == {}


def test_fuzz_catches_planted_case_deletion(f_case_deleted):
    rep = fw.representation_thompson_f()

    def shielded(nf, gen):
        try:
            return f_case_deleted(nf, gen)
        except NoCaseMatched:
            return nf + "###", StepReport(len(nf), 1, gen, rep.group_id)
    report = fw.differential_fuzz(rep.with_apply(shielded), 200, 40, 11)
    assert not report.passed
    assert report.failure["kind"] == "psi-commutation"
    word = report.failure["word"]  # a concrete witness prefix
    assert len(word) == 37 and word[-4:] == ["x0", "x1-", "x0", "x1-"]


# per group: the generator planted to output a non-normal form, that output,
# and the word and normal form the failure names
CLOSURE_PLANTS = (
    # B0B0 has two identity anchors
    (fw.representation_z2wrf2, "c", "B0B0", ["b-", "a", "b", "c"], "([E0(D0 C0)]D0A)"),
    # ab ends in a block with both signs
    (fw.representation_thompson_f, "x0", "ab", ["x1-", "x0"], "#b"),
)


def test_fuzz_reports_a_closure_failure():
    for representation, planted, got, word, nf in CLOSURE_PLANTS:
        rep = representation()

        def escapes(text, gen):
            out, report = rep.apply_report(text, gen)
            return (got if gen == planted else out), report

        report = fw.differential_fuzz(rep.with_apply(escapes), 5, 10, 0)
        assert not report.passed
        failure = report.failure
        assert failure["kind"] == "closure"
        assert failure["word"] == word
        assert failure["nf"] == fw.word_to_nf(rep, word[:-1]) == nf
        assert failure["gen"] == planted and failure["got"] == got


def test_bench_verdict_true_and_json_schema():
    rep = fw.representation_z2wrz2()
    report = fw.linearity_bench(rep, "b-", [64, 128, 256, 512, 1024], 3, seed=5)
    assert report.verdict
    blob = json.loads(fw.report_json(report))
    assert set(blob) == {"group", "gen", "sizes", "slope", "verdict"}
    assert [row["n"] for row in blob["sizes"]] == [64, 128, 256, 512, 1024]


def _quadratic(rep):
    """rep with n^2 / 8 steps planted on every multiplication."""
    def apply_report(nf, gen):
        out, report = rep.apply_report(nf, gen)
        n = report.input_len
        return out, StepReport(n, report.steps + (n * n) // 8, gen, rep.group_id)
    return rep.with_apply(apply_report)


def test_bench_flags_quadratic_mutant():
    rep = _quadratic(fw.representation_z2wrz2())
    report = fw.linearity_bench(rep, "a", [32, 64, 128, 256, 512], 3, seed=5)
    assert not report.verdict


def test_bench_compares_the_largest_size_with_a_smaller_one():
    # sizes in any order, repeats ignored: the largest against the lower
    # median, which for two sizes is the smaller one
    rep = fw.representation_z2wrz2()
    report = fw.linearity_bench(_quadratic(rep), "a", [512, 32, 512], 3, seed=5)
    assert [row.n for row in report.rows] == [32, 512]
    assert not report.verdict
    for sizes in ([], [64], [64, 64]):
        with pytest.raises(ValueError, match="at least two distinct sizes"):
            fw.linearity_bench(rep, "a", sizes, 1, seed=5)


def test_probe_bounded_for_quasigeodesic_groups():
    for make in (fw.representation_z2wrf2, fw.representation_thompson_f):
        rep = make()
        report = fw.quasigeodesic_probe(rep, trials=3, max_walk=240, seed=3,
                                        checkpoints=(60, 240))
        assert report.at[240] <= 1.6 * max(report.at[60], 0.5)


def test_probe_divergence_for_spiral_form():
    ratios = dict(fw.nonqg_diagonal_ratios([10, 100]))
    assert ratios[100] > 5 * ratios[10]


def test_sampler_sizes_track_targets():
    rng = random.Random(1)
    for make in (fw.representation_z2wrz2, fw.representation_z2wrf2,
                 fw.representation_thompson_f):
        rep = make()
        for target in (64, 512):
            nf = rep.sample_nf(rng, target)
            assert rep.validate(nf)
            n = fw._nf_len(rep, nf)
            assert n >= target * 0.6, (rep.group_id, target, n)
