import importlib
import json
import os
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tapegroups
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


def _text_fold(rep, word):
    """word_to_nf_report as a loop of text apply_report calls, which encodes
    and renders at every letter: the reference for the fold in codes."""
    nf, steps = rep.identity_nf, 0
    for gen in word:
        nf, report = rep.apply_report(nf, gen)
        steps += report.steps
    return nf, steps


@pytest.mark.parametrize("group", fw.REPRESENTATIONS)
def test_fold_in_codes_matches_the_text_loop(group):
    rep = fw.REPRESENTATIONS[group]()
    rng = random.Random(9)
    words = [[]] + [[rng.choice(rep.generators) for _ in range(rng.randint(1, 60))]
                    for _ in range(40)]
    for word in words:
        assert fw.word_to_nf_report(rep, word) == _text_fold(rep, word), word
    assert fw.word_to_nf_report(rep, []) == (rep.identity_nf, 0)


@pytest.mark.parametrize("group", fw.REPRESENTATIONS)
def test_fold_runs_every_letter_through_a_planted_apply(group):
    rep = fw.REPRESENTATIONS[group]()
    gen = rep.generators[0]
    seen = []

    def planted(nf, g):  # gen answered with its inverse's product
        seen.append(nf)
        return rep.apply_report(nf, rep.inverse[gen] if g == gen else g)
    word = [gen, rep.generators[-1], gen]
    assert fw.word_to_nf(rep.with_apply(planted), word) != fw.word_to_nf(rep, word)
    assert len(seen) == 3 and all(isinstance(nf, bytes) for nf in seen)

    def one_more_step(nf, g):
        out, report = rep.apply_report(nf, g)
        return out, report._replace(steps=report.steps + 1)
    nf, steps = fw.word_to_nf_report(rep, word)
    assert fw.word_to_nf_report(rep.with_apply(one_more_step), word) == (nf, steps + 3)


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


def _text_fuzz(rep, trials, max_len, seed):
    """differential_fuzz as a loop of text apply_report calls, which encodes
    and renders at every check: the reference for the fuzz in codes."""
    rng = random.Random(seed)
    checks, per_gen, coverage, failure = 0, {g: 0 for g in rep.generators}, {}, None

    def apply(nf, gen):
        out, report = rep.apply_report(nf, gen)
        for case in report.cases:
            coverage[case] = coverage.get(case, 0) + 1
        return out

    for trial in range(trials):
        nf, elem, word = rep.identity_nf, rep.oracle_identity, []
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
    return fw.FuzzReport(rep.group_id, trials, checks, per_gen, failure, coverage)


@pytest.mark.parametrize("group", fw.REPRESENTATIONS)
def test_fuzz_in_codes_gives_the_text_fuzz_report(group):
    # on seeded passing runs, and on failing runs where each generator is
    # answered with the next one's product
    rep = fw.REPRESENTATIONS[group]()
    gens = rep.generators
    reps = [rep]
    for target, wrong in zip(gens, gens[1:] + gens[:1]):
        def planted(nf, gen, target=target, wrong=wrong):
            return rep.apply_report(nf, wrong if gen == target else gen)
        reps.append(rep.with_apply(planted))
    for seed in (1, 2, 3):
        for r in reps:
            report = fw.differential_fuzz(r, 8, 30, seed)
            assert fw.report_json(report) == fw.report_json(_text_fuzz(r, 8, 30, seed))
    assert fw.differential_fuzz(rep, 8, 30, 1).passed
    assert not any(fw.differential_fuzz(r, 8, 30, 1).passed for r in reps[1:])


@pytest.mark.parametrize("group", fw.REPRESENTATIONS)
def test_fuzz_and_bench_hand_apply_report_only_codes(group):
    rep = fw.REPRESENTATIONS[group]()
    seen = []

    def recording(nf, gen):
        seen.append(nf)
        return rep.apply_report(nf, gen)
    recorder = rep.with_apply(recording)
    assert fw.differential_fuzz(recorder, 4, 12, 1).passed
    fw.linearity_bench(recorder, rep.generators[0], [16, 32], 2, seed=1)
    assert len(seen) > 8 and all(isinstance(nf, bytes) for nf in seen)


def test_fuzz_catches_planted_case_deletion(f_case_deleted):
    rep = fw.representation_thompson_f()

    def shielded(nf, gen):
        try:
            return f_case_deleted(nf, gen)
        except NoCaseMatched:
            return nf + b"###", StepReport(len(nf), 1, gen, rep.group_id)
    report = fw.differential_fuzz(rep.with_apply(shielded), 200, 40, 11)
    assert not report.passed
    assert report.failure["kind"] == "psi-commutation"
    word = report.failure["word"]  # a concrete witness prefix
    assert len(word) == 37 and word[-4:] == ["x0", "x1-", "x0", "x1-"]


# per group: the generator planted to output a non-normal form, that output
# as text (the plant returns its codes), and the word and normal form the
# failure names
CLOSURE_PLANTS = (
    # B0B0 has two identity anchors
    (fw.representation_z2wrf2, "c", "B0B0", ["b-", "a", "b", "c"], "([E0(D0 C0)]D0A)"),
    # ab ends in a block with both signs
    (fw.representation_thompson_f, "x0", "ab", ["x1-", "x0"], "#b"),
)


def test_fuzz_reports_a_closure_failure():
    for representation, planted, got, word, nf in CLOSURE_PLANTS:
        rep = representation()

        def escapes(nf, gen):
            out, report = rep.apply_report(nf, gen)
            return (rep.codes(got) if gen == planted else out), report

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


# per group and seed: the token counts behind the probe's ratios at walk
# lengths 30 and 120, as the probe gave them when it walked in text
PROBE_LENGTHS = {("z2wrz2", 5): (70, 670), ("z2wrz2", 6): (153, 339),
                 ("z2wrf2", 5): (32, 140), ("z2wrf2", 6): (35, 141),
                 ("thompson-f", 5): (24, 69), ("thompson-f", 6): (18, 78)}


@pytest.mark.parametrize("group,seed", PROBE_LENGTHS)
def test_probe_in_codes_gives_the_text_probe_report(group, seed):
    at30, at120 = PROBE_LENGTHS[group, seed]
    at = {30: at30 / 31, 120: at120 / 121}
    report = fw.quasigeodesic_probe(fw.REPRESENTATIONS[group](), trials=3, max_walk=120,
                                    seed=seed, checkpoints=(30, 120))
    assert report == fw.ProbeReport(group, 3, 120, at, max(at.values()))


def test_probe_walks_in_codes():
    rep = fw.representation_z2wrf2()
    seen = []

    def recording(nf, gen):
        seen.append(nf)
        return rep.apply_report(nf, gen)
    fw.quasigeodesic_probe(rep.with_apply(recording), trials=2, max_walk=8, seed=1)
    assert len(seen) == 16 and all(isinstance(nf, bytes) for nf in seen)


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
            n = len(rep.codes(nf))
            assert n >= target * 0.6, (rep.group_id, target, n)


# three fresh imports of the package, as a benchmark that re-imports it
# makes, then the module dicts of the package that are still alive
FRESH_IMPORTS = """
import collections, gc, importlib, json, sys
for _ in range(3):
    for name in [m for m in sys.modules if m.split(".")[0] == "tapegroups"]:
        del sys.modules[name]
    importlib.import_module("tapegroups.framework")
gc.collect()
print(json.dumps(collections.Counter(
    o["__name__"] for o in gc.get_objects() if isinstance(o, dict) and "__spec__" in o
    and str(o["__name__"]).split(".")[0] == "tapegroups")))
"""


def test_fresh_imports_leave_one_copy_of_each_module():
    # in a subprocess: other tests here hold the classes of this import
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", FRESH_IMPORTS], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    live = json.loads(proc.stdout)
    assert "tapegroups.z2wrf2" in live
    assert {name: 1 for name in live} == live


def test_no_module_global_is_a_mutable_container():
    # tables are bytes, tuples or dicts built once at import; no loop name
    # leaks into a module's globals
    found = [(info.name, name) for info in pkgutil.iter_modules(tapegroups.__path__)
             for name, value in vars(importlib.import_module(f"tapegroups.{info.name}")).items()
             if isinstance(value, (bytearray, list, set))]
    assert found == []
