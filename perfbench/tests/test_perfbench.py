"""The benchmark's own tests: the point evaluator, a smoke run of every
workload at tiny sizes, and planted faults that the checks must catch.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import fpoints
import layers
import workloads as wl
from tapegroups import framework as fw
from tapegroups import oracle_groups as og
from tapegroups.tapevm import StepReport

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _reps():
    return {g: fw.REPRESENTATIONS[g]() for g in wl.GROUPS}


def _as_fraction(d):
    n, e = d
    return Fraction(n, 1 << e) if e >= 0 else Fraction(n << -e)


def test_point_evaluator_matches_oracle_map():
    F = fw.representation_thompson_f()
    rng = random.Random(4)
    for _ in range(60):
        word = [rng.choice(F.generators) for _ in range(rng.randint(0, 24))]
        nf = fw.word_to_nf(F, word)
        pl = og.pl_eval_normalform(nf)
        for x in fpoints.sample_points(rng, nf.count("#") + 3):
            want = _as_fraction(pl(og.dy(x.numerator, x.denominator.bit_length() - 1)))
            assert fpoints.eval_nf(nf, x) == want
            assert fpoints.eval_word(word, x) == want


def test_point_evaluator_letters_are_the_generator_maps():
    for index in range(4):
        for sign in (+1, -1):
            pl = og.pl_letter(index, sign)
            for k in range(0, 257):
                x = Fraction(k, 256)
                want = _as_fraction(pl(og.dy(k, 8)))
                assert fpoints.apply_letter(x, index, sign) == want


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_run_passes_every_check(workload):
    reps = _reps()
    result = wl.run(workload, 3, 0.0, wl.TINY, reps)
    assert result.problems == []
    assert result.attempted > 0 and result.failed == 0
    assert all(result.rate(g) > 0 for g in wl.GROUPS)


def test_rounds_repeat_their_steps_exactly():
    reps = _reps()
    sizes = replace(wl.TINY, fold_words=(1, 1, 1))
    first = wl.run("wordfold", 5, 0.0, sizes, reps).rounds[0]
    again = wl.run_round("wordfold", wl.build_inputs("wordfold", 5, sizes, reps), sizes, reps,
                         wl.Calibration())
    for g in wl.GROUPS:
        # each output row is (normal form, model steps)
        assert all(steps > 0 for _nf, steps in first[g].outputs)
        assert first[g].outputs == again[g].outputs


def _planted(rep, wrong_gen):
    """apply_report that answers one generator with another's product."""
    def apply_report(nf, gen):
        return rep.apply_report(nf, wrong_gen if gen == rep.generators[0] else gen)
    return rep.with_apply(apply_report)


@pytest.mark.parametrize("group,wrong", [("z2wrz2", "b"), ("z2wrf2", "c"),
                                         ("thompson-f", "x1")])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_wrong_output_is_caught(workload, group, wrong):
    reps = _reps()
    reps[group] = _planted(reps[group], wrong)
    result = wl.run(workload, 3, 0.0, wl.TINY, reps)
    assert any(p.startswith(group) for p in result.problems), result.problems


def test_point_check_catches_a_valid_but_wrong_normal_form():
    reps = _reps()
    F = reps["thompson-f"]
    word = ("x0", "x1", "x1", "x0-")
    pts = fpoints.sample_points(random.Random(1), 8)
    right = fw.word_to_nf(F, word)
    wrong = fw.word_to_nf(F, word + ("x1",))
    assert wl._check_fold("thompson-f", F, word, right, False, pts) is None
    assert "point evaluator" in wl._check_fold("thompson-f", F, word, wrong, False, pts)


def test_deepest_points_catch_an_error_in_the_last_block():
    F = fw.representation_thompson_f()
    nf = wl._thompson_blocks(random.Random(2), 1 << 12)
    wrong = nf + ("a" if nf.endswith("a") else "b")  # one more letter in the last block
    assert F.validate(wrong)
    blocks = nf.count("#") + 1
    deepest = fpoints.sample_points(random.Random(1), blocks + 1, spread=0, near_one=2)
    assert len(deepest) == 2
    assert any(fpoints.eval_nf(nf, x) != fpoints.eval_nf(wrong, x) for x in deepest)


def test_fuzz_seeds_give_every_walk_length_equally_often():
    F = fw.representation_thompson_f()
    seeds = wl.fuzz_seeds(random.Random(7), 48, 24)
    assert [len(wl.fuzz_walk(F, s, 24)) for s in seeds] == [1 + j % 24 for j in range(48)]
    report = fw.differential_fuzz(F, 1, 24, seeds[23])
    assert report.passed and report.checks == 24


def test_quadratic_step_count_fails_the_plateau():
    reps = _reps()
    rep = reps["z2wrz2"]

    def quadratic(nf, gen):
        out, report = rep.apply_report(nf, gen)
        return out, StepReport(report.input_len, report.input_len ** 2, gen, "z2wrz2")

    reps["z2wrz2"] = rep.with_apply(quadratic)
    result = wl.run("mul-large", 3, 0.0, wl.TINY, reps)
    assert any("steps/symbol" in p for p in result.problems), result.problems
    linear = [("a", 3 * n, n) for n in (64, 256)]
    assert wl.plateau_problems("z2wrz2", ["a"], linear[1:], linear[:1]) == []
    square = [("a", n * n, n) for n in (64, 256)]
    assert wl.plateau_problems("z2wrz2", ["a"], square[1:], square[:1])


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_run_yields_every_per_layer_metric(workload):
    tracer = layers.Tracer()
    tracer.install()
    try:
        reps = _reps()
        result = wl.run(workload, 3, 0.0, wl.TINY, reps, phase=tracer.phase)
        metrics = tracer.metrics(result)
    finally:
        tracer.uninstall()
    assert result.problems == []
    assert not hasattr(fw.REPRESENTATIONS["z2wrz2"]().apply_report, "__wrapped__")
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    for g in wl.GROUPS:
        steps = metrics[f"tapevm.steps.{g}"]["value"]
        assert isinstance(steps, int) and steps > 0


def test_benchmark_json_names_the_end_to_end_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert names == {"setup_s", "peak_rss_mib"} | {f"ops_per_s.{g}" for g in wl.GROUPS}


def test_run_fails_without_the_program(tmp_path):
    # a directory holding only the benchmark: no src/, so no result
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
