import json

import pytest

from tapegroups import framework as fw
from tapegroups import z2wrf2
from tapegroups.cli import run
from tapegroups.oracle_groups import IDENTITY_F2, wreath_mul_gen


def test_mul_matches_library(capsys):
    assert run(["mul", "--group", "z2wrz2", "--nf", "C0", "--gen", "a"]) == 0
    out = capsys.readouterr().out.splitlines()
    rep = fw.representation_z2wrz2()
    nf, report = rep.apply_report("C0", "a")
    assert out[0] == nf == "0C0"
    assert out[1] == f"steps={report.steps}"


def test_mul_json(capsys):
    assert run(["mul", "--group", "thompson-f", "--nf", "b", "--gen", "x1-",
                "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["nf"] == "b##b" and blob["steps"] > 0


def test_normalize_and_wp(capsys):
    assert run(["normalize", "--group", "z2wrf2", "--word", ""]) == 0
    assert capsys.readouterr().out.strip() == "B0"
    word = "x1 x0- x0- x1- x0 x0 x1- x0- x1 x0"
    assert run(["wp", "--group", "thompson-f", "--word", word]) == 0
    assert capsys.readouterr().out.strip() == "trivial"
    assert run(["wp", "--group", "z2wrz2", "--word", "c a c a-"]) == 0
    assert capsys.readouterr().out.strip() == "nontrivial"


def test_mul_on_a_deeply_nested_form(capsys):
    cfg = IDENTITY_F2
    for gen in ["a", "c", "b", "c"] * 600:  # about 1200 nested groups
        cfg = wreath_mul_gen(cfg, gen)
    nf = z2wrf2.encode(cfg)
    assert run(["mul", "--group", "z2wrf2", "--nf", nf, "--gen", "b"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == z2wrf2.apply_gen(nf, "b")


def test_exit_codes(capsys):
    assert run(["mul", "--group", "z2wrz2", "--nf", "zz", "--gen", "a"]) == 1
    capsys.readouterr()
    assert run(["normalize", "--group", "z2wrz2", "--word", "x9"]) == 1
    capsys.readouterr()


def test_internal_fault_exits_2(capsys, monkeypatch):
    def fault(rep, word):
        raise RuntimeError("planted")

    monkeypatch.setattr(fw, "word_problem", fault)
    assert run(["wp", "--group", "z2wrf2", "--word", "a b"]) == 2
    assert capsys.readouterr().err == "internal fault: planted\n"


def test_fuzz_json_report(capsys):
    assert run(["fuzz", "--group", "z2wrz2", "--trials", "10",
                "--max-len", "15", "--seed", "1"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["passed"] and blob["group"] == "z2wrz2"


def test_bench_and_probe_json(capsys, tmp_path):
    out = tmp_path / "bench.json"
    assert run(["bench", "--group", "z2wrz2", "--gen", "a",
                "--sizes", "64,256,1024", "--samples", "3", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["verdict"] is True
    assert set(blob) == {"group", "gen", "sizes", "slope", "verdict"}
    assert run(["probe", "--group", "thompson-f", "--trials", "2",
                "--max-walk", "60"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert "max_ratio" in blob


def test_demo_nonqg(capsys):
    assert run(["demo-nonqg", "--ks", "5,50"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("k")
    assert len(lines) == 3
    # the table is of Z2 wr Z^2 alone, so the subcommand takes no group
    with pytest.raises(SystemExit) as exc:
        run(["demo-nonqg", "--group", "thompson-f", "--ks", "5,50"])
    assert exc.value.code == 64


@pytest.mark.parametrize("argv", [
    ["bench", "--group", "z2wrz2", "--gen", "a", "--sizes", ","],
    ["bench", "--group", "z2wrz2", "--gen", "a", "--sizes", "64,x"],
    ["demo-nonqg", "--ks", "x"],
    ["fuzz", "--group", "z2wrz2", "--max-len", "0"],
    ["bench", "--group", "z2wrz2", "--gen", "a", "--samples", "0"],
    ["fuzz", "--group", "z2wrz2", "--trials", "0"],
    ["probe", "--group", "z2wrz2", "--max-walk", "-3"],
    # one distinct size has no smaller one to compare the largest with
    ["bench", "--group", "z2wrz2", "--gen", "a", "--sizes", "1"],
    ["bench", "--group", "z2wrz2", "--gen", "a", "--samples", "1", "--sizes", "4096"],
    ["bench", "--group", "z2wrz2", "--gen", "a", "--sizes", "64,64"],
])
def test_bad_numbers_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 64
    assert f"error: argument {argv[-2]}: " in capsys.readouterr().err


def test_bench_sorts_its_sizes(capsys):
    assert run(["bench", "--group", "z2wrz2", "--gen", "a", "--sizes", "16384,64"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert [row["n"] for row in blob["sizes"]] == [64, 16384]
