"""tools/ledger_diff.py on small ledgers: silent on equal ones, one line per
differing leaf, and a usage error on a wrong argument count."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = {"apply": {"z2wrz2": {"0C1": {"a": 7, "c": 3}}},
          "walks": {"thompson-f": {"x0": {"runs": 2, "sha256": "ab12"}}}}


def ledger_diff(tmp_path, *ledgers) -> subprocess.CompletedProcess:
    paths = []
    for i, ledger in enumerate(ledgers):
        path = tmp_path / f"ledger{i}.json"
        path.write_text(json.dumps(ledger))
        paths.append(str(path))
    return subprocess.run([sys.executable, "tools/ledger_diff.py", *paths], cwd=ROOT,
                          capture_output=True, text=True)


def test_equal_ledgers_print_nothing(tmp_path):
    r = ledger_diff(tmp_path, LEDGER, json.loads(json.dumps(LEDGER)))
    assert (r.returncode, r.stdout, r.stderr) == (0, "", "")


def test_a_changed_leaf_prints_its_path_and_both_values(tmp_path):
    new = json.loads(json.dumps(LEDGER))
    new["apply"]["z2wrz2"]["0C1"]["a"] = 8
    new["walks"]["thompson-f"]["x0"]["sha256"] = "cd34"
    r = ledger_diff(tmp_path, LEDGER, new)
    assert r.returncode == 1, r.stderr
    assert r.stdout.splitlines() == ["apply/z2wrz2/0C1/a: 7 -> 8",
                                     "walks/thompson-f/x0/sha256: ab12 -> cd34"]


def test_a_leaf_on_one_side_only_shows_a_dash_on_the_other(tmp_path):
    new = json.loads(json.dumps(LEDGER))
    del new["apply"]["z2wrz2"]["0C1"]["c"]
    new["apply"]["z2wrz2"]["0C1"]["b"] = 5
    r = ledger_diff(tmp_path, LEDGER, new)
    assert r.returncode == 1, r.stderr
    assert r.stdout.splitlines() == ["apply/z2wrz2/0C1/b: - -> 5",
                                     "apply/z2wrz2/0C1/c: 3 -> -"]


def test_a_wrong_argument_count_is_a_usage_error(tmp_path):
    for ledgers in ((), (LEDGER,), (LEDGER, LEDGER, LEDGER)):
        r = ledger_diff(tmp_path, *ledgers)
        assert r.returncode == 2
        assert r.stderr == "usage: python3 tools/ledger_diff.py OLD NEW\n"
        assert r.stdout == ""
