"""tools/bench_record.py refuses a side that names no revision."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def record(baseline: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "tools/bench_record.py", "--pr", "0", "--seeds", "1",
                           "--baseline", str(baseline)], cwd=ROOT, capture_output=True, text=True)


def test_a_baseline_that_is_no_checkout_top_level_is_refused(tmp_path):
    # a plain directory, as a `git archive` export is, and a directory inside
    # another repository's tree: neither has a revision of its own
    plain = tmp_path / "plain"
    plain.mkdir()
    subprocess.run(["git", "init", "-q", str(tmp_path / "repo")], check=True)
    nested = tmp_path / "repo" / "nested"
    nested.mkdir()
    for baseline in (plain, nested):
        r = record(baseline)
        assert r.returncode == 2, r.stderr
        assert "not the top level of a git checkout" in r.stderr
        assert str(baseline.resolve()) in r.stderr
        assert r.stdout == ""
    assert not (ROOT / "BENCH_0.json").exists()
