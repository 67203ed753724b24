"""Golden step ledger: exact step counts and output hashes on a fixed corpus.

Model steps are the paper's cost and are deterministic, so any change to a
count, or to an output, is a change in behaviour.  The committed ledger in
`tests/data/step_ledger.json` covers every group x generator on seeded
normal forms of 2^6, 2^10 and 2^14 symbols, the relators R1 and R2 of F and
a few fixed words per group.  A refactor must leave it byte-identical; a
change that moves a count regenerates it and says why in CHANGES.md.

Regenerate with `PYTHONPATH=src python tests/test_step_ledger.py`
(about 2 s).
"""

import hashlib
import json
import random
from pathlib import Path

from tapegroups import framework as fw

LEDGER = Path(__file__).parent / "data" / "step_ledger.json"
SIZES = (1 << 6, 1 << 10, 1 << 14)

R1 = ["x1", "x0-", "x0-", "x1-", "x0", "x0", "x1-", "x0-", "x1", "x0"]
R2 = ["x1", "x0-", "x0-", "x0-", "x1-", "x0", "x0", "x0",
      "x1-", "x0-", "x0-", "x1", "x0", "x0"]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _fixed_words(rep: fw.Representation):
    """Two seeded words of 48 letters, and the first followed by its inverse."""
    words = {}
    for seed in (1, 2):
        rng = random.Random(seed)
        words[f"w{seed}"] = [rng.choice(rep.generators) for _ in range(48)]
    w = words["w1"]
    words["w1.w1^-1"] = w + [rep.inverse[g] for g in reversed(w)]
    if rep.group_id == "thompson-f":
        words["R1"] = R1
        words["R2"] = R2
    return words


def build_ledger() -> dict:
    apply = {}
    fold = {}
    for group_id, make in fw.REPRESENTATIONS.items():
        rep = make()
        by_size = {}
        for n in SIZES:
            nf = rep.sample_nf(random.Random(n), n)
            entry = {"seed": n, "input_chars": len(nf), "input_sha256": _sha(nf)}
            for gen in rep.generators:
                out, report = rep.apply_report(nf, gen)
                entry[gen] = {"input_len": report.input_len, "steps": report.steps,
                              "output_sha256": _sha(out)}
            by_size[str(n)] = entry
        apply[group_id] = by_size
        folds = {}
        for name, word in _fixed_words(rep).items():
            nf, steps = fw.word_to_nf_report(rep, word)
            folds[name] = {"word": " ".join(word), "steps": steps, "nf": nf}
        fold[group_id] = folds
    return {"apply": apply, "fold": fold}


def render_ledger(ledger: dict) -> str:
    return json.dumps(ledger, indent=1, sort_keys=True) + "\n"


def test_step_ledger_is_unchanged():
    assert render_ledger(build_ledger()) == LEDGER.read_text()


if __name__ == "__main__":
    LEDGER.parent.mkdir(exist_ok=True)
    LEDGER.write_text(render_ledger(build_ledger()))
    print(f"wrote {LEDGER}")
