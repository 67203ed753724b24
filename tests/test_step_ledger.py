"""Golden step ledger: exact step counts and output hashes on a fixed corpus.

Model steps are the paper's cost and are deterministic, so any change to a
count, or to an output, is a change in behaviour.  The committed ledger in
`tests/data/step_ledger.json` covers every group x generator on seeded
normal forms of 2^6, 2^10 and 2^14 symbols, the relators R1 and R2 of F and
a few fixed words per group.  Its `walks` section reaches the short normal
forms and the invalid inputs the large samples miss: every generator applied
at every step of seeded walks from the identity, and, for the wreath
products, whose raw programs halt on anything, to seeded random token
strings (Z2 wr Z^2's through `run_raw`, as its front door raises on a
non-member).  Its `codec` section pins each group's decoder: every distinct
input and output text of those walks, then for Z2 wr F2 seeded edits of its
walk forms (`_mutants`), in first-seen order, with its verdict, either the
NotInLanguage message or a canonical rendering of the element.
A refactor must leave it byte-identical; a change that moves a count
regenerates it and says why in CHANGES.md.

Regenerate with `PYTHONPATH=src python tests/test_step_ledger.py`
(about 3 s).
"""

import hashlib
import itertools
import json
import random
from pathlib import Path

from tapegroups import framework as fw
from tapegroups import z2wrf2, z2wrz2
from tapegroups.errors import NotInLanguage
from tapegroups.oracle_groups import LampConfigF2, LampConfigZ2
from tapegroups.tapevm import init_tapes, read_output
from tapegroups.tokens import Z2F2_SIGMA, render_z2f2, tokenize_z2f2

LEDGER = Path(__file__).parent / "data" / "step_ledger.json"
SIZES = (1 << 6, 1 << 10, 1 << 14)

R1 = ["x1", "x0-", "x0-", "x1-", "x0", "x0", "x1-", "x0-", "x1", "x0"]
R2 = ["x1", "x0-", "x0-", "x0-", "x1-", "x0", "x0", "x0",
      "x1-", "x0-", "x0-", "x1", "x0", "x0"]

# per group: (walks, steps per walk, random token strings, their max length)
WALKS = {"z2wrz2": (40, 30, 1000, 30),
         "z2wrf2": (30, 30, 5000, 14),
         "thompson-f": (30, 30, 0, 0)}
# the machine whose alphabet and renderer make the random token strings
RANDOM_TEXT = {"z2wrz2": z2wrz2.MACHINE, "z2wrf2": z2wrf2.MACHINE}
# per group: the seeded edits of its walk forms that the codec corpus adds
MUTANTS = {"z2wrf2": 3000}


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


def run_raw(tokens, machine, gen):
    """Run machine's program of gen, which halts on any input, on the machine
    `init_tapes` loads with `tokens` (a token list, a str of one-character
    symbols, or their tape codes as bytes; a tape marker raises
    InvalidInput): the output text, the steps and the program's return
    value.  Machine.apply raises NotInLanguage on a text its codes function
    or its program rejects; this runs the program and returns its verdict."""
    ts = init_tapes(tokens)
    result = machine.programs[gen](ts, gen)
    return machine.render(read_output(ts, machine.sigma)), ts.steps, result


def _walk_entries(rep: fw.Representation, seed: int):
    """(input, generator, steps, output) for every generator at every step of
    the seeded walks, then at every seeded random token string."""
    n_walks, length, n_random, max_tokens = WALKS[rep.group_id]
    rng = random.Random(seed)
    for _ in range(n_walks):
        nf = rep.identity_nf
        for _ in range(length):
            outs = {}
            for gen in rep.generators:
                out, report = rep.apply_report(nf, gen)
                outs[gen] = out
                yield nf, gen, report.steps, out
            nf = outs[rng.choice(rep.generators)]
    if n_random:
        machine = RANDOM_TEXT[rep.group_id]
        for _ in range(n_random):
            # over a random part of the alphabet, so that long strings
            # without a marker or without brackets occur too
            pool = rng.sample(machine.sigma, rng.randint(1, len(machine.sigma)))
            tokens = bytes(rng.choice(pool) for _ in range(rng.randint(0, max_tokens)))
            text = machine.render(tokens)
            for gen in rep.generators:
                if rep.group_id == "z2wrz2":  # its front door raises on a non-member
                    out, steps, _ = run_raw(tokens, machine, gen)
                else:
                    out, report = rep.apply_report(text, gen)
                    steps = report.steps
                yield text, gen, steps, out


def _walks(rep: fw.Representation, entries) -> dict:
    tally = {gen: [0, 0, hashlib.sha256()] for gen in rep.generators}
    for text, gen, steps, out in entries:
        row = tally[gen]
        row[0] += 1
        row[1] += steps
        row[2].update(f"{text}\t{gen}\t{steps}\t{out}\n".encode())
    return {gen: {"applications": n, "steps": steps, "sha256": h.hexdigest()}
            for gen, (n, steps, h) in tally.items()}


def _verdict(rep: fw.Representation, text: str) -> str:
    """The decoder's message on a non-member, else the element: sorted lamps
    and position for the wreath products (frozenset order varies with the
    string hash seed), the map's repr for F."""
    try:
        elem = rep.decode(text)
    except NotInLanguage as exc:
        return f"NotInLanguage: {exc}"
    if isinstance(elem, (LampConfigZ2, LampConfigF2)):
        return f"lamps={sorted(elem.lit)} pos={elem.pos!r}"
    return repr(elem)


def _flip_group(toks: list, rng: random.Random) -> None:
    """Give one bracketed group, if there is one, the other kind of bracket
    pair.  No one-token edit of a normal form nests a group in one of its own
    kind: it unbalances the brackets or mismatches a pair."""
    opens = [k for k, tok in enumerate(toks) if tok in ("(", "[")]
    if opens:
        k = j = rng.choice(opens)
        depth = 0
        for j in range(k, len(toks)):
            depth += (toks[j] in ("(", "[")) - (toks[j] in (")", "]"))
            if depth == 0:
                break
        toks[k], toks[j] = ("[", "]") if toks[k] == "(" else ("(", ")")


def _mutants(rep: fw.Representation, entries) -> list:
    """Seeded edits of the walk forms, the distinct inputs of the walks (the
    first part of `entries`), rendered: a token substituted, deleted or
    inserted, or one group's bracket pair flipped.  They reach decoder
    messages the walks and the random token strings miss."""
    count = MUTANTS.get(rep.group_id, 0)
    if not count:
        return []
    n_walks, length, _, _ = WALKS[rep.group_id]
    walked = itertools.islice(entries, n_walks * length * len(rep.generators))
    forms = list(dict.fromkeys(text for text, _gen, _steps, _out in walked))
    rng = random.Random(21)
    texts = []
    for _ in range(count):
        toks = tokenize_z2f2(rng.choice(forms))
        k = rng.randrange(len(toks))
        edit = rng.randrange(4)
        if edit == 0:
            toks[k] = rng.choice(Z2F2_SIGMA)
        elif edit == 1:
            del toks[k]
        elif edit == 2:
            toks.insert(rng.randrange(len(toks) + 1), rng.choice(Z2F2_SIGMA))
        else:
            _flip_group(toks, rng)
        texts.append(render_z2f2(toks))
    return texts


def _codec(rep: fw.Representation, entries) -> dict:
    texts = dict.fromkeys(itertools.chain(
        (t for text, _gen, _steps, out in entries for t in (text, out)),
        _mutants(rep, entries)))
    decoded = 0
    h = hashlib.sha256()
    for text in texts:
        verdict = _verdict(rep, text)
        decoded += not verdict.startswith("NotInLanguage: ")
        h.update(f"{text}\t{verdict}\n".encode())
    return {"texts": len(texts), "decoded": decoded, "sha256": h.hexdigest()}


def build_ledger() -> dict:
    apply = {}
    fold = {}
    walks = {}
    codec = {}
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
        entries = list(_walk_entries(rep, seed=1))
        walks[group_id] = _walks(rep, entries)
        codec[group_id] = _codec(rep, entries)
    return {"apply": apply, "codec": codec, "fold": fold, "walks": walks}


def render_ledger(ledger: dict) -> str:
    return json.dumps(ledger, indent=1, sort_keys=True) + "\n"


def test_step_ledger_is_unchanged():
    assert render_ledger(build_ledger()) == LEDGER.read_text()


def test_codec_mutants_reach_the_decoder_messages_the_walks_miss():
    rep = fw.REPRESENTATIONS["z2wrf2"]()
    verdicts = {_verdict(rep, text) for text in _mutants(rep, _walk_entries(rep, seed=1))}
    for message in ("group nesting does not alternate",
                    "top-level pivot class below the top level",
                    "untrimmed zero at the far end of a group side"):
        assert f"NotInLanguage: {message}" in verdicts


if __name__ == "__main__":
    LEDGER.parent.mkdir(exist_ok=True)
    LEDGER.write_text(render_ledger(build_ledger()))
    print(f"wrote {LEDGER}")
