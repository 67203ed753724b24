"""The codec against the maximal-munch loops it replaced.

The reference tokenizers and renderer below are the plain Python loops the
compiled codec in `tapegroups.tokens` replaced.  Every check compares tokens,
exception type and message.
"""

import itertools
import random

import pytest

from tapegroups.errors import NotInLanguage
from tapegroups.framework import REPRESENTATIONS
from tapegroups.tokens import (F_SIGMA, Z2F2_SIGMA, Z2Z2_SIGMA, render_z2f2,
                               tokenize_f, tokenize_z2f2, tokenize_z2z2)

# -- reference loops ------------------------------------------------------

_BY_LENGTH = sorted(Z2F2_SIGMA, key=len, reverse=True)


def ref_tokenize_z2z2(text):
    out = []
    i = 0
    while i < len(text):
        if text[i] == "C":
            if i + 1 < len(text) and text[i + 1] in "01":
                out.append(text[i : i + 2])
                i += 2
                continue
            raise NotInLanguage(f"dangling 'C' at position {i}")
        if text[i] in "01":
            out.append(text[i])
            i += 1
            continue
        raise NotInLanguage(f"unknown symbol {text[i]!r} at position {i}")
    return out


def ref_tokenize_z2f2(text):
    out = []
    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        for tok in _BY_LENGTH:
            if text.startswith(tok, i):
                out.append(tok)
                i += len(tok)
                break
        else:
            raise NotInLanguage(f"unknown symbol {text[i]!r} at position {i}")
    return out


def ref_render_z2f2(tokens):
    parts = []
    prev = ""
    for tok in tokens:
        if prev in ("D0", "D1", "E0", "E1") and (prev + tok[0]) in Z2F2_SIGMA:
            parts.append(" ")
        parts.append(tok)
        prev = tok
    return "".join(parts)


def ref_tokenize_f(text):
    for i, ch in enumerate(text):
        if ch not in "ab#":
            raise NotInLanguage(f"unknown symbol {ch!r} at position {i}")
    return list(text)


def outcome(fn, text):
    try:
        return fn(text)
    except NotInLanguage as exc:
        return (type(exc), str(exc))


def assert_canonical(tokens, sigma):
    for tok in tokens:
        assert tok is sigma[sigma.index(tok)], tok


# the wreath-product tokenizers return the alphabet's own objects; F's
# returns the characters of its text
CASES = [
    (tokenize_z2z2, ref_tokenize_z2z2, Z2Z2_SIGMA, True),
    (tokenize_z2f2, ref_tokenize_z2f2, Z2F2_SIGMA, True),
    (tokenize_f, ref_tokenize_f, F_SIGMA, False),
]
IDS = ["z2z2", "z2f2", "f"]
WHITESPACE = " \t\n\x1c\u3000"
BAD = "2xDEC#aé"


# -- tests -------------------------------------------------------------------

@pytest.mark.parametrize("new,ref,sigma,canonical", CASES, ids=IDS)
def test_all_short_token_sequences(new, ref, sigma, canonical):
    for k in range(4):
        for seq in itertools.product(sigma, repeat=k):
            for text in ("".join(seq), " ".join(seq), "\t" + "\n".join(seq) + " "):
                got = outcome(new, text)
                assert got == outcome(ref, text), text
                if canonical and isinstance(got, list):
                    assert_canonical(got, sigma)


@pytest.mark.parametrize("new,ref,sigma,canonical", CASES, ids=IDS)
def test_seeded_random_strings(new, ref, sigma, canonical):
    # mostly tokens, with whitespace and bad symbols mixed in, so that both
    # valid texts and errors at every depth occur
    rng = random.Random(20260)
    errors = 0
    for _ in range(20000):
        parts = []
        for _ in range(rng.randint(0, 16)):
            x = rng.random()
            parts.append(rng.choice(sigma) if x < 0.85 else
                         rng.choice(WHITESPACE) if x < 0.95 else rng.choice(BAD))
        text = "".join(parts)
        got = outcome(new, text)
        assert got == outcome(ref, text), text
        if canonical and isinstance(got, list):
            assert_canonical(got, sigma)
        errors += not isinstance(got, list)
    assert 2000 < errors < 18000


def test_render_roundtrip_is_exhaustive_on_pairs_and_triples():
    # the spacing rule looks only at adjacent tokens, so pairs and triples
    # cover every case of it
    for k in (1, 2, 3):
        for seq in itertools.product(Z2F2_SIGMA, repeat=k):
            toks = list(seq)
            text = render_z2f2(toks)
            assert text == ref_render_z2f2(toks)
            assert tokenize_z2f2(text) == toks
    assert render_z2f2([]) == ""


@pytest.mark.parametrize("group", ["z2wrz2", "z2wrf2"])
def test_long_normal_form_matches_reference(group):
    rep = REPRESENTATIONS[group]()
    nf = rep.sample_nf(random.Random(5), 1 << 12)
    new, ref = (tokenize_z2z2, ref_tokenize_z2z2) if group == "z2wrz2" else \
        (tokenize_z2f2, ref_tokenize_z2f2)
    toks = new(nf)
    assert toks == ref(nf)
    assert_canonical(toks, Z2Z2_SIGMA if group == "z2wrz2" else Z2F2_SIGMA)
    if group == "z2wrf2":
        assert render_z2f2(toks) == ref_render_z2f2(toks) == nf
    # one bad symbol deep inside is named where the reference names it
    bad = nf[: len(nf) // 2] + "?" + nf[len(nf) // 2 :]
    assert outcome(new, bad) == outcome(ref, bad)


def test_long_whitespace_run_is_linear():
    # a pattern that consumed leading whitespace would rescan this run from
    # each of its positions: about 10^10 steps instead of 10^5
    text = "D0" + " " * 100_000 + "x"
    with pytest.raises(NotInLanguage, match=r"unknown symbol 'x' at position 100002"):
        tokenize_z2f2(text)
