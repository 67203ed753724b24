"""The codec against the maximal-munch loops it replaced.

The reference tokenizers and renderer below are the plain Python loops the
compiled codec in `tapegroups.tokens` replaced; for Z2 wr Z^2 the tokenizer
is followed by the normal-form checks the decoder once made on its token
list.  Every check compares tokens, exception type and message, and the tape
codes of the codes functions with the codes of the reference tokens.
"""

import functools
import itertools
import random

import pytest

from tapegroups.errors import NotInLanguage
from tapegroups.framework import REPRESENTATIONS
from tapegroups.tokens import (F_SIGMA, Z2F2_SIGMA, Z2Z2_SIGMA, codes_z2f2, codes_z2z2, encode,
                               render_z2f2, tokenize_z2f2)
from test_step_ledger import _walk_entries

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


def ref_nf_z2z2(text):
    """The reference tokens of a normal form, after the decoder's checks."""
    toks = ref_tokenize_z2z2(text)
    if not toks:
        raise NotInLanguage("normal form is non-empty (identity is 'C0')")
    marks = [k for k, t in enumerate(toks, start=1) if t in ("C0", "C1")]
    if len(marks) != 1:
        raise NotInLanguage(f"expected exactly one lamplighter token, found {len(marks)}")
    if toks[-1] == "0":
        raise NotInLanguage("trailing 0 padding is not allowed")
    return toks


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


def outcome(fn, text):
    try:
        return fn(text)
    except NotInLanguage as exc:
        return (type(exc), str(exc))


def assert_canonical(tokens, sigma):
    for tok in tokens:
        assert tok is sigma[sigma.index(tok)], tok


def assert_codes_match(codes, ref, text):
    # the codes of the reference tokens, or the reference's error
    want = outcome(ref, text)
    assert outcome(codes, text) == (encode(want) if isinstance(want, list) else want), text


def assert_tokens_match(tokenize, ref, text):
    # Z2 wr F2's tokens are those of the reference, or its error; Z2 wr
    # Z^2's text has no tokenizer, only its codes
    if tokenize is not None:
        got = outcome(tokenize, text)
        assert got == outcome(ref, text), text
        if isinstance(got, list):
            assert_canonical(got, Z2F2_SIGMA)
    assert_codes_match(CODES[ref], ref, text)


CODES = {ref_nf_z2z2: codes_z2z2, ref_tokenize_z2f2: codes_z2f2}
CASES = [
    (None, ref_nf_z2z2, Z2Z2_SIGMA),
    (tokenize_z2f2, ref_tokenize_z2f2, Z2F2_SIGMA),
]
IDS = ["z2z2", "z2f2"]
WHITESPACE = " \t\n\x1c\u3000"
BAD = "2xDEC#aé"


# -- tests -------------------------------------------------------------------

@pytest.mark.parametrize("new,ref,sigma", CASES, ids=IDS)
def test_all_short_token_sequences(new, ref, sigma):
    for k in range(4):
        for seq in itertools.product(sigma, repeat=k):
            for text in ("".join(seq), " ".join(seq), "\t" + "\n".join(seq) + " "):
                assert_tokens_match(new, ref, text)


@pytest.mark.parametrize("new,ref,sigma", CASES, ids=IDS)
def test_seeded_random_strings(new, ref, sigma):
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
        assert_tokens_match(new, ref, text)
        # errors of the tokenizer, before any normal-form check
        tokenize = ref_tokenize_z2z2 if ref is ref_nf_z2z2 else ref
        errors += not isinstance(outcome(tokenize, text), list)
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
    new, ref = (None, ref_nf_z2z2) if group == "z2wrz2" else \
        (tokenize_z2f2, ref_tokenize_z2f2)
    assert_tokens_match(new, ref, nf)
    if group == "z2wrf2":
        toks = ref(nf)
        assert render_z2f2(toks) == ref_render_z2f2(toks) == nf
    # one bad symbol deep inside is named where the reference names it
    bad = nf[: len(nf) // 2] + "?" + nf[len(nf) // 2 :]
    assert_tokens_match(new, ref, bad)


@pytest.mark.parametrize("group", ["z2wrz2", "z2wrf2"])
def test_apply_reports_the_token_count_as_input_len(group):
    rep = REPRESENTATIONS[group]()
    codes = codes_z2z2 if group == "z2wrz2" else codes_z2f2
    texts = [rep.sample_nf(random.Random(n), n) for n in (1, 16, 1 << 10)]
    if group == "z2wrf2":  # whitespace is not counted
        texts += ["\t" + " ".join(tokenize_z2f2(text)) + "\u3000" for text in texts]
    for text in texts:
        for gen in rep.generators:
            assert rep.apply_report(text, gen)[1].input_len == len(codes(text)), text


def test_markers_nul_and_non_ascii_whitespace():
    for text in ("\0", "0\x01", "⊞", "⊡", "é", "\u30001", "C0\u3000", "D0\u3000C0",
                 "D\u30000", "\u3000", "1 \u2028 0"):
        for ref in CODES:
            assert_codes_match(CODES[ref], ref, text)


def test_long_whitespace_run_is_linear():
    # a pattern that consumed leading whitespace would rescan this run from
    # each of its positions: about 10^10 steps instead of 10^5
    text = "D0" + " " * 100_000 + "x"
    with pytest.raises(NotInLanguage, match=r"unknown symbol 'x' at position 100002"):
        tokenize_z2f2(text)


def test_every_short_string_over_the_z2z2_characters():
    # the whole-text match must accept exactly the normal forms: near
    # misses (two C's in a row, a C at the end, a bad symbol or whitespace
    # anywhere, no lamplighter or two, a trailing 0) must fail as the
    # reference does
    for k in range(7):
        for chars in itertools.product("01C \n2", repeat=k):
            assert_codes_match(codes_z2z2, ref_nf_z2z2, "".join(chars))


def test_long_texts_match_reference():
    # one lamplighter, the shape of every normal form, and then several
    rng = random.Random(6)
    for n in (1 << 10, 1 << 14):
        bits = [rng.choice("01") for _ in range(n)]
        for cs in ([0], [1], [n // 2], [n - 1], [0, 1, 5, n - 1],
                   sorted(rng.sample(range(n), 40))):
            text = "".join("C" * (k in cs) + b for k, b in enumerate(bits))
            for t in (text, text + "C", text[:-1] + "2" + text[-1:], "C" + text, " " + text):
                assert_codes_match(codes_z2z2, ref_nf_z2z2, t)


# -- Z2 wr F2 at the character level -----------------------------------------
#
# A codec that decides each cell from its neighbours fails, if at all, on a
# neighbourhood of a few cells, at a text's ends or at a token boundary: these
# tests vary single characters rather than whole tokens.

F2_CHARS = "01DEABC()[] 　x"


def assert_z2f2_char_level(text):
    """codes_z2f2 and tokenize_z2f2 agree with the reference on text, and a
    valid text's codes render to the reference rendering, which decodes back
    to them."""
    want = outcome(ref_tokenize_z2f2, text)
    assert outcome(tokenize_z2f2, text) == want, text
    codes = outcome(codes_z2f2, text)
    if isinstance(want, list):
        assert codes == encode(want), text
        rendered = render_z2f2(codes)
        assert rendered == ref_render_z2f2(want), text
        assert codes_z2f2(rendered) == codes, text
    else:
        assert codes == want, text


def test_every_short_string_over_the_z2f2_characters():
    # 41 371 strings: every string of at most 4 characters over the alphabet's
    # characters, an ASCII and a non-ASCII space and a bad symbol
    count = 0
    for k in range(5):
        for chars in itertools.product(F2_CHARS, repeat=k):
            assert_z2f2_char_level("".join(chars))
            count += 1
    assert count == 41_371


def test_seeded_strings_of_five_to_eight_z2f2_characters():
    # what the exhaustive test cannot reach in its time: neighbourhoods of
    # five cells and more
    rng = random.Random(20261)
    for _ in range(20_000):
        assert_z2f2_char_level("".join(rng.choices(F2_CHARS, k=rng.randint(5, 8))))


@functools.cache
def long_z2f2_tokens():
    """The tokens of a sampled normal form of 2^14 tokens."""
    rep = REPRESENTATIONS["z2wrf2"]()
    return tuple(ref_tokenize_z2f2(rep.sample_nf(random.Random(14), 1 << 14)))


def test_long_z2f2_form_with_edge_tokens():
    toks = list(long_z2f2_tokens())
    texts = [
        ref_render_z2f2(["D1B", *toks, "E0C"]),  # 3-character tokens at both ends
        ref_render_z2f2(["D0", "A1", *toks, "E1", "C0"]),  # a spaced pair at both ends
        " ".join(toks),  # whitespace at every token boundary
        "　" + "\t".join(toks) + "\n",
    ]
    assert texts[1].startswith("D0 A1") and texts[1].endswith("E1 C0")
    for text in texts:
        assert_z2f2_char_level(text)


def test_long_z2f2_form_with_one_bad_symbol():
    text = ref_render_z2f2(long_z2f2_tokens())
    for k in (0, 1, len(text) // 2, len(text) - 1):
        for bad in ("x", "\0", "é"):
            assert_z2f2_char_level(text[:k] + bad + text[k + 1:])


# -- tape codes in -------------------------------------------------------------
#
# Machine.apply takes a normal form as tape codes too, and the codes
# functions check codes as they check text.

def test_z2z2_codes_are_accepted_exactly_when_their_text_is():
    count = 0
    for k in range(9):
        for seq in itertools.product(Z2Z2_SIGMA, repeat=k):
            want = outcome(codes_z2z2, "".join(seq))
            got = outcome(codes_z2z2, encode(seq))
            if isinstance(want, bytes):
                assert got == want, seq
            else:
                assert got[0] is NotInLanguage, seq
            count += 1
    assert count == (4 ** 9 - 1) // 3


# per group: the walk forms that have codes (for Z2 wr F2 with the random
# token strings, which its programs run on), and the generator runs on them
APPLY_ON_CODES = {"z2wrz2": (704, 3520), "z2wrf2": (4809, 24045), "thompson-f": (505, 2020)}


@pytest.mark.parametrize("group", APPLY_ON_CODES)
def test_apply_on_codes_gives_the_codes_of_the_text_product(group):
    rep = REPRESENTATIONS[group]()
    texts = runs = 0
    for text in dict.fromkeys(text for text, *_ in _walk_entries(rep, 1)):
        try:
            codes = rep.codes(text)
        except NotInLanguage:  # Z2 wr Z^2's random token strings
            continue
        texts += 1
        for gen in rep.generators:
            runs += 1
            out, report = rep.apply_report(text, gen)
            assert rep.apply_report(codes, gen) == (rep.codes(out), report), (text, gen)
    assert (texts, runs) == APPLY_ON_CODES[group]


SIGMA = {"z2wrz2": Z2Z2_SIGMA, "z2wrf2": Z2F2_SIGMA, "thompson-f": F_SIGMA}
BAD_CODE_RUNS = {"z2wrz2": 6300, "z2wrf2": 5800, "thompson-f": 4048}


@pytest.mark.parametrize("group", SIGMA)
def test_codes_off_the_alphabet_raise_not_in_language(group):
    # every code outside the group's alphabet (the blank, the start marker,
    # the work symbols, the codes of no symbol) put at the start, in the
    # middle and at the end of two normal forms' codes
    rep = REPRESENTATIONS[group]()
    bad = bytes(c for c in range(256) if c not in encode(SIGMA[group]))
    count = 0
    for text in (rep.identity_nf, rep.sample_nf(random.Random(3), 12)):
        codes = rep.codes(text)
        for c in bad:
            for pos in {0, len(codes) // 2, len(codes)}:
                for gen in rep.generators:
                    with pytest.raises(NotInLanguage):
                        rep.apply_report(codes[:pos] + bytes((c,)) + codes[pos:], gen)
                    count += 1
    assert count == BAD_CODE_RUNS[group]
