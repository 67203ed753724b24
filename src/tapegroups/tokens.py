"""Global token alphabet and ASCII tokenizers.

One enumeration of string tokens serves every group: tape cells hold these
tokens directly.  External text uses the ASCII renderings below.

Each wreath-product alphabet is tokenized by one compiled pattern whose
`findall` does the per-symbol work in C.  The four alternatives of the Z2 wr
F2 pattern begin with disjoint sets of characters (D; E; A, B, C; the rest),
and within each one the greedy optional suffix takes the longest token, so a
match at a token boundary is the token maximal munch (longest token first)
picks.  `findall` searches: it steps over whitespace, which only separates
tokens, but it would also step over a bad symbol.  So the tokens found are
compared with the text minus its whitespace, a comparison in C; they are
equal exactly when no symbol was skipped.  Only when they differ is the text
walked token by token, to name the first bad symbol as maximal munch does.
The pattern does not consume whitespace itself: a leading whitespace repeat
would rescan a long run of whitespace from every position in it, which is
quadratic.

The tokens returned are the alphabet's own string objects, not the fresh
substrings `findall` makes, so a long token list holds one pointer per cell
and no per-cell string.
"""

from __future__ import annotations

import re

from .errors import NotInLanguage

# Tape markers.  Unicode so they can never collide with the ASCII alphabets.
BEGIN = "⊞"  # immovable start marker at cell 0
BLANK = "⊡"  # blank cell

# Work symbols that only ever appear on auxiliary tapes.
TURN = "T"          # unary turn counter
MARK_LP = "(*"      # marked stack copies of the four brackets
MARK_LB = "[*"
MARK_RP = ")*"
MARK_RB = "]*"
CONV_B_HASH = "b#"  # convolution pairs (b-track, #-track)
CONV_B_NONE = "b_"
CONV_NONE_HASH = "_#"

# Z2 wr Z2 alphabet.
Z2Z2_SIGMA = ("0", "1", "C0", "C1")

# Z2 wr F2 alphabet: ten main symbols and fourteen additional ones.
Z2F2_SIGMA = (
    "0", "1", "D0", "D1", "E0", "E1", "(", ")", "[", "]",
    "D0A", "D1A", "D0B", "D1B", "D0C", "D1C", "E0C", "E1C",
    "A0", "A1", "B0", "B1", "C0", "C1",
)

# Thompson's F alphabet.
F_SIGMA = ("a", "b", "#")

_Z2Z2_TOKEN = re.compile(r"C?[01]")
_Z2F2_TOKEN = re.compile(r"D[01][ABC]?|E[01]C?|[ABC][01]|[01()\[\]]")
_Z2Z2_CANON = {tok: tok for tok in Z2Z2_SIGMA}
_Z2F2_CANON = {tok: tok for tok in Z2F2_SIGMA}
# the token pairs a space must separate: plain D0/D1 before an A/B/C token and
# plain E0/E1 before a C token, which bare concatenation would munch into
# D0A, E0C, ...
_SPACED = {(p, t): p + " " for p in ("D0", "D1")
           for t in ("A0", "A1", "B0", "B1", "C0", "C1")}
_SPACED.update({(p, t): p + " " for p in ("E0", "E1") for t in ("C0", "C1")})
_NOT_F = str.maketrans("", "", "".join(F_SIGMA))


def tokenize_z2z2(text: str) -> list[str]:
    """Tokenize ASCII text over {0,1,C0,C1}; no whitespace is allowed."""
    found = _Z2Z2_TOKEN.findall(text)
    if "".join(found) != text:
        pos = 0
        while (m := _Z2Z2_TOKEN.match(text, pos)) is not None:
            pos = m.end()
        if text[pos] == "C":
            raise NotInLanguage(f"dangling 'C' at position {pos}")
        raise NotInLanguage(f"unknown symbol {text[pos]!r} at position {pos}")
    return list(map(_Z2Z2_CANON.__getitem__, found))


def tokenize_z2f2(text: str) -> list[str]:
    """Tokenize ASCII text over the 24-symbol alphabet by maximal munch.

    Whitespace separates tokens and is otherwise ignored; the renderer emits a
    space only where a plain D/E token is followed by one that bare
    concatenation would munch into it (e.g. D0 C0 versus D0C 0).
    """
    found = _Z2F2_TOKEN.findall(text)
    if "".join(found) != "".join(text.split()):
        pos = 0
        while True:
            while text[pos].isspace():
                pos += 1
            m = _Z2F2_TOKEN.match(text, pos)
            if m is None:
                raise NotInLanguage(f"unknown symbol {text[pos]!r} at position {pos}")
            pos = m.end()
    return list(map(_Z2F2_CANON.__getitem__, found))


def render_z2f2(tokens: list[str]) -> str:
    """ASCII rendering of alphabet tokens that re-tokenizes to exactly them."""
    if not tokens:
        return ""
    # each token but the last, with a space when it and its successor need one
    return "".join(map(_SPACED.get, zip(tokens, tokens[1:]), tokens)) + tokens[-1]


def tokenize_f(text: str) -> list[str]:
    """Tokenize ASCII text over {a,b,#}."""
    bad = text.translate(_NOT_F)
    if bad:
        raise NotInLanguage(f"unknown symbol {bad[0]!r} at position {text.index(bad[0])}")
    return list(text)


def render(tokens: list[str]) -> str:
    """ASCII rendering of a token sequence (inverse of the tokenizers)."""
    return "".join(tokens)
