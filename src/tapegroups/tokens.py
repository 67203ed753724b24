"""Global token alphabet and ASCII tokenizers.

One enumeration of string tokens serves every group: tape cells hold these
tokens directly.  External text uses the ASCII renderings below.

A Z2 wr Z^2 text is checked whole by one full match of a pattern whose
language is exactly the token strings: lamp bits, then runs that each start
with C and hold at least one bit.  Its tokens are then the pieces between
the C's: each piece after a C starts with that lamplighter's bit, merged
into C0 or C1, and the rest are single bits.  CPython keeps one shared object
per one-character string, so the bits are already the alphabet's own "0" and
"1".  Only a text that fails the match is walked token by token, to name the
first bad symbol.

The Z2 wr F2 alphabet is tokenized by one compiled pattern whose `findall`
does the per-symbol work in C.  Its four alternatives begin with disjoint
sets of characters (D; E; A, B, C; the rest), and within each one the greedy
optional suffix takes the longest token, so a match at a token boundary is
the token maximal munch (longest token first) picks.  `findall` searches: it
steps over whitespace, which only separates tokens, but it would also step
over a bad symbol.  So the tokens found are compared with the text minus its
whitespace, a comparison in C; they are equal exactly when no symbol was
skipped.  Only when they differ is the text walked token by token, to name
the first bad symbol as maximal munch does.  The pattern does not consume
whitespace itself: a leading whitespace repeat would rescan a long run of
whitespace from every position in it, which is quadratic.  The tokens
returned are the alphabet's own string objects, not the fresh substrings
`findall` makes, so a long token list holds one pointer per cell and no
per-cell string.
"""

from __future__ import annotations

import re

from .errors import NotInLanguage

# Tape markers.  Unicode so they can never collide with the ASCII alphabets.
BEGIN = "⊞"  # immovable start marker at cell 0
BLANK = "⊡"  # blank cell

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
# the same language as (C?[01])*, with repeats of one character class, which
# the regex engine runs in C without a per-repeat frame
_Z2Z2_TEXT = re.compile(r"[01]*(?:C[01]+)*")
_LAMPLIGHTER = {tok[1]: tok for tok in Z2Z2_SIGMA[2:]}  # bit -> C0, C1
_Z2F2_TOKEN = re.compile(r"D[01][ABC]?|E[01]C?|[ABC][01]|[01()\[\]]")
_Z2F2_CANON = {tok: tok for tok in Z2F2_SIGMA}
# the token pairs a space must separate: plain D0/D1 before an A/B/C token and
# plain E0/E1 before a C token, which bare concatenation would munch into
# D0A, E0C, ...
_SPACED = {(p, t): p + " " for p in ("D0", "D1")
           for t in ("A0", "A1", "B0", "B1", "C0", "C1")}
_SPACED.update({(p, t): p + " " for p in ("E0", "E1") for t in ("C0", "C1")})


def tokenize_z2z2(text: str) -> list[str]:
    """Tokenize ASCII text over {0,1,C0,C1}; no whitespace is allowed."""
    if _Z2Z2_TEXT.fullmatch(text) is None:
        pos = 0
        while (m := _Z2Z2_TOKEN.match(text, pos)) is not None:
            pos = m.end()
        if text[pos] == "C":
            raise NotInLanguage(f"dangling 'C' at position {pos}")
        raise NotInLanguage(f"unknown symbol {text[pos]!r} at position {pos}")
    parts = text.split("C")
    toks = list(parts[0])
    for part in parts[1:]:
        toks.append(_LAMPLIGHTER[part[0]])
        toks += part[1:]
    return toks


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


def render(tokens: list[str]) -> str:
    """ASCII rendering of a token sequence (inverse of the tokenizers)."""
    return "".join(tokens)
