"""Global token alphabet, tape codes and ASCII tokenizers.

One enumeration of string tokens serves every group.  A tape cell holds a
token's byte code, not the token itself: `CODE` maps each symbol to its byte
and `SYMBOL` maps each byte back.  BLANK is code 0, so `bytes(k)` is k blank
cells, and BEGIN is code 1.  Every other one-character ASCII symbol is its
own ordinal, so F's text and Z2 wr Z^2's bits encode with `str.encode`.  Each
multi-character token and work symbol has a fixed code of 128 or more.
External text uses the ASCII renderings below; the renderers also take codes.

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

import functools
import re
from typing import Collection, Iterable

from .errors import InvalidInput, NotInLanguage

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

# Work symbols the programs write on tape 2: Z2 wr F2's marked stack tops and
# F's convolution cells of the b^R counter over the #^M track.
WORK_SYMBOLS = ("(*", "[*", ")*", "]*", "b#", "_#", "b_")

# The tape code table.  Codes 2-127 are the one-character ASCII symbols.
CODE = {BLANK: 0, BEGIN: 1, **{chr(c): c for c in range(2, 128)}}
CODE.update((tok, code) for code, tok in enumerate(
    dict.fromkeys(t for t in Z2F2_SIGMA + WORK_SYMBOLS if len(t) > 1), 128))
SYMBOL = tuple(map({code: sym for sym, code in CODE.items()}.get, range(256)))

_Z2Z2_TOKEN = re.compile(r"C?[01]")
# the same language as (C?[01])*, with repeats of one character class, which
# the regex engine runs in C without a per-repeat frame
_Z2Z2_TEXT = re.compile(r"[01]*(?:C[01]+)*")
_LAMPLIGHTER = {tok[1]: tok for tok in Z2Z2_SIGMA[2:]}  # bit -> C0, C1
_Z2F2_TOKEN = re.compile(r"D[01][ABC]?|E[01]C?|[ABC][01]|[01()\[\]]")
_Z2F2_CANON = {tok: tok for tok in Z2F2_SIGMA}


def encode(symbols: Iterable[str]) -> bytes:
    """Tape codes of a str of one-character symbols or of a token sequence.

    An ASCII str is encoded in C; anything else is mapped through CODE.
    Raises InvalidInput on a symbol with no code.
    """
    if isinstance(symbols, str) and symbols.isascii():
        codes = symbols.encode("ascii")
        if 0 not in codes and 1 not in codes:  # NUL and SOH have no code
            return codes
    try:
        return bytes(map(CODE.__getitem__, symbols))
    except KeyError as exc:
        raise InvalidInput(f"symbol {exc.args[0]!r} has no tape code") from None


# the token pairs a space must separate: plain D0/D1 before an A/B/C token and
# plain E0/E1 before a C token, which bare concatenation would munch into
# D0A, E0C, ...  On codes, one branch per first token: every branch starts
# with a literal, so the regex engine finds the candidates in C.
_AFTER_D = ("A0", "A1", "B0", "B1", "C0", "C1")
_SPACED = re.compile(b"|".join(
    b"%s(?=[%s])" % (re.escape(encode((p,))), re.escape(encode(after)))
    for p, after in (("D0", _AFTER_D), ("D1", _AFTER_D), ("E0", _AFTER_D[4:]),
                     ("E1", _AFTER_D[4:]))))
# the code and text of each multi-character token of Z2 wr Z^2 and Z2 wr F2
_TEXTS_Z2Z2 = tuple((encode((t,)), t.encode()) for t in Z2Z2_SIGMA[2:])
_TEXTS_Z2F2 = tuple((encode((t,)), t.encode()) for t in Z2F2_SIGMA if len(t) > 1)


def _space_after(m: re.Match) -> bytes:
    return m[0] + b" "


@functools.cache
def codes_of(symbols: Collection[str]) -> bytes:
    """encode, remembered, for the constant stop sets and alphabets the
    programs pass (a tuple or frozenset)."""
    return encode(symbols)


def decode(codes: Iterable[int]) -> list[str]:
    """The symbols of tape codes, one per cell."""
    return list(map(SYMBOL.__getitem__, codes))


def _render_codes(codes: bytes, texts) -> str:
    for code, text in texts:
        codes = codes.replace(code, text)
    return codes.decode("ascii")


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


def render_z2f2(tokens) -> str:
    """ASCII rendering of alphabet tokens, or of their codes as bytes, that
    re-tokenizes to exactly them."""
    codes = tokens if isinstance(tokens, bytes) else encode(tokens)
    return _render_codes(_SPACED.sub(_space_after, codes), _TEXTS_Z2F2)


def render(tokens) -> str:
    """ASCII rendering of a token sequence, or of the codes as bytes of one
    over Z2 wr Z^2's or F's alphabet (inverse of the tokenizers)."""
    if isinstance(tokens, bytes):
        return _render_codes(tokens, _TEXTS_Z2Z2)
    return "".join(tokens)
