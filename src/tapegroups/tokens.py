"""Global token alphabet, tape codes and the ASCII codec.

One enumeration of string tokens serves every group.  A tape cell holds a
token's byte code, not the token itself: `CODE` maps each symbol to its byte
and `SYMBOL` maps each byte back.  BLANK is code 0, so `bytes(k)` is k blank
cells, and BEGIN is code 1.  Every other one-character ASCII symbol is its
own ordinal, so F's text and Z2 wr Z^2's bits encode with `str.encode`.  Each
multi-character token and work symbol has a fixed code of 128 or more.
External text uses the ASCII renderings below; the renderers also take codes.

The wreath products' texts go straight to tape codes (`codes_z2z2`,
`codes_z2f2`) in C, with no token list: the text is ASCII-encoded and each
multi-character token replaced by its code, one `bytes.replace` per token.
The tokenizer decodes those codes.  A Z2 wr Z^2 text is first checked by
one full match of its normal-form language (`Z2Z2_NF`), so each C starts a
C0 or C1 and the codes are a normal form's.

A Z2 wr F2 text is tokenized by maximal munch (longest token first), with
whitespace between tokens.  Replacing the eight three-character tokens and
then the ten two-character ones is that munch, because D and E only start a
token, and A, B and C appear only first in [ABC][01] or third in D[01][ABC]
and E[01]C: a token occurrence overlaps another only inside a longer one,
which is replaced first.  Then one `translate` checks that only one-character
tokens, codes and whitespace are left (non-ASCII whitespace counts as a
space), and another deletes the whitespace.  Only a text that fails the check
is walked token by token, to name the first bad symbol as maximal munch does.
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

# Z2 wr Z^2's normal forms: lamp bits, the C-token, and either nothing or
# lamp bits that end in a lit lamp.  A bit is never a C, so the first run is
# possessive: a failing match retries none of its shorter runs
Z2Z2_NF = re.compile(r"[01]*+C[01](?:[01]*1)?")
# the longest prefix of tokens, (C?[01])*, with runs of one character class,
# which the regex engine repeats in C without a per-repeat frame
_Z2Z2_TOKENS = re.compile(r"[01]*+(?:C[01]++)*+").match
_Z2F2_TOKEN = re.compile(r"D[01][ABC]?|E[01]C?|[ABC][01]|[01()\[\]]")
# the ASCII characters str.isspace accepts, which separate Z2 wr F2 tokens
_WHITESPACE = bytes(c for c in range(128) if chr(c).isspace())


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
# the code and text of each multi-character token of Z2 wr Z^2 and Z2 wr F2,
# and each text and code, for maximal munch the three-character ones first
_TEXTS_Z2Z2 = tuple((encode((t,)), t.encode()) for t in Z2Z2_SIGMA[2:])
_TEXTS_Z2F2 = tuple((encode((t,)), t.encode()) for t in Z2F2_SIGMA if len(t) > 1)
_CODES_Z2Z2 = tuple((t, c) for c, t in _TEXTS_Z2Z2)
_CODES_Z2F2 = sorted(((t, c) for c, t in _TEXTS_Z2F2), key=lambda tc: -len(tc[0]))
_CELLS_Z2F2 = encode(Z2F2_SIGMA) + _WHITESPACE  # what the munched text may hold


def _space_after(m: re.Match) -> bytes:
    return m[0] + b" "


@functools.cache
def codes_of(symbols: Collection[str]) -> bytes:
    """encode, remembered, for the constant stop sets and alphabets the
    programs pass (a tuple or frozenset)."""
    return encode(symbols)


def decode(codes: Iterable[int]) -> list[str]:
    """The symbols of tape codes, one per cell."""
    return [SYMBOL[c] for c in codes]


def _replace(data: bytes, pairs) -> bytes:
    for old, new in pairs:
        data = data.replace(old, new)
    return data


def codes_z2z2(text: str) -> bytes:
    """Tape codes of a normal form of Z2 wr Z^2, ASCII text over {0,1,C0,C1}
    with no whitespace.  Raises NotInLanguage naming the first fault: a
    symbol that starts no token, then an empty text, a lamplighter count
    other than one, or a trailing 0."""
    if Z2Z2_NF.fullmatch(text) is None:
        pos = _Z2Z2_TOKENS(text).end()
        if pos < len(text):
            if text[pos] == "C":
                raise NotInLanguage(f"dangling 'C' at position {pos}")
            raise NotInLanguage(f"unknown symbol {text[pos]!r} at position {pos}")
        if not text:
            raise NotInLanguage("normal form is non-empty (identity is 'C0')")
        if (marks := text.count("C")) != 1:
            raise NotInLanguage(f"expected exactly one lamplighter token, found {marks}")
        raise NotInLanguage("trailing 0 padding is not allowed")
    return _replace(text.encode("ascii"), _CODES_Z2Z2)


def codes_z2f2(text: str) -> bytes:
    """Tape codes of ASCII text over the 24-symbol alphabet, by maximal munch.

    Whitespace separates tokens and is otherwise ignored; the renderer emits a
    space only where a plain D/E token is followed by one that bare
    concatenation would munch into it (e.g. D0 C0 versus D0C 0).
    """
    try:
        codes = text.encode("ascii")
    except UnicodeEncodeError:  # whitespace as a space, other symbols as "?"
        codes = " ".join(text.split()).encode("ascii", "replace")
    codes = _replace(codes, _CODES_Z2F2)
    if codes.translate(None, _CELLS_Z2F2):
        pos = 0
        while True:
            while text[pos].isspace():
                pos += 1
            m = _Z2F2_TOKEN.match(text, pos)
            if m is None:
                raise NotInLanguage(f"unknown symbol {text[pos]!r} at position {pos}")
            pos = m.end()
    return codes.translate(None, _WHITESPACE)


def tokenize_z2f2(text: str) -> list[str]:
    """The tokens of codes_z2f2(text)."""
    return decode(codes_z2f2(text))


def render_z2f2(tokens) -> str:
    """ASCII rendering of alphabet tokens, or of their codes as bytes, that
    re-tokenizes to exactly them."""
    codes = tokens if isinstance(tokens, bytes) else encode(tokens)
    return _replace(_SPACED.sub(_space_after, codes), _TEXTS_Z2F2).decode("ascii")


def render(tokens) -> str:
    """ASCII rendering of a token sequence, or of the codes as bytes of one
    over Z2 wr Z^2's or F's alphabet (inverse of the codes functions)."""
    if isinstance(tokens, bytes):
        return _replace(tokens, _TEXTS_Z2Z2).decode("ascii")
    return "".join(tokens)
