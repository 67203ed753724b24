"""Global token alphabet, tape codes and the ASCII codec.

One enumeration of string tokens serves every group.  A tape cell holds a
token's byte code, not the token itself: `CODE` maps each symbol to its byte
and `SYMBOL` maps each byte back.  BLANK is code 0, so `bytes(k)` is k blank
cells, and BEGIN is code 1.  Every other one-character ASCII symbol is its
own ordinal, so F's text and Z2 wr Z^2's bits encode with `str.encode`.  Each
multi-character token and work symbol has a fixed code of 128 or more.
External text uses the ASCII renderings below; the renderers also take codes.

The wreath products' texts go straight to tape codes in a fixed number of C
passes, with no token list.  A Z2 wr Z^2 text is checked by one full match of
its normal-form language (`Z2Z2_NF`), so each C starts a C0 or C1.

Z2 wr F2 tokens are read by maximal munch, with whitespace between them.
Read off `_Z2F2_TOKEN`, it is a rule per cell: D and E start a token; an A,
B or C continues one exactly when the two cells before it are D and a digit
(for C, E and a digit too), else it starts one; a digit continues a token
exactly after a starting letter.  A text munches exactly when each cell is a
symbol or whitespace and each starting letter is followed by a digit.
`codes_z2f2` applies the rule with `translate`s and byte masks held as big
integers (a shift by 8 bits moves a mask one cell); `render_z2f2` writes
each token's characters into three lanes of one buffer.
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


_C0, _C1 = encode(("C0",)), encode(("C1",))
# codes_z2f2's tables.  _CELL: 1-6 for a bracket or digit, 0 for a letter or
# whitespace, 7 for any other symbol.  _LETTER: a bit per letter above those
# three.  _CONTINUES: on D and E, the bits of the letters that continue their
# token two cells on.  A cell's sum is its _CELL plus the _LETTER of a
# starting letter before it and of a continuing one after it, which is a
# token's on its digit; _Z2F2_CODES maps it to the code, any other to 0.
_CELL = bytes(b"()[]01".find(c) + 1 or 7 * (c not in _WHITESPACE + b"ABCDE") for c in range(256))
_LETTER = bytes(8 << b"CABDE".find(c) if c in b"CABDE" else 0 for c in range(256))
_CONTINUES = bytes({ord("D"): 8 | 16 | 32, ord("E"): 8}.get(c, 0) for c in range(256))
_Z2F2_CODES = bytearray(256)
# render_z2f2's lanes: each code's first, second and third character, 0 for
# none, 0xFF (no ASCII) off the alphabet.  A token with no third character
# has its class there: d, e for D0-D1, E0-E1 and a, c for A0-B1, C0-C1.  Munch
# would join a d to an a or c after it, an e to a c: such a d or e becomes S.
_FIRST, _SECOND, _THIRD = bytearray(b"\xff" * 256), bytearray(256), bytearray(256)
for _tok in Z2F2_SIGMA:
    _Z2F2_CODES[_CELL[ord(_tok[len(_tok) > 1])] + sum(_LETTER[ord(c)] for c in _tok)] = CODE[_tok]
    for _lane, _char in zip((_FIRST, _SECOND, _THIRD), _tok.encode()):
        _lane[CODE[_tok]] = _char
    if len(_tok) == 2:
        _THIRD[CODE[_tok]] = b"deaac"[b"DEABC".index(_tok[0].encode())]
_SPACE = bytes(32 if c == ord("S") else c * (c in b"ABC") for c in range(256))  # S: a space


@functools.cache
def codes_of(symbols: Collection[str]) -> bytes:
    """encode, remembered, for the constant stop sets and alphabets the
    programs pass (a tuple or frozenset)."""
    return encode(symbols)


def decode(codes: Iterable[int]) -> list[str]:
    """The symbols of tape codes, one per cell."""
    return [SYMBOL[c] for c in codes]


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
    return text.encode("ascii").replace(b"C0", _C0).replace(b"C1", _C1)


def codes_z2f2(text: str) -> bytes:
    """Tape codes of ASCII text over the 24-symbol alphabet, by maximal munch;
    whitespace separates tokens and is otherwise ignored.  The renderer emits
    a space only where munch needs one (D0 C0 versus D0C 0)."""
    try:
        codes = text.encode("ascii")
    except UnicodeEncodeError:  # whitespace as a space, other symbols as "?"
        codes = " ".join(text.split()).encode("ascii", "replace")
    letters = int.from_bytes(codes.translate(_LETTER), "little")
    cont = (int.from_bytes(codes.translate(_CONTINUES), "little") << 16) & letters
    cells = (int.from_bytes(codes.translate(_CELL), "little")
             + ((letters ^ cont) << 8) + (cont >> 8))
    codes = cells.to_bytes(len(codes) + 1, "little").translate(_Z2F2_CODES, b"\0")
    if 0 in codes:
        pos = 0
        while True:
            while text[pos].isspace():
                pos += 1
            m = _Z2F2_TOKEN.match(text, pos)
            if m is None:
                raise NotInLanguage(f"unknown symbol {text[pos]!r} at position {pos}")
            pos = m.end()
    return codes


def tokenize_z2f2(text: str) -> list[str]:
    """The tokens of codes_z2f2(text)."""
    return decode(codes_z2f2(text))


def render_z2f2(tokens) -> str:
    """ASCII rendering of alphabet tokens, or of their codes as bytes, that
    re-tokenizes to exactly them (ValueError on a code off the alphabet)."""
    codes = bytearray(tokens if isinstance(tokens, bytes) else encode(tokens))
    out = bytearray(3 * len(codes))
    out[::3] = codes.translate(_FIRST)
    out[1::3] = codes.translate(_SECOND)
    out[2::3] = codes.translate(_THIRD).replace(b"da", b"Sa").replace(
        b"dc", b"Sc").replace(b"ec", b"Sc").translate(_SPACE)
    return out.translate(None, b"\0").decode()


def render(tokens) -> str:
    """ASCII rendering of a token sequence, or of the codes as bytes of one
    over Z2 wr Z^2's or F's alphabet (inverse of the codes functions)."""
    if isinstance(tokens, bytes):
        return tokens.replace(_C0, b"C0").replace(_C1, b"C1").decode("ascii")
    return "".join(tokens)
