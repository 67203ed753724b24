"""Exact point evaluation of elements of Thompson's group F.

This is the benchmark's own check on F outputs.  It shares no code with the
program: it parses the block normal form itself and evaluates the piecewise-
linear map of an element exactly, letter by letter, at chosen dyadic points
given and returned as `fractions.Fraction`.  The full PL map
(`oracle_groups.pl_eval_normalform`) is far too slow for normal forms of
2**14 symbols; a handful of points, spread over [0, 1] and crowded towards 1
where the high-index generators act, are cheap.

Conventions match the package: the normal form a^r0 b^s0 # ... # a^rM b^sM is
the element x0^r0 x1^r1 ... xM^rM xM^-sM ... x0^-s0, the first letter of a
word is the outermost map, and x_i is the identity on [0, 1 - 2**-i] with x0
rescaled into [1 - 2**-i, 1].
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Sequence, Tuple

# Inside, a point is kept as its distance to 1, y = Y / 2**E with integers
# Y, E and no normalisation, so a letter costs a few shifts and additions
# instead of the gcd a Fraction pays on every operation.


def _active(Y: int, E: int, index: int) -> bool:
    """Whether y = Y / 2**E <= 2**-index, where x_index moves the point."""
    top = Y.bit_length() + index - 1  # Y * 2**index lies in [2**top, 2**(top+1))
    return top < E or (top == E and Y & (Y - 1) == 0)


def _letter(Y: int, E: int, index: int, sign: int) -> Tuple[int, int]:
    """x_index^sign on an active point.  In the local coordinate
    u = 2**index * y = Y / 2**F, x0 maps u >= 1/2 to (1 + u)/2, [1/4, 1/2) to
    u + 1/4 and u < 1/4 to 2u; the inverse maps u >= 3/4 to 2u - 1, [1/2, 3/4)
    to u - 1/4 and u < 1/2 to u/2."""
    F = E - index
    if F < 2:
        Y <<= 2 - F
        F = 2
    q = Y >> (F - 2)  # floor(4u)
    if sign > 0:
        if q >= 2:
            Y, F = Y + (1 << F), F + 1
        elif q == 1:
            Y += 1 << (F - 2)
        else:
            F -= 1
    elif q >= 3:
        Y = (Y << 1) - (1 << F)
    elif q == 2:
        Y -= 1 << (F - 2)
    else:
        F += 1
    return Y, F + index


def _to_distance(x: Fraction) -> Tuple[int, int]:
    y = 1 - Fraction(x)
    d = y.denominator
    if not 0 <= y <= 1 or d & (d - 1):
        raise ValueError(f"{x} is not a dyadic point of [0, 1]")
    return y.numerator, d.bit_length() - 1


def _from_distance(Y: int, E: int) -> Fraction:
    return 1 - Fraction(Y, 1 << E)


def apply_letter(x: Fraction, index: int, sign: int) -> Fraction:
    """The image of x under x_index (sign +1) or its inverse (sign -1)."""
    Y, E = _to_distance(x)
    if _active(Y, E, index):
        Y, E = _letter(Y, E, index, sign)
    return _from_distance(Y, E)


def parse_blocks(nf: str) -> List[Tuple[int, int]]:
    """Exponent pairs (r_i, s_i) of a block normal form; [] for the identity."""
    if nf == "":
        return []
    blocks = []
    for block in nf.split("#"):
        r = len(block) - len(block.lstrip("a"))
        s = len(block) - r
        if block[r:] != "b" * s:
            raise ValueError(f"malformed block {block!r}")
        blocks.append((r, s))
    return blocks


def eval_nf(nf: str, x: Fraction) -> Fraction:
    """The image of x under the element a normal form denotes."""
    return _eval_blocks(parse_blocks(nf), x)


def eval_nf_at(nf: str, xs: Sequence[Fraction]) -> List[Fraction]:
    """The images of the points xs, parsing the normal form once."""
    blocks = parse_blocks(nf)
    return [_eval_blocks(blocks, x) for x in xs]


def _eval_blocks(blocks: List[Tuple[int, int]], x: Fraction) -> Fraction:
    Y, E = _to_distance(x)
    # the rightmost letters act first: x0^-s0, x1^-s1, ... up to the first
    # index that leaves the point alone, and so does every higher one
    for i, (_r, s) in enumerate(blocks):
        if not _active(Y, E, i):
            break
        for _ in range(s):
            if _active(Y, E, i):
                Y, E = _letter(Y, E, i, -1)
    # then xM^rM, ..., x0^r0, from the highest index that can act
    top = min(len(blocks) - 1, E - Y.bit_length() + 1)
    for i in range(top, -1, -1):
        for _ in range(blocks[i][0]):
            if _active(Y, E, i):
                Y, E = _letter(Y, E, i, +1)
    return _from_distance(Y, E)


_GEN = {"x0": (0, +1), "x0-": (0, -1), "x1": (1, +1), "x1-": (1, -1)}


def eval_word(word: Sequence[str], x: Fraction) -> Fraction:
    """The image of x under the product of a generator word."""
    Y, E = _to_distance(x)
    for gen in reversed(word):
        index, sign = _GEN[gen]
        if _active(Y, E, index):
            Y, E = _letter(Y, E, index, sign)
    return _from_distance(Y, E)


def sample_points(rng: random.Random, depth: int, spread: int = 6,
                  near_one: int = 10, even: int = 4) -> List[Fraction]:
    """Dyadic points: `spread` over (0, 1), and `near_one` in [1 - 2**-d, 1),
    where generators of index up to d act, for depths d up to `depth`: the
    two deepest, `even` depths spaced evenly below them and the rest at
    random depths.  The deepest points see an error confined to the last
    blocks of a long normal form, which random depths mostly miss."""
    pts = [Fraction(2 * rng.randrange(1 << 19) + 1, 1 << 20) for _ in range(spread)]
    depth = max(1, depth)
    depths = [depth, max(1, depth - 1)]
    depths += [max(1, depth * k // (even + 1)) for k in range(1, even + 1)]
    depths = depths[:near_one]
    depths += [rng.randint(1, depth) for _ in range(near_one - len(depths))]
    for d in depths:
        pts.append(1 - Fraction(2 * rng.randrange(1 << 9) + 1, 1 << (d + 10)))
    return pts
