"""Independent algebraic models of the three groups.

These are the ground truth every differential test compares against, so they
share no code with the normal-form machinery: wreath products are (lamp set,
position) pairs updated by the defining formulas, and Thompson's group acts by
exact dyadic piecewise-linear homeomorphisms of [0,1].

For F the two sides of the check are computed differently.  `pl_mul_gen`
composes the fixed maps of x0 and x1 onto the element, one generator at a
time; `pl_eval_normalform` reads the map of a normal form off its tree-pair
diagram in one pass, with no composition.  A program's output is accepted
only when the two agree.

Dyadic rationals are (odd-or-zero numerator, exponent) pairs meaning n / 2**e,
with arbitrary-precision integers; breakpoint denominators grow with word
length and must never overflow or round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from .errors import NotInLanguage

# ---------------------------------------------------------------------------
# dyadic rationals as (numerator, exponent) with numerator odd or zero


def dy(n: int, e: int = 0) -> Tuple[int, int]:
    if n == 0:
        return (0, 0)
    k = (n & -n).bit_length() - 1  # trailing zero bits
    return (n >> k, e - k)


def dy_add(a, b):
    na, ea = a
    nb, eb = b
    if ea == eb:
        return dy(na + nb, ea)
    if ea > eb:
        return dy(na + (nb << (ea - eb)), ea)
    return dy((na << (eb - ea)) + nb, eb)


def dy_sub(a, b):
    return dy_add(a, (-b[0], b[1]))


def dy_mul(a, b):
    return dy(a[0] * b[0], a[1] + b[1])


def dy_shift(a, s: int):
    """a * 2**s"""
    if a[0] == 0:
        return a
    return (a[0], a[1] - s)


def dy_cmp(a, b) -> int:
    d = dy_sub(a, b)[0]
    return (d > 0) - (d < 0)


DY0 = (0, 0)
DY1 = (1, 0)

# ---------------------------------------------------------------------------
# wreath product oracles

Z2Point = Tuple[int, int]


@dataclass(frozen=True)
class LampConfigZ2:
    """Element of Z2 wr Z^2: finitely many lit lamps plus the lamplighter."""

    lit: frozenset
    pos: Z2Point


@dataclass(frozen=True)
class LampConfigF2:
    """Element of Z2 wr F2: lamps and lamplighter are freely reduced words."""

    lit: frozenset
    pos: str


IDENTITY_Z2 = LampConfigZ2(frozenset(), (0, 0))
IDENTITY_F2 = LampConfigF2(frozenset(), "")

_F2_INV = {"a": "A", "A": "a", "b": "B", "B": "b"}
_Z2_STEP = {"a": (1, 0), "a-": (-1, 0), "b": (0, 1), "b-": (0, -1)}
_F2_STEP = {"a": "a", "a-": "A", "b": "b", "b-": "B"}


def f2_is_reduced(word: str) -> bool:
    return all(_F2_INV[x] != y for x, y in zip(word, word[1:]))


def f2_mul_letter(word: str, letter: str) -> str:
    """Right-multiply a reduced word by one letter, with free cancellation."""
    if word and _F2_INV[word[-1]] == letter:
        return word[:-1]
    return word + letter


def f2_reduce(word: str) -> str:
    out: list[str] = []
    for ch in word:
        if out and _F2_INV[out[-1]] == ch:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def wreath_mul_gen(config, gen: str):
    """Right multiplication by a generator: a, a-, b, b- move the lamplighter,
    c toggles the lamp under it."""
    if isinstance(config, LampConfigZ2):
        if gen == "c":
            lit = set(config.lit)
            lit.symmetric_difference_update({config.pos})
            return LampConfigZ2(frozenset(lit), config.pos)
        dx, dy_ = _Z2_STEP[gen]
        return LampConfigZ2(config.lit, (config.pos[0] + dx, config.pos[1] + dy_))
    if isinstance(config, LampConfigF2):
        if gen == "c":
            lit = set(config.lit)
            lit.symmetric_difference_update({config.pos})
            return LampConfigF2(frozenset(lit), config.pos)
        return LampConfigF2(config.lit, f2_mul_letter(config.pos, _F2_STEP[gen]))
    raise TypeError(f"not a lamp configuration: {config!r}")


# ---------------------------------------------------------------------------
# Thompson's group F as dyadic PL homeomorphisms


class DyadicPL:
    """Increasing PL homeomorphism of [0,1] with dyadic breakpoints and
    power-of-two slopes, in canonical form (no collinear middle breakpoints)."""

    __slots__ = ("pts",)

    def __init__(self, pts: Iterable[Tuple[Tuple[int, int], Tuple[int, int]]],
                 _canonical: bool = False):
        pts = tuple(pts)
        if not _canonical:
            pts = _canonicalize(pts)
        self.pts = pts

    def __eq__(self, other) -> bool:
        return isinstance(other, DyadicPL) and self.pts == other.pts

    def __hash__(self) -> int:
        return hash(self.pts)

    def __repr__(self) -> str:
        def fmt(d):
            n, e = d
            return f"{n}/2^{e}" if e > 0 else str(n * (1 << -e) if n else 0)
        return "DyadicPL[" + ", ".join(f"({fmt(x)},{fmt(y)})" for x, y in self.pts) + "]"

    def __call__(self, x: Tuple[int, int]) -> Tuple[int, int]:
        pts = self.pts
        lo, hi = 0, len(pts) - 1
        while lo + 1 < hi:  # rightmost breakpoint with x_i <= x
            mid = (lo + hi) // 2
            if dy_cmp(pts[mid][0], x) <= 0:
                lo = mid
            else:
                hi = mid
        (x1, y1), (x2, y2) = pts[lo], pts[lo + 1]
        s = _slope_exp(x1, y1, x2, y2)
        return dy_add(y1, dy_shift(dy_sub(x, x1), s))

    def inverse(self) -> "DyadicPL":
        return DyadicPL(tuple((y, x) for x, y in self.pts), _canonical=True)

    def breakpoints(self):
        return self.pts


def _slope_exp(x1, y1, x2, y2) -> int:
    rise = dy_sub(y2, y1)
    run = dy_sub(x2, x1)
    if rise[0] != run[0]:
        raise NotInLanguage("segment slope is not a power of two")
    return run[1] - rise[1]


def _canonicalize(pts):
    if len(pts) < 3:
        return tuple(pts)
    out = [pts[0]]
    for i in range(1, len(pts) - 1):
        x1, y1 = out[-1]
        x2, y2 = pts[i]
        x3, y3 = pts[i + 1]
        lhs = dy_mul(dy_sub(y2, y1), dy_sub(x3, x2))
        rhs = dy_mul(dy_sub(y3, y2), dy_sub(x2, x1))
        if lhs != rhs:
            out.append(pts[i])
    out.append(pts[-1])
    return tuple(out)


PL_IDENTITY = DyadicPL(((DY0, DY0), (DY1, DY1)), _canonical=True)


def pl_compose(f: DyadicPL, g: DyadicPL) -> DyadicPL:
    """Canonical map x -> g(f(x)), exact arithmetic throughout.

    One sweep over the middle coordinate u = f(x): the breakpoints of the
    composite lie over f's breakpoint values and g's breakpoints, taken in
    increasing order; each is pulled back through the current piece of f and
    pushed forward through the current piece of g.
    """
    fp, gp = f.pts, g.pts
    i = j = 0  # current pieces: fp[i]..fp[i+1] and gp[j]..gp[j+1]
    pts = [(DY0, DY0)]
    while i + 2 < len(fp) or j + 2 < len(gp):
        (x0, y0), (x1, y1) = fp[i], fp[i + 1]
        (u0, v0), (u1, v1) = gp[j], gp[j + 1]
        c = dy_cmp(y1, u1)
        if c <= 0:
            x, u = x1, y1
            i += 1
        else:
            u = u1
            x = dy_add(x0, dy_shift(dy_sub(u, y0), -_slope_exp(x0, y0, x1, y1)))
        if c >= 0:
            z = v1
            j += 1
        else:
            z = dy_add(v0, dy_shift(dy_sub(u, u0), _slope_exp(u0, v0, u1, v1)))
        pts.append((x, z))
    pts.append((DY1, DY1))
    return DyadicPL(pts)


def pl_generator(which: str, sign: int) -> DyadicPL:
    """The fixed PL realizations of the two standard generators.

    x0 has breakpoints (0,0),(1/2,1/4),(3/4,1/2),(1,1); x1 is the identity on
    [0,1/2] with x0 rescaled into [1/2,1].  sign -1 returns the exact inverse.
    """
    if which not in ("x0", "x1"):
        raise ValueError(f"unknown generator {which!r}")
    return pl_letter(int(which[1]), sign)


def _nice_generator(i: int) -> DyadicPL:
    # identity on [0, 1 - 2**-i], then x0 squeezed into the final interval
    x0 = ((DY0, DY0), (dy(1, 1), dy(1, 2)), (dy(3, 2), dy(1, 1)), (DY1, DY1))
    if i == 0:
        return DyadicPL(x0, _canonical=True)
    left = dy_sub(DY1, dy(1, i))  # 1 - 2**-i
    pts = [(DY0, DY0), (left, left)]
    for x, y in x0[1:]:
        sx = dy_add(left, dy_shift(x, -i))
        sy = dy_add(left, dy_shift(y, -i))
        pts.append((sx, sy))
    return DyadicPL(tuple(pts), _canonical=True)


def pl_letter(index: int, sign: int) -> DyadicPL:
    """PL map of the infinite-presentation generator with the given index."""
    m = _nice_generator(index)
    return m.inverse() if sign < 0 else m


def _parse_blocks(u: str):
    # independent minimal parser: a^r b^s blocks separated by '#'
    blocks = []
    for block in u.split("#"):
        r = s = 0
        i = 0
        while i < len(block) and block[i] == "a":
            r += 1
            i += 1
        while i < len(block) and block[i] == "b":
            s += 1
            i += 1
        if i != len(block):
            raise NotInLanguage(f"malformed block {block!r}")
        blocks.append((r, s))
    return blocks


def _tree_leaves(exps) -> Tuple[list, int]:
    """Leaves of the tree whose leaf exponents are `exps`, then zeros.

    The tree is a right spine; its hanging subtree j covers
    [1 - 2**-j, 1 - 2**-(j+1)].  A leaf's exponent is the number of carets
    whose leftmost leaf it is, so reading the exponents in order builds each
    hanging subtree in preorder: split the current interval e times to the
    left, keep the right halves on a stack, and take the next leaf from the
    stack or, once it is empty, from the next hanging subtree.  A leaf is
    (num, depth), the interval [num, num + 1] / 2**depth.  Returns the leaves
    of the hanging subtrees and their count; the last leaf of the spine is
    left to the caller.
    """
    leaves = []
    stack = []
    j = 0
    for e in exps:
        if stack:
            num, d = stack.pop()
        else:
            num, d = (1 << (j + 1)) - 2, j + 1
            j += 1
        for _ in range(e):
            num <<= 1
            d += 1
            stack.append((num + 1, d))
        leaves.append((num, d))
    leaves.extend(reversed(stack))
    return leaves, j


def _pad_leaves(leaves: list, j: int, count: int) -> list:
    # more spine: single-leaf subtrees j, j+1, ..., then the last spine leaf
    while len(leaves) < count - 1:
        leaves.append(((1 << (j + 1)) - 2, j + 1))
        j += 1
    leaves.append(((1 << j) - 1, j))
    return leaves


def pl_eval_normalform(u: str) -> DyadicPL:
    """The PL map of the group element a block string denotes.

    The string a^r0 b^s0 # ... # a^rM b^sM is x0^r0 ... xM^rM xM^-sM ... x0^-s0
    (the first letter is the outermost map), read off its tree-pair diagram
    in one pass: r gives the leaf exponents of the range tree and s those of
    the domain tree, and the map sends leaf k of the domain tree linearly
    onto leaf k of the range tree.  A breakpoint is emitted only where the
    slope changes, so the result is canonical as built.  Any a^r b^s blocks
    are accepted, reduced normal form or not.
    """
    blocks = _parse_blocks(u)
    dom, jd = _tree_leaves([s for _, s in blocks])
    ran, jr = _tree_leaves([r for r, _ in blocks])
    count = max(len(dom), len(ran)) + 1
    pts = [(DY0, DY0)]
    slope = None
    for (xn, xd), (yn, yd) in zip(_pad_leaves(dom, jd, count), _pad_leaves(ran, jr, count)):
        if xd - yd != slope:
            if slope is not None:
                pts.append((dy(xn, xd), dy(yn, yd)))
            slope = xd - yd
    pts.append((DY1, DY1))
    return DyadicPL(pts, _canonical=True)


def pl_mul_gen(elem: DyadicPL, gen: str) -> DyadicPL:
    """Right multiplication by x0/x1 (suffix '-' for inverse): the generator
    map is applied first, the accumulated element after it."""
    which, sign = (gen[:-1], -1) if gen.endswith("-") else (gen, +1)
    return pl_compose(pl_generator(which, sign), elem)
