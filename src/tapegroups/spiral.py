"""Counter-clockwise square spiral enumeration of the integer lattice.

Index 1 sits at the origin; the walk visits (1,0), (1,1), (0,1), (-1,1),
(-1,0), (-1,-1), (0,-1), (1,-1), (2,-1), ...  Ring r >= 1 holds the 8r points
with max(|x|,|y|) = r, entered at its bottom-right corner (r, -(r-1)).

The plane splits into nine regions: the origin O, four corner rays L1..L4 and
four open sectors D1..D4.  Right multiplication of a spiral index by a lattice
step is a closed-form jump whose size depends only on (region, turn count);
the +a formulas follow the case analysis of the two-tape multiplier, the other
three directions use the derived table below, proved in the tests: within a
region, spiral_index of a point and of its neighbour are polynomials of
degree at most 2 in the ring and the offset along the side, so each entry is
a polynomial identity, checked exactly on a few rings and offsets per region
once the formula pieces are fixed, and point by point on the small rings.
"""

from __future__ import annotations

import math
from typing import Iterator, Tuple

Point = Tuple[int, int]

O, L1, L2, L3, L4, D1, D2, D3, D4 = "O", "L1", "L2", "L3", "L4", "D1", "D2", "D3", "D4"
REGIONS = (O, L1, L2, L3, L4, D1, D2, D3, D4)

DIRS = {"+a": (1, 0), "-a": (-1, 0), "+b": (0, 1), "-b": (0, -1)}

# Jump table: region -> (sign, kind) where kind is an int c meaning a move of
# sign * (8i + c) for turn count i, or the string "one" for a single step.
# Only the +a column is given by the source case analysis; the rest were
# found with the walker and are proved in tests/test_spiral.py.
JUMPS = {
    "+a": {O: (+1, "one"), L1: (+1, 9), D1: (+1, 9), L2: (+1, 9),
           D2: (-1, "one"), L3: (-1, "one"), D3: (-1, 5), L4: (+1, "one"), D4: (+1, "one")},
    "-a": {O: (+1, 5), L1: (-1, "one"), D1: (-1, 1), L2: (+1, "one"),
           D2: (+1, "one"), L3: (+1, 13), D3: (+1, 13), L4: (+1, 13), D4: (-1, "one")},
    "+b": {O: (+1, 3), L1: (+1, "one"), D1: (+1, "one"), L2: (+1, 11),
           D2: (+1, 11), L3: (+1, 11), D3: (-1, "one"), L4: (-1, "one"), D4: (-1, 7)},
    "-b": {O: (+1, 7), L1: (+1, 7), D1: (-1, "one"), L2: (-1, "one"),
           D2: (-1, 3), L3: (+1, "one"), D3: (+1, "one"), L4: (+1, 15), D4: (+1, 15)},
}


def classify(p: Point) -> str:
    """The unique region containing p."""
    x, y = p
    if x == 0 and y == 0:
        return O
    if x > 0 and y == -(x - 1):
        return L1
    if x > 0 and y == x:
        return L2
    if y > 0 and y == -x:
        return L3
    if x < 0 and y == x:
        return L4
    if x > 1 and -(x - 1) < y < x:
        return D1
    if y > 0 and -y < x < y:
        return D2
    if x < 0 and x < y < -x:
        return D3
    if y < 0 and y < x < -y + 1:
        return D4
    raise AssertionError(f"unclassifiable point {p}")  # regions partition Z^2


def _ring_start(r: int) -> int:
    # ring r begins at index of (r, -(r-1)); ring sizes 8, 16, 24, ...
    return 2 + 4 * r * (r - 1)


def _ring_of_index(k: int) -> int:
    if k == 1:
        return 0
    # ring r starts at 2 + 4r(r-1) <= k exactly when (2r-1)^2 <= k-1
    return (1 + math.isqrt(k - 1)) // 2


def spiral_point(k: int) -> Point:
    """The k-th vertex of the spiral (k >= 1), in O(1) ring arithmetic."""
    if k < 1:
        raise ValueError("spiral indices start at 1")
    if k == 1:
        return (0, 0)
    r = _ring_of_index(k)
    d = k - _ring_start(r)
    if d <= 2 * r - 1:                      # right column, upward
        return (r, -(r - 1) + d)
    if d <= 4 * r - 1:                      # top row, leftward
        return (r - (d - (2 * r - 1)), r)
    if d <= 6 * r - 1:                      # left column, downward
        return (-r, r - (d - (4 * r - 1)))
    return (-r + (d - (6 * r - 1)), -r)     # bottom row, rightward


def spiral_index(p: Point) -> int:
    """The unique k with spiral_point(k) == p."""
    x, y = p
    if x == 0 and y == 0:
        return 1
    r = max(abs(x), abs(y))
    if x == r and y >= -(r - 1):
        d = y + r - 1
    elif y == r:
        d = (2 * r - 1) + (r - x)
    elif x == -r:
        d = (4 * r - 1) + (r - y)
    else:
        d = (6 * r - 1) + (x + r)
    return _ring_start(r) + d


def turn_count(k: int) -> int:
    """Completed turns around the origin before index k (0 below index 10)."""
    if k < 1:
        raise ValueError("spiral indices start at 1")
    r = _ring_of_index(k)
    return max(r - 1, 0)


def neighbor_index(k: int, direction: str) -> int:
    """Index of spiral_point(k) + direction, via the jump table."""
    sign, kind = JUMPS[direction][classify(spiral_point(k))]
    if kind == "one":
        k2 = k + sign
    else:
        k2 = k + sign * (8 * turn_count(k) + kind)
    if k2 < 1:
        raise ValueError(f"neighbor of {k} in {direction} leaves the spiral")
    return k2


def walk(n: int) -> Iterator[Point]:
    """Brute-force spiral walker; the oracle the closed forms are tested against."""
    x = y = 0
    yield (x, y)
    produced = 1
    r = 1
    while produced < n:
        x += 1  # enter ring r at its bottom-right corner (r, -(r-1))
        yield (x, y)
        produced += 1
        for dx, dy, steps in ((0, 1, 2 * r - 1), (-1, 0, 2 * r), (0, -1, 2 * r), (1, 0, 2 * r)):
            for _ in range(steps):
                if produced >= n:
                    return
                x += dx
                y += dy
                yield (x, y)
                produced += 1
        r += 1
