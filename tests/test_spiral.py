import random

import pytest

from tapegroups import spiral

WALK = list(spiral.walk(120000))
INDEX = {p: k for k, p in enumerate(WALK, start=1)}


def test_first_vertices():
    assert WALK[:10] == [(0, 0), (1, 0), (1, 1), (0, 1), (-1, 1),
                         (-1, 0), (-1, -1), (0, -1), (1, -1), (2, -1)]


def test_origin_and_examples():
    assert spiral.spiral_point(1) == (0, 0)
    assert spiral.spiral_point(2) == (1, 0)
    assert spiral.spiral_point(3) == (1, 1)
    assert spiral.spiral_point(10) == (2, -1)
    assert spiral.spiral_point(27) == (3, -1)
    assert spiral.spiral_index((0, 0)) == 1
    assert spiral.spiral_index((2, -1)) == 10
    assert spiral.spiral_index((-1, 0)) == 6


def test_classify_examples():
    assert spiral.classify((0, 0)) == "O"
    assert spiral.classify((2, -1)) == "L1"
    assert spiral.classify((1, -1)) == "D4"


def test_partition_is_exact():
    for x in range(-200, 201):
        for y in range(-200, 201):
            spiral.classify((x, y))  # raises if no region matches


def test_point_index_inverse_against_walker():
    for k, p in enumerate(WALK, start=1):
        assert spiral.spiral_point(k) == p
        assert spiral.spiral_index(p) == k


def test_turn_count_examples():
    assert spiral.turn_count(1) == 0
    assert spiral.turn_count(9) == 0
    assert spiral.turn_count(10) == 1
    assert spiral.turn_count(25) == 1
    assert spiral.turn_count(26) == 2


def test_turn_count_matches_marker_points():
    # k_j is the index of (j+1, -j); between k_j and k_{j+1} the count is j
    for j in range(1, 120):
        kj = spiral.spiral_index((j + 1, -j))
        assert spiral.turn_count(kj) == j
        assert spiral.turn_count(kj - 1) == j - 1


def test_neighbor_examples():
    assert spiral.neighbor_index(7, "+a") == 8
    assert spiral.neighbor_index(6, "+a") == 1
    assert spiral.neighbor_index(10, "+a") == 27


def test_jump_table_sound_on_sample():
    rng = random.Random(0)
    ks = list(range(1, 3000)) + [rng.randint(1, 110000) for _ in range(4000)]
    for k in ks:
        p = WALK[k - 1]
        for d, (dx, dy) in spiral.DIRS.items():
            q = (p[0] + dx, p[1] + dy)
            assert spiral.neighbor_index(k, d) == INDEX[q], (k, p, d)


# The proof of the jump table.  At lattice points, classify(p) and the branch
# of spiral_index taken at p and at its neighbour q = p + step depend only on
# the signs of x - y, x + y and x + y - 1 at p and at q: the first two pick
# which of x, y, -x, -y is r = max(|x|, |y|).  Where those signs are fixed,
# spiral_index(p) and spiral_index(q) are polynomials of degree at most 2 in
# (x, y), and so is a table entry's claim sign * (8i + c) with i = r - 1.
_FORMS = ((1, -1, 0), (1, 1, 0), (1, 1, -1))
# region -> (its point on ring r at offset t, first offset, last offset); a
# corner ray has one point per ring
_CORNER = lambda r: 0
_SIDES = {
    spiral.L1: (lambda r, t: (r, 1 - r), _CORNER, _CORNER),
    spiral.D1: (lambda r, t: (r, 1 - r + t), lambda r: 1, lambda r: 2 * r - 2),
    spiral.L2: (lambda r, t: (r, r), _CORNER, _CORNER),
    spiral.D2: (lambda r, t: (r - t, r), lambda r: 1, lambda r: 2 * r - 1),
    spiral.L3: (lambda r, t: (-r, r), _CORNER, _CORNER),
    spiral.D3: (lambda r, t: (-r, r - t), lambda r: 1, lambda r: 2 * r - 1),
    spiral.L4: (lambda r, t: (-r, -r), _CORNER, _CORNER),
    spiral.D4: (lambda r, t: (t - r, -r), lambda r: 1, lambda r: 2 * r),
}
R0 = 4     # rings below R0 are checked point by point
EDGE = 2   # offsets this close to a side's ends are classes of their own


def _form_values(p, step):
    q = (p[0] + step[0], p[1] + step[1])
    return [a * x + b * y + c for x, y in (p, q) for a, b, c in _FORMS]


def _signs_fixed(point, e1, e2, step):
    """Every form keeps one sign on {(r, t): r >= R0, e1(r) <= t <= e2(r)}.

    With e1, e2 affine and e2 - e1 >= 0 and nondecreasing, that set is the
    hull of its two corners on ring R0 plus the cone of its two edges, so an
    affine form keeps the sign it has at both corners if it does not turn
    back towards zero along either edge (and stays 0 along both if it is 0)."""
    corners = [_form_values(point(R0, e(R0)), step) for e in (e1, e2)]
    slopes = [[b - a for a, b in zip(_form_values(point(R0, e(R0)), step),
                                     _form_values(point(R0 + 1, e(R0 + 1)), step))]
              for e in (e1, e2)]
    for k, value in enumerate(corners[0]):
        sign = (value > 0) - (value < 0)
        if (corners[1][k] > 0) - (corners[1][k] < 0) != sign:
            return False
        if any((s[k] > 0) - (s[k] < 0) not in (sign, 0) for s in slopes):
            return False
    return True


def _jump_holds(p, direction):
    step = spiral.DIRS[direction]
    q = (p[0] + step[0], p[1] + step[1])
    sign, kind = spiral.JUMPS[direction][spiral.classify(p)]
    i = max(abs(p[0]), abs(p[1])) - 1
    jump = sign if kind == "one" else sign * (8 * i + kind)
    return spiral.spiral_index(q) - spiral.spiral_index(p) == jump


def test_jump_table_proved():
    # rings 0 to R0 + 4, point by point through neighbor_index itself
    n = R0 + 4
    for x in range(-n, n + 1):
        for y in range(-n, n + 1):
            k = spiral.spiral_index((x, y))
            for d, (dx, dy) in spiral.DIRS.items():
                assert spiral.neighbor_index(k, d) == spiral.spiral_index((x + dx, y + dy))
    # rings from R0 on: each side splits into its first EDGE offsets, its last
    # EDGE offsets and the band between them.  On each class the forms keep
    # their signs, so the claim is a polynomial identity of degree at most 2
    # in (r, t): zero on 3 rings x 3 offsets (one offset on a single-offset
    # class) makes it zero on the whole class.
    rings = (R0 + 2, R0 + 3, R0 + 4)
    for region, (point, lo, hi) in _SIDES.items():
        if lo is hi:
            classes = [(lo, hi)]
        else:
            classes = [(lambda r, j=j: lo(r) + j,) * 2 for j in range(EDGE)]
            classes += [(lambda r, j=j: hi(r) - j,) * 2 for j in range(EDGE)]
            classes.append((lambda r: lo(r) + EDGE, lambda r: hi(r) - EDGE))
        for e1, e2 in classes:
            assert e1(R0) <= e2(R0) and e2(R0 + 1) - e1(R0 + 1) >= e2(R0) - e1(R0)
            assert all(spiral.classify(point(r, t)) == region
                       for r in (R0, R0 + 1) for t in (e1(r), e2(r)))
            for d, step in spiral.DIRS.items():
                assert _signs_fixed(point, e1, e2, step), (region, d)
                for r in rings:
                    offsets = [e1(r)] if e1 is e2 else [e1(R0) + j for j in range(3)]
                    for t in offsets:
                        assert e1(r) <= t <= e2(r)
                        assert _jump_holds(point(r, t), d), (region, d, r, t)


def test_region_transition_observations():
    # from L1 the next 2i cells lie in D1 and cell 2i+1 is L2; similarly for
    # the other corner rays with gaps 2i+2, 2i+2 and 2i+3
    gaps = {"L1": ("D1", "L2", 1), "L2": ("D2", "L3", 2),
            "L3": ("D3", "L4", 2), "L4": ("D4", "L1", 3)}
    for k in range(2, 30000):
        region = spiral.classify(WALK[k - 1])
        if region in gaps:
            i = spiral.turn_count(k)
            mid, nxt, c = gaps[region]
            gap = 2 * i + c
            for m in range(k + 1, k + gap):
                assert spiral.classify(WALK[m - 1]) == mid, (k, m)
            assert spiral.classify(WALK[k + gap - 1]) == nxt, (k,)


def test_origin_neighbors():
    assert spiral.neighbor_index(1, "+a") == 2
    assert spiral.neighbor_index(1, "-a") == 6
    assert spiral.neighbor_index(1, "+b") == 4
    assert spiral.neighbor_index(1, "-b") == 8


def test_bad_index_rejected():
    with pytest.raises(ValueError):
        spiral.spiral_point(0)
    with pytest.raises(ValueError):
        spiral.turn_count(0)
