import random
from fractions import Fraction

import pytest

from tapegroups import oracle_groups as og
from tapegroups.errors import NotInLanguage
from tapegroups.framework import _sample_thompson, representation_thompson_f

GENS_W = ("a", "a-", "b", "b-", "c")
INV_W = {"a": "a-", "a-": "a", "b": "b-", "b-": "b", "c": "c"}


def test_dyadic_normalization():
    assert og.dy(4, 3) == (1, 1)
    assert og.dy(0, 5) == (0, 0)
    assert og.dy_add(og.dy(1, 1), og.dy(1, 2)) == (3, 2)
    assert og.dy_mul(og.dy(3, 2), og.dy(1, 1)) == (3, 3)
    assert og.dy_cmp(og.dy(1, 1), og.dy(3, 2)) < 0


def test_dy_strips_long_runs_of_zeros():
    assert og.dy(1 << 5000, 0) == (1, -5000)
    assert og.dy(-3 << 4000, 4000) == (-3, 0)


def _dy_one_bit_at_a_time(n, e=0):
    if n == 0:
        return (0, 0)
    while n % 2 == 0:
        n //= 2
        e -= 1
    return (n, e)


def test_dy_matches_one_bit_at_a_time_on_samples():
    rng = random.Random(17)
    for _ in range(2000):
        n = rng.choice((1, -1)) * rng.getrandbits(rng.randint(0, 64)) << rng.randint(0, 300)
        e = rng.randint(-50, 400)
        assert og.dy(n, e) == _dy_one_bit_at_a_time(n, e), (n, e)


def test_wreath_examples():
    c0 = og.IDENTITY_Z2
    c1 = og.wreath_mul_gen(c0, "c")
    assert c1 == og.LampConfigZ2(frozenset({(0, 0)}), (0, 0))
    c2 = og.wreath_mul_gen(c1, "a")
    assert c2 == og.LampConfigZ2(frozenset({(0, 0)}), (1, 0))
    f = og.LampConfigF2(frozenset(), "a")
    assert og.wreath_mul_gen(f, "a-") == og.IDENTITY_F2


def test_free_reduction():
    assert og.f2_reduce("aA") == ""
    assert og.f2_reduce("abBA") == ""
    assert og.f2_reduce("abb") == "abb"
    w = og.f2_reduce("aBbAabB")
    assert og.f2_is_reduced(w)
    assert og.f2_reduce(w) == w  # idempotent


def test_wreath_group_laws_random():
    rng = random.Random(11)
    cfg = og.IDENTITY_Z2
    cfgf = og.IDENTITY_F2
    for _ in range(4000):
        g = rng.choice(GENS_W)
        assert og.wreath_mul_gen(og.wreath_mul_gen(cfg, g), INV_W[g]) == cfg
        assert og.wreath_mul_gen(og.wreath_mul_gen(cfgf, g), INV_W[g]) == cfgf
        cfg = og.wreath_mul_gen(cfg, g)
        cfgf = og.wreath_mul_gen(cfgf, g)


def test_pl_generator_fixed_values():
    x0 = og.pl_generator("x0", +1)
    assert x0(og.dy(1, 1)) == og.dy(1, 2)          # x0(1/2) = 1/4
    x1 = og.pl_generator("x1", +1)
    assert x1(og.dy(1, 2)) == og.dy(1, 2)          # identity below 1/2
    assert og.pl_compose(og.pl_generator("x0", -1), x0) == og.PL_IDENTITY
    assert og.pl_compose(x0, og.pl_generator("x0", -1)) == og.PL_IDENTITY
    assert og.pl_compose(og.PL_IDENTITY, x0) == x0


def _fold(maps):
    acc = og.PL_IDENTITY
    for m in maps:
        acc = og.pl_compose(m, acc)
    return acc


def test_defining_relators_evaluate_to_identity():
    x0 = og.pl_generator("x0", +1)
    x0i = og.pl_generator("x0", -1)
    x1 = og.pl_generator("x1", +1)
    x1i = og.pl_generator("x1", -1)
    g, gi = [x0, x1i], [x1, x0i]
    h, hi = [x0i, x1, x0], [x0i, x1i, x0]
    h2, h2i = [x0i, x0i, x1, x0, x0], [x0i, x0i, x1i, x0, x0]
    assert _fold(gi + hi + g + h) == og.PL_IDENTITY
    assert _fold(gi + h2i + g + h2) == og.PL_IDENTITY


def test_associativity_spot_checks():
    rng = random.Random(5)
    gens = [og.pl_generator(w, s) for w in ("x0", "x1") for s in (+1, -1)]
    for _ in range(40):
        f, g, h = (rng.choice(gens) for _ in range(3))
        assert og.pl_compose(og.pl_compose(f, g), h) == og.pl_compose(f, og.pl_compose(g, h))


def test_pl_generator_is_letter_0_or_1():
    for sign in (+1, -1):
        assert og.pl_generator("x0", sign) == og.pl_letter(0, sign)
        assert og.pl_generator("x1", sign) == og.pl_letter(1, sign)
    for bad in ("x2", "x", "a"):
        with pytest.raises(ValueError, match="unknown generator"):
            og.pl_generator(bad, +1)


def test_nice_letter_maps_match_expansion():
    x0 = og.pl_generator("x0", +1)
    x0i = og.pl_generator("x0", -1)
    x1 = og.pl_generator("x1", +1)
    for i in (2, 3, 5):
        word = [x0i] * (i - 1) + [x1] + [x0] * (i - 1)
        assert _fold(word) == og.pl_letter(i, +1)
        assert og.pl_letter(i, -1) == og.pl_letter(i, +1).inverse()


def test_eval_normalform_examples():
    assert og.pl_eval_normalform("") == og.PL_IDENTITY
    assert og.pl_eval_normalform("a") == og.pl_generator("x0", +1)
    x0i = og.pl_generator("x0", -1)
    x1i = og.pl_generator("x1", -1)
    assert og.pl_eval_normalform("b##b") == _fold([x0i, x1i])


def test_eval_rejects_garbage():
    with pytest.raises(NotInLanguage):
        og.pl_eval_normalform("ba")


def test_eval_injective_on_samples():
    # distinct normal forms must map to distinct homeomorphisms; includes the
    # pair that collapses under a reversed composition convention
    forms = ["", "a", "b", "ab#a", "a#a", "a###a", "b##b", "#b", "#a",
             "aa#b", "b#b", "ab#b", "#ab#a"]
    seen = {}
    for u in forms:
        m = og.pl_eval_normalform(u)
        assert m not in seen, (u, seen[m])
        seen[m] = u


def test_slope_validation():
    with pytest.raises(NotInLanguage):
        og.DyadicPL(((og.dy(0), og.dy(0)), (og.dy(1, 1), og.dy(1, 2)),
                     (og.dy(1), og.dy(1))))(og.dy(3, 2))


# ---------------------------------------------------------------------------
# the tree-pair decode against a left-to-right composition of generator maps

R1 = ["x1", "x0-", "x0-", "x1-", "x0", "x0", "x1-", "x0-", "x1", "x0"]
R2 = ["x1", "x0-", "x0-", "x0-", "x1-", "x0", "x0", "x0",
      "x1-", "x0-", "x0-", "x1", "x0", "x0"]

def _blocks(u):
    return [(len(b) - len(b.lstrip("a")), len(b.lstrip("a"))) for b in u.split("#")]


def _composed(u):
    # x0^r0 ... xM^rM xM^-sM ... x0^-s0, first letter outermost
    blocks = _blocks(u)
    letters = [(i, +1) for i, (r, _) in enumerate(blocks) for _ in range(r)]
    letters += [(i, -1) for i in range(len(blocks) - 1, -1, -1) for _ in range(blocks[i][1])]
    return _fold([og.pl_letter(i, sign) for i, sign in letters])


def _random_blocks(rng, count, lead=0):
    blocks = ["a" * rng.choice((0, 0, 1, 1, 2, 3)) + "b" * rng.choice((0, 0, 0, 1, 1, 2))
              for _ in range(count)]
    return "#".join([""] * lead + blocks)


def test_decode_matches_composition_on_seeded_normal_forms():
    rng = random.Random(29)
    for target in list(range(1, 40)) + [rng.randint(40, 200) for _ in range(30)]:
        u = _sample_thompson(rng, target)
        assert og.pl_eval_normalform(u) == _composed(u), u


def test_decode_matches_composition_on_relator_prefixes():
    F = representation_thompson_f()
    for word in (R1, R2):
        nf, maps = F.identity_nf, []
        for gen in word:
            nf = F.apply(nf, gen)
            maps.append(og.pl_generator(gen.rstrip("-"), -1 if gen.endswith("-") else +1))
            assert og.pl_eval_normalform(nf) == _fold(maps) == _composed(nf), (word, nf)
        assert og.pl_eval_normalform(nf) == og.PL_IDENTITY


def test_decode_matches_composition_on_high_index_blocks():
    rng = random.Random(31)
    forms = ["#" * 40 + "a", "#" * 41 + "b", "#" * 45 + "ab#b", "a" + "#" * 50 + "bb"]
    forms += [_random_blocks(rng, rng.randint(1, 8), lead=rng.randint(40, 60)) for _ in range(12)]
    for u in forms:
        assert og.pl_eval_normalform(u) == _composed(u), u


def test_decode_matches_composition_on_non_reduced_block_strings():
    rng = random.Random(37)
    forms = ["ab", "a#", "ab#", "#", "b#", "ab#ab", "#ab#", "aab#b#", "a#b#ab##"]
    forms += [_random_blocks(rng, rng.randint(1, 10)) + "#" * rng.randint(0, 2) for _ in range(40)]
    for u in forms:
        assert og.pl_eval_normalform(u) == _composed(u), u
    assert og.pl_eval_normalform("ab") == og.PL_IDENTITY
    assert og.pl_eval_normalform("a#") == og.pl_generator("x0", +1)


def _point_letter(x, i, sign):
    # x_i is the identity on [0, 1 - 2^-i] and x0 rescaled into [1 - 2^-i, 1]
    left = 1 - Fraction(1, 1 << i)
    if x <= left:
        return x
    t = (x - left) * (1 << i)
    if sign > 0:
        if t <= Fraction(1, 2):
            t = t / 2
        elif t <= Fraction(3, 4):
            t = t - Fraction(1, 4)
        else:
            t = 2 * t - 1
    elif t <= Fraction(1, 4):
        t = 2 * t
    elif t <= Fraction(1, 2):
        t = t + Fraction(1, 4)
    else:
        t = (t + 1) / 2
    return left + t / (1 << i)


def _point_eval(u, x):
    # the last letter acts first: x0^-s0, ..., xM^-sM, then xM^rM, ..., x0^r0
    blocks = _blocks(u)
    for i, (_, s) in enumerate(blocks):
        for _ in range(s):
            x = _point_letter(x, i, -1)
    for i in range(len(blocks) - 1, -1, -1):
        for _ in range(blocks[i][0]):
            x = _point_letter(x, i, +1)
    return x


def test_decode_of_long_normal_form_matches_point_evaluation():
    rng = random.Random(41)
    u = _sample_thompson(rng, 1 << 12)
    assert len(u) >= 1 << 12
    m = og.pl_eval_normalform(u)
    # the deepest breakpoints, points where the last blocks act, a point past
    # every leaf of both trees, and points spread over (0, 1)
    xs = [Fraction(n, 1 << e) for (n, e), _ in m.pts[-9:-1]]
    depth = u.count("#") + 1
    xs += [1 - Fraction(2 * rng.randrange(1 << 9) + 1, 1 << (d + 10)) for d in (depth, depth - 1)]
    xs += [1 - Fraction(1, 1 << (len(u) + 12))]
    xs += [Fraction(2 * k + 1, 16) for k in range(8)]
    for x in xs:
        y = m(og.dy(x.numerator, x.denominator.bit_length() - 1))
        assert Fraction(y[0]) / Fraction(2) ** y[1] == _point_eval(u, x), x
