import itertools
import random

import pytest

from tapegroups import thompson_f as tf
from tapegroups.errors import BadWord, NotInLanguage
from tapegroups.framework import REPRESENTATIONS
from tapegroups.oracle_groups import PL_IDENTITY, pl_eval_normalform, pl_mul_gen

INV = {"x0": "x0-", "x0-": "x0", "x1": "x1-", "x1-": "x1"}


def test_parse_examples():
    assert tf.parse("") == tf.IDENTITY_SEQ
    seq = tf.parse("a#b")
    assert seq.r == (1, 0) and seq.s == (0, 1) and seq.M == 1
    assert tf.serialize(seq) == "a#b"
    for bad in ("ab#ba", "ab", "a#", "#", "ba", "ab#a#"):
        with pytest.raises(NotInLanguage):
            tf.parse(bad)


def test_parse_both_signs_need_successor():
    with pytest.raises(NotInLanguage):
        tf.parse("ab##a")  # block 0 has both signs, block 1 empty
    tf.parse("ab#a")       # fine with a nonempty successor


def test_compute_r_examples():
    assert tf.compute_r("b") == tf.RResult(2, True)
    assert tf.compute_r("b###b") == tf.RResult(2, False)
    assert tf.compute_r("ab") == tf.RResult(2, True)


def test_compute_r_against_definition():
    rng = random.Random(4)
    for _ in range(600):
        nf = tf.serialize(_random_seq(rng, 30))
        seq = tf.parse(nf)
        if not seq.s or seq.s[0] == 0:
            continue
        got = tf.compute_r(nf)
        want = tf.r_by_definition(seq)
        assert got == want, (nf, got, want)


def _random_seq(rng, budget):
    rs, ss = [], []
    remaining = rng.randint(1, budget)
    while remaining > 0 or not rs:
        r = rng.choice((0, 0, 1, 1, 2, 3))
        s = rng.choice((0, 0, 0, 1, 1, 2))
        rs.append(r)
        ss.append(s)
        remaining -= r + s + 1
    for i in range(len(rs) - 1):
        if rs[i] > 0 and ss[i] > 0 and rs[i + 1] + ss[i + 1] == 0:
            rs[i + 1] = 1
    if rs[-1] > 0 and ss[-1] > 0:
        ss[-1] = 0
    if rs[-1] == 0 and ss[-1] == 0:
        rs[-1] = 1
    return tf.ExpSeq(tuple(rs), tuple(ss))


def test_x0_examples():
    assert tf.apply_gen("", "x0-") == "b"
    assert tf.apply_gen("b", "x0") == ""
    assert tf.apply_gen("", "x0") == "a"
    assert tf.apply_gen("a##a", "x0-") == "#a"
    assert tf.apply_gen("#a", "x0") == "a##a"
    # frozen after checking against the PL oracle
    assert tf.apply_gen("a#a", "x0-") == "ab#a"


def test_x1_inv_examples():
    assert tf.apply_gen("", "x1-") == "#b"
    assert tf.apply_gen("a", "x1-") == "a#b"
    assert tf.apply_gen("b", "x1-") == "b##b"
    assert tf.apply_gen("b###b", "x1-") == "b##b#b"


def test_x1_examples():
    assert tf.apply_gen("#b", "x1") == ""
    assert tf.apply_gen("a#b", "x1") == "a"
    assert tf.apply_gen("b##b", "x1") == "b"
    assert tf.apply_gen("#bbb", "x1") == "#bb"


def test_invalid_input_raises_but_machine_halts():
    with pytest.raises(NotInLanguage):
        tf.apply_gen("ab", "x1-")
    # the underlying machine itself is total: it halts without editing
    assert tf._apply_x1_inv_raw("ab")[0] == "ab"


def test_oracle_differential_and_bijectivity():
    rng = random.Random(42)
    tf.coverage_reset()
    checked = 0
    for _ in range(260):
        nf = ""
        elem = PL_IDENTITY
        for _ in range(rng.randint(1, 45)):
            gen = rng.choice(tf.GENERATORS)
            out = tf.apply_gen(nf, gen)
            elem = pl_mul_gen(elem, gen)
            assert tf.validate(out)
            assert pl_eval_normalform(out) == elem, (nf, gen, out)
            assert tf.apply_gen(out, INV[gen]) == nf, (nf, gen, out)
            nf = out
            checked += 1
    assert checked > 4000
    # every branch of the case analysis must have fired
    missing = [c for c in tf.CASE_LABELS if tf.coverage.get(c, 0) == 0]
    assert not missing, missing


def test_r_lower_bound_when_tail_cases_fire():
    # whenever 2.1 fires with R <= M the derivation forces R >= j_n + 2
    rng = random.Random(8)
    seen = 0
    for _ in range(1500):
        nf = tf.serialize(_random_seq(rng, 40))
        seq = tf.parse(nf)
        if not seq.s or seq.s[0] == 0:
            continue
        res = tf.r_by_definition(seq)
        if not res.case_flag:
            continue
        jn = max(i for i, s in enumerate(seq.s) if s > 0)
        if res.R <= seq.M:
            assert res.R >= jn + 2, (nf, res, jn)
            seen += 1
    assert seen > 20


def test_quasigeodesic_necessary_direction():
    rng = random.Random(13)
    worst = 0.0
    for _ in range(6):
        nf = ""
        for k in range(1, 350):
            nf = tf.apply_gen(nf, rng.choice(tf.GENERATORS))
            worst = max(worst, len(nf) / (k + 1))
    assert worst < 6.0


def test_case_deletion_is_detectable():
    # planting a disabled case makes some multiplication silently wrong
    rng = random.Random(5)
    tf._disabled_cases = frozenset({"2.2.2b"})
    try:
        broken = False
        nf = ""
        elem = PL_IDENTITY
        for _ in range(4000):
            gen = rng.choice(tf.GENERATORS)
            try:
                out = tf.apply_gen(nf, gen)
            except Exception:
                broken = True  # the mutilated guess-and-check cannot settle
                break
            elem = pl_mul_gen(elem, gen)
            if not tf.validate(out) or pl_eval_normalform(out) != elem:
                broken = True
                break
            nf = out
        assert broken
    finally:
        tf._disabled_cases = frozenset()


def test_total_on_garbage():
    # the machines halt on anything; the library surface raises on non-members
    rng = random.Random(0)
    for _ in range(400):
        text = "".join(rng.choice("ab#") for _ in range(rng.randint(0, 12)))
        tf._apply_x1_inv_raw(text)
        if tf.validate(text):
            for gen in ("x0", "x0-", "x1-", "x1"):
                assert tf.validate(tf.apply_gen(text, gen))
        else:
            with pytest.raises(NotInLanguage):
                tf.apply_gen(text, "x0")


def test_step_report_names_the_group_id():
    _, report = tf.apply_gen_report("a", "x0")
    assert report.group == "thompson-f" == REPRESENTATIONS["thompson-f"]().group_id


def test_unknown_generator_raises_bad_word():
    for gen in ("a", "x2", ""):
        with pytest.raises(BadWord):
            tf.apply_gen_report("a", gen)
    # the generator is checked before the input is read
    with pytest.raises(BadWord):
        tf.apply_gen_report("?", "x9")


def ref_parse(text):
    """The character-by-character parse that `tf.parse` replaced."""
    if text == "":
        return tf.IDENTITY_SEQ
    for ch in text:
        if ch not in "ab#":
            raise NotInLanguage(f"symbol {ch!r} outside the alphabet")
    rs = []
    ss = []
    for block in text.split("#"):
        i = 0
        while i < len(block) and block[i] == "a":
            i += 1
        j = i
        while j < len(block) and block[j] == "b":
            j += 1
        if j != len(block):
            raise NotInLanguage("block letters must be a-run then b-run")
        rs.append(i)
        ss.append(len(block) - i)
    if rs[-1] == 0 and ss[-1] == 0:
        raise NotInLanguage("last block must be nonempty")
    if rs[-1] > 0 and ss[-1] > 0:
        raise NotInLanguage("exactly one of the last block exponents may be nonzero")
    for i in range(len(rs) - 1):
        if rs[i] > 0 and ss[i] > 0 and rs[i + 1] + ss[i + 1] == 0:
            raise NotInLanguage(f"block {i} has both signs but block {i+1} is empty")
    return tf.ExpSeq(tuple(rs), tuple(ss))


def _parse_outcome(fn, text):
    try:
        return fn(text)
    except NotInLanguage as exc:
        return (type(exc), str(exc))


def test_parse_matches_reference_parse():
    # every string over {a,b,#} up to length 7, then seeded longer strings
    # with symbols from outside the alphabet
    texts = ["".join(t) for k in range(8) for t in itertools.product("ab#", repeat=k)]
    rng = random.Random(11)
    texts += ["".join(rng.choice("aaabbb##c xé") for _ in range(rng.randint(1, 40)))
              for _ in range(20000)]
    texts.append(REPRESENTATIONS["thompson-f"]().sample_nf(random.Random(3), 1 << 12))
    for text in texts:
        assert _parse_outcome(tf.parse, text) == _parse_outcome(ref_parse, text), text


def _ref_validate(text):
    try:
        ref_parse(text)
    except NotInLanguage:
        return False
    return True


def test_validate_matches_reference_parse():
    # every string over {a,b,#} up to length 10, then seeded strings with
    # symbols from outside the alphabet
    for k in range(11):
        for t in itertools.product("ab#", repeat=k):
            text = "".join(t)
            assert tf.validate(text) == _ref_validate(text), text
    rng = random.Random(12)
    for _ in range(20000):
        text = "".join(rng.choice("aaabbb###c\n xé") for _ in range(rng.randint(1, 30)))
        assert tf.validate(text) == _ref_validate(text), text
