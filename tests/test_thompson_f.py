import itertools
import random
import re
import time
from collections import Counter

import pytest

from tapegroups import thompson_f as tf
from tapegroups.errors import NoCaseMatched, NotInLanguage
from tapegroups.framework import PLATEAU_FACTOR, REPRESENTATIONS, representation_thompson_f
from tapegroups.oracle_groups import PL_IDENTITY, pl_eval_normalform, pl_mul_gen
from tapegroups.tapevm import STOP_WINDOW, TapeSet, first_stop, init_tapes, read_output
from test_step_ledger import _walk_entries, run_raw

REP = representation_thompson_f()

INV = {"x0": "x0-", "x0-": "x0", "x1": "x1-", "x1-": "x1"}


def _short_forms(most):
    """Every normal form of at most `most` symbols."""
    return [text for k in range(most + 1) for t in itertools.product("ab#", repeat=k)
            if tf.validate(text := "".join(t))]


def test_parse_examples():
    assert ref_parse("") == tf.ExpSeq((), ())
    seq = ref_parse("a#b")
    assert seq.r == (1, 0) and seq.s == (0, 1) and seq.M == 1
    assert tf.serialize(seq) == "a#b"
    for bad in ("ab#ba", "ab", "a#", "#", "ba", "ab#a#"):
        with pytest.raises(NotInLanguage):
            ref_parse(bad)
        assert not tf.validate(bad)


def test_parse_both_signs_need_successor():
    with pytest.raises(NotInLanguage):
        ref_parse("ab##a")  # block 0 has both signs, block 1 empty
    assert not tf.validate("ab##a")
    ref_parse("ab#a")       # fine with a nonempty successor
    assert tf.validate("ab#a")


def test_compute_r_examples():
    assert tf.compute_r("b") == tf.RResult(2, True)
    assert tf.compute_r("b###b") == tf.RResult(2, False)
    assert tf.compute_r("ab") == tf.RResult(2, True)


def test_compute_r_against_definition():
    # every normal form of at most 10 symbols, then seeded longer ones
    rng = random.Random(4)
    texts = _short_forms(10) + [tf.serialize(_random_seq(rng, 30)) for _ in range(600)]
    for nf in texts:
        seq = ref_parse(nf)
        if not seq.s or seq.s[0] == 0:
            continue
        got = tf.compute_r(nf)
        want = r_by_definition(seq)
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
    assert REP.apply("", "x0-") == "b"
    assert REP.apply("b", "x0") == ""
    assert REP.apply("", "x0") == "a"
    assert REP.apply("a##a", "x0-") == "#a"
    assert REP.apply("#a", "x0") == "a##a"
    # frozen after checking against the PL oracle
    assert REP.apply("a#a", "x0-") == "ab#a"


def test_x1_inv_examples():
    assert REP.apply("", "x1-") == "#b"
    assert REP.apply("a", "x1-") == "a#b"
    assert REP.apply("b", "x1-") == "b##b"
    assert REP.apply("b###b", "x1-") == "b##b#b"


def test_x1_examples():
    assert REP.apply("#b", "x1") == ""
    assert REP.apply("a#b", "x1") == "a"
    assert REP.apply("b##b", "x1") == "b"
    assert REP.apply("#bbb", "x1") == "#bb"


def test_invalid_input_raises_but_machine_halts():
    with pytest.raises(NotInLanguage):
        REP.apply("ab", "x1-")
    # the underlying machine itself is total: it halts without editing and
    # returns its verdict
    out, _, cases = run_raw("ab", tf.MACHINE, "x1-")
    assert (out, cases) == ("ab", None)


def test_oracle_differential_and_bijectivity():
    rng = random.Random(42)
    fired = set()
    checked = 0
    for _ in range(260):
        nf = ""
        elem = PL_IDENTITY
        for _ in range(rng.randint(1, 45)):
            gen = rng.choice(tf.GENERATORS)
            out, report = tf.apply_gen_report(nf, gen)
            elem = pl_mul_gen(elem, gen)
            assert tf.validate(out)
            assert pl_eval_normalform(out) == elem, (nf, gen, out)
            back, back_report = tf.apply_gen_report(out, INV[gen])
            assert back == nf, (nf, gen, out)
            fired.update(report.cases, back_report.cases)
            nf = out
            checked += 1
    assert checked > 4000
    # every branch of the case analysis must have fired
    missing = [c for c in tf.CASE_LABELS if c not in fired]
    assert not missing, missing


# the shortest normal form on which x1- takes each branch
CASE_WITNESSES = {
    "1.1": "", "1.2": "#b", "1.3a": "#aa", "1.3b": "#a", "1.3c": "#a##a",
    "2.1a": "b", "2.1b": "b##a", "2.1c1": "b###a", "2.1c2": "b##a#a",
    "2.1c3": "b##a##a", "2.2.1": "b##a##b", "2.2.2a": "b##b",
    "2.2.2b": "b##a#b", "2.2.2c": "b###b",
}


@pytest.mark.parametrize("label", tf.CASE_LABELS)
def test_x1_inv_reports_its_branch(label):
    nf = CASE_WITNESSES[label]
    assert tf.apply_gen_report(nf, "x1-")[1].cases == (label,)
    for gen in ("x0", "x0-"):
        assert tf.apply_gen_report(nf, gen)[1].cases == ()


def test_x1_inv_labels_every_short_normal_form():
    # every normal form of at most 10 symbols reaches exactly one labelled
    # edit, _x1_inv_case2 having no exit that skips its edit, and x1 finds
    # the preimage back
    forms = _short_forms(10)
    assert len(forms) == 11641
    for nf in forms:
        out, report = tf.apply_gen_report(nf, "x1-")
        assert len(report.cases) == 1, nf
        assert REP.apply(out, "x1") == nf


def test_x1_accepts_the_round_trip_of_the_inverse_branch():
    # x1's last label is the branch x1- takes on x1's output
    rng = random.Random(17)
    checked = 0
    for _ in range(40):
        nf = ""
        for _ in range(rng.randint(1, 30)):
            out, report = tf.apply_gen_report(nf, "x1")
            back = tf.apply_gen_report(out, "x1-")[1]
            assert len(back.cases) == 1 and report.cases[-1] == back.cases[0], (nf, out)
            assert set(report.cases) <= set(tf.CASE_LABELS)
            checked += 1
            nf = REP.apply(out, rng.choice(tf.GENERATORS))
    assert checked > 400


def test_r_lower_bound_when_tail_cases_fire():
    # whenever 2.1 fires with R <= M the derivation forces R >= j_n + 2
    rng = random.Random(8)
    seen = 0
    for _ in range(1500):
        nf = tf.serialize(_random_seq(rng, 40))
        seq = ref_parse(nf)
        if not seq.s or seq.s[0] == 0:
            continue
        res = r_by_definition(seq)
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
            nf = REP.apply(nf, rng.choice(tf.GENERATORS))
            worst = max(worst, len(nf) / (k + 1))
    assert worst < 6.0


def test_case_deletion_is_detectable(f_case_deleted):
    # planting a deleted case makes some multiplication silently wrong
    rng = random.Random(5)
    broken_at = None
    nf = ""
    elem = PL_IDENTITY
    for i in range(4000):
        gen = rng.choice(tf.GENERATORS)
        try:
            out = f_case_deleted(nf, gen)[0]
        except NoCaseMatched:
            broken_at = i  # the mutilated guess-and-check cannot settle
            break
        elem = pl_mul_gen(elem, gen)
        if not tf.validate(out) or pl_eval_normalform(out) != elem:
            broken_at = i
            break
        nf = out
    assert broken_at == 71


def _garbage():
    rng = random.Random(0)
    return ["".join(rng.choice("ab#") for _ in range(rng.randint(0, 12)))
            for _ in range(400)]


def non_members():
    """Texts outside F's language: symbols outside the alphabet, the tape
    markers, near misses and the garbage that does not validate."""
    return ["é", "⊞", "⊡", "\0", "C", "ab", "a#", "ba", "ab#ba", "a b",
            *[t for t in _garbage() if not tf.validate(t)]]


def test_total_on_garbage():
    # the machines halt on anything; the library surface raises on non-members
    for text in _garbage():
        for gen in tf.GENERATORS:
            run_raw(text, tf.MACHINE, gen)
        if tf.validate(text):
            for gen in ("x0", "x0-", "x1-", "x1"):
                assert tf.validate(REP.apply(text, gen))
        else:
            with pytest.raises(NotInLanguage):
                REP.apply(text, "x0")


def _one_token_edits(text):
    """The texts one substitution, deletion or insertion of a, b or # from
    text."""
    for i in range(len(text) + 1):
        for tok in "ab#":
            yield text[:i] + tok + text[i:]
            if i < len(text):
                yield text[:i] + tok + text[i + 1:]
        if i < len(text):
            yield text[:i] + text[i + 1:]


def test_every_generator_raises_on_a_one_token_edit_of_a_walk_form():
    # through the module and the Representation, on every one-token edit of
    # the ledger's walk forms that validate rejects; the raw programs halt
    # on each
    rep = representation_thompson_f()
    forms = dict.fromkeys(nf for nf, *_ in _walk_entries(rep, 1))
    edits = {e: None for nf in forms for e in _one_token_edits(nf) if not tf.validate(e)}
    assert (len(forms), len(edits)) == (505, 10_764)
    raised = 0
    for text in edits:
        for gen in tf.GENERATORS:
            for apply_report in (tf.apply_gen_report, rep.apply_report):
                try:
                    apply_report(text, gen)
                except NotInLanguage:
                    raised += 1
            assert run_raw(text, tf.MACHINE, gen)[2] is None, (text, gen)
    assert raised == 2 * len(tf.GENERATORS) * len(edits)


def test_each_call_matches_the_language_once(monkeypatch):
    # every generator checks membership by its counted scans alone, with no
    # host match: x1's machine scans its input, and x1^-1 scans each
    # candidate a builder accepts
    host, tape, accepted = [], [], [0]
    is_nf, scan_valid = tf._IS_NF, tf._scan_valid
    monkeypatch.setattr(tf, "_IS_NF", lambda *a: host.append(a[0]) or is_nf(*a))
    monkeypatch.setattr(tf, "_scan_valid", lambda ts: tape.append(ts) or scan_valid(ts))

    def counted(builder):
        def run(ts):
            ok = builder(ts)
            accepted[0] += bool(ok)
            return ok
        return run
    monkeypatch.setattr(tf, "_X1_BUILDERS", tuple(map(counted, tf._X1_BUILDERS)))
    forms = _short_forms(6) + [REPRESENTATIONS["thompson-f"]().sample_nf(random.Random(k), 200)
                               for k in range(5)]
    for nf in forms:
        for gen in tf.GENERATORS:
            host.clear()
            tape.clear()
            accepted[0] = 0
            REP.apply(nf, gen)
            if gen == "x1":
                # the accepting builder runs once more, to write the product
                candidates = accepted[0] - 1
                assert (len(host), len(tape)) == (0, 1 + candidates), nf
            else:
                assert (len(host), len(tape)) == (0, 1), (nf, gen)
    for bad in non_members():
        for gen in tf.GENERATORS:
            with pytest.raises(NotInLanguage):
                REP.apply(bad, gen)
        if not bad.strip("ab#"):  # the raw machines halt on any such text
            for gen in tf.GENERATORS:
                run_raw(bad, tf.MACHINE, gen)


F_PROGRAMS = (tf._scan_valid, tf._first_rejected, tf._rewind, tf._to_blank, tf._first,
              tf._first_blank, first_stop, tf._code, tf._compute_r, tf._mark_hash_track,
              tf._compare_r_m, tf._x0_flags, tf._program_x0, tf._program_x1_inv, tf._x1_inv_flags,
              tf._case1_flags, tf._x1_inv_case1, tf._x1_inv_case2, tf._to_hash, tf._hash_walk,
              tf._walk_to_hash, tf._walk_to_rth_hash, tf._walk_to_last_b,
              tf._write_hash_per_b, tf._strip_tail, tf._drop_b_after_a_run,
              tf._erase_counter, tf._restore_input, tf._restore, tf._compare_input,
              *tf._X1_BUILDERS, tf.apply_x1)

# loop guards no normal form reaches: each keeps a raw builder or walk from
# running forever or faulting, and apply_x1 from returning no product.  The
# walk's fault is reached only by tests/test_sweeps.py: its one unbounded
# caller, x1^-1's walk to the R-th separator, runs on normal forms alone, and
# there R <= j_n <= M, so the R-th separator lies ahead
UNRUN_GUARDS = sorted([
    ("_b_21c12", "return False"),
    ("_b_21c3", "return False"),
    ("_hash_walk", 'raise TapeFault("the walk never reaches its #")'),
    ("apply_x1",
     'raise NoCaseMatched(f"no multiplication case accepted {track[1:].decode()!r}")'),
])


def test_walks_short_forms_and_garbage_run_every_line_but_the_guards(unrun_lines):
    # the ledger's walks, every generator on every normal form of at most 7
    # symbols, on one whose membership scan takes the masks, on b^k, where
    # the scan of x1's candidate counts the # of its whole tape, and on forms
    # whose a-run and first # lie past the stop search's window and its first
    # translate window, and the raw machines on garbage reach every line of
    # F's tape programs but the guards
    long_nf = REPRESENTATIONS["thompson-f"]().sample_nf(random.Random(17), 1024)
    assert long_nf.count("#", 0, tf._MASK_WINDOW) >= tf._MASK_HASHES
    far = "a" * (9 * STOP_WINDOW + 1)
    forms = _short_forms(7) + [long_nf, "b" * (tf._MASK_WINDOW + 1), far + "#b", far + "b#a"]
    garbage = _garbage()

    def corpus():
        for _ in _walk_entries(representation_thompson_f(), 1):
            pass
        for nf in forms:
            for gen in tf.GENERATORS:
                REP.apply(nf, gen)
        for text in garbage:
            for gen in tf.GENERATORS:
                run_raw(text, tf.MACHINE, gen)
    assert unrun_lines(F_PROGRAMS, corpus) == UNRUN_GUARDS


# ROADMAP item 7's x1 worst cases b^k#b#b and b^k, and a form whose blocks
# both grow
FAMILIES = {"b^k#b#b": lambda k: "b" * k + "#b#b", "b^k": lambda k: "b" * k,
            "a^k#b^k#a": lambda k: "a" * k + "#" + "b" * k + "#a"}


@pytest.mark.parametrize("family", FAMILIES)
def test_primitive_calls_do_not_grow_with_the_input(family, monkeypatch):
    # every walk whose length grows with the input is a counted sweep, so a
    # multiplication makes as many primitive calls at k = 1024 as at k = 16
    calls = Counter()
    for name in ("read", "write", "move_left", "move_right"):
        def counted(self, *args, primitive=getattr(TapeSet, name)):
            calls[primitive.__name__] += 1
            return primitive(self, *args)
        monkeypatch.setattr(TapeSet, name, counted)

    def primitive_calls(k, gen):
        calls.clear()
        REP.apply(FAMILIES[family](k), gen)
        return sum(calls.values())

    for gen in tf.GENERATORS:
        assert primitive_calls(16, gen) == primitive_calls(1024, gen), gen


@pytest.mark.parametrize("family", FAMILIES)
def test_x1_steps_per_symbol_level_off(family):
    # x1 is linear on its worst-case families: at 2^14 its steps per symbol
    # are within PLATEAU_FACTOR of those at 2^12
    per_symbol = {}
    for e in range(6, 15):
        text = FAMILIES[family](1 << e)
        per_symbol[e] = tf.apply_gen_report(text, "x1")[1].steps / len(text)
    assert per_symbol[14] <= PLATEAU_FACTOR * per_symbol[12], per_symbol


def ref_x1(text):
    """The host guess-and-check that x1's one machine replaced: each builder
    on a fresh machine, its candidate checked with validate and then by
    x1^-1 on another fresh machine.  The product and the case labels."""
    cases = ()
    for builder in tf._X1_BUILDERS:
        ts = init_tapes(text)
        if not builder(ts):
            continue
        candidate = read_output(ts, tf.MACHINE.sigma).decode()
        if not tf.validate(candidate):
            continue
        back, _, label = run_raw(candidate, tf.MACHINE, "x1-")
        cases += label
        if back == text:
            return candidate, cases
    raise NoCaseMatched(text)


def _tapes(ts):
    return [(head, bytes(cells)) for head, cells in zip(ts.heads, ts.cells)]


def test_x1_restores_a_fresh_machine_and_matches_the_host_guess_and_check(monkeypatch):
    # on the inputs of the ledger's walks and on FAMILIES: after every
    # restore both tapes, cells and heads, are those init_tapes starts from,
    # and x1's product and labels are those of the host guess-and-check
    texts = dict.fromkeys(nf for nf, *_ in _walk_entries(representation_thompson_f(), 1))
    texts.update(dict.fromkeys(make(k) for make in FAMILIES.values() for k in (1, 16, 1024)))
    restore, fresh, restores = tf._restore, [None], [0]

    def checked(ts, track):
        restore(ts, track)
        restores[0] += 1
        assert _tapes(ts) == fresh[0]
    monkeypatch.setattr(tf, "_restore", checked)
    for text in texts:
        fresh[0] = _tapes(init_tapes(text))
        restores[0] = 0
        out, report = tf.apply_gen_report(text, "x1")
        assert (out, report.cases) == ref_x1(text), text
        assert restores[0] >= 2, text  # one per builder tried, one for the product


def ref_parse(text):
    """The exponent blocks of a normal form, by a character-by-character
    parse; raises NotInLanguage naming the first fault."""
    if text == "":
        return tf.ExpSeq((), ())
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


def r_by_definition(seq):
    """R and its case flag by host arithmetic on the exponent blocks, the
    oracle of the tape subroutine `_compute_r`."""
    if not seq.s or seq.s[0] == 0:
        raise ValueError("R is defined only when s0 > 0")
    js = [i for i, s in enumerate(seq.s) if s > 0]
    R = 1
    for t, j in enumerate(js):
        R += seq.s[j]
        if t + 1 < len(js) and R <= js[t + 1]:
            return tf.RResult(R, False)
    return tf.RResult(R, True)

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
    nf = REPRESENTATIONS["thompson-f"]().sample_nf(random.Random(3), 1 << 12)
    assert tf.validate(nf) and _ref_validate(nf)


# the language as the automaton of `_scan_valid` states it: a rejected cell,
# or a form that ends in an empty or two-signed block
NOT_NF = re.compile(tf._REJECT + r"|#\Z|ab+\Z")


def test_full_match_reject_cells_and_parse_state_one_language():
    # every string over {a,b,#,x} up to 7 symbols and over {a,b,#} up to 10
    def strings(alphabet, most):
        for k in range(most + 1):
            for t in itertools.product(alphabet, repeat=k):
                yield "".join(t)

    for text in itertools.chain(strings("ab#x", 7), strings("ab#", 10)):
        full = tf._IS_NF(text) is not None
        assert full == (NOT_NF.search(text) is None) == _ref_validate(text), text
        assert (tf._IS_NF_CODES(text.encode()) is not None) == full, text
        # the clean prefix ends on the first rejected cell
        rejected = re.search(tf._REJECT, text)
        stop = rejected.end() - 1 if rejected else len(text)
        assert tf._CLEAN(text.encode()).end() == stop, text


def test_validate_rejects_a_long_near_miss_without_backtracking():
    # a mul-large-shaped form of 2^14 symbols whose last block is made
    # two-signed fails only at its end; a full match that backtracked into
    # the blocks it read would not return in any useful time
    nf = REPRESENTATIONS["thompson-f"]().sample_nf(random.Random(14), 1 << 14)
    assert tf.validate(nf)
    last = nf.rfind("#") + 1
    bad = nf + "b" if nf.endswith("a") else nf[:last] + "a" + nf[last:]
    t0 = time.perf_counter()
    assert not tf.validate(bad)
    assert time.perf_counter() - t0 < 5
    with pytest.raises(NotInLanguage):
        ref_parse(bad)
    assert tf._scan_valid(init_tapes(bad)) is False
