import itertools
import random

import pytest

from tapegroups import spiral, z2wrz2 as z
from tapegroups.errors import NotInLanguage
from tapegroups.framework import REPRESENTATIONS, representation_z2wrz2
from tapegroups.oracle_groups import IDENTITY_Z2, LampConfigZ2, wreath_mul_gen
from tapegroups.tapevm import TapeSet, init_tapes
from tapegroups.tokens import Z2Z2_SIGMA, codes_z2z2, encode, render

from test_step_ledger import SIZES, WALKS, _walk_entries, run_raw
from test_thompson_f import non_members

REP = representation_z2wrz2()

INV = {"a": "a-", "a-": "a", "b": "b-", "b-": "b", "c": "c"}

LONG_VECTOR = "0100011000000100001000C1000101111000011000101100001"


def test_encode_identityish():
    assert z.encode(IDENTITY_Z2) == "C0"
    assert z.encode(LampConfigZ2(frozenset(), (1, 0))) == "0C0"
    # running the a-program on the identity gives the same string
    assert REP.apply("C0", "a") == "0C0"


def test_decode_examples():
    assert z.decode("C0") == IDENTITY_Z2
    assert z.decode("C1") == LampConfigZ2(frozenset({(0, 0)}), (0, 0))
    assert z.decode("1C0") == LampConfigZ2(frozenset({(0, 0)}), (1, 0))


def _decodes(text):
    try:
        z.decode(text)
    except NotInLanguage:
        return False
    return True


def test_validate_agrees_with_decode():
    # every text of up to 7 tokens, then the ledger's codec corpus
    texts = ["".join(t) for k in range(8) for t in itertools.product(Z2Z2_SIGMA, repeat=k)]
    assert len(texts) == 21845
    texts += [t for text, _, _, out in _walk_entries(REPRESENTATIONS["z2wrz2"](), 1)
              for t in (text, out)]
    for text in dict.fromkeys(texts):
        assert z.validate(text) == _decodes(text), text


def test_decode_rejections():
    for bad in ("", "0", "C0C0", "C00", "1C01C0", "C2"):
        with pytest.raises(NotInLanguage):
            z.decode(bad)
    assert not z.validate("C00")
    assert z.validate("C0")


def test_long_vector_roundtrip():
    assert z.encode(z.decode(LONG_VECTOR)) == LONG_VECTOR
    cfg = z.decode(LONG_VECTOR)
    assert cfg.pos == (0, -2)  # the lamplighter of the illustrated element


def test_apply_examples():
    assert REP.apply("0C0", "a") == "0" * 10 + "C0"
    assert REP.apply("C1", "c") == "C0"
    assert REP.apply("C0", "c") == "C1"
    out, rep = z.apply_gen_report("C0", "a")
    assert out == "0C0"
    assert rep.gen == "a" and rep.group == "z2wrz2" and rep.steps > 0


def test_jump_displacements_realized():
    # region L1 with one turn: the mark moves exactly 8i+9 = 17 cells
    nf = "0" * 9 + "C0"                      # mark at index 10, region L1, i=1
    out = REP.apply(nf, "a")
    assert out == "0" * 26 + "C0"            # mark at index 27
    # region D3 at the origin ring: 8i+5 = 5 cells leftward
    nf = "0" * 5 + "C0"                      # mark at index 6 = (-1,0) in D3
    assert REP.apply(nf, "a") == "C0"      # lands at the origin, tail erased


def test_scan_tracks_region_and_turns():
    # the first-iteration scan must stop with the turn counter i = turn_count(k)
    for k in list(range(1, 200)) + [677, 2500]:
        toks = ["0"] * (k - 1) + ["C0"]
        ts = init_tapes(toks)
        region = z._scan_to_mark(ts)
        assert region == spiral.classify(spiral.spiral_point(k)), k
        i = ts.cells[1].count(b"T")
        assert i == spiral.turn_count(k), (k, i)


def test_erase_rule_keeps_language():
    # trailing zeros freed by a leftward move are erased
    cfg = LampConfigZ2(frozenset({(0, 0)}), (0, 1))   # index 4, region D2
    nf = z.encode(cfg)
    out = REP.apply(nf, "a")                        # to (1,1) = index 3
    assert out == z.encode(wreath_mul_gen(cfg, "a"))
    assert z.validate(out)


def _random_config(rng, bound):
    k = rng.randint(1, bound)
    lamps = frozenset(spiral.spiral_point(rng.randint(1, bound))
                      for _ in range(rng.randint(0, 6)))
    return LampConfigZ2(lamps, spiral.spiral_point(k))


def test_differential_against_oracle():
    rng = random.Random(42)
    for _ in range(1500):
        bound = int(10 ** rng.uniform(0, 3.3))
        cfg = _random_config(rng, bound)
        nf = z.encode(cfg)
        gen = rng.choice(z.GENERATORS)
        out = REP.apply(nf, gen)
        cfg2 = wreath_mul_gen(cfg, gen)
        assert out == z.encode(cfg2), (cfg, gen)
        assert z.decode(out) == cfg2


def test_inverse_pairs_and_closure():
    rng = random.Random(7)
    for _ in range(400):
        cfg = _random_config(rng, 500)
        nf = z.encode(cfg)
        for gen in z.GENERATORS:
            out = REP.apply(nf, gen)
            assert z.validate(out)
            assert REP.apply(out, INV[gen]) == nf, (nf, gen, out)


TOKEN_CODES = [encode((tok,)) for tok in Z2Z2_SIGMA]


def run_z2(tokens, gen):
    """The output text of gen's raw program on tokens."""
    return run_raw(tokens, z.MACHINE, gen)[0]


def test_no_mark_input_halts_unchanged():
    assert run_z2("", "a") == ""


def test_nonquasigeodesic_family():
    def ratio(k):
        nf = z.encode(LampConfigZ2(frozenset({(k, k)}), (0, 0)))
        return len(codes_z2z2(nf)) / (4 * k + 2)
    assert ratio(50) > 10 * ratio(5)
    assert ratio(100) > 5 * ratio(10)


def test_total_on_invalid_inputs():
    rng = random.Random(0)
    for _ in range(400):
        toks = [rng.choice(Z2Z2_SIGMA) for _ in range(rng.randint(0, 14))]
        for gen in z.GENERATORS:
            run_z2(toks, gen)  # halts on anything


def _one_token_edits(codes):
    """The tape codes one token substitution, deletion or insertion from
    codes."""
    for i in range(len(codes) + 1):
        for tok in TOKEN_CODES:
            yield codes[:i] + tok + codes[i:]
            if i < len(codes):
                yield codes[:i] + tok + codes[i + 1:]
        if i < len(codes):
            yield codes[:i] + codes[i + 1:]


def test_every_generator_raises_on_a_non_member():
    # through the module and the Representation, on F's non-members, the
    # decoder's rejections and every one-token edit of the ledger's walk
    # forms that validate rejects; the raw programs halt on each token string
    rep = REPRESENTATIONS["z2wrz2"]()
    n_walks, length, _, _ = WALKS["z2wrz2"]
    walks = itertools.islice(_walk_entries(rep, 1), n_walks * length * len(z.GENERATORS))
    edits = {render(e): e for nf in dict.fromkeys(nf for nf, *_ in walks)
             for e in _one_token_edits(codes_z2z2(nf))}
    token_strings = {text: codes for text, codes in edits.items() if not z.validate(text)}
    assert len(token_strings) == 125_004
    token_strings.update((render(codes), codes) for codes in map(encode, (
        [], ["0"], ["C0", "C0"], ["C0", "0"], ["1", "C0", "1", "C0"])))
    texts = [*non_members(), "C2", *token_strings]
    raised = 0
    for text in texts:
        for gen in z.GENERATORS:
            for apply_report in (z.apply_gen_report, rep.apply_report):
                try:
                    apply_report(text, gen)
                except NotInLanguage:
                    raised += 1
    assert raised == 2 * len(z.GENERATORS) * len(texts)
    for codes in token_strings.values():
        for gen in z.GENERATORS:
            run_z2(codes, gen)


# -- host work and the explicit step bound -------------------------------------

def test_host_work_grows_like_the_square_root_of_the_input(monkeypatch):
    # the region scan and the mark move are charged in closed form: a move
    # makes O(1) primitive calls per winding, O(sqrt n) in all.  Per-step
    # loops would make O(n), about 16x from 2^10 to 2^14 tokens
    calls = [0]
    for name in ("read", "write", "move_left", "move_right"):
        def counted(self, *args, _prim=getattr(TapeSet, name)):
            calls[0] += 1
            return _prim(self, *args)
        monkeypatch.setattr(TapeSet, name, counted)
    rep = REPRESENTATIONS["z2wrz2"]()
    per_size = {}
    for n in (1 << 10, 1 << 14):
        calls[0] = 0
        for seed in range(3):
            nf = rep.sample_nf(random.Random(seed), n)
            for gen in ("a", "a-", "b", "b-"):
                z.apply_gen_report(nf, gen)
        per_size[n] = calls[0]
    assert per_size[1 << 14] <= 6 * per_size[1 << 10], per_size


def within_bound(text, gen):
    out, report = z.apply_gen_report(text, gen)
    alpha, beta = z.STEP_BOUND[gen]
    assert report.steps <= alpha * report.input_len + beta, (text, gen, report.steps)
    return report


def test_step_bound_on_every_normal_form_up_to_12_tokens():
    count = 0
    for length in range(1, 13):
        for bits in itertools.product("01", repeat=length - 1):
            for c in range(length):
                for mark in ("C0", "C1"):
                    toks = [*bits[:c], mark, *bits[c:]]
                    if toks[-1] == "0":
                        continue
                    count += 1
                    for gen in z.GENERATORS:
                        within_bound("".join(toks), gen)
    assert count == 49_152


def test_step_bound_on_the_ledger_inputs():
    rep = REPRESENTATIONS["z2wrz2"]()
    for n in SIZES:
        nf = rep.sample_nf(random.Random(n), n)
        for gen in z.GENERATORS:
            within_bound(nf, gen)
    # the walks and, through the raw programs, the random token strings,
    # where each C starts a two-character token
    for text, gen, steps, _ in _walk_entries(rep, seed=1):
        alpha, beta = z.STEP_BOUND[gen]
        assert steps <= alpha * (len(text) - text.count("C")) + beta, (text, gen, steps)


def test_step_bound_is_tight_on_the_lamplighter_at_the_end():
    # the scan crosses every token: steps reach at least alpha/2 per token
    rng = random.Random(3)
    for e in range(6, 15):
        n = 1 << e
        bits = "".join(rng.choice("01") for _ in range(n - 1))
        for text in (bits + "C0", "0" * (n - 1) + "C0"):
            for gen in z.GENERATORS:
                report = within_bound(text, gen)
                assert report.steps >= z.STEP_BOUND[gen][0] / 2 * n, (n, gen)
    # alpha is pinned: with the marker on cell p, near the end, and the lamp
    # on cell n lit, some n-token form takes more than (alpha-1)*n + beta
    # steps (at n = 1024 the best by 340 for a, 216 for a-, 497 for b, 464
    # for b- and 1023 for c)
    for n in (256, 1024):
        forms = ["0" * (p - 1) + "C0" + ("0" * (n - p - 1) + "1" if p < n else "")
                 for p in range(n - 40, n + 1)]
        for gen in z.GENERATORS:
            alpha, beta = z.STEP_BOUND[gen]
            reports = [within_bound(text, gen) for text in forms]
            assert {report.input_len for report in reports} == {n}
            assert max(report.steps for report in reports) > (alpha - 1) * n + beta, (n, gen)


TAPE_PROGRAMS = (z._scan_to_mark, z._wind, z._move_mark, z._pad_run, z._erase_run,
                 z._program_toggle, z._program_move)
# the one guard no walk reaches: a jump lands on a spiral neighbour, so no
# region scan leaves the mark closer to the start marker than its move left
# reaches (tests/test_sweeps.py runs the refusal from such states)
UNRUN_GUARDS = [("_move_mark", 'raise TapeFault("attempt to move left of the start marker")')]


def test_ledger_walks_run_every_line_of_the_tape_programs_but_the_guard(unrun_lines):
    # the golden ledger vouches for a refactor of these programs only as far
    # as its walks section runs them
    def walks():
        for _ in _walk_entries(representation_z2wrz2(), 1):
            pass
    assert unrun_lines(TAPE_PROGRAMS, walks) == UNRUN_GUARDS
