import random

import pytest

from tapegroups import z2wrf2 as z
from tapegroups.errors import NotInLanguage
from tapegroups.framework import REPRESENTATIONS, representation_z2wrf2, word_to_nf
from tapegroups.oracle_groups import IDENTITY_F2, LampConfigF2, f2_reduce, wreath_mul_gen
from tapegroups.tokens import render_z2f2, tokenize_z2f2
from test_step_ledger import SIZES, _walk_entries

INV = {"a": "a-", "a-": "a", "b": "b-", "b-": "b", "c": "c"}

FIG3_ITERATIONS = [
    "11D0AD01",
    "11(1E0D0AE0)(E0D0E1)1",
    "11(1[1E01]D0A[E0D1])([1E0]D0[1E1])1",
    "11(1[1E01]D0A[E0(C1D1)])([1E0]D0[1E1])1",
]


def test_tokenizer_maximal_munch():
    assert tokenize_z2f2("11D0AD01") == ["1", "1", "D0A", "D0", "1"]
    assert tokenize_z2f2("(C1D1)") == ["(", "C1", "D1", ")"]
    # the separator keeps pivot-then-marker unambiguous
    toks = ["(", "D0", "C0", ")"]
    assert tokenize_z2f2(render_z2f2(toks)) == toks
    assert tokenize_z2f2("D0C0") == ["D0C", "0"]


def test_encode_decode_basics():
    assert z.encode(IDENTITY_F2) == "B0"
    assert z.encode(LampConfigF2(frozenset(), "a")) == "A0C0"
    assert z.decode("B0") == IDENTITY_F2
    assert z.decode("B1") == LampConfigF2(frozenset({""}), "")
    assert z.decode("A0C0") == LampConfigF2(frozenset(), "a")


def test_decode_rejections():
    bad = [
        "",                # empty
        "C0",              # no identity anchor
        "A0",              # no lamplighter marker
        "B0B0",            # two anchors
        "A0C0C0",          # two markers
        "0A0C0",           # untrimmed zero at the top line start
        "A0C00",           # untrimmed zero at the top line end
        "(D0)B0",          # expanded group with empty interior
        "A0(C0",           # unbalanced bracket
        "A0(E0C])",        # mismatched pair
        "B0[1E01]",        # horizontal group at the top level
        "A0(0E0C)",        # untrimmed zero inside a group
    ]
    for s in bad:
        assert not z.validate(s), s


def test_decode_reports_the_first_fault_in_token_order():
    # each form has two faults; decode names the one that comes first
    cases = {
        "A0(E0D1[01])": "token 'E0' not allowed inside a group",
        "A0(1D1[]1E1)": "group without a unique pivot",
        "A0(1D1[E0]A0)": "expanded group with an empty interior",
        "A0(1D10E01A0)": "token 'E0' not allowed inside a group",
    }
    for text, message in cases.items():
        with pytest.raises(NotInLanguage) as err:
            z.decode(text)
        assert str(err.value) == message, text


def test_decode_messages_the_walk_corpus_misses():
    # neither tier-1 nor the ledger's codec section reaches these three
    cases = {
        "(D0A(D0C0)1)": "group nesting does not alternate",
        "(D0A[E0(D0C1)])": "top-level pivot class below the top level",
        "(D0A[E0C0])": "untrimmed zero at the far end of a group side",
    }
    for text, message in cases.items():
        with pytest.raises(NotInLanguage) as err:
            z.decode(text)
        assert str(err.value) == message, text


def test_fig3_decode_and_iteration_replay():
    cfg = z.decode(FIG3_ITERATIONS[-1])
    assert cfg.pos == "baB"
    assert cfg.pos in cfg.lit
    assert len(cfg.lit) == 11
    assert z.encode_iterations(cfg) == FIG3_ITERATIONS
    assert z.encode(cfg) == FIG3_ITERATIONS[-1]


def test_apply_examples():
    assert z.apply_gen("B0", "c") == "B1"
    assert z.apply_gen("A0C0", "c") == "A0C1"
    assert z.apply_gen("B0", "a") == "A0C0"
    assert z.apply_gen("A0C0", "a-") == "B0"
    assert z.apply_gen("B0", "b") == "(D0AC0)"
    assert z.apply_gen("(D0AC0)", "b-") == "B0"
    assert z.apply_gen("B0", "a-") == "C0A0"
    assert z.apply_gen("C0A0", "a") == "B0"


def test_sprout_and_collapse_inverse():
    # a leaf sprouting a group and the reverse collapse are exact inverses
    nf = z.encode(LampConfigF2(frozenset(), "a"))      # A0C0
    up = z.apply_gen(nf, "b")
    assert z.decode(up) == LampConfigF2(frozenset(), "ab")
    assert z.apply_gen(up, "b-") == nf


def test_bracket_mutation_rejected():
    good = FIG3_ITERATIONS[-1]
    mutated = good.replace("(", "[", 1)
    out = z.apply_gen(mutated, "a")
    assert not z.validate(out)  # halts without producing a member of L


def test_differential_walks():
    rng = random.Random(42)
    checked = 0
    for trial in range(150):
        nf = "B0"
        cfg = IDENTITY_F2
        for _ in range(rng.randint(1, 60)):
            gen = rng.choice(z.GENERATORS)
            out = z.apply_gen(nf, gen)
            cfg2 = wreath_mul_gen(cfg, gen)
            assert out == z.encode(cfg2), (trial, nf, gen)
            assert z.decode(out) == cfg2
            checked += 1
            nf, cfg = out, cfg2
    assert checked > 2000


def test_random_walk_closure_500():
    rng = random.Random(9)
    nf = "B0"
    cfg = IDENTITY_F2
    for _ in range(500):
        gen = rng.choice(z.GENERATORS)
        nf = z.apply_gen(nf, gen)
        cfg = wreath_mul_gen(cfg, gen)
        assert z.validate(nf)
        assert z.decode(nf) == cfg


def test_inverse_pairs():
    rng = random.Random(3)
    nf = "B0"
    for _ in range(300):
        gen = rng.choice(z.GENERATORS)
        out = z.apply_gen(nf, gen)
        assert z.apply_gen(out, INV[gen]) == nf, (nf, gen, out)
        nf = out


def test_quasigeodesic_necessary_direction():
    rng = random.Random(21)
    worst = 0.0
    for _ in range(6):
        nf = "B0"
        for k in range(1, 400):
            nf = z.apply_gen(nf, rng.choice(z.GENERATORS))
            worst = max(worst, len(tokenize_z2f2(nf)) / (k + 1))
    assert worst < 12.0  # a fixed constant bounds |nf| / (walk length + 1)


def test_total_on_invalid_inputs():
    # the programs must halt (not fault) on anything over the alphabet
    import random
    from tapegroups.tokens import Z2F2_SIGMA
    rng = random.Random(0)
    for _ in range(300):
        toks = [rng.choice(Z2F2_SIGMA) for _ in range(rng.randint(0, 12))]
        text = render_z2f2(toks)
        for gen in z.GENERATORS:
            z.apply_gen(text, gen)  # any output, no exception


# -- the fixpoint encoder the construction tree replaced, kept as a reference --

class RefGroup:
    def __init__(self, bracket, items):
        self.bracket = bracket
        self.items = items


def ref_render_items(items):
    out = []

    def walk(it):
        if isinstance(it, str):
            out.append(it)
        elif isinstance(it, z._Node):
            out.append(it.token)
        else:
            out.append(it.bracket)
            for sub in it.items:
                walk(sub)
            out.append(")" if it.bracket == "(" else "]")

    for it in items:
        walk(it)
    return render_z2f2(out)


def ref_expand_once(items, axis):
    changed = False
    new_items = []
    for it in items:
        if isinstance(it, z._Node) and it.axis == axis:
            changed = True
            bracket = "(" if axis == "b" else "["
            new_items.append(RefGroup(bracket, z._scan_line(it.entries, axis, it.token)))
        elif isinstance(it, RefGroup):
            sub, ch = ref_expand_once(it.items, axis)
            changed = changed or ch
            new_items.append(RefGroup(it.bracket, sub))
        else:
            new_items.append(it)
    return new_items, changed


def ref_iterations(config):
    """Item lists after each construction iteration, up to the fixpoint."""
    entries = [(w, True, w == config.pos) for w in sorted(config.lit)]
    if config.pos not in config.lit:
        entries.append((config.pos, False, True))
    items = z._scan_line(entries, "a", None)
    yield items
    axis = "b"
    while True:
        items, changed = ref_expand_once(items, axis)
        if not changed:
            return
        yield items
        axis = "a" if axis == "b" else "b"


def ref_encode_iterations(config):
    return [ref_render_items(items) for items in ref_iterations(config)]


def _random_configs(seed, count, max_word, max_lamps):
    rng = random.Random(seed)
    for _ in range(count):
        lamps = frozenset(f2_reduce("".join(rng.choice("aAbB") for _ in range(rng.randint(0, max_word))))
                          for _ in range(rng.randint(0, max_lamps)))
        pos = f2_reduce("".join(rng.choice("aAbB") for _ in range(rng.randint(0, max_word))))
        yield LampConfigF2(lamps, pos)


def _check_against_reference(cfg):
    want = ref_encode_iterations(cfg)
    assert z.encode_iterations(cfg) == want, cfg
    assert z.encode(cfg) == want[-1], cfg


def test_encode_renders_the_last_iteration():
    for cfg in _random_configs(43, 40, 9, 12):
        _check_against_reference(cfg)


def test_encode_matches_the_reference_on_sampled_forms():
    rep = REPRESENTATIONS["z2wrf2"]()
    for n in (64, 128, 256, 512, 1024, 2048, 4096):
        for j in range(2):
            nf = rep.sample_nf(random.Random((n << 4) + j), n)
            cfg = z.decode(nf)
            assert z.encode(cfg) == nf
            _check_against_reference(cfg)
    for cfg in _random_configs(44, 300, 14, 20):
        _check_against_reference(cfg)


# -- nesting deeper than the interpreter's recursion limit --------------------

# 1200 alternating a/b steps, each lighting a lamp: about 1200 nested groups
DEEP_FOLD = ("a", "c", "b", "c") * 600
DEEP_ZIGZAG = LampConfigF2(frozenset({"ab" * 1024}), "")  # 2048 letters, 2047 levels


def _fold_cfg(word):
    cfg = IDENTITY_F2
    for gen in word:
        cfg = wreath_mul_gen(cfg, gen)
    return cfg


def test_deep_folded_form_decodes_and_validates():
    nf = word_to_nf(REPRESENTATIONS["z2wrf2"](), DEEP_FOLD)
    assert len(tokenize_z2f2(nf)) == 3599
    cfg = _fold_cfg(DEEP_FOLD)
    assert z.validate(nf)
    assert z.decode(nf) == cfg
    assert z.encode(cfg) == nf


def test_deep_zigzag_lamp_round_trips():
    nf = z.encode(DEEP_ZIGZAG)
    assert nf.count("(") + nf.count("[") == 2047
    assert z.decode(nf) == DEEP_ZIGZAG


TAPE_PROGRAMS = (z._walk, z._scan_to_marker, z._enter, z._exit_group, z._leaf_inline,
                 z._move_and_land, z._mark_pivot, z._sprout, z._program_move,
                 z._program_toggle, z._insert_here)


def test_ledger_walks_run_every_line_of_the_tape_programs(unrun_lines):
    # the golden ledger vouches for a refactor of these programs only as far
    # as its walks and apply sections run them: every line must be reached.
    # Only the apply section's 2^10 and 2^14 forms cross enough brackets for
    # _walk to settle its stack without the loop; test_sweeps.py runs every
    # line of _settle itself
    rep = representation_z2wrf2()

    def walks():
        for _ in _walk_entries(rep, 1):
            pass
        for n in SIZES[1:]:
            nf = rep.sample_nf(random.Random(n), n)
            for gen in rep.generators:
                rep.apply_report(nf, gen)
    assert unrun_lines(TAPE_PROGRAMS, walks) == []
