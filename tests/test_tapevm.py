import itertools

import pytest

from tapegroups import thompson_f, z2wrf2, z2wrz2
from tapegroups.errors import InvalidInput, NotInLanguage, OutputFault, TapeFault
from tapegroups.tapevm import StepReport, TapeSet, init_tapes, input_codes, read_output
from tapegroups.tapeops import shift_suffix_left, shift_suffix_right
from tapegroups.tokens import (BEGIN, BLANK, CODE, SYMBOL, WORK_SYMBOLS, Z2F2_SIGMA,
                               Z2Z2_SIGMA, codes_of, decode, encode, render, render_z2f2)
from test_tokens import F2_CHARS


def load(ts, t, symbols):
    """Set tape t's cells to the codes of symbols, the start marker first."""
    ts.cells[t][:] = encode(symbols)


def test_init_layout():
    ts = init_tapes(["C0"])
    assert len(ts.cells) == 2
    assert decode(ts.cells[0]) == [BEGIN, "C0"]
    assert decode(ts.cells[1]) == [BEGIN]
    assert ts.heads == [0, 0]
    assert ts.steps == 0


def test_init_empty_and_a_token_list():
    ts = init_tapes([])
    assert decode(ts.cells[0]) == [BEGIN]
    ts = init_tapes(["a", "b", "#"])
    assert decode(ts.cells[0]) == [BEGIN, "a", "b", "#"]


def test_init_takes_a_str_of_one_character_tokens():
    ts = init_tapes("ab#")
    assert decode(ts.cells[0]) == [BEGIN, "a", "b", "#"]
    assert decode(init_tapes("").cells[0]) == [BEGIN]


def test_a_fresh_machine_is_two_blank_tapes_or_holds_the_codes_given():
    for ts in (TapeSet(), TapeSet(b"")):
        assert list(map(decode, ts.cells)) == [[BEGIN], [BEGIN]]
    ts = TapeSet(encode(["0", "C1"]))
    assert list(map(decode, ts.cells)) == [[BEGIN, "0", "C1"], [BEGIN]]
    assert ts.steps == 0 and ts.heads == [0, 0]


def test_init_rejects_markers_and_symbols_without_a_code():
    for check in (init_tapes, input_codes):
        for bad in (["a", BLANK], ["C0", BEGIN], "a" + BLANK, BEGIN + "b", b"a\x00b", b"\x01"):
            with pytest.raises(InvalidInput, match="tape markers"):
                check(bad)
        # a multi-character symbol outside the code table, a non-ASCII
        # character, and the two ASCII characters whose codes the markers hold
        for bad in (["C0", "Q7"], ["D0AB"], "aä", "a\x00", "\x01"):
            with pytest.raises(InvalidInput, match="no tape code"):
                check(bad)
    assert input_codes("ab#") == input_codes(b"ab#") == b"ab#"


# -- the codes function is a run's one input check -----------------------------

MACHINES = (z2wrz2.MACHINE, z2wrf2.MACHINE, thompson_f.MACHINE)
# inputs with a tape marker's code in them, as text and as codes
MARKED = ("⊡", "⊞", "C0⊡", b"a\x00b", b"\x01", b"B0\x00")
# (input, machine) pairs of marker_corpus, and those the codes function refuses
CHECKED, REFUSED = 3864, 2811


def outcome(fn, *args):
    try:
        return fn(*args)
    except (InvalidInput, NotInLanguage) as exc:
        return type(exc), str(exc)


def apply_checking_twice(machine, nf, gen):
    """Machine.apply as it ran while `init_tapes`' marker check followed the
    codes function's check."""
    try:
        codes = machine.codes(nf)
        ts = init_tapes(codes)
    except InvalidInput:
        cases = None
    else:
        cases = machine.programs[gen](ts, gen)
    if cases is None:
        raise NotInLanguage(f"{nf!r} is not a normal form")
    out = read_output(ts, machine.sigma)
    return (out if isinstance(nf, bytes) else machine.render(out),
            StepReport(len(codes), ts.steps, gen, machine.group, cases))


def marker_corpus():
    """MARKED, every string of at most two characters over test_tokens'
    Z2 wr F2 characters, F's alphabet, the markers and the characters coded
    0 and 1, and every one-byte code; text also as codes, codes also as
    text."""
    chars = F2_CHARS + "ab#" + BLANK + BEGIN + "\x00\x01"
    inputs = [*MARKED, *("".join(p) for k in range(3) for p in itertools.product(chars, repeat=k)),
              *(bytes((c,)) for c in range(256))]
    as_codes = {ord(BLANK): "\x00", ord(BEGIN): "\x01"}
    for nf in list(inputs):
        if isinstance(nf, bytes):
            inputs.append(nf.decode("latin-1"))
        elif max(map(ord, nf.translate(as_codes)), default=0) < 256:
            inputs.append(nf.translate(as_codes).encode("latin-1"))
    return dict.fromkeys(inputs)


def test_every_codes_function_refuses_the_tape_markers():
    # so Machine.apply loads its codes with no check of its own: each input
    # is refused, or its codes hold neither marker code, and every run's
    # product, report, exception type and message are those of a run that
    # checks the codes for markers again
    checked = refused = 0
    for nf in marker_corpus():
        for machine in MACHINES:
            codes = outcome(machine.codes, nf)
            if isinstance(codes, bytes):
                assert b"\x00" not in codes and b"\x01" not in codes, (machine.group, nf)
            else:
                refused += 1
            for gen in machine.programs:
                assert (outcome(machine.apply, nf, gen)
                        == outcome(apply_checking_twice, machine, nf, gen)), (machine.group, nf, gen)
            checked += 1
    assert (checked, refused) == (CHECKED, REFUSED)
    with pytest.raises(NotInLanguage, match=r"^'a⊡' is not a normal form$"):
        thompson_f.MACHINE.apply("a⊡", "x0")
    with pytest.raises(NotInLanguage, match=r"^b'a\\x00b' is not a normal form$"):
        thompson_f.MACHINE.apply(b"a\x00b", "x1")


def test_code_table():
    assert CODE[BLANK] == 0 and CODE[BEGIN] == 1
    assert bytes(3) == encode([BLANK] * 3)
    for c in range(2, 128):
        assert CODE[chr(c)] == c  # every other ASCII symbol is its own ordinal
    multi = [s for s in Z2F2_SIGMA + WORK_SYMBOLS if len(s) > 1]
    assert all(CODE[s] >= 128 for s in multi)
    assert len({CODE[s] for s in multi}) == len(multi)
    for sym, code in CODE.items():
        assert SYMBOL[code] == sym
    assert decode(encode(Z2F2_SIGMA + WORK_SYMBOLS)) == list(Z2F2_SIGMA + WORK_SYMBOLS)
    assert encode("ab#") == encode(["a", "b", "#"]) == b"ab#"


def test_renderers_take_tokens_or_their_codes():
    toks = ["D0", "C0", "(", "E0", "C1", ")", "D1", "A1", "E1C", "0", "D0A", "1"]
    assert render_z2f2(encode(toks)) == render_z2f2(toks)
    assert render_z2f2(toks) == "D0 C0(E0 C1)D1 A1E1C0D0A1"
    assert render(encode(["0", "C1", "1"])) == "0C11"
    assert render(encode("ab#")) == render(encode(list("ab#"))) == "ab#"


def test_read_at_marker_and_step_count():
    ts = init_tapes(["C0"])
    assert ts.read(0) == BEGIN
    assert ts.steps == 1


def test_write_read_roundtrip():
    ts = init_tapes([])
    ts.move_right(0)
    ts.write(0, "C1")
    assert ts.read(0) == "C1"
    assert ts.steps == 3


def test_write_of_a_symbol_without_a_code_raises_before_its_step():
    ts = init_tapes([])
    ts.move_right(0)
    with pytest.raises(InvalidInput):
        ts.write(0, "Q7")
    assert ts.steps == 1 and decode(ts.cells[0]) == [BEGIN]


def test_boundary_faults():
    ts = init_tapes([])
    with pytest.raises(TapeFault):
        ts.move_left(0)
    with pytest.raises(TapeFault):
        ts.write(0, "0")


def test_step_monotonicity_exact():
    ts = init_tapes(["0", "1", "0"])
    actions = (lambda: ts.read(0), lambda: ts.move_right(0), lambda: ts.read(0),
               lambda: ts.write(0, "1"), lambda: ts.move_left(0), lambda: ts.read(0))
    for n, action in enumerate(actions, 1):
        action()
        assert ts.steps == n


def test_tape_isolation():
    ts = init_tapes(["0", "1"])
    before = decode(ts.cells[0])
    ts.move_right(1)
    ts.write(1, "T")
    assert decode(ts.cells[0]) == before
    ts.move_right(0)
    ts.write(0, "T")
    assert decode(ts.cells[1]) == [BEGIN, "T"] and ts.heads[1] == 1


def test_read_output_prefix_semantics():
    ts = init_tapes(["0", "C0"])
    assert decode(read_output(ts)) == ["0", "C0"]
    # content beyond the first blank is ignored
    load(ts, 0, [BEGIN, "a", "#", "b", BLANK, "a"])
    assert decode(read_output(ts)) == ["a", "#", "b"]
    load(ts, 0, [BEGIN, BLANK, "1"])
    assert decode(read_output(ts)) == []
    # a tape with no blank is read to its end
    load(ts, 0, [BEGIN, "0", "1"])
    assert decode(read_output(ts)) == ["0", "1"]


def test_read_output_alphabet_check():
    sigma = encode("01")
    ts = init_tapes(["0"])
    load(ts, 0, [BEGIN, "0", "T", BLANK])
    with pytest.raises(OutputFault):
        read_output(ts, sigma)
    # the first symbol outside the alphabet is named; what follows the first
    # blank is not checked
    load(ts, 0, [BEGIN, "0", "T", "1", "U", BLANK, "V"])
    with pytest.raises(OutputFault, match="'T'"):
        read_output(ts, sigma)
    load(ts, 0, [BEGIN, "0", BLANK, "V"])
    assert decode(read_output(ts, sigma)) == ["0"]


def test_read_output_names_a_multi_character_symbol():
    # work symbols and tokens of another alphabet are named by their token
    ts = init_tapes(["B0"])
    load(ts, 0, [BEGIN, "(", "D0", "b#", "(*", ")", BLANK])
    with pytest.raises(OutputFault, match=r"'b#' outside the declared alphabet"):
        read_output(ts, codes_of(Z2F2_SIGMA))
    ts = init_tapes(["C0"])
    load(ts, 0, [BEGIN, "0", "E1C", "T"])
    with pytest.raises(OutputFault, match="'E1C'"):
        read_output(ts, codes_of(Z2Z2_SIGMA))


def test_shift_right_matches_manual():
    ts = init_tapes(["a", "b", "#"])
    ts.move_right(0)
    shift_suffix_right(ts, 0, ["x"])
    assert decode(read_output(ts)) == ["x", "a", "b", "#"]


def test_shift_right_at_blank_appends():
    ts = init_tapes([])
    ts.move_right(0)
    shift_suffix_right(ts, 0, ["y", "z"])
    assert decode(read_output(ts)) == ["y", "z"]


def test_shift_left_deletes():
    ts = init_tapes(["a", "b", "#", "b"])
    ts.move_right(0)
    ts.move_right(0)
    ts.move_right(0)  # head on '#'
    shift_suffix_left(ts, 0, 2)
    assert decode(read_output(ts)) == ["#", "b"]


def test_shift_costs_linear_in_suffix():
    ts = init_tapes(["a"] * 50)
    ts.move_right(0)
    base = ts.steps
    shift_suffix_right(ts, 0, ["b"])
    assert ts.steps - base <= 3 * 52 + 6
