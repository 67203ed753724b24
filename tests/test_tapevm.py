import pytest

from tapegroups.errors import InvalidInput, OutputFault, TapeFault
from tapegroups.tapevm import TapeSet, init_tapes, read_output
from tapegroups.tapeops import shift_suffix_left, shift_suffix_right
from tapegroups.tokens import (BEGIN, BLANK, CODE, SYMBOL, WORK_SYMBOLS,
                               Z2F2_SIGMA, Z2Z2_SIGMA, decode, encode, render, render_z2f2)


def load(tape, symbols):
    """Set a tape's cells to the codes of symbols, the start marker first."""
    tape.cells = bytearray(encode(symbols))


def test_init_layout():
    ts = init_tapes(["C0"], 2)
    assert ts.tapes[0].symbols() == [BEGIN, "C0"]
    assert ts.tapes[1].symbols() == [BEGIN]
    assert ts.tapes[0].head == 0 and ts.tapes[1].head == 0
    assert ts.steps == 0


def test_init_empty_and_single_tape():
    ts = init_tapes([], 2)
    assert ts.tapes[0].symbols() == [BEGIN]
    ts = init_tapes(["a", "b", "#"], 1)
    assert ts.tapes[0].symbols() == [BEGIN, "a", "b", "#"]


def test_init_takes_a_str_of_one_character_tokens():
    ts = init_tapes("ab#", 2)
    assert ts.tapes[0].symbols() == [BEGIN, "a", "b", "#"]
    assert init_tapes("", 1).tapes[0].symbols() == [BEGIN]


def test_init_rejects_markers_and_bad_k():
    with pytest.raises(InvalidInput):
        init_tapes([BLANK], 2)
    with pytest.raises(InvalidInput):
        init_tapes([BEGIN], 2)
    with pytest.raises(InvalidInput):
        TapeSet(0)


def test_init_rejects_markers_and_symbols_without_a_code():
    for bad in (["a", BLANK], ["C0", BEGIN], "a" + BLANK, BEGIN + "b"):
        with pytest.raises(InvalidInput, match="tape markers"):
            init_tapes(bad, 2)
    # a multi-character symbol outside the code table, a non-ASCII character,
    # and the two ASCII characters whose codes the markers hold
    for bad in (["C0", "Q7"], ["D0AB"], "aä", "a\x00", "\x01"):
        with pytest.raises(InvalidInput, match="no tape code"):
            init_tapes(bad, 2)


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
    assert render(encode(["0", "C1", "1"])) == render(["0", "C1", "1"]) == "0C11"
    assert render(encode("ab#")) == render(list("ab#")) == "ab#"


def test_read_at_marker_and_step_count():
    ts = init_tapes(["C0"], 2)
    assert ts.read(0) == BEGIN
    assert ts.steps == 1


def test_write_read_roundtrip():
    ts = init_tapes([], 2)
    ts.move_right(0)
    ts.write(0, "C1")
    assert ts.read(0) == "C1"
    assert ts.steps == 3


def test_write_of_a_symbol_without_a_code_raises_before_its_step():
    ts = init_tapes([], 2)
    ts.move_right(0)
    with pytest.raises(InvalidInput):
        ts.write(0, "Q7")
    assert ts.steps == 1 and ts.tapes[0].symbols() == [BEGIN]


def test_boundary_faults():
    ts = init_tapes([], 2)
    with pytest.raises(TapeFault):
        ts.move_left(0)
    with pytest.raises(TapeFault):
        ts.write(0, "0")


def test_step_monotonicity_exact():
    ts = init_tapes(["0", "1", "0"], 2)
    actions = (lambda: ts.read(0), lambda: ts.move_right(0), lambda: ts.read(0),
               lambda: ts.write(0, "1"), lambda: ts.move_left(0), lambda: ts.read(0))
    for n, action in enumerate(actions, 1):
        action()
        assert ts.steps == n


def test_tape_isolation():
    ts = init_tapes(["0", "1"], 3)
    before = [t.symbols() for t in ts.tapes]
    ts.move_right(1)
    ts.write(1, "T")
    assert ts.tapes[0].symbols() == before[0]
    assert ts.tapes[2].symbols() == before[2]


def test_read_output_prefix_semantics():
    ts = init_tapes(["0", "C0"], 2)
    assert decode(read_output(ts)) == ["0", "C0"]
    # content beyond the first blank is ignored
    load(ts.tapes[0], [BEGIN, "a", "#", "b", BLANK, "a"])
    assert decode(read_output(ts)) == ["a", "#", "b"]
    load(ts.tapes[0], [BEGIN, BLANK, "1"])
    assert decode(read_output(ts)) == []
    # a tape with no blank is read to its end
    load(ts.tapes[0], [BEGIN, "0", "1"])
    assert decode(read_output(ts)) == ["0", "1"]


def test_read_output_alphabet_check():
    ts = init_tapes(["0"], 2, sigma=("0", "1"))
    load(ts.tapes[0], [BEGIN, "0", "T", BLANK])
    with pytest.raises(OutputFault):
        read_output(ts)
    # the first symbol outside the alphabet is named; what follows the first
    # blank is not checked
    load(ts.tapes[0], [BEGIN, "0", "T", "1", "U", BLANK, "V"])
    with pytest.raises(OutputFault, match="'T'"):
        read_output(ts)
    load(ts.tapes[0], [BEGIN, "0", BLANK, "V"])
    assert decode(read_output(ts)) == ["0"]


def test_read_output_names_a_multi_character_symbol():
    # work symbols and tokens of another alphabet are named by their token
    ts = init_tapes(["B0"], 2, sigma=Z2F2_SIGMA)
    load(ts.tapes[0], [BEGIN, "(", "D0", "b#", "(*", ")", BLANK])
    with pytest.raises(OutputFault, match=r"'b#' outside the declared alphabet"):
        read_output(ts)
    ts = init_tapes(["C0"], 2, sigma=Z2Z2_SIGMA)
    load(ts.tapes[0], [BEGIN, "0", "E1C", "T"])
    with pytest.raises(OutputFault, match="'E1C'"):
        read_output(ts)


def test_shift_right_matches_manual():
    ts = init_tapes(["a", "b", "#"], 2)
    ts.move_right(0)
    shift_suffix_right(ts, 0, ["x"])
    assert decode(read_output(ts)) == ["x", "a", "b", "#"]


def test_shift_right_at_blank_appends():
    ts = init_tapes([], 2)
    ts.move_right(0)
    shift_suffix_right(ts, 0, ["y", "z"])
    assert decode(read_output(ts)) == ["y", "z"]


def test_shift_left_deletes():
    ts = init_tapes(["a", "b", "#", "b"], 2)
    ts.move_right(0)
    ts.move_right(0)
    ts.move_right(0)  # head on '#'
    shift_suffix_left(ts, 0, 2)
    assert decode(read_output(ts)) == ["#", "b"]


def test_shift_costs_linear_in_suffix():
    ts = init_tapes(["a"] * 50, 2)
    ts.move_right(0)
    base = ts.steps
    shift_suffix_right(ts, 0, ["b"])
    assert ts.steps - base <= 3 * 52 + 6
