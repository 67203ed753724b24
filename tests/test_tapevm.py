import pytest

from tapegroups.errors import InvalidInput, OutputFault, TapeFault
from tapegroups.tapevm import TapeSet, init_tapes, read_output
from tapegroups.tapeops import shift_suffix_left, shift_suffix_right
from tapegroups.tokens import BEGIN, BLANK


def test_init_layout():
    ts = init_tapes(["C0"], 2)
    assert ts.tapes[0].cells == [BEGIN, "C0"]
    assert ts.tapes[1].cells == [BEGIN]
    assert ts.tapes[0].head == 0 and ts.tapes[1].head == 0
    assert ts.steps == 0


def test_init_empty_and_single_tape():
    ts = init_tapes([], 2)
    assert ts.tapes[0].cells == [BEGIN]
    ts = init_tapes(["a", "b", "#"], 1)
    assert ts.tapes[0].cells == [BEGIN, "a", "b", "#"]


def test_init_rejects_markers_and_bad_k():
    with pytest.raises(InvalidInput):
        init_tapes([BLANK], 2)
    with pytest.raises(InvalidInput):
        init_tapes([BEGIN], 2)
    with pytest.raises(InvalidInput):
        TapeSet(0)


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
    before = [list(t.cells) for t in ts.tapes]
    ts.move_right(1)
    ts.write(1, "T")
    assert list(ts.tapes[0].cells) == before[0]
    assert list(ts.tapes[2].cells) == before[2]


def test_read_output_prefix_semantics():
    ts = init_tapes(["0", "C0"], 2)
    assert read_output(ts) == ["0", "C0"]
    # content beyond the first blank is ignored
    ts.tapes[0].cells = [BEGIN, "a", "#", "b", BLANK, "a"]
    assert read_output(ts) == ["a", "#", "b"]
    ts.tapes[0].cells = [BEGIN, BLANK, "1"]
    assert read_output(ts) == []
    # a tape with no blank is read to its end
    ts.tapes[0].cells = [BEGIN, "0", "1"]
    assert read_output(ts) == ["0", "1"]


def test_read_output_alphabet_check():
    ts = init_tapes(["0"], 2, sigma=("0", "1"))
    ts.tapes[0].cells = [BEGIN, "0", "T", BLANK]
    with pytest.raises(OutputFault):
        read_output(ts)
    # the first symbol outside the alphabet is named; what follows the first
    # blank is not checked
    ts.tapes[0].cells = [BEGIN, "0", "T", "1", "U", BLANK, "V"]
    with pytest.raises(OutputFault, match="'T'"):
        read_output(ts)
    ts.tapes[0].cells = [BEGIN, "0", BLANK, "V"]
    assert read_output(ts) == ["0"]


def test_shift_right_matches_manual():
    ts = init_tapes(["a", "b", "#"], 2)
    ts.move_right(0)
    shift_suffix_right(ts, 0, ["x"])
    assert read_output(ts) == ["x", "a", "b", "#"]


def test_shift_right_at_blank_appends():
    ts = init_tapes([], 2)
    ts.move_right(0)
    shift_suffix_right(ts, 0, ["y", "z"])
    assert read_output(ts) == ["y", "z"]


def test_shift_left_deletes():
    ts = init_tapes(["a", "b", "#", "b"], 2)
    ts.move_right(0)
    ts.move_right(0)
    ts.move_right(0)  # head on '#'
    shift_suffix_left(ts, 0, 2)
    assert read_output(ts) == ["#", "b"]


def test_shift_costs_linear_in_suffix():
    ts = init_tapes(["a"] * 50, 2)
    ts.move_right(0)
    base = ts.steps
    shift_suffix_right(ts, 0, ["b"])
    assert ts.steps - base <= 3 * 52 + 6
