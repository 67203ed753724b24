"""Counted sweeps against the per-primitive loops that define them.

Each sweep (`TapeSet.scan_right`, `TapeSet.scan_left`, the two suffix shifts
and F's `_scan_valid`) must leave exactly the state its defining loop leaves:
the same return value, step count, head and cells, and for a fault the same
exception type after the same number of steps.  The loops below are the
replaced implementations, kept as reference oracles.
"""

import itertools
import random
from collections import deque

import pytest

from tapegroups import thompson_f as tf
from tapegroups import z2wrf2
from tapegroups.errors import InvalidInput, TapeFault
from tapegroups.framework import REPRESENTATIONS
from tapegroups.tapeops import shift_suffix_left, shift_suffix_right
from tapegroups.tapevm import TapeSet
from tapegroups.tokens import BEGIN, BLANK, Z2F2_SIGMA

SMALL = ("a", "b", "#", BLANK, "x")
# Tapes over SMALL are enumerated up to this length with every head and stop
# set (1.3M scan cases, about 25 s with the shifts).  Length 7 was run once
# as well (134 s); raise it to repeat that.
SMALL_LEN = 6
# every stop set a program scans for, by direction
RIGHT_STOPS = ((BLANK,), ("#",), ("#", BLANK), ("C0",), ("C0", "C1", BLANK),
               z2wrf2._TOGGLE_STOP)
LEFT_STOPS = ((BEGIN,), ("b", BEGIN), ("C0",))
NEVER = "never halts"


# -- reference loops ---------------------------------------------------------

def loop_scan_right(ts, t, stop):
    while True:
        sym = ts.read(t)
        if sym in stop:
            return sym
        if ts.tapes[t].head > len(ts.tapes[t].cells):
            return NEVER  # only blanks lie ahead, and blank is not a stop
        ts.move_right(t)


def loop_scan_left(ts, t, stop):
    while True:
        sym = ts.read(t)
        if sym in stop:
            return sym
        ts.move_left(t)


def loop_shift_right(ts, t, insert):
    buf = deque(insert)
    while True:
        old = ts.read(t)
        ts.write(t, buf.popleft())
        buf.append(old)
        if old == BLANK and all(b == BLANK for b in buf):
            return
        ts.move_right(t)


def loop_shift_left(ts, t, k):
    while True:
        sym = ts.read(t)
        for _ in range(k):
            ts.move_left(t)
        ts.write(t, sym)
        if sym == BLANK:
            return
        for _ in range(k + 1):
            ts.move_right(t)


def loop_scan_valid(ts):
    has_a = has_b = in_b = False
    prev_both = False
    nonempty = False
    while True:
        ts.move_right(0)
        sym = ts.read(0)
        if sym == "a":
            nonempty = True
            if in_b:
                return False
            has_a = True
        elif sym == "b":
            nonempty = True
            in_b = has_b = True
        elif sym == "#":
            nonempty = True
            if prev_both and not (has_a or has_b):
                return False
            prev_both = has_a and has_b
            has_a = has_b = in_b = False
        elif sym == BLANK:
            break
        else:
            return False
    if nonempty:
        if prev_both and not (has_a or has_b):
            return False
        if has_a == has_b:
            return False
    while ts.read(0) != BEGIN:
        ts.move_left(0)
    return True


# -- harness -----------------------------------------------------------------

def run(fn, cells, head, *args):
    """Run fn on a one-tape set; the final state, or the fault and its steps."""
    ts = TapeSet(1)
    tape = ts.tapes[0]
    tape.cells = [BEGIN, *cells]
    tape.head = head
    try:
        out = fn(ts, *args)
    except TapeFault as exc:
        out = type(exc)
    return out, ts.steps, tape.head, tape.cells


def check_scan_right(cells, h, stop):
    want = run(loop_scan_right, cells, h, 0, stop)
    got = run(lambda ts, t, s: ts.scan_right(t, s), cells, h, 0, stop)
    if want[0] == NEVER:
        # no step count defines a loop that never halts: the sweep faults
        # before any step and leaves the tape as it was
        want = (TapeFault, 0, h, [BEGIN, *cells])
    assert got == want, (cells, h, stop)


def check_scan_left(cells, h, stop):
    want = run(loop_scan_left, cells, h, 0, stop)
    got = run(lambda ts, t, s: ts.scan_left(t, s), cells, h, 0, stop)
    assert got == want, (cells, h, stop)


def small_tapes(max_len=SMALL_LEN):
    for n in range(max_len + 1):
        yield from itertools.product(SMALL, repeat=n)


def heads(cells):
    return range(len(cells) + 4)  # up to two cells past the first virtual blank


# -- scans -------------------------------------------------------------------

def test_scans_match_loops_on_every_small_tape():
    for cells in small_tapes():
        for h in heads(cells):
            for stop in RIGHT_STOPS:
                check_scan_right(cells, h, stop)
            for stop in LEFT_STOPS:
                check_scan_left(cells, h, stop)


def test_scans_match_loops_on_long_tapes():
    # runs longer than the first search window, on z2wrf2 tokens
    rng = random.Random(5)
    toks = Z2F2_SIGMA + (BLANK,)
    for _ in range(400):
        cells = [rng.choice(toks) for _ in range(rng.randint(0, 600))]
        if rng.random() < 0.5:  # mostly without the stop symbols
            cells = [c for c in cells if c not in ("C0", BLANK) or rng.random() < 0.02]
        for h in (0, rng.randint(0, len(cells) + 2), len(cells), len(cells) + 3):
            for stop in RIGHT_STOPS:
                check_scan_right(cells, h, stop)
            for stop in LEFT_STOPS + ((BLANK,), ("(", "[")):
                check_scan_left(cells, h, stop)


def test_scan_right_that_never_halts_faults():
    ts = TapeSet(1)
    ts.tapes[0].cells = [BEGIN, "a", "b"]
    with pytest.raises(TapeFault):
        ts.scan_right(0, ("#",))
    assert ts.steps == 0 and ts.tapes[0].head == 0
    ts.tapes[0].head = 7  # past the end: only blanks ahead
    with pytest.raises(TapeFault):
        ts.scan_right(0, ("a",))


def test_scan_left_off_the_start_marker_faults_after_the_loop_steps():
    ts = TapeSet(1)
    ts.tapes[0].cells = [BEGIN, "a", "b"]
    ts.tapes[0].head = 2
    with pytest.raises(TapeFault):
        ts.scan_left(0, ("#",))
    assert ts.steps == 5 and ts.tapes[0].head == 0


def test_scans_charge_2d_plus_1():
    ts = TapeSet(2)
    ts.tapes[0].cells = [BEGIN] + ["a"] * 1000
    assert ts.scan_right(0, (BLANK,)) == BLANK
    assert ts.steps == 2 * 1001 + 1 and ts.tapes[0].head == 1001
    assert ts.scan_left(0, (BEGIN,)) == BEGIN
    assert ts.steps == 2 * (2 * 1001 + 1) and ts.tapes[0].head == 0
    assert ts.tapes[1].head == 0


# -- suffix shifts -----------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3])
def test_shifts_match_loops_on_every_small_tape(k):
    insert = ["y", "z", "w"][:k]
    for cells in small_tapes():
        for h in heads(cells):
            want = run(loop_shift_right, cells, h, 0, insert)
            assert run(shift_suffix_right, cells, h, 0, insert) == want, (cells, h, k)
            want = run(loop_shift_left, cells, h, 0, k)
            assert run(shift_suffix_left, cells, h, 0, k) == want, (cells, h, k)


def test_shift_right_with_blanks_in_the_insert():
    for insert in ([BLANK], ["y", BLANK], [BLANK, "y"], [BLANK, BLANK, "y"], [BLANK] * 3):
        for cells in small_tapes(5):
            for h in heads(cells):
                want = run(loop_shift_right, cells, h, 0, insert)
                assert run(shift_suffix_right, cells, h, 0, insert) == want, (cells, h)


def test_shifts_match_loops_on_z2wrf2_tapes():
    rng = random.Random(9)
    toks = Z2F2_SIGMA + (BLANK,)
    for _ in range(3000):
        cells = [rng.choice(toks) for _ in range(rng.randint(0, 40))]
        if rng.random() < 0.7:
            cells = [c for c in cells if c != BLANK or rng.random() < 0.1]
        h = rng.randint(0, len(cells) + 2)
        k = rng.randint(1, 3)
        insert = [rng.choice(toks) for _ in range(k)]
        want = run(loop_shift_right, cells, h, 0, insert)
        assert run(shift_suffix_right, cells, h, 0, insert) == want
        want = run(loop_shift_left, cells, h, 0, k)
        assert run(shift_suffix_left, cells, h, 0, k) == want


def test_shift_right_needs_a_cell_to_insert():
    ts = TapeSet(1)
    ts.tapes[0].head = 1
    with pytest.raises(InvalidInput):
        shift_suffix_right(ts, 0, [])
    assert ts.steps == 0


def test_shift_closed_form_counts():
    for J in range(1, 30):
        for k in (1, 2, 3):
            ts = TapeSet(1)
            ts.tapes[0].cells = [BEGIN] + ["a"] * 5 + ["b"] * (J - 1)
            ts.tapes[0].head = 6
            shift_suffix_left(ts, 0, k)
            assert ts.steps == (J - 1) * (2 * k + 3) + k + 2
            ts = TapeSet(1)
            ts.tapes[0].cells = [BEGIN] + ["b"] * J
            ts.tapes[0].head = 1
            shift_suffix_right(ts, 0, ["y"] * k)
            assert ts.steps == 3 * (J + k) - 1


# -- F's validity sweep --------------------------------------------------------

def test_scan_valid_matches_loop_on_every_small_tape():
    for cells in small_tapes(7):
        for h in (0, 1, len(cells), len(cells) + 2):
            want = run(loop_scan_valid, cells, h)
            assert run(tf._scan_valid, cells, h) == want, (cells, h)


def test_scan_valid_matches_loop_on_normal_forms():
    rep = REPRESENTATIONS["thompson-f"]()
    rng = random.Random(4)
    for n in (8, 64, 512, 4096):
        nf = rep.sample_nf(rng, n)
        for text in (nf, nf + "#", nf[:-1] + "a", "ab##" + nf, nf.replace("#", "x", 1)):
            cells = list(text)
            want = run(loop_scan_valid, cells, 0)
            assert run(tf._scan_valid, cells, 0) == want
            assert want[0] == tf.validate(text)
