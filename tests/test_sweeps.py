"""Counted sweeps against the per-primitive loops that define them.

Each sweep (`TapeSet.scan_right`, `TapeSet.scan_left`, the two suffix shifts,
F's `_scan_valid`, rewind, counter walks and block flags, x1's erase, restore
and compare sweeps, Z2 wr Z^2's region scan and mark move and Z2 wr F2's
bracket-stack walk) must leave exactly the state its defining loop leaves.
One runner, `run`, starts a sweep or a loop on a fresh machine from given
tapes and returns its end state: the return value or the fault's type, the
step count, and each given tape's cells and head.  `check` runs a sweep and
its loop from the same tapes, and `agree` asserts that the two end states
are equal and counts the comparison; each test asserts how many it made.
Three comparisons differ, each stated once in `agree`: a loop that never
halts is a fault before any step; x1's erase and restore agree with their
loops up to trailing blanks; and Z2 wr Z^2's mark move refuses a move near
the start marker before any step, where its loop faults partway through
the run.  The loops below are the replaced implementations, kept as
reference oracles.
"""

import functools
import itertools
import random
import time
from collections import Counter, deque

import pytest

from tapegroups import spiral, tapeops, tapevm
from tapegroups import thompson_f as tf
from tapegroups import z2wrf2
from tapegroups import z2wrz2 as zz
from tapegroups.errors import InvalidInput, TapeFault
from tapegroups.framework import REPRESENTATIONS, word_to_nf
from tapegroups.tapeops import shift_suffix_left, shift_suffix_right
from tapegroups.tapevm import TapeSet, first_stop, init_tapes
from tapegroups.tokens import BEGIN, BLANK, CODE, SYMBOL, Z2F2_SIGMA, Z2Z2_SIGMA, encode
from test_step_ledger import LEDGER, SIZES, _walk_entries, build_ledger, render_ledger
from test_z2wrf2 import DEEP_FOLD, DEEP_ZIGZAG

SMALL = ("a", "b", "#", BLANK, "x")
# Tapes over SMALL are enumerated up to this length with every head and stop
# set (2.1M scan comparisons).  Length 7 was run once as well (134 s); raise
# it to repeat that, and the counts the tests assert with it.
SMALL_LEN = 6
# every stop set a program scans for, by direction
RIGHT_STOPS = ((BLANK,), ("#",), ("#", BLANK), (BLANK, "b"), ("C0",),
               ("C0", "C1", BLANK), z2wrf2._TOGGLE_STOP, tf._NOT_A)
LEFT_STOPS = ((BEGIN,), ("b", BEGIN), ("C0",))
NEVER = "never halts"


# -- reference loops ---------------------------------------------------------

def loop_scan_right(ts, t, stop):
    while True:
        sym = ts.read(t)
        if sym in stop:
            return sym
        if ts.heads[t] > len(ts.cells[t]):
            return NEVER  # only blanks lie ahead, and blank is not a stop
        ts.move_right(t)


def loop_scan_left(ts, t, stop):
    while True:
        sym = ts.read(t)
        if sym in stop:
            return sym
        ts.move_left(t)


def loop_rewind(ts, t):
    loop_scan_left(ts, t, (BEGIN,))


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
#
# A run starts from one (codes, head) pair per tape it uses, the start
# marker's code first, and ends in a state (out, steps, (codes, head), ...).
# Decoding is one to one, so comparing codes compares the symbols.

compared = 0  # the comparisons agree has made in the running test


@pytest.fixture(autouse=True)
def _count_comparisons():
    global compared
    compared = 0


def run(fn, starts, *args):
    """Load starts into the first len(starts) tapes of a fresh machine, run
    fn(machine, *args) and return its end state on those tapes, a fault as
    its type."""
    ts = TapeSet()
    for t, (cells, head) in enumerate(starts):
        ts.cells[t][:] = cells
        ts.heads[t] = head
    try:
        out = fn(ts, *args)
    except TapeFault as exc:
        out = type(exc)
    n = len(starts)
    return out, ts.steps, *zip(ts.cells[:n], ts.heads[:n])


def trimmed(state):
    """A state with each tape's trailing blanks dropped: cells past the last
    written one read blank, so the tapes are the same."""
    out, steps, *tapes = state
    return out, steps, *((cells.rstrip(b"\0"), head) for cells, head in tapes)


def check(sweep, loop, starts, *args):
    """Assert that sweep(machine, *args) leaves the state loop leaves from
    starts, and return the sweep's end state."""
    return agree(sweep, run(loop, starts, *args), starts, *args)


def agree(sweep, want, starts, *args):
    """Assert that sweep(machine, *args) leaves the state want, its loop's
    from starts, and return the sweep's end state.  Three comparisons differ:

    - no step count defines a loop that never halts: the sweep faults before
      any step and leaves the tapes as they were;
    - x1's erase and restore drop the cells they erase where their loops
      write blanks, so they agree up to trailing blanks;
    - a jump lands on a spiral neighbour, so no region scan leaves Z2 wr
      Z^2's mark closer to cell 0 than its move left reaches.  From such a
      state the loop faults partway through its run and the mark move
      refuses before any step.
    """
    global compared
    compared += 1
    got = same = run(sweep, starts, *args)
    if want[0] == NEVER or want[0] is TapeFault and sweep is zz._move_mark:
        want = TapeFault, 0, *starts
    elif sweep in DROPS_BLANKS and got != want:
        same, want = trimmed(got), trimmed(want)
    assert same == want, (sweep.__name__, starts, args)
    return got


def codes(cells):
    return encode([BEGIN, *cells])


FRESH = (codes(()), 0)  # a blank tape, its head on the start marker


def small_tapes(max_len=SMALL_LEN, alphabet=SMALL):
    """The codes of every tape over alphabet of up to max_len cells."""
    for n in range(max_len + 1):
        for cells in itertools.product(alphabet, repeat=n):
            yield codes(cells)


def heads(tape_codes):
    return range(len(tape_codes) + 3)  # up to two cells past the first virtual blank


@functools.cache
def small_starts(max_len=SMALL_LEN):
    """Every one-tape start over SMALL of up to max_len cells, from every
    head, built once for every sweep and stop set that runs on them."""
    return tuple(((cells, h),) for cells in small_tapes(max_len) for h in heads(cells))


# -- scans -------------------------------------------------------------------

def test_scans_match_loops_on_every_small_tape():
    for starts in small_starts():
        for stop in RIGHT_STOPS:
            check(TapeSet.scan_right, loop_scan_right, starts, 0, stop)
        for stop in LEFT_STOPS:
            check(TapeSet.scan_left, loop_scan_left, starts, 0, stop)
    assert compared == 2_094_719


def test_rewind_matches_loop_on_every_small_tape():
    # F's rewind is scan_left to the start marker, which no tape holds past
    # cell 0
    for starts in small_starts(5):
        check(tf._rewind, loop_rewind, starts, 0)
    assert compared == 34_179


def test_scans_match_loops_on_long_tapes():
    # runs of up to 600 cells, on z2wrf2 tokens
    rng = random.Random(5)
    toks = Z2F2_SIGMA + (BLANK,)
    for _ in range(400):
        cells = [rng.choice(toks) for _ in range(rng.randint(0, 600))]
        if rng.random() < 0.5:  # mostly without the stop symbols
            cells = [c for c in cells if c not in ("C0", BLANK) or rng.random() < 0.02]
        hs = (0, rng.randint(0, len(cells) + 2), len(cells), len(cells) + 3)
        cells = codes(cells)
        for h in hs:
            for stop in RIGHT_STOPS:
                check(TapeSet.scan_right, loop_scan_right, ((cells, h),), 0, stop)
            for stop in LEFT_STOPS + ((BLANK,), ("(", "[")):
                check(TapeSet.scan_left, loop_scan_left, ((cells, h),), 0, stop)
    assert compared == 20_800


def test_scan_right_that_never_halts_faults():
    tape = codes("ab")
    assert run(TapeSet.scan_right, ((tape, 0),), 0, ("#",)) == (TapeFault, 0, (tape, 0))
    # past the end: only blanks ahead
    assert run(TapeSet.scan_right, ((tape, 7),), 0, ("a",))[0] is TapeFault


def test_the_empty_stop_set_never_stops():
    for tape in (codes("ab"), codes("a" * 3 * tapevm.STOP_WINDOW)):
        assert run(TapeSet.scan_right, ((tape, 1),), 0, ()) == (TapeFault, 0, (tape, 1))
        assert first_stop(bytearray(tape), 1, ()) == -1


# distances from a rightward search's first cell to its stop, on either side
# of the edge of the byte-class window and of the first two translate
# windows past it (8 and 64 times as wide)
W = tapevm.STOP_WINDOW
EDGES = tuple(edge + k for edge in (W, 9 * W, 73 * W) for k in (-1, 0, 1))


def edge_starts(stop, filler, ahead=0):
    """Starts of a rightward search for stop over filler cells from heads 1
    and 3, whose first cell searched lies `ahead` cells past the head: a
    stop code of the set, and a written blank if the blank is one, at each
    edge distance from that cell, last on the tape or with filler and a stop
    after it; filler alone, ending at each edge distance; and heads on a
    tape's last written cell and past it."""
    members = sorted(s for s in stop if s != BLANK)[:1] + [BLANK] * (BLANK in stop)
    for h in (1, 3):
        for d in EDGES:
            before = [filler] * (h + ahead - 1 + d)
            for sym in members:
                yield codes([*before, sym]), h
                yield codes([*before, sym, filler, sym]), h
            yield codes(before), h
    for sym in members:
        tape = codes([sym, filler])
        for h in (len(tape) - 1, len(tape), len(tape) + 1, len(tape) + W + 1):
            yield tape, h


def test_scans_match_loops_on_the_window_edges():
    for stop in RIGHT_STOPS:
        filler = "a" if "0" in stop else "0"
        for start in edge_starts(stop, filler):
            check(TapeSet.scan_right, loop_scan_right, (start,), 0, stop)
    assert compared == 664


def test_scan_left_off_the_start_marker_faults_after_the_loop_steps():
    tape = codes("ab")
    assert run(TapeSet.scan_left, ((tape, 2),), 0, ("#",)) == (TapeFault, 5, (tape, 0))


def test_scans_charge_2d_plus_1():
    ts = init_tapes("a" * 1000)
    assert ts.scan_right(0, (BLANK,)) == BLANK
    assert ts.steps == 2 * 1001 + 1 and ts.heads[0] == 1001
    assert ts.scan_left(0, (BEGIN,)) == BEGIN
    assert ts.steps == 2 * (2 * 1001 + 1) and ts.heads == [0, 0]


# -- suffix shifts -----------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3])
def test_shifts_match_loops_on_every_small_tape(k):
    insert = ["y", "z", "w"][:k]
    for starts in small_starts():
        check(shift_suffix_right, loop_shift_right, starts, 0, insert)
        check(shift_suffix_left, loop_shift_left, starts, 0, k)
    assert compared == 380_858


def test_shift_right_with_blanks_in_the_insert():
    for insert in ([BLANK], ["y", BLANK], [BLANK, "y"], [BLANK, BLANK, "y"], [BLANK] * 3):
        for starts in small_starts(5):
            check(shift_suffix_right, loop_shift_right, starts, 0, insert)
    assert compared == 170_895


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
        starts = ((codes(cells), h),)
        check(shift_suffix_right, loop_shift_right, starts, 0, insert)
        check(shift_suffix_left, loop_shift_left, starts, 0, k)
    assert compared == 6000


def test_shift_right_needs_a_cell_to_insert():
    ts = TapeSet()
    ts.heads[0] = 1
    with pytest.raises(InvalidInput):
        shift_suffix_right(ts, 0, [])
    assert ts.steps == 0


def test_shift_closed_form_counts():
    for J in range(1, 30):
        for k in (1, 2, 3):
            starts = ((codes("a" * 5 + "b" * (J - 1)), 6),)
            assert run(shift_suffix_left, starts, 0, k)[1] == (J - 1) * (2 * k + 3) + k + 2
            starts = ((codes("b" * J), 1),)
            assert run(shift_suffix_right, starts, 0, ["y"] * k)[1] == 3 * (J + k) - 1


# -- F's validity sweep --------------------------------------------------------

def test_scan_valid_matches_loop_on_every_small_tape(monkeypatch):
    # with no # needed for the masks every tape takes them; with more # than
    # any of these tapes holds every tape is tried with the full match first
    monkeypatch.setattr(tf, "_MASK_HASHES", tf._MASK_HASHES)  # restored after
    for cells in small_tapes(7):
        for h in (0, 1, len(cells) - 1, len(cells) + 1):
            starts = ((cells, h),)
            want = run(loop_scan_valid, starts)
            for hashes in (0, 8):
                tf._MASK_HASHES = hashes
                agree(tf._scan_valid, want, starts)
    assert compared == 781_248


def test_scan_valid_matches_loop_on_normal_forms():
    rep = REPRESENTATIONS["thompson-f"]()
    rng = random.Random(4)
    for n in (8, 64, 512, 4096):
        nf = rep.sample_nf(rng, n)
        last = nf.rfind("#") + 1
        two_signed = nf + "b" if nf.endswith("a") else nf[:last] + "a" + nf[last:]
        for text in (nf, nf + "#", nf[:-1] + "a", "ab##" + nf, nf.replace("#", "x", 1),
                     two_signed):
            out = check(tf._scan_valid, loop_scan_valid, ((codes(text), 0),))[0]
            assert out == tf.validate(text)
    assert compared == 24


def test_scan_valid_matches_loop_on_long_near_misses(monkeypatch):
    # a mul-large-shaped form of 2^14 symbols with one rejection planted in
    # its first, a middle or its last block, or at its end; the form takes
    # the masks, and each text is run once more with the full match first
    nf = REPRESENTATIONS["thompson-f"]().sample_nf(random.Random(17), 1 << 14)
    assert nf.count("#", 0, tf._MASK_WINDOW) >= tf._MASK_HASHES
    blocks = nf.split("#")
    texts = []
    for i in (0, len(blocks) // 2, len(blocks) - 1):
        for planted in ([*blocks[:i], "ba" + blocks[i], *blocks[i + 1:]],
                        [*blocks[:i], "ab", "", *blocks[i + 1:]],
                        [*blocks[:i], blocks[i] + "x", *blocks[i + 1:]]):
            texts.append("#".join(planted))
    last = nf.rfind("#") + 1
    texts += [nf + "#", nf + "b" if nf.endswith("a") else nf[:last] + "a" + nf[last:]]
    starts = [((codes(text), 0),) for text in [nf, *texts]]
    wants = [run(loop_scan_valid, start) for start in starts]
    assert [want[0] for want in wants] == [True] + [False] * len(texts)
    for hashes in (tf._MASK_HASHES, 1 << 20):
        monkeypatch.setattr(tf, "_MASK_HASHES", hashes)
        for start, want in zip(starts, wants):
            agree(tf._scan_valid, want, start)
    assert compared == 24


def test_scan_valid_matches_loop_on_long_tapes_with_late_hashes(monkeypatch):
    # the first window holds no #, the whole tape one # in two cells, as x1's
    # candidate on b^k does: valid or with a rejection planted late, the
    # tape takes the masks; b^k alone stays on the full match
    k = 2 * tf._MASK_WINDOW
    nf = "b" * k + "#b" * k
    texts = [nf, nf + "#", nf[:-k] + "a" + nf[-k:], nf[:-3] + "x" + nf[-3:], "b" * k, "b" * k + "a"]
    starts = [((codes(text), 0),) for text in texts]
    wants = [run(loop_scan_valid, start) for start in starts]
    assert [want[0] for want in wants] == [True, False, False, False, True, False]
    masked = []
    first_rejected = tf._first_rejected
    monkeypatch.setattr(tf, "_first_rejected", lambda seg: masked.append(seg) or first_rejected(seg))
    for start, want in zip(starts, wants):
        agree(tf._scan_valid, want, start)
    assert len(masked) == 4 and compared == 6


# -- F's counter walks --------------------------------------------------------

def loop_compute_r(ts):
    ts.move_right(0)
    ts.move_right(1)
    ts.write(1, "b")
    stop1 = False
    while True:
        if ts.read(1) == BEGIN:
            break  # the counter drained: the insertion point lies inside the tail
        sym = ts.read(0)
        if sym == "a":
            ts.move_right(0)
        elif sym == "b":
            ts.move_right(1)
            ts.write(1, "b")
            ts.move_right(0)
        elif sym == "#":
            ts.write(1, BLANK)
            ts.move_left(1)
            ts.move_right(0)
        else:
            stop1 = True
            break
    if stop1:
        case_flag = True
    else:
        while True:
            sym = ts.read(0)
            if sym == "b":
                case_flag = False
                break
            if sym == BLANK:
                case_flag = True
                break
            ts.move_right(0)
    while ts.read(1) == "b":
        ts.write(1, BLANK)
        ts.move_left(1)
    if case_flag:
        ts.move_right(1)
        ts.write(1, "b")
    while True:
        sym = ts.read(0)
        if sym == BEGIN:
            break
        if sym == "b":
            ts.move_right(1)
            ts.write(1, "b")
        ts.move_left(0)
    return case_flag


def loop_strip_tail(ts, last):
    tf._to_blank(ts)
    ts.move_left(0)
    if ts.read(0) != last:
        return False
    ts.write(0, BLANK)
    ts.move_left(0)
    if ts.read(0) != "#":
        return False
    while ts.read(0) == "#":
        ts.write(0, BLANK)
        ts.move_left(0)
    return True


def loop_mark_hash_track(ts):
    tf._rewind(ts, 1)
    while True:
        ts.move_right(0)
        sym = ts.read(0)
        if sym == "#":
            ts.move_right(1)
            under = ts.read(1)
            ts.write(1, "b#" if under == "b" else "_#")
        elif sym == BLANK:
            break
    tf._rewind(ts, 0)
    tf._rewind(ts, 1)


def loop_compare_r_m(ts):
    while True:
        ts.move_right(1)
        sym = ts.read(1)
        if sym == "b#":
            continue
        if sym == "b":
            return ">"
        if sym == "_#":
            return "<"
        return "="


def loop_walk_to_hash(ts, cell):
    while True:
        ts.move_right(0)
        sym = ts.read(0)
        if sym == "#":
            ts.move_right(1)
            if ts.read(1) == cell:
                return True
        elif sym == BLANK:
            return False


def loop_walk_to_rth_hash(ts):
    while True:
        ts.move_right(0)
        if ts.read(0) == "#":
            ts.move_right(1)
            ts.move_right(1)
            nxt = ts.read(1)
            ts.move_left(1)
            if nxt == BLANK:
                return None  # this is the R-th separator
        elif ts.heads[0] >= len(ts.cells[0]):
            return NEVER  # only blanks lie ahead


def loop_walk_to_last_b(ts):
    while True:
        ts.move_right(0)
        sym = ts.read(0)
        if sym == "#":
            ts.move_right(1)
            cell = ts.read(1)
            ts.move_right(1)
            nxt = ts.read(1)
            ts.move_left(1)
            if cell == "b" and nxt == BLANK:
                return True
        elif sym == BLANK:
            return False


def loop_write_hash_per_b(ts, last):
    tf._to_blank(ts)
    while True:
        ts.move_right(1)
        cell = ts.read(1)
        if cell == "b":
            ts.write(0, "#")
            ts.move_right(0)
        elif cell != "b#":
            break
    ts.write(0, last)


def loop_x0_flags(ts):
    r0_pos = s0_pos = False
    m_zero = True
    block1_empty = None
    depth = 0
    while True:
        ts.move_right(0)
        sym = ts.read(0)
        if sym == BLANK:
            break
        if sym == "#":
            depth += 1
            if depth == 1:
                m_zero = False
            elif depth == 2 and block1_empty is None:
                block1_empty = True
            if depth >= 2:
                break
        elif depth == 1 and block1_empty is None:
            block1_empty = False
        elif depth == 0:
            if sym == "a":
                r0_pos = True
            else:
                s0_pos = True
    # its one use read None as False: the sweep returns a bool
    return r0_pos, s0_pos, m_zero, bool(block1_empty)


def loop_x1_inv_flags(ts):
    s0_pos = False
    m_zero = True
    while True:
        ts.move_right(0)
        sym = ts.read(0)
        if sym == "#":
            m_zero = False
            break
        if sym == "b":
            s0_pos = True
        if sym == BLANK:
            break
    return s0_pos, m_zero


def loop_case1_flags(ts):
    r1_pos = s1_pos = False
    block2_nonzero = False
    depth = 0
    while True:
        ts.move_right(0)
        sym = ts.read(0)
        if sym == BLANK:
            break
        if sym == "#":
            depth += 1
            if depth == 3:
                break
        elif depth == 1:
            if sym == "a":
                r1_pos = True
            else:
                s1_pos = True
        elif depth == 2:
            block2_nonzero = True
            break
    return r1_pos, s1_pos, block2_nonzero


def loop_erase_counter(ts):
    tf._rewind(ts, 1)
    while True:
        ts.move_right(1)
        if ts.read(1) == BLANK:
            break
        ts.write(1, BLANK)
    tf._rewind(ts, 1)


def track_symbol(ts, track):
    """The input track's symbol under tape 1's head: a read of tape 1 reads
    it with the work track's, in the same step."""
    h = ts.heads[0]
    return SYMBOL[track[h]] if h < len(track) else BLANK


def loop_restore_input(ts, track):
    tf._rewind(ts, 0)
    blanks = 0
    while blanks < 2:
        ts.move_right(0)
        sym = ts.read(0)
        want = track_symbol(ts, track)
        if want != BLANK:
            ts.write(0, want)
            blanks = 0
        elif sym != BLANK:
            ts.write(0, BLANK)
            blanks = 0
        else:
            blanks += 1
    tf._rewind(ts, 0)


def loop_compare_input(ts, track):
    tf._rewind(ts, 0)
    same = True
    while True:
        ts.move_right(0)
        sym = ts.read(0)
        want = track_symbol(ts, track)
        if sym == want == BLANK:
            return same
        same = same and sym == want


# F's two-tape sweeps and their loops, with the arguments each caller passes
F_WALKS = (
    (tf._mark_hash_track, loop_mark_hash_track, ()),
    (tf._compare_r_m, loop_compare_r_m, ()),
    *((tf._walk_to_hash, loop_walk_to_hash, (cell,)) for cell in ("_#", BLANK, "b")),
    (tf._walk_to_rth_hash, loop_walk_to_rth_hash, ()),
    (tf._walk_to_last_b, loop_walk_to_last_b, ()),
    *((tf._write_hash_per_b, loop_write_hash_per_b, (last,)) for last in ("a", "b")),
)
# the sweeps of x1's one machine, which restore its input and check a round trip
X1_SWEEPS = ((tf._erase_counter, loop_erase_counter), (tf._restore_input, loop_restore_input),
             (tf._compare_input, loop_compare_input))
# the two that drop the cells they erase, where their loops write blanks
DROPS_BLANKS = (tf._erase_counter, tf._restore_input)
# F's one-tape sweeps
F_FLAGS = ((tf._x0_flags, loop_x0_flags), (tf._x1_inv_flags, loop_x1_inv_flags),
           (tf._case1_flags, loop_case1_flags))
# tape 2 holds the counter and its convolution track, and garbage
F_TAPE2 = ("b", "b#", "_#", BLANK, "x")
# a few starts of each tape: fresh, a counter, a track and garbage
TAPE1_STARTS = ((codes("ab#b##b"), 0), (codes("b#a#x#b"), 2),
                (codes(["#", BLANK, "b", "#"]), 0))
TAPE2_STARTS = (FRESH, (codes("bbb"), 0), (codes(["b#", "b", "_#", "b#"]), 0),
                (codes(["b", "x", BLANK, "b"]), 2), (codes(["b#", "b"]), 4))


@functools.cache
def every_start(len1, len2):
    """Every tape 1 of up to len1 cells over SMALL, from every head, with
    each tape-2 start; then every tape 2 of up to len2 cells over F_TAPE2,
    from every head, with each tape-1 start."""
    return (*(((tape1, h1), start2) for tape1 in small_tapes(len1) for h1 in heads(tape1)
              for start2 in TAPE2_STARTS),
            *((start1, (tape2, h2)) for tape2 in small_tapes(len2, F_TAPE2)
              for h2 in heads(tape2) for start1 in TAPE1_STARTS))


@pytest.mark.parametrize("fn, loop, args", F_WALKS, ids=[
    f"{fn.__name__}({', '.join(map(repr, args))})" for fn, _, args in F_WALKS])
def test_f_walks_match_loops_on_every_small_tape(fn, loop, args):
    for starts in every_start(4, 4):
        check(fn, loop, starts, *args)
    assert compared == 48_432


def test_compute_r_matches_loop_on_every_small_tape():
    # tape 2 blank with its head on the marker, as every caller starts it;
    # tape 1 from the marker up to 7 cells, from every head up to 5
    for tape1, h1 in itertools.chain(((tape1, 0) for tape1 in small_tapes(7)),
                                     (start for start, in small_starts(5))):
        check(tf._compute_r, loop_compute_r, ((tape1, h1), FRESH))
    assert compared == 131_835


def test_block_flags_match_loops_on_every_small_tape():
    # every tape of up to 7 cells from the marker, up to 5 from every head
    for cells in small_tapes(7):
        for h in heads(cells) if len(cells) <= 6 else (0,):
            for fn, loop in F_FLAGS:
                check(fn, loop, ((cells, h),))
    assert compared == 383_787


def test_strip_tail_matches_loop_on_every_small_tape():
    for starts in small_starts(5):
        for last in ("a", "b"):
            check(tf._strip_tail, loop_strip_tail, starts, last)
    assert compared == 68_358


# input tracks of each length up to 4, the start marker first
TRACKS = tuple(codes(t) for t in ("", "b", "a#", "ab#", "b##a"))


def erasable(tape2):
    """Whether tape 2 holds nothing past its first blank, as F's counter
    never does (the precondition of _erase_counter)."""
    i = tape2.find(0)
    return i < 0 or not tape2[i:].strip(b"\0")


def restorable(tape1, track):
    """Whether no written cell of tape 1 lies past the first two blanks in a
    row after the input's end (the precondition of _restore_input)."""
    rest = tape1[len(track):] + b"\0\0"
    return not rest[rest.find(b"\0\0"):].strip(b"\0")


def test_erase_counter_matches_loop_on_every_small_tape():
    # every tape 2 of up to 5 cells that holds one run from cell 1, from
    # every head, with each tape-1 start
    for tape2 in small_tapes(5, F_TAPE2):
        if erasable(tape2):
            for h2 in heads(tape2):
                for start1 in TAPE1_STARTS:
                    check(tf._erase_counter, loop_erase_counter, (start1, (tape2, h2)))
    assert compared == 47_289


def test_restore_and_compare_match_loops_on_every_small_tape():
    # every tape 1 of up to 5 cells from every head, against each track;
    # the restore where its precondition holds, the compare everywhere
    for (tape1, h1), in small_starts(5):
        for track in TRACKS:
            starts = ((tape1, h1), FRESH)
            check(tf._compare_input, loop_compare_input, starts, track)
            if restorable(tape1, track):
                check(tf._restore_input, loop_restore_input, starts, track)
    assert compared == 335_882


def test_f_sweeps_match_loops_on_the_ledger_tapes(monkeypatch):
    # every call of an F sweep in the ledger's apply and walks sections, on
    # normal forms of up to 2^14 symbols, is checked against its loop from
    # the program's tapes, and the program goes on from the sweep's end state
    calls = Counter()
    pairs = [(tf._compute_r, loop_compute_r), (tf._strip_tail, loop_strip_tail),
             (tf._rewind, loop_rewind), *F_FLAGS,
             *((fn, loop) for fn, loop, _ in F_WALKS), *X1_SWEEPS]
    for fn, loop in dict(pairs).items():
        def checked(ts, *args, fn=fn, loop=loop):
            # ts is check's own machine when a sweep or loop under check
            # calls this one, so its state is put back after check resets it
            calls[fn.__name__] += 1
            before = ts.steps
            starts = tuple(zip(map(bytes, ts.cells), ts.heads))
            out, steps, *tapes = check(fn, loop, starts, *args)
            assert not isinstance(out, type), (fn.__name__, out)  # no fault
            for t, (cells, head) in enumerate(tapes):
                ts.cells[t][:] = cells
                ts.heads[t] = head
            ts.steps = before + steps
            return out
        monkeypatch.setattr(tf, fn.__name__, checked)
    rep = REPRESENTATIONS["thompson-f"]()
    for n in SIZES:
        nf = rep.sample_nf(random.Random(n), n)
        for gen in rep.generators:
            rep.apply_report(nf, gen)
    for _ in _walk_entries(rep, 1):
        pass
    assert set(calls) == {fn.__name__ for fn, _ in pairs}, calls
    assert compared == 91_733


# -- Z2 wr Z^2's region scan and mark move -----------------------------------

def loop_scan_to_mark(ts):
    def step1():
        ts.move_right(0)
        return ts.read(0)

    def sweep(region, flip_to):
        sym = step1()
        ts.move_left(1)
        if sym in zz._END:
            return region, sym
        while ts.read(1) != BEGIN:
            ts.move_left(1)
            sym = step1()
            if sym in zz._END:
                return region, sym
        while True:
            ts.move_right(1)
            at_blank = ts.read(1) == BLANK
            sym = step1()
            here = flip_to if (at_blank and flip_to) else region
            if sym in zz._END:
                return here, sym
            if at_blank:
                return here, None

    def walk():
        for region in zz._FIRST_REGIONS:
            sym = step1()
            if sym in zz._END:
                return region, sym
        sym = step1()
        ts.move_right(1)
        while True:
            ts.write(1, "T")
            if sym in zz._END:
                return "L1", sym
            for region, flip_to in zz._SWEEPS:
                S, stopped = sweep(region, flip_to)
                if stopped is not None:
                    return S, stopped
            sym = step1()

    S, sym = walk()
    if sym == BLANK:
        return None
    ts.scan_right(1, (BLANK,))
    return S


def loop_sweep_pair(ts, mode, one_move):
    if mode == "full":
        ts.move_left(1)
        one_move()
    else:
        ts.move_left(1)
    while ts.read(1) != BEGIN:
        ts.move_left(1)
        one_move()
    if mode == "bare":
        ts.move_right(1)
        while ts.read(1) != BLANK:
            ts.move_right(1)
            one_move()
    else:
        while True:
            ts.move_right(1)
            at_blank = ts.read(1) == BLANK
            one_move()
            if at_blank:
                return


def loop_move_mark(ts, c_const, fwd):
    old = ts.read(0)
    erase = False
    if not fwd and old != "C1":
        ts.move_right(0)
        erase = ts.read(0) == BLANK
        ts.move_left(0)
    ts.write(0, BLANK if erase else ("0" if old == "C0" else "1"))

    if fwd:
        def one_move():
            ts.move_right(0)
            if ts.read(0) == BLANK:
                ts.write(0, "0")
    else:
        def one_move():
            nonlocal erase
            ts.move_left(0)
            sym = ts.read(0)
            if erase:
                if sym == "0":
                    ts.write(0, BLANK)
                elif sym == "1":
                    erase = False

    if c_const is None:
        remainder = 1
    else:
        mode = "full" if c_const >= 9 else ("short" if c_const >= 5 else "bare")
        base = {"full": 8, "short": 4, "bare": 0}[mode]
        remainder = c_const - base
        for _ in range(4):
            loop_sweep_pair(ts, mode, one_move)
    for _ in range(remainder - 1):
        one_move()
    if fwd:
        ts.move_right(0)
    else:
        ts.move_left(0)
    sym = ts.read(0)
    if sym == "0" or (fwd and sym == BLANK):
        ts.write(0, "C0")
    elif sym == "1":
        ts.write(0, "C1")


def jump(gen, region):
    sign, kind = spiral.JUMPS[zz._GEN_DIR[gen]][region]
    return (None if kind == "one" else kind), sign > 0


def test_z2wrz2_programs_match_loops_on_every_short_token_string():
    def loop_program(ts, gen):
        if gen == "c":  # the toggle's one sweep is scan_right, checked above
            return zz._program_toggle(ts, gen)
        region = loop_scan_to_mark(ts)
        if region is not None:
            loop_move_mark(ts, *jump(gen, region))
        return ()

    for n in range(8):
        for toks in itertools.product(Z2Z2_SIGMA, repeat=n):
            starts = ((codes(toks), 0), FRESH)
            check(zz._scan_to_mark, loop_scan_to_mark, starts)
            for gen, program in zz.MACHINE.programs.items():
                check(program, loop_program, starts, gen)
    assert compared == 131_070


def ring_marks(r):
    """The ring's start, its four corners, and the cells next to each."""
    s = spiral._ring_start(r)
    return sorted({s + d + e for d in (0, 2 * r - 1, 4 * r - 1, 6 * r - 1, 8 * r - 1)
                   for e in (-1, 0, 1)})


def long_tape(rng, k, kind):
    """Tape-1 cells whose first C-token is cell k."""
    bits = list(f"{rng.getrandbits(k):0{k}b}")[1:]  # k-1 random bits
    if kind == "tail":  # random tokens after the mark, other C-tokens among them
        return bits + [rng.choice(zz._C)] + [
            rng.choice(Z2Z2_SIGMA) for _ in range(rng.randint(1, 40))]
    if kind == "last":  # a move right pads past the end
        return bits + [rng.choice(zz._C)]
    # a move left from a final C0 erases the zeros it crosses: all of them,
    # or those up to a 1 somewhere in the jump's reach
    zeros = ["0"] * (k - 1)
    if kind == "zeros-1" and k > 1:
        r = spiral._ring_of_index(k)
        zeros[rng.randrange(max(0, k - 8 * r - 16), k - 1)] = "1"
    return zeros + ["C0"]


def test_z2wrz2_scan_and_move_match_loops_on_ring_corners():
    # rings 1-70; a normal form of 2^14 tokens reaches about ring 64.  One
    # scan per mark; every generator's move then runs from its state on a
    # tape of a seeded kind with its first C-token on the same mark
    rng = random.Random(11)
    for r in range(1, 71):
        for k in ring_marks(r):
            toks = long_tape(rng, k, "tail")
            region, _, (_, h1), start2 = check(
                zz._scan_to_mark, loop_scan_to_mark, ((codes(toks), 0), FRESH))
            kind = rng.choice(("tail", "last", "zeros", "zeros-1"))
            starts = ((codes(long_tape(rng, k, kind)), h1), start2)
            for gen in zz._GEN_DIR:
                out = check(zz._move_mark, loop_move_mark, starts, *jump(gen, region))[0]
                assert out is not TapeFault, (k, gen)  # every move stays on the tape
    assert compared == 5225


def test_z2wrz2_move_left_near_the_start_marker():
    # states no region scan leaves, the mark n cells from the start marker
    # and i turns counted: both where the move left stays on the tape and
    # where it would cross the marker, which check compares as a refusal
    rng = random.Random(13)
    seen = Counter()
    for n in range(1, 14):
        for kind in ("zeros", "bits", "tail"):
            toks = (["0"] * (n - 1) if kind == "zeros" else
                    [rng.choice("01") for _ in range(n - 1)])
            toks.append(rng.choice(zz._C))
            if kind == "tail":
                toks += [rng.choice(Z2Z2_SIGMA) for _ in range(3)]
            for i in range(3):
                for c_const in (None, 1, 3, 5, 7):
                    starts = ((codes(toks), n), (codes(["T"] * i), i + 1))
                    out = check(zz._move_mark, loop_move_mark, starts, c_const, False)[0]
                    seen[out is TapeFault] += 1
    assert seen[True] and seen[False], seen
    assert compared == 585


# -- Z2 wr F2's bracket-stack walk -------------------------------------------

def loop_walk(ts, fwd, stop):
    push, pop, end = z2wrf2._WAY[fwd]
    move = ts.move_right if fwd else ts.move_left
    read = ts.read
    while True:
        move(0)
        sym = read(0)
        if sym in push:
            ts.move_right(1)
            ts.write(1, sym)
        elif sym in pop:
            top = read(1)
            if top != z2wrf2._PARTNER[sym]:
                return sym, top
            ts.write(1, BLANK)
            ts.move_left(1)
        elif sym in stop or sym == end:
            return sym, None


# every stop set the walk's callers pass
WALK_STOPS = (z2wrf2._STOP, *dict.fromkeys(z2wrf2._PIVOTS.values()), ())
# tape-2 starts of a walk, a stack with the head on its top, some with blank
# cells that pops left above it: empty, plain tops for either direction,
# marked tops alone and over a plain cell
WALK_STACKS = tuple((codes([*stack, *tail]), len(stack)) for stack, tail in (
    ((), ()), (("(",), ()), (("]",), (BLANK,)), (("(*",), ()), (("[*",), ()),
    (("[", ")*"), (BLANK, BLANK))))


def check_walks(toks, heads, stacks=WALK_STACKS, stops=WALK_STOPS):
    """Every walk from these tape-1 heads (backward only past the start
    marker, as its callers walk), stacks and stop sets against the loop."""
    tape1 = codes(toks)
    for head in heads:
        for fwd in (True, False) if head else (True,):
            for start2 in stacks:
                for stop in stops:
                    out = check(z2wrf2._walk, loop_walk, ((tape1, head), start2), fwd, stop)[0]
                    assert out is not TapeFault  # every walk from these starts halts


def short_token_strings(lengths=range(5)):
    """Every string of these lengths, up to 4 tokens, over brackets, a pivot,
    a marker and a plain cell."""
    for n in lengths:
        yield from itertools.product(("(", ")", "[", "]", "D0", "C0", "0"), repeat=n)


def test_forward_walks_match_loop_on_the_window_edges():
    # every forward walk set, its stop or its end, the blank past the tape,
    # on either side of the search's window edges from the cell after the
    # head, and from heads on and past the last written cell
    for stop in WALK_STOPS:
        for start in edge_starts((*stop, BLANK), "0", ahead=1):
            check(z2wrf2._walk, loop_walk, (start, FRESH), True, stop)
    assert compared == 352


def test_walk_matches_loop_on_every_short_token_string():
    # the stop, end and mismatch exits all fire, forward and backward
    exits = set()
    for toks in short_token_strings():
        n = len(toks)
        check_walks(toks, range(n + 1))
        for fwd, head in ((True, 0), (False, n)):
            if fwd or head:
                starts = ((codes(toks), head), FRESH)
                sym, top = run(z2wrf2._walk, starts, fwd, z2wrf2._STOP)[0]
                exits.add((fwd, "mismatch" if top else sym))
    assert exits == {(True, "mismatch"), (True, "C0"), (True, BLANK),
                     (False, "mismatch"), (False, "C0"), (False, BEGIN)}
    assert compared == 582_648


def test_walk_matches_loop_on_the_ledger_tapes():
    # the 2^14 Z2 wr F2 input of the golden ledger and its five products:
    # the full scans from either end, and seeded walks from brackets and pivots
    rep = REPRESENTATIONS["z2wrf2"]()
    nf = rep.sample_nf(random.Random(1 << 14), 1 << 14)
    rng = random.Random(17)
    for text in (nf, *(rep.apply(nf, gen) for gen in rep.generators)):
        toks = z2wrf2.tokenize_z2f2(text)
        check_walks(toks, (0, len(toks)), stacks=[FRESH])
        starts = [i for i, tok in enumerate(toks, 1)
                  if tok in z2wrf2._PARTNER or tok in z2wrf2._PIVOTS["("] + z2wrf2._PIVOTS["["]]
        check_walks(toks, rng.sample(starts, 8), stacks=rng.sample(WALK_STACKS, 3))
    # and the full scans of two forms thousands of groups deep, whose stacks
    # grow tape 2 thousands of cells past its length and leave blanks there
    for text in (z2wrf2.encode(DEEP_ZIGZAG), word_to_nf(rep, DEEP_FOLD)):
        toks = z2wrf2.tokenize_z2f2(text)
        check_walks(toks, (0, len(toks)), stacks=[FRESH])
        stack = run(z2wrf2._walk, ((codes(toks), 0), FRESH), True, ())[3][0]
        assert len(stack) > 1000 and not stack[1:].strip(b"\0")
    assert compared == 1248


# each bracket's code with its kind flipped, '(' and '[' swapped, ')' and ']'
FLIP_KIND = {"(": "[", "[": "(", ")": "]", "]": ")"}
# by either push code of a direction, the other
OTHER_PUSH = {CODE[x]: CODE[y] for pair in ("([", ")]") for x, y in (pair, pair[::-1])}


def settle_exit(run):
    """The exit `_settle` must take on a run of stack codes, from its
    definition rather than its tables, and the push code X its first
    bracket assigns to even depths: "empty"; "kind" unless every push at an
    even index and every close at an odd one pushes or pops X, and every
    other bracket the direction's other push code; "dip" if the depth drops
    below the start; else "settled"."""
    if not run:
        return "empty", None
    slots = (set(), set())  # the kinds pushed at even and at odd depths
    for i, code in enumerate(run):
        slots[(i + (code >= 128)) % 2].add(code & 127)
    first = run[0] & 127
    x = first if run[0] < 128 else OTHER_PUSH[first]
    if slots[0] - {x} or slots[1] - {OTHER_PUSH[x]}:
        return "kind", x
    depth = 0
    for code in run:
        depth += 1 if code < 128 else -1
        if depth < 0:
            return "dip", x
    return "settled", x


def test_settled_walks_match_loop_on_short_strings_and_long_edits(monkeypatch, unrun_lines):
    # with no floor every walk with a stop set tries _settle first.  Each of
    # its exits, an empty run, a run that fails the kind check under each
    # assignment of push codes, one that dips below its start and a settled
    # stack, leaves the loop's state: from every start of the short strings
    # (those of up to two tokens reach every line of _settle), and on the
    # ledger's 2^14 form and seeded one-token edits of it, a flipped bracket
    # kind or an extra close, each scanned in full and walked from seeded
    # brackets and pivots.  Runs that reach the real floor take every exit
    # but the empty one
    floor = z2wrf2._SETTLE_FLOOR
    monkeypatch.setattr(z2wrf2, "_SETTLE_FLOOR", 0)
    settle = z2wrf2._settle
    exits = Counter()

    def spy(brackets):
        out = settle(brackets)
        exit, x = settle_exit(brackets)
        assert (out is None) == (exit != "settled"), bytes(brackets)
        exits[exit, x and SYMBOL[x], len(brackets) >= floor] += 1
        return out
    monkeypatch.setattr(z2wrf2, "_settle", spy)

    def short_walks(lengths):
        for short in short_token_strings(lengths):
            check_walks(short, range(len(short) + 1))
    assert unrun_lines([settle], lambda: short_walks(range(3))) == []
    short_walks(range(3, 5))

    rep = REPRESENTATIONS["z2wrf2"]()
    toks = z2wrf2.tokenize_z2f2(rep.sample_nf(random.Random(1 << 14), 1 << 14))
    marker = next(i for i, tok in enumerate(toks) if tok in z2wrf2._STOP)
    rng = random.Random(23)
    edits = [toks]
    for _ in range(3):
        flipped = list(toks)
        i = rng.choice([i for i, tok in enumerate(toks[:marker]) if tok in FLIP_KIND])
        flipped[i] = FLIP_KIND[flipped[i]]
        extra = list(toks)
        extra.insert(rng.randrange(marker), rng.choice(z2wrf2._CLOSES))
        edits += [flipped, extra]
    for edit in edits:
        check_walks(edit, (0, len(edit)), stacks=[FRESH])
        starts = [i for i, tok in enumerate(edit, 1)
                  if tok in FLIP_KIND or tok in z2wrf2._PIVOTS["("] + z2wrf2._PIVOTS["["]]
        check_walks(edit, rng.sample(starts, 4), stacks=rng.sample(WALK_STACKS, 2))
    # and the scans past the anchor of the two forms thousands of groups deep
    for text in (z2wrf2.encode(DEEP_ZIGZAG), word_to_nf(rep, DEEP_FOLD)):
        check_walks(z2wrf2.tokenize_z2f2(text), (1,), stacks=[FRESH])
    assert {key[:2] for key in exits if not key[2]} == {("empty", None), *(
        (exit, x) for exit in ("kind", "dip", "settled") for x in "()[]")}
    assert {key[0] for key in exits if key[2]} == {"kind", "dip", "settled"}
    assert compared == 582_648 + 532 + 16


def test_walk_host_time_does_not_grow_with_the_tape():
    # a walk that stops two cells away reads those cells and no others: its
    # host time is the same beside 2^22 cells as beside 64, where a copy of
    # the rest of the tape per walk would make it some hundred times longer,
    # and the same on a stack 2^20 cells deep as on an empty one, where a
    # copy of the stack per walk would
    def best_of_5(n, fwd, depth=0):
        ts = init_tapes([])
        cells, stack = ts.cells
        if fwd:
            cells += encode(["0", "C0"]) + b"0" * n
        else:
            cells += b"0" * n + encode(["C0", "0", "0"])
        stack += encode(["("]) * depth
        head = 0 if fwd else len(cells) - 1
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(200):
                ts.heads[:] = head, depth
                z2wrf2._walk(ts, fwd, z2wrf2._STOP)
            times.append(time.perf_counter() - t0)
        assert SYMBOL[cells[ts.heads[0]]] == "C0"
        return min(times)

    for fwd in (True, False):
        assert best_of_5(1 << 22, fwd) < 4 * best_of_5(64, fwd) + 0.005, fwd
        assert best_of_5(64, fwd, 1 << 20) < 4 * best_of_5(64, fwd) + 0.005, fwd


def test_walk_host_time_does_not_grow_with_the_depth():
    # the scan past the anchor of DEEP_ZIGZAG's form crosses 4094 brackets
    # 2047 levels deep, and takes no longer per bracket than a scan of as
    # many brackets one level deep, where a pass per level would take some
    # thousand times longer
    deep = z2wrf2.tokenize_z2f2(z2wrf2.encode(DEEP_ZIGZAG))
    shallow = ["B0", *["(", "D0", ")"] * 2047, "1"]
    assert len(shallow) == len(deep) and shallow.count("(") == deep.count("(") + deep.count("[")

    def best_of_5(toks):
        ts = TapeSet(encode(toks))
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(200):
                ts.heads[:] = 1, 0
                z2wrf2._walk(ts, True, z2wrf2._STOP)
            times.append(time.perf_counter() - t0)
        assert ts.heads == [len(ts.cells[0]), 0]
        return min(times)

    assert best_of_5(deep) < 3 * best_of_5(shallow) + 0.005


# -- the golden ledger under the defining loops --------------------------------

# every counted sweep, as bound where the programs call it, and its loop
COUNTED_SWEEPS = (
    (TapeSet, "scan_right", loop_scan_right),
    (TapeSet, "scan_left", loop_scan_left),
    (tapeops, "shift_suffix_right", loop_shift_right),
    (tapeops, "shift_suffix_left", loop_shift_left),
    (tf, "_scan_valid", loop_scan_valid),
    (zz, "_scan_to_mark", loop_scan_to_mark),
    (zz, "_move_mark", loop_move_mark),
    (z2wrf2, "_walk", loop_walk),
    (tf, "_compute_r", loop_compute_r),
    (tf, "_strip_tail", loop_strip_tail),
    (tf, "_mark_hash_track", loop_mark_hash_track),
    (tf, "_compare_r_m", loop_compare_r_m),
    (tf, "_walk_to_hash", loop_walk_to_hash),
    (tf, "_walk_to_rth_hash", loop_walk_to_rth_hash),
    (tf, "_walk_to_last_b", loop_walk_to_last_b),
    (tf, "_write_hash_per_b", loop_write_hash_per_b),
    (tf, "_x0_flags", loop_x0_flags),
    (tf, "_x1_inv_flags", loop_x1_inv_flags),
    (tf, "_case1_flags", loop_case1_flags),
    (tf, "_rewind", loop_rewind),
    (tf, "_erase_counter", loop_erase_counter),
    (tf, "_restore_input", loop_restore_input),
    (tf, "_compare_input", loop_compare_input),
)


def test_ledger_is_unchanged_under_the_defining_loops(monkeypatch):
    # the closed forms compose: whole programs built from the loops give the
    # same counts and outputs, and the ledger runs every one of the loops
    # and every stop set the programs scan for is one the scan tests check
    calls = Counter()
    stops = {"scan_right": set(), "scan_left": set()}
    for owner, name, loop in COUNTED_SWEEPS:
        def counted(*args, loop=loop, name=name):
            calls[name] += 1
            if name in stops:
                stops[name].add(frozenset(args[2]))
            return loop(*args)
        monkeypatch.setattr(owner, name, counted)
    assert render_ledger(build_ledger()) == LEDGER.read_text()
    assert set(calls) == {name for _, name, _ in COUNTED_SWEEPS}, calls
    assert stops["scan_right"] <= set(map(frozenset, RIGHT_STOPS)), stops
    assert stops["scan_left"] <= set(map(frozenset, LEFT_STOPS)), stops
