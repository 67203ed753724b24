"""Normal-form codec and 2-tape generator programs for Z2 wr Z^2.

A normal form over {0,1,C0,C1} lists lamp states along the spiral enumeration
of Z^2, with the single C-token marking the lamplighter; the string stops at
the last lit lamp or the lamplighter, whichever is later.  The lamp-free
identity is "C0".

The generator programs walk tape 1 to the C-token while counting spiral turns
in unary on tape 2 (the region scan), then move the C-mark by the
region-dependent jump.  Jumps of size 8i+c are realized by four tape-2 sweeps
plus a constant remainder, so the program never holds the turn count in a host
integer.  Moves left erase a trailing run freed by the departing lamplighter.

Both loops are charged in closed form, as the counted sweeps of `tapevm` are:
the host computes the state and step count the per-step loop would leave
(the loops are kept as reference oracles in tests/test_sweeps.py).  The
machine still keeps the turn count on tape 2: the region scan writes each
winding's T and reads i off the tape-2 head.  Per primitive, with tape 1
holding the input:

- region scan stopping on cell p after j windings: on tape 1, p moves and p
  reads (a counted scan); on tape 2, for p >= 10, j writes, one move per
  cell of the sweeps plus one, and one read per cell of the sweeps, less one
  if the walk stops while tape 2 moves left.  The sweeps cover the p-9-j
  cells from cell 10 on that are not corners.
- mark move by 8i+c: four tape-2 sweeps of 2i+2 moves and 2i+2 reads; on
  tape 1, a move and a read for each of the 8i+c-1 cells crossed before the
  landing cell, and a write for each blank padded with 0 (moving right) or
  each trailing 0 erased before the first 1 (moving left).
"""

from __future__ import annotations

import re
from typing import Tuple

from . import spiral
from .errors import TapeFault
from .oracle_groups import LampConfigZ2
from .tapevm import Machine, StepReport, TapeSet
from .tokens import BLANK, CODE, Z2Z2_NF, Z2Z2_NF_CODES, Z2Z2_SIGMA, codes_of, codes_z2z2, render

GROUP = "z2wrz2"
GENERATORS = ("a", "a-", "b", "b-", "c")
IDENTITY_NF = "C0"

_GEN_DIR = {"a": "+a", "a-": "-a", "b": "+b", "b-": "-b"}
_C = ("C0", "C1")
_END = (*_C, BLANK)  # where a scan for the lamplighter stops

# region-scan order over the first nine cells of the spiral
_FIRST_REGIONS = ("O", "L1", "L2", "D2", "L3", "D3", "L4", "D4", "D4")
# from the second winding on: each side's sweep, with the region a full sweep
# flips to on reaching the next side
_SWEEPS = (("D1", "L2"), ("D2", "L3"), ("D3", "L4"), ("D4", None))


# Explicit linear bound: on n input tokens a generator program takes at most
# STEP_BOUND[gen] = (alpha, beta) as alpha*n + beta steps.  The toggle scans to
# the first C-token or the blank after the input, 2p steps for p <= n+1, and
# writes once.  A move whose scan stops on the C-token at cell p <= n after j
# windings takes at most 4p - 17 - j steps to scan (2p below cell 10), 2j + 3
# to reach the counter's end, and 40j + 21 + 3c to move: 16j + 16 on tape 2,
# 3 per cell crossed for the 8j + c - 1 cells before the landing cell, and 8
# around them, where c is the generator's largest jump constant.  That sums
# to 4p + 41j + 7 + 3c from cell 10 on and 2p + 24 + 3c before it; with no
# C-token the scan alone takes 4(n+1) - 17 - j.  The ring start
# 2 + 4(j+1)j <= p gives j <= (sqrt(n) - 1)/2, and 20.5 sqrt(n) <= n + 105.0625,
# so every case is within 5n + 92 + 3c.
STEP_BOUND = {"a": (5, 119), "a-": (5, 131), "b": (5, 125), "b-": (5, 137),
              "c": (2, 2)}


# ---------------------------------------------------------------------------
# codec

_C0, _C1 = map(CODE.get, _C)
_LIT = re.compile(b"[1%c]" % _C1).finditer  # the cells of lit lamps


def encode(config: LampConfigZ2) -> str:
    """The normal form of a configuration: a 0 per cell up to the last lit
    lamp or the lamplighter, a 1 per lit lamp, the C-token on the lamplighter."""
    lit = [spiral.spiral_index(p) for p in config.lit]
    r = spiral.spiral_index(config.pos)
    cells = bytearray(b"0" * max([r, *lit]))
    for k in lit:
        cells[k - 1] = 49  # "1" is coded by its ASCII byte
    cells[r - 1] = _C1 if cells[r - 1] == 49 else _C0
    return render(cells)


def decode(text: str) -> LampConfigZ2:
    """The configuration of a normal form; raises NotInLanguage off the
    language (`tokens.codes_z2z2`)."""
    codes = codes_z2z2(text)
    mark = codes.find(_C0) + 1 or codes.find(_C1) + 1
    lit = frozenset(spiral.spiral_point(m.end()) for m in _LIT(codes))
    return LampConfigZ2(lit, spiral.spiral_point(mark))


def validate(text: str | bytes) -> bool:
    """Whether text or tape codes are a normal form: the one full match of
    codes_z2z2."""
    return (Z2Z2_NF_CODES if isinstance(text, bytes) else Z2Z2_NF).fullmatch(text) is not None


# ---------------------------------------------------------------------------
# the tape programs

def _scan_to_mark(ts: TapeSet) -> str | None:
    """First iteration: walk tape 1 to the C-token tracking the region variable,
    building T^i on tape 2.  Returns the region, or None if no C-token.

    Leaves the tape-1 head on the C-token and the tape-2 head on the first
    blank after the unary turn counter.
    """
    # tape 1's share of the walk: one move and one read per cell up to the stop
    ts.move_right(0)
    sym = ts.scan_right(0, _END)
    p = ts.heads[0]
    region = _FIRST_REGIONS[p - 1] if p < 10 else _wind(ts, p)
    if sym == BLANK:
        return None
    ts.scan_right(1, (BLANK,))
    return region


def _wind(ts: TapeSet, p: int) -> str:
    """Tape 2's share of the walk from cell 10, the first corner of the second
    winding, to the stop cell p >= 10.  Returns the region of cell p.

    Winding i starts on a corner, where tape 2 gains its i-th T.  Its four
    sweeps then pair 2i+1, 2i+2, 2i+2 and 2i+2 tape-1 cells with tape-2 head
    motion: a sweep starting with the tape-2 head on cell h pairs h cells
    with moves left to the marker and i+1 with moves right to the blank.
    Each paired cell costs one tape-2 move and one tape-2 read, except the
    sweep's first cell, whose move has no read, and the marker read that
    ends the leftward part.  So a whole sweep charges 2 tape-2 steps per cell
    and a walk that stops partway into the leftward part one step less.
    """
    heads = ts.heads
    ts.move_right(1)
    corner = 10
    while True:
        ts.write(1, "T")
        i = heads[1]  # the turn count: the head is on the counter's last T
        if p < corner + 8 * i + 8:
            break
        ts.steps += 2 * (8 * i + 7)  # the four sweeps, ending on the blank
        heads[1] = i + 1
        corner += 8 * i + 8
    d = p - corner  # cells walked since the corner
    if d == 0:
        return "L1"
    if d <= 2 * i + 1:
        k, m, h = 0, d, i  # sweep, the cell's place in it, tape-2 head at its start
    else:
        k, m = divmod(d - 2 * i - 2, 2 * i + 2)
        k, m, h = k + 1, m + 1, i + 1
    ts.steps += 2 * (d - m)  # the winding's earlier sweeps
    region, flip_to = _SWEEPS[k]
    if m <= h:  # met while tape 2 moves left
        ts.steps += 2 * m - 1
        heads[1] = h - m
        return region
    ts.steps += 2 * m
    heads[1] = m - h
    return flip_to if heads[1] == i + 1 and flip_to else region


def _move_mark(ts: TapeSet, c_const, fwd: bool) -> None:
    """Move the C-mark right (fwd) or left by 1 (c_const None) or by
    8i + c_const.  Moving left erases the tail the lamplighter frees.

    A jump runs four tape-2 sweeps from the blank after T^i to the marker and
    back, 2i+2 moves and 2i+2 reads each, whose head motion paces the tape-1
    moves; tape 1 crosses the 8i+c_const-1 cells before the landing cell in
    the sweeps and a constant remainder.

    A jump lands on a spiral neighbour, index 1 or more, so a move left never
    reaches the start marker.  A state where it would, which no region scan
    leaves, is refused before any step, where the loop would fault partway.
    """
    run = 0
    if c_const is not None:
        i = ts.heads[1] - 1  # the turn count: T^i lies left of the head
        run = 8 * i + c_const - 1
    if not fwd and run >= ts.heads[0]:
        raise TapeFault("attempt to move left of the start marker")
    old = ts.read(0)
    erase = False
    if not fwd and old != "C1":
        ts.move_right(0)
        erase = ts.read(0) == BLANK
        ts.move_left(0)
    ts.write(0, BLANK if erase else ("0" if old == "C0" else "1"))
    if c_const is not None:
        ts.steps += 4 * (4 * i + 4)
    if fwd:
        _pad_run(ts, run)
        ts.move_right(0)
    else:
        _erase_run(ts, run, erase)
        ts.move_left(0)
    sym = ts.read(0)
    if sym == "0" or (fwd and sym == BLANK):  # forward, a blank lands as C0
        ts.write(0, "C0")
    elif sym == "1":
        ts.write(0, "C1")


def _pad_run(ts: TapeSet, run: int) -> None:
    """Move tape 1 right over `run` cells, writing 0 on each blank.

    Each cell costs a move and a read, and a blank a write: tape 1 holds no
    blank before its end, so the blanks are the cells past it.
    """
    ts.heads[0] += run
    cells = ts.cells[0]
    pad = max(0, ts.heads[0] + 1 - len(cells))
    cells.extend(b"0" * pad)  # "0" is coded by its ASCII byte
    ts.steps += 2 * run + pad


def _erase_run(ts: TapeSet, run: int, erase: bool) -> None:
    """Move tape 1 left over `run` cells, all right of the start marker;
    while erasing, blank each 0 up to the first 1, which ends the erasing.

    Each cell costs a move and a read, and an erased 0 a write.  Left of the
    C-token tape 1 holds only 0 and 1.
    """
    cells, h = ts.cells[0], ts.heads[0]
    ts.heads[0] = h - run
    ts.steps += 2 * run
    if erase:
        one = cells.rfind(b"1", h - run, h)  # "1" is coded by its ASCII byte
        zeros = h - 1 - one if one >= 0 else run
        cells[h - zeros:h] = bytes(zeros)
        ts.steps += zeros


def _program_toggle(ts: TapeSet, gen: str) -> Tuple[()]:
    ts.move_right(0)
    sym = ts.scan_right(0, _END)
    if sym != BLANK:
        ts.write(0, "C1" if sym == "C0" else "C0")
    return ()


def _program_move(ts: TapeSet, gen: str) -> Tuple[()]:
    S = _scan_to_mark(ts)
    if S is not None:
        sign, kind = spiral.JUMPS[_GEN_DIR[gen]][S]
        _move_mark(ts, None if kind == "one" else kind, sign > 0)
    return ()


# codes_z2z2 raises NotInLanguage on a non-member; the programs halt on any
# token string
MACHINE = Machine(GROUP, codes_z2z2, codes_of(Z2Z2_SIGMA), render,
                  {gen: _program_toggle if gen == "c" else _program_move for gen in GENERATORS})


def apply_gen_report(text: str, gen: str) -> Tuple[str, StepReport]:
    return MACHINE.apply(text, gen)
