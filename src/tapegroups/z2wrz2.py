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
"""

from __future__ import annotations

from typing import Tuple

from . import spiral
from .errors import BadWord, NotInLanguage
from .oracle_groups import LampConfigZ2
from .tapevm import StepReport, TapeSet, init_tapes, read_output
from .tokens import BLANK, BEGIN, Z2Z2_SIGMA, render, tokenize_z2z2

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


# ---------------------------------------------------------------------------
# codec

def encode(config: LampConfigZ2) -> str:
    r = spiral.spiral_index(config.pos)
    lit_idx = {spiral.spiral_index(p) for p in config.lit}
    m = max(lit_idx) if lit_idx else 0
    length = max(m, r)
    toks = []
    for k in range(1, length + 1):
        bit = "1" if k in lit_idx else "0"
        if k == r:
            toks.append("C" + bit)
        else:
            toks.append(bit)
    return render(toks)


def decode(text: str) -> LampConfigZ2:
    toks = tokenize_z2z2(text)
    if not toks:
        raise NotInLanguage("normal form is non-empty (identity is 'C0')")
    marks = [k for k, t in enumerate(toks, start=1) if t in _C]
    if len(marks) != 1:
        raise NotInLanguage(f"expected exactly one lamplighter token, found {len(marks)}")
    if toks[-1] == "0":
        raise NotInLanguage("trailing 0 padding is not allowed")
    lit = frozenset(spiral.spiral_point(k)
                    for k, t in enumerate(toks, start=1) if t in ("1", "C1"))
    return LampConfigZ2(lit, spiral.spiral_point(marks[0]))


def validate(text: str) -> bool:
    try:
        decode(text)
    except NotInLanguage:
        return False
    return True


# ---------------------------------------------------------------------------
# the tape programs

def _scan_to_mark(ts: TapeSet) -> str | None:
    """First iteration: walk tape 1 to the C-token tracking the region variable,
    building T^i on tape 2.  Returns the region, or None if no C-token.

    Leaves the tape-1 head on the C-token and the tape-2 head on the first
    blank after the unary turn counter.
    """

    def step1() -> str:
        ts.move_right(0)
        return ts.read(0)

    def sweep(region: str, flip_to: str | None) -> Tuple[str, str | None]:
        # one loop sub-phase: read the next cell while stepping tape 2 left,
        # then keep reading while tape 2 sweeps left to the marker and right
        # to the blank; the final paired read sits on the next corner.
        sym = step1()
        ts.move_left(1)
        if sym in _END:
            return region, sym
        while ts.read(1) != BEGIN:
            ts.move_left(1)
            sym = step1()
            if sym in _END:
                return region, sym
        while True:
            ts.move_right(1)
            at_blank = ts.read(1) == BLANK
            sym = step1()
            here = flip_to if (at_blank and flip_to) else region
            if sym in _END:
                return here, sym
            if at_blank:
                return here, None

    def walk() -> Tuple[str, str]:
        # the region and the C-token or blank the walk stops on
        for region in _FIRST_REGIONS:  # cells 1..9
            sym = step1()
            if sym in _END:
                return region, sym
        sym = step1()  # cell 10: first corner of the second winding
        ts.move_right(1)
        while True:
            ts.write(1, "T")  # one more turn on the counter
            if sym in _END:
                return "L1", sym
            for region, flip_to in _SWEEPS:
                S, stopped = sweep(region, flip_to)
                if stopped is not None:
                    return S, stopped
            sym = step1()  # the next corner

    S, sym = walk()
    if sym == BLANK:
        return None
    ts.scan_right(1, (BLANK,))
    return S


def _sweep_pair(ts: TapeSet, mode: str, one_move) -> None:
    """One tape-2 sweep pairing 2i+2 (full), 2i+1 (short) or 2i (bare) tape-1
    moves with tape-2 head motion; starts and ends on the first tape-2 blank."""
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


def _move_mark(ts: TapeSet, c_const, fwd: bool) -> None:
    """Move the C-mark right (fwd) or left by 1 (c_const None) or by
    8i + c_const.  Moving left erases the tail the lamplighter frees."""
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
            _sweep_pair(ts, mode, one_move)
    for _ in range(remainder - 1):
        one_move()
    if fwd:
        ts.move_right(0)
    else:
        ts.move_left(0)
    sym = ts.read(0)
    if sym == "0" or (fwd and sym == BLANK):  # forward, a blank lands as C0
        ts.write(0, "C0")
    elif sym == "1":
        ts.write(0, "C1")


def _program_toggle(ts: TapeSet) -> None:
    ts.move_right(0)
    sym = ts.scan_right(0, _END)
    if sym != BLANK:
        ts.write(0, "C1" if sym == "C0" else "C0")


def _program_move(ts: TapeSet, gen: str) -> None:
    S = _scan_to_mark(ts)
    if S is None:
        return
    sign, kind = spiral.JUMPS[_GEN_DIR[gen]][S]
    _move_mark(ts, None if kind == "one" else kind, sign > 0)


def apply_gen_report(text: str, gen: str) -> Tuple[str, StepReport]:
    if gen not in GENERATORS:
        raise BadWord(f"unknown generator {gen!r} for {GROUP}")
    toks = tokenize_z2z2(text)
    ts = init_tapes(toks, 2, sigma=Z2Z2_SIGMA)
    if gen == "c":
        _program_toggle(ts)
    else:
        _program_move(ts, gen)
    out = render(read_output(ts))
    return out, StepReport(len(toks), ts.steps, gen, GROUP)


def apply_gen(text: str, gen: str) -> str:
    return apply_gen_report(text, gen)[0]
