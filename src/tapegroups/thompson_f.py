"""Normal form over {a,b,#} and 2-tape right multiplication for Thompson's F.

A normal form a^r0 b^s0 # a^r1 b^s1 # ... # a^rM b^sM encodes the element
x0^r0 x1^r1 ... xM^rM xM^-sM ... x1^-s1 x0^-s0 of the infinite presentation;
the identity is the empty string.  Multiplication by x0 is a one-pass local
edit; multiplication by x1^-1 dispatches on a case analysis driven by the
unary counter R accumulated on tape 2 (b-blocks push, block separators pop).
Multiplication by x1 guesses the case: it runs each case's inverse edit,
validates the candidate and recomputes the forward edit until the round trip
reproduces the input, which bijectivity guarantees happens exactly once.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import BadWord, NoCaseMatched, NotInLanguage
from .tapevm import StepReport, TapeSet, init_tapes, read_output
from .tapeops import shift_suffix_left, shift_suffix_right
from .tokens import BEGIN, BLANK, F_SIGMA

GROUP = "thompson-f"
GENERATORS = ("x0", "x0-", "x1", "x1-")
IDENTITY_NF = ""

CASE_LABELS = ("1.1", "1.2", "1.3a", "1.3b", "1.3c",
               "2.1a", "2.1b", "2.1c1", "2.1c2", "2.1c3",
               "2.2.1", "2.2.2a", "2.2.2b", "2.2.2c")

coverage = Counter()
_disabled_cases: frozenset = frozenset()  # test instrumentation (mutant planting)


def coverage_reset() -> None:
    coverage.clear()


@dataclass(frozen=True)
class ExpSeq:
    """Exponent blocks of a normal form; identity has no blocks."""

    r: Tuple[int, ...]
    s: Tuple[int, ...]

    @property
    def M(self) -> int:
        return len(self.r) - 1


IDENTITY_SEQ = ExpSeq((), ())
_NOT_F = str.maketrans("", "", "".join(F_SIGMA))  # deletes the alphabet

# The language, stated once as the cells where the automaton of `_scan_valid`
# rejects.  Read left to right, the first match of _REJECT ends on the first
# rejected cell: an a after a b of the same block, a # that closes an empty
# block after a block with both signs, or any other symbol (a blank among
# them, where the automaton stops to give its verdict).  A normal form has no
# such cell and does not end in an empty or two-signed block.
_REJECT = r"ba|ab+##|[^ab#]"
_STOP = re.compile(_REJECT)
_NOT_NF = re.compile(_REJECT + r"|#\Z|ab+\Z")


def parse(text: str) -> ExpSeq:
    if text == "":
        return IDENTITY_SEQ
    outside = text.translate(_NOT_F)
    if outside:
        raise NotInLanguage(f"symbol {outside[0]!r} outside the alphabet")
    rs = []
    ss = []
    for block in text.split("#"):
        bs = block.lstrip("a")
        if bs.strip("b"):
            raise NotInLanguage("block letters must be a-run then b-run")
        rs.append(len(block) - len(bs))
        ss.append(len(bs))
    if rs[-1] == 0 and ss[-1] == 0:
        raise NotInLanguage("last block must be nonempty")
    if rs[-1] > 0 and ss[-1] > 0:
        raise NotInLanguage("exactly one of the last block exponents may be nonzero")
    for i in range(len(rs) - 1):
        if rs[i] > 0 and ss[i] > 0 and rs[i + 1] + ss[i + 1] == 0:
            raise NotInLanguage(f"block {i} has both signs but block {i+1} is empty")
    return ExpSeq(tuple(rs), tuple(ss))


def serialize(seq: ExpSeq) -> str:
    if not seq.r:
        return ""
    return "#".join("a" * r + "b" * s for r, s in zip(seq.r, seq.s))


def validate(text: str) -> bool:
    return _NOT_NF.search(text) is None


@dataclass(frozen=True)
class RResult:
    """Index where a pushed x1^-1 settles in the negative tail."""

    R: int
    case_flag: bool  # True iff R passed the whole tail (R > j_n)


def r_by_definition(seq: ExpSeq) -> RResult:
    """Host-arithmetic mirror of the tape subroutine, used as its oracle."""
    if not seq.s or seq.s[0] == 0:
        raise ValueError("R is defined only when s0 > 0")
    js = [i for i, s in enumerate(seq.s) if s > 0]
    R = 1
    for t, j in enumerate(js):
        R += seq.s[j]
        if t + 1 < len(js) and R <= js[t + 1]:
            return RResult(R, False)
    return RResult(R, True)


# ---------------------------------------------------------------------------
# tape-level helpers

def _scan_valid(ts: TapeSet) -> bool:
    """Linear membership check; leaves the head back on the start marker.

    The automaton moves right and reads one cell at a time until the first
    rejected cell (see _REJECT), 2 steps per cell.  On a blank it accepts or
    rejects what it read; on acceptance it rewinds to the start marker.  The
    stop cell is found with one search over the joined cells and the loop's
    steps are charged for it.
    """
    tape = ts.tapes[0]
    cells = tape.cells
    h = tape.head
    text = "".join(cells)  # cell i is text[i]: an F tape holds one character per cell
    m = _STOP.search(text, h + 1)
    p = m.end() - 1 if m else max(h + 1, len(text))
    ts.steps += 2 * (p - h)
    tape.head = p
    if p < len(text) and text[p] != BLANK:
        return False
    if _NOT_NF.search(text, h + 1, p):
        return False
    _rewind(ts, 0)
    return True


def _rewind(ts: TapeSet, t: int) -> None:
    ts.scan_left(t, (BEGIN,))


def _to_blank(ts: TapeSet) -> None:
    ts.scan_right(0, (BLANK,))


def _compute_r(ts: TapeSet) -> bool:
    """The push/pop subroutine: leaves b^R on tape 2 (head on its last cell),
    tape-1 head on the start marker; returns the CASE flag."""
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


def _mark_hash_track(ts: TapeSet) -> None:
    """Overlay #^M on the b^R counter as convolution cells (b#, b_, _#)."""
    _rewind(ts, 1)
    while True:
        ts.move_right(0)
        sym = ts.read(0)
        if sym == "#":
            ts.move_right(1)
            under = ts.read(1)
            ts.write(1, "b#" if under == "b" else "_#")
        elif sym == BLANK:
            break
    _rewind(ts, 0)
    _rewind(ts, 1)


def _compare_r_m(ts: TapeSet) -> str:
    """After _mark_hash_track: '>', '=', or '<' comparing R with M."""
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


# ---------------------------------------------------------------------------
# x0 multiplication: one scan plus one local edit

def _program_x0(ts: TapeSet, sign: int) -> None:
    if not _scan_valid(ts):
        return
    # one pass of block-0 flags
    r0_pos = s0_pos = False
    m_zero = True
    block1_empty: Optional[bool] = None
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
    _rewind(ts, 0)
    if m_zero:
        block1_empty = None

    if sign < 0:
        if (not s0_pos) and r0_pos and m_zero:
            _to_blank(ts)
            ts.move_left(0)
            ts.write(0, BLANK)
        elif (not s0_pos) and r0_pos and block1_empty:
            # cancellation shifts every index down: drop one a and one separator
            ts.scan_right(0, ("#",))
            ts.move_right(0)
            shift_suffix_left(ts, 0, 2)
        else:
            # thicken the x0 tail: insert b right after block 0's a-run
            while ts.read(0) in (BEGIN, "a"):
                ts.move_right(0)
            shift_suffix_right(ts, 0, ["b"])
    else:
        if s0_pos:
            while ts.read(0) in (BEGIN, "a"):
                ts.move_right(0)
            ts.move_right(0)
            shift_suffix_left(ts, 0, 1)
        elif m_zero:
            _to_blank(ts)
            ts.write(0, "a")
        else:
            # indices shift up: block 0 gains an a, an empty block is born
            ts.scan_right(0, ("#",))
            shift_suffix_right(ts, 0, ["a", "#"])


# ---------------------------------------------------------------------------
# x1^-1 multiplication: the case analysis

def _fire(ts: TapeSet, label: str) -> bool:
    coverage[label] += 1
    return label not in _disabled_cases


def _program_x1_inv(ts: TapeSet) -> None:
    if not _scan_valid(ts):
        return
    # block-0 shape decides between the two case families
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
    _rewind(ts, 0)
    if not s0_pos:
        _x1_inv_case1(ts, m_zero)
    else:
        _x1_inv_case2(ts)


def _x1_inv_case1(ts: TapeSet, m_zero: bool) -> None:
    if m_zero:
        if not _fire(ts, "1.1"):
            return
        _to_blank(ts)
        ts.write(0, "#")
        ts.move_right(0)
        ts.write(0, "b")
        return
    # inspect block 1 and the head of block 2
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
    _rewind(ts, 0)
    if (not r1_pos) or s1_pos or block2_nonzero:
        if not _fire(ts, "1.2"):
            return
        # insert b at the start of block 1's b-run
        ts.scan_right(0, ("#",))
        ts.move_right(0)
        while ts.read(0) == "a":
            ts.move_right(0)
        shift_suffix_right(ts, 0, ["b"])
        return
    # 1.3: r1 > 0, s1 = 0, block 2 absent or empty
    has_second_hash = not _single_hash(ts)
    if not has_second_hash:
        # gamma empty: is r1 > 1?
        _to_blank(ts)
        ts.move_left(0)
        ts.move_left(0)
        second_last = ts.read(0)
        ts.move_right(0)
        if second_last == "a":
            if not _fire(ts, "1.3a"):
                return
            ts.write(0, BLANK)
        else:
            if not _fire(ts, "1.3b"):
                return
            ts.write(0, BLANK)
            ts.move_left(0)
            ts.write(0, BLANK)
        return
    if not _fire(ts, "1.3c"):
        return
    # drop the last a of block 1 together with the second separator
    _to_hash(ts, 2)
    ts.move_right(0)
    shift_suffix_left(ts, 0, 2)


def _single_hash(ts: TapeSet) -> bool:
    found = _to_hash(ts, 2)
    _rewind(ts, 0)
    return not found


def _to_hash(ts: TapeSet, n: int) -> bool:
    """Walk right from the current cell to the n-th # from here."""
    for _ in range(n):
        ts.move_right(0)
        if ts.scan_right(0, ("#", BLANK)) == BLANK:
            return False
    return True


def _x1_inv_case2(ts: TapeSet) -> None:
    case_flag = _compute_r(ts)
    if case_flag:
        _mark_hash_track(ts)
        rel = _compare_r_m(ts)
        _rewind(ts, 1)
        if rel == ">":
            if not _fire(ts, "2.1a"):
                return
            _to_blank(ts)
            while True:
                ts.move_right(1)
                cell = ts.read(1)
                if cell == "b":
                    ts.write(0, "#")
                    ts.move_right(0)
                elif cell != "b#":
                    break
            ts.write(0, "b")
            return
        if rel == "=":
            if not _fire(ts, "2.1b"):
                return
            _to_blank(ts)
            ts.move_left(0)
            if ts.read(0) != "a":
                return  # not of the a-tail shape: invalid input
            ts.write(0, BLANK)
            ts.move_left(0)
            if ts.read(0) == "#":
                while ts.read(0) == "#":
                    ts.write(0, BLANK)
                    ts.move_left(0)
            return
        # rel == "<": find the (R+1)-th separator via the convolution track
        while True:
            ts.move_right(0)
            sym = ts.read(0)
            if sym == "#":
                ts.move_right(1)
                if ts.read(1) == "_#":
                    break
            elif sym == BLANK:
                return
        ts.move_left(0)
        t_prev = ts.read(0)
        ts.move_right(0)
        if t_prev == "#":
            if not _fire(ts, "2.1c1"):
                return
            shift_suffix_right(ts, 0, ["b"])
            return
        if t_prev != "a":
            return
        ts.move_right(0)
        s_next = ts.read(0)
        ts.move_left(0)
        if s_next == "a":
            if not _fire(ts, "2.1c2"):
                return
            shift_suffix_right(ts, 0, ["b"])
            return
        if s_next == "#":
            if not _fire(ts, "2.1c3"):
                return
            ts.move_right(0)
            shift_suffix_left(ts, 0, 2)
            return
        return
    # not CASE: the insertion point sits inside the tail at index R
    _rewind(ts, 1)
    while True:
        ts.move_right(0)
        sym = ts.read(0)
        if sym == "#":
            ts.move_right(1)
            ts.move_right(1)
            nxt = ts.read(1)
            ts.move_left(1)
            if nxt == BLANK:
                break  # this is the R-th separator
        elif sym == BLANK:
            return
    ts.move_right(0)
    s1 = ts.read(0)
    if s1 == "#":
        if not _fire(ts, "2.2.2c"):
            return
        shift_suffix_right(ts, 0, ["b"])
        return
    if s1 == "b":
        if not _fire(ts, "2.2.2a"):
            return
        shift_suffix_right(ts, 0, ["b"])
        return
    if s1 != "a":
        return
    while ts.read(0) == "a":
        ts.move_right(0)
    sym = ts.read(0)
    if sym == "b":
        if not _fire(ts, "2.2.2a"):
            return
        shift_suffix_right(ts, 0, ["b"])
        return
    if sym != "#":
        return
    ts.move_right(0)
    s2 = ts.read(0)
    ts.move_left(0)
    if s2 in ("a", "b"):
        if not _fire(ts, "2.2.2b"):
            return
        shift_suffix_right(ts, 0, ["b"])
        return
    if s2 == "#":
        if not _fire(ts, "2.2.1"):
            return
        ts.move_right(0)
        shift_suffix_left(ts, 0, 2)
        return


# ---------------------------------------------------------------------------
# x1 multiplication: guess and check

def _run_edit(text: str, edit) -> Tuple[Optional[str], int]:
    ts = init_tapes(list(text), 2, sigma=F_SIGMA)
    ok = edit(ts)
    out = "".join(read_output(ts))
    return (out if ok else None), ts.steps


def _b_11(ts: TapeSet) -> bool:
    _to_blank(ts)
    ts.move_left(0)
    if ts.read(0) != "b":
        return False
    ts.write(0, BLANK)
    ts.move_left(0)
    if ts.read(0) != "#":
        return False
    ts.write(0, BLANK)
    return True


def _b_12(ts: TapeSet) -> bool:
    if not _to_hash(ts, 1):
        return False
    ts.move_right(0)
    while ts.read(0) == "a":
        ts.move_right(0)
    if ts.read(0) != "b":
        return False
    ts.move_right(0)
    shift_suffix_left(ts, 0, 1)
    return True


def _b_13a(ts: TapeSet) -> bool:
    _to_blank(ts)
    ts.write(0, "a")
    return True


def _b_13b(ts: TapeSet) -> bool:
    _to_blank(ts)
    ts.write(0, "#")
    ts.move_right(0)
    ts.write(0, "a")
    return True


def _b_13c(ts: TapeSet) -> bool:
    if not _to_hash(ts, 2):
        return False
    shift_suffix_right(ts, 0, ["a", "#"])
    return True


def _b_21a(ts: TapeSet) -> bool:
    _to_blank(ts)
    ts.move_left(0)
    if ts.read(0) != "b":
        return False
    ts.write(0, BLANK)
    ts.move_left(0)
    if ts.read(0) != "#":
        return False
    while ts.read(0) == "#":
        ts.write(0, BLANK)
        ts.move_left(0)
    return True


def _b_21b(ts: TapeSet) -> bool:
    if not _scan_valid(ts):
        return False
    if not _compute_r(ts):
        return False
    _mark_hash_track(ts)
    if _compare_r_m(ts) == "<":
        return False
    _rewind(ts, 1)
    _to_blank(ts)
    while True:
        ts.move_right(1)
        cell = ts.read(1)
        if cell == "b":
            ts.write(0, "#")
            ts.move_right(0)
        elif cell != "b#":
            break
    ts.write(0, "a")
    return True


def _b_21c12(ts: TapeSet) -> bool:
    _to_blank(ts)
    ts.move_left(0)
    if ts.scan_left(0, ("b", BEGIN)) == BEGIN:  # rightmost b of the input
        return False
    ts.move_right(0)
    shift_suffix_left(ts, 0, 1)
    return True


def _walk_to_hash_after_r(ts: TapeSet, offset: int) -> bool:
    """Head to the (R+offset)-th separator, tape 2 holding plain b^R."""
    _rewind(ts, 1)
    want_blank = offset > 0
    while True:
        ts.move_right(0)
        sym = ts.read(0)
        if sym == "#":
            ts.move_right(1)
            cell = ts.read(1)
            if want_blank and cell == BLANK:
                return True
            if not want_blank:
                ts.move_right(1)
                nxt = ts.read(1)
                ts.move_left(1)
                if cell == "b" and nxt == BLANK:
                    return True
        elif sym == BLANK:
            return False


def _b_21c3(ts: TapeSet) -> bool:
    if not _scan_valid(ts):
        return False
    _compute_r(ts)
    if not _walk_to_hash_after_r(ts, 1):
        return False
    shift_suffix_right(ts, 0, ["a", "#"])
    return True


def _b_222a(ts: TapeSet) -> bool:
    if not _scan_valid(ts):
        return False
    _compute_r(ts)
    if not _walk_to_hash_after_r(ts, 0):
        return False
    ts.move_right(0)
    while ts.read(0) == "a":
        ts.move_right(0)
    if ts.read(0) != "b":
        return False
    ts.move_right(0)
    shift_suffix_left(ts, 0, 1)
    return True


def _b_222bc(ts: TapeSet) -> bool:
    if not _scan_valid(ts):
        return False
    _compute_r(ts)
    if not _walk_to_hash_after_r(ts, 1):
        return False
    ts.move_left(0)
    if ts.read(0) != "b":
        return False
    ts.move_right(0)
    shift_suffix_left(ts, 0, 1)
    return True


_X1_BUILDERS = (
    ("1.1", _b_11), ("1.2", _b_12), ("1.3a", _b_13a), ("1.3b", _b_13b),
    ("1.3c", _b_13c), ("2.1a", _b_21a), ("2.1b", _b_21b), ("2.1c12", _b_21c12),
    ("2.1c3/2.2.1", _b_21c3), ("2.2.2a", _b_222a), ("2.2.2bc", _b_222bc),
)


def apply_x1(text: str) -> Tuple[str, int]:
    """Right multiplication by x1: try each case's inverse edit and accept the
    candidate whose forward edit reproduces the input.

    text must be a normal form; apply_gen_report checks it before calling.
    """
    steps = 0
    for _label, builder in _X1_BUILDERS:
        candidate, st = _run_edit(text, builder)
        steps += st
        if candidate is None or not validate(candidate):
            continue
        back, st2 = _apply_x1_inv_raw(candidate)
        steps += st2
        if back == text:
            return candidate, steps
    raise NoCaseMatched(f"no multiplication case accepted {text!r}")


def _apply_x1_inv_raw(text: str) -> Tuple[str, int]:
    ts = init_tapes(list(text), 2, sigma=F_SIGMA)
    _program_x1_inv(ts)
    return "".join(read_output(ts)), ts.steps


# ---------------------------------------------------------------------------
# public entry points

def compute_r(text: str) -> RResult:
    """Run the counter subroutine and read R off the second tape."""
    ts = init_tapes(list(text), 2, sigma=F_SIGMA)
    case_flag = _compute_r(ts)
    cells = ts.tapes[1].cells
    r = sum(1 for c in cells if c == "b")
    return RResult(r, case_flag)


def apply_gen_report(text: str, gen: str) -> Tuple[str, StepReport]:
    if gen not in GENERATORS:
        raise BadWord(f"unknown generator {gen!r} for {GROUP}")
    if not validate(text):
        raise NotInLanguage(f"{text!r} is not a normal form")
    n = len(text)
    if gen == "x1":
        out, steps = apply_x1(text)
        return out, StepReport(n, steps, gen, GROUP)
    ts = init_tapes(list(text), 2, sigma=F_SIGMA)
    if gen == "x0":
        _program_x0(ts, +1)
    elif gen == "x0-":
        _program_x0(ts, -1)
    else:
        _program_x1_inv(ts)
    return "".join(read_output(ts)), StepReport(n, ts.steps, gen, GROUP)


def apply_gen(text: str, gen: str) -> str:
    return apply_gen_report(text, gen)[0]

