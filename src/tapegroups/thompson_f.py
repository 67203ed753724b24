"""Normal form over {a,b,#} and 2-tape right multiplication for Thompson's F.

A normal form a^r0 b^s0 # a^r1 b^s1 # ... # a^rM b^sM encodes the element
x0^r0 x1^r1 ... xM^rM xM^-sM ... x1^-s1 x0^-s0 of the infinite presentation;
the identity is the empty string.  Multiplication by x0 is a one-pass local
edit; multiplication by x1^-1 dispatches on a case analysis driven by the
unary counter R accumulated on tape 2 (b-blocks push, block separators pop).
Multiplication by x1 guesses the case, in one run of the same 2-tape
machine.  Tape 1 has a second track that holds the input and is never
written.  For each case the machine restores the input from that track, runs
the case's inverse edit, runs x1^-1 on the candidate in place (its
membership scan rejects a candidate that is not a normal form) and compares
the result with the track, until the round trip reproduces the input, which
bijectivity guarantees happens exactly once.  Every step of that, the checks
included, is counted.

Which branch of the case analysis fired is a return value: the x1^-1 program
returns its label from CASE_LABELS, and apply_gen_report hands the labels of
a run to its caller in StepReport.cases: one for x1-, one per candidate round
trip for x1 (the accepting one last), none for x0 and x0-.  The module holds
no mutable state.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Tuple

from . import oracle_groups, tapeops
from .errors import NoCaseMatched, NotInLanguage, TapeFault
from .tapevm import Machine, StepReport, TapeSet, first_stop, init_tapes, input_codes
from .tokens import BEGIN, BLANK, CODE, F_SIGMA, codes_of

GROUP = "thompson-f"
GENERATORS = ("x0", "x0-", "x1", "x1-")
IDENTITY_NF = ""

CASE_LABELS = ("1.1", "1.2", "1.3a", "1.3b", "1.3c",
               "2.1a", "2.1b", "2.1c1", "2.1c2", "2.1c3",
               "2.2.1", "2.2.2a", "2.2.2b", "2.2.2c")

@dataclass(frozen=True)
class ExpSeq:
    """Exponent blocks of a normal form; identity has no blocks."""

    r: Tuple[int, ...]
    s: Tuple[int, ...]

    @property
    def M(self) -> int:
        return len(self.r) - 1


# The language, stated once as the cells where the automaton of `_scan_valid`
# rejects.  Read left to right, the first match of _REJECT ends on the first
# rejected cell: an a after a b of the same block, a # that closes an empty
# block after a block with both signs, or any other symbol (a blank among
# them, where the automaton stops to give its verdict).  A normal form has no
# such cell and does not end in an empty or two-signed block (the test of
# _NF below checks the two statements against each other and a reference parse).
_REJECT = r"ba|ab+##|[^ab#]"
# The same language as one pattern: blocks a^r#, b^s# or a^r b^s# (r, s > 0)
# with a nonempty block after the last, then a last block of one sign.  Every
# repeat is possessive, so a failing match never backtracks into the blocks
# it has read: a plain form of it takes exponential time on a long near-miss.
_NF = r"(?:(?:a*+#|b*+#|a++b++#(?=[ab]))*+(?:a++|b++))?"
_IS_NF = re.compile(_NF).fullmatch
_IS_NF_CODES = re.compile(_NF.encode()).fullmatch
# The longest prefix with no rejected cell, for a tape that _IS_NF_CODES
# rejects: blocks closed by a # that is not rejected (that of a two-signed
# block only if no # follows it), then what the automaton reads of the next
# block.  Its end is the cell where the automaton stops.
_CLEAN = re.compile(rb"(?:a*+#|b*+#|a++b++#(?!#))*+(?:a++b++#|a*+b*+)").match
# _scan_valid finds its stop cell with those two matches, or bit-parallel
# with _first_rejected: a byte mask of each of a, b and # as one integer,
# which a shift moves one cell and in which an addition carries across a
# whole b-run to the cell after it.  The full match costs about 36 ns a block
# and 1 ns a cell here, the masks about 1 us and 4 ns a cell.  On sampled
# forms, about 3 cells a block, the two cross at about 130 blocks (380
# cells), and on long tapes at about one # in ten cells.  So the masks take
# a tape with at least _MASK_HASHES # among its first _MASK_WINDOW cells,
# where counting costs the same at any length, or, where that window falls
# short on a longer tape, with that density over the whole tape.  b^k, whose
# one block the match reads fast, stays on the match; a tape whose # come
# late, such as x1's candidate on b^k, takes the masks.
_MASK_WINDOW, _MASK_HASHES = 1024, 128

# What the counted sweeps search for on tape codes
_A, _B, _H = b"ab#"
_HASHES = re.compile(b"#").finditer
_BLOCK = re.compile(b"[ab]*+(#*+)").match  # a run of a and b, then of #
# translate tables: a byte mask, 0xFF on a symbol's cells, and the cells
# that end a run (of b#, of b and b#, of F's symbols), 1 on each
_MASKS = tuple(bytes(255 * (c == x) for c in range(256)) for x in (_A, _B, _H))
_NOT_BH, _NOT_B_OR_BH, _NOT_F_CELL = (bytes(c not in run for c in range(256)) for run in (
    codes_of(("b#",)), b"b" + codes_of(("b#",)), b"ab#"))
_LAST_B = re.compile(b"b(?:\0|\\Z)").search  # b, then a blank
_TRACK = bytes(CODE["b#"] if c == _B else CODE["_#"] for c in range(256))
_RELATION = {_B: ">", CODE["_#"]: "<"}
# scan_right with it passes an a-run, and the start marker before one
_NOT_A = frozenset(CODE) - {"a", BEGIN}
# where a block ends: the # after it, or the blank after the last block
_BLOCK_END = ("#", BLANK)


def serialize(seq: ExpSeq) -> str:
    if not seq.r:
        return ""
    return "#".join("a" * r + "b" * s for r, s in zip(seq.r, seq.s))


def validate(text: str | bytes) -> bool:
    return (_IS_NF_CODES if isinstance(text, bytes) else _IS_NF)(text) is not None


def decode(nf: str | bytes) -> oracle_groups.DyadicPL:
    """The PL map of a normal form, text or tape codes, after the membership
    check (NotInLanguage) that pl_eval_normalform does not make."""
    if not validate(nf):
        raise NotInLanguage("not a normal form of thompson-f")
    return oracle_groups.pl_eval_normalform(nf.decode("ascii") if isinstance(nf, bytes) else nf)


@dataclass(frozen=True)
class RResult:
    """Index where a pushed x1^-1 settles in the negative tail."""

    R: int
    case_flag: bool  # True iff R passed the whole tail (R > j_n)


# ---------------------------------------------------------------------------
# tape-level helpers

def _scan_valid(ts: TapeSet) -> bool:
    """Linear membership check; leaves the head back on the start marker.

    The automaton moves right and reads one cell at a time until the first
    rejected cell (see _REJECT), 2 steps per cell.  On a blank it accepts or
    rejects what it read; on acceptance it rewinds to the start marker.  The
    host finds the cell where it stops, and charges the loop's steps for it.
    A tape with at least _MASK_HASHES # among its first _MASK_WINDOW cells,
    or, if it is longer, as many per _MASK_WINDOW cells over its whole length,
    gets its stop cell from _first_rejected, and accepts if that is the first
    blank and its last block has one sign, or it is blank up to there.  Any
    other tape is tried with one full match of _NF: on a match the automaton
    reads up to the first blank and accepts, else it stops where _CLEAN ends.
    """
    cells, h = ts.cells[0], ts.heads[0]
    end = _first_blank(cells, h + 1)
    n = end - h - 1
    # a tape of fewer than _MASK_HASHES cells holds fewer # too, and one with
    # no # past the window (b^k, say) too few per _MASK_WINDOW cells
    if n >= _MASK_HASHES and (
            cells.count(_H, h + 1, min(end, h + 1 + _MASK_WINDOW)) >= _MASK_HASHES
            or cells.find(_H, h + 1 + _MASK_WINDOW, end) >= 0
            and cells.count(_H, h + 1, end) * _MASK_WINDOW >= _MASK_HASHES * n):
        p = h + 1 + _first_rejected(cells[h + 1:end])
        q = max(cells.rfind(_H, h + 1, end) + 1, h + 1)  # where the last block starts
        ok = p == end and (end == h + 1 or q < end and cells[q] == cells[end - 1])
    else:
        ok = _IS_NF_CODES(cells, h + 1, end) is not None
        p = end if ok else _CLEAN(cells, h + 1).end()
    ts.steps += 2 * (p - h)
    ts.heads[0] = p
    if ok:
        _rewind(ts, 0)
    return ok


def _first_rejected(seg: bytearray) -> int:
    """The first rejected cell of seg (see _REJECT), or len(seg) if none.

    Each of a, b and # becomes a mask A, B, H: an integer whose byte i, read
    little-endian, is 0xFF if cell i holds the symbol and 0 if not, so a
    shift by 8 moves a mask one cell right.  A & (B << 8) marks each a after
    a b.  (A << 8) & B marks the first b of each b-run that follows an a.
    Added to B, that byte overflows, and the carry runs through the 0xFF of
    each further b of the run.  It stops on the first cell past the run:
    neither B nor the addend has a byte there, so the cell holds 1 and
    carries nothing on.  & H & (H >> 8) keeps that 1 where the cell is a #
    and a # follows it, and the rejected cell is that next #.  The lowest
    nonzero byte of the two results is the first ba or ab+## rejection; the
    first cell of another symbol is found apart, with a translate.
    """
    ma, mb, mh = _MASKS
    a = int.from_bytes(seg.translate(ma), "little")
    b = int.from_bytes(seg.translate(mb), "little")
    h = int.from_bytes(seg.translate(mh), "little")
    r = (a & (b << 8)) | (((b + ((a << 8) & b)) & h & (h >> 8)) << 8)
    i = ((r & -r).bit_length() - 1) >> 3 if r else len(seg)
    return min(i, _first(_NOT_F_CELL, seg, 0))


def _rewind(ts: TapeSet, t: int) -> None:
    """`scan_left(t, (BEGIN,))`: the start marker is on cell 0 alone, so the
    loop stops there, 2h + 1 steps from cell h."""
    ts.steps += 2 * ts.heads[t] + 1
    ts.heads[t] = 0


def _to_blank(ts: TapeSet) -> None:
    ts.scan_right(0, (BLANK,))


def _first(ends: bytes, cells: bytearray, p: int) -> int:
    """The first cell at or after p that the translate table `ends` maps to
    1; past the last written cell, a blank (every table here maps it to 1)."""
    i = cells[p:].translate(ends).find(1)
    return p + i if i >= 0 else max(p, len(cells))


def _first_blank(cells: bytearray, p: int) -> int:
    i = cells.find(0, p)
    return i if i >= 0 else max(p, len(cells))


def _code(cells: bytearray, i: int) -> int:
    return cells[i] if i < len(cells) else 0  # past the end: a blank


# The counted sweeps below are each charged their defining loop's steps
# (tests/test_sweeps.py keeps the loops), with the tape cells searched in C.
# No tape holds the start marker past cell 0.

def _compute_r(ts: TapeSet) -> bool:
    """The push/pop subroutine: leaves b^R on tape 2 (head on its last cell),
    tape-1 head on the start marker; returns the CASE flag.  Tape 2 starts
    blank with its head on the marker, as every caller has it.

    After 3 steps that start the counter, the push/pop walk reads tape 1 one
    block (a run of a and b, then of #) per host iteration: 3 steps per a, 5
    per b (a push) and 5 per # (a pop).  It stops when the counter drains, 1
    step, or on any other symbol, 2 steps, which sets CASE; otherwise the
    scan to b or blank decides CASE.  The clear costs 3 steps per b and 1,
    and the copy back left 2 per cell, 2 more per b and 1.
    """
    cells = ts.cells[0]
    n = len(cells)
    p = ts.heads[0] + 1
    g = 1  # the counter
    steps = 3
    while True:
        q, r = _BLOCK(cells, p).span(1) if p <= n else (p, p)
        nb = cells.count(_B, p, q)
        g += nb
        j = r - q if r - q < g else g  # the pops
        steps += 3 * (q - p) + 2 * nb + 5 * j
        g -= j
        p = q + j
        if g == 0 or j == 0:
            break
    ts.steps += steps + (2 if g else 1) + 3 * g + 1  # the walk's end, the clear
    ts.heads[0] = p
    case_flag = g > 0 or ts.scan_right(0, (BLANK, "b")) == BLANK
    p = ts.heads[0]
    # the b's written back: one per b of tape 1 up to p, and one for CASE;
    # at least one more than the walk pushed, so they cover every cell it wrote
    k = case_flag + cells.count(_B, 1, p + 1)
    ts.steps += 2 * k + 2 * p + 1
    ts.cells[1][1:] = b"b" * k
    ts.heads[:] = 0, k
    return case_flag


def _mark_hash_track(ts: TapeSet) -> None:
    """Overlay #^M on the b^R counter as convolution cells (b#, b_, _#).

    Between the rewinds, tape 1 walks right to its first blank, 2 steps per
    cell, and tape 2 marks one cell per # passed, 3 steps more: b as b#,
    anything else as _#."""
    _rewind(ts, 1)
    cells, counter = ts.cells
    h = ts.heads[0]
    e = _first_blank(cells, h + 1)
    k = cells.count(_H, h + 1, e)
    counter[1:k + 1] = counter[1:k + 1].ljust(k, b"\0").translate(_TRACK)
    ts.steps += 2 * (e - h) + 3 * k
    ts.heads[:] = e, k
    _rewind(ts, 0)
    _rewind(ts, 1)


def _compare_r_m(ts: TapeSet) -> str:
    """After _mark_hash_track: '>', '=', or '<' comparing R with M.  Tape 2
    moves right to its first cell that is not b#, 2 steps per cell read."""
    cells, h = ts.cells[1], ts.heads[1]
    q = _first(_NOT_BH, cells, h + 1)
    ts.steps += 2 * (q - h)
    ts.heads[1] = q
    return _RELATION.get(_code(cells, q), "=")


# ---------------------------------------------------------------------------
# x0 multiplication: one scan plus one local edit

def _x0_flags(ts: TapeSet) -> Tuple[bool, bool, bool, bool]:
    """One pass right to the first blank or second #, 2 steps per cell:
    whether block 0 has an a, anything else, whether it is the only block,
    and whether block 1 is empty with a # closing it."""
    cells, h = ts.cells[0], ts.heads[0]
    q1 = first_stop(cells, h + 1, _BLOCK_END)  # where block 0 ends, then block 1
    q2 = first_stop(cells, q1 + 1, _BLOCK_END)
    m_zero = _code(cells, q1) != _H
    ts.heads[0] = q = q1 if m_zero else q2
    ts.steps += 2 * (q - h)
    return (cells.find(_A, h + 1, q1) >= 0, cells.count(_A, h + 1, q1) < q1 - h - 1,
            m_zero, not m_zero and q2 == q1 + 1 and _code(cells, q2) == _H)


def _program_x0(ts: TapeSet, gen: str) -> Optional[Tuple[()]]:
    """x0 or x0^-1; None when the membership scan rejects the input."""
    if not _scan_valid(ts):
        return None
    r0_pos, s0_pos, m_zero, block1_empty = _x0_flags(ts)
    _rewind(ts, 0)

    if gen == "x0-":
        if (not s0_pos) and r0_pos and m_zero:
            _to_blank(ts)
            ts.move_left(0)
            ts.write(0, BLANK)
        elif (not s0_pos) and r0_pos and block1_empty:
            # cancellation shifts every index down: drop one a and one separator
            ts.scan_right(0, ("#",))
            ts.move_right(0)
            tapeops.shift_suffix_left(ts, 0, 2)
        else:
            # thicken the x0 tail: insert b right after block 0's a-run
            ts.scan_right(0, _NOT_A)
            tapeops.shift_suffix_right(ts, 0, ["b"])
    else:
        if s0_pos:
            ts.scan_right(0, _NOT_A)
            ts.move_right(0)
            tapeops.shift_suffix_left(ts, 0, 1)
        elif m_zero:
            _to_blank(ts)
            ts.write(0, "a")
        else:
            # indices shift up: block 0 gains an a, an empty block is born
            ts.scan_right(0, ("#",))
            tapeops.shift_suffix_right(ts, 0, ["a", "#"])
    return ()


# ---------------------------------------------------------------------------
# x1^-1 multiplication: the case analysis
#
# Each case program returns the label (one of CASE_LABELS) of the branch whose
# edit it made.

def _program_x1_inv(ts: TapeSet, gen: str) -> Optional[Tuple[str]]:
    """x1^-1's program: a 1-tuple of its branch's label, or None when the
    membership scan rejects its input."""
    if not _scan_valid(ts):
        return None
    # block-0 shape decides between the two case families
    s0_pos, m_zero = _x1_inv_flags(ts)
    _rewind(ts, 0)
    if not s0_pos:
        return (_x1_inv_case1(ts, m_zero),)
    return (_x1_inv_case2(ts),)


def _x1_inv_flags(ts: TapeSet) -> Tuple[bool, bool]:
    """One pass right to the first # or blank, 2 steps per cell: whether
    block 0 has a b, and whether it is the only block."""
    cells, h = ts.cells[0], ts.heads[0]
    ts.heads[0] = q1 = first_stop(cells, h + 1, _BLOCK_END)
    ts.steps += 2 * (q1 - h)
    return cells.find(_B, h + 1, q1) >= 0, _code(cells, q1) != _H


def _case1_flags(ts: TapeSet) -> Tuple[bool, bool, bool]:
    """One pass right to the first blank, third # or cell of block 2, 2 steps
    per cell: whether block 1 has an a, anything else, and whether block 2
    has a cell."""
    cells, h = ts.cells[0], ts.heads[0]
    q1 = first_stop(cells, h + 1, _BLOCK_END)  # where block 0 ends, then block 1
    q2 = first_stop(cells, q1 + 1, _BLOCK_END)
    in1, in2 = _code(cells, q1) == _H, _code(cells, q1) == _code(cells, q2) == _H
    ts.heads[0] = q = q2 + 1 if in2 else q2 if in1 else q1
    ts.steps += 2 * (q - h)
    return (in1 and cells.find(_A, q1 + 1, q2) >= 0,
            in1 and cells.count(_A, q1 + 1, q2) < q2 - q1 - 1,
            in2 and _code(cells, q2 + 1) not in (_H, 0))


def _x1_inv_case1(ts: TapeSet, m_zero: bool) -> str:
    if m_zero:
        _to_blank(ts)
        ts.write(0, "#")
        ts.move_right(0)
        ts.write(0, "b")
        return "1.1"
    # inspect block 1 and the head of block 2
    r1_pos, s1_pos, block2_nonzero = _case1_flags(ts)
    _rewind(ts, 0)
    if (not r1_pos) or s1_pos or block2_nonzero:
        # insert b at the start of block 1's b-run
        ts.scan_right(0, ("#",))
        ts.move_right(0)
        ts.scan_right(0, _NOT_A)
        tapeops.shift_suffix_right(ts, 0, ["b"])
        return "1.2"
    # 1.3: r1 > 0, s1 = 0, block 2 absent or empty
    second_hash = _to_hash(ts, 2)
    _rewind(ts, 0)
    if not second_hash:
        # gamma empty: is r1 > 1?
        _to_blank(ts)
        ts.move_left(0)
        ts.move_left(0)
        second_last = ts.read(0)
        ts.move_right(0)
        ts.write(0, BLANK)
        if second_last == "a":
            return "1.3a"
        ts.move_left(0)
        ts.write(0, BLANK)
        return "1.3b"
    # drop the last a of block 1 together with the second separator
    _to_hash(ts, 2)
    ts.move_right(0)
    tapeops.shift_suffix_left(ts, 0, 2)
    return "1.3c"


def _to_hash(ts: TapeSet, n: int) -> bool:
    """Walk right from the current cell to the n-th # from here."""
    for _ in range(n):
        ts.move_right(0)
        if ts.scan_right(0, _BLOCK_END) == BLANK:
            return False
    return True


def _hash_walk(ts: TapeSet, k: Optional[int], per_hash: int, halts: bool) -> bool:
    """Move tape 1 right cell by cell to its k-th # (k None: none), tape 2
    one cell right per #: 2 steps per cell and per_hash more per #.  With
    halts, a blank stops the walk first.  Without, a walk with fewer than k #
    ahead never halts: it raises TapeFault before any step.  True iff the
    walk stopped on the k-th #."""
    cells, h = ts.cells[0], ts.heads[0]
    m = next(islice(_HASHES(cells, h + 1), k - 1, None), None) if k else None
    pos = m.start() if m else max(h + 1, len(cells))
    if halts:  # the first blank, if one comes first
        blank = cells.find(0, h + 1, pos)
        pos = blank if blank >= 0 else pos
    elif m is None:
        raise TapeFault("the walk never reaches its #")
    j = cells.count(_H, h + 1, pos + 1)
    ts.steps += 2 * (pos - h) + per_hash * j
    ts.heads[0] = pos
    ts.heads[1] += j
    return j == k


def _walk_to_hash(ts: TapeSet, cell: str) -> bool:
    """Walk tape 1 right to the first # at which tape 2, moved one cell right
    per #, reads `cell`; False if tape 1 reaches a blank first.  2 steps per
    tape-1 cell and 2 more per #."""
    track, g = ts.cells[1], ts.heads[1]
    i = (_first_blank(track, g + 1) if cell == BLANK
         else track.find(CODE[cell], g + 1))
    return _hash_walk(ts, i - g if i > g else None, 2, True)


def _walk_to_rth_hash(ts: TapeSet) -> None:
    """Walk tape 1 right to the first # at which tape 2, moved one cell right
    per #, has a blank one cell further on: with tape 2 holding b^R from its
    head on, the R-th separator.  2 steps per tape-1 cell and 4 more per #."""
    g = ts.heads[1]
    _hash_walk(ts, _first_blank(ts.cells[1], g + 2) - g - 1, 4, False)


def _walk_to_last_b(ts: TapeSet) -> bool:
    """Walk tape 1 right to the first # at which tape 2, moved one cell right
    per #, reads b with a blank one cell further on; False if tape 1 reaches a
    blank first.  2 steps per tape-1 cell and 5 more per #."""
    g = ts.heads[1]
    m = _LAST_B(ts.cells[1], g + 1)
    return _hash_walk(ts, m and m.start() - g, 5, True)


def _write_hash_per_b(ts: TapeSet, last: str) -> None:
    """At the end of tape 1, write # for each plain b cell of the counter
    track on tape 2 (skipping b# cells), then `last`.  Tape 2 moves right to
    its first other cell, 2 steps per cell read, 2 more per # written, and 1
    for `last`."""
    _to_blank(ts)
    cells, counter = ts.cells
    p, g = ts.heads
    q = _first(_NOT_B_OR_BH, counter, g + 1)
    nb = counter.count(_B, g + 1, q)
    cells.extend(bytes(max(0, p - len(cells))))
    cells[p:p + nb] = b"#" * nb
    ts.steps += 2 * (q - g) + 2 * nb
    ts.heads[:] = p + nb, q
    ts.write(0, last)


def _strip_tail(ts: TapeSet, last: str) -> bool:
    """Erase the final symbol if it is `last`, then the run of # before it;
    False if the final symbol is not `last` or no # precedes it.  The run
    is erased as one sweep: 3 steps per # and 1."""
    _to_blank(ts)
    ts.move_left(0)
    if ts.read(0) != last:
        return False
    ts.write(0, BLANK)
    ts.move_left(0)
    if ts.read(0) != "#":
        return False
    cells, h = ts.cells[0], ts.heads[0]
    j = h + 1 - len(cells[:h + 1].rstrip(b"#"))  # the run of #
    cells[h + 1 - j:h + 1] = bytes(j)
    ts.steps += 3 * j + 1
    ts.heads[0] = h - j
    return True


def _drop_b_after_a_run(ts: TapeSet) -> bool:
    """From a separator, delete the b that ends the a-run after it; False if
    that run is followed by anything else."""
    ts.move_right(0)
    ts.scan_right(0, _NOT_A)
    if ts.read(0) != "b":
        return False
    ts.move_right(0)
    tapeops.shift_suffix_left(ts, 0, 1)
    return True


def _x1_inv_case2(ts: TapeSet) -> str:
    """The s0 > 0 family on a normal form.  Every path ends in a labelled
    edit: where a read could meet a blank or another symbol, a comment says
    why a normal form cannot."""
    case_flag = _compute_r(ts)
    if case_flag:
        _mark_hash_track(ts)
        rel = _compare_r_m(ts)
        _rewind(ts, 1)
        if rel == ">":
            _write_hash_per_b(ts, "b")
            return "2.1a"
        if rel == "=":
            _strip_tail(ts, "a")  # done whether or not a # precedes the final a
            return "2.1b"
        # rel == "<": find the (R+1)-th separator via the convolution track;
        # R < M, so cell R+1 of the track is _# and the walk stops before a blank
        _walk_to_hash(ts, "_#")
        ts.move_left(0)
        t_prev = ts.read(0)
        ts.move_right(0)
        if t_prev == "#":
            tapeops.shift_suffix_right(ts, 0, ["b"])
            return "2.1c1"
        # CASE (R > j_n): block R has no b, so t_prev is a
        ts.move_right(0)
        s_next = ts.read(0)
        ts.move_left(0)
        if s_next == "a":
            tapeops.shift_suffix_right(ts, 0, ["b"])
            return "2.1c2"
        # block R+1 has no b and track cell R+1 is _#, so s_next is #
        ts.move_right(0)
        tapeops.shift_suffix_left(ts, 0, 2)
        return "2.1c3"
    # not CASE: the insertion point sits inside the tail at index R
    # (R <= j_n <= M), so the R-th separator exists and the loop stops at it
    _rewind(ts, 1)
    _walk_to_rth_hash(ts)
    ts.move_right(0)
    s1 = ts.read(0)
    if s1 == "#":
        tapeops.shift_suffix_right(ts, 0, ["b"])
        return "2.2.2c"
    if s1 == "b":
        tapeops.shift_suffix_right(ts, 0, ["b"])
        return "2.2.2a"
    # a blank here would end the form in an empty block: s1 is a
    ts.scan_right(0, _NOT_A)
    sym = ts.read(0)
    if sym == "b":
        tapeops.shift_suffix_right(ts, 0, ["b"])
        return "2.2.2a"
    # not CASE: a b follows the R-th separator, so the a-run ends in # here
    ts.move_right(0)
    s2 = ts.read(0)
    ts.move_left(0)
    if s2 in ("a", "b"):
        tapeops.shift_suffix_right(ts, 0, ["b"])
        return "2.2.2b"
    # a blank here would end the form in an empty block: s2 is #
    ts.move_right(0)
    tapeops.shift_suffix_left(ts, 0, 2)
    return "2.2.1"


# ---------------------------------------------------------------------------
# x1 multiplication: guess and check
#
# Tape 1 has two tracks.  The work track is the tape the programs above read
# and write; the input track holds the input from the start, is never
# written, and is read with the work track in the same step.  On the host it
# is a bytes value, the input's codes with the start marker first.

def _erase_counter(ts: TapeSet) -> None:
    """Erase tape 2 and rewind it, leaving it as a fresh machine has it.

    Tape 2 holds one run of cells from cell 1 up to its first blank and
    nothing past it: _compute_r writes b^R there and _mark_hash_track
    overlays cells 1..max(R, M).  The sweep rewinds, 2 steps per cell and 1,
    then moves right writing a blank on each cell of the run, 3 steps per
    cell, reads the blank after it, 2 steps, and rewinds from there: 2h + 5f
    + 1 steps with the head on cell h and the first blank on cell f.  The
    host drops the erased cells, since unwritten cells read blank.
    """
    ts.steps += 2 * ts.heads[1] + 5 * _first_blank(ts.cells[1], 1) + 1
    del ts.cells[1][1:]
    ts.heads[1] = 0


def _restore_input(ts: TapeSet, track: bytes) -> None:
    """Copy the input track onto the work track, erase what lies past it,
    and rewind tape 1.

    The sweep rewinds, 2 steps per cell and 1, then moves right writing the
    input symbol on each of the n input cells, 3 steps per cell.  Past them
    it reads each cell, 2 steps, and writes a blank over a written one, 1
    step, until it has read two blanks in a row, on cells e and e+1; then it
    rewinds from cell e+1.  With the head on cell h and w written cells
    erased that is 2h + n + 4e + w + 6 steps.  The host drops the erased
    cells, so the tape is the input as init_tapes loads it.

    Two blanks in a row are as far as any run of apply_x1 writes.  Each run
    starts from the restored input, whose cells past its end are blank.  A
    builder leaves nothing past its candidate's first blank: it writes at
    the end of the form, erases there, shifts right, or shifts left by one
    cell, which copies the blank that ends the form.  x1^-1 then makes one
    edit.  Only its two-cell left shift (1.3c, 2.1c3, 2.2.1) leaves a written
    cell past the new first blank: the candidate's last cell, followed by the
    candidate's own first blank and blanks only.  So no written cell lies
    past the first two blanks in a row after the input's end.
    """
    cells, n = ts.cells[0], len(track) - 1
    e = cells.find(0, n + 1)
    while 0 <= e < len(cells) - 1 and cells[e + 1]:  # a blank, then a written cell
        e = cells.find(0, e + 2)
    if e < 0:  # the pair lies past the last written cell
        e = max(n + 1, len(cells))
    w = e - n - 1 - cells.count(0, n + 1, e)
    ts.steps += 2 * ts.heads[0] + n + 4 * e + w + 6
    cells[:] = track
    ts.heads[0] = 0


def _restore(ts: TapeSet, track: bytes) -> None:
    """Put the machine back in the state it started in: tape 2 erased, the
    input on the work track, both heads on the start marker."""
    _erase_counter(ts)
    _restore_input(ts, track)


def _compare_input(ts: TapeSet, track: bytes) -> bool:
    """Whether the work track, up to its first blank, is the input.

    The sweep rewinds tape 1, 2 steps per cell and 1, then moves right
    reading both tracks, 2 steps per cell, until both read blank, which is
    on the first blank of the work track at or past the input's end, cell
    c; it remembers whether a cell differed.  That is 2h + 2c + 1 steps with
    the head on cell h.
    """
    cells, n = ts.cells[0], len(track)
    c = _first_blank(cells, n)
    ts.steps += 2 * (ts.heads[0] + c) + 1
    ts.heads[0] = c
    return c == n and cells.startswith(track)


# The builders run only inside apply_x1, on the restored input, which its
# membership scan has accepted.

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
    return _to_hash(ts, 1) and _drop_b_after_a_run(ts)


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
    tapeops.shift_suffix_right(ts, 0, ["a", "#"])
    return True


def _b_21a(ts: TapeSet) -> bool:
    return _strip_tail(ts, "b")


def _b_21b(ts: TapeSet) -> bool:
    if not _compute_r(ts):
        return False
    _mark_hash_track(ts)
    if _compare_r_m(ts) == "<":
        return False
    _rewind(ts, 1)
    _write_hash_per_b(ts, "a")
    return True


def _b_21c12(ts: TapeSet) -> bool:
    _to_blank(ts)
    ts.move_left(0)
    if ts.scan_left(0, ("b", BEGIN)) == BEGIN:  # rightmost b of the input
        return False
    ts.move_right(0)
    tapeops.shift_suffix_left(ts, 0, 1)
    return True


def _b_21c3(ts: TapeSet) -> bool:
    _compute_r(ts)
    _rewind(ts, 1)
    if not _walk_to_hash(ts, BLANK):  # the (R+1)-th separator
        return False
    tapeops.shift_suffix_right(ts, 0, ["a", "#"])
    return True


def _b_222a(ts: TapeSet) -> bool:
    # Undoes 2.2.2a/b/c: their preimage has j_t < R <= j_(t+1) (the test
    # oracle r_by_definition in tests/test_thompson_f.py), and the edit adds a
    # b to block R alone (s_R + 1 if R = j_(t+1), else a new j = R), so R on
    # the product stops at step t with the same value: drop that b.
    _compute_r(ts)
    _rewind(ts, 1)
    return _walk_to_last_b(ts) and _drop_b_after_a_run(ts)  # the R-th separator


_X1_BUILDERS = (_b_11, _b_12, _b_13a, _b_13b, _b_13c, _b_21a, _b_21b, _b_21c12,
                _b_21c3, _b_222a)


def apply_x1(ts: TapeSet, gen: str) -> Optional[Tuple[str, ...]]:
    """Right multiplication by x1 as one run of the 2-tape machine: try each
    case's inverse edit and accept the candidate whose forward edit
    reproduces the input.

    The machine first scans tape 1 for membership and halts, returning None,
    on anything but a normal form.  Then, for each builder, it restores the
    input from tape 1's input track (_restore) and runs the builder.  On a
    candidate, it erases tape 2, rewinds and runs x1^-1 in place: that run's
    own membership scan rejects a candidate that is not a normal form, and
    a counted sweep compares its product with the input track.  On a match
    the machine restores the input and runs the accepting builder again,
    leaving the product on tape 1.  Returns the case labels of the candidate
    round trips in order, the accepting one last.

    The edit of each x1^-1 label is undone by one builder: 1.1 by _b_11, 1.2
    by _b_12, 1.3a by _b_13a, 1.3b by _b_13b, 1.3c by _b_13c, 2.1a by _b_21a,
    2.1b by _b_21b, 2.1c1 and 2.1c2 by _b_21c12, 2.1c3 and 2.2.1 by _b_21c3,
    and 2.2.2a, 2.2.2b and 2.2.2c by _b_222a.  So some builder accepts every
    normal form, and the NoCaseMatched raise is a guard that none reaches.
    x1^-1 is injective, so any candidate that round-trips is the preimage,
    and an earlier builder may accept it first.
    """
    track = bytes(ts.cells[0])
    if not _scan_valid(ts):
        return None
    cases = ()
    for builder in _X1_BUILDERS:
        _restore(ts, track)
        if not builder(ts):
            continue
        _erase_counter(ts)
        _rewind(ts, 0)
        label = _program_x1_inv(ts, "x1-")
        if label is None:  # the candidate is not a normal form
            continue
        cases += label
        if _compare_input(ts, track):
            _restore(ts, track)
            builder(ts)
            return cases
    raise NoCaseMatched(f"no multiplication case accepted {track[1:].decode()!r}")


# ---------------------------------------------------------------------------
# public entry points

def compute_r(text: str) -> RResult:
    """Run the counter subroutine and read R off the second tape."""
    ts = init_tapes(text)
    case_flag = _compute_r(ts)
    return RResult(ts.cells[1].count(_B), case_flag)


# input_codes, the codes function, refuses a symbol with no tape code and the
# tape markers; past that, each generator is one run of the 2-tape machine,
# whose counted membership scan is the only check of the language.  Its
# output codes are ASCII.
MACHINE = Machine(GROUP, input_codes, codes_of(F_SIGMA), bytes.decode,
                  {"x0": _program_x0, "x0-": _program_x0, "x1": apply_x1, "x1-": _program_x1_inv})


def apply_gen_report(text: str, gen: str) -> Tuple[str, StepReport]:
    return MACHINE.apply(text, gen)
