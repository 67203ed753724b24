"""Counted suffix shifts.

Each shift is defined by a loop over TapeSet primitives, given in its
docstring: a single pass with a k-cell host buffer (finite state, k <= 3 in
all callers).  The host builds the loop's end state with one slice assignment
and charges the loop's closed-form step count, so the cost is exactly that of
running the loop; only the host time differs.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InvalidInput, TapeFault
from .tapevm import TapeSet
from .tokens import BLANK


def shift_suffix_right(ts: TapeSet, t: int, insert: Sequence[str]) -> None:
    """Insert len(insert) cells at the head position, shifting the suffix right.

    The head must sit on the first cell of the suffix (may be blank); it ends
    on the last cell written.  The defining loop, with buf = deque(insert):

        while True:
            old = read(t); write(t, buf.popleft()); buf.append(old)
            if old == BLANK and all(b == BLANK for b in buf): return
            move_right(t)

    J iterations cost 3J-1 steps.  The loop stops once the buffer holds k
    blanks, so J is the first m >= 1 with cells m .. m+k-1 of insert+suffix
    all blank.
    """
    k = len(insert)
    if k == 0:
        raise InvalidInput("shift_suffix_right needs at least one cell to insert")
    tape = ts.tapes[t]
    cells = tape.cells
    h = tape.head
    if h == 0:
        ts.steps += 1  # the read before the write
        raise TapeFault("attempt to overwrite the start marker")
    seq = [*insert, *cells[h:]]
    m = 1
    while True:
        try:
            m = seq.index(BLANK, m)
        except ValueError:
            m = len(seq)  # the blanks past the end of the tape
            break
        run = seq[m:m + k]
        if run.count(BLANK) == len(run):
            break
        m += 1
    if h > len(cells):
        cells.extend([BLANK] * (h - len(cells)))
    cells[h:h + m] = seq[:m]
    ts.steps += 3 * m - 1
    tape.head = h + m - 1


def shift_suffix_left(ts: TapeSet, t: int, k: int) -> None:
    """Delete the k cells before the head, shifting the suffix at the head left by k.

    The head must sit on the first cell of the suffix; cells head-k .. head-1
    are overwritten.  Ends with the head on the copied terminator blank.  The
    defining loop:

        while True:
            sym = read(t); k times move_left(t); write(t, sym)
            if sym == BLANK: return
            k + 1 times move_right(t)

    J iterations, the last one copying the first blank at or after the head,
    cost (J-1)(2k+3) + k+2 steps.
    """
    tape = ts.tapes[t]
    cells = tape.cells
    h = tape.head
    if h <= k:  # the first iteration reaches the start marker
        ts.steps += 1 + h
        tape.head = 0
        if h < k:
            raise TapeFault("attempt to move left of the start marker")
        raise TapeFault("attempt to overwrite the start marker")
    n = len(cells)
    try:
        pos = cells.index(BLANK, h)
    except ValueError:
        pos = max(h, n)
    J = pos - h + 1
    vals = cells[h:pos + 1]
    vals += [BLANK] * (J - len(vals))
    end = pos - k + 1
    if end > n:
        cells.extend([BLANK] * (end - n))
    cells[h - k:end] = vals
    ts.steps += (J - 1) * (2 * k + 3) + k + 2
    tape.head = pos - k
