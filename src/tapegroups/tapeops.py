"""Counted suffix shifts.

Each shift is defined by a loop over TapeSet primitives, given in its
docstring: a single pass with a k-cell host buffer (finite state, k <= 3 in
all callers).  The host builds the loop's end state with one slice assignment
and charges the loop's closed-form step count, so the cost is exactly that of
running the loop; only the host time differs.  Cells are byte codes, so the
end state is found with `find` of the blank code and moved as one slice.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InvalidInput, TapeFault
from .tapevm import TapeSet
from .tokens import encode


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
    cells, h = ts.cells[t], ts.heads[t]
    if h == 0:
        ts.steps += 1  # the read before the write
        raise TapeFault("attempt to overwrite the start marker")
    seq = encode(insert) + cells[h:]
    # k blank codes; the padding stands for the blanks past the end of the tape
    blanks = bytes(k)
    m = (seq + blanks).find(blanks, 1)
    if h > len(cells):
        cells.extend(bytes(h - len(cells)))
    cells[h:h + m] = seq[:m]
    ts.steps += 3 * m - 1
    ts.heads[t] = h + m - 1


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
    cells, h = ts.cells[t], ts.heads[t]
    if h <= k:  # the first iteration reaches the start marker
        ts.steps += 1 + h
        ts.heads[t] = 0
        if h < k:
            raise TapeFault("attempt to move left of the start marker")
        raise TapeFault("attempt to overwrite the start marker")
    n = len(cells)
    pos = cells.find(0, h)  # the first blank
    if pos < 0:
        pos = max(h, n)
    J = pos - h + 1
    vals = cells[h:pos + 1]
    vals += bytes(J - len(vals))
    end = pos - k + 1
    if end > n:
        cells.extend(bytes(end - n))
    cells[h - k:end] = vals
    ts.steps += (J - 1) * (2 * k + 3) + k + 2
    ts.heads[t] = pos - k
