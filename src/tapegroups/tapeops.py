"""Reusable counted tape subroutines.

Every helper is a plain loop over TapeSet primitives, so step accounting is
identical to writing the primitive calls inline.  Suffix shifts carry a k-cell
host buffer (finite state, k <= 3 in all callers): cost is 3 primitives per
visited cell, one pass.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from .tapevm import TapeSet
from .tokens import BLANK


def shift_suffix_right(ts: TapeSet, t: int, insert: Sequence[str]) -> None:
    """Insert len(insert) cells at the head position, shifting the suffix right.

    The head must sit on the first cell of the suffix (may be blank).  Single
    rightward pass with a len(insert)-cell buffer; ends past the moved content.
    """
    buf = deque(insert)
    k = len(buf)
    while True:
        old = ts.read(t)
        ts.write(t, buf.popleft())
        buf.append(old)
        if old == BLANK and all(b == BLANK for b in buf):
            return
        ts.move_right(t)
        if k == 0:  # pragma: no cover - degenerate
            return


def shift_suffix_left(ts: TapeSet, t: int, k: int) -> None:
    """Delete the k cells before the head, shifting the suffix at the head left by k.

    The head must sit on the first cell of the suffix; cells head-k .. head-1
    are overwritten.  Ends with the head on the copied terminator blank.
    """
    while True:
        sym = ts.read(t)
        for _ in range(k):
            ts.move_left(t)
        ts.write(t, sym)
        if sym == BLANK:
            return
        for _ in range(k + 1):
            ts.move_right(t)
