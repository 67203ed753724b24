"""Instrumented multi-tape tape abstraction with exact step accounting.

A TapeSet is k semi-infinite tapes.  Cell 0 of every tape holds the immovable
start marker; unwritten cells read as blank.  Every primitive action (read one
symbol, write one symbol, move one cell) costs exactly one step on the global
counter.  Generator programs touch tapes only through these primitives and
through counted sweeps, so the step counter is the cost model the linearity
benchmarks certify.

A sweep is one machine state looping over a run of cells.  `scan_right` and
`scan_left` are defined as the loop `while read(t) not in stop: move(t)`:
they charge exactly that loop's steps (2d+1 for d moves), fault exactly where
it would, and leave the head where it would stop, but find the stop cell with
a list search in C instead of one method call per step.

Finite control state of a program (region variables, ERASE flags, ...) lives in
host variables and costs nothing, matching the state set of a real machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Optional, Sequence

from .errors import InvalidInput, OutputFault, TapeFault
from .tokens import BEGIN, BLANK

# First window of a sweep's search; each further window doubles, so a sweep
# that stops d cells away searches O(d) cells whatever the stop set.
_WINDOW = 64


def _first_in(cells: list, lo: int, hi: int, stop: Collection[str]) -> int:
    """Smallest i in [lo, hi) with cells[i] in stop, or hi if there is none."""
    for sym in stop:
        try:
            hi = cells.index(sym, lo, hi)
        except ValueError:
            pass
    return hi


class Tape:
    """One semi-infinite tape: growable cell list plus a head index."""

    __slots__ = ("cells", "head")

    def __init__(self) -> None:
        self.cells: list[str] = [BEGIN]
        self.head = 0

    def snapshot(self) -> list[str]:
        return list(self.cells)


@dataclass(frozen=True)
class StepReport:
    """Evidence record for one generator-program run."""

    input_len: int
    steps: int
    gen: str
    group: str


class TapeSet:
    """k instrumented tapes sharing one step counter.

    Single-threaded mutable value: may be handed between threads, never shared
    concurrently.
    """

    __slots__ = ("tapes", "steps", "sigma")

    def __init__(self, k: int, sigma: Optional[Iterable[str]] = None) -> None:
        if k < 1:
            raise InvalidInput("need at least one tape")
        self.tapes = [Tape() for _ in range(k)]
        self.steps = 0
        self.sigma = frozenset(sigma) if sigma is not None else None

    # -- primitive actions: each costs exactly one step --------------------

    def read(self, t: int) -> str:
        tape = self.tapes[t]
        self.steps += 1
        h = tape.head
        return tape.cells[h] if h < len(tape.cells) else BLANK

    def write(self, t: int, sym: str) -> None:
        tape = self.tapes[t]
        h = tape.head
        if h == 0:
            raise TapeFault("attempt to overwrite the start marker")
        self.steps += 1
        cells = tape.cells
        if h >= len(cells):
            cells.extend([BLANK] * (h + 1 - len(cells)))
        cells[h] = sym

    def move_left(self, t: int) -> None:
        tape = self.tapes[t]
        if tape.head == 0:
            raise TapeFault("attempt to move left of the start marker")
        self.steps += 1
        tape.head -= 1

    def move_right(self, t: int) -> None:
        tape = self.tapes[t]
        self.steps += 1
        tape.head += 1

    # -- counted sweeps: each costs exactly the steps of its defining loop ----

    def scan_right(self, t: int, stop: Collection[str]) -> str:
        """`while read(t) not in stop: move_right(t)`; returns the stop symbol.

        Charges 2d+1 steps for d moves.  A loop that would never halt (no stop
        symbol ahead and BLANK not in stop) raises TapeFault before any step.
        """
        tape = self.tapes[t]
        cells = tape.cells
        h = pos = tape.head
        n = len(cells)
        width = _WINDOW
        while pos < n:
            hi = min(n, pos + width)
            pos = _first_in(cells, pos, hi, stop)
            if pos < hi:
                break
            width *= 2
        else:
            if BLANK not in stop:
                raise TapeFault("rightward scan never reaches a stop symbol")
            pos = max(h, n)
        self.steps += 2 * (pos - h) + 1
        tape.head = pos
        return cells[pos] if pos < n else BLANK

    def scan_left(self, t: int, stop: Collection[str]) -> str:
        """`while read(t) not in stop: move_left(t)`; returns the stop symbol.

        Charges 2d+1 steps for d moves.  If no stop symbol lies at or left of
        the head, the loop reads the start marker and faults moving off it:
        the 2h+1 steps before that are charged and TapeFault is raised.
        """
        tape = self.tapes[t]
        cells = tape.cells
        h = tape.head
        n = len(cells)
        if h >= n and BLANK in stop:
            self.steps += 1
            return BLANK
        hi = min(h + 1, n)  # cells at and beyond n read as blank
        width = _WINDOW
        while hi > 0:
            lo = max(0, hi - width)
            seg = cells[lo:hi]
            seg.reverse()
            j = _first_in(seg, 0, len(seg), stop)
            if j < len(seg):
                pos = hi - 1 - j
                self.steps += 2 * (h - pos) + 1
                tape.head = pos
                return cells[pos]
            hi = lo
            width *= 2
        self.steps += 2 * h + 1
        tape.head = 0
        raise TapeFault("attempt to move left of the start marker")


def init_tapes(input_tokens: Sequence[str], k: int,
               sigma: Optional[Iterable[str]] = None) -> TapeSet:
    """Fresh TapeSet with tape 0 holding the input and heads on the start marker.

    Loading the input is free: step accounting starts at 0, matching a machine
    whose input is part of the initial configuration.
    """
    if BEGIN in input_tokens or BLANK in input_tokens:
        raise InvalidInput("input may not contain tape markers")
    ts = TapeSet(k, sigma=sigma)
    ts.tapes[0].cells = [BEGIN, *input_tokens]
    return ts


def read_output(ts: TapeSet) -> list[str]:
    """Output of a halted program: tape-1 prefix between the marker and the first blank.

    Content beyond the first blank is ignored.  Reading the output is free
    (it happens after the machine halts).
    """
    cells = ts.tapes[0].cells
    try:
        out = cells[1:cells.index(BLANK, 1)]
    except ValueError:
        out = cells[1:]
    if ts.sigma is not None and not ts.sigma.issuperset(out):
        bad = next(sym for sym in out if sym not in ts.sigma)
        raise OutputFault(f"symbol {bad!r} outside the declared alphabet")
    return out
