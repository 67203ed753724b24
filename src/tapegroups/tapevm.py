"""Instrumented multi-tape tape abstraction with exact step accounting.

A TapeSet is k semi-infinite tapes.  Cell 0 of every tape holds the immovable
start marker; unwritten cells read as blank.  Every primitive action (read one
symbol, write one symbol, move one cell) costs exactly one step on the global
counter.  Generator programs touch tapes only through these primitives, so the
step counter is the cost model the linearity benchmarks certify.

Finite control state of a program (region variables, ERASE flags, ...) lives in
host variables and costs nothing, matching the state set of a real machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .errors import InvalidInput, OutputFault, TapeFault
from .tokens import BEGIN, BLANK

TraceFn = Callable[[str], None]


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

    __slots__ = ("tapes", "steps", "sigma", "_trace")

    def __init__(self, k: int, sigma: Optional[Iterable[str]] = None,
                 trace: Optional[TraceFn] = None) -> None:
        if k < 1:
            raise InvalidInput("need at least one tape")
        self.tapes = [Tape() for _ in range(k)]
        self.steps = 0
        self.sigma = frozenset(sigma) if sigma is not None else None
        self._trace = trace

    # -- primitive actions: each costs exactly one step --------------------

    def read(self, t: int) -> str:
        tape = self.tapes[t]
        self.steps += 1
        h = tape.head
        sym = tape.cells[h] if h < len(tape.cells) else BLANK
        if self._trace is not None:
            self._trace(f"{self.steps},{t},read,{sym},{h}")
        return sym

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
        if self._trace is not None:
            self._trace(f"{self.steps},{t},write,{sym},{h}")

    def move_left(self, t: int) -> None:
        tape = self.tapes[t]
        if tape.head == 0:
            raise TapeFault("attempt to move left of the start marker")
        self.steps += 1
        tape.head -= 1
        if self._trace is not None:
            self._trace(f"{self.steps},{t},move_left,,{tape.head}")

    def move_right(self, t: int) -> None:
        tape = self.tapes[t]
        self.steps += 1
        tape.head += 1
        if self._trace is not None:
            self._trace(f"{self.steps},{t},move_right,,{tape.head}")

    # -- dispatch form of the same primitives --------------------------------

    def prim(self, t: int, action: str, sym: Optional[str] = None) -> Optional[str]:
        """Apply one primitive action; returns the symbol for reads.

        action is one of 'read', 'write' (with sym), 'move_left', 'move_right'.
        """
        if action == "read":
            return self.read(t)
        if action == "write":
            if sym is None:
                raise InvalidInput("write needs a symbol")
            self.write(t, sym)
            return None
        if action == "move_left":
            self.move_left(t)
            return None
        if action == "move_right":
            self.move_right(t)
            return None
        raise InvalidInput(f"unknown primitive {action!r}")


def init_tapes(input_tokens: Sequence[str], k: int,
               sigma: Optional[Iterable[str]] = None,
               trace: Optional[TraceFn] = None) -> TapeSet:
    """Fresh TapeSet with tape 0 holding the input and heads on the start marker.

    Loading the input is free: step accounting starts at 0, matching a machine
    whose input is part of the initial configuration.
    """
    if BEGIN in input_tokens or BLANK in input_tokens:
        raise InvalidInput("input may not contain tape markers")
    ts = TapeSet(k, sigma=sigma, trace=trace)
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
