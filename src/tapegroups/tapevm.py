"""The paper's two-tape machine, with exact step accounting.

A TapeSet is two semi-infinite tapes: tape 1 (index 0) holds the input and,
when the program halts, the output; tape 2 (index 1) is the work tape.  Cell
0 of each tape holds the immovable start marker; unwritten cells read as
blank.  Every primitive action (read one symbol, write one symbol, move one
cell) costs exactly one step on the global counter.  Generator programs
touch tapes only through these primitives and through counted sweeps, so the
step counter is the cost model the linearity benchmarks certify.

It holds the machine's configuration and nothing more: the two tapes'
cells, each a `bytearray` of byte codes, not the tokens themselves
(`tokens.CODE`), their two heads and the step counter; `read` and `write`
still take symbols.  `Machine.apply` loads the codes its codes function
checked; `init_tapes` is that check and the load for direct callers.
`read_output` is the one way out.

A sweep is one machine state looping over a run of cells.  `scan_right` and
`scan_left` are defined as the loop `while read(t) not in stop: move(t)`:
they charge exactly that loop's steps (2d+1 for d moves), fault exactly where
it would, and leave the head where it would stop, but find the stop cell with
a byte search in C instead of one method call per step.  One rule finds the
stop cell in each direction.  Rightward, `first_stop`, which `scan_right`,
F's block flags and Z2 wr F2's forward walk share, runs the set's compiled
byte-class search over the first `STOP_WINDOW` cells from the head, so one C
call serves a short tape or a near stop.  Past that window a set of at most
three codes takes the nearest of one `find` per code, each bounded by the
nearest cell found so far, and a larger set (F's `_NOT_A`, Z2 wr F2's
`_TOGGLE_STOP` and walk sets) `translate`s windows of the tape, each 8 times
as wide as the last, to a 0/1 stop table and `find`s the first stop there.
A blank in the set also stops on the first cell past the last written one.
So a sweep that stops d cells away costs O(d) host time in C at any
distance; a `find` may read past the stop cell up to a later stop code or
the last written cell, and a `translate` window up to about 8d cells.
Leftward, the nearest of one `rfind` per stop code, each bounded by the
nearest cell found so far, may search every cell left of the head h, O(h)
in C; the programs' one leftward set of two codes is x1's ("b", BEGIN), and
BEGIN is on cell 0 alone.

The other counted sweeps live with the programs that run them, each charged
at its defining loop's closed form and documented where it is defined.
`COUNTED_SWEEPS` in tests/test_sweeps.py lists every one of them with its
defining loop, which it keeps as a reference oracle.

Finite control state of a program (region variables, ERASE flags, ...) lives in
host variables and costs nothing, matching the state set of a real machine.

Each group declares one `Machine`: a codes function, the output alphabet, a
renderer and one program per generator.  `Machine.apply` is the one driver
of right multiplication by a generator.  It takes a normal form as text or as
tape codes (bytes) and gives the product in the same form.  Text goes
through the codes function, which checks it, and the output codes through
the renderer; codes go through the codes function's check of codes, and the
output codes come back as they are, so a word folds in codes and renders
once.  It calls a program as program(ts, gen) on the fresh `TapeSet`, which
returns the case labels of the branches it took, a tuple, or None when it
rejects its input, and reads the output against the machine's alphabet,
which it holds as tape codes.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Callable, Collection, Dict, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import BadWord, InvalidInput, NotInLanguage, OutputFault, TapeFault
from .tokens import BEGIN, BLANK, CODE, SYMBOL, codes_of, encode

_START = bytes((CODE[BEGIN],))  # a fresh tape's cells


# The cells from the head that a rightward stop search reads with the set's
# byte-class search before it turns to `find` or `translate`.  In
# `first_stop` on tapes of 256 and 2^14 cells (Python 3.11.7, a shared
# 2-core machine, timeit best of 7) that search costs about 0.36 us and 6 ns
# a cell, and the path past a 16-cell window about 1.05 us more for a set of
# three codes and 0.9 us for twelve, so the two cross at about 64-110 cells.
# At the crossover no stop costs more than twice what the better of the two
# alone would: a stop inside the window at most the path past it, one past
# it at most the window's 0.75 us more.
STOP_WINDOW = 64


@functools.cache
def stop_search(stop: Collection[str]):
    """How to find a stop set's cells, as (window, codes, table): the set's
    compiled byte-class search, which `first_stop` runs over the first
    `STOP_WINDOW` cells and which never matches for an empty set; the set's
    tape codes, which it finds one by one past that window in a set of at
    most three; and, for a larger set, the `translate` table past it, 1 on
    each stop code and 0 elsewhere, else None."""
    codes = codes_of(stop)
    window = re.compile(b"[%s]" % re.escape(codes) if codes else b"(?!)").search
    return window, codes, bytes(c in codes for c in range(256)) if len(codes) > 3 else None


def first_stop(cells: bytearray, p: int, stop: Collection[str]) -> int:
    """The cell where `while read(t) not in stop: move_right(t)` stops from
    cell p: the first cell at or after p that holds a stop code, or, if the
    blank is a stop, the first cell past the last written one; -1 if there
    is none, so that the loop never halts.

    The set's byte-class search reads the first `STOP_WINDOW` cells.  Past
    them a set of at most three codes takes the nearest of one `find` per
    code, each bounded by the nearest cell found so far; a larger set
    `translate`s windows to its 0/1 table, the first 8 times as wide as the
    byte-class window and each next one 8 times as wide as the last, and
    `find`s the first 1.  On a 2^14-cell tape one `translate` of the whole
    rest costs about 7 us at any distance; the windows cost 1.4 us for a
    stop 100 or 300 cells away and 8 us for one 16 000 away."""
    window, codes, table = stop_search(stop)
    found = window(cells, p, p + STOP_WINDOW)
    if found:
        return found.start()
    end = len(cells)
    pos = max(p, end) if BLANK in stop else -1
    q = p + STOP_WINDOW
    if q < end:
        if table is None:
            for c in codes:
                i = cells.find(c, q, end)
                if i >= 0:
                    pos = end = i
        else:
            width = 8 * STOP_WINDOW
            while q < end:
                i = cells[q:q + width].translate(table).find(1)
                if i >= 0:
                    return q + i
                q += width
                width *= 8
    return pos


class StepReport(NamedTuple):
    """Evidence record for one generator-program run.

    cases names the case-analysis branches the run took, in order; a program
    without a case analysis reports none.  Thompson's F labels its x1^-1
    branches (thompson_f.CASE_LABELS).
    """

    input_len: int
    steps: int
    gen: str
    group: str
    cases: Tuple[str, ...] = ()


class TapeSet:
    """The machine's configuration: the cells of tape 1 and tape 2, each a
    growable `bytearray` that starts with the start marker, their two head
    indices, and the one step counter.  Tape 1 holds the given codes unchecked
    (`input_codes` checks them), tape 2 is blank, and both heads are on the
    marker.

    Single-threaded mutable value: may be handed between threads, never shared
    concurrently.
    """

    __slots__ = ("cells", "heads", "steps")

    def __init__(self, codes: bytes = b"") -> None:
        self.cells = (bytearray(_START + codes), bytearray(_START))
        self.heads = [0, 0]
        self.steps = 0

    # -- primitive actions: each costs exactly one step --------------------

    def read(self, t: int) -> str:
        cells, h = self.cells[t], self.heads[t]
        self.steps += 1
        try:
            return SYMBOL[cells[h]]
        except IndexError:  # past the last written cell; a head is never negative
            return BLANK

    def write(self, t: int, sym: str) -> None:
        h = self.heads[t]
        if h == 0:
            raise TapeFault("attempt to overwrite the start marker")
        try:
            code = CODE[sym]
        except KeyError:
            raise InvalidInput(f"symbol {sym!r} has no tape code") from None
        self.steps += 1
        cells = self.cells[t]
        if h < len(cells):
            cells[h] = code
        else:
            cells.extend(bytes(h - len(cells)))
            cells.append(code)

    def move_left(self, t: int) -> None:
        if self.heads[t] == 0:
            raise TapeFault("attempt to move left of the start marker")
        self.steps += 1
        self.heads[t] -= 1

    def move_right(self, t: int) -> None:
        self.heads[t] += 1
        self.steps += 1

    # -- counted sweeps: each costs exactly the steps of its defining loop ----

    def scan_right(self, t: int, stop: Collection[str]) -> str:
        """`while read(t) not in stop: move_right(t)`; returns the stop symbol.

        Charges 2d+1 steps for d moves.  A loop that would never halt (no stop
        symbol ahead and BLANK not in stop) raises TapeFault before any step.
        """
        cells, h = self.cells[t], self.heads[t]
        pos = first_stop(cells, h, stop)
        if pos < 0:
            raise TapeFault("rightward scan never reaches a stop symbol")
        self.steps += 2 * (pos - h) + 1
        self.heads[t] = pos
        return SYMBOL[cells[pos]] if pos < len(cells) else BLANK

    def scan_left(self, t: int, stop: Collection[str]) -> str:
        """`while read(t) not in stop: move_left(t)`; returns the stop symbol.

        Charges 2d+1 steps for d moves.  If no stop symbol lies at or left of
        the head, the loop reads the start marker and faults moving off it:
        the 2h+1 steps before that are charged and TapeFault is raised.
        """
        cells, h = self.cells[t], self.heads[t]
        n = len(cells)
        if h >= n and BLANK in stop:
            self.steps += 1
            return BLANK
        hi = min(h + 1, n)  # cells at and beyond n read as blank
        pos = -1  # the nearest of one rfind per code, each bounded by it
        for c in stop_search(stop)[1]:
            i = cells.rfind(c, pos + 1, hi)
            if i >= 0:
                pos = i
        if pos < 0:
            self.steps += 2 * h + 1
            self.heads[t] = 0
            raise TapeFault("attempt to move left of the start marker")
        self.steps += 2 * (h - pos) + 1
        self.heads[t] = pos
        return SYMBOL[cells[pos]]


def input_codes(input_tokens: Union[bytes, Sequence[str]]) -> bytes:
    """The tape codes of an input, checked: tape codes (`tokens.codes_z2f2`,
    ...) pass unchanged, and a str or sequence of tokens is encoded.  A symbol
    with no code or a tape marker raises InvalidInput."""
    cells = encode(input_tokens)
    if CODE[BEGIN] in cells or CODE[BLANK] in cells:
        raise InvalidInput("input may not contain tape markers")
    return cells


def init_tapes(input_tokens: Union[bytes, Sequence[str]]) -> TapeSet:
    """Fresh TapeSet with tape 1 holding the input, checked by `input_codes`,
    and heads on the start marker.

    Loading the input is free: step accounting starts at 0, matching a
    machine whose input is part of the initial configuration.
    """
    return TapeSet(input_codes(input_tokens))


def read_output(ts: TapeSet, sigma: bytes) -> bytes:
    """Output of a halted program: the codes of the tape-1 prefix between the
    marker and the first blank.

    Content beyond the first blank is ignored.  Reading the output is free
    (it happens after the machine halts).  A symbol outside the output
    alphabet sigma, given as tape codes, raises OutputFault naming the first
    such symbol.
    """
    cells = ts.cells[0]
    end = cells.find(CODE[BLANK], 1)
    out = bytes(cells[1:end if end >= 0 else len(cells)])
    bad = out.translate(None, sigma)
    if bad:
        raise OutputFault(f"symbol {SYMBOL[bad[0]]!r} outside the declared alphabet")
    return out


@dataclass(frozen=True, slots=True)
class Machine:
    """A group's 2-tape machine (see the module docstring).  Its codes
    function is a run's one input check: `apply` loads what it returns."""

    group: str
    # text or codes to codes; raises NotInLanguage or InvalidInput off the
    # language, and so on every tape marker
    codes: Callable[[Union[str, bytes]], bytes]
    sigma: bytes  # the output alphabet's tape codes
    render: Callable[[bytes], str]
    programs: Dict[str, Callable[[TapeSet, str], Optional[Tuple[str, ...]]]]

    def apply(self, nf: Union[str, bytes], gen: str) -> Tuple[Union[str, bytes], StepReport]:
        """The product of the normal form nf and gen, and the run's report.
        nf is text or tape codes, and the product comes in the same form:
        codes skip the text-to-codes step and the render.  An unknown
        generator raises BadWord before nf is read; a normal form that the
        codes or the program reject raises NotInLanguage."""
        try:
            program = self.programs[gen]
        except (KeyError, TypeError):  # TypeError: a generator with no hash
            raise BadWord(f"unknown generator {gen!r} for {self.group}") from None
        try:
            codes = self.codes(nf)
        except InvalidInput:  # a symbol with no tape code, or a tape marker
            cases = None
        else:
            ts = TapeSet(codes)
            cases = program(ts, gen)
        if cases is None:
            raise NotInLanguage(f"{nf!r} is not a normal form")
        out = read_output(ts, self.sigma)
        return (out if isinstance(nf, bytes) else self.render(out),
                StepReport(len(codes), ts.steps, gen, self.group, cases))
