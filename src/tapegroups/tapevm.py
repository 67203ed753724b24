"""Instrumented multi-tape tape abstraction with exact step accounting.

A TapeSet is k semi-infinite tapes.  Cell 0 of every tape holds the immovable
start marker; unwritten cells read as blank.  Every primitive action (read one
symbol, write one symbol, move one cell) costs exactly one step on the global
counter.  Generator programs touch tapes only through these primitives and
through counted sweeps, so the step counter is the cost model the linearity
benchmarks certify.

A tape is a `bytearray` of byte codes, not the tokens themselves
(`tokens.CODE`); `read` and `write` still take symbols.  `init_tapes` and
`read_output` are the only ways in and out.

A sweep is one machine state looping over a run of cells.  `scan_right` and
`scan_left` are defined as the loop `while read(t) not in stop: move(t)`:
they charge exactly that loop's steps (2d+1 for d moves), fault exactly where
it would, and leave the head where it would stop, but find the stop cell with
a byte search in C instead of one method call per step.  Rightward: `find`
for one symbol, two `find`s for one symbol and the blank, else a compiled
byte class; a sweep that stops d cells away searches O(d) cells, and one
for a symbol and the blank that stops on a blank searches on to that
symbol, or to the last written cell.  Leftward: `rfind` for one symbol,
else the nearest of one `rfind` per symbol, which may search every cell
left of the head h, O(h) in C; the programs' one such stop set is x1's
("b", BEGIN), and BEGIN is on cell 0 alone.

The other counted sweeps live with the programs that run them, each charged
at its defining loop's closed form: `tapeops`' suffix shifts, F's
`_scan_valid` (its stop cell found in one pass: on a tape of few blocks by
a match of the longest prefix with no rejected cell, else bit-parallel,
with byte masks as big integers) and counter walks (`_compute_r`'s push/pop
walk, clear and copy back, `_mark_hash_track`, `_compare_r_m`, the walks to
a separator `_walk_to_hash`, `_walk_to_rth_hash` and `_walk_to_last_b`,
`_write_hash_per_b`, `_strip_tail`'s # run, the block flags `_x0_flags`,
`_x1_inv_flags` and `_case1_flags`, and x1's sweeps over tape 1's input
track, `_restore_input` and `_compare_input`, with `_erase_counter`;
`_compare_r_m` and `_write_hash_per_b` find the end of their run with a
`translate` and a `find`), Z2 wr Z^2's region scan
(`_scan_to_mark`, two tapes, the turn count in unary on tape 2) and mark
move (`_move_mark`, four tape-2 sweeps pacing a tape-1 run that pads or
erases), and Z2 wr F2's bracket-stack walk (`_walk`, tape 2 a stack of the
open groups it has entered: its stop cell found by a byte-class search,
backward over windows of doubling width, so that a walk that stops d cells
away reads O(d) cells; the crossed brackets, which one `translate` picks
out, settle tape 2 in a kind check and a depth profile eight brackets per
step when the run is long, else in a Python loop over them).
tests/test_sweeps.py keeps every defining loop as a reference oracle.

Finite control state of a program (region variables, ERASE flags, ...) lives in
host variables and costs nothing, matching the state set of a real machine.

Each group declares one `Machine`: a text-to-codes function, the output
alphabet, a renderer and one program per generator.  `Machine.apply` is the
one driver of right multiplication by a generator.  It calls a program as
program(ts, gen) on the fresh 2-tape `TapeSet`, which returns the case labels
of the branches it took, a tuple, or None when it rejects its input.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Callable, Collection, Dict, Iterable, Optional, Sequence, Tuple, Union

from .errors import BadWord, InvalidInput, NotInLanguage, OutputFault, TapeFault
from .tokens import BEGIN, BLANK, CODE, SYMBOL, codes_of, decode, encode

_START = bytes((CODE[BEGIN],))  # a fresh tape's cells


@functools.cache
def _search(stop: Collection[str]):
    """How to find a stop set's cells, as (code, with_blank, search): for one
    symbol its code, which `find` and `rfind` take; for one symbol and the
    blank that symbol's code and with_blank, so that a rightward sweep finds
    the symbol, then a blank before it; else one compiled byte-class search."""
    codes = codes_of(stop)
    rest = codes.replace(bytes((CODE[BLANK],)), b"")
    if len(codes) == 1 or len(rest) == 1 and BLANK in stop:
        return rest[0] if rest else codes[0], len(codes) > 1, None
    return None, False, re.compile(b"[%s]" % re.escape(codes) if codes else b"(?!)").search


class Tape:
    """One semi-infinite tape: growable byte-coded cells plus a head index."""

    __slots__ = ("cells", "head")

    def __init__(self) -> None:
        self.cells = bytearray(_START)
        self.head = 0

    def symbols(self) -> list[str]:
        """The cells decoded, one symbol per cell."""
        return decode(self.cells)


@dataclass(frozen=True)
class StepReport:
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
        # the codes of the output alphabet
        self.sigma = codes_of(tuple(sigma)) if sigma is not None else None

    # -- primitive actions: each costs exactly one step --------------------

    def read(self, t: int) -> str:
        tape = self.tapes[t]
        self.steps += 1
        try:
            return SYMBOL[tape.cells[tape.head]]
        except IndexError:  # past the last written cell; a head is never negative
            return BLANK

    def write(self, t: int, sym: str) -> None:
        tape = self.tapes[t]
        h = tape.head
        if h == 0:
            raise TapeFault("attempt to overwrite the start marker")
        try:
            code = CODE[sym]
        except KeyError:
            raise InvalidInput(f"symbol {sym!r} has no tape code") from None
        self.steps += 1
        cells = tape.cells
        if h < len(cells):
            cells[h] = code
        else:
            cells.extend(bytes(h - len(cells)))
            cells.append(code)

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
        h = tape.head
        n = len(cells)
        code, with_blank, search = _search(stop)
        if search is None:
            pos = cells.find(code, h)
            if with_blank:  # a blank before the symbol stops the sweep there
                blank = cells.find(CODE[BLANK], h, n if pos < 0 else pos)
                pos = pos if blank < 0 else blank
        else:
            m = search(cells, h)
            pos = m.start() if m else -1
        if pos < 0:
            if BLANK not in stop:
                raise TapeFault("rightward scan never reaches a stop symbol")
            pos = max(h, n)
        self.steps += 2 * (pos - h) + 1
        tape.head = pos
        return SYMBOL[cells[pos]] if pos < n else BLANK

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
        code, with_blank, _ = _search(stop)
        if code is not None and not with_blank:  # rfind of one code runs leftward from hi
            pos = cells.rfind(code, 0, hi)
        else:  # the nearest of each code's last cell at or left of the head
            pos = max([cells.rfind(c, 0, hi) for c in codes_of(stop)], default=-1)
        if pos < 0:
            self.steps += 2 * h + 1
            tape.head = 0
            raise TapeFault("attempt to move left of the start marker")
        self.steps += 2 * (h - pos) + 1
        tape.head = pos
        return SYMBOL[cells[pos]]


def init_tapes(input_tokens: Union[bytes, Sequence[str]], k: int,
               sigma: Optional[Iterable[str]] = None) -> TapeSet:
    """Fresh TapeSet with tape 0 holding the input and heads on the start marker.

    The input is tape codes (`tokens.codes_z2f2`, ...), loaded unchanged, or
    a str or sequence of tokens; a symbol with no code or a tape marker raises
    InvalidInput.  Loading the input is free: step accounting starts at 0,
    matching a machine whose input is part of the initial configuration.
    """
    cells = input_tokens if isinstance(input_tokens, bytes) else encode(input_tokens)
    if CODE[BEGIN] in cells or CODE[BLANK] in cells:
        raise InvalidInput("input may not contain tape markers")
    ts = TapeSet(k, sigma=sigma)
    ts.tapes[0].cells += cells
    return ts


def read_output(ts: TapeSet) -> bytes:
    """Output of a halted program: the codes of the tape-1 prefix between the
    marker and the first blank.

    Content beyond the first blank is ignored.  Reading the output is free
    (it happens after the machine halts).  With an alphabet declared, a
    symbol outside it raises OutputFault naming the first such symbol.
    """
    cells = ts.tapes[0].cells
    end = cells.find(CODE[BLANK], 1)
    out = bytes(cells[1:end if end >= 0 else len(cells)])
    if ts.sigma is not None:
        bad = out.translate(None, ts.sigma)
        if bad:
            raise OutputFault(f"symbol {SYMBOL[bad[0]]!r} outside the declared alphabet")
    return out


@dataclass(frozen=True, slots=True)
class Machine:
    """A group's 2-tape machine (see the module docstring)."""

    group: str
    codes: Callable[[str], bytes]  # raises NotInLanguage or InvalidInput off the language
    sigma: Tuple[str, ...]
    render: Callable[[bytes], str]
    programs: Dict[str, Callable[[TapeSet, str], Optional[Tuple[str, ...]]]]

    def apply(self, text: str, gen: str) -> Tuple[str, StepReport]:
        """The product of the normal form text and gen, and the run's report.
        An unknown generator raises BadWord before the text is read; a text
        that the codes or the program reject raises NotInLanguage."""
        try:
            program = self.programs[gen]
        except (KeyError, TypeError):  # TypeError: a generator with no hash
            raise BadWord(f"unknown generator {gen!r} for {self.group}") from None
        try:
            codes = self.codes(text)
            ts = init_tapes(codes, 2, sigma=self.sigma)
        except InvalidInput:  # a symbol with no tape code, or a tape marker
            cases = None
        else:
            cases = program(ts, gen)
        if cases is None:
            raise NotInLanguage(f"{text!r} is not a normal form")
        return (self.render(read_output(ts)),
                StepReport(len(codes), ts.steps, gen, self.group, cases))
