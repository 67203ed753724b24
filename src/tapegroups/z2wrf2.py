"""Recursive bracketed normal form and 2-tape generator programs for Z2 wr F2.

Elements of F2 are laid out on alternating horizontal (a) and vertical (b)
lines.  The top level is the horizontal line through the identity; a position
whose perpendicular subtree holds a lamp or the lamplighter becomes a D-symbol
(horizontal lines) or E-symbol (vertical lines) and is expanded, in later
iterations, into a bracketed group: '(' groups enumerate a vertical line
around their pivot, '[' groups a horizontal one.  Superscripts mark the
identity (A/B forms) and the lamplighter (C forms, B forms when both).
The table `_CELL` is that cell grammar: a cell's token is fixed by its line,
whether it holds the lamplighter, whether a perpendicular subtree hangs off
it, and its lamp bit.

The encoder builds the fixpoint of that construction once, as a tree whose
level k holds the symbols nested in k groups.  Counting the top line as
iteration 0, the stream after iteration k is the tree rendered with the
levels below k expanded.  Encoder and decoder walk the nesting with explicit
stacks, so no nesting depth is too deep for them.

The generator programs scan tape 1 to the lamplighter marker with tape 2 as a
bracket stack, then move the marker one position along the generator's axis:
within a line this is a neighbouring item (entering sibling groups at their
pivot), off the marker's axis it sprouts a fresh two-token group, and a move
that empties a group collapses it.  All edits are constant-size suffix shifts.

Every bracket-stack run, the scan to the marker as well as entering and
leaving a group, is one `_walk`.  Each cell it crosses costs a tape-1 move and
a tape-1 read; a push costs a tape-2 move and write; a closing bracket costs a
tape-2 read, plus a write and a move when it pops.  `_walk` is a counted
sweep (see `tapevm`): it charges that split in closed form at its exit.  It
finds its stop cell with a byte-class search in C and reduces the cells it
crosses to their brackets with one `translate`.  A long run, such as the scan
to the marker, settles tape 2 in a few C-level passes over those brackets
(`_settle`): a kind check and a depth profile, eight brackets per step, give
the stack it leaves and its highest depth without a step per bracket.  Any
other run, and one those passes reject, runs Python over its brackets,
pushing and popping on tape 2's cells in place.  A walk that stops d cells
away takes O(d) time, whatever the length of either tape or the depth of
its brackets.
"""

from __future__ import annotations

import functools
import re
from itertools import chain, compress, count, islice
from operator import length_hint
from typing import List, Optional, Tuple, TypeAlias

from . import tapeops
from .errors import NotInLanguage
from .oracle_groups import LampConfigF2
from .tapevm import Machine, StepReport, TapeSet
from .tokens import (BEGIN, BLANK, CODE, SYMBOL, Z2F2_SIGMA, codes_of, codes_z2f2,
                     render_z2f2, tokenize_z2f2)

GROUP = "z2wrf2"
GENERATORS = ("a", "a-", "b", "b-", "c")
IDENTITY_NF = "B0"

D_PLAIN = ("D0", "D1")
D_A = ("D0A", "D1A")
D_B = ("D0B", "D1B")
D_C = ("D0C", "D1C")
E_PLAIN = ("E0", "E1")
E_C = ("E0C", "E1C")
C_LEAF = ("C0", "C1")
B_LEAF = ("B0", "B1")
A_LEAF = ("A0", "A1")

# the tokens that carry the lamplighter marker, those whose lamp is lit, and
# those allowed as leaves inside a group
_MARKED = C_LEAF + B_LEAF + D_C + D_B + E_C
_STOP = frozenset(_MARKED)
_LIT = frozenset(("1", "C1", "A1", "B1", "D1", "D1A", "D1B", "D1C", "E1", "E1C"))
_LEAF = frozenset(("0", "1") + C_LEAF)
_TOGGLE = {m: m.translate(str.maketrans("01", "10")) for m in _MARKED}
_TOGGLE_STOP = (*_TOGGLE, BLANK)
_MARK = {"0": "C0", "1": "C1", "A0": "B0", "A1": "B1",
         "E0": "E0C", "E1": "E1C", "D0": "D0C", "D1": "D1C",
         "D0A": "D0B", "D1A": "D1B"}
_UNMARK = {m: t for t, m in _MARK.items()}
_COLLAPSE = {"E0": "C0", "E1": "C1", "D0": "C0", "D1": "C1",
             "D0A": "B0", "D1A": "B1"}
_OPENS = ("(", "[")
_CLOSES = (")", "]")
_PARTNER = {"(": ")", ")": "(", "[": "]", "]": "["}
# by a group's open bracket, the pivots its items are searched for first; a
# group without one pivots on its one E^C
_PLAIN_PIVOTS = {"(": frozenset(D_PLAIN + D_A + D_B + D_C), "[": frozenset(E_PLAIN)}
# the unmarked pivots of a group, by either of its brackets
_PIVOTS = {"(": D_PLAIN + D_A, ")": D_PLAIN + D_A, "[": E_PLAIN, "]": E_PLAIN}
# per direction: the brackets that open a group ahead, those that close one,
# and the end marker
_WAY = {True: (_OPENS, _CLOSES, BLANK), False: (_CLOSES, _OPENS, BEGIN)}
# per direction, the codes of the cells a walk crosses with every other code
# deleted: a bracket that opens a group ahead keeps its code, one that closes
# a group becomes its partner's code with bit 7 set (every bracket's code is
# below 128), so that a closing bracket pops exactly when the top is its
# code ^ 128
_STACK_CODE = {fwd: bytes(CODE[_PARTNER[s]] | 128 if s in _WAY[fwd][1] else c
                          for c, s in enumerate(SYMBOL)) for fwd in (True, False)}
_NOT_BRACKET = bytes(c for c, s in enumerate(SYMBOL) if s not in _PARTNER)
_IS_BRACKET = bytes(s in _PARTNER for s in SYMBOL)  # 1 on a bracket, else 0
# the cells a backward walk searches first, leftward of its head; each further
# window is twice as wide as the last
_WINDOW = 16
# the fewest brackets whose run a walk with a stop set hands to `_settle`
# before the loop.  On prefixes of a sampled 2^14 form the two cost the same
# near 48 brackets; at 64 `_settle` is faster, below 32 the loop
_SETTLE_FLOOR = 64
# by a run's first bracket code: the codes its even indices may hold, those
# its odd indices may hold, and its push codes X, Y.  An even index holds X
# or the close that pops Y, an odd one Y or the close that pops X, where X
# is the first bracket if it pushes, else the push it does not pop.  Forward
# the pushes are '(' and '[', backward ')' and ']'.
_KIND = {first: (bytes((x, y | 128)), bytes((y, x | 128)), bytes((x, y)))
         for a, b in ((CODE["("], CODE["["]), (CODE[")"], CODE["]"]))
         for x, y in ((a, b), (b, a)) for first in (x, y | 128)}
_PUSH_BIT = bytes(48 + (c < 128) for c in range(256))  # b"1" on a push, b"0" on a close


def _profiles(width: int):
    """(net, rise, need) of each run of `width` brackets, indexed by the run
    as a binary number, a push 1 and its first bracket the most significant
    bit: its net change of depth, its highest depth above its start, and the
    least start depth from which it never drops below 0."""
    if width == 1:
        return ((-1, 0, 1), (1, 1, 0))
    half = _profiles(width // 2)
    return tuple((n1 + n2, max(r1, n1 + r2), max(d1, d2 - n1))
                 for n1, r1, d1 in half for n2, r2, d2 in half)


# the profile of each byte of 8 brackets, in three byte tables, the net
# change offset by 8 to fit a byte; and of one bracket by its bit, b"0" or
# b"1", offset alike
_NET, _RISE, _NEED = map(bytes, zip(*((net + 8, rise, need) for net, rise, need in _profiles(8))))
_BIT_PROFILE = {bit: (net + 8, rise, need) for bit, (net, rise, need) in zip(b"01", _profiles(1))}
_SPROUT_D = {"C0": "D0", "C1": "D1", "B0": "D0A", "B1": "D1A"}
_SPROUT_E = {"C0": "E0", "C1": "E1"}

_INV = {"a": "A", "A": "a", "b": "B", "B": "b"}


# ---------------------------------------------------------------------------
# encoder: the construction tree, built once and cut at each iteration's depth

class _Node:
    """An expandable D/E symbol: its token, the perpendicular suffixes below it
    and, once expanded, the items of its line (its own token is the pivot)."""

    __slots__ = ("token", "axis", "entries", "items")

    def __init__(self, token: str, axis: str, entries):
        self.token = token
        self.axis = axis            # axis of the expansion line ('b' for '(')
        self.entries = entries      # [(suffix, lamp, isz)]
        self.items: List[Item] = []


Item: TypeAlias = "str | _Node"  # a run-time alias would pin this module in typing's cache
_BRACKETS = {"b": ("(", ")"), "a": ("[", "]")}


def _split_run(word: str, axis: str) -> Tuple[int, str]:
    """Leading signed run of the axis letter and the remaining suffix."""
    if not word:
        return 0, ""
    pos_letter = axis
    neg_letter = _INV[axis]
    if word[0] == pos_letter:
        n = len(word) - len(word.lstrip(pos_letter))
        return n, word[n:]
    if word[0] == neg_letter:
        n = len(word) - len(word.lstrip(neg_letter))
        return -n, word[n:]
    return 0, word


# a cell's token by its line, as format strings over the lamp bit: plain,
# with the lamplighter, with a perpendicular subtree, with both
_CELL = {"top": ("{}", "C{}", "D{}", "D{}C"),
         "identity": ("A{}", "B{}", "D{}A", "D{}B"),
         "a": ("{}", "C{}", "D{}", "E{}C"),
         "b": ("{}", "C{}", "E{}", "E{}C")}
_NO_CELL = (False, False, ())


def _scan_line(entries, axis: str, pivot: Optional[str]) -> List[Item]:
    """The items of the line along `axis` holding the suffixes `entries`: the
    top line when `pivot` is None, else the line through a node whose token
    `pivot` takes cell 0.  A cell whose suffixes go on past it becomes a node
    holding them."""
    cells: dict = {}
    for word, lamp, isz in entries:
        j, rest = _split_run(word, axis)
        cell = cells.setdefault(j, [False, False, []])
        if rest:
            cell[2].append((rest, lamp, isz))
        else:
            cell[0] = cell[0] or lamp
            cell[1] = cell[1] or isz
    across = "b" if axis == "a" else "a"
    items: List[Item] = []
    for j in range(min(0, *cells), max(0, *cells) + 1):
        if pivot is not None:
            if j == 0:
                items.append(pivot)
                continue
            row = axis
        else:
            row = "top" if j else "identity"
        lamp, isz, perp = cells.get(j, _NO_CELL)
        tok = _CELL[row][isz + 2 * bool(perp)].format("1" if lamp else "0")
        items.append(_Node(tok, across, perp) if perp else tok)
    return items


def _build(config: LampConfigF2) -> Tuple[List[Item], int]:
    """The fixpoint tree and its number of levels.  Level k holds the nodes
    inside k groups.  The axes alternate with the level, so each iteration of
    the construction expands exactly the next level.  Each node is expanded
    once."""
    entries = [(w, True, w == config.pos) for w in sorted(config.lit)]
    if config.pos not in config.lit:
        entries.append((config.pos, False, True))
    top = _scan_line(entries, "a", None)
    level = [it for it in top if isinstance(it, _Node)]
    levels = 0
    while level:
        levels += 1
        below: List[_Node] = []
        for node in level:
            node.items = _scan_line(node.entries, node.axis, node.token)
            node.entries = None
            below += [it for it in node.items if isinstance(it, _Node)]
        level = below
    return top, levels


def _render(top: List[Item], cut: int) -> str:
    """The tree's token stream with the levels below `cut` expanded; a node on
    level `cut` or deeper prints as its token."""
    out: List[str] = []
    stack = [(iter(top), "")]  # per open line: its remaining items, its close
    while stack:
        items, close = stack[-1]
        for it in items:
            if isinstance(it, str):
                out.append(it)
            elif len(stack) > cut:
                out.append(it.token)
            else:
                opener, closer = _BRACKETS[it.axis]
                out.append(opener)
                stack.append((iter(it.items), closer))
                break
        else:
            stack.pop()
            if close:
                out.append(close)
    return render_z2f2(out)


def encode_iterations(config: LampConfigF2) -> List[str]:
    """Token streams after each construction iteration, up to the fixpoint."""
    top, levels = _build(config)
    return [_render(top, cut) for cut in range(levels + 1)]


def encode(config: LampConfigF2) -> str:
    return _render(*_build(config))


# ---------------------------------------------------------------------------
# decoder / validator

class _Group:
    __slots__ = ("bracket", "items", "pivot")

    def __init__(self, bracket: str, items):
        self.bracket = bracket
        self.items = items
        self.pivot = 0  # the index of its pivot, once _pivot_index found it


def _parse_groups(toks: List[str]):
    stack: List[Tuple[str, list]] = [("", [])]
    for tok in toks:
        if tok in ("(", "["):
            stack.append((tok, []))
        elif tok in (")", "]"):
            if len(stack) == 1:
                raise NotInLanguage("unbalanced closing bracket")
            bracket, items = stack.pop()
            if (tok == ")") != (bracket == "("):
                raise NotInLanguage("mismatched bracket pair")
            stack[-1][1].append(_Group(bracket, items))
        else:
            stack[-1][1].append(tok)
    if len(stack) != 1:
        raise NotInLanguage("unclosed bracket")
    return stack[0][1]


def _pivot_index(group: _Group) -> int:
    """The index of the group's one plain pivot, else of its one E^C pivot."""
    plain = _PLAIN_PIVOTS[group.bracket]
    plain_hits = []
    ec_hits = []
    for i, it in enumerate(group.items):
        if it in plain:
            plain_hits.append(i)
        elif it in E_C:
            ec_hits.append(i)
    if len(plain_hits) == 1:
        return plain_hits[0]
    if plain_hits:
        raise NotInLanguage("group with more than one pivot")
    if len(ec_hits) == 1:
        return ec_hits[0]
    raise NotInLanguage("group without a unique pivot")


def decode(text: str) -> LampConfigF2:
    toks = tokenize_z2f2(text)
    items = _parse_groups(toks)
    if not items:
        raise NotInLanguage("empty string is not a normal form (identity is 'B0')")
    anchor_positions = []
    for i, it in enumerate(items):
        if isinstance(it, _Group):
            if it.bracket != "(":
                raise NotInLanguage("top-level groups must be vertical expansions")
            it.pivot = _pivot_index(it)
            if it.items[it.pivot] in D_A + D_B:
                anchor_positions.append(i)
        elif it in A_LEAF + B_LEAF:
            anchor_positions.append(i)
        elif it in _LEAF:
            pass
        else:
            raise NotInLanguage(f"token {it!r} not allowed at the top level")
    if len(anchor_positions) != 1:
        raise NotInLanguage(f"expected one identity anchor, found {len(anchor_positions)}")
    if items[0] == "0" or items[-1] == "0":
        raise NotInLanguage("untrimmed zero at the end of the top line")
    a0 = anchor_positions[0]
    # Two checks are subsumed here.  The element "" belongs to the anchor
    # item a0 alone: top-level items carry a^k or A^k, and every other item of
    # a group appends a non-empty run of the group's letter (nesting
    # alternates, so no run cancels).  Identity-class tokens (A, B, D^A, D^B)
    # occur only at a0: the anchor is unique, and inside a group such leaves
    # and pivots are rejected below.  So no identity marker sits away from the
    # anchor cell, and a marker at the identity is of class B (B or D^B).
    lamps = set()
    pos: Optional[str] = None
    # depth first in token order: frames of an item, its element and the
    # bracket of the group around it ('' on the top line)
    stack = [(it, "a" * (i - a0) if i >= a0 else "A" * (a0 - i), "")
             for i, it in reversed(list(enumerate(items)))]
    while stack:
        it, base, outer = stack.pop()
        group = isinstance(it, _Group)
        if group:
            if it.bracket == outer:
                raise NotInLanguage("group nesting does not alternate")
            if outer:  # the anchor loop found a top-level group's pivot
                it.pivot = _pivot_index(it)
            piv = it.pivot
            tok = it.items[piv]
            if tok in D_C + D_A + D_B and outer:
                raise NotInLanguage("top-level pivot class below the top level")
            if tok in E_C and not outer:
                raise NotInLanguage("E-class pivot in a top-level group")
            if len(it.items) < 2:
                raise NotInLanguage("expanded group with an empty interior")
        else:
            if outer and it not in _LEAF:
                raise NotInLanguage(f"token {it!r} not allowed inside a group")
            tok = it
        if tok in _LIT:
            lamps.add(base)
        if tok in _STOP:
            if pos is not None:
                raise NotInLanguage("more than one lamplighter marker")
            pos = base
        if not group:
            continue
        if it.items[0] == "0" or it.items[-1] == "0":  # a pivot is never 0
            raise NotInLanguage("untrimmed zero at the far end of a group side")
        letter = "b" if it.bracket == "(" else "a"
        back = _INV[letter]
        for k in range(len(it.items) - 1, -1, -1):
            if k != piv:
                step = (letter * (k - piv)) if k > piv else back * (piv - k)
                stack.append((it.items[k], base + step, it.bracket))
    if pos is None:
        raise NotInLanguage("no lamplighter marker")
    return LampConfigF2(frozenset(lamps), pos)


def validate(text: str) -> bool:
    try:
        decode(text)
    except NotInLanguage:
        return False
    return True


# ---------------------------------------------------------------------------
# tape programs

def _walk(ts: TapeSet, fwd: bool, stop) -> Tuple[str, Optional[str]]:
    """Move the tape-1 head one cell at a time, forward or backward, keeping
    the bracket stack on tape 2: push a bracket that opens a group ahead, pop
    a closing one whose partner is the stack top.  Returns (sym, None) on a
    symbol in stop or on the end marker, and (bracket, top) on a closing
    bracket whose partner is not the stack top; a marked top such as '(*' is
    no bracket's partner.

    A counted sweep: it runs its defining loop

        while True:
            move(0); sym = read(0)
            if sym in push: move_right(1); write(1, sym)
            elif sym in pop:
                top = read(1)
                if top != partner(sym): return sym, top
                write(1, BLANK); move_left(1)
            elif sym in stop or sym == end: return sym, None

    on the tapes' codes and charges its steps at exit.  Both heads start on
    written cells, as every caller's do; a backward walk starts past the start
    marker, on a bracket or a pivot, and stops on the marker at the latest.

    It finds the stop cell, of stop or the end marker, with one compiled
    byte-class search: forward from the next cell, backward over windows of
    doubling width leftward of the head, each matched to its last such cell.
    So a walk that stops d cells away reads O(d) cells.  Brackets are never
    in stop, so only a mismatch stops it sooner.  The cells it crosses are
    `translate`d to their brackets alone (`_STACK_CODE`).  A run of at
    least `_SETTLE_FLOOR` brackets, in a walk with a stop set, is first
    handed to `_settle`, which finds the stack it leaves in C-level passes
    when no close can mismatch; tape 2's cells from the top up to the run's
    highest depth are then written in one slice.  Otherwise Python runs the
    loop over the brackets, on tape 2's cells in place: a push writes the
    cell above the top, appending past the last cell; a pop blanks the top.
    A mismatch's cell is found from its index among the brackets, in C.
    Exit walks (stop empty) end on a mismatch by design, so they always
    run the loop.
    """
    tape, stack = ts.tapes
    cells, stack_cells = tape.cells, stack.cells
    h0, t0 = tape.head, stack.head
    search = _stop_search(stop, fwd)
    if fwd:
        found = search(cells, h0 + 1)
        h = found.start() if found else len(cells)  # else the blank past the end
        crossed = cells[h0 + 1:h]
    else:
        hi, width = h0, _WINDOW
        while not (found := search(cells, max(hi - width, 0), hi)):
            hi -= width
            width += width
        h = found.end() - 1
        crossed = cells[h + 1:h0][::-1]
    brackets = crossed.translate(_STACK_CODE[fwd], _NOT_BRACKET)
    t, m = t0, len(stack_cells)
    top = None
    settled = _settle(brackets) if stop and len(brackets) >= _SETTLE_FLOOR else None
    if settled:
        depth, written = settled
        stack_cells[t0 + 1:t0 + 1 + len(written)] = written
        t += depth
    else:
        run = iter(brackets)
        for code in run:
            if code < 128:  # push
                t += 1
                if t < m:
                    stack_cells[t] = code
                else:
                    stack_cells.append(code)
                    m += 1
            elif stack_cells[t] != code ^ 128:
                top = stack_cells[t]
                break
            else:  # pop: a blank, code 0, on the top
                stack_cells[t] = 0
                t -= 1
    moved = len(brackets)  # pushes and pops
    mismatch = top is not None
    if mismatch:  # the cell of the closing bracket that did not pop
        moved -= length_hint(run) + 1
        cell = count(h0 + 1) if fwd else count(h0 - 1, -1)
        h = next(islice(compress(cell, crossed.translate(_IS_BRACKET)), moved, None))
    pushes = (moved + t - t0) // 2
    pops = moved - pushes
    # 2 per cell crossed, 2 per push, 1 per closing bracket read, 2 per pop
    ts.steps += 2 * abs(h - h0) + 2 * pushes + (pops + mismatch) + 2 * pops
    tape.head = h
    stack.head = t
    return (SYMBOL[cells[h]] if h < len(cells) else BLANK), (SYMBOL[top] if mismatch else None)


def _settle(brackets: bytes) -> Optional[Tuple[int, bytes]]:
    """The stack a run of bracket codes leaves above its start, found in a
    few C-level passes, or None where the loop must run it: an empty run, a
    run that fails the kind check, and one that pops below its start.

    Each bracket moves the depth by one, so a bracket's depth relative to
    the start has its index's parity.  The kind check (`_KIND`) asks that
    every even index hold X or the close that pops Y, and every odd index Y
    or the close that pops X, for the direction's push codes X and Y in the
    order the first bracket fixes.  Then no close above the start meets a
    partner of the wrong kind.  The depth profile reads the run as bits, a
    push 1, folds eight per step with the byte tables and the last 0-7 one
    at a time.  If the depth never drops below 0, the run ends at depth j
    with pushes X, Y, X, ... on cells 1..j above the start, and every cell
    above those up to its highest depth was pushed and popped again.
    Returns j and the codes of cells 1 up to that highest depth: the pushes,
    then blanks."""
    if not brackets:
        return None
    even, odd, pushes = _KIND[brackets[0]]
    if brackets[::2].translate(None, even) or brackets[1::2].translate(None, odd):
        return None
    bits = brackets.translate(_PUSH_BIT)
    n, tail = len(bits), len(bits) & 7
    whole = (int(bits, 2) >> tail).to_bytes(n >> 3, "big")
    depth = high = 0
    for net, rise, need in chain(zip(whole.translate(_NET), whole.translate(_RISE),
                                     whole.translate(_NEED)),
                                 map(_BIT_PROFILE.__getitem__, bits[n - tail:])):
        if depth < need:
            return None  # it pops below its start
        if depth + rise > high:
            high = depth + rise
        depth += net - 8
    return depth, (pushes * (depth // 2 + 1))[:depth] + bytes(high - depth)


@functools.cache
def _stop_search(stop, fwd: bool):
    """How a walk finds the cell it stops on, one of stop or its end marker:
    forward, the first such cell from a position on; backward, the last
    such cell in a window."""
    codes = b"[%s]" % re.escape(codes_of(stop) + bytes((CODE[BLANK if fwd else BEGIN],)))
    return re.compile(codes).search if fwd else re.compile(b"(?s:.*)" + codes).match


def _scan_to_marker(ts: TapeSet):
    """First iteration: right scan to the lamplighter marker, bracket stack on
    tape 2.  Returns (marker, stack top) or (None, None) on invalid input."""
    sym, _ = _walk(ts, True, _STOP)
    if sym in _STOP:
        return sym, ts.read(1)
    return None, None


def _program_toggle(ts: TapeSet, gen: str) -> Tuple[()]:
    ts.move_right(0)
    sym = ts.scan_right(0, _TOGGLE_STOP)
    if sym != BLANK:
        ts.write(0, _TOGGLE[sym])
    return ()


def _mark_pivot(ts: TapeSet, sym: str) -> None:
    """Mark a plain pivot with the lamplighter.  Plain D pivots become D^C/D^B
    on the top line but E^C inside a bracket; the stack cell below the current
    top tells the machine which line it is on."""
    if sym in D_PLAIN:
        if ts.read(1) == BEGIN:  # empty stack: only reachable on invalid input
            below = BEGIN
        else:
            ts.move_left(1)
            below = ts.read(1)
            ts.move_right(1)
        if below == BEGIN:
            ts.write(0, "D0C" if sym == "D0" else "D1C")
        else:
            ts.write(0, "E0C" if sym == "D0" else "E1C")
    else:
        ts.write(0, _MARK[sym])


def _enter(ts: TapeSet, bracket: str, fwd: bool) -> None:
    """Head on the open (forward) or close (backward) bracket of a group: mark
    the group's pivot with the lamplighter."""
    marked = bracket + "*"
    piv = _PIVOTS[bracket]
    ts.move_right(1)
    ts.write(1, marked)
    while True:
        sym, _ = _walk(ts, fwd, piv)
        # our own partner before a pivot, a mismatch or the end: invalid
        # input.  Backward, the mismatch and the BEGIN exit cannot fire: a
        # backward run only crosses brackets _scan_to_marker has matched.
        if sym not in piv:
            return
        if ts.read(1) == marked:  # a pivot deeper down is not ours
            _mark_pivot(ts, sym)
            return


def _exit_group(ts: TapeSet, open_sym: str, fwd: bool) -> bool:
    """Head on a group pivot, stack top our open bracket: move to our close
    (forward) or our open (backward)."""
    marked = open_sym + "*"
    want = _PARTNER[open_sym] if fwd else open_sym
    ts.write(1, marked)
    # backward, a mismatch and the BEGIN exit cannot fire: a backward run only
    # crosses brackets _scan_to_marker has matched
    sym, top = _walk(ts, fwd, ())
    if top != marked or (fwd and sym != want):
        return False  # forward checks the kind before it pops
    ts.write(1, BLANK)
    ts.move_left(1)
    return sym == want


def _insert_here(ts: TapeSet, tok: str) -> None:
    sym = ts.read(0)
    if sym == BLANK:
        ts.write(0, tok)
    else:
        tapeops.shift_suffix_right(ts, 0, [tok])


def _move_and_land(ts: TapeSet, fwd: bool) -> None:
    if fwd:
        ts.move_right(0)
    else:
        ts.move_left(0)
    sym = ts.read(0)
    if sym in _MARK:
        _mark_pivot(ts, sym)
        return
    push, pop, end = _WAY[fwd]
    if sym in push:
        _enter(ts, sym, fwd)
    elif sym in pop or sym == end:
        if not fwd:
            ts.move_right(0)
        _insert_here(ts, "C0")


def _sprout(ts: TapeSet, S: str, gen_axis: str, fwd: bool) -> None:
    if gen_axis == "b":
        sigma = _SPROUT_D[S]
        toks = ["(", sigma, "C0", ")"] if fwd else ["(", "C0", sigma, ")"]
    else:
        sigma = _SPROUT_E[S]
        toks = ["[", sigma, "C0", "]"] if fwd else ["[", "C0", sigma, "]"]
    ts.write(0, toks[0])
    ts.move_right(0)
    tapeops.shift_suffix_right(ts, 0, toks[1:])


def _leaf_inline(ts: TapeSet, S: str, fwd: bool) -> None:
    """Move a leaf marker one item along its own line.  A plain C0 that leaves
    the first (forward) or last (backward) item of its line takes the vacated
    cell with it."""
    if S != "C0":
        ts.write(0, _UNMARK[S])
        _move_and_land(ts, fwd)
        return
    push = _WAY[fwd][0]
    ahead, back = (ts.move_right, ts.move_left) if fwd else (ts.move_left, ts.move_right)
    back(0)
    T = ts.read(0)
    ahead(0)
    if T != BEGIN and T not in push:
        # an inner cell becomes a plain 0; the last cell of the top line, the
        # one backward alone finds a blank behind, is cut off
        ts.write(0, BLANK if T == BLANK else "0")
        _move_and_land(ts, fwd)
        return
    # vacating the first (forward) or last (backward) item of its line
    ahead(0)
    s1 = ts.read(0)
    if s1 == BEGIN:
        return  # malformed: backward, a leaf in cell 1 before a close bracket
    ahead(0)
    s2 = ts.read(0)
    # the two edits below rewrite the leftmost cell they change and delete
    # the cells after it; only the moves that reach that cell differ
    if s2 == _PARTNER.get(T) and s1 in _PIVOTS.get(T, ()):
        # the group held only the lamplighter: it dissolves into a leaf
        if fwd:
            ts.move_left(0)
            ts.move_left(0)
            ts.move_left(0)
        ts.write(0, _COLLAPSE[s1])
        for _ in range(4):
            ts.move_right(0)
        tapeops.shift_suffix_left(ts, 0, 3)
        return
    if s1 in _MARK:
        if fwd:
            ts.move_left(0)
            ts.move_left(0)
        else:
            ts.move_right(0)
        _mark_pivot(ts, s1)
        ts.move_right(0)
        ts.move_right(0)
        tapeops.shift_suffix_left(ts, 0, 1)
        return
    if s1 in push:
        back(0)
        _enter(ts, s1, fwd)
        (ts.scan_left if fwd else ts.scan_right)(0, ("C0",))
        ts.move_right(0)
        tapeops.shift_suffix_left(ts, 0, 1)
    # else nothing to move onto: invalid input, halt


def _program_move(ts: TapeSet, gen: str) -> Tuple[()]:
    S, P = _scan_to_marker(ts)
    if S is None:
        return ()
    axis = "a" if gen[0] == "a" else "b"
    fwd = not gen.endswith("-")
    if S in D_C + D_B:
        if P != "(":
            return ()
        own = "b"
    elif S in E_C:
        if P == "(":
            own = "b"
        elif P == "[":
            own = "a"
        else:
            return ()
    else:
        if S in B_LEAF and P != BEGIN:
            return ()
        line_axis = "b" if P == "(" else "a"
        if axis == line_axis:
            _leaf_inline(ts, S, fwd)
        else:
            _sprout(ts, S, axis, fwd)
        return ()
    if S in E_C and P == "(":
        # a vertical expansion pivot sits on a horizontal line: it reverts to D
        ts.write(0, "D0" if S == "E0C" else "D1")
    else:
        ts.write(0, _UNMARK[S])
    if axis == own or _exit_group(ts, P, fwd):
        _move_and_land(ts, fwd)
    return ()


MACHINE = Machine(GROUP, codes_z2f2, codes_of(Z2F2_SIGMA), render_z2f2,
                  {gen: _program_toggle if gen == "c" else _program_move for gen in GENERATORS})


def apply_gen_report(text: str, gen: str) -> Tuple[str, StepReport]:
    return MACHINE.apply(text, gen)
