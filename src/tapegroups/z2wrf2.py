"""Recursive bracketed normal form and 2-tape generator programs for Z2 wr F2.

Elements of F2 are laid out on alternating horizontal (a) and vertical (b)
lines.  The top level is the horizontal line through the identity; a position
whose perpendicular subtree holds a lamp or the lamplighter becomes a D-symbol
(horizontal lines) or E-symbol (vertical lines) and is expanded, in later
iterations, into a bracketed group: '(' groups enumerate a vertical line
around their pivot, '[' groups a horizontal one.  Superscripts mark the
identity (A/B forms) and the lamplighter (C forms, B forms when both).

The generator programs scan tape 1 to the lamplighter marker with tape 2 as a
bracket stack, then move the marker one position along the generator's axis:
within a line this is a neighbouring item (entering sibling groups at their
pivot), off the marker's axis it sprouts a fresh two-token group, and a move
that empties a group collapses it.  All edits are constant-size suffix shifts.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple, Union

from .errors import BadWord, NotInLanguage
from .oracle_groups import LampConfigF2
from .tapevm import StepReport, TapeSet, init_tapes, read_output
from .tapeops import shift_suffix_left, shift_suffix_right
from .tokens import BEGIN, BLANK, Z2F2_SIGMA, render_z2f2, tokenize_z2f2

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

_STOP = frozenset(C_LEAF + B_LEAF + D_C + D_B + E_C)
_TOGGLE = {"C0": "C1", "C1": "C0", "B0": "B1", "B1": "B0",
           "D0C": "D1C", "D1C": "D0C", "D0B": "D1B", "D1B": "D0B",
           "E0C": "E1C", "E1C": "E0C"}
_TOGGLE_STOP = (*_TOGGLE, BLANK)
_MARK = {"0": "C0", "1": "C1", "A0": "B0", "A1": "B1",
         "E0": "E0C", "E1": "E1C", "D0": "D0C", "D1": "D1C",
         "D0A": "D0B", "D1A": "D1B"}
_UNMARK = {"D0C": "D0", "D1C": "D1", "D0B": "D0A", "D1B": "D1A",
           "E0C": "E0", "E1C": "E1", "C1": "1", "B0": "A0", "B1": "A1"}
_COLLAPSE = {"E0": "C0", "E1": "C1", "D0": "C0", "D1": "C1",
             "D0A": "B0", "D1A": "B1"}
_MARKED_OPEN = {"(": "(*", "[": "[*"}
_MARKED_CLOSE = {")": ")*", "]": "]*"}
_SPROUT_D = {"C0": "D0", "C1": "D1", "B0": "D0A", "B1": "D1A"}
_SPROUT_E = {"C0": "E0", "C1": "E1"}

_INV = {"a": "A", "A": "a", "b": "B", "B": "b"}


# ---------------------------------------------------------------------------
# encoder: the iterative construction, recorded iteration by iteration

class _Pending:
    """An expandable symbol: its token plus the perpendicular suffixes below it."""

    __slots__ = ("token", "axis", "entries")

    def __init__(self, token: str, axis: str, entries):
        self.token = token
        self.axis = axis            # axis of the expansion line ('b' for '(')
        self.entries = entries      # [(suffix, lamp, isz)]


class _Group:
    __slots__ = ("bracket", "items")

    def __init__(self, bracket: str, items):
        self.bracket = bracket
        self.items = items


Item = Union[str, _Pending, _Group]


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


def _line_cells(entries, axis: str):
    cells: dict = {}
    for word, lamp, isz in entries:
        j, rest = _split_run(word, axis)
        cell = cells.setdefault(j, [False, False, []])
        if rest == "":
            cell[0] = cell[0] or lamp
            cell[1] = cell[1] or isz
        else:
            cell[2].append((rest, lamp, isz))
    return cells


def _cell_item(lamp: bool, isz: bool, perp, axis: str, at_top: bool, is_e: bool) -> Item:
    bit = "1" if lamp else "0"
    if at_top:
        if perp:
            if is_e:
                tok = ("D" + bit + "B") if isz else ("D" + bit + "A")
            elif isz:
                tok = "D" + bit + "C"
            else:
                tok = "D" + bit
        else:
            if is_e:
                tok = ("B" + bit) if isz else ("A" + bit)
            elif isz:
                tok = "C" + bit
            else:
                tok = bit
    elif axis == "a":
        if perp:
            tok = ("E" + bit + "C") if isz else ("D" + bit)
        else:
            tok = ("C" + bit) if isz else bit
    else:
        if perp:
            tok = ("E" + bit + "C") if isz else ("E" + bit)
        else:
            tok = ("C" + bit) if isz else bit
    if perp:
        return _Pending(tok, "b" if axis == "a" else "a", perp)
    return tok


def _scan_line(entries, axis: str, at_top: bool):
    cells = _line_cells(entries, axis)
    if at_top:
        lo = min(0, min(cells))
        hi = max(0, max(cells))
        items: List[Item] = []
        for j in range(lo, hi + 1):
            if j in cells:
                lamp, isz, perp = cells[j]
                items.append(_cell_item(lamp, isz, perp, axis, True, j == 0))
            elif j == 0:
                items.append(_cell_item(False, False, [], axis, True, True))
            else:
                items.append("0")
        return items
    neg: List[Item] = []
    pos: List[Item] = []
    neg_keys = [j for j in cells if j < 0]
    pos_keys = [j for j in cells if j > 0]
    if neg_keys:
        for j in range(min(neg_keys), 0):
            if j in cells:
                lamp, isz, perp = cells[j]
                neg.append(_cell_item(lamp, isz, perp, axis, False, False))
            else:
                neg.append("0")
    if pos_keys:
        for j in range(1, max(pos_keys) + 1):
            if j in cells:
                lamp, isz, perp = cells[j]
                pos.append(_cell_item(lamp, isz, perp, axis, False, False))
            else:
                pos.append("0")
    return neg, pos


def _render_items(items: Iterable[Item]) -> str:
    out: List[str] = []

    def walk(it: Item) -> None:
        if isinstance(it, str):
            out.append(it)
        elif isinstance(it, _Pending):
            out.append(it.token)
        else:
            out.append(it.bracket)
            for sub in it.items:
                walk(sub)
            out.append(")" if it.bracket == "(" else "]")

    for it in items:
        walk(it)
    return render_z2f2(out)


def _expand_once(items: List[Item], axis: str) -> Tuple[List[Item], bool]:
    changed = False
    new_items: List[Item] = []
    for it in items:
        if isinstance(it, _Pending) and it.axis == axis:
            changed = True
            neg, pos = _scan_line(it.entries, axis, False)
            bracket = "(" if axis == "b" else "["
            new_items.append(_Group(bracket, neg + [it.token] + pos))
        elif isinstance(it, _Group):
            sub, ch = _expand_once(it.items, axis)
            changed = changed or ch
            new_items.append(_Group(it.bracket, sub))
        else:
            new_items.append(it)
    return new_items, changed


def _iterations(config: LampConfigF2) -> Iterator[List[Item]]:
    """Item lists after each construction iteration, up to the fixpoint."""
    entries = [(w, True, w == config.pos) for w in sorted(config.lit)]
    if config.pos not in config.lit:
        entries.append((config.pos, False, True))
    items = _scan_line(entries, "a", True)
    yield items
    axis = "b"
    while True:
        items, changed = _expand_once(items, axis)
        if not changed:
            return
        yield items
        axis = "a" if axis == "b" else "b"


def encode_iterations(config: LampConfigF2) -> List[str]:
    """Token streams after each construction iteration, up to the fixpoint."""
    return [_render_items(items) for items in _iterations(config)]


def encode(config: LampConfigF2) -> str:
    for items in _iterations(config):
        pass  # keep only the fixpoint alive
    return _render_items(items)


# ---------------------------------------------------------------------------
# decoder / validator

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
    plain = D_PLAIN + D_A + D_B + D_C if group.bracket == "(" else E_PLAIN
    plain_hits = [i for i, it in enumerate(group.items)
                  if isinstance(it, str) and it in plain]
    if len(plain_hits) == 1:
        return plain_hits[0]
    if len(plain_hits) > 1:
        raise NotInLanguage("group with more than one pivot")
    ec_hits = [i for i, it in enumerate(group.items)
               if isinstance(it, str) and it in E_C]
    if len(ec_hits) == 1:
        return ec_hits[0]
    raise NotInLanguage("group without a unique pivot")


def decode(text: str) -> LampConfigF2:
    toks = tokenize_z2f2(text)
    items = _parse_groups(toks)
    if not items:
        raise NotInLanguage("empty string is not a normal form (identity is 'B0')")
    out = {"lamps": set(), "pos": [], "marker": None, "anchor": 0}

    def emit(tok: str, elem: str) -> None:
        if tok in ("1", "C1", "A1", "B1", "D1", "D1A", "D1B", "D1C", "E1", "E1C"):
            out["lamps"].add(elem)
        if tok in C_LEAF + B_LEAF + D_C + D_B + E_C:
            if out["marker"] is not None:
                raise NotInLanguage("more than one lamplighter marker")
            out["marker"] = tok
            out["pos"].append(elem)
        if tok in A_LEAF + B_LEAF + D_A + D_B:
            out["anchor"] += 1
            if elem != "":
                raise NotInLanguage("identity marker away from the anchor cell")

    def walk_group(group: _Group, base: str, top_group: bool) -> None:
        piv = _pivot_index(group)
        pivot = group.items[piv]
        letter = "b" if group.bracket == "(" else "a"
        if pivot in D_C + D_A + D_B and not top_group:
            raise NotInLanguage("top-level pivot class below the top level")
        if pivot in E_C and top_group:
            raise NotInLanguage("E-class pivot in a top-level group")
        if len(group.items) < 2:
            raise NotInLanguage("expanded group with an empty interior")
        emit(pivot, base)
        before = group.items[:piv]
        after = group.items[piv + 1:]
        if before and before[0] == "0":
            raise NotInLanguage("untrimmed zero at the far end of a group side")
        if after and after[-1] == "0":
            raise NotInLanguage("untrimmed zero at the far end of a group side")
        for seq, sign in ((before, -1), (after, +1)):
            for n, it in enumerate(seq):
                off = (len(seq) - n) if sign < 0 else (n + 1)
                elem = base + (_INV[letter] if sign < 0 else letter) * off
                if isinstance(it, _Group):
                    want = "[" if group.bracket == "(" else "("
                    if it.bracket != want:
                        raise NotInLanguage("group nesting does not alternate")
                    walk_group(it, elem, False)
                elif it in ("0", "1") + C_LEAF:
                    emit(it, elem)
                else:
                    raise NotInLanguage(f"token {it!r} not allowed inside a group")

    anchor_positions = []
    for i, it in enumerate(items):
        if isinstance(it, _Group):
            if it.bracket != "(":
                raise NotInLanguage("top-level groups must be vertical expansions")
            piv = it.items[_pivot_index(it)]
            if piv in D_A + D_B:
                anchor_positions.append(i)
        elif it in A_LEAF + B_LEAF:
            anchor_positions.append(i)
        elif it in ("0", "1") + C_LEAF:
            pass
        else:
            raise NotInLanguage(f"token {it!r} not allowed at the top level")
    if len(anchor_positions) != 1:
        raise NotInLanguage(f"expected one identity anchor, found {len(anchor_positions)}")
    if items[0] == "0" or items[-1] == "0":
        raise NotInLanguage("untrimmed zero at the end of the top line")
    a0 = anchor_positions[0]
    for i, it in enumerate(items):
        d = i - a0
        elem = "a" * d if d >= 0 else "A" * (-d)
        if isinstance(it, _Group):
            walk_group(it, elem, True)
        else:
            emit(it, elem)
    if out["marker"] is None:
        raise NotInLanguage("no lamplighter marker")
    pos = out["pos"][0]
    if (pos == "") != (out["marker"] in B_LEAF + D_B):
        raise NotInLanguage("B-class markers must coincide with lamplighter at the identity")
    return LampConfigF2(frozenset(out["lamps"]), pos)


def validate(text: str) -> bool:
    try:
        decode(text)
    except NotInLanguage:
        return False
    return True


# ---------------------------------------------------------------------------
# tape programs

def _scan_to_marker(ts: TapeSet):
    """First iteration: right scan to the lamplighter marker, bracket stack on
    tape 2.  Returns (marker, stack top) or (None, None) on invalid input."""
    while True:
        ts.move_right(0)
        sym = ts.read(0)
        if sym in ("(", "["):
            ts.move_right(1)
            ts.write(1, sym)
        elif sym in (")", "]"):
            top = ts.read(1)
            if (sym == ")" and top == "(") or (sym == "]" and top == "["):
                ts.write(1, BLANK)
                ts.move_left(1)
            else:
                return None, None
        elif sym in _STOP:
            return sym, ts.read(1)
        elif sym == BLANK:
            return None, None


def _program_toggle(ts: TapeSet) -> None:
    ts.move_right(0)
    sym = ts.scan_right(0, _TOGGLE_STOP)
    if sym != BLANK:
        ts.write(0, _TOGGLE[sym])


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


def _enter_fwd(ts: TapeSet, open_sym: str) -> None:
    """Head on an open bracket: mark the pivot of this group with the lamplighter."""
    marked = _MARKED_OPEN[open_sym]
    piv = D_PLAIN + D_A if open_sym == "(" else E_PLAIN
    ts.move_right(1)
    ts.write(1, marked)
    while True:
        ts.move_right(0)
        sym = ts.read(0)
        if sym in piv:
            if ts.read(1) == marked:
                _mark_pivot(ts, sym)
                return
        elif sym in ("(", "["):
            ts.move_right(1)
            ts.write(1, sym)
        elif sym in (")", "]"):
            top = ts.read(1)
            if top == marked:
                return  # no pivot found before our close: invalid input
            if (sym == ")" and top == "(") or (sym == "]" and top == "["):
                ts.write(1, BLANK)
                ts.move_left(1)
            else:
                return
        elif sym == BLANK:
            return


def _enter_bwd(ts: TapeSet, close_sym: str) -> None:
    marked = _MARKED_CLOSE[close_sym]
    piv = D_PLAIN + D_A if close_sym == ")" else E_PLAIN
    ts.move_right(1)
    ts.write(1, marked)
    while True:
        ts.move_left(0)
        sym = ts.read(0)
        if sym in piv:
            if ts.read(1) == marked:
                _mark_pivot(ts, sym)
                return
        elif sym in (")", "]"):
            ts.move_right(1)
            ts.write(1, sym)
        elif sym in ("(", "["):
            top = ts.read(1)
            if top == marked:
                return  # reached our open without a pivot: invalid
            if (sym == "(" and top == ")") or (sym == "[" and top == "]"):
                ts.write(1, BLANK)
                ts.move_left(1)
            else:
                return
        elif sym == BEGIN:
            return


def _exit_group_fwd(ts: TapeSet, open_sym: str) -> bool:
    """Head on a group pivot, stack top our open bracket: move to our close."""
    marked = _MARKED_OPEN[open_sym]
    ts.write(1, marked)
    while True:
        ts.move_right(0)
        sym = ts.read(0)
        if sym in ("(", "["):
            ts.move_right(1)
            ts.write(1, sym)
        elif sym in (")", "]"):
            top = ts.read(1)
            if top == marked:
                if (sym == ")") != (open_sym == "("):
                    return False
                ts.write(1, BLANK)
                ts.move_left(1)
                return True
            if (sym == ")" and top == "(") or (sym == "]" and top == "["):
                ts.write(1, BLANK)
                ts.move_left(1)
            else:
                return False
        elif sym == BLANK:
            return False


def _exit_group_bwd(ts: TapeSet, open_sym: str) -> bool:
    marked = _MARKED_OPEN[open_sym]
    ts.write(1, marked)
    while True:
        ts.move_left(0)
        sym = ts.read(0)
        if sym in (")", "]"):
            ts.move_right(1)
            ts.write(1, sym)
        elif sym in ("(", "["):
            top = ts.read(1)
            if top == marked:
                ts.write(1, BLANK)
                ts.move_left(1)
                return sym == open_sym
            if (sym == "(" and top == ")") or (sym == "[" and top == "]"):
                ts.write(1, BLANK)
                ts.move_left(1)
            else:
                return False
        elif sym == BEGIN:
            return False


def _insert_here(ts: TapeSet, tok: str) -> None:
    sym = ts.read(0)
    if sym == BLANK:
        ts.write(0, tok)
    else:
        shift_suffix_right(ts, 0, [tok])


def _move_and_land(ts: TapeSet, fwd: bool) -> None:
    if fwd:
        ts.move_right(0)
    else:
        ts.move_left(0)
    sym = ts.read(0)
    if sym in _MARK:
        _mark_pivot(ts, sym)
        return
    if fwd:
        if sym in ("(", "["):
            _enter_fwd(ts, sym)
        elif sym in (")", "]") or sym == BLANK:
            _insert_here(ts, "C0")
    else:
        if sym in (")", "]"):
            _enter_bwd(ts, sym)
        elif sym in ("(", "[") or sym == BEGIN:
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
    shift_suffix_right(ts, 0, toks[1:])


def _leaf_inline_fwd(ts: TapeSet, S: str) -> None:
    if S != "C0":
        ts.write(0, _UNMARK[S])
        _move_and_land(ts, True)
        return
    ts.move_left(0)
    T = ts.read(0)
    ts.move_right(0)
    if T not in ("(", "[", BEGIN):
        ts.write(0, "0")
        _move_and_land(ts, True)
        return
    # vacating the first item of its line: the freed cell must be trimmed
    ts.move_right(0)
    s1 = ts.read(0)
    ts.move_right(0)
    s2 = ts.read(0)
    if (T == "[" and s1 in E_PLAIN and s2 == "]") or \
       (T == "(" and s1 in _COLLAPSE and s1 not in E_PLAIN and s2 == ")"):
        # the group held only the lamplighter: it dissolves into a leaf
        collapsed = _COLLAPSE[s1]
        ts.move_left(0)
        ts.move_left(0)
        ts.move_left(0)
        ts.write(0, collapsed)
        for _ in range(4):
            ts.move_right(0)
        shift_suffix_left(ts, 0, 3)
        return
    if s1 in _MARK:
        ts.move_left(0)
        ts.move_left(0)
        _mark_pivot(ts, s1)
        ts.move_right(0)
        ts.move_right(0)
        shift_suffix_left(ts, 0, 1)
        return
    if s1 in ("(", "["):
        ts.move_left(0)
        _enter_fwd(ts, s1)
        ts.scan_left(0, ("C0",))
        ts.move_right(0)
        shift_suffix_left(ts, 0, 1)
        return
    # nothing to move onto: invalid input, halt


def _leaf_inline_bwd(ts: TapeSet, S: str) -> None:
    if S != "C0":
        ts.write(0, _UNMARK[S])
        _move_and_land(ts, False)
        return
    ts.move_right(0)
    T = ts.read(0)
    ts.move_left(0)
    if T == BLANK:
        ts.write(0, BLANK)
        _move_and_land(ts, False)
        return
    if T not in (")", "]"):
        ts.write(0, "0")
        _move_and_land(ts, False)
        return
    # vacating the last item of its line
    ts.move_left(0)
    s1 = ts.read(0)
    if s1 == BEGIN:
        return  # malformed: a marked leaf cannot be the whole line
    ts.move_left(0)
    s2 = ts.read(0)
    if (T == "]" and s1 in E_PLAIN and s2 == "[") or \
       (T == ")" and s1 in _COLLAPSE and s1 not in E_PLAIN and s2 == "("):
        collapsed = _COLLAPSE[s1]
        ts.write(0, collapsed)
        for _ in range(4):
            ts.move_right(0)
        shift_suffix_left(ts, 0, 3)
        return
    if s1 in _MARK:
        ts.move_right(0)
        _mark_pivot(ts, s1)
        ts.move_right(0)
        ts.move_right(0)
        shift_suffix_left(ts, 0, 1)
        return
    if s1 in (")", "]"):
        ts.move_right(0)
        _enter_bwd(ts, s1)
        ts.scan_right(0, ("C0",))
        ts.move_right(0)
        shift_suffix_left(ts, 0, 1)
        return
    # invalid input, halt


def _program_move(ts: TapeSet, gen: str) -> None:
    S, P = _scan_to_marker(ts)
    if S is None:
        return
    axis = "a" if gen[0] == "a" else "b"
    fwd = not gen.endswith("-")
    if S in D_C + D_B:
        if P != "(":
            return
        own = "b"
    elif S in E_C:
        if P == "(":
            own = "b"
        elif P == "[":
            own = "a"
        else:
            return
    else:
        if S in B_LEAF and P != BEGIN:
            return
        if S in C_LEAF and P not in ("(", "[", BEGIN):
            return
        line_axis = "b" if P == "(" else "a"
        if axis == line_axis:
            if fwd:
                _leaf_inline_fwd(ts, S)
            else:
                _leaf_inline_bwd(ts, S)
        else:
            _sprout(ts, S, axis, fwd)
        return
    if S in E_C and P == "(":
        # a vertical expansion pivot sits on a horizontal line: it reverts to D
        ts.write(0, "D0" if S == "E0C" else "D1")
    else:
        ts.write(0, _UNMARK[S])
    if axis == own:
        _move_and_land(ts, fwd)
    else:
        ok = _exit_group_fwd(ts, P) if fwd else _exit_group_bwd(ts, P)
        if ok:
            _move_and_land(ts, fwd)


def apply_gen_report(text: str, gen: str) -> Tuple[str, StepReport]:
    if gen not in GENERATORS:
        raise BadWord(f"unknown generator {gen!r} for {GROUP}")
    toks = tokenize_z2f2(text)
    ts = init_tapes(toks, 2, sigma=Z2F2_SIGMA)
    if gen == "c":
        _program_toggle(ts)
    else:
        _program_move(ts, gen)
    out = render_z2f2(read_output(ts))
    return out, StepReport(len(toks), ts.steps, gen, GROUP)


def apply_gen(text: str, gen: str) -> str:
    return apply_gen_report(text, gen)[0]
