"""Print every leaf of two step ledgers whose value differs.

    python3 tools/ledger_diff.py OLD NEW

OLD and NEW are `tests/data/step_ledger.json` files (say, the parent's and
the change's).  Each line is one leaf, as its path of keys
(section/group/key/field), then the old and the new value; a leaf that only
one side has shows `-` on the other.  Nothing is printed when the ledgers
agree.  Exits 1 when any leaf differs, 2 on a usage error, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def leaves(node, path=()):
    """(path, value) for every non-dict value under node."""
    if not isinstance(node, dict):
        yield path, node
        return
    for key, child in node.items():
        yield from leaves(child, path + (key,))


def diff(old: dict, new: dict) -> list[str]:
    before, after = dict(leaves(old)), dict(leaves(new))
    lines = []
    for path in sorted(before.keys() | after.keys()):
        a, b = before.get(path, "-"), after.get(path, "-")
        if a != b:
            lines.append(f"{'/'.join(path)}: {a} -> {b}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: " + __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text()) for path in argv)
    lines = diff(old, new)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
