"""Compare the line items of two ``cgb-verify run --json`` reports.

    python3 tests/compare_reports.py OLD.json NEW.json

Scenarios and items are paired by name; timing (``wall_ms``) is ignored.
Every item whose computed value, expected value, error, tolerance, margin
or verdict differs is printed with both values, and so is every item found
in one report only.  Exits with 1 on any difference, 0 otherwise.  The file
name has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import json
import sys

FIELDS = ("computed", "expected", "error", "tol", "margin", "pass")


def items(path: str) -> dict:
    """(scenario, identity) -> item, from one report."""
    with open(path) as fh:
        report = json.load(fh)
    return {(s["name"], it["identity"]): it
            for s in report["scenarios"] for it in s["items"]}


def compare(old: dict, new: dict) -> list:
    """One line per difference, in the order of the old report, then the new."""
    lines = []
    for key in list(old) + [k for k in new if k not in old]:
        name = "/".join(key)
        if key not in new or key not in old:
            lines.append(f"{name}: only in {'old' if key in old else 'new'}")
            continue
        # reprs, so that NaN equals NaN and 0.0 differs from -0.0
        lines.extend(f"{name} {f}: {old[key].get(f)!r} -> {new[key].get(f)!r}"
                     for f in FIELDS if repr(old[key].get(f)) != repr(new[key].get(f)))
    return lines


def main(argv) -> int:
    lines = compare(items(argv[0]), items(argv[1]))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
