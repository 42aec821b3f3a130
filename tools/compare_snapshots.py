"""Compare two output trees written by ``tools/snapshot_outputs.py``.

    python3 tools/compare_snapshots.py OLD NEW

For each file that differs it prints one line:

* a JSON or CSV file: the largest relative difference among numbers above
  1e-15 in magnitude, and the largest absolute difference among numbers at
  or below it, each with where it sits: a JSON file's key path, such as
  ``/reports[3]/check/statistic``, or a CSV file's ``[row][column]``,
  both counted from 0 with the header as row 0; before it, one line for
  each value that changed and is not a number (a verdict, a string, a row
  or list length), and for each object whose keys changed, the keys added
  and removed.  The values of the keys that both trees share are still
  compared;
* any other text file: how many lines differ.

It exits 1 when a value that is not a number changes, when a file exists
in one tree only, or when ``exit_codes.txt`` differs, and 0 otherwise: a
change that moves only numbers, such as last-bit rounding, passes, and its
sizes are printed for the reader to judge.
"""

import csv
import io
import json
import math
import os
import sys

FLOOR = 1e-15       # numbers at or below this size compare absolutely


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _compare(old, new, where: str, diffs: dict, changes: list) -> None:
    """Walk two parsed values together; record the largest of the numbers'
    differences in ``diffs``, as (size, where), and every other difference
    in ``changes``."""
    if _is_number(old) and _is_number(new):
        if old == new:
            return
        if not (math.isfinite(old) and math.isfinite(new)):
            changes.append(f"{where}: {old!r} -> {new!r}")
            return
        size = max(abs(old), abs(new))
        key = "rel" if size > FLOOR else "abs"
        gap = abs(old - new) / size if size > FLOOR else abs(old - new)
        if gap > diffs[key][0]:
            diffs[key] = (gap, where)
    elif isinstance(old, dict) and isinstance(new, dict):
        added, removed = sorted(set(new) - set(old)), sorted(set(old) - set(new))
        if added or removed:
            changes.append(f"{where or '/'}: keys added {added}, removed {removed}")
        elif list(old) != list(new):
            changes.append(f"{where}: key order {list(old)} -> {list(new)}")
        for key in old:
            if key in new:
                _compare(old[key], new[key], f"{where}/{key}", diffs, changes)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            changes.append(f"{where}: length {len(old)} -> {len(new)}")
            return
        for i, (a, b) in enumerate(zip(old, new)):
            _compare(a, b, f"{where}[{i}]", diffs, changes)
    elif old != new or type(old) is not type(new):
        changes.append(f"{where}: {old!r} -> {new!r}")


def _largest(gap: float, where: str) -> str:
    return f"{gap:.2e} at {where}" if gap else f"{gap:.2e}"


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _parse(path: str, text: str):
    if path.endswith(".json"):
        return json.loads(text)
    return [[_cell(c) for c in row] for row in csv.reader(io.StringIO(text))]


def _files(root: str) -> set:
    return {os.path.relpath(os.path.join(top, name), root)
            for top, _, names in os.walk(root) for name in names}


def compare(old_root: str, new_root: str) -> int:
    """Print one line per differing file; return the exit code."""
    old_files, new_files = _files(old_root), _files(new_root)
    failed = False
    for path in sorted(old_files ^ new_files):
        print(f"{path}: only in {'OLD' if path in old_files else 'NEW'}")
        failed = True
    for path in sorted(old_files & new_files):
        with open(os.path.join(old_root, path), encoding="utf-8") as fh:
            old = fh.read()
        with open(os.path.join(new_root, path), encoding="utf-8") as fh:
            new = fh.read()
        if old == new:
            continue
        if path == "exit_codes.txt":
            print(f"{path}: differs")
            failed = True
        elif path.endswith((".json", ".csv")):
            diffs, changes = {"rel": (0.0, ""), "abs": (0.0, "")}, []
            _compare(_parse(path, old), _parse(path, new), "", diffs, changes)
            for change in changes:
                print(f"{path}: CHANGED {change}")
            failed = failed or bool(changes)
            print(f"{path}: max rel {_largest(*diffs['rel'])} (|x| > {FLOOR:g}), "
                  f"max abs {_largest(*diffs['abs'])} (|x| <= {FLOOR:g})")
        else:
            a, b = old.splitlines(), new.splitlines()
            count = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
            print(f"{path}: {count} line(s) differ")
    return 1 if failed else 0


def main(argv) -> int:
    if len(argv) != 3:
        print("usage: python3 tools/compare_snapshots.py OLD NEW", file=sys.stderr)
        return 2
    return compare(argv[1], argv[2])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
