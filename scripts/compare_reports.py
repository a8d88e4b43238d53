"""Compare two directories of verification reports up to floating-point roundoff.

    python scripts/compare_reports.py DIR_A DIR_B

Both directories must hold the same .json and .csv files; a file of any
other type counts as a mismatch. JSON files must have the same keys, list
lengths, strings, booleans and integers (trial counts, `passed` flags, suite
names); CSV files the same rows and non-numeric cells. Every float a in DIR_A
and its partner b in DIR_B must satisfy |a - b| <= RTOL * max(1, |a|) with
RTOL = 1e-13; infinities and NaNs must match exactly.
Prints the largest float difference per file, then every mismatch, and
exits 0 when the directories agree and 1 when they do not.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

RTOL = 1e-13

def _float_diff(a: float, b: float):
    """(absolute difference, within tolerance) for two floats."""
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        same = (math.isnan(a) and math.isnan(b)) or a == b
        return 0.0, same
    diff = abs(a - b)
    return diff, diff <= RTOL * max(1.0, abs(a))


def _compare(a, b, path: str, problems: list) -> float:
    """Walk two parsed JSON values; returns the largest float difference."""
    if isinstance(a, float) or isinstance(b, float):
        if not (isinstance(a, (int, float)) and isinstance(b, (int, float))) \
                or isinstance(a, bool) or isinstance(b, bool):
            problems.append(f"{path}: {a!r} != {b!r}")
            return 0.0
        diff, ok = _float_diff(float(a), float(b))
        if not ok:
            problems.append(f"{path}: {a!r} != {b!r} (difference {diff:.3e})")
        return diff
    if isinstance(a, dict) and isinstance(b, dict):
        if sorted(a) != sorted(b):
            problems.append(f"{path}: keys {sorted(a)} != {sorted(b)}")
            return 0.0
        return max((_compare(a[k], b[k], f"{path}.{k}", problems) for k in a),
                   default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            problems.append(f"{path}: length {len(a)} != {len(b)}")
            return 0.0
        return max((_compare(x, y, f"{path}[{i}]", problems)
                    for i, (x, y) in enumerate(zip(a, b))), default=0.0)
    if type(a) is not type(b) or a != b:
        problems.append(f"{path}: {a!r} != {b!r}")
    return 0.0


def _parse_cell(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        if path.endswith(".json"):
            return json.load(fh)
        return [[_parse_cell(c) for c in row] for row in csv.reader(fh)]


def compare_dirs(dir_a: str, dir_b: str):
    """Returns ({file: largest float difference}, [mismatch descriptions])."""
    files_a, files_b = sorted(os.listdir(dir_a)), sorted(os.listdir(dir_b))
    problems = []
    if files_a != files_b:
        problems.append(f"file lists differ: only in {dir_a}: "
                        f"{sorted(set(files_a) - set(files_b))}, only in {dir_b}: "
                        f"{sorted(set(files_b) - set(files_a))}")
    diffs = {}
    for name in sorted(set(files_a) & set(files_b)):
        if not name.endswith((".json", ".csv")):
            problems.append(f"{name}: not a .json or .csv report")
            continue
        a = _load(os.path.join(dir_a, name))
        b = _load(os.path.join(dir_b, name))
        diffs[name] = _compare(a, b, name, problems)
    return diffs, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    args = parser.parse_args(argv)
    diffs, problems = compare_dirs(args.dir_a, args.dir_b)
    for name, diff in diffs.items():
        print(f"{name:40s} largest difference {diff:.3e}")
    for p in problems:
        print(f"MISMATCH {p}")
    print("agree" if not problems else f"{len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
