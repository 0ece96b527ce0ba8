"""Report how far the numbers moved between two artifact trees.

For every file present in both ``A`` and ``B`` (matched by relative path)
whose bytes differ, prints the largest absolute and the largest relative
change over its numbers: the cells of a ``.csv`` or the numeric leaves of
a ``.json``. Files only in one tree, and differences that are not numeric
(a changed header, string or row count), are reported as such. Typical
use, with trees kept by ``scripts/artifact_hashes.py DIR``:

    python scripts/artifact_diff.py parent_runs/ new_runs/
"""

from __future__ import annotations

import csv
import json
import math
import pathlib
import sys


def _values(path: pathlib.Path) -> list[tuple[str, object]]:
    """(location, value) pairs of the file, floats where they parse."""
    out: list[tuple[str, object]] = []
    if path.suffix == ".json":
        def walk(v, where):
            if isinstance(v, dict):
                out.append((where, sorted(v)))
                for key in sorted(v):
                    walk(v[key], f"{where}.{key}")
            elif isinstance(v, list):
                out.append((where, len(v)))
                for i, x in enumerate(v):
                    walk(x, f"{where}[{i}]")
            elif isinstance(v, (int, float)) and not isinstance(v, bool):
                out.append((where, float(v)))
            else:
                out.append((where, v))

        walk(json.loads(path.read_text()), "")
        return out
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0] if rows else []
    for r, row in enumerate(rows):
        for i, cell in enumerate(row):
            name = header[i] if i < len(header) else f"col {i}"
            try:
                out.append((f"row {r} {name}", float(cell)))
            except ValueError:
                out.append((f"row {r} {name}", cell))
    return out


def compare(a: pathlib.Path, b: pathlib.Path) -> str:
    va, vb = _values(a), _values(b)
    if len(va) != len(vb):
        return f"shape differs ({len(va)} vs {len(vb)} values)"
    max_abs = max_rel = 0.0
    where = ""
    other = 0
    for (loc, x), (_, y) in zip(va, vb):
        if isinstance(x, float) and isinstance(y, float):
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            d = abs(x - y)
            scale = max(abs(x), abs(y))
            rel = d / scale if scale else math.inf
            max_abs = max(max_abs, d)
            if rel > max_rel:
                max_rel, where = rel, loc
        elif x != y:
            other += 1
    line = f"max abs {max_abs:.3g}  max rel {max_rel:.3g} (at {where})"
    return line + (f"  ({other} non-numeric values differ)" if other else "")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    ra, rb = (pathlib.Path(p) for p in argv)
    rel_a = {p.relative_to(ra) for p in ra.rglob("*") if p.is_file()}
    rel_b = {p.relative_to(rb) for p in rb.rglob("*") if p.is_file()}
    for rel in sorted(rel_a | rel_b):
        if rel not in rel_b or rel not in rel_a:
            print(f"{rel}: only in {ra if rel in rel_a else rb}")
        elif (ra / rel).read_bytes() != (rb / rel).read_bytes():
            print(f"{rel}: {compare(ra / rel, rb / rel)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
