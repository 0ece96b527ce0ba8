"""Print the sha256 of every file the shipped configs produce.

Runs each ``configs/*.json`` in-process through ``fsqubit.cli.main``, with
the subcommand named by its file-name prefix, and prints one
``<sha256>  <config>/<file>`` line per output file. Two checkouts then
compare byte for byte with one ``diff``. Run from the repository root:

    PYTHONPATH=src python scripts/artifact_hashes.py [DIR] > hashes.txt

With ``DIR`` the run directories are kept as ``DIR/<config>/``, so two
runs can be compared number by number with ``scripts/artifact_diff.py``;
without it they go to a temporary directory that is removed afterwards.
"""

from __future__ import annotations

import hashlib
import pathlib
import sys
import tempfile

from fsqubit import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
PREFIXES = (("magic_scan", "magic-scan"), ("magic_find", "magic-find"),
            ("phinoise", "phinoise"), ("shiftmap", "shiftmap"),
            ("rabi", "rabi"), ("ramsey", "ramsey"), ("t2", "t2"))


def hash_outputs(root: pathlib.Path) -> int:
    for cfg in sorted((ROOT / "configs").glob("*.json")):
        sub = next(s for p, s in PREFIXES if cfg.name.startswith(p))
        out = root / cfg.stem
        code = cli.main([sub, "--config", str(cfg), "--out", str(out)])
        if code:
            return code
        for f in sorted(out.iterdir()):
            digest = hashlib.sha256(f.read_bytes()).hexdigest()
            print(f"{digest}  {cfg.stem}/{f.name}", flush=True)
    return 0


def main(argv: list[str]) -> int:
    if argv:
        return hash_outputs(pathlib.Path(argv[0]))
    with tempfile.TemporaryDirectory() as tmp:
        return hash_outputs(pathlib.Path(tmp))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
