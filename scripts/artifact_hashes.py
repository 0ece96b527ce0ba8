"""Print the sha256 of every file the shipped configs produce.

Runs each ``configs/*.json`` in-process through ``fsqubit.cli.main``, with
the subcommand named by its file-name prefix, and prints one
``<sha256>  <config>/<file>`` line per output file. Two checkouts then
compare byte for byte with one ``diff``. Run from the repository root:

    PYTHONPATH=src python scripts/artifact_hashes.py > hashes.txt
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


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in sorted((ROOT / "configs").glob("*.json")):
            sub = next(s for p, s in PREFIXES if cfg.name.startswith(p))
            out = pathlib.Path(tmp) / cfg.stem
            code = cli.main([sub, "--config", str(cfg), "--out", str(out)])
            if code:
                return code
            for f in sorted(out.iterdir()):
                digest = hashlib.sha256(f.read_bytes()).hexdigest()
                print(f"{digest}  {cfg.stem}/{f.name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
