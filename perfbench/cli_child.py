"""Run one fsqubit CLI command in this fresh process, optionally traced.

    python3 perfbench/cli_child.py [--spans FILE --op N] -- <cli args>

Exits with the command's exit code. With ``--spans`` the import of
``fsqubit.cli`` and every wrapped call record spans under operation id N,
written to FILE as JSON when the command returns, together with the first
and last moments of this script, from which the parent derives the
interpreter start-up and tear-down spans.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # first moment this interpreter runs our code

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans")
    parser.add_argument("--op", type=int, default=0)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if not args.spans:
        import fsqubit.cli
        return fsqubit.cli.main(argv)

    from tracer import Tracer, clock
    tracer = Tracer()
    tracer.op = args.op
    t0 = clock()
    import fsqubit.cli
    tracer.spans.append(["cli.import", t0, clock(), None, args.op, None])
    tracer.install(sys.modules["fsqubit"])
    try:
        return fsqubit.cli.main(argv)
    finally:
        Path(args.spans).write_text(json.dumps(
            dict(tracer.export(), script=[START, clock()])))


if __name__ == "__main__":
    sys.exit(main())
