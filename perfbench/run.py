"""fsqubit benchmark: end-to-end and per-layer timings of three workloads.

    python3 perfbench/run.py --workload cli-tour --seed 1 --seconds 10 \
        --trace 0
    python3 perfbench/run.py --list

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones from a traced run. The report names every metric with
its unit and sample count; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}. A record with the
failures, the sha256 of every CSV artifact and written trace, and the
environment goes to .bench_run/records/. ``--list`` prints every metric
with its meaning and the end-to-end metric each layer should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys

from metrics import MEANINGS, PREDICTIONS
from tracer import per_layer
from workloads import ROOT, WORKLOADS, Run, end_to_end

OUT = ROOT / ".bench_run"
COVERAGE_FLOOR = 0.95


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def list_metrics(spec) -> None:
    for group in ("end_to_end", "per_layer"):
        print(f"{group}:")
        for m in spec[group]:
            bound = f"  bound {m['bound']}" if "bound" in m else ""
            print(f"  {m['name']:32s} {m['unit']:6s} {m['better']:6s}"
                  f"{bound}\n      {MEANINGS[m['name']]}")
    print("per-layer -> end-to-end predictions:")
    for layer, metric, workload, note in PREDICTIONS:
        print(f"  {layer:28s} -> {metric:14s} on {workload:9s} {note}")


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment() -> dict:
    """Context recorded with each result and never gated on."""
    import numpy
    import scipy
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(), "git_sha": _git_sha(),
        "src_lines": src_lines,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print every metric with its unit and exit")
    args = parser.parse_args()
    spec = _spec()
    if args.list:
        list_metrics(spec)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    for needed in (ROOT / "src" / "fsqubit", ROOT / "configs"):
        if not needed.is_dir():
            print(f"error: {needed} not found; run from a full checkout",
                  file=sys.stderr)
            return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = OUT / tag
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    run = Run(args.seed, args.seconds, bool(args.trace), out)
    WORKLOADS[args.workload](run)

    if args.trace:
        group = "per_layer"
        values = per_layer(run.tracer)
        walls = {t: [w for traced, w in run.passes if traced == t]
                 for t in (False, True)}
        values["trace.overhead_s"] = (statistics.median(walls[True])
                                      - statistics.median(walls[False]))
        counts = {}
    else:
        group = "end_to_end"
        e2e = end_to_end(run)
        values = {k: v for k, (v, _) in e2e.items()}
        counts = {k: n for k, (_, n) in e2e.items()}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[group]}
    failed = len(run.failures)

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(run.passes)} timed passes, {run.attempted} operations")
    for name, m in metrics.items():
        n = f"  (n={counts[name]})" if name in counts else ""
        print(f"  {name:32s} {m['value']:<14.6g} {m['unit']}{n}")
    print(f"  {'failed_frac':32s} {failed / run.attempted:<14.6g} "
          f"({failed}/{run.attempted} operations)")
    for label, problems in run.failures:
        print(f"  FAILED {label}: {'; '.join(problems)}")
    warnings = []
    if run.tracer is not None:
        warnings += [f"wrapped function missing: {name}"
                     for name in run.tracer.missing]
        if values["trace.coverage"] < COVERAGE_FLOOR:
            warnings.append(f"trace.coverage {values['trace.coverage']:.3f} "
                            f"below {COVERAGE_FLOOR}")
    for w in warnings:
        print(f"  WARNING {w}")

    env = environment()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "metrics": metrics, "sample_counts": counts,
              "samples": run.samples,
              "passes": run.passes, "attempted": run.attempted,
              "failed": failed, "failures": run.failures,
              "warnings": warnings, "sha256": run.hashes,
              "environment": env}
    (OUT / "records").mkdir(exist_ok=True)
    record_path = OUT / "records" / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(f"  environment: {json.dumps(env, sort_keys=True)}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
