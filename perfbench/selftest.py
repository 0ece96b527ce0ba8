"""Fast self-test of the benchmark harness (a few seconds).

    python3 perfbench/selftest.py

Checks, with tiny trial counts and one CLI command, that operations and
their failures are counted, that a deliberately corrupted output is
counted as failed, that spans and per-trial totals are recorded in process
and merged from a child, that a wrapped function which no longer exists is
reported as missing, and that BENCHMARK.json and the metric descriptions
name the same metrics. Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import types
from pathlib import Path

import checks
from metrics import MEANINGS
from tracer import Tracer, per_layer
from workloads import ROOT, Run, run_cli

PROBLEMS: list[str] = []


def expect(cond, message):
    if not cond:
        PROBLEMS.append(message)


def test_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = {m["name"] for g in ("end_to_end", "per_layer") for m in spec[g]}
    expect(named == set(MEANINGS),
           f"BENCHMARK.json vs metrics.MEANINGS differ: "
           f"{sorted(named ^ set(MEANINGS))}")
    return {m["name"] for m in spec["per_layer"]}


def test_in_process_trace(per_layer_names):
    """Tiny traced simulate: spans, per-trial totals and every metric."""
    import numpy as np
    import fsqubit
    from fsqubit import analysis, atomstark, dynamics, focalfield, trapmodel
    from fsqubit.params import (FieldEnvironment, MagneticField, NoiseModel,
                                TweezerConfig)

    tracer = Tracer()
    tracer.install(fsqubit)
    try:
        with tracer.window("pass"):
            table = atomstark.load_table(None)
            tw = TweezerConfig(539.91, 46e-6, 0.5, target_waist_nm=564.0)
            field = focalfield.GaussianField(564e-9, 46e-6, 539.91)
            env = FieldEnvironment(tw, MagneticField(8.0, 19.3))
            trap = trapmodel.characterize_trap(tw, env, table, field=field)
            t = np.linspace(0.0, 20e-6, 61)
            trace = dynamics.simulate_ramsey(trap, 1.4e-6, NoiseModel(),
                                             2 * np.pi * 84e3, 1.3e6, t, 20, 7)
            analysis.extract_contrast(trace.t_s, trace.p32_mean, 1.3e6)
    finally:
        tracer.uninstall()
    expect(not hasattr(dynamics.simulate_ramsey, "__wrapped__"),
           "uninstall left a wrapper in place")
    names = [s[0] for s in tracer.spans]
    for name in ("atomstark.load_table", "trapmodel.characterize",
                 "dynamics.simulate", "analysis.extract_contrast"):
        expect(name in names, f"no {name} span")
    m = per_layer(tracer)
    expect(m["dynamics.trials"] == 20, f"trials {m['dynamics.trials']}")
    expect(m["dynamics.trial_points"] == 20 * 61, "trial points")
    # fock model: three Fock draws, one sample, one detuning per trial
    expect(m["trapmodel.sample_calls"] == 20 * 5,
           f"sample calls {m['trapmodel.sample_calls']}")
    expect(m["analysis.window_fits"] >= 1, "no contrast windows")
    expect(0.5 < m["trace.coverage"] <= 1.0,
           f"coverage {m['trace.coverage']}")
    missing = per_layer_names - set(m) - {"trace.overhead_s"}
    expect(not missing, f"per_layer() lacks {sorted(missing)}")

    p32 = trace.p32_mean.copy()
    expect(not checks.populations("clean", p32, 1.0), "clean trace failed")
    p32[3] = 1.5
    expect(checks.populations("corrupt", p32, 1.0),
           "population above 1 passed the check")
    phis = [0.0, 2.0, 4.0, 6.0]
    expect(not checks.scan_peak(phis, [0.1, 0.9, 0.5, 0.2], 2.5, 2.0),
           "scan peak next to the magic angle failed")
    expect(checks.scan_peak(phis, [0.1, 0.5, 0.6, 0.9], 2.5, 2.0),
           "scan peak two steps from the magic angle passed")


def test_missing_function():
    fake = types.SimpleNamespace(dynamics=types.SimpleNamespace())
    tracer = Tracer()
    tracer.install(fake)  # must not raise
    expect(any("dynamics.simulate_ramsey" in m for m in tracer.missing),
           f"missing functions not reported: {tracer.missing}")


def test_cli_command_and_corruption(tmp: Path):
    run = Run(1, 0.0, True, tmp)
    out = tmp / "magic-find"
    with run.tracer.window("pass"):
        wall, code, _, problems = run_cli(
            run, ["magic-find", "--config",
                  ROOT / "configs" / "magic_find_phi0.json", "--out", out],
            op=0, traced=True)
    if code == 0:
        problems += checks.finite_artifacts(out) + checks.magic_find(out)
    run.op("magic-find", problems)
    expect(code == 0 and not run.failures,
           f"magic-find failed: {run.failures}")
    names = {s[0] for s in run.tracer.spans}
    for name in ("cli.import", "cli.main", "cli.interpreter",
                 "atomstark.magic_angle"):
        expect(name in names, f"child span {name} not merged")
    m = per_layer(run.tracer)
    expect(m["cli.commands"] == 1, f"commands {m['cli.commands']}")
    expect(m["atomstark.shift_evals"] > 0, "child totals not merged")
    expect(m["trace.coverage"] > 0.9, f"child coverage {m['trace.coverage']}")

    # the same output with one number replaced by NaN must fail
    bad = tmp / "corrupt"
    shutil.copytree(out, bad)
    text = (bad / "magic.csv").read_text().splitlines()
    cells = text[1].split(",")
    cells[-1] = "nan"
    (bad / "magic.csv").write_text(f"{text[0]}\n{','.join(cells)}\n")
    found = checks.finite_artifacts(bad)
    expect(found, "NaN in magic.csv passed the finite check")
    run.op("corrupted magic-find", found + checks.magic_find(bad))
    expect(run.attempted == 2 and len(run.failures) == 1
           and run.failures[0][0] == "corrupted magic-find",
           f"corrupted output not counted as failed: {run.failures}")


def main() -> int:
    names = test_metric_names()
    test_in_process_trace(names)
    test_missing_function()
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_run") as tmp:
        test_cli_command_and_corruption(Path(tmp))
    for p in PROBLEMS:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if PROBLEMS else "ok")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
