"""The three workloads. Each drives fsqubit as one closed-loop caller: an
operation starts when the previous one returned, and at most one child
process runs at a time.

A run is set-up (repeated, median reported) followed by timed passes until
the run length is used up. A pass is one CLI tour, one angle scan or one
set of long traces; no call in a run repeats an earlier call's inputs, so a
memo cache cannot pass for a speed-up. In a traced run, untraced and traced
passes alternate; only the traced passes and the set-ups feed the per-layer
metrics, and the difference of their medians is the tracing overhead.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import checks
from tracer import Tracer, clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
CONFIGS = ROOT / "configs"
# Set-up repetitions per run; setup_s is their median. An mc-* set-up
# builds the focal field (about 9 s on 2 shared CPUs), so it runs twice.
SETUPS = {"cli-tour": 3, "mc": 2}
CHILD_TIMEOUT_S = 150
# Trials per scan angle: the contrast at 20 deg exceeds that at 22 deg by
# about 0.02, over four standard errors at this count.
SCAN_TRIALS = 1200
TRACE_TRIALS = {"ramsey_fock": 4000, "echo_fluct": 2000,
                "ramsey_classical": 2000}


def _config(name: str) -> dict:
    return json.loads((CONFIGS / f"{name}.json").read_text())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """State of one benchmark run: operations, samples, spans, hashes."""

    def __init__(self, seed, seconds, trace, out_dir: Path):
        self.seed = seed
        self.seconds = seconds
        self.dir = out_dir
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []
        self.hashes: dict[str, str] = {}
        self.samples: dict[str, list[float]] = {}
        self.passes: list[tuple[bool, float]] = []  # (traced, wall_s)
        self.trials_per_pass = 0
        self.peak_rss_mb = 0.0

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def op(self, label, problems):
        self.attempted += 1
        if problems:
            self.failures.append((label, problems))

    def record_hashes(self, out_dir: Path):
        for path in sorted(out_dir.rglob("*.csv")):
            self.hashes[str(path.relative_to(self.dir))] = _sha256(path)

    def timed_passes(self, one_pass):
        """Closed loop of passes until ``seconds`` have been measured, with
        at least one untraced pass and, in a traced run, one traced."""
        start = clock()
        p = 0
        while True:
            traced = self.tracer is not None and p % 2 == 1
            self.passes.append((traced, one_pass(p, traced)))
            p += 1
            if (clock() - start >= self.seconds
                    and (self.tracer is None or p >= 2)):
                return


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return env


def run_cli(run: Run, argv, op: int, traced: bool):
    """One CLI command in a fresh process; returns (wall_s, exit code,
    stdout, problems). A traced child's spans are merged under ``op``."""
    cmd = [sys.executable, str(HERE / "cli_child.py")]
    spans = run.dir / f"spans-{op}.json"
    if traced:
        cmd += ["--spans", str(spans), "--op", str(op)]
    t0 = clock()
    try:
        proc = subprocess.run(cmd + ["--"] + [str(a) for a in argv], cwd=ROOT,
                              env=_child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return clock() - t0, None, "", [f"timed out after {CHILD_TIMEOUT_S} s"]
    t1 = clock()
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}: "
                        f"{proc.stderr.strip()[-300:]}")
    if traced and spans.exists():
        exported = json.loads(spans.read_text())
        spans.unlink()
        # process start until the script's first line, and its last line
        # until the parent saw the exit: interpreter start-up and tear-down
        start, end = exported["script"]
        exported["spans"] += [["cli.interpreter", t0, start, None, op, None],
                              ["cli.interpreter", end, t1, None, op, None]]
        run.tracer.merge(exported, op)
    return t1 - t0, proc.returncode, proc.stdout, problems


# ------------------------------------------------------------- cli-tour

def cli_tour(run: Run):
    """Five commands per tour, each in its own fresh process."""
    mf_cfg = _config("magic_find_phi0")
    t2_cfg = _config("t2_shallow_magic_8G")
    sm_cfg = _config("shiftmap_magic_46uW")
    env = _child_env()

    # set-up: a fresh process that imports the package, so later children
    # find the interpreter, libraries and sources in the page cache
    for _ in range(SETUPS["cli-tour"]):
        t0 = clock()
        subprocess.run([sys.executable, "-c", "import fsqubit.cli"],
                       cwd=ROOT, env=env, check=True, timeout=CHILD_TIMEOUT_S)
        run.sample("setup_s", clock() - t0)

    def tour(k, traced):
        d = run.dir / f"tour{k}"
        d.mkdir(parents=True)
        # tour 0 runs the shipped configs; later tours nudge inputs that
        # cannot move the checked results, so no command repeats its input
        seed = run.seed + 1_000_003 * k
        mf = copy.deepcopy(mf_cfg)
        mf["field"]["magnitude_G"] += 1e-3 * k
        sm = copy.deepcopy(sm_cfg)
        sm["tweezer"]["power_mW"] *= 1.0 + 1e-6 * k
        t2 = dict(t2_cfg, seed=seed)
        fit = {"schema_version": 1, "tweezer": t2_cfg["tweezer"],
               "field": t2_cfg["field"],
               "fit": {"trace_csv": str(d / "t2" / "trace.csv"),
                       "mode": "envelope",
                       "f_fringe_MHz": t2_cfg["drive"]["fringe_MHz"]}}
        for name, cfg in (("magic_find", mf), ("t2", t2), ("shiftmap", sm),
                          ("fit", fit)):
            (d / f"{name}.json").write_text(json.dumps(cfg))
        steps = [
            ("magic-find", ["magic-find", "--config", d / "magic_find.json",
                            "--out", d / "magic-find"]),
            ("validate", ["validate", "--config", d / "t2.json",
                          "--subcommand", "t2"]),
            ("shiftmap", ["shiftmap", "--config", d / "shiftmap.json",
                          "--out", d / "shiftmap"]),
            ("t2", ["t2", "--config", d / "t2.json", "--out", d / "t2",
                    "--seed", seed]),
            ("fit", ["fit", "--config", d / "fit.json", "--out", d / "fit"]),
        ]
        results = {}
        wall = 0.0
        with run.tracer.window("pass") if traced else nullcontext() as win:
            for i, (name, argv) in enumerate(steps):
                results[name] = run_cli(run, argv, 10 * k + i, traced)
                wall += results[name][0]
        t2_value = None
        for name, (cmd_wall, code, stdout, problems) in results.items():
            out = d / name
            if code == 0 and name == "validate":
                problems += checks.validate_report(stdout)
            elif code == 0:
                problems += checks.finite_artifacts(out)
                if name == "magic-find":
                    problems += checks.magic_find(out)
                elif name == "shiftmap":
                    problems += checks.shiftmap(out)
                elif name == "t2":
                    found, t2_value = checks.t2_fit(out)
                    problems += found
                elif name == "fit":
                    problems += checks.refit_matches(out, t2_value)
            run.op(f"tour {k} {name}", problems)
            if not traced:
                run.sample(f"command.{name}_s", cmd_wall)
                if name in ("magic-find", "validate", "fit"):
                    run.sample("cold_start_s", cmd_wall)
            if win is not None and out.is_dir():
                win["extra"]["cli.bytes_written"] = win["extra"].get(
                    "cli.bytes_written", 0) + sum(
                    f.stat().st_size for f in out.iterdir())
        run.record_hashes(d)
        return wall

    run.trials_per_pass = t2_cfg["trials"]
    run.timed_passes(tour)
    run.peak_rss_mb = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ------------------------------------------------------------- mc set-up

def _cold_validate(run: Run, name: str, subcommand: str, label: str):
    """A fresh-process validate of the workload's config: a cold start."""
    wall, code, stdout, problems = run_cli(
        run, ["validate", "--config", CONFIGS / f"{name}.json",
              "--subcommand", subcommand], op=-1, traced=False)
    if code == 0:
        problems += checks.validate_report(stdout)
    run.op(f"{label} validate", problems)
    run.sample("cold_start_s", wall)


def _mc_workload(run: Run, name: str, subcommand: str, make_pass):
    """Set-up, then timed passes of ``make_pass(run, cfg, scene)``. Cold starts
    are timed before each set-up and after the passes, so their median
    spans the run."""
    cfg, scene = _mc_setup(run, name, subcommand)
    run.timed_passes(make_pass(run, cfg, scene))
    _cold_validate(run, name, subcommand, "final")
    run.peak_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _mc_setup(run: Run, name: str, subcommand: str):
    """Import, then SETUPS x (check config, table, calibrated field, magic
    angle, trap)."""
    tracer = run.tracer
    with tracer.window("import") if tracer else nullcontext():
        t0 = clock()
        import fsqubit.cli as cli
        from fsqubit import atomstark, focalfield, trapmodel
        from fsqubit.params import (FieldEnvironment, MagneticField,
                                    TweezerConfig)
        import_s = clock() - t0
        if tracer is not None:
            tracer.spans.append(["cli.import", t0, t0 + import_s, None, None,
                                 None])
    if tracer is not None:
        tracer.install(sys.modules["fsqubit"])

    cfg = _config(name)
    tw_cfg = cfg["tweezer"]
    scene = None
    for r in range(SETUPS["mc"]):
        _cold_validate(run, name, subcommand, f"setup {r}")
        t0 = clock()
        with tracer.window("setup") if tracer else nullcontext():
            issues = cli.check_config(cfg, subcommand)
            table = atomstark.load_table(cfg.get("table"))
            # repetitions differ in the last digits of the target waist so
            # that no build repeats an earlier build's inputs
            tw = TweezerConfig(
                wavelength_nm=float(tw_cfg["wavelength_nm"]),
                power_W=float(tw_cfg["power_mW"]) * 1e-3,
                na=float(tw_cfg["na"]),
                target_waist_nm=float(tw_cfg["waist_nm"]) * (1 + 1e-9 * r))
            field = focalfield.build_field(tw)
            b_gauss = float(cfg["field"]["magnitude_G"])
            magic = atomstark.find_magic_angle(
                FieldEnvironment(tw, MagneticField(b_gauss, 0.0)), table)
            if magic is None:
                raise RuntimeError("no magic angle at the configured "
                                   "wavelength")
            env = FieldEnvironment(tw, MagneticField(b_gauss, magic))
            trap = trapmodel.characterize_trap(tw, env, table, field=field)
        run.sample("setup_s", clock() - t0)
        if issues:
            raise RuntimeError(f"config {name} fails check_config: {issues}")
        if scene is None:
            scene = SimpleNamespace(table=table, tweezer=tw, field=field,
                                    magic=magic, env=env, trap=trap,
                                    b_gauss=b_gauss)
    run.samples["setup_s"] = [import_s + s for s in run.samples["setup_s"]]
    return cfg, scene


def _drive(cfg):
    """(Rabi rad/s, fringe Hz, temperature K) of a config."""
    return (2 * math.pi * float(cfg["drive"]["rabi_kHz"]) * 1e3,
            float(cfg["drive"]["fringe_MHz"]) * 1e6,
            float(cfg.get("temperature_uK", 0.0)) * 1e-6)


def _in_process_pass(run: Run, traced: bool, body):
    """Time ``body`` (the operations of one pass), traced or not."""
    tracer = run.tracer
    if tracer is not None:
        tracer.uninstall()
        if traced:
            tracer.install(sys.modules["fsqubit"])
    with tracer.window("pass") if traced else nullcontext():
        t0 = clock()
        body()
        return clock() - t0


# ------------------------------------------------------------- mc-scan

def _scan_pass(run: Run, cfg: dict, scene):
    """The angle list of magic_scan_8G: per angle one characterize_trap,
    one simulate_ramsey on the 28-point window at t_R, one
    extract_contrast."""
    import numpy as np
    from fsqubit import analysis, dynamics, trapmodel
    from fsqubit.params import FieldEnvironment, MagneticField, NoiseModel

    omega, f_fr, temp_k = _drive(cfg)
    sc = cfg["angle_scan"]
    t = float(sc["t_r_us"]) * 1e-6 + (np.arange(28) / 28) * (5.0 / f_fr)
    base = np.linspace(float(sc["start_deg"]), float(sc["stop_deg"]),
                       int(sc["points"]))
    step = float(base[1] - base[0])
    noise = NoiseModel()
    model = cfg.get("protocol", {}).get("motional_model", "fock")
    run.trials_per_pass = SCAN_TRIALS * len(base)

    def scan(p, traced):
        # a per-pass offset far below the grid step keeps every
        # characterize_trap call's input new
        phis = base + np.random.default_rng([run.seed, p]).uniform(0, 0.01)
        d = run.dir / f"pass{p:03d}"
        d.mkdir(parents=True)
        outcome = []

        def body():
            for k, phi in enumerate(phis):
                seed = int(np.random.SeedSequence(
                    entropy=run.seed, spawn_key=(p, k)).generate_state(1)[0])
                if traced:
                    run.tracer.op = (p, k)
                try:
                    env_k = FieldEnvironment(scene.tweezer, MagneticField(
                        scene.b_gauss, float(phi)))
                    trap_k = trapmodel.characterize_trap(
                        scene.tweezer, env_k, scene.table, field=scene.field)
                    trace = dynamics.simulate_ramsey(
                        trap_k, temp_k, noise, omega, f_fr, t, SCAN_TRIALS,
                        seed, motional_model=model)
                    dynamics.write_trace_csv(trace, d / f"{k:02d}.csv")
                    point = analysis.extract_contrast(
                        trace.t_s, trace.p32_mean, f_fr, window_periods=5.0)[0]
                    outcome.append((k, trace, point, None))
                except Exception as exc:  # counted as a failed operation
                    outcome.append((k, None, None, exc))

        wall = _in_process_pass(run, traced, body)
        problems = {}
        contrasts = []
        for k, trace, point, exc in outcome:
            if exc is not None:
                problems[k] = [f"{type(exc).__name__}: {exc}"]
            else:
                problems[k] = (checks.populations(
                    f"angle {k}", trace.p32_mean, noise.spam_scale)
                    + checks.finite_csv(d / f"{k:02d}.csv"))
                contrasts.append(point.contrast)
        # a misplaced contrast peak fails every operation of the scan
        peak = (checks.scan_peak(list(phis), contrasts, scene.magic, step)
                if len(contrasts) == len(phis) else [])
        for k, found in problems.items():
            run.op(f"pass {p} angle {k}", found + peak)
        run.record_hashes(d)
        return wall

    return scan


# ------------------------------------------------------------- mc-trace

def _trace_pass(run: Run, cfg: dict, scene):
    """Three long traces on the 801-point grid of ramsey_shallow_magic_8G:
    fock Ramsey (about half the trials), echo with fluctuating detuning,
    classical Ramsey with field-angle jitter."""
    from dataclasses import replace

    import numpy as np
    from fsqubit import analysis, dynamics
    from fsqubit.params import NoiseModel

    omega, f_fr, temp_k = _drive(cfg)
    tg = cfg["time_grid"]
    t = np.linspace(float(tg.get("start_us", 0.0)) * 1e-6,
                    float(tg["stop_us"]) * 1e-6, int(tg["points"]))
    nz = cfg.get("noise", {})
    noise = NoiseModel(
        rabi_frac_std=float(nz.get("rabi_frac_std", 0.0)),
        detuning_offset_std=2 * math.pi
        * float(nz.get("detuning_offset_std_Hz", 0.0)),
        prep_efficiency=float(nz.get("prep_efficiency", 1.0)),
        readout_fidelity=float(nz.get("readout_fidelity", 1.0)))
    jitter = replace(noise, phi_jitter_std_deg=0.2)
    ctx = {"field": scene.field, "env": scene.env, "table": scene.table}
    calls = [
        ("ramsey_fock", "simulate_ramsey", noise, {}),
        ("echo_fluct", "simulate_echo", noise,
         {"fluctuating_detuning": True}),
        ("ramsey_classical", "simulate_ramsey", jitter,
         dict(ctx, motional_model="classical")),
    ]
    run.trials_per_pass = sum(TRACE_TRIALS.values())

    def traces(p, traced):
        d = run.dir / f"pass{p:03d}"
        d.mkdir(parents=True)
        outcome = []

        def body():
            for k, (name, fn_name, nm, kwargs) in enumerate(calls):
                seed = int(np.random.SeedSequence(
                    entropy=run.seed, spawn_key=(p, k)).generate_state(1)[0])
                if traced:
                    run.tracer.op = (p, k)
                # looked up at call time so a traced pass sees the wrapper
                fn = getattr(dynamics, fn_name)
                try:
                    trace = fn(scene.trap, temp_k, nm, omega, f_fr, t,
                               TRACE_TRIALS[name], seed, **kwargs)
                    dynamics.write_trace_csv(trace, d / f"{name}.csv")
                    points = analysis.extract_contrast(
                        trace.t_s, trace.p32_mean, f_fr, window_periods=5.0)
                    outcome.append((name, nm, trace, points, None))
                except Exception as exc:  # counted as a failed operation
                    outcome.append((name, nm, None, None, exc))

        wall = _in_process_pass(run, traced, body)
        for name, nm, trace, points, exc in outcome:
            if exc is not None:
                problems = [f"{type(exc).__name__}: {exc}"]
            else:
                problems = (checks.populations(name, trace.p32_mean,
                                               nm.spam_scale)
                            + checks.finite_csv(d / f"{name}.csv"))
                if name.startswith("ramsey"):
                    problems += checks.first_contrast(name, points)
            run.op(f"pass {p} {name}", problems)
        run.record_hashes(d)
        return wall

    return traces


WORKLOADS = {
    "cli-tour": cli_tour,
    "mc-scan": lambda run: _mc_workload(run, "magic_scan_8G", "magic-scan",
                                        _scan_pass),
    "mc-trace": lambda run: _mc_workload(run, "ramsey_shallow_magic_8G",
                                         "ramsey", _trace_pass),
}


def end_to_end(run: Run) -> dict[str, tuple[float, int]]:
    """(value, sample count) of every end-to-end metric."""
    untraced = [w for traced, w in run.passes if not traced]
    wall = statistics.median(untraced)
    return {
        "setup_s": (statistics.median(run.samples["setup_s"]),
                    len(run.samples["setup_s"])),
        "wall_s": (wall, len(untraced)),
        "cold_start_s": (statistics.median(run.samples["cold_start_s"]),
                         len(run.samples["cold_start_s"])),
        "trials_per_s": (run.trials_per_pass / wall, len(untraced)),
        "peak_rss_mb": (run.peak_rss_mb, 1),
    }
