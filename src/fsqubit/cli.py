"""Config-driven command line for the trap, field, and coherence tools.

Usage: ``fsqubit <subcommand> --config cfg.json --out dir [--seed N]
[--trials N]``. Subcommands: ``rabi``, ``ramsey``, ``t2``, ``magic-scan``,
``phinoise``, ``shiftmap``, ``magic-find``, ``fit``, and ``validate``
(checks a config without running anything).

Configs are JSON with a ``schema_version`` field; every physical key
carries its unit in the name (``power_mW``, ``t_r_us``). Seeds are
mandatory for anything that samples - runs never touch the wall clock, so
identical config + seed gives byte-identical output files. ``--seed`` and
``--trials`` override the config values and are recorded as overridden.

Each run computes everything first, then writes its data files plus
``meta.json`` through a temp-file rename, so a failed run leaves no
partial artifacts. ``meta.json`` embeds the effective config; passing a
``meta.json`` back as ``--config`` reproduces the run. Any module error
prints one JSON object (``{"error": {"type", "message"}}``) on stderr and
exits 1. ``validate`` prints an issue report on stdout and exits 0 when
clean, 2 when issues were found.

The default polarizability table comes from ``$FSQUBIT_TABLE`` or the
packaged fixture; ``"table"`` in the config overrides both.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import analysis, atomstark, dynamics, focalfield, trapmodel
from .errors import FsqubitError, NoDecayObserved
from .params import FieldEnvironment, MagneticField, NoiseModel, TweezerConfig

SCHEMA_VERSION = 1

_SIM_COMMANDS = ("rabi", "ramsey", "t2", "magic-scan", "phinoise")
_RUN_COMMANDS = _SIM_COMMANDS + ("shiftmap", "magic-find", "fit")

_TOP_KEYS = {"schema_version", "table", "tweezer", "field", "drive",
             "temperature_uK", "noise", "protocol", "time_grid",
             "burst_grid", "angle_scan", "phi_noise_scan", "map_grid",
             "fit", "trials", "seed"}


class ConfigError(FsqubitError):
    """Config failed structural or physics validation."""


# ---------------------------------------------------------------- loading

def _finite_float(text):
    # NaN/Infinity literals and overflowing ones like 1e400
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text} in config")
    return value


def _float_sized_int(text):
    # integer literals too large for a float, like a 400-digit power_mW
    value = int(text)
    try:
        float(value)
    except OverflowError:
        raise ConfigError(f"{len(text)}-digit integer in config is too "
                          "large for a float") from None
    return value


def _load_config(path) -> dict:
    with open(path) as fh:
        cfg = json.load(fh, parse_float=_finite_float,
                        parse_int=_float_sized_int,
                        parse_constant=_finite_float)
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    # a meta.json from a previous run embeds the config it ran with
    if "config" in cfg and "subcommand" in cfg:
        cfg = cfg["config"]
        if not isinstance(cfg, dict):
            raise ConfigError("metadata 'config' must be a JSON object")
    return cfg


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_block(issues, cfg, name, required):
    block = cfg.get(name)
    if block is None:
        if required:
            issues.append(f"missing: section '{name}' is required")
        return None
    if not isinstance(block, dict):
        issues.append(f"type: '{name}' must be an object")
        return None
    return block


def _check_pos(issues, block, section, key, required=False,
               nonneg=False) -> None:
    if key not in block:
        if required:
            issues.append(f"missing: {section}.{key} is required")
        return
    v = block[key]
    if not _is_num(v):
        issues.append(f"type: {section}.{key} must be a number")
    elif nonneg and v < 0:
        issues.append(f"range: {section}.{key} must be >= 0")
    elif not nonneg and v <= 0:
        issues.append(f"range: {section}.{key} must be > 0")


def check_config(cfg: dict, subcommand: str) -> list[str]:
    """Structural and physics sanity issues; empty list means runnable."""
    issues: list[str] = []
    if cfg.get("schema_version") != SCHEMA_VERSION:
        issues.append(
            f"schema: schema_version must be {SCHEMA_VERSION}")
    for key in sorted(set(cfg) - _TOP_KEYS):
        issues.append(f"schema: unknown key '{key}'")

    tw = _check_block(issues, cfg, "tweezer", required=True)
    if tw is not None:
        _check_pos(issues, tw, "tweezer", "wavelength_nm", required=True)
        _check_pos(issues, tw, "tweezer", "power_mW", required=True)
        _check_pos(issues, tw, "tweezer", "na", required=True)
        if _is_num(tw.get("na")) and tw["na"] >= 1:
            issues.append("range: tweezer.na must be < 1")
        _check_pos(issues, tw, "tweezer", "waist_nm")
        _check_pos(issues, tw, "tweezer", "filling_factor")
        if "pol_axis" in tw:
            issues.append("schema: tweezer.pol_axis is retired; "
                          "field.phi_deg alone sets the polarization angle")

    fl = _check_block(issues, cfg, "field", required=True)
    if fl is not None:
        _check_pos(issues, fl, "field", "magnitude_G", required=True,
                   nonneg=True)
        phi = fl.get("phi_deg", "missing")
        if phi == "missing":
            issues.append("missing: field.phi_deg is required")
        elif not (_is_num(phi) or phi == "magic"):
            issues.append("value: field.phi_deg must be a number or "
                          "'magic'")
    # the magic roots use the Gaussian center polarization of the waist
    if tw is not None and tw.get("waist_nm") is None and (
            subcommand == "magic-find"
            or (fl is not None and fl.get("phi_deg") == "magic")):
        issues.append("missing: tweezer.waist_nm is required for magic "
                      "roots (field.phi_deg 'magic' or magic-find)")

    needs_fringe = subcommand in ("ramsey", "t2", "magic-scan", "phinoise")
    dr = _check_block(issues, cfg, "drive",
                      required=subcommand in _SIM_COMMANDS)
    if dr is not None:
        _check_pos(issues, dr, "drive", "rabi_kHz",
                   required=subcommand in _SIM_COMMANDS)
        _check_pos(issues, dr, "drive", "fringe_MHz",
                   required=needs_fringe)

    if "temperature_uK" in cfg:
        v = cfg["temperature_uK"]
        if not _is_num(v) or v < 0:
            issues.append("range: temperature_uK must be a number >= 0")

    nz = _check_block(issues, cfg, "noise", required=False)
    if nz is not None:
        for key in ("rabi_frac_std", "phi_jitter_std_deg",
                    "detuning_offset_std_Hz"):
            _check_pos(issues, nz, "noise", key, nonneg=True)
        for key in ("prep_efficiency", "readout_fidelity"):
            if key in nz and (not _is_num(nz[key])
                              or not 0 <= nz[key] <= 1):
                issues.append(f"range: noise.{key} must be in [0, 1]")

    pr = _check_block(issues, cfg, "protocol", required=False)
    name = "ramsey"
    if pr is not None:
        name = pr.get("name", "ramsey")
        allowed = {"rabi": ("rabi",), "ramsey": ("ramsey", "echo"),
                   "t2": ("ramsey", "echo")}.get(subcommand,
                                                 ("ramsey",))
        if subcommand in _SIM_COMMANDS and name not in allowed:
            issues.append(f"value: protocol.name {name!r} not valid for "
                          f"'{subcommand}' (allowed: {sorted(allowed)})")
        if pr.get("motional_model", "fock") not in ("fock", "classical"):
            issues.append("value: protocol.motional_model must be 'fock' "
                          "or 'classical'")
        for key in ("instantaneous_pulses", "fluctuating_detuning"):
            if key in pr and not isinstance(pr[key], bool):
                issues.append(f"type: protocol.{key} must be a boolean")

    tg = _check_block(issues, cfg, "time_grid",
                      required=subcommand in ("rabi", "ramsey"))
    if tg is not None:
        _check_pos(issues, tg, "time_grid", "start_us", nonneg=True)
        _check_pos(issues, tg, "time_grid", "stop_us", required=True)
        pts = tg.get("points")
        if not isinstance(pts, int) or pts < 2:
            issues.append("range: time_grid.points must be an integer "
                          ">= 2")
        elif (_is_num(tg.get("stop_us")) and
              tg.get("stop_us", 1) <= tg.get("start_us", 0.0)):
            issues.append("range: time_grid.stop_us must exceed start_us")

    bg = _check_block(issues, cfg, "burst_grid",
                      required=subcommand in ("t2", "phinoise"))
    if bg is not None:
        _check_pos(issues, bg, "burst_grid", "t2_guess_us", required=True)
        for key in ("n_windows", "points_per_window"):
            if key in bg and (not isinstance(bg[key], int)
                              or bg[key] < 2):
                issues.append(f"range: burst_grid.{key} must be an "
                              "integer >= 2")
        _check_pos(issues, bg, "burst_grid", "window_periods")
        _check_pos(issues, bg, "burst_grid", "span_factor")

    sc = _check_block(issues, cfg, "angle_scan",
                      required=subcommand == "magic-scan")
    if sc is not None:
        _check_pos(issues, sc, "angle_scan", "start_deg", required=True,
                   nonneg=True)
        _check_pos(issues, sc, "angle_scan", "stop_deg", required=True)
        if not isinstance(sc.get("points"), int) or sc["points"] < 2:
            issues.append("range: angle_scan.points must be an integer "
                          ">= 2")
        _check_pos(issues, sc, "angle_scan", "t_r_us", required=True)
        if sc.get("normalize", "max") not in ("max", "none"):
            issues.append("value: angle_scan.normalize must be 'max' or "
                          "'none'")

    ps = _check_block(issues, cfg, "phi_noise_scan",
                      required=subcommand == "phinoise")
    if ps is not None:
        vals = ps.get("values_deg")
        if vals is not None:
            if (not isinstance(vals, list) or len(vals) < 1
                    or not all(_is_num(v) and v >= 0 for v in vals)):
                issues.append("value: phi_noise_scan.values_deg must be "
                              "a list of numbers >= 0")
        else:
            _check_pos(issues, ps, "phi_noise_scan", "start_deg",
                       required=True, nonneg=True)
            _check_pos(issues, ps, "phi_noise_scan", "stop_deg",
                       required=True)
            if (not isinstance(ps.get("points"), int)
                    or ps["points"] < 2):
                issues.append("range: phi_noise_scan.points must be an "
                              "integer >= 2")

    mg = _check_block(issues, cfg, "map_grid", required=False)
    if mg is not None:
        if mg.get("half_extent_nm") is not None:
            _check_pos(issues, mg, "map_grid", "half_extent_nm")
        if "points" in mg and (not isinstance(mg["points"], int)
                               or mg["points"] < 11):
            issues.append("range: map_grid.points must be an integer "
                          ">= 11")

    ft = _check_block(issues, cfg, "fit", required=subcommand == "fit")
    if ft is not None:
        path = ft.get("trace_csv")
        if not isinstance(path, str):
            issues.append("missing: fit.trace_csv is required")
        elif not Path(path).exists():
            issues.append(f"file: fit.trace_csv {path!r} does not exist")
        mode = ft.get("mode")
        if mode not in ("sinusoid", "envelope"):
            issues.append("value: fit.mode must be 'sinusoid' or "
                          "'envelope'")
        if ft.get("f_fringe_MHz") is not None:
            _check_pos(issues, ft, "fit", "f_fringe_MHz")
        elif mode == "envelope":
            issues.append("missing: fit.f_fringe_MHz is required for "
                          "envelope mode")
        _check_pos(issues, ft, "fit", "window_periods")

    if subcommand in _SIM_COMMANDS:
        if not isinstance(cfg.get("trials"), int) or cfg["trials"] < 1:
            issues.append("range: trials must be an integer >= 1")
        if not isinstance(cfg.get("seed"), int) or cfg["seed"] < 0:
            issues.append("missing: seed must be an integer >= 0 (runs "
                          "never seed from the clock)")

    # table loadability and wavelength coverage - the one check that
    # touches the filesystem beyond the config itself
    spec = cfg.get("table")
    if spec is not None and not isinstance(spec, str):
        issues.append("type: table must be a string")
        spec = None
    try:
        table = atomstark.load_table(spec)
    except (FsqubitError, OSError) as exc:
        issues.append(f"file: polarizability table: {exc}")
        table = None
    lam = tw.get("wavelength_nm") if tw else None
    if table is not None and _is_num(lam):
        for state in (atomstark.GROUND, atomstark.EXCITED):
            lo, hi = table.span_nm(state)
            if not lo <= lam <= hi:
                issues.append(
                    f"coverage: wavelength {lam} nm outside table span "
                    f"[{lo:g}, {hi:g}] nm for {state}")
    return issues


# ---------------------------------------------------------------- builders

def _tweezer_from(cfg) -> TweezerConfig:
    tw = cfg["tweezer"]
    return TweezerConfig(
        wavelength_nm=float(tw["wavelength_nm"]),
        power_W=float(tw["power_mW"]) * 1e-3,
        na=float(tw["na"]),
        target_waist_nm=(float(tw["waist_nm"])
                         if tw.get("waist_nm") is not None else None),
        filling_factor=(float(tw["filling_factor"])
                        if tw.get("filling_factor") is not None else None))


def _noise_from(cfg) -> NoiseModel:
    nz = cfg.get("noise", {})
    return NoiseModel(
        rabi_frac_std=float(nz.get("rabi_frac_std", 0.0)),
        phi_jitter_std_deg=float(nz.get("phi_jitter_std_deg", 0.0)),
        detuning_offset_std=2 * math.pi
        * float(nz.get("detuning_offset_std_Hz", 0.0)),
        prep_efficiency=float(nz.get("prep_efficiency", 1.0)),
        readout_fidelity=float(nz.get("readout_fidelity", 1.0)))


def _resolve_phi(cfg, table, tweezer) -> tuple[float, bool]:
    phi = cfg["field"]["phi_deg"]
    if phi != "magic":
        return float(phi), False
    env0 = FieldEnvironment(tweezer,
                            MagneticField(cfg["field"]["magnitude_G"], 0.0))
    root = atomstark.find_magic_angle(env0, table)
    if root is None:
        raise ConfigError("field.phi_deg is 'magic' but no magic angle "
                          "exists at this wavelength")
    return root, True


class _Scenario:
    """Shared lazy setup: table, env, focal field, trap."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.table = atomstark.load_table(cfg.get("table"))
        self.tweezer = _tweezer_from(cfg)
        self.phi_deg, self.phi_was_magic = _resolve_phi(cfg, self.table,
                                                        self.tweezer)
        self.env = FieldEnvironment(
            self.tweezer,
            MagneticField(float(cfg["field"]["magnitude_G"]),
                          self.phi_deg))
        self.noise = _noise_from(cfg)
        self.temperature_K = float(cfg.get("temperature_uK", 0.0)) * 1e-6
        self._field = None
        self._trap = None

    @property
    def field(self):
        if self._field is None:
            self._field = focalfield.build_field(self.tweezer)
        return self._field

    @property
    def trap(self) -> trapmodel.TrapCharacterization:
        if self._trap is None:
            self._trap = trapmodel.characterize_trap(
                self.tweezer, self.env, self.table, field=self.field)
        return self._trap

    def omega_rad_s(self) -> float:
        return 2 * math.pi * float(self.cfg["drive"]["rabi_kHz"]) * 1e3

    def f_fringe_hz(self) -> float:
        return float(self.cfg["drive"]["fringe_MHz"]) * 1e6

    def protocol(self) -> dict:
        pr = dict(self.cfg.get("protocol", {}))
        pr.setdefault("name", "ramsey")
        pr.setdefault("motional_model", "fock")
        pr.setdefault("instantaneous_pulses", False)
        pr.setdefault("fluctuating_detuning", False)
        return pr

    def resolved(self) -> dict:
        out = {"phi_deg": self.phi_deg,
               "phi_was_magic": self.phi_was_magic}
        if self._field is not None:
            out["waist_nm"] = self._field.waist_m * 1e9
            out["filling_factor"] = self._field.filling_factor
        if self._trap is not None:
            out["trap"] = self._trap.to_json_dict()
        return out


def _time_grid_s(cfg) -> np.ndarray:
    tg = cfg["time_grid"]
    return np.linspace(float(tg.get("start_us", 0.0)) * 1e-6,
                       float(tg["stop_us"]) * 1e-6, int(tg["points"]))


def _burst_grid_s(cfg, f_fringe_hz) -> tuple[np.ndarray, float]:
    bg = cfg["burst_grid"]
    wp = float(bg.get("window_periods", 5.0))
    grid = dynamics.ramsey_burst_grid(
        float(bg["t2_guess_us"]) * 1e-6, f_fringe_hz,
        n_windows=int(bg.get("n_windows", 9)),
        points_per_window=int(bg.get("points_per_window", 28)),
        window_periods=wp,
        span_factor=float(bg.get("span_factor", 2.5)))
    return grid, wp


def _phi_context(scn):
    """(field, env, table) when angle jitter is on, else Nones."""
    if scn.noise.phi_jitter_std_deg > 0:
        return {"field": scn.field, "env": scn.env, "table": scn.table}
    return {"field": None, "env": None, "table": None}


# ---------------------------------------------------------------- writers

def _write_json(obj):
    def write(path):
        with open(path, "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return write


def _write_rows(header, rows):
    def write(path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
    return write


def _trace_artifacts(trace, noise):
    """trace.csv plus the SPAM-free trace when SPAM is not identity (the
    multiplicative model divides out exactly)."""
    arts = [("trace.csv", lambda p: dynamics.write_trace_csv(trace, p))]
    scale = noise.spam_scale
    if scale != 1.0:
        ideal = dynamics.TraceResult(
            t_s=trace.t_s, p32_mean=np.clip(trace.p32_mean / scale, 0, 1),
            p32_sem=trace.p32_sem / scale, trials=trace.trials,
            master_seed=trace.master_seed)
        arts.append(("trace_ideal.csv",
                     lambda p: dynamics.write_trace_csv(ideal, p)))
    return arts


# ------------------------------------------------------------- subcommands

def _run_trace(cfg, subcommand):
    scn = _Scenario(cfg)
    proto = scn.protocol()
    trials, seed = int(cfg["trials"]), int(cfg["seed"])
    t = _time_grid_s(cfg) if subcommand != "t2" else None
    if subcommand == "rabi" or proto["name"] == "rabi":
        trace = dynamics.simulate_rabi(
            scn.trap, scn.temperature_K, scn.noise, scn.omega_rad_s(), t,
            trials, seed, motional_model=proto["motional_model"],
            **_phi_context(scn))
        return scn, trace, None
    f_fr = scn.f_fringe_hz()
    t, wp = _burst_grid_s(cfg, f_fr) if subcommand == "t2" else (t, None)
    sim = (dynamics.simulate_echo if proto["name"] == "echo"
           else dynamics.simulate_ramsey)
    kwargs = dict(motional_model=proto["motional_model"],
                  instantaneous_pulses=proto["instantaneous_pulses"],
                  **_phi_context(scn))
    if proto["name"] == "echo":
        kwargs["fluctuating_detuning"] = proto["fluctuating_detuning"]
    trace = sim(scn.trap, scn.temperature_K, scn.noise, scn.omega_rad_s(),
                f_fr, t, trials, seed, **kwargs)
    return scn, trace, wp


def _cmd_trace(subcommand, cfg):
    scn, trace, _ = _run_trace(cfg, subcommand)
    return _trace_artifacts(trace, scn.noise), scn.resolved()


def _envelope_fit(points):
    """contrast.csv artifact and envelope-fit JSON of windowed contrasts."""
    art = ("contrast.csv", _write_rows(
        ["t_s", "contrast", "contrast_err"],
        [[f"{p.t_s:.12e}", f"{p.contrast:.9e}", f"{p.contrast_err:.9e}"]
         for p in points]))
    try:
        fit = analysis.fit_t2_envelope([p.t_s for p in points],
                                       [p.contrast for p in points])
    except NoDecayObserved as exc:
        return art, {"model": "gaussian_envelope",
                     "status": "no_decay_observed",
                     "t2_lower_bound_s": exc.t2_lower_bound_s}
    out = fit.to_json_dict()
    out["status"] = "ok"
    return art, out


def _cmd_t2(cfg):
    scn, trace, wp = _run_trace(cfg, "t2")
    points = analysis.extract_contrast(trace.t_s, trace.p32_mean,
                                       scn.f_fringe_hz(),
                                       window_periods=wp)
    contrast_csv, fit = _envelope_fit(points)
    arts = _trace_artifacts(trace, scn.noise)
    arts += [contrast_csv, ("fit.json", _write_json(fit))]
    resolved = scn.resolved()
    resolved["fit"] = fit
    return arts, resolved


def _cmd_magic_scan(cfg):
    scn = _Scenario(cfg)
    sc = cfg["angle_scan"]
    proto = scn.protocol()
    trials, seed = int(cfg["trials"]), int(cfg["seed"])
    f_fr = scn.f_fringe_hz()
    wp = float(sc.get("window_periods", 5.0))
    ppw = int(sc.get("points_per_window", 28))
    width = wp / f_fr
    t0 = float(sc["t_r_us"]) * 1e-6
    t = t0 + (np.arange(ppw) / ppw) * width
    phis = np.linspace(float(sc["start_deg"]), float(sc["stop_deg"]),
                       int(sc["points"]))
    rows = []
    contrasts = []
    for k, phi in enumerate(phis):
        env_k = FieldEnvironment(
            scn.tweezer, MagneticField(scn.env.field.magnitude_G,
                                       float(phi)))
        trap_k = trapmodel.characterize_trap(scn.tweezer, env_k, scn.table,
                                             field=scn.field)
        trace = dynamics.simulate_ramsey(
            trap_k, scn.temperature_K, scn.noise, scn.omega_rad_s(), f_fr,
            t, trials, dynamics.spawn_seed(seed, 500 + k),
            motional_model=proto["motional_model"],
            instantaneous_pulses=proto["instantaneous_pulses"])
        point = analysis.extract_contrast(trace.t_s, trace.p32_mean, f_fr,
                                          window_periods=wp)[0]
        contrasts.append((float(phi), point.contrast, point.contrast_err))
    cmax = max(c for _, c, _ in contrasts)
    norm = cmax if (sc.get("normalize", "max") == "max" and cmax > 0) \
        else 1.0
    for phi, c, cerr in contrasts:
        rows.append([f"{phi:.6f}", f"{c:.9e}", f"{cerr:.9e}",
                     f"{c / norm:.9e}"])
    arts = [("scan.csv", _write_rows(
        ["phi_deg", "contrast", "contrast_err", "contrast_norm"], rows))]
    resolved = scn.resolved()
    resolved["t_r_us"] = float(sc["t_r_us"])
    resolved["contrast_max"] = cmax
    return arts, resolved


def _cmd_phinoise(cfg):
    scn = _Scenario(cfg)
    ps = cfg["phi_noise_scan"]
    if ps.get("values_deg") is not None:
        values = [float(v) for v in ps["values_deg"]]
    else:
        values = list(np.linspace(float(ps["start_deg"]),
                                  float(ps["stop_deg"]),
                                  int(ps["points"])))
    f_fr = scn.f_fringe_hz()
    grid, wp = _burst_grid_s(cfg, f_fr)
    proto = scn.protocol()
    points = dynamics.simulate_t2_vs_phinoise(
        scn.field, scn.env, scn.table, scn.trap, scn.temperature_K,
        scn.noise, scn.omega_rad_s(), f_fr, grid, values,
        int(cfg["trials"]), int(cfg["seed"]),
        motional_model=proto["motional_model"], window_periods=wp)
    rows = [[f"{p.delta_phi_deg:.6f}", f"{p.t2_s:.9e}",
             f"{p.t2_err_s:.9e}", f"{p.db_x_G:.9e}"] for p in points]
    arts = [("phinoise.csv", _write_rows(
        ["delta_phi_deg", "t2_s", "t2_err_s", "db_x_G"], rows))]
    resolved = scn.resolved()
    resolved["points"] = [p.to_json_dict() for p in points]
    return arts, resolved


def _cmd_shiftmap(cfg):
    scn = _Scenario(cfg)
    mg = cfg.get("map_grid", {})
    half = mg.get("half_extent_nm")
    shift_map = focalfield.lightshift_map(
        scn.field, scn.env, scn.table,
        half_extent_m=None if half is None else float(half) * 1e-9,
        n=int(mg.get("points", 101)))
    arts = [("map.csv", lambda p: focalfield.write_map_csv(shift_map, p))]
    resolved = scn.resolved()
    resolved["center_hz"] = shift_map.center_hz
    resolved["peak_abs_hz"] = float(np.max(np.abs(shift_map.du_hz)))
    return arts, resolved


def _cmd_magic_find(cfg):
    scn = _Scenario(cfg)
    angle = atomstark.find_magic_angle(scn.env, scn.table)
    wavelength = atomstark.find_magic_wavelength(scn.env, scn.table)
    fmt = lambda v, n: "nan" if v is None else f"{v:.{n}f}"
    arts = [("magic.csv", _write_rows(
        ["wavelength_nm", "phi_deg", "magic_wavelength_nm",
         "magic_phi_deg"],
        [[f"{scn.tweezer.wavelength_nm:.6f}", f"{scn.phi_deg:.6f}",
          fmt(wavelength, 4), fmt(angle, 6)]]))]
    resolved = scn.resolved()
    resolved["magic_wavelength_nm"] = wavelength
    resolved["magic_phi_deg"] = angle
    return arts, resolved


def _cmd_fit(cfg):
    ft = cfg["fit"]
    trace = dynamics.read_trace_csv(ft["trace_csv"])
    wp = float(ft.get("window_periods", 5.0))
    f_fr = (float(ft["f_fringe_MHz"]) * 1e6
            if ft.get("f_fringe_MHz") is not None else None)
    if ft["mode"] == "sinusoid":
        fit = analysis.fit_sinusoid(trace.t_s, trace.p32_mean,
                                    fixed_freq_hz=f_fr)
        model = (fit.offset + fit.amplitude
                 * np.sin(2 * math.pi * fit.freq_hz * trace.t_s
                          + fit.phase_rad))
        arts = [("residuals.csv", _write_rows(
            ["t_s", "p32_mean", "model", "residual"],
            [[f"{t:.12e}", f"{y:.9e}", f"{m:.9e}", f"{y - m:.9e}"]
             for t, y, m in zip(trace.t_s, trace.p32_mean, model)]))]
        out = fit.to_json_dict()
        out["status"] = "ok"
    else:
        points = analysis.extract_contrast(trace.t_s, trace.p32_mean,
                                           f_fr, window_periods=wp)
        contrast_csv, out = _envelope_fit(points)
        arts = [contrast_csv]
    arts.append(("fit.json", _write_json(out)))
    return arts, {"fit": out}


_HANDLERS = {"rabi": partial(_cmd_trace, "rabi"),
             "ramsey": partial(_cmd_trace, "ramsey"), "t2": _cmd_t2,
             "magic-scan": _cmd_magic_scan, "phinoise": _cmd_phinoise,
             "shiftmap": _cmd_shiftmap, "magic-find": _cmd_magic_find,
             "fit": _cmd_fit}


# ------------------------------------------------------------ orchestration

def _tool_version() -> str:
    try:
        from importlib.metadata import version
        return version("fsqubit")
    except Exception:
        return "unknown"


def _commit(out_dir: Path, artifacts, meta: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    meta["artifacts"] = [name for name, _ in artifacts]
    everything = list(artifacts) + [("meta.json", _write_json(meta))]
    for name, writer in everything:
        tmp = out_dir / (name + ".tmp")
        try:
            writer(tmp)
            os.replace(tmp, out_dir / name)
        finally:
            tmp.unlink(missing_ok=True)


def _run(subcommand: str, args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.trials is not None:
        cfg["trials"] = args.trials
    issues = check_config(cfg, subcommand)
    if issues:
        raise ConfigError("; ".join(issues))
    artifacts, resolved = _HANDLERS[subcommand](cfg)
    meta = {"schema_version": SCHEMA_VERSION, "subcommand": subcommand,
            "config": cfg, "resolved": resolved,
            "tool": {"name": "fsqubit", "version": _tool_version()}}
    _commit(Path(args.out), artifacts, meta)
    return 0


def _validate(args) -> int:
    try:
        cfg = _load_config(args.config)
        issues = check_config(cfg, args.subcommand)
    except (json.JSONDecodeError, OSError, ConfigError) as exc:
        issues = [f"schema: {exc}"]
    print(json.dumps({"config": str(args.config), "issues": issues},
                     indent=2, sort_keys=True))
    return 0 if not issues else 2


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsqubit",
        description="Tweezer-qubit light-shift and coherence simulations")
    sub = parser.add_subparsers(dest="cmd", required=True)
    helps = {
        "rabi": "drive a Rabi oscillation trace",
        "ramsey": "Ramsey (or echo) fringe trace on a time grid",
        "t2": "Ramsey bursts, contrast extraction, and envelope fit",
        "magic-scan": "fringe contrast versus field angle at fixed t_R",
        "phinoise": "fitted T2 versus field-angle noise amplitude",
        "shiftmap": "focal-plane differential light-shift map",
        "magic-find": "magic angle and magic wavelength roots",
        "fit": "re-analyze an existing trace CSV",
    }
    for name in _RUN_COMMANDS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
    v = sub.add_parser("validate",
                       help="check a config without running it")
    v.add_argument("--config", required=True)
    v.add_argument("--subcommand", default="ramsey",
                   help="command the config is meant for (default ramsey)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.cmd == "validate":
        return _validate(args)
    try:
        return _run(args.cmd, args)
    except Exception as exc:  # contract: every failure is machine-readable
        print(json.dumps({"error": {"type": type(exc).__name__,
                                    "message": str(exc)}}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
