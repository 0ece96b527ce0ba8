"""Config-driven command line for the trap, field, and coherence tools.

Usage: ``fsqubit <subcommand> --config cfg.json --out dir [--seed N]
[--trials N]``. Subcommands: ``rabi``, ``ramsey``, ``t2``, ``magic-scan``,
``phinoise``, ``shiftmap``, ``magic-find``, ``fit``, and ``validate``
(checks a config without running anything).

Configs are JSON with a ``schema_version`` field; every physical key
carries its unit in the name (``power_mW``, ``t_r_us``). Seeds are
mandatory for anything that samples - runs never touch the wall clock, so
identical config + seed gives byte-identical output files. ``--seed`` and
``--trials`` override the config values, and ``meta.json`` records the
overridden value.

Each run computes everything first, then writes its data files plus
``meta.json`` through a temp-file rename, so a failed run leaves no
partial artifacts. ``meta.json`` embeds the effective config; passing a
``meta.json`` back as ``--config`` reproduces the run. Any module error
prints one JSON object (``{"error": {"type", "message"}}``) on stderr and
exits 1. ``validate`` makes the run's own checks and prints an issue
report on stdout: every key, unknown ones included, against one schema
table, then the rules that span keys, then the run's config-only set-up
(protocol, tweezer, table, the ``"magic"`` root). It exits 0 when clean,
2 when issues were found.

The polarizability table is the config's ``"table"`` (default: the
packaged fixture) and nothing else, so ``meta.json`` records it. Of the
physics layers only ``atomstark``, which works in plain floats, is
imported with this module. The others, and numpy, are imported inside the
functions that run them, so ``validate`` and ``magic-find`` load none of
them and ``shiftmap`` loads ``focalfield`` alone.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import operator
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

import fsqubit

from . import atomstark
from .errors import FsqubitError, NoDecayObserved
from .params import FieldEnvironment, MagneticField, NoiseModel, TweezerConfig

if TYPE_CHECKING:
    import numpy as np

    from . import dynamics, trapmodel

SCHEMA_VERSION = 1

_SIM_COMMANDS = ("rabi", "ramsey", "t2", "magic-scan", "phinoise")
_SETUP_COMMANDS = _SIM_COMMANDS + ("shiftmap", "magic-find")  # a _Scenario
_RUN_COMMANDS = _SETUP_COMMANDS + ("fit",)


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
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh, parse_float=_finite_float,
                            parse_int=_float_sized_int,
                            parse_constant=_finite_float)
    except (ValueError, RecursionError) as exc:  # bad bytes/JSON, deep nesting
        raise ConfigError(f"unreadable config: {exc!r}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    # a meta.json from a previous run embeds the config it ran with
    if "config" in cfg and "subcommand" in cfg:
        cfg = cfg["config"]
        if not isinstance(cfg, dict):
            raise ConfigError("metadata 'config' must be a JSON object")
    return cfg


# ----------------------------------------------------------------- schema
# A checker returns None for a good value, else an issue in which '{}'
# stands for the key's dotted name.

_SYMBOLS = {"gt": ">", "ge": ">=", "lt": "<", "le": "<="}  # operator names


def _number(kind=(int, float), **bounds):
    """A finite number, or an integer when ``kind`` is int, in bounds."""
    noun = "an integer" if kind is int else "a number"
    text = " and ".join(f"{_SYMBOLS[op]} {b:g}" for op, b in bounds.items())

    def check(v):
        if (not isinstance(v, kind) or isinstance(v, bool)
                or not math.isfinite(v)):
            return f"type: {{}} must be {noun}"
        if not all(getattr(operator, op)(v, b) for op, b in bounds.items()):
            return f"range: {{}} must be {text}"
    return check


def _instance(kind, noun):
    return lambda v: None if isinstance(v, kind) else \
        f"type: {{}} must be {noun}"


def _choice(*options):
    # type-exact, so that true does not pass for the integer 1
    text = " or ".join(map(repr, options))
    return lambda v: None if any(type(v) is type(o) and v == o
                                 for o in options) else \
        f"value: {{}} must be {text}"


def _angle(v):
    if v != "magic" and _number()(v):
        return "value: {} must be a number or 'magic'"


def _nonempty_list(item):
    return lambda v: next(filter(None, map(item, v)), None) \
        if isinstance(v, list) and v else "type: {} must be a non-empty list"


class _Key(NamedTuple):
    check: Callable
    default: object = None
    required: tuple = ()  # the commands that need the key


_ALL = _RUN_COMMANDS  # needed wherever its section is present
_POS, _NONNEG = _number(gt=0), _number(ge=0)
_SPAM = _number(gt=0, le=1)  # trace_ideal.csv divides by the SPAM factor
_PERIODS = _number(ge=1)  # extract_contrast needs a full fringe period
# and six points in each window; the ceiling bounds the grid's memory and
# keeps burst points 1e-4 of a window apart, clear of the binning tolerance
_WINDOW_POINTS = _number(int, ge=6, le=10_000)
# burst-grid ceilings; the shipped configs end by 4 ms, within 1000 windows
_BURST_MAX_END_S, _BURST_MAX_WINDOWS = 1.0, 1e5
# map half extent and waist ceiling, focalfield._MEASURE_RANGE_M: the
# pupil quadrature converges to k rho NA about 1400, which the map corner
# stays under at any wavelength down to 254 nm, and measure_waist searches
# no farther for the 1/e^2 radius
_MAP_MAX_HALF_EXTENT_NM = _MAX_WAIST_NM = 40_000
# 1 GHz, far above any fringe; 1e300 collapses a magic-scan window onto
# one float time and overflows the contrast-window index of a fit
_FRINGE = _number(gt=0, le=1e3)
_SCHEMA = {  # section (None: top level) -> (commands needing it, its keys)
    None: ((), {
        "schema_version": _Key(_choice(SCHEMA_VERSION), required=_ALL),
        "table": _Key(_instance(str, "a string")),
        # 1 K, far above any trapped atom; 1e300 overflows the Fock draws
        "temperature_uK": _Key(_number(ge=0, le=1e6), 0.0),
        "trials": _Key(_number(int, ge=1), required=_SIM_COMMANDS),
        "seed": _Key(_number(int, ge=0), required=_SIM_COMMANDS)}),
    "tweezer": (_SETUP_COMMANDS, {
        "wavelength_nm": _Key(_POS, required=_ALL),
        # far above any tweezer; 1e300 overflows the focal field
        "power_mW": _Key(_number(gt=0, le=1e3), required=_ALL),
        "na": _Key(_number(gt=0, lt=1), required=_ALL),
        "waist_nm": _Key(_number(gt=0, le=_MAX_WAIST_NM)),
        "filling_factor": _Key(_POS),
        "pol_axis": _Key(lambda v: "schema: {} is retired; field.phi_deg "
                         "alone sets the polarization angle")}),
    "field": (_SETUP_COMMANDS, {
        "magnitude_G": _Key(_NONNEG, required=_ALL),
        "phi_deg": _Key(_angle, required=_ALL)}),
    "drive": (_SIM_COMMANDS, {
        "rabi_kHz": _Key(_POS, required=_SIM_COMMANDS),
        "fringe_MHz": _Key(_FRINGE, required=_SIM_COMMANDS[1:])}),  # not rabi
    "noise": ((), {
        # a 100% jitter; far past it the pulse rotations lose unitarity
        # in floating point and the populations leave [0, 1]
        "rabi_frac_std": _Key(_number(ge=0, le=1), 0.0),
        "phi_jitter_std_deg": _Key(_NONNEG, 0.0),
        "detuning_offset_std_Hz": _Key(_NONNEG, 0.0),
        "prep_efficiency": _Key(_SPAM, 1.0),
        "readout_fidelity": _Key(_SPAM, 1.0)}),
    "protocol": ((), {
        # no default here: _protocol defaults the name to the command
        "name": _Key(_choice("ramsey", "echo", "rabi")),
        "motional_model": _Key(_choice("fock", "classical"), "fock"),
        "instantaneous_pulses": _Key(_instance(bool, "a boolean"), False),
        "fluctuating_detuning": _Key(_instance(bool, "a boolean"), False)}),
    "time_grid": (("rabi", "ramsey"), {
        "start_us": _Key(_NONNEG, 0.0),
        "stop_us": _Key(_POS, required=_ALL),
        "points": _Key(_number(int, ge=2), required=_ALL)}),
    "burst_grid": (("t2", "phinoise"), {
        "t2_guess_us": _Key(_POS, required=_ALL),
        "n_windows": _Key(_number(int, ge=4), 9),  # four points to fit T2
        "points_per_window": _Key(_WINDOW_POINTS, 28),
        "window_periods": _Key(_PERIODS, 5.0),
        "span_factor": _Key(_POS, 2.5)}),
    "angle_scan": (("magic-scan",), {
        "start_deg": _Key(_NONNEG, required=_ALL),
        "stop_deg": _Key(_POS, required=_ALL),
        "points": _Key(_number(int, ge=2), required=_ALL),
        # at most the burst grid's end; 1e300 collapses a scan window
        "t_r_us": _Key(_number(gt=0, le=_BURST_MAX_END_S * 1e6),
                       required=_ALL),
        "window_periods": _Key(_PERIODS, 5.0),
        "points_per_window": _Key(_WINDOW_POINTS, 28)}),
    "phi_noise_scan": (("phinoise",), {  # values_deg, or the ramp below
        "values_deg": _Key(_nonempty_list(_NONNEG)),
        "start_deg": _Key(_NONNEG),
        "stop_deg": _Key(_POS),
        "points": _Key(_number(int, ge=2))}),
    "map_grid": ((), {
        "half_extent_nm": _Key(_number(gt=0, le=_MAP_MAX_HALF_EXTENT_NM)),
        "points": _Key(_number(int, ge=11), 101)}),
    "fit": (("fit",), {
        "trace_csv": _Key(_instance(str, "a string"), required=_ALL),
        "mode": _Key(_choice("sinusoid", "envelope"), required=_ALL),
        "f_fringe_MHz": _Key(_FRINGE),
        "window_periods": _Key(_PERIODS, 5.0)}),
}


def _get(cfg, section, key):
    """section.key (section None: top level); absent or null: the default."""
    value = (cfg if section is None else cfg.get(section) or {}).get(key)
    return _SCHEMA[section][1][key].default if value is None else value


def _protocol(cfg, subcommand) -> dict:
    """The protocol keys with their defaults; the name defaults to the
    command's: ``rabi`` runs Rabi, every other command Ramsey."""
    proto = {key: _get(cfg, "protocol", key)
             for key in _SCHEMA["protocol"][1]}
    allowed = {"rabi": ("rabi",), "ramsey": ("ramsey", "echo"),
               "t2": ("ramsey", "echo"), "magic-scan": ("ramsey",),
               "phinoise": ("ramsey",)}.get(subcommand,
                                            ("ramsey", "echo", "rabi"))
    if proto["name"] is None:
        proto["name"] = allowed[0]
    if proto["name"] not in allowed:
        raise ConfigError(f"value: protocol.name {proto['name']!r} not "
                          f"valid for '{subcommand}' (allowed: "
                          f"{sorted(allowed)})")
    return proto


def check_config(cfg: dict, subcommand: str) -> list[str]:
    """Structural and physics sanity issues; empty list means runnable."""
    return _preflight(cfg, subcommand)[0]


def _preflight(cfg, subcommand) -> tuple[list[str], _Scenario | None]:
    """Issues, and the scenario of a command that builds one: every
    ``_SCHEMA`` issue; once there are none, the rules that span keys and
    the run's config-only set-up, whose first ``ConfigError`` ends it."""
    issues: list[str] = []
    for section, (needed_by, keys) in _SCHEMA.items():
        block = cfg if section is None else cfg.get(section)
        prefix = "" if section is None else section + "."
        if block is None:
            if subcommand in needed_by:
                issues.append(f"missing: section '{section}' is required")
            continue
        if not isinstance(block, dict):
            issues.append(f"type: {section} must be an object")
            continue
        known = keys.keys() | (_SCHEMA.keys() if section is None else set())
        issues += [f"schema: unknown key '{prefix}{key}'"
                   for key in block if key not in known]
        for key, spec in keys.items():
            if block.get(key) is None:
                if subcommand in spec.required:
                    issues.append(f"missing: {prefix}{key} is required")
            elif problem := spec.check(block[key]):
                issues.append(problem.format(prefix + key))
    if issues:
        return issues, None
    issues = _rule_issues(cfg)
    if subcommand == "fit":  # reads its trace alone
        return issues, None
    try:
        return issues, _Scenario(cfg, subcommand)
    except ConfigError as exc:
        return issues + [str(exc)], None


def _rule_issues(cfg) -> list[str]:
    # grids (which numpy builds), phi-noise scan and fit: no builder's
    issues: list[str] = []
    if (cfg.get("time_grid") is not None and cfg["time_grid"]["stop_us"]
            <= _get(cfg, "time_grid", "start_us")):
        issues.append("range: time_grid.stop_us must exceed start_us")
    fringe_mhz = (cfg.get("drive") or {}).get("fringe_MHz")
    if cfg.get("burst_grid") is not None and fringe_mhz is not None:
        bg = partial(_get, cfg, "burst_grid")
        f_hz = float(fringe_mhz) * 1e6
        width = float(bg("window_periods")) / f_hz
        end = max(float(bg("span_factor")) * float(bg("t2_guess_us")) * 1e-6,
                  bg("n_windows") * width)
        windows = end * f_hz / float(bg("window_periods"))
        # not (x <= cap): NaN fails too; past the caps the contrast
        # windows overflow their integer index or the fits lose precision
        if not (end <= _BURST_MAX_END_S and windows <= _BURST_MAX_WINDOWS):
            issues.append(f"range: burst_grid ends at {end:.3g} s after "
                          f"{windows:.3g} contrast windows; the limits are "
                          f"{_BURST_MAX_END_S:g} s and "
                          f"{_BURST_MAX_WINDOWS:g} windows")
    for section in ("burst_grid", "angle_scan"):
        if cfg.get(section) is None:
            continue
        wp = _get(cfg, section, "window_periods")
        ppw = _get(cfg, section, "points_per_window")
        # fringe phase of each point of a window, in cycles; fewer than
        # three distinct phases leave the window's sinusoid fit singular
        if len({round(m * wp / ppw % 1.0, 9) % 1.0
                for m in range(ppw)}) < 3:
            issues.append(f"aliasing: {section}.points_per_window {ppw} over "
                          f"{section}.window_periods {wp:g} samples fewer "
                          "than three fringe phases")
    ps = cfg.get("phi_noise_scan")
    if ps is not None and ps.get("values_deg") is None:
        issues += [f"missing: phi_noise_scan.{key} is required without "
                   "values_deg" for key in ("start_deg", "stop_deg", "points")
                   if ps.get(key) is None]
    ft = cfg.get("fit") or {}
    if ft and not Path(ft["trace_csv"]).is_file():
        issues.append(f"file: fit.trace_csv {ft['trace_csv']!r} is not a "
                      "file")
    if ft.get("mode") == "envelope" and ft.get("f_fringe_MHz") is None:
        issues.append("missing: fit.f_fringe_MHz is required in envelope mode")
    return issues


# ---------------------------------------------------------------- builders

def _tweezer_from(cfg) -> TweezerConfig:
    tw = partial(_get, cfg, "tweezer")
    waist, filling = (None if tw(key) is None else float(tw(key))
                      for key in ("waist_nm", "filling_factor"))
    if (waist is None) == (filling is None):
        raise ConfigError(
            "missing: tweezer.waist_nm or tweezer.filling_factor is required"
            if waist is None else "conflict: give exactly one of "
            "tweezer.waist_nm and tweezer.filling_factor")
    return TweezerConfig(
        wavelength_nm=float(tw("wavelength_nm")),
        power_W=float(tw("power_mW")) * 1e-3, na=float(tw("na")),
        target_waist_nm=waist, filling_factor=filling)


def _table_from(cfg, wavelength_nm) -> atomstark.PolarizabilityTable:
    """The config's table; it must span the wavelength for both states."""
    try:
        table = atomstark.load_table(cfg.get("table"))
        spans = {state: table.span_nm(state)
                 for state in (atomstark.GROUND, atomstark.EXCITED)}
    except (FsqubitError, OSError) as exc:
        raise ConfigError(f"file: polarizability table: {exc}") from None
    for state, (lo, hi) in spans.items():
        if not lo <= wavelength_nm <= hi:
            raise ConfigError(f"coverage: wavelength {wavelength_nm} nm "
                              f"outside table span [{lo:g}, {hi:g}] nm "
                              f"for {state}")
    return table


def _noise_from(cfg) -> NoiseModel:
    nz = {key: float(_get(cfg, "noise", key)) for key in _SCHEMA["noise"][1]}
    nz["detuning_offset_std"] = 2 * math.pi * nz.pop("detuning_offset_std_Hz")
    return NoiseModel(**nz)


class _Scenario:
    """A run's set-up: the constructor builds its config-only part, all
    that ``validate`` builds; the focal field and trap follow lazily.
    ``simulate`` is the one route from a command to the Monte-Carlo
    engine."""

    def __init__(self, cfg: dict, subcommand: str):
        self.cfg = cfg
        self.protocol = _protocol(cfg, subcommand)
        self.tweezer = _tweezer_from(cfg)
        self.table = _table_from(cfg, self.tweezer.wavelength_nm)
        b_gauss, phi = (float(cfg["field"]["magnitude_G"]),
                        cfg["field"]["phi_deg"])
        self.phi_was_magic = phi == "magic"
        if self.phi_was_magic:
            phi = atomstark.find_magic_angle(FieldEnvironment(
                self.tweezer, MagneticField(b_gauss, 0.0)), self.table)
            if phi is None:
                raise ConfigError("value: field.phi_deg is 'magic' but no "
                                  "magic angle exists at this wavelength")
        self.phi_deg = float(phi)
        self.env = FieldEnvironment(self.tweezer,
                                    MagneticField(b_gauss, self.phi_deg))
        self.noise = _noise_from(cfg)
        self.temperature_K = float(_get(cfg, None, "temperature_uK")) * 1e-6
        self._field = self._trap = None

    @property
    def field(self):
        if self._field is None:
            from . import focalfield
            self._field = focalfield.build_field(self.tweezer)
        return self._field

    @property
    def trap(self) -> trapmodel.TrapCharacterization:
        if self._trap is None:
            from . import trapmodel
            self._trap = trapmodel.characterize_trap(
                self.tweezer, self.env, self.table, field=self.field)
        return self._trap

    def f_fringe_hz(self) -> float:
        return float(self.cfg["drive"]["fringe_MHz"]) * 1e6

    def simulate(self, t, seed: int, env=None,
                 noise=None) -> dynamics.TraceResult:
        """The config's protocol on the grid ``t``, with ``cfg["trials"]``
        trials from master seed ``seed``.

        ``env`` replaces the field environment (one angle of a scan), with
        its trap characterized afresh; ``noise`` replaces the noise model.
        """
        from . import dynamics, trapmodel
        if env is None:
            env, trap = self.env, self.trap
        else:
            trap = trapmodel.characterize_trap(self.tweezer, env, self.table,
                                               field=self.field)
        proto, trials = self.protocol, int(self.cfg["trials"])
        args = (trap, self.temperature_K,
                self.noise if noise is None else noise,
                2 * math.pi * float(self.cfg["drive"]["rabi_kHz"]) * 1e3)
        kwargs = dict(motional_model=proto["motional_model"],
                      field=self.field, env=env, table=self.table)
        if proto["name"] == "rabi":
            return dynamics.simulate_rabi(*args, t, trials, seed, **kwargs)
        kwargs["instantaneous_pulses"] = proto["instantaneous_pulses"]
        sim = dynamics.simulate_ramsey
        if proto["name"] == "echo":
            sim = dynamics.simulate_echo
            kwargs["fluctuating_detuning"] = proto["fluctuating_detuning"]
        return sim(*args, self.f_fringe_hz(), t, trials, seed, **kwargs)

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
    import numpy as np
    tg = partial(_get, cfg, "time_grid")
    return np.linspace(float(tg("start_us")) * 1e-6,
                       float(tg("stop_us")) * 1e-6, int(tg("points")))


def _burst_grid_s(cfg, f_fringe_hz) -> tuple[np.ndarray, float]:
    from . import dynamics
    bg = partial(_get, cfg, "burst_grid")
    wp = float(bg("window_periods"))
    grid = dynamics.ramsey_burst_grid(
        float(bg("t2_guess_us")) * 1e-6, f_fringe_hz,
        n_windows=int(bg("n_windows")),
        points_per_window=int(bg("points_per_window")),
        window_periods=wp, span_factor=float(bg("span_factor")))
    return grid, wp


# ---------------------------------------------------------------- writers

def _write_json(obj):
    # serialized now, so a NaN or infinity raises before anything is written
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"

    def write(path):
        with open(path, "w") as fh:
            fh.write(text)
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
    from . import dynamics
    arts = [("trace.csv", lambda p: dynamics.write_trace_csv(trace, p))]
    scale = noise.spam_scale
    if scale != 1.0:
        ideal = dynamics.TraceResult(
            t_s=trace.t_s, p32_mean=(trace.p32_mean / scale).clip(0, 1),
            p32_sem=trace.p32_sem / scale)
        arts.append(("trace_ideal.csv",
                     lambda p: dynamics.write_trace_csv(ideal, p)))
    return arts


# ------------------------------------------------------------- subcommands

def _cmd_trace(cfg, scn):
    trace = scn.simulate(_time_grid_s(cfg), int(cfg["seed"]))
    return _trace_artifacts(trace, scn.noise), scn.resolved()


def _envelope_fit(points):
    """contrast.csv artifact and envelope-fit JSON of windowed contrasts."""
    from . import analysis
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


def _cmd_t2(cfg, scn):
    from . import analysis
    f_fr = scn.f_fringe_hz()
    t, wp = _burst_grid_s(cfg, f_fr)
    trace = scn.simulate(t, int(cfg["seed"]))
    points = analysis.extract_contrast(trace.t_s, trace.p32_mean, f_fr,
                                       window_periods=wp)
    contrast_csv, fit = _envelope_fit(points)
    arts = _trace_artifacts(trace, scn.noise)
    arts += [contrast_csv, ("fit.json", _write_json(fit))]
    resolved = scn.resolved()
    resolved["fit"] = fit
    return arts, resolved


def _cmd_magic_scan(cfg, scn):
    import numpy as np

    from . import analysis, dynamics
    sc = partial(_get, cfg, "angle_scan")
    f_fr = scn.f_fringe_hz()
    wp = float(sc("window_periods"))
    ppw = int(sc("points_per_window"))
    width = wp / f_fr
    t0 = float(sc("t_r_us")) * 1e-6
    t = t0 + (np.arange(ppw) / ppw) * width
    phis = np.linspace(float(sc("start_deg")), float(sc("stop_deg")),
                       int(sc("points")))
    contrasts = []
    for k, phi in enumerate(phis):
        env_k = FieldEnvironment(
            scn.tweezer, MagneticField(scn.env.field.magnitude_G,
                                       float(phi)))
        seed_k = dynamics.spawn_seed(int(cfg["seed"]), 500 + k)
        trace = scn.simulate(t, seed_k, env=env_k)
        point = analysis.extract_contrast(trace.t_s, trace.p32_mean, f_fr,
                                          window_periods=wp)[0]
        contrasts.append((float(phi), point.contrast, point.contrast_err))
    cmax = max(c for _, c, _ in contrasts)
    norm = cmax if cmax > 0 else 1.0
    rows = [[f"{phi:.6f}", f"{c:.9e}", f"{cerr:.9e}", f"{c / norm:.9e}"]
            for phi, c, cerr in contrasts]
    arts = [("scan.csv", _write_rows(
        ["phi_deg", "contrast", "contrast_err", "contrast_norm"], rows))]
    resolved = scn.resolved()
    resolved["t_r_us"] = float(sc("t_r_us"))
    resolved["contrast_max"] = cmax
    return arts, resolved


def _cmd_phinoise(cfg, scn):
    """Ramsey T2 versus Gaussian field-angle noise of each amplitude
    around the working angle; ``db_x_G`` is the transverse-field amplitude
    |B| tan(delta_phi) that such angle noise corresponds to. A point with
    no visible decay carries ``status`` and ``t2_lower_bound_s`` in place
    of ``t2_s`` and ``t2_err_s``, and leaves those two CSV cells empty."""
    import numpy as np

    from . import analysis, dynamics
    ps = cfg["phi_noise_scan"]
    values = ps.get("values_deg")
    if values is None:
        values = np.linspace(float(ps["start_deg"]), float(ps["stop_deg"]),
                             int(ps["points"]))
    f_fr = scn.f_fringe_hz()
    grid, wp = _burst_grid_s(cfg, f_fr)
    points = []
    for k, dphi in enumerate(map(float, values)):
        trace = scn.simulate(
            grid, dynamics.spawn_seed(int(cfg["seed"]), 10_000 + k),
            noise=replace(scn.noise, phi_jitter_std_deg=dphi))
        contrasts = analysis.extract_contrast(trace.t_s, trace.p32_mean,
                                              f_fr, window_periods=wp)
        _, fit = _envelope_fit(contrasts)
        t2_keys = (("t2_s", "t2_err_s") if fit["status"] == "ok"
                   else ("status", "t2_lower_bound_s"))
        points.append({"delta_phi_deg": dphi,
                       **{key: fit[key] for key in t2_keys},
                       "db_x_G": scn.env.field.magnitude_G
                       * math.tan(math.radians(dphi))})
    rows = [[f"{p['delta_phi_deg']:.6f}",
             *(f"{p[key]:.9e}" if key in p else ""
               for key in ("t2_s", "t2_err_s")),
             f"{p['db_x_G']:.9e}"] for p in points]
    arts = [("phinoise.csv", _write_rows(
        ["delta_phi_deg", "t2_s", "t2_err_s", "db_x_G"], rows))]
    resolved = scn.resolved()
    resolved["points"] = points
    return arts, resolved


def _cmd_shiftmap(cfg, scn):
    from . import focalfield
    half = _get(cfg, "map_grid", "half_extent_nm")
    shift_map = focalfield.lightshift_map(
        scn.field, scn.env, scn.table,
        half_extent_m=None if half is None else float(half) * 1e-9,
        n=int(_get(cfg, "map_grid", "points")))
    arts = [("map.csv", lambda p: focalfield.write_map_csv(shift_map, p))]
    resolved = scn.resolved()
    resolved["center_hz"] = shift_map.center_hz
    resolved["peak_abs_hz"] = float(abs(shift_map.du_hz).max())
    return arts, resolved


def _cmd_magic_find(cfg, scn):
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


def _cmd_fit(cfg, _):
    import numpy as np

    from . import analysis, dynamics
    ft = partial(_get, cfg, "fit")
    trace = dynamics.read_trace_csv(ft("trace_csv"))
    wp = float(ft("window_periods"))
    f_fr = (None if ft("f_fringe_MHz") is None
            else float(ft("f_fringe_MHz")) * 1e6)
    if ft("mode") == "sinusoid":
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


_HANDLERS = {"rabi": _cmd_trace, "ramsey": _cmd_trace, "t2": _cmd_t2,
             "magic-scan": _cmd_magic_scan, "phinoise": _cmd_phinoise,
             "shiftmap": _cmd_shiftmap, "magic-find": _cmd_magic_find,
             "fit": _cmd_fit}


# ------------------------------------------------------------ orchestration

def _commit(out_dir: Path, artifacts, meta: dict) -> None:
    meta["artifacts"] = [name for name, _ in artifacts]
    everything = list(artifacts) + [("meta.json", _write_json(meta))]
    out_dir.mkdir(parents=True, exist_ok=True)
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
    issues, scn = _preflight(cfg, subcommand)
    if issues:
        raise ConfigError("; ".join(issues))
    artifacts, resolved = _HANDLERS[subcommand](cfg, scn)
    meta = {"schema_version": SCHEMA_VERSION, "subcommand": subcommand,
            "config": cfg, "resolved": resolved,
            "tool": {"name": "fsqubit", "version": fsqubit.__version__}}
    _commit(Path(args.out), artifacts, meta)
    return 0


def _validate(args) -> int:
    try:
        cfg = _load_config(args.config)
        issues = check_config(cfg, args.subcommand)
    except (OSError, ConfigError) as exc:
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
    v.add_argument("--subcommand", default="ramsey", choices=_RUN_COMMANDS,
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
