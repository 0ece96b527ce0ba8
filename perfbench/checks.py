"""Output checks. Each returns a list of problems; empty means it passed."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# Bands the outputs of this workload set must fall in.
MAGIC_ANGLE_DEG = (19.2, 19.4)
MAGIC_WAVELENGTH_NM = (535.4, 536.4)
WAIST_NM = (563.0, 565.0)
PEAK_SHIFT_HZ = (600.0, 3400.0)
T2_S = (1e-3, 5e-3)
REFIT_RTOL = 1e-4
FIRST_CONTRAST = (0.60, 0.69)


def _band(label, value, lo_hi) -> list[str]:
    lo, hi = lo_hi
    if value is None or not lo <= value <= hi:
        return [f"{label} = {value} outside [{lo:g}, {hi:g}]"]
    return []


def _nonfinite(obj, where) -> list[str]:
    if isinstance(obj, float) and not math.isfinite(obj):
        return [f"{where}: non-finite {obj}"]
    if isinstance(obj, dict):
        return [p for k, v in obj.items()
                for p in _nonfinite(v, f"{where}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj)
                for p in _nonfinite(v, f"{where}[{i}]")]
    return []


def finite_json(path: Path) -> list[str]:
    return _nonfinite(json.loads(path.read_text()), path.name)


def finite_csv(path: Path) -> list[str]:
    """Every cell below the header row parses as a finite number."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    for i, row in enumerate(rows, start=2):
        for cell in row:
            try:
                ok = math.isfinite(float(cell))
            except ValueError:
                ok = False
            if not ok:
                return [f"{path.name} line {i}: non-finite {cell!r}"]
    if not rows:
        return [f"{path.name}: no data rows"]
    return []


def finite_artifacts(out_dir: Path) -> list[str]:
    problems = []
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".csv":
            problems += finite_csv(path)
        elif path.suffix == ".json":
            problems += finite_json(path)
    return problems


def validate_report(stdout: str) -> list[str]:
    try:
        issues = json.loads(stdout)["issues"]
    except (ValueError, KeyError, TypeError):
        return [f"validate printed no issue report: {stdout[:200]!r}"]
    return [f"validate: {issue}" for issue in issues]


def magic_find(out_dir: Path) -> list[str]:
    with open(out_dir / "magic.csv", newline="") as fh:
        row = list(csv.DictReader(fh))[0]
    return (_band("magic_phi_deg", float(row["magic_phi_deg"]),
                  MAGIC_ANGLE_DEG)
            + _band("magic_wavelength_nm", float(row["magic_wavelength_nm"]),
                    MAGIC_WAVELENGTH_NM))


def shiftmap(out_dir: Path) -> list[str]:
    """Calibrated waist, and the peak |dU| inside that waist."""
    waist = json.loads((out_dir / "meta.json").read_text())[
        "resolved"].get("waist_nm")
    peak = 0.0
    with open(out_dir / "map.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if waist and (float(row["x_nm"]) ** 2 + float(row["y_nm"]) ** 2
                          <= waist ** 2):
                peak = max(peak, abs(float(row["dU_over_h_Hz"])))
    return (_band("waist_nm", waist, WAIST_NM)
            + _band("in-waist peak |dU| Hz", peak, PEAK_SHIFT_HZ))


def _fit(out_dir: Path) -> dict:
    return json.loads((out_dir / "fit.json").read_text())


def t2_fit(out_dir: Path) -> tuple[list[str], float | None]:
    fit = _fit(out_dir)
    if fit.get("status") != "ok":
        return [f"t2 fit status {fit.get('status')!r}"], None
    return _band("t2_s", fit["t2_s"], T2_S), fit["t2_s"]


def refit_matches(out_dir: Path, t2_ref: float | None) -> list[str]:
    fit = _fit(out_dir)
    t2 = fit.get("t2_s")
    if t2_ref is None or t2 is None or fit.get("status") != "ok":
        return [f"fit re-analysis has no T2 to compare ({fit.get('status')})"]
    if abs(t2 - t2_ref) > REFIT_RTOL * abs(t2_ref):
        return [f"re-fit T2 {t2} differs from {t2_ref} by more than "
                f"{REFIT_RTOL:g} relative"]
    return []


def populations(label, p32, hi: float) -> list[str]:
    """Mean populations finite and inside [0, hi] (hi = prep * readout)."""
    bad = [v for v in p32
           if not (math.isfinite(v) and -1e-12 <= v <= hi + 1e-12)]
    if bad:
        return [f"{label}: {len(bad)} populations outside [0, {hi:g}], "
                f"e.g. {bad[0]}"]
    return []


def first_contrast(label, points) -> list[str]:
    return _band(f"{label} first-window contrast", points[0].contrast,
                 FIRST_CONTRAST)


def scan_peak(phis, contrasts, magic_deg, step_deg) -> list[str]:
    """The contrast maximum sits within one grid step of the magic angle."""
    best = max(range(len(contrasts)), key=contrasts.__getitem__)
    if abs(phis[best] - magic_deg) > step_deg:
        return [f"scan contrast peaks at {phis[best]:.3f} deg, more than one "
                f"grid step ({step_deg:g} deg) from magic {magic_deg:.3f}"]
    return []
