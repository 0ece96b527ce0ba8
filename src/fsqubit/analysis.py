"""Trace fitting and dephasing-time estimation.

Fringe fits use the model A sin(2 pi f t + phi0) + c. With f fixed the
problem is linear and solved exactly; a trace's windows share one batched
normal-equation solve per window length, with a single fit's covariance.
Contrast is twice the fitted amplitude on the 0-1 population scale.
Coherence times come from a Gaussian envelope C0 exp(-t^2 / 2 T2^2). The
free-frequency fringe and the envelope each have one nonlinear parameter
(f, or beta = 1 / 2 T2^2), so both are fitted by variable projection: the
linear parameters are solved exactly at every trial value, the profiled
sum of squared residuals is scanned on a grid, and its minimum is refined
to the sign change of the analytic profiled slope. The thermal dephasing
estimate converts the position-averaged spread of a differential shift map
into the 1/e time of the equivalent Gaussian decay, 1 / (2 pi sigma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import K_B, MASS_SR88
from .errors import (FitFailed, GridTooCoarse, NoDecayObserved,
                     WindowTooShort)

# Free-frequency scan: grid points per 1/span of frequency resolution.
_SCAN_OVERSAMPLE = 4
_MAX_SCAN_POINTS = 1 << 21

# Envelope scan in beta t_max^2, about 64 points per decade. The top end
# keeps exp(-2 beta t^2) a normal double, so the profiled C0 = g.c / g.g
# never divides by an underflowed g.g.
_ENVELOPE_GRID = np.geomspace(1e-3, 350.0, 356)

# Contrast-window edge tolerance, in window widths. Far below the point
# spacing of a burst (at least 1e-4 of a window at the config ceiling) and
# far above the rounding of a burst start, printed trace.csv times included.
_EDGE_TOL = 1e-6


@dataclass(frozen=True)
class SinusoidFit:
    """Least-squares sinusoid A sin(2 pi f t + phi0) + c.

    Amplitude is non-negative (sign absorbed into the phase).
    ``well_resolved`` is True when the residual RMS is below the amplitude;
    callers that need a trustworthy fringe should check it.
    """

    amplitude: float
    freq_hz: float
    phase_rad: float
    offset: float
    amplitude_err: float
    freq_err_hz: float | None
    phase_err_rad: float
    offset_err: float
    rms: float

    @property
    def well_resolved(self) -> bool:
        return self.rms < self.amplitude

    def to_json_dict(self) -> dict:
        return {
            "model": "sinusoid",
            "amplitude": self.amplitude,
            "freq_hz": self.freq_hz,
            "phase_rad": self.phase_rad,
            "offset": self.offset,
            "amplitude_err": self.amplitude_err,
            "freq_err_hz": self.freq_err_hz,
            "phase_err_rad": self.phase_err_rad,
            "offset_err": self.offset_err,
            "rms": self.rms,
        }


@dataclass(frozen=True)
class EnvelopeFit:
    """Gaussian contrast envelope C0 exp(-t^2 / 2 T2^2)."""

    t2_s: float
    c0: float
    t2_err_s: float
    c0_err: float
    rms: float

    def to_json_dict(self) -> dict:
        return {
            "model": "gaussian_envelope",
            "t2_s": self.t2_s,
            "c0": self.c0,
            "t2_err_s": self.t2_err_s,
            "c0_err": self.c0_err,
            "rms": self.rms,
        }


def _linear_sinusoid_solve(t: np.ndarray, y: np.ndarray, freq_hz: float):
    """Exact LS solve in (A sin, A cos, c) at fixed frequency."""
    theta = 2.0 * math.pi * freq_hz * t
    design = np.column_stack([np.sin(theta), np.cos(theta),
                              np.ones_like(t)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return coef, design, float(resid @ resid)


def _fixed_freq_fits(theta, y):
    """Exact LS solves in (A sin, A cos, c) of y (one row, or one per row) at
    each row of phases theta: coefficients, (J^T J)^-1 and SSR. sin, cos and
    1 are near-orthogonal over a period, so normal equations lose nothing."""
    design = np.empty((len(theta), 3, theta.shape[1]))
    np.sin(theta, out=design[:, 0])
    np.cos(theta, out=design[:, 1])
    design[:, 2] = 1.0
    try:
        g_inv = np.linalg.inv(design @ design.swapaxes(1, 2))
    except np.linalg.LinAlgError:
        raise FitFailed("sinusoid design matrix is singular") from None
    coef = (g_inv @ (design @ y[..., None]))[..., 0]
    r = y - (coef[:, None] @ design)[:, 0]
    return coef, g_inv, np.einsum("ij,ij->i", r, r)


def _freq_column(t, coef, design) -> np.ndarray:
    """d model / d f at the linear solve: 2 pi t (a_s cos - a_c sin)."""
    a_s, a_c = coef[:2]
    return 2.0 * math.pi * t * (a_s * design[:, 1] - a_c * design[:, 0])


def _sinusoid_fit(t, y, freq_hz: float, free_freq: bool) -> SinusoidFit:
    """Exact linear solve at ``freq_hz``; every error from sigma^2 (J^T J)^-1.

    J holds the (sin, cos, 1) columns, plus the frequency column when f was
    fitted, so the amplitude, phase and offset errors carry their
    correlation with f; sigma^2 = SSR / (n - columns of J).
    """
    coef, design, ssr = _linear_sinusoid_solve(t, y, freq_hz)
    jac = (np.column_stack([design, _freq_column(t, coef, design)])
           if free_freq else design)
    n = t.size
    a_s, a_c, c = (float(v) for v in coef)
    amp = math.hypot(a_s, a_c)
    phase = math.atan2(a_c, a_s) if amp > 0 else 0.0
    sigma_sq = ssr / max(n - jac.shape[1], 1)
    try:
        cov = sigma_sq * np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        raise FitFailed("sinusoid design matrix is singular") from None
    if not np.all(np.diag(cov) >= 0.0):  # NaN too
        raise FitFailed("sinusoid design matrix is numerically singular")
    var_s, var_c, var_off = np.diag(cov)[:3]
    cov_sc = cov[0, 1]
    if amp > 0:
        # delta method through (a_s, a_c) -> (A, phi0)
        amp_err = math.sqrt(max(
            (a_s / amp) ** 2 * var_s + (a_c / amp) ** 2 * var_c
            + 2 * (a_s * a_c / amp ** 2) * cov_sc, 0.0))
        phase_err = math.sqrt(max(
            (a_c / amp ** 2) ** 2 * var_s + (a_s / amp ** 2) ** 2 * var_c
            - 2 * (a_s * a_c / amp ** 4) * cov_sc, 0.0))
    else:
        amp_err = math.sqrt(max(var_s, var_c))
        phase_err = math.pi
    return SinusoidFit(amplitude=amp, freq_hz=float(freq_hz),
                       phase_rad=phase, offset=c, amplitude_err=amp_err,
                       freq_err_hz=math.sqrt(cov[3, 3]) if free_freq else None,
                       phase_err_rad=phase_err,
                       offset_err=float(math.sqrt(var_off)),
                       rms=math.sqrt(ssr / n))


def _stationary_point(slope, grid: np.ndarray, k: int) -> float:
    """Refine the grid argmin ``grid[k]`` of a profiled SSR.

    Bisects the sign change (negative to positive) of the analytic slope
    d SSR / d p between the argmin's two grid neighbours until the bracket
    is two adjacent doubles (about 50 halvings for these grids). Keeps the
    grid point when the slope does not change sign across that bracket.
    """
    lo = float(grid[max(k - 1, 0)])
    hi = float(grid[min(k + 1, grid.size - 1)])
    if not slope(lo) < 0.0 < slope(hi):
        return float(grid[k])
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def _scan_frequency(t: np.ndarray, y: np.ndarray) -> float:
    """SSR minimum over frequency: dense exact-solve scan, then refined."""
    span = float(t.max() - t.min())
    dts = np.diff(np.sort(t))
    dt_min = float(dts[dts > 0].min())
    f_lo = 1.0 / span
    f_hi = 0.5 / dt_min
    if f_hi <= f_lo:
        raise FitFailed("time grid cannot resolve any full fringe period")
    step = 1.0 / (span * _SCAN_OVERSAMPLE)
    n_f = int((f_hi - f_lo) / step) + 1
    if n_f > _MAX_SCAN_POINTS:
        n_f = _MAX_SCAN_POINTS
        step = (f_hi - f_lo) / n_f
    freqs = f_lo + step * np.arange(n_f)

    best_ssr = np.empty(n_f)
    chunk = max(1, 16384 // t.size)  # frequencies per cache-sized solve
    for i0 in range(0, n_f, chunk):
        fs = freqs[i0:i0 + chunk]
        try:
            best_ssr[i0:i0 + fs.size] = _fixed_freq_fits(
                2.0 * math.pi * fs[:, None] * t, y)[2]
        except FitFailed:  # a singular design in the chunk: one by one
            best_ssr[i0:i0 + fs.size] = [
                _linear_sinusoid_solve(t, y, f)[2] for f in fs]
    k = int(np.argmin(best_ssr))

    def slope(f):
        # d SSR / d f at the exact linear solve, up to the factor 2
        coef, design, _ = _linear_sinusoid_solve(t, y, f)
        return float((design @ coef - y) @ _freq_column(t, coef, design))

    return _stationary_point(slope, freqs, k)


def fit_sinusoid(t, y, fixed_freq_hz: float | None = None) -> SinusoidFit:
    """Least-squares sinusoid fit; exact linear solve when f is fixed.

    Free-frequency fits need >= 6 points spanning at least one period and
    raise :class:`FitFailed` when no fringe stands above the residual noise.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise FitFailed("t and y must be 1-d arrays of equal length")
    if not (np.isfinite(t).all() and np.isfinite(y).all()):
        raise FitFailed("non-finite time or population")
    if fixed_freq_hz is not None:
        if t.size < 3:
            raise FitFailed("need >= 3 points for a fixed-frequency fit")
        return _sinusoid_fit(t, y, fixed_freq_hz, free_freq=False)
    if t.size < 6:
        raise FitFailed("need >= 6 points for a free-frequency fit")
    if t.max() == t.min():
        raise FitFailed("degenerate time grid")
    f_hat = _scan_frequency(t, y)
    # a minimum pinned to the one-period-per-span floor means no full
    # oscillation is visible in the data
    if f_hat * (t.max() - t.min()) < 1.0 + 1e-6:
        raise FitFailed("data span less than one full period of the "
                        "best-fit frequency")
    fit = _sinusoid_fit(t, y, f_hat, free_freq=True)
    if not fit.well_resolved:
        raise FitFailed("no fringe resolved above the residual noise "
                        f"(amplitude {fit.amplitude:.3g}, rms {fit.rms:.3g})")
    return fit


@dataclass(frozen=True)
class ContrastPoint:
    """Fringe contrast in one time window (2A on the population scale)."""

    t_s: float
    contrast: float
    contrast_err: float


def extract_contrast(t, y, fringe_hz: float,
                     window_periods: float = 5.0) -> list[ContrastPoint]:
    """Windowed fixed-frequency contrast extraction.

    The trace is cut into consecutive windows of ``window_periods`` fringe
    periods; each window holding >= 6 points contributes (mean time, 2A)
    from an exact linear fit, one batched solve per window length. Raises
    :class:`FitFailed` for a non-finite time or population.
    """
    if window_periods < 1.0:
        raise WindowTooShort(f"window of {window_periods} fringe periods; "
                             "need at least one full period")
    if fringe_hz <= 0:
        raise ValueError("fringe frequency must be positive")
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.isfinite(t).all() and np.isfinite(y).all()):
        raise FitFailed("non-finite time or population")
    width = window_periods / fringe_hz
    t0 = float(t.min())
    # a burst starts on a window edge, up to rounding: a point within
    # _EDGE_TOL of a width below an edge joins the window above
    idx = np.floor((t - t0) / width + _EDGE_TOL).astype(int)
    # a point landing exactly on the final edge joins the last full window
    last = max(int(np.ceil((float(t.max()) - t0) / width)) - 1, 0)
    idx = np.minimum(idx, last)
    counts = np.bincount(idx, minlength=last + 1)
    kept = (counts >= 6).nonzero()[0]
    if not kept.size:
        raise WindowTooShort("no window holds enough points to fit")
    # window k holds order[start[k]:start[k] + counts[k]], input order
    order, start = idx.argsort(kind="stable"), counts.cumsum() - counts
    out = np.empty((3, kept.size))  # (mean time, 2A, its error) per window
    for n in set(counts[kept].tolist()):
        sel = counts[kept] == n
        rows = order[start[kept[sel]][:, None] + np.arange(n)]
        coef, g_inv, ssr = _fixed_freq_fits(
            2.0 * math.pi * fringe_hz * t[rows], y[rows])
        cov = (ssr / (n - 3))[:, None, None] * g_inv
        var = np.diagonal(cov, axis1=1, axis2=2)
        if not (var >= 0.0).all():  # NaN too
            raise FitFailed("sinusoid design matrix is numerically singular")
        # delta method: a^T cov a / A^2 (the larger of var_s, var_c at A = 0)
        a = coef[:, None, :2]
        amp_sq = (a @ a.swapaxes(1, 2))[:, 0, 0]
        amp_var = np.divide((a @ cov[:, :2, :2] @ a.swapaxes(1, 2))[:, 0, 0],
                            amp_sq, out=np.maximum(var[:, 0], var[:, 1]),
                            where=amp_sq > 0)
        out[:, sel] = (t[rows].sum(axis=1) / n, 2.0 * np.sqrt(amp_sq),
                       2.0 * np.sqrt(np.maximum(amp_var, 0.0)))
    return [ContrastPoint(*p) for p in zip(*out.tolist())]


def fit_t2_envelope(t_s, contrast) -> EnvelopeFit:
    """Fit C(t) = C0 exp(-t^2 / 2 T2^2) by profiled least squares.

    With g = exp(-beta t^2), the best C0 at each beta is g.c / g.g, so the
    sum of squared residuals is a function of beta alone. It is scanned on
    a geometric grid in beta t_max^2 and its minimum refined to the sign
    change of the analytic slope. Raises :class:`NoDecayObserved` (carrying
    a lower bound on T2) when the data show no decay over the scanned span,
    :class:`FitFailed` when underdetermined, when the decay is too fast to
    resolve, or when the fitted C0 is not positive.
    """
    t = np.asarray(t_s, dtype=float)
    c = np.asarray(contrast, dtype=float)
    if t.shape != c.shape or t.ndim != 1:
        raise FitFailed("t and contrast must be 1-d arrays of equal length")
    if t.size < 4:
        raise FitFailed("need >= 4 contrast points")
    if not (np.isfinite(t).all() and np.isfinite(c).all()):
        raise FitFailed("non-finite time or contrast")
    t_max = float(np.abs(t).max())
    if t_max == 0:
        raise FitFailed("degenerate time grid")

    def libm_exp(x):  # numpy's float64 exp moves with SIMD dispatch
        return np.fromiter(map(math.exp, x.ravel().tolist()), float,
                           x.size).reshape(x.shape)

    tsq = t ** 2
    betas = _ENVELOPE_GRID / t_max ** 2
    g = libm_exp(-betas[:, None] * tsq)
    gc, gg = g @ c, np.einsum("ij,ij->i", g, g)
    k = int(np.argmin(-gc ** 2 / gg))   # SSR = c.c - (g.c)^2 / g.g
    if k == betas.size - 1:
        raise FitFailed("contrast decays faster than the time grid "
                        "resolves")

    def slope(beta):
        # d SSR / d beta up to the positive factor 2 / (g.g)^2
        g = libm_exp(-beta * tsq)
        gc, gg = g @ c, g @ g
        return gc * (gg * (g * tsq @ c) - gc * (g * g @ tsq))

    beta = _stationary_point(slope, betas, k)
    g = libm_exp(-beta * tsq)
    c0 = float(g @ c / (g @ g))
    if c0 <= 0:
        raise FitFailed(f"fitted initial contrast {c0:.3g} is not positive")
    if 1.0 - math.exp(-beta * t_max ** 2) < 0.02:
        raise NoDecayObserved(
            "predicted decay over the span is below 2%",
            t2_lower_bound_s=t_max)
    t2 = 1.0 / math.sqrt(2.0 * beta)
    r = c0 * g - c
    ssr = float(r @ r)
    jac = np.column_stack([g, -tsq * c0 * g])
    sigma_sq = ssr / max(t.size - 2, 1)
    try:
        cov = sigma_sq * np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        raise FitFailed("singular curvature at the envelope optimum") \
            from None
    beta_err = math.sqrt(max(cov[1, 1], 0.0))
    c0_err = math.sqrt(max(cov[0, 0], 0.0))
    t2_err = beta_err * (2.0 * beta) ** -1.5
    if c0 > 1.2:
        raise FitFailed(f"fitted initial contrast {c0:.3g} outside (0, 1.2]"
                        "; input is not on the population scale")
    return EnvelopeFit(t2_s=t2, c0=c0, t2_err_s=float(t2_err),
                       c0_err=float(c0_err), rms=math.sqrt(ssr / t.size))


def thermal_dephasing_estimate(shift_map, trap,
                               temperature_K: float) -> float:
    """1/e Gaussian-dephasing time from a thermal average of a shift map.

    Weights each map cell by the classical thermal position distribution of
    the ground qubit state (sigma_i = sqrt(kB T / m) / omega_i, transverse
    axes) and returns 1 / (2 pi sigma_dU). A map with no spread (or T = 0)
    gives an unbounded timescale, reported as ``inf``.
    """
    if temperature_K < 0:
        raise ValueError("temperature must be >= 0")
    if temperature_K == 0.0:
        return math.inf
    om = np.asarray(trap.omega_p0_rad_s, dtype=float)
    sig_x = math.sqrt(K_B * temperature_K / MASS_SR88) / om[0]
    sig_y = math.sqrt(K_B * temperature_K / MASS_SR88) / om[1]
    x = np.asarray(shift_map.x_m, dtype=float)
    y = np.asarray(shift_map.y_m, dtype=float)
    dx = float(np.min(np.diff(x)))
    dy = float(np.min(np.diff(y)))
    if sig_x < 3 * dx or sig_y < 3 * dy:
        raise GridTooCoarse(
            f"thermal cloud (sigma {sig_x * 1e9:.1f} x {sig_y * 1e9:.1f} nm)"
            f" under 3 grid steps ({dx * 1e9:.1f} x {dy * 1e9:.1f} nm)")
    xx, yy = np.meshgrid(x, y, indexing="xy")
    w = np.exp(-xx ** 2 / (2 * sig_x ** 2) - yy ** 2 / (2 * sig_y ** 2))
    w /= w.sum()
    du = np.asarray(shift_map.du_hz, dtype=float)
    mean = float(np.sum(w * du))
    var = float(np.sum(w * (du - mean) ** 2))
    if var == 0.0:
        return math.inf
    return 1.0 / (2.0 * math.pi * math.sqrt(var))
