"""Trace fitting and dephasing-time estimation.

Fringe fits use the model A sin(2 pi f t + phi0) + c, linear with f fixed:
every fit solves it by the same normal equations (a trace's windows in one
batch per length) and, like the envelope, takes its errors from one step,
sigma^2 (J^T J)^-1 behind a rank test (_MAX_VIF) that refuses a design too
ill-conditioned for 8 digits, such as a fixed-frequency span of 0.02 period
or less. Contrast is twice the fitted amplitude on the 0-1 population scale.
Coherence times come from a Gaussian envelope C0 exp(-t^2 / 2 T2^2). The
free-frequency fringe and the envelope each have one nonlinear parameter
(f, or beta = 1 / 2 T2^2), so both are fitted by variable projection: the
linear parameters are solved exactly at every trial value, the profiled
sum of squared residuals is scanned on a grid, and its minimum is refined
to the sign change of the analytic profiled slope. A span that shows no
decay is an outcome, not an error: the envelope fit then carries status
"no_decay_observed" and a lower bound on T2 in place of the fitted values.
The thermal dephasing estimate converts the position-averaged spread of a
differential shift map into the 1/e time of the equivalent Gaussian decay,
1 / (2 pi sigma).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .constants import K_B, MASS_SR88
from .errors import _MAX_VIF, FitFailed, GridTooCoarse, WindowTooShort

# Free-frequency scan: grid points per 1/span of frequency resolution.
_SCAN_OVERSAMPLE = 4
_MAX_SCAN_POINTS = 1 << 21

# Envelope scan in beta t_max^2, about 64 points per decade. The top end
# keeps exp(-2 beta t^2) a normal double, so the profiled C0 = g.c / g.g
# never divides by an underflowed g.g. Its powers come from libm: numpy's
# geomspace moves in the last bit with its SIMD dispatch.
_ENVELOPE_GRID = np.array([1e-3 * 350e3 ** (i / 355) for i in range(356)])

_SINGULAR = "design matrix is numerically singular (it fails the rank test)"

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
        """The fields under ``model``, and ``status`` "ok": a sinusoid fit
        that fails raises instead of returning a record."""
        return {"model": "sinusoid", **asdict(self), "status": "ok"}


@dataclass(frozen=True)
class EnvelopeFit:
    """Gaussian contrast envelope C0 exp(-t^2 / 2 T2^2).

    ``status`` is "ok", with the fitted fields set, or "no_decay_observed",
    with only ``t2_lower_bound_s`` set: the largest scanned time, a
    conservative lower bound on the coherence time.
    """

    status: str
    t2_s: float | None = None
    c0: float | None = None
    t2_err_s: float | None = None
    c0_err: float | None = None
    rms: float | None = None
    t2_lower_bound_s: float | None = None

    def to_json_dict(self) -> dict:
        """The set fields, under ``model``; an unset field has no key."""
        return {"model": "gaussian_envelope",
                **{k: v for k, v in asdict(self).items() if v is not None}}


def _gram_inverse(design, norm_sq=None):
    """(J^T J)^-1 of each of a stack of J^T (rows, columns, points), and the
    rank test's verdict on each column: norm_sq (G^-1)_ii is in (0, _MAX_VIF)
    for the natural squared norms norm_sq (by default G_ii, blind to units)."""
    gram = design @ design.swapaxes(1, 2)
    try:
        g_inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        raise FitFailed(_SINGULAR) from None
    vif = ((gram if norm_sq is None else norm_sq) * g_inv).diagonal(0, 1, 2)
    return g_inv, 1.0 / vif > 1.0 / _MAX_VIF  # NaN and negative fail too


def _covariance(g_inv, ok, ssr, dof):
    """sigma^2 (J^T J)^-1 per row, sigma^2 = SSR / dof; raises if refused."""
    if not ok.all():
        raise FitFailed(_SINGULAR)
    return (ssr / dof)[..., None, None] * g_inv


def _fixed_freq_fits(theta, y):
    """Normal-equation LS solves of y (a row, or one per row) in (A sin, A cos,
    c) at each row of phases theta: J^T, coef, (J^T J)^-1, verdicts, SSR."""
    design = np.empty((len(theta), 3, theta.shape[1]))
    np.sin(theta, out=design[:, 0])
    np.cos(theta, out=design[:, 1])
    design[:, 2] = 1.0
    g_inv, ok = _gram_inverse(design, theta.shape[1])
    coef = (g_inv @ (design @ y[..., None]))[..., 0]
    r = y - (coef[:, None] @ design)[:, 0]
    return design, coef, g_inv, ok, np.einsum("ij,ij->i", r, r)


def _amplitude_errors(coef, cov) -> np.ndarray:
    """Rows A = |(a_s, a_c)| and sigma_A, by the delta method over the
    (a_s, a_c) block C of cov: with u = (a_s, a_c) / A, var A = u^T C u;
    at A = 0, the larger of var_s and var_c."""
    a = coef[:, None, :2]
    amp_sq = (a @ a.swapaxes(1, 2))[:, 0, 0]
    amp_var = np.divide((a @ cov[:, :2, :2] @ a.swapaxes(1, 2))[:, 0, 0],
                        amp_sq, out=np.maximum(cov[:, 0, 0], cov[:, 1, 1]),
                        where=amp_sq > 0)
    return np.sqrt((amp_sq, amp_var))


def _freq_column(t, coef, design) -> np.ndarray:
    """d model / d f at the linear solve: 2 pi t (a_s cos - a_c sin)."""
    a_s, a_c = coef[:2]
    return 2.0 * math.pi * t * (a_s * design[1] - a_c * design[0])


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
        *_, ok, ssr = _fixed_freq_fits(2.0 * math.pi * fs[:, None] * t, y)
        # a row the rank test refuses cannot be the minimum
        best_ssr[i0:i0 + fs.size] = np.where(ok.all(axis=1), ssr, np.inf)
    k = int(np.argmin(best_ssr))

    def slope(f):
        # d SSR / d f at the exact linear solve, up to the factor 2
        (design,), (coef,), *_ = _fixed_freq_fits(2 * math.pi * f * t[None], y)
        return float((coef @ design - y) @ _freq_column(t, coef, design))

    return _stationary_point(slope, freqs, k)


def fit_sinusoid(t, y, fixed_freq_hz: float | None = None) -> SinusoidFit:
    """Least-squares sinusoid fit; exact linear solve when f is fixed.

    Free-frequency fits need >= 6 points spanning at least one period and
    raise :class:`FitFailed` when no fringe stands above the residual noise.
    Errors come from sigma^2 (J^T J)^-1, sigma^2 = SSR / (n - columns of J),
    with J's frequency column when f is fitted, so they carry its correlation.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise FitFailed("t and y must be 1-d arrays of equal length")
    if not (np.isfinite(t).all() and np.isfinite(y).all()):
        raise FitFailed("non-finite time or population")
    free = fixed_freq_hz is None
    if free:
        if t.size < 6:
            raise FitFailed("need >= 6 points for a free-frequency fit")
        if t.max() == t.min():
            raise FitFailed("degenerate time grid")
        freq_hz = _scan_frequency(t, y)
        # a minimum pinned to the one-period-per-span floor means no full
        # oscillation is visible in the data
        if freq_hz * (t.max() - t.min()) < 1.0 + 1e-6:
            raise FitFailed("data span less than one full period of the "
                            "best-fit frequency")
    else:
        if t.size < 3:
            raise FitFailed("need >= 3 points for a fixed-frequency fit")
        freq_hz = float(fixed_freq_hz)
    design, coef, g_inv, ok, ssr = _fixed_freq_fits(
        2.0 * math.pi * freq_hz * t[None], y)
    a_s, a_c, c = coef[0].tolist()
    if free:  # J's frequency column, in its own units, at the mean time t_c
        # keeps a far window's phase-f correlation out of G; move it to t = 0
        t_c = float(t.mean())
        f_col = _freq_column(t - t_c, coef[0], design[0])
        design = np.concatenate([design, f_col[None, None]], axis=1)
        g_inv, ok = _gram_inverse(design, [t.size] * 3 + [f_col @ f_col])
        move = np.eye(4)
        move[:2, 3] = 2.0 * math.pi * t_c * np.array([a_c, -a_s])
        g_inv = move @ g_inv @ move.T
    cov = _covariance(g_inv, ok, ssr, max(t.size - design.shape[1], 1))
    amp, amp_err = _amplitude_errors(coef, cov)[:, 0].tolist()
    err = np.sqrt(cov[0].diagonal()).tolist()  # of a_s, a_c, c (and f)
    # var phi0 = (tr C - var A) / A^2 over the (a_s, a_c) block C of cov,
    # positive under the rank test; pi at A = 0
    tr_c = float(cov[0, 0, 0] + cov[0, 1, 1])
    phase_err = math.sqrt(tr_c - amp_err ** 2) / amp if amp > 0 else math.pi
    fit = SinusoidFit(
        amplitude=amp, freq_hz=freq_hz, offset=c, amplitude_err=amp_err,
        phase_rad=math.atan2(a_c, a_s) if amp > 0 else 0.0,
        freq_err_hz=err[3] if free else None, phase_err_rad=phase_err,
        offset_err=err[2], rms=math.sqrt(ssr[0] / t.size))
    if free and not fit.well_resolved:
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
    if not 1.0 <= window_periods < math.inf:
        raise WindowTooShort(f"window of {window_periods} fringe periods; "
                             "need a finite window of at least one period")
    if not 0 < fringe_hz < math.inf:
        raise ValueError("fringe frequency must be positive and finite")
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    t0, t1 = float(t.min()), float(t.max())  # t1 - t0 finite iff every t is
    if not (math.isfinite(t1 - t0) and np.isfinite(y).all()):
        raise FitFailed("non-finite time or population")
    width = window_periods / fringe_hz
    # a burst starts on a window edge, up to rounding: a point within
    # _EDGE_TOL of a width below an edge joins the window above (the cast
    # floors: its argument is never negative)
    idx = ((t - t0) / width + _EDGE_TOL).astype(int)
    # a point landing exactly on the final edge joins the last full window
    last = max(math.ceil((t1 - t0) / width) - 1, 0)
    idx = np.minimum(idx, last)
    counts = np.bincount(idx, minlength=last + 1)
    kept = (counts >= 6).nonzero()[0]
    if not kept.size:
        raise WindowTooShort("no window holds enough points to fit")
    # window k holds order[start[k]:start[k] + counts[k]], input order
    order, start = idx.argsort(kind="stable"), counts.cumsum() - counts
    out = np.empty((3, kept.size))  # (mean time, 2A, its error) per window
    kept_counts = counts[kept]
    for n in set(kept_counts.tolist()):
        sel = kept_counts == n
        rows = order[start[kept[sel], None] + np.arange(n)]
        t_rows = t[rows]
        _, coef, g_inv, ok, ssr = _fixed_freq_fits(
            2.0 * math.pi * fringe_hz * t_rows, y[rows])
        out[0, sel] = t_rows.sum(axis=1) / n
        out[1:, sel] = 2.0 * _amplitude_errors(
            coef, _covariance(g_inv, ok, ssr, n - 3))
    return [ContrastPoint(*p) for p in zip(*out.tolist())]


def fit_t2_envelope(t_s, contrast) -> EnvelopeFit:
    """Fit C(t) = C0 exp(-t^2 / 2 T2^2) by profiled least squares.

    With g = exp(-beta t^2), the best C0 at each beta is g.c / g.g, so the
    sum of squared residuals is a function of beta alone. It is scanned on
    a geometric grid in beta t_max^2 and its minimum refined to the sign
    change of the analytic slope. When the fit predicts under 2% decay over
    the span, the data show no decay: the result then has status
    "no_decay_observed" and the span's largest time as a lower bound on T2.
    Raises :class:`FitFailed` when underdetermined, when the decay is too
    fast to resolve, when the fitted C0 is not positive, or when a decay's
    C0 is above 1.2 (input off the population scale).
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
        return EnvelopeFit("no_decay_observed", t2_lower_bound_s=t_max)
    t2 = 1.0 / math.sqrt(2.0 * beta)
    r = c0 * g - c
    ssr = r @ r
    # J^T of the columns d / d C0 and d / d beta, as a stack of one
    jac_t = np.column_stack([g, -tsq * c0 * g]).T[None]
    cov = _covariance(*_gram_inverse(jac_t), ssr, t.size - 2)[0]
    if c0 > 1.2:
        raise FitFailed(f"fitted initial contrast {c0:.3g} outside (0, 1.2]"
                        "; input is not on the population scale")
    return EnvelopeFit("ok", t2_s=t2, c0=c0, c0_err=math.sqrt(cov[0, 0]),
                       t2_err_s=math.sqrt(cov[1, 1]) * (2.0 * beta) ** -1.5,
                       rms=math.sqrt(ssr / t.size))


def thermal_dephasing_estimate(shift_map, trap,
                               temperature_K: float) -> float:
    """1/e Gaussian-dephasing time from a thermal average of a shift map.

    Weights each map cell by the classical thermal position distribution of
    the ground qubit state (sigma_i = sqrt(kB T / m) / omega_i, transverse
    axes) and returns 1 / (2 pi sigma_dU). A map with no spread (or T = 0)
    gives an unbounded timescale, reported as ``inf``.
    """
    if not 0 <= temperature_K < math.inf:
        raise ValueError("temperature must be finite and >= 0")
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
