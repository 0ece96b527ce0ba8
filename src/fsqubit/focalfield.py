"""Vector focal fields of a tightly focused tweezer and light-shift maps.

Coordinates are in the tweezer frame: x along the input linear
polarization, z along propagation. How that frame sits in the lab is not
modelled; only the bias-field angle from x (``MagneticField.phi_deg``)
enters the shifts.
Fields are complex amplitudes in V/m with intensity (eps0 c / 2)|E|^2.

The focal field of an aplanatic lens is built from three angular
integrals over the exit pupil (azimuthal integration done analytically):

    i00 = int f(t) sqrt(cos t) sin t (1 + cos t) J0(k rho sin t) e^{ikz cos t} dt
    i01 = int f(t) sqrt(cos t) sin^2 t        J1(...) e^{...} dt
    i02 = int f(t) sqrt(cos t) sin t (1 - cos t) J2(...) e^{...} dt

with apodization f(t) = exp(-(sin t / (f0 sin tmax))^2) for a Gaussian
input beam with filling factor f0. The field of an x-polarized input is

    E ~ (i00 + i02 cos 2phi,  i02 sin 2phi,  -2 i i01 cos phi).

Integrals are evaluated by Gauss-Legendre quadrature with node doubling
until another doubling moves no component by more than 1e-8 of the call
peak, once per distinct (rho, z) of a ``field_at`` call. The nodes are
Newton roots of the Legendre three-term recurrence (``_gauss_nodes``), so
the field path makes no eigenvalue solve and no LAPACK call. J0 and J1 come
from the in-package Cephes transcriptions in ``special``. J2 follows
from the recurrence J2(x) = 2 J1(x)/x - J0(x) (DLMF 10.6.1), or below
x = 1e-3 from its series x^2/8 (1 - x^2/12). The filling factor is one
Brent root (``_brent_root``) in f0 of I(target) - I(0)/e^2 along x.

The overall amplitude is fixed by requiring the transverse-plane flux
(eps0 c / 2) integral (|Ex|^2 + |Ey|^2) dA to equal the beam power. The
azimuthal integral leaves 2 pi integral (|i00|^2 + |i02|^2) rho drho, and
i00 and i02 are Hankel transforms of orders 0 and 2 in s = sin t.
Parseval's theorem for Hankel transforms turns the radial integral into
one over the pupil:

    flux = (eps0 c / 2) (2 pi / k^2) int 2 f(t)^2 sin t (1 + cos^2 t) dt

The identity is exact: it covers the whole plane, Airy tail included, and
the defocus phase e^{ikz cos t} has unit modulus, so the flux is the same
in every plane z. The integrand is smooth and free of Bessel functions;
the 65-node rule evaluates it to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import atomstark
from .constants import C_LIGHT, EPS0, intensity_to_e0sq
from .errors import QuadratureNotConverged, UnreachableWaist
from .params import FieldEnvironment, TweezerConfig
from .special import j0, j1

_NODE_LADDER = (65, 129, 257, 513, 1025)
_QUAD_RTOL = 1e-8
_CHUNK = 8192
_MEASURE_RANGE_M = 4e-5
_FILLING_BRACKET = (0.05, 40.0)   # filling factors the calibration spans
_WAIST_TOL_M = 1e-11   # calibrated waist vs target; off-lobe roots miss by far
_BRENT_RTOL = 4 * np.finfo(float).eps
# Newton on Tricomi's guesses takes three steps at every ladder size; a
# last step this small leaves only round-off, the error being quadratic
_NEWTON_STEP_TOL = 1e-14
_NEWTON_MAXITER = 20


@lru_cache(maxsize=None)
def _gauss_nodes(n: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only.

    Newton's method on the three-term recurrence from Tricomi's first
    guesses (Hale & Townsend, SIAM J. Sci. Comput. 35, A652, 2013), run
    on the nodes with x <= 0 and mirrored, so the rule is exactly
    symmetric; weights 2 / ((1 - x^2) P_n'(x)^2).
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    x = -(1 - (n - 1) / (8.0 * n ** 3)) * np.cos(math.pi * (k - 0.25)
                                                  / (n + 0.5))
    for _ in range(_NEWTON_MAXITER):
        p, dp = _legendre(n, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) <= _NEWTON_STEP_TOL:
            break
    else:
        raise QuadratureNotConverged(f"Gauss-Legendre nodes for n = {n}")
    if n % 2:
        x[-1] = 0.0   # the middle node
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    half = n // 2   # mirrored nodes
    nodes = np.concatenate((x, -x[:half][::-1]))
    weights = np.concatenate((w, w[:half][::-1]))
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _legendre(n: int, x):
    """P_n(x) and P_n'(x) by Bonnet's recurrence, P_{j+1} =
    (2j+1)/(j+1) x P_j - j/(j+1) P_{j-1}, and (x^2 - 1) P_n' =
    n (x P_n - P_{n-1})."""
    p0, p1 = np.ones_like(x), x
    for j in range(1, n):
        p0, p1 = p1, x * p1 * ((2 * j + 1) / (j + 1)) - p0 * (j / (j + 1))
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


class TweezerField:
    """Calibrated focal field; built via :func:`build_field`."""

    def __init__(self, config: TweezerConfig, filling_factor: float):
        self.config = config
        self.filling_factor = float(filling_factor)
        self.scale = 1.0
        self.wavelength_m = config.wavelength_nm * 1e-9
        self.k = 2 * math.pi / self.wavelength_m
        self.theta_max = math.asin(config.na)
        self.sin_max = config.na
        self.waist_m: float | None = None
        self.center_e0sq: float | None = None

    def _pupil(self, n_nodes: int):
        """Gauss-Legendre rule over [0, theta_max]: sin, cos, f, weights."""
        x_gl, w_gl = _gauss_nodes(n_nodes)
        th = 0.5 * self.theta_max * (x_gl + 1.0)
        wq = 0.5 * self.theta_max * w_gl
        st = np.sin(th)
        ct = np.cos(th)
        apod = np.exp(-((st / (self.filling_factor * self.sin_max)) ** 2))
        return st, ct, apod, wq

    def _unit_flux(self) -> float:
        """Transverse-plane flux (W) at ``scale`` 1, from the pupil."""
        st, ct, apod, wq = self._pupil(_NODE_LADDER[0])
        return (EPS0 * C_LIGHT * 2 * math.pi / self.k ** 2
                * float(np.sum(apod ** 2 * st * (1.0 + ct ** 2) * wq)))

    def _weights(self, n_nodes: int):
        """sin t, cos t and the quadrature weights of i00, i01 and i02."""
        st, ct, apod, wq = self._pupil(n_nodes)
        base = apod * np.sqrt(ct) * st * wq
        return st, ct, (base * (1.0 + ct), base * st, base * (1.0 - ct))

    def _integrals(self, rho, z, n_nodes: int):
        """The three pupil integrals at 1-d (rho, z), unnormalized, as
        rows of a (3, size) array; ``_CHUNK`` points at a time."""
        st, ct, weights = self._weights(n_nodes)
        out = np.empty((3, rho.size), dtype=complex)
        for i in range(0, rho.size, _CHUNK):
            s = slice(i, i + _CHUNK)
            kz = self.k * np.multiply.outer(z[s], ct)
            cos_kz, sin_kz = np.cos(kz), np.sin(kz)
            bessel = _bessel_j012(np.multiply.outer(self.k * rho[s], st))
            for row, b, w in zip(out, bessel, weights):
                row[s] = (b * cos_kz) @ w + 1j * ((b * sin_kz) @ w)
        return out

    def focus_jet(self):
        """``(e[c], d1[i, c], d2[i, c])``: the field at the focus and its
        first and pure second derivatives along axis i of x, y, z.

        The pupil integrals differentiated under the integral sign at
        rho = z = 0 (J0(a) ~ 1 - a^2/4, J1(a) ~ a/2, J2(a) ~ a^2/8,
        e^{ikz cos t} ~ 1 + ikz cos t - (kz cos t)^2/2) are Bessel-free
        moments on the 65-node rule.
        """
        st, ct, (k00, k01, k02) = self._weights(_NODE_LADDER[0])
        m0, m1, m2, mx, mq, mz = self.scale * np.sum(
            [k00, k00 * ct, k00 * ct ** 2, k00 * st ** 2, k02 * st ** 2,
             k01 * st], axis=1)
        k = self.k
        jet = np.zeros((7, 3), dtype=complex)   # rows: e, d1[x, y, z], d2
        jet[1, 2] = -1j * k * mz                # E_z = -2i i01 cos(phi)
        # E_x is i00 + i02 on the x axis, i00 - i02 on the y axis
        jet[[0, 3, 4, 5, 6], 0] = (m0, 1j * k * m1, k ** 2 * (mq / 4 - mx / 2),
                                   -k ** 2 * (mq / 4 + mx / 2), -k ** 2 * m2)
        return jet[0], jet[1:4], jet[4:]

    def field_at(self, x, y, z):
        """Complex field (V/m), shape broadcast(x, y, z) + (3,).

        The pupil integrals are evaluated once per distinct (rho, z), on
        the node count at which the whole call converges.
        """
        xb, yb, zb = np.broadcast_arrays(np.asarray(x, dtype=float),
                                         np.asarray(y, dtype=float),
                                         np.asarray(z, dtype=float))
        phi = np.arctan2(yb, xb)
        # distinct (rho, z) pairs, packed as rho + i z
        pts, inv = np.unique(np.hypot(xb, yb) + 1j * zb, return_inverse=True)
        prev = self._integrals(pts.real, pts.imag, _NODE_LADDER[0])
        for n in _NODE_LADDER[1:]:
            cur = self._integrals(pts.real, pts.imag, n)
            ref = np.max(np.abs(cur), initial=0.0)
            if np.max(np.abs(cur - prev), initial=0.0) <= _QUAD_RTOL * ref:
                break
            prev = cur
        else:
            raise QuadratureNotConverged(
                f"pupil integrals not converged at {_NODE_LADDER[-1]} nodes")
        i00, i01, i02 = cur[:, inv.reshape(phi.shape)]
        e = np.empty(phi.shape + (3,), dtype=complex)
        e[..., 0] = i00 + i02 * np.cos(2 * phi)
        e[..., 1] = i02 * np.sin(2 * phi)
        e[..., 2] = -2j * i01 * np.cos(phi)
        return self.scale * e


def _bessel_j012(x):
    """J0, J1 and J2 at ``x`` >= 0. J2 is 2 J1(x)/x - J0(x) (DLMF 10.6.1),
    or below x = 1e-3, where that difference cancels, its series
    x^2/8 (1 - x^2/12)."""
    b0 = j0(x)
    b1 = j1(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        b2 = 2 * b1 / x - b0
    small = x < 1e-3
    xs = x[small]
    b2[small] = xs * xs / 8 * (1 - xs * xs / 12)
    return b0, b1, b2


def _brent_root(f, xa, xb, xtol, maxiter=100):
    """Root of ``f`` bracketed by [xa, xb]: the Brent-Dekker iteration
    (R. P. Brent, Algorithms for Minimization without Derivatives, 1973,
    ch. 4) transcribed step for step from scipy's ``brentq.c``, with its
    defaults, so it visits the same iterates and returns the same double.
    """
    def fx(x):
        y = float(f(x))
        if math.isnan(y):
            raise ValueError(f"function value at x={x} is NaN")
        return y

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):   # keep the best estimate in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:   # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:   # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry   # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = fx(xcur)
    raise RuntimeError(f"failed to converge after {maxiter} iterations, "
                       f"value is {xcur}")


def _intensity_along_x(field, r):
    return np.sum(np.abs(field.field_at(r, 0.0, 0.0)) ** 2, axis=-1)


def _far_radii(lam):
    """Radii of the far waist scan, geometric from 2.5 lam to
    _MEASURE_RANGE_M; its powers come from libm: numpy's geomspace moves
    in the last bit with its SIMD dispatch."""
    ratio = _MEASURE_RANGE_M / (2.5 * lam)
    return np.array([2.5 * lam * ratio ** (i / 89) for i in range(90)])


def measure_waist(field) -> float:
    """1/e^2 intensity radius along the polarization axis at focus."""
    lam = field.wavelength_m
    i0 = float(_intensity_along_x(field, np.array([0.0]))[0])
    thresh = i0 / math.e ** 2
    # the far geometric scan needs many more nodes; skip it when the near
    # scan already brackets the crossing
    for r in (np.linspace(lam / 50, 2.5 * lam, 60), _far_radii(lam)):
        below = np.nonzero(_intensity_along_x(field, r) < thresh)[0]
        if below.size:
            break
    else:
        raise UnreachableWaist(
            f"no 1/e^2 crossing within {_MEASURE_RANGE_M * 1e6:.0f} um")
    k = int(below[0])
    lo = r[k - 1] if k > 0 else lam / 500

    def f(rr):
        return float(_intensity_along_x(field, np.array([rr]))[0]) - thresh

    return _brent_root(f, lo, r[k], xtol=1e-12)


def calibrate_filling_factor(config: TweezerConfig) -> float:
    """Filling factor f0 at which I(target waist) = I(0)/e^2 along x."""
    if config.target_waist_nm is None:
        raise ValueError("calibration needs target_waist_nm")
    r = np.array([0.0, config.target_waist_nm * 1e-9])

    @lru_cache(maxsize=None)  # the root reuses the bracket's two values
    def gap(f0: float) -> float:
        i0, i_target = _intensity_along_x(TweezerField(config, f0), r)
        return i_target - i0 / math.e ** 2

    f_lo, f_hi = _FILLING_BRACKET
    if gap(f_lo) < 0:
        spot = measure_waist(TweezerField(config, f_lo))
        raise UnreachableWaist(
            f"target waist {config.target_waist_nm:.1f} nm exceeds the "
            f"spot of the most underfilled aperture ({spot * 1e9:.0f} nm)")
    if gap(f_hi) > 0:
        raise UnreachableWaist(
            f"target waist {config.target_waist_nm:.1f} nm is below the "
            "diffraction-limited spot of this aperture")
    return _brent_root(gap, f_lo, f_hi, xtol=1e-13)


def build_field(config: TweezerConfig) -> TweezerField:
    """Calibrated, power-normalized focal field for ``config``."""
    calibrated = config.filling_factor is None
    fld = TweezerField(config, calibrate_filling_factor(config) if calibrated
                       else config.filling_factor)
    fld.waist_m = measure_waist(fld)
    if calibrated and abs(
            fld.waist_m - config.target_waist_nm * 1e-9) > _WAIST_TOL_M:
        raise UnreachableWaist(
            f"calibrated waist {fld.waist_m * 1e9:.3f} nm is not the "
            f"target {config.target_waist_nm:.3f} nm")
    fld.scale = math.sqrt(config.power_W / fld._unit_flux())
    fld.center_e0sq = float(np.sum(np.abs(fld.focus_jet()[0]) ** 2)) / 4.0
    return fld


class GaussianField:
    """Paraxial Gaussian-beam fallback, amplitude only (no wave phase).

    Same interface as :class:`TweezerField` where it matters: linear
    polarization along x, intensity profile of a TEM00 beam.
    """

    def __init__(self, waist_m: float, power_w: float, wavelength_nm: float):
        self.waist_m = float(waist_m)
        self.power_W = float(power_w)
        self.wavelength_m = wavelength_nm * 1e-9
        self.rayleigh_m = math.pi * self.waist_m ** 2 / self.wavelength_m
        i0 = 2 * self.power_W / (math.pi * self.waist_m ** 2)
        self.center_e0sq = intensity_to_e0sq(i0)

    def focus_jet(self):
        """``(e[c], d1[i, c], d2[i, c])`` at the focus, as for
        :class:`TweezerField`: E0 exp(-r^2/w0^2) / sqrt(1 + (z/z_R)^2)
        curves by -2 E0/w0^2 across the beam and -E0/z_R^2 along it."""
        e0 = 2.0 * math.sqrt(self.center_e0sq)
        jet = np.zeros((7, 3), dtype=complex)
        d2_r = -2 * e0 / self.waist_m ** 2
        jet[[0, 4, 5, 6], 0] = (e0, d2_r, d2_r, -e0 / self.rayleigh_m ** 2)
        return jet[0], jet[1:4], jet[4:]

    def field_at(self, x, y, z):
        xb, yb, zb = np.broadcast_arrays(np.asarray(x, dtype=float),
                                         np.asarray(y, dtype=float),
                                         np.asarray(z, dtype=float))
        wz_sq = self.waist_m ** 2 * (1.0 + (zb / self.rayleigh_m) ** 2)
        i0 = 2 * self.power_W / (math.pi * wz_sq)
        inten = i0 * np.exp(-2 * (xb ** 2 + yb ** 2) / wz_sq)
        amp = np.sqrt(2 * inten / (EPS0 * C_LIGHT))
        e = np.zeros(xb.shape + (3,), dtype=complex)
        e[..., 0] = amp
        return e


@dataclass(frozen=True)
class LightShiftMap:
    """Differential shift over a focal-plane grid, du_hz[iy, ix]."""

    x_m: np.ndarray
    y_m: np.ndarray
    du_hz: np.ndarray

    @property
    def center_hz(self) -> float:
        return float(self.du_hz[self.du_hz.shape[0] // 2,
                                self.du_hz.shape[1] // 2])


def lightshift_map(field, env: FieldEnvironment,
                   table: atomstark.PolarizabilityTable,
                   half_extent_m: float | None = None,
                   n: int = 101) -> LightShiftMap:
    """Differential light shift on a focal-plane grid.

    The local polarization (including the longitudinal part near the
    lobes) and local e0sq = |E|^2 / 4 enter the perturbative shift
    pointwise; the bias-field direction comes from ``env.field`` and the
    wavelength from ``env.tweezer``, the config ``field`` was built from.
    """
    if half_extent_m is None:
        if field.waist_m is None:
            raise ValueError("field has no calibrated waist")
        half_extent_m = 1.5 * field.waist_m
    ax = np.linspace(-half_extent_m, half_extent_m, n)
    # exactly antisymmetric, so mirrored points share one radius and the
    # kernel runs once per distinct radius, not once per rounding of it
    ax = (ax - ax[::-1]) / 2
    xx, yy = np.meshgrid(ax, ax)
    e = field.field_at(xx.ravel(), yy.ravel(), np.zeros(xx.size))
    du = atomstark.differential_shift_from_projection(
        table, env.tweezer.wavelength_nm,
        *atomstark.axis_projection(e, env.field.phi_deg))
    return LightShiftMap(ax.copy(), ax.copy(), du.reshape(n, n))


def write_map_csv(m: LightShiftMap, path) -> None:
    """x_nm, y_nm, dU_over_h_Hz rows, x fastest, with the CRLF line ends
    of ``csv.writer``; no cell needs quoting."""
    xs = [f"{x * 1e9:.6f}" for x in m.x_m.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("x_nm,y_nm,dU_over_h_Hz\r\n")
        for y, row in zip(m.y_m.tolist(), m.du_hz.tolist()):
            y_nm = f"{y * 1e9:.6f}"
            fh.write("".join([f"{x},{y_nm},{du:.9e}\r\n"
                              for x, du in zip(xs, row)]))
