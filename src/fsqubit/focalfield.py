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
until another doubling moves no component by more than 1e-8 of the batch
peak.

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

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq
from scipy.special import j0, j1, jv

from . import atomstark
from .constants import C_LIGHT, EPS0
from .errors import QuadratureNotConverged, UnreachableWaist
from .params import FieldEnvironment, TweezerConfig

_NODE_LADDER = (65, 129, 257, 513, 1025)
_QUAD_RTOL = 1e-8
_CHUNK = 8192
_MEASURE_RANGE_M = 4e-5


@lru_cache(maxsize=None)
def _gauss_nodes(n: int):
    return np.polynomial.legendre.leggauss(n)


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

    def _integrals(self, rho, z, n_nodes: int):
        """The three pupil integrals at (rho, z), unnormalized."""
        st, ct, apod, wq = self._pupil(n_nodes)
        base = apod * np.sqrt(ct) * st * wq
        k00 = base * (1.0 + ct)
        k01 = base * st
        k02 = base * (1.0 - ct)

        arg = np.multiply.outer(self.k * np.asarray(rho, dtype=float), st)
        b0 = j0(arg)
        b1 = j1(arg)
        b2 = jv(2, arg)
        z = np.asarray(z, dtype=float)
        if np.any(z != 0.0):
            ph = np.exp(1j * self.k * np.multiply.outer(z, ct))
            b0 = b0 * ph
            b1 = b1 * ph
            b2 = b2 * ph
        return b0 @ k00, b1 @ k01, b2 @ k02

    def _field_flat(self, x, y, z):
        rho = np.hypot(x, y)
        phi = np.arctan2(y, x)
        prev = np.stack(self._integrals(rho, z, _NODE_LADDER[0]), axis=-1)
        for n in _NODE_LADDER[1:]:
            cur = np.stack(self._integrals(rho, z, n), axis=-1)
            ref = np.max(np.abs(cur))
            if np.max(np.abs(cur - prev)) < _QUAD_RTOL * ref:
                i00, i01, i02 = cur[..., 0], cur[..., 1], cur[..., 2]
                break
            prev = cur
        else:
            raise QuadratureNotConverged(
                f"pupil integrals not converged at {_NODE_LADDER[-1]} nodes")
        e = np.empty(rho.shape + (3,), dtype=complex)
        e[..., 0] = i00 + i02 * np.cos(2 * phi)
        e[..., 1] = i02 * np.sin(2 * phi)
        e[..., 2] = -2j * i01 * np.cos(phi)
        return self.scale * e

    def field_at(self, x, y, z):
        """Complex field (V/m), shape broadcast(x, y, z) + (3,)."""
        xb, yb, zb = np.broadcast_arrays(np.asarray(x, dtype=float),
                                         np.asarray(y, dtype=float),
                                         np.asarray(z, dtype=float))
        shape = xb.shape
        xf = xb.ravel()
        yf = yb.ravel()
        zf = zb.ravel()
        out = np.empty((xf.size, 3), dtype=complex)
        for i in range(0, xf.size, _CHUNK):
            s = slice(i, i + _CHUNK)
            out[s] = self._field_flat(xf[s], yf[s], zf[s])
        return out.reshape(shape + (3,))


def _intensity_along_x(field, r):
    zero = np.zeros_like(r)
    e = field.field_at(r, zero, zero)
    return np.sum(np.abs(e) ** 2, axis=-1)


def measure_waist(field) -> float:
    """1/e^2 intensity radius along the polarization axis at focus."""
    lam = field.wavelength_m
    i0 = float(_intensity_along_x(field, np.array([0.0]))[0])
    thresh = i0 / math.e ** 2
    # the far geometric scan needs many more nodes; skip it when the near
    # scan already brackets the crossing
    for r in (np.linspace(lam / 50, 2.5 * lam, 60),
              np.geomspace(2.5 * lam, _MEASURE_RANGE_M, 90)):
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

    return float(brentq(f, lo, r[k], xtol=1e-12))


def calibrate_filling_factor(config: TweezerConfig,
                             f_lo: float = 0.05,
                             f_hi: float = 40.0) -> float:
    """Filling factor whose focus has the configured target waist."""
    if config.target_waist_nm is None:
        raise ValueError("calibration needs target_waist_nm")
    target = config.target_waist_nm * 1e-9

    def gap(f0: float) -> float:
        return measure_waist(TweezerField(config, f0)) - target

    g_lo = gap(f_lo)
    g_hi = gap(f_hi)
    if g_lo < 0:
        raise UnreachableWaist(
            f"target waist {config.target_waist_nm:.1f} nm exceeds the "
            f"spot of the most underfilled aperture "
            f"({(g_lo + target) * 1e9:.0f} nm)")
    if g_hi > 0:
        raise UnreachableWaist(
            f"target waist {config.target_waist_nm:.1f} nm is below the "
            "diffraction-limited spot of this aperture")
    return float(brentq(gap, f_lo, f_hi, xtol=1e-6, rtol=1e-10))


def build_field(config: TweezerConfig) -> TweezerField:
    """Calibrated, power-normalized focal field for ``config``."""
    if config.filling_factor is not None:
        f0 = config.filling_factor
    else:
        f0 = calibrate_filling_factor(config)
    fld = TweezerField(config, f0)
    fld.waist_m = measure_waist(fld)
    fld.scale = math.sqrt(config.power_W / fld._unit_flux())
    e0 = fld.field_at(0.0, 0.0, 0.0)
    fld.center_e0sq = float(np.sum(np.abs(e0) ** 2)) / 4.0
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
        self.center_e0sq = i0 / (2 * EPS0 * C_LIGHT)

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
    xx, yy = np.meshgrid(ax, ax)
    e = field.field_at(xx.ravel(), yy.ravel(), np.zeros(xx.size))
    du = atomstark.differential_shift_from_projection(
        table, env.tweezer.wavelength_nm,
        *atomstark.axis_projection(e, env.field.phi_deg))
    return LightShiftMap(ax.copy(), ax.copy(), du.reshape(n, n))


def write_map_csv(m: LightShiftMap, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x_nm", "y_nm", "dU_over_h_Hz"])
        for iy, y in enumerate(m.y_m):
            for ix, x in enumerate(m.x_m):
                w.writerow([f"{x * 1e9:.6f}", f"{y * 1e9:.6f}",
                            f"{m.du_hz[iy, ix]:.9e}"])


def read_map_csv(path) -> LightShiftMap:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim != 2 or data.shape[1] != 3:
        raise ValueError(f"{path}: expected 3 columns x_nm,y_nm,dU_over_h_Hz")
    x = np.unique(data[:, 0]) * 1e-9
    nx = x.size
    if data.shape[0] % nx:
        raise ValueError(f"{path}: ragged grid")
    y = data[::nx, 1] * 1e-9
    return LightShiftMap(x, y, data[:, 2].reshape(y.size, nx))
