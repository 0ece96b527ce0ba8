"""Focal-field construction: vector diffraction, calibration, shift maps.

Oracles used here:
  * the total transverse-plane flux equals the beam power in every plane z
    of a lossless focus; it is measured by radial quadrature out to 10 and
    20 waists, with the 1/R diffraction tail extrapolated away;
  * a Gaussian beam has analytic peak intensity 2P/(pi w0^2) and Rayleigh
    range pi w0^2 / lambda; at low aperture the focus is the paraxial
    Hankel transform of the pupil-truncated Gaussian;
  * symmetry: the longitudinal component vanishes identically on the
    optical axis, the cross-polarized component on both principal axes,
    and the whole map under point reflection;
  * the focus jet (field, gradient and pure second derivatives at the
    origin) matches Richardson-extrapolated centered differences of the
    field itself;
  * the in-package Brent root finder visits the same points and returns
    the same double as ``scipy.optimize.brentq``, the test-only reference;
  * the kernel's J2, from J0 and J1 by recurrence, matches
    ``scipy.special.jv(2, x)``, the test-only reference;
  * the Newton Gauss-Legendre nodes match numpy's ``leggauss``, the
    test-only reference, and integrate monomials to their exact values;
  * ``write_map_csv`` writes the bytes ``csv.writer`` writes.
"""

import csv
import importlib.util
import math
import pathlib
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import j0, jv

from fsqubit import FieldEnvironment, MagneticField, TweezerConfig
from fsqubit import focalfield
from fsqubit.constants import C_LIGHT, EPS0
from fsqubit.errors import UnreachableWaist

import oracles

REF = TweezerConfig(wavelength_nm=539.91, power_W=1.45e-3, na=0.5,
                    target_waist_nm=564.0)


@pytest.fixture(scope="module")
def ref_field():
    return focalfield.build_field(REF)


def plane_flux(field, z_m, half_extent_m, n=201):
    x = np.linspace(-half_extent_m, half_extent_m, n)
    dx = x[1] - x[0]
    xx, yy = np.meshgrid(x, x)
    e = field.field_at(xx.ravel(), yy.ravel(), np.full(xx.size, z_m))
    it = np.abs(e[:, 0]) ** 2 + np.abs(e[:, 1]) ** 2
    return 0.5 * EPS0 * C_LIGHT * it.sum() * dx * dx


def radial_flux(field, z_m, r_lo, r_hi, panels=20, n=16):
    """Flux through the annulus r_lo < rho < r_hi in the plane z_m.

    At phi = 45 deg, |Ex|^2 + |Ey|^2 = |i00|^2 + |i02|^2, the azimuthal mean
    of the transverse intensity, so one ray carries the whole annulus.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    edges = np.linspace(r_lo, r_hi, panels + 1)
    a, b = edges[:-1, None], edges[1:, None]
    rho = (0.5 * (b - a) * (x + 1) + a).ravel()
    wq = (0.5 * (b - a) * w).ravel()
    u = rho / math.sqrt(2)
    e = field.field_at(u, u, np.full(rho.size, z_m))
    it = np.abs(e[:, 0]) ** 2 + np.abs(e[:, 1]) ** 2
    return 0.5 * EPS0 * C_LIGHT * 2 * math.pi * float(np.sum(it * rho * wq))


@pytest.mark.parametrize("n", focalfield._NODE_LADDER)
class TestGaussNodes:
    def test_nodes_match_leggauss(self, n):
        x, _ = focalfield._gauss_nodes(n)
        ref, _ = np.polynomial.legendre.leggauss(n)
        assert np.all(np.abs(x - ref) <= 2 * np.spacing(np.abs(ref)))

    def test_rule_exactly_symmetric(self, n):
        x, w = focalfield._gauss_nodes(n)
        assert x.size == w.size == n
        assert np.array_equal(x, -x[::-1])
        assert np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0) and np.all(w > 0)

    @pytest.mark.parametrize("power,rtol", [(4, 2e-15), ("2n-2", 1e-12)])
    def test_monomials_exact(self, n, power, rtol):
        x, w = focalfield._gauss_nodes(n)
        k = 2 * n - 2 if power == "2n-2" else power
        assert abs(np.sum(w * x ** k) - 2 / (k + 1)) <= rtol * 2 / (k + 1)

    def test_cached_arrays_read_only(self, n):
        x, w = focalfield._gauss_nodes(n)
        assert focalfield._gauss_nodes(n)[0] is x
        for a in (x, w):
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestCalibration:
    def test_waist_roundtrip(self, ref_field):
        assert abs(ref_field.waist_m - 564e-9) < 1e-9

    def test_filling_factor_sane(self, ref_field):
        assert 0.2 < ref_field.filling_factor < 5.0

    def test_unreachable_below_diffraction_limit(self):
        cfg = TweezerConfig(wavelength_nm=539.91, power_W=1e-3, na=0.5,
                            target_waist_nm=300.0)
        with pytest.raises(UnreachableWaist):
            focalfield.build_field(cfg)

    def test_unreachable_above_underfill_range(self):
        cfg = TweezerConfig(wavelength_nm=539.91, power_W=1e-3, na=0.5,
                            target_waist_nm=50_000.0)
        with pytest.raises(UnreachableWaist,
                           match=r"most underfilled aperture \(\d+ nm\)"):
            focalfield.build_field(cfg)

    @pytest.mark.parametrize("target_nm", [500.0, 564.0, 900.0, 2000.0,
                                           5000.0])
    def test_calibration_puts_target_on_the_1_over_e2_level(self, target_nm):
        cfg = TweezerConfig(wavelength_nm=539.91, power_W=1e-3, na=0.5,
                            target_waist_nm=target_nm)
        fld = focalfield.TweezerField(
            cfg, focalfield.calibrate_filling_factor(cfg))
        i0, i_target = focalfield._intensity_along_x(
            fld, np.array([0.0, target_nm * 1e-9]))
        assert abs(i_target * math.e ** 2 / i0 - 1) <= 1e-11

    def test_calibrated_build_measures_the_waist_once(self, monkeypatch):
        calls = []
        measure = focalfield.measure_waist

        def counted(field):
            calls.append(field.filling_factor)
            return measure(field)
        monkeypatch.setattr(focalfield, "measure_waist", counted)
        focalfield.build_field(REF)
        assert len(calls) == 1

    def test_calibration_off_target_raises(self, ref_field, monkeypatch):
        f0 = ref_field.filling_factor
        monkeypatch.setattr(focalfield, "calibrate_filling_factor",
                            lambda config: 1.05 * f0)
        with pytest.raises(UnreachableWaist, match="not the target"):
            focalfield.build_field(REF)

    @pytest.mark.parametrize("key", ["wavelength_nm", "power_W", "na",
                                     "target_waist_nm", "filling_factor"])
    def test_non_finite_config_rejected(self, key):
        kwargs = dict(wavelength_nm=539.91, power_W=1e-3, na=0.5,
                      target_waist_nm=564.0, filling_factor=1.0)
        for bad in (math.nan, math.inf):
            kwargs[key] = bad
            with pytest.raises(ValueError):
                TweezerConfig(**kwargs)

    def test_explicit_filling_factor_skips_calibration(self):
        cfg = TweezerConfig(wavelength_nm=539.91, power_W=1e-3, na=0.5,
                            filling_factor=1.0)
        fld = focalfield.build_field(cfg)
        assert fld.filling_factor == 1.0
        assert 400e-9 < fld.waist_m < 1200e-9


def _recorded(f):
    """``f`` plus the list of points it is called at."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)
    return g, calls


class TestBrentRoot:
    BRACKETS = {"cos": (lambda x: math.cos(x) - x, 0.0, 1.0),
                "cubic": (lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0),
                "log": (math.log, 0.01, 100.0),
                "root-at-a": (lambda x: x - 1.0, 1.0, 2.0),
                "root-at-b": (lambda x: x * x - 4.0, 0.0, 2.0)}
    # the two tolerances shipped: measure_waist and the calibration
    TOLERANCES = {"waist": {"xtol": 1e-12},
                  "filling": {"xtol": 1e-13}}

    @pytest.mark.parametrize("tol", sorted(TOLERANCES))
    @pytest.mark.parametrize("case", sorted(BRACKETS))
    def test_same_double_and_iterates_as_scipy(self, case, tol):
        f, a, b = self.BRACKETS[case]
        ours, ours_calls = _recorded(f)
        ref, ref_calls = _recorded(f)
        root = focalfield._brent_root(ours, a, b, **self.TOLERANCES[tol])
        assert root == brentq(ref, a, b, **self.TOLERANCES[tol])
        assert ours_calls == ref_calls

    @pytest.mark.parametrize("f,message", [
        (lambda x: x * x + 1.0, "different signs"),
        (lambda x: math.nan, "NaN")], ids=["no-sign-change", "nan"])
    def test_bad_bracket_raises_value_error(self, f, message):
        with pytest.raises(ValueError):
            brentq(f, -1.0, 1.0, xtol=1e-12)
        with pytest.raises(ValueError, match=message):
            focalfield._brent_root(f, -1.0, 1.0, xtol=1e-12)

    def test_exhausted_iterations_raise_runtime_error(self):
        f = self.BRACKETS["cos"][0]
        with pytest.raises(RuntimeError):
            brentq(f, 0.0, 1.0, xtol=1e-12, maxiter=2)
        with pytest.raises(RuntimeError, match="2 iterations"):
            focalfield._brent_root(f, 0.0, 1.0, xtol=1e-12, maxiter=2)


class TestFieldStructure:
    def test_longitudinal_vanishes_on_axis(self, ref_field):
        z = np.linspace(-2e-6, 2e-6, 10)
        e = ref_field.field_at(np.zeros(10), np.zeros(10), z)
        et = np.hypot(np.abs(e[:, 0]), np.abs(e[:, 1]))
        assert np.all(np.abs(e[:, 2]) < 1e-10 * et)

    def test_cross_pol_vanishes_on_principal_axes(self, ref_field):
        r = np.linspace(-800e-9, 800e-9, 11)
        zero = np.zeros_like(r)
        e0 = np.linalg.norm(ref_field.field_at(0.0, 0.0, 0.0))
        ex_axis = ref_field.field_at(r, zero, zero)
        ey_axis = ref_field.field_at(zero, r, zero)
        assert np.all(np.abs(ex_axis[:, 1]) < 1e-10 * e0)
        assert np.all(np.abs(ey_axis[:, 1]) < 1e-10 * e0)

    def test_longitudinal_vanishes_perpendicular_to_polarization(self, ref_field):
        r = np.linspace(-800e-9, 800e-9, 11)
        zero = np.zeros_like(r)
        e0 = np.linalg.norm(ref_field.field_at(0.0, 0.0, 0.0))
        e = ref_field.field_at(zero, r, zero)
        assert np.all(np.abs(e[:, 2]) < 1e-10 * e0)

    def test_longitudinal_lobes_along_polarization_axis(self, ref_field):
        r = np.linspace(0, 1.5 * ref_field.waist_m, 61)
        zero = np.zeros_like(r)
        ez = np.abs(ref_field.field_at(r, zero, zero)[:, 2])
        e0 = np.linalg.norm(ref_field.field_at(0.0, 0.0, 0.0))
        frac = (ez / e0) ** 2
        assert frac.max() > 0.005
        k = int(np.argmax(ez))
        assert 0 < k < len(r) - 1

    def test_quadrature_doubling_converged(self, ref_field):
        rho = np.array([0.0, 200e-9, 564e-9, 1.2e-6])
        z = np.array([0.0, 500e-9, -1e-6, 2e-6])
        coarse = np.stack(ref_field._integrals(rho, z, 129), axis=-1)
        fine = np.stack(ref_field._integrals(rho, z, 257), axis=-1)
        scale = np.max(np.abs(fine))
        assert np.max(np.abs(fine - coarse)) < 1e-8 * scale


@pytest.fixture
def rungs(monkeypatch):
    """(node count, point count) of every ``_integrals`` call."""
    seen = []
    integrals = focalfield.TweezerField._integrals

    def recording(self, rho, z, n_nodes):
        seen.append((n_nodes, np.size(rho)))
        return integrals(self, rho, z, n_nodes)

    monkeypatch.setattr(focalfield.TweezerField, "_integrals", recording)
    return seen


class TestKernel:
    def test_j2_matches_scipy_jv(self):
        x = np.concatenate([[0.0], np.geomspace(1e-8, 1e-2, 2001),
                            np.linspace(1e-2, 300, 20001)])
        j2 = focalfield._bessel_j012(x)[2]
        assert np.all(np.isfinite(j2))
        assert j2[0] == 0.0
        assert np.max(np.abs(j2 - jv(2, x))) < 2e-15

    def test_call_converges_as_one(self, ref_field, rungs):
        # 0.3 um sits once among near-axis points, which alone converge
        # on 129 nodes, and once in the next chunk among points out to
        # 40 um, which need 257; one call takes one rung for both
        near = np.linspace(0.0, 0.3e-6, focalfield._CHUNK)
        far = np.geomspace(0.3e-6, 4e-5, 50)
        x = np.concatenate([near, far])
        assert x.size > focalfield._CHUNK
        e = ref_field.field_at(x, 0.0, 0.0)
        assert np.array_equal(e[focalfield._CHUNK - 1], e[focalfield._CHUNK])
        assert [n for n, _ in rungs] == [65, 129, 257]
        assert {size for _, size in rungs} == {x.size - 1}

    def test_map_evaluates_each_radius_once(self, ref_field, table, rungs):
        env = FieldEnvironment(REF, MagneticField(8.0, 0.0))
        m = focalfield.lightshift_map(ref_field, env, table,
                                      half_extent_m=846e-9, n=101)
        xx, yy = np.meshgrid(m.x_m, m.y_m)
        assert np.unique(np.hypot(xx, yy)).size == 1160   # of 10201 points
        assert rungs and all(size == 1160 for _, size in rungs)


def difference_jet(field, scale_m):
    """(d1[i, c], d2[i, c]) at the focus from centered first and second
    differences of ``field_at`` at steps scale/200 and scale/800, each
    Richardson-extrapolated."""
    steps = scale_m / np.array([200.0, 800.0])
    pts = np.zeros((13, 3))
    for i in range(3):
        pts[1 + 4 * i:5 + 4 * i, i] = (-steps[0], steps[0],
                                       -steps[1], steps[1])
    e = field.field_at(*pts.T)
    pm = e[1:].reshape(3, 2, 2, 3)      # axis, step, sign, component
    d1 = (pm[:, :, 1] - pm[:, :, 0]) / (2 * steps[:, None])
    d2 = (pm[:, :, 1] + pm[:, :, 0] - 2 * e[0]) / steps[:, None] ** 2
    return ((16 * d1[:, 1] - d1[:, 0]) / 15,
            (16 * d2[:, 1] - d2[:, 0]) / 15)


class TestFocusJet:
    @pytest.mark.parametrize("kind", ["tweezer", "gaussian"])
    def test_center_is_field_at_origin(self, ref_field, kind):
        fld = (ref_field if kind == "tweezer"
               else focalfield.GaussianField(600e-9, 2e-3, 540.0))
        e = fld.field_at(0.0, 0.0, 0.0)
        err = np.max(np.abs(fld.focus_jet()[0] - e))
        assert err <= 1e-12 * np.linalg.norm(e)

    @pytest.mark.parametrize("kind", ["tweezer", "gaussian"])
    def test_derivatives_match_differences(self, ref_field, kind):
        fld = (ref_field if kind == "tweezer"
               else focalfield.GaussianField(600e-9, 2e-3, 540.0))
        e, d1, d2 = fld.focus_jet()
        fd1, fd2 = difference_jet(fld, fld.waist_m)
        e0 = np.linalg.norm(e)
        np.testing.assert_allclose(d1, fd1, rtol=0,
                                   atol=1e-7 * e0 / fld.waist_m)
        np.testing.assert_allclose(d2, fd2, rtol=0,
                                   atol=1e-7 * e0 / fld.waist_m ** 2)


class TestPower:
    @pytest.mark.parametrize("z_over_zr", [0.0, -1.0, -0.5, 0.5, 1.0])
    def test_total_flux_matches_power(self, ref_field, z_over_zr):
        w0 = ref_field.waist_m
        z = z_over_zr * math.pi * w0 ** 2 / (REF.wavelength_nm * 1e-9)
        f10 = radial_flux(ref_field, z, 0.0, 10 * w0)
        f20 = f10 + radial_flux(ref_field, z, 10 * w0, 20 * w0)
        # the diffraction tail beyond R carries flux ~ 1/R
        assert abs((2 * f20 - f10) / REF.power_W - 1) < 2e-4

    @pytest.mark.parametrize("f0", [0.05, 0.747, 40.0])
    def test_pupil_flux_matches_adaptive_quadrature(self, f0):
        fld = focalfield.TweezerField(REF, f0)

        def integrand(t):
            f_sq = math.exp(-2 * (math.sin(t) / (f0 * REF.na)) ** 2)
            return f_sq * math.sin(t) * (1 + math.cos(t) ** 2)

        ref = quad(integrand, 0.0, fld.theta_max, epsabs=0, epsrel=1e-13)[0]
        expect = EPS0 * C_LIGHT * 2 * math.pi / fld.k ** 2 * ref
        assert fld._unit_flux() == pytest.approx(expect, rel=1e-13)


class TestGaussianFallback:
    def test_peak_intensity_exact(self):
        g = focalfield.GaussianField(600e-9, 2e-3, 540.0)
        e = g.field_at(0.0, 0.0, 0.0)
        i0 = 0.5 * EPS0 * C_LIGHT * np.abs(e[0]) ** 2
        assert i0 == pytest.approx(2 * 2e-3 / (math.pi * 600e-9 ** 2),
                                   rel=1e-12)

    def test_flux_equals_power(self):
        g = focalfield.GaussianField(600e-9, 2e-3, 540.0)
        assert plane_flux(g, 0.0, 3e-6) == pytest.approx(2e-3, rel=1e-3)
        assert plane_flux(g, 1e-6, 4e-6) == pytest.approx(2e-3, rel=1e-3)

    def test_axial_profile_rayleigh(self):
        w0, lam = 600e-9, 540e-9
        g = focalfield.GaussianField(w0, 2e-3, 540.0)
        z_r = math.pi * w0 ** 2 / lam
        i_center = np.abs(g.field_at(0.0, 0.0, 0.0)[0]) ** 2
        i_zr = np.abs(g.field_at(0.0, 0.0, z_r)[0]) ** 2
        assert i_zr == pytest.approx(i_center / 2, rel=1e-12)

    def test_low_na_focus_matches_gaussian(self):
        cfg = TweezerConfig(wavelength_nm=539.91, power_W=1e-3, na=0.12,
                            filling_factor=1.0)
        fld = focalfield.build_field(cfg)
        # paraxial focus of the pupil-truncated Gaussian g(s), s = sin t:
        # E(rho) ~ int_0^NA g(s) J0(k rho s) s ds, with the flux fixed to P
        # by Parseval, 2 pi / k^2 int_0^NA g(s)^2 s ds
        a = cfg.filling_factor * cfg.na
        x, w = np.polynomial.legendre.leggauss(64)
        s = 0.5 * cfg.na * (x + 1)
        gs = np.exp(-(s / a) ** 2) * s * 0.5 * cfg.na * w
        norm = (2 * math.pi / fld.k ** 2 * a ** 2 / 4
                * -math.expm1(-2 * (cfg.na / a) ** 2))
        r = np.linspace(0, fld.waist_m, 9)
        zero = np.zeros_like(r)
        i_oracle = cfg.power_W * (j0(fld.k * np.outer(r, s)) @ gs) ** 2 / norm
        for pts in ((r, zero), (zero, r)):
            e_dw = fld.field_at(pts[0], pts[1], zero)
            i_dw = 0.5 * EPS0 * C_LIGHT * np.sum(np.abs(e_dw) ** 2, axis=-1)
            assert np.all(np.abs(i_dw / i_oracle - 1) < 0.02)


class TestSamples:
    def test_center_e0sq_near_gaussian_estimate(self, ref_field):
        i0 = 2 * REF.power_W / (math.pi * ref_field.waist_m ** 2)
        e0sq_gauss = i0 / (2 * EPS0 * C_LIGHT)
        assert 0.75 < ref_field.center_e0sq / e0sq_gauss < 1.25


@pytest.fixture(scope="module")
def magic_map(ref_field, table):
    from fsqubit import atomstark
    env = FieldEnvironment(REF, MagneticField(8.0, 0.0))
    phi = atomstark.find_magic_angle(env, table)
    env = FieldEnvironment(REF, MagneticField(8.0, phi))
    return focalfield.lightshift_map(ref_field, env, table, n=81), phi


@pytest.fixture(scope="module")
def off_magic_map(ref_field, table, magic_map):
    env = FieldEnvironment(REF, MagneticField(8.0, magic_map[1] + 0.5))
    return focalfield.lightshift_map(ref_field, env, table, n=81)


class TestMap:
    def test_point_reflection_symmetry(self, magic_map):
        m, _ = magic_map
        scale = np.max(np.abs(m.du_hz))
        assert np.max(np.abs(m.du_hz - m.du_hz[::-1, ::-1])) < 1e-9 * scale

    def test_center_vanishes_at_magic_angle(self, magic_map):
        m, _ = magic_map
        n = m.du_hz.shape[0] // 2
        assert abs(m.du_hz[n, n]) < 1e-6 * np.max(np.abs(m.du_hz))

    @staticmethod
    def _quadratic_r2(r, v):
        coef = np.polynomial.polynomial.polyfit(r * 1e9, v, [0, 2])
        fit = np.polynomial.polynomial.polyval(r * 1e9, coef)
        ss_res = np.sum((v - fit) ** 2)
        ss_tot = np.sum((v - v.mean()) ** 2)
        return 1 - ss_res / ss_tot

    def test_residual_grows_along_polarization_axis(self, magic_map, ref_field):
        m, _ = magic_map
        n = m.du_hz.shape[0] // 2
        along = m.du_hz[n, :]
        across = m.du_hz[:, n]
        assert np.max(np.abs(along)) > 10 * np.max(np.abs(across))
        half = np.abs(m.x_m) <= ref_field.waist_m / 2
        assert self._quadratic_r2(m.x_m[half], along[half]) > 0.95

    def test_y_axis_stays_magic(self, magic_map):
        # on the perpendicular axis the field stays x-polarized, so the
        # projection equals the center's and the shift vanishes to round-off
        m, _ = magic_map
        n = m.du_hz.shape[0] // 2
        scale = np.max(np.abs(m.du_hz))
        assert np.max(np.abs(m.du_hz[:, n])) <= 1e-12 * scale

    def test_quadratic_perpendicular_to_polarization(self, off_magic_map,
                                                     ref_field):
        # off the magic angle the perpendicular axis carries no lobe term,
        # leaving a residual proportional to the intensity profile: cleanly
        # quadratic
        m = off_magic_map
        n = m.du_hz.shape[0] // 2
        half = np.abs(m.y_m) <= ref_field.waist_m / 2
        assert self._quadratic_r2(m.y_m[half], m.du_hz[half, n]) > 0.99

    def test_map_csv_roundtrip(self, magic_map, tmp_path):
        m, _ = magic_map
        path = tmp_path / "map.csv"
        focalfield.write_map_csv(m, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x_nm,y_nm,dU_over_h_Hz"
        assert len(lines) == 1 + m.du_hz.size
        m2 = oracles.read_map_csv(path)
        np.testing.assert_allclose(m2.x_m, m.x_m, rtol=0, atol=1e-12)
        np.testing.assert_allclose(m2.du_hz, m.du_hz, rtol=1e-6)

    def test_map_csv_bytes_match_csv_writer(self, magic_map, tmp_path):
        m, _ = magic_map
        # signed zeros in every column, as the axes and the map may hold
        tiny = focalfield.LightShiftMap(
            np.array([-1e-7, -0.0, 0.0, 3.3e-7]), np.array([-0.0, 2.5e-7]),
            np.array([[0.0, -0.0, -1.5e3, 2.0e-3],
                      [7.0, -0.0, 1e-300, -2.0]]))
        for k, shift_map in enumerate((m, tiny)):
            path, ref = tmp_path / f"map{k}.csv", tmp_path / f"ref{k}.csv"
            focalfield.write_map_csv(shift_map, path)
            with open(ref, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["x_nm", "y_nm", "dU_over_h_Hz"])
                for iy, y in enumerate(shift_map.y_m):
                    for ix, x in enumerate(shift_map.x_m):
                        w.writerow([f"{x * 1e9:.6f}", f"{y * 1e9:.6f}",
                                    f"{shift_map.du_hz[iy, ix]:.9e}"])
            assert path.read_bytes() == ref.read_bytes()
        assert b"\r\n-0.000000,-0.000000,-0.000000000e+00\r\n" in \
            path.read_bytes()

    def test_deep_map_tracks_intensity(self, ref_field, table):
        from fsqubit import atomstark
        env = FieldEnvironment(REF, MagneticField(3.0, 0.0))
        m = focalfield.lightshift_map(ref_field, env, table, n=41)
        n = m.du_hz.shape[0] // 2
        center = m.du_hz[n, n]
        expect = atomstark.differential_shift_from_projection(
            table, REF.wavelength_nm, 1.0, ref_field.center_e0sq)
        assert center == pytest.approx(float(expect), rel=1e-9)
        assert center == pytest.approx(-200e3, rel=0.35)
        assert np.all(np.abs(m.du_hz) <= np.abs(center) * (1 + 1e-9))


def test_calibrate_fixture_measure_optics_smoke(capsys):
    """The fixture script's optics measurement runs on the focus jet,
    prints its numbers and writes no table."""
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "calibrate_fixture", root / "scripts/calibrate_fixture.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    tables = {p: p.read_bytes() for p in script.DATA_DIR.glob("*.csv")}
    script.measure_optics()
    out = capsys.readouterr().out
    zeta = float(re.search(r"zeta (\S+) /m\^2", out).group(1))
    assert zeta == pytest.approx(2.9276e11, rel=1e-4)
    assert "755 block" in out
    assert {p: p.read_bytes()
            for p in script.DATA_DIR.glob("*.csv")} == tables
