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
    and the whole map under point reflection.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import j0

from fsqubit import FieldEnvironment, MagneticField, TweezerConfig
from fsqubit import focalfield
from fsqubit.constants import C_LIGHT, EPS0
from fsqubit.errors import UnreachableWaist

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
        with pytest.raises(UnreachableWaist):
            focalfield.build_field(cfg)

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
        m2 = focalfield.read_map_csv(path)
        np.testing.assert_allclose(m2.x_m, m.x_m, rtol=0, atol=1e-12)
        np.testing.assert_allclose(m2.du_hz, m.du_hz, rtol=1e-6)

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
