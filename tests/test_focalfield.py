"""Focal-field construction: vector diffraction, calibration, shift maps.

Oracles used here:
  * transverse-plane flux is independent of z for a lossless focus
    (Parseval in the angular domain), so flux(z) == flux(0) == beam power;
  * a Gaussian beam is the exact low-aperture limit, giving analytic
    peak intensity 2P/(pi w0^2) and Rayleigh range pi w0^2 / lambda;
  * symmetry: the longitudinal component vanishes identically on the
    optical axis, the cross-polarized component on both principal axes,
    and the whole map under point reflection.
"""

import math

import numpy as np
import pytest

from fsqubit import FieldEnvironment, MagneticField, TweezerConfig
from fsqubit import focalfield
from fsqubit.constants import C_LIGHT, EPS0
from fsqubit.errors import GridTooCoarse, UnreachableWaist

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
    def test_flux_matches_power_at_focus(self, ref_field):
        flux = plane_flux(ref_field, 0.0, 5 * ref_field.waist_m)
        assert abs(flux / REF.power_W - 1) < 2e-3

    def test_flux_independent_of_z(self, ref_field):
        w0 = ref_field.waist_m
        z_r = math.pi * w0 ** 2 / (REF.wavelength_nm * 1e-9)
        f0 = plane_flux(ref_field, 0.0, 6 * w0)
        for z in (-z_r, -0.5 * z_r, 0.5 * z_r, z_r):
            fz = plane_flux(ref_field, z, 6 * w0)
            assert abs(fz / f0 - 1) < 2e-3

    def test_normalize_power_rejects_coarse_grid(self, ref_field):
        w0 = ref_field.waist_m
        x = np.arange(-3 * w0, 3 * w0, w0 / 4)
        xx, yy = np.meshgrid(x, x)
        e = ref_field.field_at(xx.ravel(), yy.ravel(), np.zeros(xx.size))
        e = e.reshape(xx.shape + (3,))
        with pytest.raises(GridTooCoarse):
            focalfield.normalize_power(e, w0 / 4, w0 / 4, 1e-3)

    def test_normalize_power_rejects_truncated_grid(self, ref_field):
        w0 = ref_field.waist_m
        x = np.arange(-0.3 * w0, 0.3 * w0, w0 / 20)
        xx, yy = np.meshgrid(x, x)
        e = ref_field.field_at(xx.ravel(), yy.ravel(), np.zeros(xx.size))
        e = e.reshape(xx.shape + (3,))
        with pytest.raises(GridTooCoarse):
            focalfield.normalize_power(e, w0 / 20, w0 / 20, 1e-3)


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
        g = focalfield.GaussianField(fld.waist_m, 1e-3, 539.91)
        r = np.linspace(0, fld.waist_m, 9)
        zero = np.zeros_like(r)
        for pts in ((r, zero), (zero, r)):
            e_dw = fld.field_at(pts[0], pts[1], zero)
            e_g = g.field_at(pts[0], pts[1], zero)
            i_dw = np.sum(np.abs(e_dw) ** 2, axis=-1)
            i_g = np.sum(np.abs(e_g) ** 2, axis=-1)
            assert np.all(np.abs(i_dw / i_g - 1) < 0.05)


class TestSamples:
    def test_sample_fields(self, ref_field):
        s = focalfield.sample_at(ref_field, 200e-9, -100e-9, 50e-9)
        assert np.linalg.norm(s.epsilon) == pytest.approx(1.0, rel=1e-12)
        assert s.e0sq == pytest.approx(
            np.sum(np.abs(s.e_field) ** 2) / 4.0, rel=1e-12)

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

    def test_quadratic_perpendicular_to_polarization(self, magic_map, ref_field):
        # on the perpendicular axis the lobe term is absent, leaving a
        # residual proportional to the intensity profile: cleanly quadratic
        m, _ = magic_map
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
        s = focalfield.sample_at(ref_field, 0.0, 0.0, 0.0)
        expect = atomstark.differential_shift_from_projection(
            table, REF.wavelength_nm, 1.0, s.e0sq)
        assert center == pytest.approx(float(expect), rel=1e-9)
        assert center == pytest.approx(-200e3, rel=0.35)
        assert np.all(np.abs(m.du_hz) <= np.abs(center) * (1 + 1e-9))
