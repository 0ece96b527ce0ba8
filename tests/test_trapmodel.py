"""Trap characterization and thermal sampling.

Oracles: analytic Gaussian-beam curvature (omega_r = sqrt(4U/m w0^2),
omega_z = sqrt(2U/m z_R^2)), the Richardson limit of centered second
differences of the focal shift for the calibrated tweezers, Bose
occupation mean and geometric law for Fock sampling, Gaussian moments for
classical sampling, and the closed-form ladder detuning at n = 0.
"""

import math

import numpy as np
import pytest
from scipy import stats

from fsqubit import FieldEnvironment, MagneticField, TweezerConfig
from fsqubit import atomstark, focalfield, trapmodel
from fsqubit.atomstark import E0SQ_AU_HZ
from fsqubit.constants import HBAR, H_PLANCK, K_B, MASS_SR88
from fsqubit.errors import ModelMismatch, NotTrapping

import oracles

REF = TweezerConfig(wavelength_nm=539.91, power_W=1e-3, na=0.5,
                    target_waist_nm=564.0)
ENV0 = FieldEnvironment(REF, MagneticField(8.0, 0.0))


def rng_from(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def gaussian_trap(power_w=1e-3, waist_m=600e-9):
    return focalfield.GaussianField(waist_m, power_w, 539.91)


def stencil_limit_omegas(field, env, table, wavelength_nm):
    """Per-state trap frequencies from centered second differences of the
    m_J = 0 shift at steps w/200 and w/800, Richardson-extrapolated: the
    finite-difference limit the exact focal curvature must reach."""
    steps = field.waist_m / np.array([200.0, 800.0])
    pts = np.zeros((13, 3))
    for i in range(3):
        pts[1 + 4 * i:5 + 4 * i, i] = (-steps[0], steps[0],
                                       -steps[1], steps[1])
    u3_sq, e0sq = atomstark.axis_projection(field.field_at(*pts.T),
                                            env.field.phi_deg)
    out = {}
    for label in ("3P0", "3P2"):
        u = atomstark.state_light_shift(table, label, wavelength_nm, u3_sq,
                                        e0sq)
        pm = u[1:].reshape(3, 2, 2)     # axis, step, sign
        curv = (pm.sum(axis=-1) - 2 * u[0]) / steps ** 2
        out[label] = np.sqrt(H_PLANCK * (16 * curv[:, 1] - curv[:, 0]) / 15
                             / MASS_SR88)
    return out


class TestCharacterize:
    @pytest.mark.parametrize("tweezer", ["shallow46", "deep1450"])
    @pytest.mark.parametrize("phi", [0.0, "magic", 45.0])
    def test_frequencies_match_stencil_limit(self, table, shallow46, request,
                                             tweezer, phi):
        tw = request.getfixturevalue(tweezer)
        phi_deg = shallow46["phi_magic_deg"] if phi == "magic" else phi
        env = FieldEnvironment(tw["config"], MagneticField(8.0, phi_deg))
        tc = trapmodel.characterize_trap(tw["config"], env, table,
                                         field=tw["field"])
        limit = stencil_limit_omegas(tw["field"], env, table,
                                     tw["config"].wavelength_nm)
        np.testing.assert_allclose(tc.omega_p0_rad_s, limit["3P0"],
                                   rtol=1e-8)
        np.testing.assert_allclose(tc.omega_p2_rad_s, limit["3P2"],
                                   rtol=1e-8)

    def test_gaussian_analytic_frequencies(self, table):
        w0 = 600e-9
        g = gaussian_trap(waist_m=w0)
        tc = trapmodel.characterize_trap(REF, ENV0, table, field=g)
        s0, _ = table.alpha("3P0", 539.91)
        u_hz = s0 * g.center_e0sq * E0SQ_AU_HZ
        om_r = math.sqrt(4 * H_PLANCK * u_hz / (MASS_SR88 * w0 ** 2))
        om_z = math.sqrt(2 * H_PLANCK * u_hz / (MASS_SR88 * g.rayleigh_m ** 2))
        assert tc.depth_p0_hz == pytest.approx(u_hz, rel=1e-9)
        assert tc.omega_p0_rad_s[0] == pytest.approx(om_r, rel=1e-12)
        assert tc.omega_p0_rad_s[1] == pytest.approx(om_r, rel=1e-12)
        assert tc.omega_p0_rad_s[2] == pytest.approx(om_z, rel=1e-12)

    def test_power_scaling(self, table):
        t1 = trapmodel.characterize_trap(REF, ENV0, table,
                                         field=gaussian_trap(1e-3))
        t2 = trapmodel.characterize_trap(REF, ENV0, table,
                                         field=gaussian_trap(2e-3))
        assert t2.depth_p0_hz / t1.depth_p0_hz == pytest.approx(2.0, rel=1e-9)
        ratios = t2.omega_p0_rad_s / t1.omega_p0_rad_s
        np.testing.assert_allclose(ratios, math.sqrt(2), rtol=1e-3)
        ratios2 = t2.omega_p2_rad_s / t1.omega_p2_rad_s
        np.testing.assert_allclose(ratios2, math.sqrt(2), rtol=1e-3)

    def test_equal_polarizabilities_collapse(self, tmp_path):
        rows = ["state,wavelength_nm,alpha_s_au,alpha_t_au",
                "3P0,539.00,800.0,0.0", "3P0,541.00,800.0,0.0",
                "3P2,539.00,800.0,0.0", "3P2,541.00,800.0,0.0"]
        p = tmp_path / "flat.csv"
        p.write_text("\n".join(rows) + "\n")
        flat = atomstark.PolarizabilityTable.from_csv(p)
        tc = trapmodel.characterize_trap(REF, ENV0, flat,
                                         field=gaussian_trap())
        assert tc.du_center_hz == pytest.approx(0.0, abs=1e-9)
        assert tc.depth_p2_hz == pytest.approx(tc.depth_p0_hz, rel=1e-12)
        np.testing.assert_allclose(tc.omega_p2_rad_s, tc.omega_p0_rad_s,
                                   rtol=1e-12)

    def test_anti_trapped_raises(self, tmp_path):
        rows = ["state,wavelength_nm,alpha_s_au,alpha_t_au",
                "3P0,539.00,-50.0,0.0", "3P0,541.00,-50.0,0.0",
                "3P2,539.00,800.0,0.0", "3P2,541.00,800.0,0.0"]
        p = tmp_path / "anti.csv"
        p.write_text("\n".join(rows) + "\n")
        bad = atomstark.PolarizabilityTable.from_csv(p)
        with pytest.raises(NotTrapping):
            trapmodel.characterize_trap(REF, ENV0, bad,
                                        field=gaussian_trap())

    def test_nan_power_not_trapping(self, table):
        with pytest.raises(NotTrapping):
            trapmodel.characterize_trap(REF, ENV0, table,
                                        field=gaussian_trap(math.nan))

    def test_magic_trap_frequency_mismatch_is_along_pol(self, table,
                                                        magic_field_env):
        field, env = magic_field_env
        tc = trapmodel.characterize_trap(REF, env, table, field=field)
        d_om = tc.omega_p0_rad_s - tc.omega_p2_rad_s
        assert abs(tc.du_center_hz) < 1.0
        assert d_om[0] > 0
        assert d_om[0] > 5 * abs(d_om[1])

    def test_json_roundtrip(self, table):
        tc = trapmodel.characterize_trap(REF, ENV0, table,
                                         field=gaussian_trap())
        d = tc.to_json_dict()
        tc2 = oracles.trap_from_json_dict(d)
        assert tc2.du_center_hz == tc.du_center_hz
        np.testing.assert_array_equal(tc2.omega_p0_rad_s, tc.omega_p0_rad_s)
        np.testing.assert_array_equal(tc2.omega_p2_rad_s, tc.omega_p2_rad_s)
        assert tc2.depth_p0_hz == tc.depth_p0_hz
        assert tc2.depth_p2_hz == tc.depth_p2_hz


@pytest.fixture(scope="module")
def magic_field_env(table):
    fld = focalfield.build_field(REF)
    env = FieldEnvironment(REF, MagneticField(8.0, 0.0))
    phi = atomstark.find_magic_angle(env, table)
    return fld, FieldEnvironment(REF, MagneticField(8.0, phi))


class TestFockSampling:
    OMEGA = 2 * math.pi * 25e3

    def test_zero_temperature(self):
        n = trapmodel.sample_fock_thermal(0.0, self.OMEGA,
                                          rng_from(1).random(1000))
        assert np.all(n == 0)

    def test_mean_matches_bose_occupation(self):
        t = 1.4e-6
        n = trapmodel.sample_fock_thermal(t, self.OMEGA,
                                          rng_from(2).random(100_000))
        x = HBAR * self.OMEGA / (K_B * t)
        nbar = 1.0 / math.expm1(x)
        q = math.exp(-x)
        sigma = math.sqrt(q) / (1 - q)
        assert abs(n.mean() - nbar) < 3 * sigma / math.sqrt(n.size)

    def test_distribution_geometric(self):
        t = 2e-6
        draws = trapmodel.sample_fock_thermal(t, self.OMEGA,
                                              rng_from(3).random(100_000))
        q = math.exp(-HBAR * self.OMEGA / (K_B * t))
        kmax = 12
        observed = np.bincount(np.minimum(draws, kmax), minlength=kmax + 1)
        pk = (1 - q) * q ** np.arange(kmax + 1)
        pk[-1] = q ** kmax
        res = stats.chisquare(observed, pk * draws.size)
        assert res.pvalue > 0.01

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            trapmodel.sample_fock_thermal(-1e-6, self.OMEGA,
                                          rng_from(4).random(8))
        with pytest.raises(ValueError):
            trapmodel.sample_fock_thermal(1e-6, 0.0, rng_from(4).random(8))

    @pytest.mark.parametrize("t", [1e294, math.inf, math.nan])
    def test_unrepresentable_occupation_rejected(self, t):
        # 1e300 uK: log u / -x is inf or past int64, never cast silently
        with pytest.raises(ValueError, match="occupation"):
            trapmodel.sample_fock_thermal(t, self.OMEGA,
                                          rng_from(4).random(8))

    def test_seeded_reproducibility(self):
        a = trapmodel.sample_fock_thermal(3e-6, self.OMEGA,
                                          rng_from(7).random(64))
        b = trapmodel.sample_fock_thermal(3e-6, self.OMEGA,
                                          rng_from(7).random(64))
        np.testing.assert_array_equal(a, b)


class TestClassicalSampling:
    OMEGAS = 2 * math.pi * np.array([25e3, 26e3, 4.3e3])

    def test_variance_per_axis(self):
        t = 1.4e-6
        r = trapmodel.sample_position_classical(
            t, self.OMEGAS, rng_from(5).random((100_000, 3)))
        want = K_B * t / (MASS_SR88 * self.OMEGAS ** 2)
        got = r.var(axis=0)
        np.testing.assert_allclose(got, want, rtol=0.05)

    def test_zero_temperature_origin(self):
        r = trapmodel.sample_position_classical(
            0.0, self.OMEGAS, rng_from(6).random((10, 3)))
        assert np.all(r == 0)

    def test_axes_uncorrelated(self):
        r = trapmodel.sample_position_classical(
            2e-6, self.OMEGAS, rng_from(8).random((100_000, 3)))
        c = np.corrcoef(r.T)
        off = c[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off)) < 0.01


def synthetic_trap(du_hz, om0, om2):
    return trapmodel.TrapCharacterization(
        depth_p0_hz=5e5, depth_p2_hz=5e5,
        omega_p0_rad_s=np.asarray(om0, dtype=float),
        omega_p2_rad_s=np.asarray(om2, dtype=float),
        du_center_hz=du_hz)


class TestDetuning:
    OM = 2 * math.pi * np.array([25e3, 26e3, 4.3e3])

    def test_magic_equal_frequencies_zero(self):
        tc = synthetic_trap(0.0, self.OM, self.OM)
        n = np.array([3, 1, 0])
        r = np.array([40e-9, -20e-9, 300e-9])
        assert trapmodel.detuning_for_sample(n, tc, "fock") == 0.0
        assert trapmodel.detuning_for_sample(r, tc, "classical") == 0.0

    def test_ground_state_zero_point(self):
        tc = synthetic_trap(120.0, self.OM, 0.97 * self.OM)
        got = trapmodel.detuning_for_sample(np.zeros(3, dtype=int), tc,
                                            "fock")
        want = 2 * math.pi * 120.0 + 0.5 * np.sum(self.OM - 0.97 * self.OM)
        assert got == pytest.approx(want, rel=1e-12)

    def test_ensemble_mean(self):
        tc = synthetic_trap(-40.0, self.OM, 0.96 * self.OM)
        t = 2e-6
        n_tot = 100_000
        ns = trapmodel.sample_fock_thermal(t, self.OM,
                                           rng_from(11).random((n_tot, 3)))
        d_om = tc.omega_p0_rad_s - tc.omega_p2_rad_s
        deltas = trapmodel.detuning_for_sample(ns, tc, "fock")
        one = 2 * math.pi * tc.du_center_hz + np.sum(d_om * (ns[0] + 0.5))
        assert one == pytest.approx(deltas[0], rel=1e-12)
        x = HBAR * self.OM / (K_B * t)
        nbar = 1.0 / np.expm1(x)
        want = 2 * math.pi * tc.du_center_hz + np.sum(d_om * (nbar + 0.5))
        sig = np.sqrt(np.sum((d_om * np.sqrt(np.exp(-x)) /
                              (1 - np.exp(-x))) ** 2) / n_tot)
        assert abs(deltas.mean() - want) < 3 * sig

    def test_classical_quadratic_reconstruction(self):
        tc = synthetic_trap(75.0, self.OM, 0.95 * self.OM)
        r = np.array([50e-9, 0.0, 200e-9])
        got = trapmodel.detuning_for_sample(r, tc, "classical")
        quad = (MASS_SR88 / (2 * H_PLANCK)
                * np.sum((tc.omega_p0_rad_s ** 2
                          - tc.omega_p2_rad_s ** 2) * r ** 2))
        assert got == pytest.approx(2 * math.pi * (75.0 + quad), rel=1e-12)

    def test_model_mismatch(self):
        tc = synthetic_trap(0.0, self.OM, self.OM)
        with pytest.raises(ModelMismatch):
            trapmodel.detuning_for_sample(np.zeros(3), tc, "wavepacket")

    def test_quantum_classical_correspondence(self):
        # ensemble-mean detunings agree within 10% once k_B T >= 3 hbar omega
        om0 = 2 * math.pi * np.array([20e3, 20e3, 4e3])
        tc = synthetic_trap(0.0, om0, 0.98 * om0)
        t = 3.0 * HBAR * om0.max() / K_B
        u = rng_from(12).random((2, 50_000, 3))
        ns = trapmodel.sample_fock_thermal(t, om0, u[0])
        d_om = om0 - tc.omega_p2_rad_s
        mean_q = np.mean((ns + 0.5) @ d_om)
        pos = trapmodel.sample_position_classical(t, om0, u[1])
        quad = (MASS_SR88 / (2 * H_PLANCK)
                * (om0 ** 2 - tc.omega_p2_rad_s ** 2))
        mean_c = np.mean(2 * math.pi * (pos ** 2 @ quad))
        assert abs(mean_c - mean_q) / abs(mean_q) < 0.10
