"""Level-shift engine tests.

Derived expectations are frozen here from independent closed forms:

* the m_J = 0 light shift of a J = 2 level in a linearly polarized field at
  angle theta from the quantization axis is
  -E0sq * (alpha_s - alpha_t * P2(cos theta)), exact for the diagonal at
  phi = 0 and perturbatively exact for large Zeeman splitting;
* the Zeeman splitting is g_J * mu_B * |B| per unit m_J
  (1.399624e6 Hz/G);
* the magic angle inverts to P2(cos phi*) = (alpha_s2 - alpha_s0)/alpha_t2.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsqubit import atomstark
from fsqubit.constants import MU_B_HZ_PER_G
from fsqubit.errors import (
    DegenerateLabeling,
    NonUnitPolarization,
    UnknownState,
    WavelengthOutOfRange,
)
from fsqubit.params import FieldEnvironment, MagneticField, TweezerConfig

REF_TWEEZER = TweezerConfig(wavelength_nm=539.91, power_W=1.45e-3, na=0.5,
                            target_waist_nm=564.0)


def pol_linear(e0sq_hz: float = 1.0) -> atomstark.PolarizationVector:
    """Linear polarization along the input axis; e0sq given in Hz per a.u."""
    e0sq = e0sq_hz / atomstark.E0SQ_AU_HZ
    return atomstark.PolarizationVector(
        epsilon=np.array([1.0, 0.0, 0.0], dtype=complex), e0sq=e0sq)


def m0_perturbative(alpha_s: float, alpha_t: float, e0sq_hz: float,
                    theta_deg: float) -> float:
    """Independent oracle: second-order m_J = 0 shift in Hz."""
    c = math.cos(math.radians(theta_deg))
    p2 = 0.5 * (3.0 * c * c - 1.0)
    return -e0sq_hz * (alpha_s - alpha_t * p2)


class TestAngularMomentum:
    def test_commutator_and_casimir(self):
        for j in (1, 2, 3):
            jx, jy, jz = atomstark.angular_momentum_matrices(j)
            comm = jx @ jy - jy @ jx
            assert np.allclose(comm, 1j * jz, atol=1e-12)
            j2 = jx @ jx + jy @ jy + jz @ jz
            assert np.allclose(j2, j * (j + 1) * np.eye(2 * j + 1),
                               atol=1e-12)

    def test_jz_diagonal_ascending(self):
        _, _, jz = atomstark.angular_momentum_matrices(2)
        assert np.allclose(np.diag(jz), [-2, -1, 0, 1, 2])


class TestStarkHamiltonian:
    def test_j0_scalar_only(self):
        h = atomstark.stark_hamiltonian(250.0, 80.0, 0, pol_linear(1000.0))
        assert h.shape == (1, 1)
        assert h[0, 0] == pytest.approx(-250_000.0, rel=1e-12)

    def test_hermitian(self):
        eps = np.array([0.3 + 0.1j, -0.5j, 0.4 + 0.2j])
        eps = eps / np.linalg.norm(eps)
        pol = atomstark.PolarizationVector(epsilon=eps, e0sq=1e10)
        h = atomstark.stark_hamiltonian(250.0, 80.0, 2, pol)
        assert np.allclose(h, h.conj().T, atol=1e-9)

    def test_axis_aligned_diagonal_elements(self):
        # epsilon along the quantization axis: diagonal, m0 = -(s - t),
        # |m| = 2 -> -(s + t); frozen from the closed form.
        pol = atomstark.PolarizationVector(
            epsilon=np.array([0.0, 0.0, 1.0], dtype=complex),
            e0sq=1000.0 / atomstark.E0SQ_AU_HZ)
        h = atomstark.stark_hamiltonian(250.0, 80.0, 2, pol)
        assert np.allclose(h, np.diag(np.diag(h)), atol=1e-9)
        assert h[2, 2].real == pytest.approx(-170_000.0, rel=1e-12)
        assert h[0, 0].real == pytest.approx(-330_000.0, rel=1e-12)
        assert h[4, 4].real == pytest.approx(-330_000.0, rel=1e-12)

    def test_perpendicular_m0_element(self):
        pol = atomstark.PolarizationVector(
            epsilon=np.array([1.0, 0.0, 0.0], dtype=complex),
            e0sq=1000.0 / atomstark.E0SQ_AU_HZ)
        h = atomstark.stark_hamiltonian(250.0, 80.0, 2, pol)
        assert h[2, 2].real == pytest.approx(
            m0_perturbative(250.0, 80.0, 1000.0, 90.0), rel=1e-12)

    def test_trace_is_scalar_only(self):
        eps = np.array([0.6, 0.0, 0.8], dtype=complex)
        pol = atomstark.PolarizationVector(
            epsilon=eps, e0sq=500.0 / atomstark.E0SQ_AU_HZ)
        h = atomstark.stark_hamiltonian(250.0, 80.0, 2, pol)
        assert np.trace(h).real == pytest.approx(-5 * 250.0 * 500.0,
                                                 rel=1e-12)

    def test_tensor_ignored_for_j0(self):
        a = atomstark.stark_hamiltonian(250.0, 0.0, 0, pol_linear(100.0))
        b = atomstark.stark_hamiltonian(250.0, 999.0, 0, pol_linear(100.0))
        assert a[0, 0] == b[0, 0]

    def test_non_unit_polarization_rejected(self):
        bad = atomstark.PolarizationVector.__new__(atomstark.PolarizationVector)
        object.__setattr__(bad, "epsilon", np.array([1.0, 1.0, 0.0],
                                                    dtype=complex))
        object.__setattr__(bad, "e0sq", 1.0)
        with pytest.raises(NonUnitPolarization):
            atomstark.stark_hamiltonian(1.0, 1.0, 2, bad)

    def test_linear_in_e0sq(self):
        h1 = atomstark.stark_hamiltonian(250.0, 80.0, 2, pol_linear(100.0))
        h2 = atomstark.stark_hamiltonian(250.0, 80.0, 2, pol_linear(200.0))
        assert np.allclose(h2, 2.0 * h1, rtol=1e-14, atol=0)


class TestZeeman:
    def test_splitting_frozen(self):
        # 1.5 * 1.399624e6 Hz/G * 8 G = 16.795494 MHz between adjacent m.
        h = atomstark.zeeman_hamiltonian(MagneticField(8.0, 0.0), 1.5, 2)
        split = h[3, 3] - h[2, 2]
        assert split == pytest.approx(16_795_494.0, abs=50.0)

    def test_diagonal_proportional_to_m(self):
        h = atomstark.zeeman_hamiltonian(MagneticField(3.0, 77.0), 1.5, 2)
        diag = np.diag(h).real
        assert np.allclose(diag, 1.5 * MU_B_HZ_PER_G * 3.0
                           * np.arange(-2, 3), rtol=1e-12)
        assert np.allclose(h, np.diag(diag), atol=0)

    def test_phi_does_not_change_spectrum(self):
        a = atomstark.zeeman_hamiltonian(MagneticField(5.0, 0.0), 1.5, 2)
        b = atomstark.zeeman_hamiltonian(MagneticField(5.0, 120.0), 1.5, 2)
        assert np.allclose(np.diag(a), np.diag(b), atol=0)


class TestLevelShifts:
    def test_labels_are_permutation_and_sum_is_trace(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        stark = 1e4 * (a + a.conj().T) / 2
        zee = atomstark.zeeman_hamiltonian(MagneticField(200.0, 0.0), 1.5, 2)
        ls = atomstark.level_shifts(stark, zee)
        assert sorted(ls.labels.tolist()) == [-2, -1, 0, 1, 2]
        assert np.allclose(ls.energies_hz.sum(),
                           np.trace(stark + zee).real, rtol=1e-10)
        v = ls.eigenvectors
        assert np.allclose(v.conj().T @ v, np.eye(5), atol=1e-10)

    def test_no_field_axis_aligned_exact(self):
        pol = atomstark.PolarizationVector(
            epsilon=np.array([0.0, 0.0, 1.0], dtype=complex),
            e0sq=1000.0 / atomstark.E0SQ_AU_HZ)
        stark = atomstark.stark_hamiltonian(250.0, 80.0, 2, pol)
        ls = atomstark.level_shifts(stark, np.zeros((5, 5)))
        assert ls.energy_of(0) == pytest.approx(-170_000.0, rel=1e-12)
        assert ls.energy_of(2) == pytest.approx(-330_000.0, rel=1e-12)

    @pytest.mark.parametrize("b_gauss,e0sq_hz", [
        (1000.0, 5e4),        # acceptance design point
        (500.0, 13601.8),     # reference-tweezer field scale
    ])
    def test_large_field_matches_perturbative_all_angles(self, b_gauss,
                                                         e0sq_hz):
        zee = atomstark.zeeman_hamiltonian(MagneticField(b_gauss, 0.0),
                                           1.5, 2)
        for theta in np.linspace(0.0, 180.0, 13):
            u = np.array([math.sin(math.radians(theta)), 0.0,
                          math.cos(math.radians(theta))], dtype=complex)
            pol = atomstark.PolarizationVector(
                epsilon=u, e0sq=e0sq_hz / atomstark.E0SQ_AU_HZ)
            stark = atomstark.stark_hamiltonian(250.0, 80.0, 2, pol)
            ls = atomstark.level_shifts(stark, zee)
            want = m0_perturbative(250.0, 80.0, e0sq_hz, theta)
            assert ls.energy_of(0) == pytest.approx(want, rel=1e-6)

    def test_small_stark_approaches_zeeman_plus_diagonal(self):
        u = np.array([math.sin(0.6), 0.0, math.cos(0.6)], dtype=complex)
        pol = atomstark.PolarizationVector(
            epsilon=u, e0sq=1.0 / atomstark.E0SQ_AU_HZ)
        stark = atomstark.stark_hamiltonian(250.0, 80.0, 2, pol)
        zee = atomstark.zeeman_hamiltonian(MagneticField(8.0, 0.0), 1.5, 2)
        ls = atomstark.level_shifts(stark, zee)
        for i, m in enumerate(range(-2, 3)):
            want = zee[i, i].real + stark[i, i].real
            assert ls.energy_of(m) == pytest.approx(want, abs=1e-2)

    def test_degenerate_labeling_raises(self):
        # J = 1, zero field, tensor axis perpendicular: the m_x = 0
        # eigenvector is (|-1> - |+1>)/sqrt(2), overlap exactly 1/2.
        pol = atomstark.PolarizationVector(
            epsilon=np.array([1.0, 0.0, 0.0], dtype=complex),
            e0sq=100.0 / atomstark.E0SQ_AU_HZ)
        stark = atomstark.stark_hamiltonian(250.0, 80.0, 1, pol)
        with pytest.raises(DegenerateLabeling):
            atomstark.level_shifts(stark, np.zeros((3, 3)))


class TestTable:
    def test_interpolation_exact_on_nodes_and_linear(self, table):
        s_lo, t_lo = table.alpha("3P2", 530.0)
        s_hi, t_hi = table.alpha("3P2", 532.0)
        s_mid, t_mid = table.alpha("3P2", 531.0)
        assert s_mid == pytest.approx((s_lo + s_hi) / 2, rel=1e-12)
        assert t_mid == pytest.approx((t_lo + t_hi) / 2, rel=1e-12)

    def test_states_carry_j_and_g(self, table):
        assert table.state("3P2").j == 2
        assert table.state("3P2").g_j == pytest.approx(1.5)
        assert table.state("3P0").j == 0
        assert table.state("3P0").g_j == 0.0

    def test_unknown_state(self, table):
        with pytest.raises(UnknownState):
            table.alpha("3P1", 540.0)

    def test_out_of_range(self, table):
        with pytest.raises(WavelengthOutOfRange):
            table.alpha("3P2", 560.0)
        with pytest.raises(WavelengthOutOfRange):
            table.alpha("3P2", 500.0)


class TestDifferentialShift:
    def test_reference_shift_anchor(self, table):
        # phi = 0: exact diagonalization equals the diagonal closed form;
        # table calibrated to -0.2 MHz at the reference tweezer.
        env = FieldEnvironment(REF_TWEEZER, MagneticField(3.0, 0.0))
        du = atomstark.differential_light_shift(env, table)
        assert du == pytest.approx(-200_000.0, abs=1.0)

    def test_closed_form_at_25_degrees(self, table):
        env = FieldEnvironment(REF_TWEEZER, MagneticField(8.0, 25.0))
        du = atomstark.differential_light_shift(env, table)
        s0, _ = table.alpha("3P0", 539.91)
        s2, t2 = table.alpha("3P2", 539.91)
        pol = atomstark.gaussian_center_polarization(REF_TWEEZER)
        e0sq_hz = pol.e0sq * atomstark.E0SQ_AU_HZ
        want = ((-s0 * e0sq_hz)
                - m0_perturbative(s2, t2, e0sq_hz, 25.0))
        assert du == pytest.approx(want, rel=1e-12)

    def test_matches_exact_diagonalization_at_large_field(self, table):
        # Cross-route check: perturbative shift vs labeled eigenvalues.
        env = FieldEnvironment(REF_TWEEZER, MagneticField(1000.0, 35.0))
        du = atomstark.differential_light_shift(env, table)
        pol = atomstark.gaussian_center_polarization(REF_TWEEZER)
        u = atomstark.polarization_in_field_frame(pol.epsilon, 35.0)
        pol_q = atomstark.PolarizationVector(u, pol.e0sq)
        s0, t0 = table.alpha("3P0", 539.91)
        s2, t2 = table.alpha("3P2", 539.91)
        h2 = atomstark.stark_hamiltonian(s2, t2, 2, pol_q)
        z2 = atomstark.zeeman_hamiltonian(env.field, 1.5, 2)
        e2 = atomstark.level_shifts(h2, z2).energy_of(0)
        e0 = -s0 * pol.e0sq * atomstark.E0SQ_AU_HZ
        assert du == pytest.approx(e0 - e2, rel=1e-6)

    def test_linear_in_e0sq(self, table):
        env = FieldEnvironment(REF_TWEEZER, MagneticField(8.0, 40.0))
        pol1 = atomstark.gaussian_center_polarization(REF_TWEEZER)
        pol2 = atomstark.PolarizationVector(pol1.epsilon, 2.0 * pol1.e0sq)
        du1 = atomstark.differential_light_shift(env, table, pol=pol1)
        du2 = atomstark.differential_light_shift(env, table, pol=pol2)
        assert du2 / du1 == pytest.approx(2.0, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(phi=st.floats(0.0, 180.0))
    def test_mirror_symmetry(self, table, phi):
        env_a = FieldEnvironment(REF_TWEEZER, MagneticField(8.0, phi))
        env_b = FieldEnvironment(REF_TWEEZER, MagneticField(8.0, 180.0 - phi))
        du_a = atomstark.differential_light_shift(env_a, table)
        du_b = atomstark.differential_light_shift(env_b, table)
        assert du_a == pytest.approx(du_b, rel=1e-10, abs=1e-6)

    def test_axis_projection_matches_field_frame(self):
        rng = np.random.default_rng(5)
        e = rng.normal(size=(64, 3)) + 1j * rng.normal(size=(64, 3))
        e *= 10.0 ** rng.uniform(-3.0, 8.0, size=(64, 1))
        for phi in (0.0, 17.3, 54.7356, 90.0, 151.0):
            u3_sq, e0sq = atomstark.axis_projection(e, phi)
            for k, ek in enumerate(e):
                norm = np.linalg.norm(ek)
                u = atomstark.polarization_in_field_frame(ek / norm, phi)
                assert abs(u3_sq[k] - abs(u[2]) ** 2) <= 1e-14
                assert e0sq[k] == pytest.approx(norm ** 2 / 4.0, rel=1e-14)


class TestMagicPoints:
    def test_magic_angle_inversion_oracle(self, table):
        env = FieldEnvironment(REF_TWEEZER, MagneticField(8.0, 0.0))
        phi = atomstark.find_magic_angle(env, table)
        assert phi is not None
        s0, _ = table.alpha("3P0", 539.91)
        s2, t2 = table.alpha("3P2", 539.91)
        p2 = (s2 - s0) / t2
        want = math.degrees(math.acos(math.sqrt((2.0 * p2 + 1.0) / 3.0)))
        assert abs(phi - want) < 0.5

    def test_magic_angle_zero_shift(self, table):
        env = FieldEnvironment(REF_TWEEZER, MagneticField(8.0, 0.0))
        phi = atomstark.find_magic_angle(env, table)
        env2 = FieldEnvironment(REF_TWEEZER, MagneticField(8.0, phi))
        du = atomstark.differential_light_shift(env2, table)
        du0 = atomstark.differential_light_shift(
            FieldEnvironment(REF_TWEEZER, MagneticField(8.0, 0.0)), table)
        assert abs(du) < 1e-3 * abs(du0)

    def test_magic_angle_is_exact(self, table):
        env0 = FieldEnvironment(REF_TWEEZER, MagneticField(8.0, 0.0))
        phi = atomstark.find_magic_angle(env0, table)
        env = FieldEnvironment(REF_TWEEZER, MagneticField(8.0, phi))
        du = atomstark.differential_light_shift(env, table)
        du0 = atomstark.differential_light_shift(env0, table)
        assert abs(du) <= 1e-9 * abs(du0)

    def test_magic_wavelength_is_exact(self, table):
        # magic_find_phi0 conditions: the root is a zero of the tables'
        # piecewise-linear shift, not a bracket midpoint
        env = FieldEnvironment(REF_TWEEZER, MagneticField(8.0, 0.0))
        lam = atomstark.find_magic_wavelength(env, table)
        at_root = TweezerConfig(wavelength_nm=lam, power_W=1.45e-3, na=0.5,
                                target_waist_nm=564.0)
        du = atomstark.differential_light_shift(
            FieldEnvironment(at_root, env.field), table)
        assert abs(du) <= 1e-6

    @pytest.mark.parametrize("a_s2,want", [(1000.0, 0.0), (900.0, None)])
    def test_zero_tensor_table(self, a_s2, want):
        # no tensor part: the shift is the same at every angle, so either
        # every angle is magic (0.0 by convention) or none is
        lam = np.array([530.0, 550.0])
        states = {
            "3P0": atomstark.StateInfo("3P0", 0, 0.0, lam,
                                       np.full(2, 1000.0), np.zeros(2)),
            "3P2": atomstark.StateInfo("3P2", 2, 1.5, lam,
                                       np.full(2, a_s2), np.zeros(2))}
        table = atomstark.PolarizabilityTable(states)
        env = FieldEnvironment(REF_TWEEZER, MagneticField(8.0, 0.0))
        assert atomstark.find_magic_angle(env, table) == want

    def test_no_crossing_returns_none(self, table):
        cfg = TweezerConfig(wavelength_nm=530.0, power_W=1.45e-3, na=0.5,
                            target_waist_nm=564.0)
        env = FieldEnvironment(cfg, MagneticField(8.0, 0.0))
        assert atomstark.find_magic_angle(env, table) is None

    def test_magic_wavelength_anchor(self, table):
        env = FieldEnvironment(REF_TWEEZER, MagneticField(8.0, 0.0))
        lam = atomstark.find_magic_wavelength(env, table)
        assert lam == pytest.approx(535.9, abs=0.005)

    def test_magic_wavelength_none_when_everywhere_positive(self, table):
        # At P2 = 0 the scan sees alpha_s0 - alpha_s2 - 0, negative across
        # the whole band: no crossing.
        env = FieldEnvironment(REF_TWEEZER,
                               MagneticField(8.0, 54.7356103))
        assert atomstark.find_magic_wavelength(env, table) is None

    def test_roundtrip_angle_wavelength(self, table):
        env = FieldEnvironment(REF_TWEEZER, MagneticField(8.0, 0.0))
        phi = atomstark.find_magic_angle(env, table)
        env2 = FieldEnvironment(REF_TWEEZER, MagneticField(8.0, phi))
        lam = atomstark.find_magic_wavelength(env2, table)
        assert lam == pytest.approx(539.91, abs=0.05)

    def test_755_block_magic_angle_is_90(self, table_755):
        cfg = TweezerConfig(wavelength_nm=755.0, power_W=2.0e-3, na=0.5,
                            target_waist_nm=789.0)
        env = FieldEnvironment(cfg, MagneticField(8.0, 0.0))
        phi = atomstark.find_magic_angle(env, table_755)
        assert phi == pytest.approx(90.0, abs=0.02)
        assert phi == 90.0  # u* = 0 exactly: a tangency, no tolerance

    def test_755_block_fixture_relation(self, table_755):
        s0, _ = table_755.alpha("3P0", 755.0)
        s2, t2 = table_755.alpha("3P2", 755.0)
        assert s0 - s2 == pytest.approx(t2 / 2.0, rel=1e-12)
