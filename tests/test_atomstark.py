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
from fsqubit.constants import MU_B_HZ_PER_G, intensity_to_e0sq
from fsqubit.errors import (
    DegenerateLabeling,
    NonUnitPolarization,
    UnknownState,
    WavelengthOutOfRange,
)
from fsqubit.params import FieldEnvironment, MagneticField, TweezerConfig

import oracles

REF_TWEEZER = TweezerConfig(wavelength_nm=539.91, power_W=1.45e-3, na=0.5,
                            target_waist_nm=564.0)


X_POL = np.array([1.0, 0.0, 0.0], dtype=complex)
Z_POL = np.array([0.0, 0.0, 1.0], dtype=complex)


def e0sq_au(e0sq_hz: float) -> float:
    """Reduced squared field (a.u.) of a shift scale given in Hz per a.u."""
    return e0sq_hz / atomstark.E0SQ_AU_HZ


def center_e0sq(tweezer: TweezerConfig) -> float:
    """Reduced squared field at the focus of the target Gaussian beam."""
    w0 = tweezer.target_waist_nm * 1e-9
    return intensity_to_e0sq(2.0 * tweezer.power_W / (math.pi * w0 * w0))


def center_shift(env: FieldEnvironment, table, e0sq: float | None = None):
    """Perturbative differential shift (Hz) of x polarization, by default at
    the Gaussian focal center of ``env.tweezer``."""
    if e0sq is None:
        e0sq = center_e0sq(env.tweezer)
    u3_sq, _ = atomstark.axis_projection(X_POL, env.field.phi_deg)
    return float(atomstark.differential_shift_from_projection(
        table, env.tweezer.wavelength_nm, u3_sq, e0sq))


def zeeman_hz(b_gauss: float, g_j: float = 1.5) -> float:
    """Zeeman splitting per unit m_J, Hz."""
    return MU_B_HZ_PER_G * g_j * b_gauss


def m0_perturbative(alpha_s: float, alpha_t: float, e0sq_hz: float,
                    theta_deg: float) -> float:
    """Independent oracle: second-order m_J = 0 shift in Hz."""
    c = math.cos(math.radians(theta_deg))
    p2 = 0.5 * (3.0 * c * c - 1.0)
    return -e0sq_hz * (alpha_s - alpha_t * p2)


class TestStarkHamiltonian:
    def test_hermitian(self):
        eps = np.array([0.3 + 0.1j, -0.5j, 0.4 + 0.2j])
        eps = eps / np.linalg.norm(eps)
        h = atomstark.j2_hamiltonian(250.0, 80.0, eps, 1e10, 0.0)
        assert np.allclose(h, h.conj().T, atol=1e-9)

    def test_axis_aligned_diagonal_elements(self):
        # epsilon along the quantization axis: diagonal, m0 = -(s - t),
        # |m| = 2 -> -(s + t); frozen from the closed form.
        h = atomstark.j2_hamiltonian(250.0, 80.0, Z_POL, e0sq_au(1000.0), 0.0)
        assert np.allclose(h, np.diag(np.diag(h)), atol=1e-9)
        assert h[2, 2].real == pytest.approx(-170_000.0, rel=1e-12)
        assert h[0, 0].real == pytest.approx(-330_000.0, rel=1e-12)
        assert h[4, 4].real == pytest.approx(-330_000.0, rel=1e-12)

    def test_perpendicular_m0_element(self):
        h = atomstark.j2_hamiltonian(250.0, 80.0, X_POL, e0sq_au(1000.0), 0.0)
        assert h[2, 2].real == pytest.approx(
            m0_perturbative(250.0, 80.0, 1000.0, 90.0), rel=1e-12)

    def test_trace_is_scalar_only(self):
        eps = np.array([0.6, 0.0, 0.8], dtype=complex)
        h = atomstark.j2_hamiltonian(250.0, 80.0, eps, e0sq_au(500.0), 0.0)
        assert np.trace(h).real == pytest.approx(-5 * 250.0 * 500.0,
                                                 rel=1e-12)

    def test_non_unit_polarization_rejected(self):
        with pytest.raises(NonUnitPolarization):
            atomstark.j2_hamiltonian(1.0, 1.0, np.array([1.0, 1.0, 0.0]),
                                     1.0, 0.0)

    def test_linear_in_e0sq(self):
        h1 = atomstark.j2_hamiltonian(250.0, 80.0, X_POL, e0sq_au(100.0), 0.0)
        h2 = atomstark.j2_hamiltonian(250.0, 80.0, X_POL, e0sq_au(200.0), 0.0)
        assert np.allclose(h2, 2.0 * h1, rtol=1e-14, atol=0)


class TestZeeman:
    def test_splitting_frozen(self):
        # 1.5 * 1.399624e6 Hz/G * 8 G = 16.795494 MHz between adjacent m.
        h = atomstark.j2_hamiltonian(0.0, 0.0, Z_POL, 0.0, zeeman_hz(8.0))
        split = h[3, 3] - h[2, 2]
        assert split == pytest.approx(16_795_494.0, abs=50.0)

    def test_diagonal_proportional_to_m(self):
        h = atomstark.j2_hamiltonian(0.0, 0.0, Z_POL, 0.0, zeeman_hz(3.0))
        diag = np.diag(h).real
        assert np.allclose(diag, 1.5 * MU_B_HZ_PER_G * 3.0
                           * np.arange(-2, 3), rtol=1e-12)
        assert np.allclose(h, np.diag(diag), atol=0)


class TestLevelShifts:
    def test_no_field_axis_aligned_exact(self):
        h = atomstark.j2_hamiltonian(250.0, 80.0, Z_POL, e0sq_au(1000.0), 0.0)
        assert atomstark.m0_eigenvalue(h) == pytest.approx(-170_000.0,
                                                           rel=1e-12)
        # the two |m| = 2 levels are the lowest
        assert np.linalg.eigvalsh(h)[:2] == pytest.approx(
            [-330_000.0] * 2, rel=1e-12)

    @pytest.mark.parametrize("b_gauss,e0sq_hz", [
        (1000.0, 5e4),        # acceptance design point
        (500.0, 13601.8),     # reference-tweezer field scale
    ])
    def test_large_field_matches_perturbative_all_angles(self, b_gauss,
                                                         e0sq_hz):
        for theta in np.linspace(0.0, 180.0, 13):
            u = np.array([math.sin(math.radians(theta)), 0.0,
                          math.cos(math.radians(theta))], dtype=complex)
            h = atomstark.j2_hamiltonian(250.0, 80.0, u, e0sq_au(e0sq_hz),
                                         zeeman_hz(b_gauss))
            want = m0_perturbative(250.0, 80.0, e0sq_hz, theta)
            assert atomstark.m0_eigenvalue(h) == pytest.approx(want,
                                                               rel=1e-6)

    def test_small_stark_approaches_zeeman_plus_diagonal(self):
        u = np.array([math.sin(0.6), 0.0, math.cos(0.6)], dtype=complex)
        stark = atomstark.j2_hamiltonian(250.0, 80.0, u, e0sq_au(1.0), 0.0)
        h = atomstark.j2_hamiltonian(250.0, 80.0, u, e0sq_au(1.0),
                                     zeeman_hz(8.0))
        want = np.diag(stark).real + zeeman_hz(8.0) * np.arange(-2, 3)
        assert atomstark.m0_eigenvalue(h) == pytest.approx(want[2], abs=1e-2)
        # levels ascend with m_J at 8 G, so eigvalsh order is m order
        assert np.linalg.eigvalsh(h) == pytest.approx(want, abs=1e-2)

    def test_degenerate_labeling_raises(self):
        # zero field, tensor axis perpendicular: the m_x = 0 eigenvector
        # has overlaps 3/8, 1/4, 3/8 on m_J = -2, 0, +2.
        h = atomstark.j2_hamiltonian(250.0, 80.0, X_POL, e0sq_au(100.0), 0.0)
        with pytest.raises(DegenerateLabeling):
            atomstark.m0_eigenvalue(h)


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
        du = center_shift(env, table)
        assert du == pytest.approx(-200_000.0, abs=1.0)

    def test_closed_form_at_25_degrees(self, table):
        env = FieldEnvironment(REF_TWEEZER, MagneticField(8.0, 25.0))
        du = center_shift(env, table)
        s0, _ = table.alpha("3P0", 539.91)
        s2, t2 = table.alpha("3P2", 539.91)
        e0sq_hz = center_e0sq(REF_TWEEZER) * atomstark.E0SQ_AU_HZ
        want = ((-s0 * e0sq_hz)
                - m0_perturbative(s2, t2, e0sq_hz, 25.0))
        assert du == pytest.approx(want, rel=1e-12)

    def test_matches_exact_diagonalization_at_large_field(self, table):
        # Cross-route check: perturbative shift vs labeled eigenvalues.
        env = FieldEnvironment(REF_TWEEZER, MagneticField(1000.0, 35.0))
        du = center_shift(env, table)
        e0sq = center_e0sq(REF_TWEEZER)
        u = oracles.polarization_in_field_frame(X_POL, 35.0)
        s0, t0 = table.alpha("3P0", 539.91)
        s2, t2 = table.alpha("3P2", 539.91)
        h2 = atomstark.j2_hamiltonian(s2, t2, u, e0sq, zeeman_hz(1000.0))
        e2 = atomstark.m0_eigenvalue(h2)
        e0 = -s0 * e0sq * atomstark.E0SQ_AU_HZ
        assert du == pytest.approx(e0 - e2, rel=1e-6)

    def test_linear_in_e0sq(self, table):
        env = FieldEnvironment(REF_TWEEZER, MagneticField(8.0, 40.0))
        e0sq = center_e0sq(REF_TWEEZER)
        du1 = center_shift(env, table, e0sq)
        du2 = center_shift(env, table, 2.0 * e0sq)
        assert du2 / du1 == pytest.approx(2.0, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(phi=st.floats(0.0, 180.0))
    def test_mirror_symmetry(self, table, phi):
        env_a = FieldEnvironment(REF_TWEEZER, MagneticField(8.0, phi))
        env_b = FieldEnvironment(REF_TWEEZER, MagneticField(8.0, 180.0 - phi))
        du_a = center_shift(env_a, table)
        du_b = center_shift(env_b, table)
        assert du_a == pytest.approx(du_b, rel=1e-10, abs=1e-6)

    def test_axis_projection_matches_field_frame(self):
        rng = np.random.default_rng(5)
        e = rng.normal(size=(64, 3)) + 1j * rng.normal(size=(64, 3))
        e *= 10.0 ** rng.uniform(-3.0, 8.0, size=(64, 1))
        for phi in (0.0, 17.3, 54.7356, 90.0, 151.0):
            u3_sq, e0sq = atomstark.axis_projection(e, phi)
            for k, ek in enumerate(e):
                norm = np.linalg.norm(ek)
                u = oracles.polarization_in_field_frame(ek / norm, phi)
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
        du = center_shift(env2, table)
        du0 = center_shift(
            FieldEnvironment(REF_TWEEZER, MagneticField(8.0, 0.0)), table)
        assert abs(du) < 1e-3 * abs(du0)

    def test_magic_angle_is_exact(self, table):
        env0 = FieldEnvironment(REF_TWEEZER, MagneticField(8.0, 0.0))
        phi = atomstark.find_magic_angle(env0, table)
        env = FieldEnvironment(REF_TWEEZER, MagneticField(8.0, phi))
        du = center_shift(env, table)
        du0 = center_shift(env0, table)
        assert abs(du) <= 1e-9 * abs(du0)

    def test_magic_wavelength_is_exact(self, table):
        # magic_find_phi0 conditions: the root is a zero of the tables'
        # piecewise-linear shift, not a bracket midpoint
        env = FieldEnvironment(REF_TWEEZER, MagneticField(8.0, 0.0))
        lam = atomstark.find_magic_wavelength(env, table)
        at_root = TweezerConfig(wavelength_nm=lam, power_W=1.45e-3, na=0.5,
                                target_waist_nm=564.0)
        du = center_shift(FieldEnvironment(at_root, env.field), table)
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

    def test_roots_independent_of_intensity(self, table):
        # the shift is proportional to e0sq, so both roots are functions of
        # the table and the wavelength alone: bit-identical for the 46 uW
        # and 1.45 mW tweezers and for one given only a filling factor
        tweezers = [TweezerConfig(539.91, p, 0.5, target_waist_nm=564.0)
                    for p in (46e-6, 1.45e-3)]
        tweezers.append(TweezerConfig(539.91, 46e-6, 0.5,
                                      filling_factor=1.0))
        roots = set()
        for tw in tweezers:
            env = FieldEnvironment(tw, MagneticField(8.0, 0.0))
            phi = atomstark.find_magic_angle(env, table)
            env_magic = FieldEnvironment(tw, MagneticField(8.0, phi))
            roots.add((phi, atomstark.find_magic_wavelength(env, table),
                       atomstark.find_magic_wavelength(env_magic, table)))
        assert len(roots) == 1

    @pytest.mark.parametrize("name", ["table", "table_755", "interleaved"])
    def test_knots_are_the_union_bit_for_bit(self, name, request):
        if name == "interleaved":   # distinct grids, a repeat within one
            grids = {"3P0": [528.0, 531.5, 531.5, 540.0],
                     "3P2": [529.25, 531.5, 548.0]}
            table = atomstark.PolarizabilityTable({
                label: atomstark.StateInfo(label, 0, 0.0, np.array(lam),
                                           np.ones(len(lam)),
                                           np.zeros(len(lam)))
                for label, lam in grids.items()})
        else:
            table = request.getfixturevalue(name)
        knots = np.asarray(atomstark._wavelength_knots(table))
        union = np.union1d(table.state("3P0").wavelengths_nm,
                           table.state("3P2").wavelengths_nm)
        assert knots.dtype == union.dtype
        assert knots.tobytes() == union.tobytes()

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

    def test_755_block_magic_wavelength_none_at_90(self, table_755):
        # the shift vanishes at every knot of the 755 nm table at 90 deg:
        # no isolated root, so no table edge is reported as magic
        cfg = TweezerConfig(wavelength_nm=755.0, power_W=2.0e-3, na=0.5,
                            target_waist_nm=789.0)
        env = FieldEnvironment(cfg, MagneticField(8.0, 90.0))
        assert atomstark.find_magic_wavelength(env, table_755) is None

    @pytest.mark.parametrize("a_s2,want", [
        ([1100.0, 1000.0, 1000.0, 900.0], None),
        ([1100.0, 1000.0, 900.0, 900.0], 540.0)])
    def test_magic_wavelength_zero_interval(self, a_s2, want):
        # scalar-only tables: a shift vanishing on a whole knot interval
        # has no isolated root; a single zero knot is the root
        lam = np.array([530.0, 540.0, 550.0, 560.0])
        states = {
            "3P0": atomstark.StateInfo("3P0", 0, 0.0, lam,
                                       np.full(4, 1000.0), np.zeros(4)),
            "3P2": atomstark.StateInfo("3P2", 2, 1.5, lam,
                                       np.array(a_s2), np.zeros(4))}
        table = atomstark.PolarizabilityTable(states)
        env = FieldEnvironment(REF_TWEEZER, MagneticField(8.0, 0.0))
        assert atomstark.find_magic_wavelength(env, table) == want

    def test_755_block_fixture_relation(self, table_755):
        s0, _ = table_755.alpha("3P0", 755.0)
        s2, t2 = table_755.alpha("3P2", 755.0)
        assert s0 - s2 == pytest.approx(t2 / 2.0, rel=1e-12)


# ------------------------------------------------- numpy-free table layer
# The table layer interpolates and finds the magic wavelength in plain
# floats; these pin it to the numpy code it replaced, bit for bit.

def float_bits(*values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def interp_states(table, table_755, rng):
    """Both packaged tables' states plus 2000 seeded random ones; their
    wavelengths are drawn from a few values, so many knots repeat."""
    states = [t.state(label) for t in (table, table_755)
              for label in (atomstark.GROUND, atomstark.EXCITED)]
    for k in range(2000):
        n = int(rng.integers(1, 13))
        pool = np.round(rng.uniform(500.0, 800.0, size=max(1, n // 2)), 2)
        lam = np.sort(rng.choice(pool, size=n))
        a_s, a_t = rng.uniform(-2e3, 2e3, size=(2, n))
        a_t[rng.random(n) < 0.2] = 0.0
        states.append(atomstark.StateInfo(
            f"s{k}", 0, 0.0, *(tuple(col.tolist()) for col in (lam, a_s,
                                                              a_t))))
    return states


def interp_points(lam, rng) -> list[float]:
    """Each knot, one ulp to either side of it, the 1e-9 nm margins past
    both ends and 20 uniform points across the span with its margins."""
    lo, hi = lam[0] - 1e-9, lam[-1] + 1e-9
    knots = np.array(lam)
    points = [*knots, *np.nextafter(knots, -np.inf),
              *np.nextafter(knots, np.inf), lo, hi,
              *rng.uniform(lo, hi, size=20)]
    return [float(x) for x in points if lo <= x <= hi]


def test_alpha_is_np_interp_bit_for_bit(table, table_755):
    rng = np.random.default_rng(2023)
    cases = 0
    for s in interp_states(table, table_755, rng):
        tab = atomstark.PolarizabilityTable({s.label: s})
        for x in interp_points(s.wavelengths_nm, rng):
            want = [np.interp(x, s.wavelengths_nm, col)
                    for col in (s.alpha_s_au, s.alpha_t_au)]
            assert float_bits(*tab.alpha(s.label, x)) \
                == float_bits(*want), (s, x)
            cases += 2
    assert cases > 150_000


def np_alpha(table, label, lam):
    s = table.state(label)
    return (float(np.interp(lam, s.wavelengths_nm, s.alpha_s_au)),
            float(np.interp(lam, s.wavelengths_nm, s.alpha_t_au)))


def np_shift(table, lam, u3_sq):
    """The differential shift at e0sq = 1 through ``np.interp``."""
    g, e = (atomstark.m0_light_shift(*np_alpha(table, label, lam),
                                     table.state(label).j, u3_sq, 1.0)
            for label in (atomstark.GROUND, atomstark.EXCITED))
    return g - e


def np_magic_angle(table, wavelength_nm):
    """``find_magic_angle`` of the numpy table layer."""
    d1, d0 = (float(np_shift(table, wavelength_nm, u)) for u in (1.0, 0.0))
    if d0 == d1:
        return 0.0 if d0 == 0.0 else None
    u_star = d0 / (d0 - d1)
    if not 0.0 <= u_star <= 1.0:
        return None
    return math.degrees(math.acos(math.sqrt(u_star)))


def np_magic_wavelength(table, phi_deg):
    """``find_magic_wavelength`` of the numpy table layer: the knots by
    sort and mask, the shift as arrays."""
    (lo0, hi0), (lo2, hi2) = table.span_nm("3P0"), table.span_nm("3P2")
    lo, hi = max(lo0, lo2), min(hi0, hi2)
    u3_sq, _ = atomstark.axis_projection(np.array([1.0, 0.0, 0.0]), phi_deg)
    lam = np.sort(np.concatenate((table.state("3P0").wavelengths_nm,
                                  table.state("3P2").wavelengths_nm)))
    lam = lam[np.concatenate(([True], lam[1:] != lam[:-1]))]
    lam = lam[(lam >= lo) & (lam <= hi)]
    du = np.array([np_shift(table, x, u3_sq) for x in lam])
    sign = np.sign(du)
    run = (du[:-1] == 0.0) & (du[1:] == 0.0)
    flat = np.append(run, False) | np.insert(run, 0, False)
    hits = np.flatnonzero((sign[:-1] * sign[1:] <= 0.0)
                          & ~flat[:-1] & ~flat[1:])
    if hits.size == 0:
        return None
    a, b = hits[0], hits[0] + 1
    if du[a] == 0.0 or du[b] == 0.0:
        return float(lam[a] if du[a] == 0.0 else lam[b])
    return float(lam[a] + (lam[b] - lam[a]) * du[a] / (du[a] - du[b]))


@pytest.mark.parametrize("name,has_roots", [("table", True),
                                            ("table_755", False)])
def test_magic_roots_match_numpy_sweep(name, has_roots, request):
    """Both roots, bit for bit, at every 0.25 deg from 0 to 90 deg and at
    every 0.001 deg where cos^2 as c * c is not the pow() of
    ``axis_projection``; the magic angle at each magic wavelength found
    and at every 0.05 nm of the table's overlap. The 755 nm table has no
    isolated magic wavelength at any of these angles."""
    table = request.getfixturevalue(name)
    cos = [math.cos(math.radians(k / 1000)) for k in range(90_001)]
    angles = sorted({k / 4 for k in range(361)}
                    | {k / 1000 for k, c in enumerate(cos)
                       if c * c != c ** 2})
    (lo0, hi0), (lo2, hi2) = table.span_nm("3P0"), table.span_nm("3P2")
    lo, hi = max(lo0, lo2), min(hi0, hi2)
    wavelengths = list(np.linspace(lo, hi, round((hi - lo) / 0.05) + 1))
    found = []
    tw = TweezerConfig(wavelengths[0], 46e-6, 0.5, target_waist_nm=564.0)
    for phi in angles:
        env = FieldEnvironment(tw, MagneticField(8.0, phi))
        got = atomstark.find_magic_wavelength(env, table)
        assert repr(got) == repr(np_magic_wavelength(table, phi)), phi
        if got is not None:
            wavelengths.append(got)
            found.append(got)
    for lam in map(float, wavelengths):
        tw = TweezerConfig(lam, 46e-6, 0.5, target_waist_nm=564.0)
        env = FieldEnvironment(tw, MagneticField(8.0, 0.0))
        got = atomstark.find_magic_angle(env, table)
        assert repr(got) == repr(np_magic_angle(table, lam)), lam
    assert bool(found) is has_roots
