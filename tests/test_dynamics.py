"""Pulse-protocol simulations.

Oracles: exact two-level rotation algebra (Rabi formula, composed pulses),
the scalar one-state propagator chained over the engine's own draws,
analytic Gaussian averages for shot-to-shot jitter (envelope
exp(-sigma^2 t^2 / 2)), the exact thermal-ensemble Ramsey mean, perfect echo
refocusing of shot-static detunings, and the two-segment phase-variance law
for a fluctuating detuning.
"""

import csv
import json
import math
import pathlib
import threading
import tracemalloc

import numpy as np
import pytest

from fsqubit import FieldEnvironment, MagneticField, NoiseModel
from fsqubit import analysis, cli, dynamics, trapmodel
from fsqubit.errors import FitFailed, ModelMismatch

import oracles

OMEGA = 2 * math.pi * 84e3
F_FR = 1.3e6
NOISELESS = NoiseModel()


def magic_trap():
    om = 2 * math.pi * np.array([25e3, 26e3, 4.3e3])
    return trapmodel.TrapCharacterization(
        depth_p0_hz=4.6e5, depth_p2_hz=4.6e5,
        omega_p0_rad_s=om, omega_p2_rad_s=om.copy(), du_center_hz=0.0)


def mismatched_trap(rel=0.99, du_hz=300.0):
    om = 2 * math.pi * np.array([25e3, 26e3, 4.3e3])
    return trapmodel.TrapCharacterization(
        depth_p0_hz=4.6e5, depth_p2_hz=4.5e5,
        omega_p0_rad_s=om, omega_p2_rad_s=rel * om, du_center_hz=du_hz)


class TestEvolveSegment:
    def test_resonant_pi_pulse(self):
        s = oracles.QubitState(1.0, 0.0)
        seg = oracles.PulseSegment(duration_s=math.pi / OMEGA,
                                   omega_rad_s=OMEGA, delta_rad_s=0.0,
                                   phi_l_rad=0.0)
        out = oracles.evolve_segment(s, seg)
        assert abs(out.c_p2) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_detuned_rabi_max_half(self):
        s = oracles.QubitState(1.0, 0.0)
        om_eff = math.hypot(OMEGA, OMEGA)
        peak = oracles.evolve_segment(
            s, oracles.PulseSegment(math.pi / om_eff, OMEGA, OMEGA, 0.0))
        assert abs(peak.c_p2) ** 2 == pytest.approx(0.5, abs=1e-12)
        for frac in np.linspace(0.05, 2.0, 29):
            out = oracles.evolve_segment(
                s, oracles.PulseSegment(frac * math.pi / om_eff, OMEGA,
                                        OMEGA, 0.0))
            assert abs(out.c_p2) ** 2 <= 0.5 + 1e-12

    def test_semigroup_composition(self):
        s = oracles.QubitState(0.6, 0.8j)
        seg = lambda t: oracles.PulseSegment(t, OMEGA, 0.3 * OMEGA, 0.7)
        one = oracles.evolve_segment(oracles.evolve_segment(s, seg(2e-6)),
                                     seg(3e-6))
        two = oracles.evolve_segment(s, seg(5e-6))
        assert one.c_p0 == pytest.approx(two.c_p0, abs=1e-10)
        assert one.c_p2 == pytest.approx(two.c_p2, abs=1e-10)

    def test_free_evolution_phase(self):
        delta = 2 * math.pi * 50e3
        s = oracles.QubitState(1 / math.sqrt(2), 1 / math.sqrt(2))
        out = oracles.evolve_segment(
            s, oracles.PulseSegment(3e-6, 0.0, delta, 0.0))
        ratio = out.c_p2 / out.c_p0
        assert ratio == pytest.approx(np.exp(1j * delta * 3e-6), abs=1e-12)

    def test_norm_preserved_over_many_segments(self):
        rng = np.random.default_rng(23)
        s = oracles.QubitState(1.0, 0.0)
        for _ in range(10_000):
            s = oracles.evolve_segment(s, oracles.PulseSegment(
                rng.uniform(0, 5e-6), rng.uniform(0, OMEGA),
                rng.uniform(-OMEGA, OMEGA), rng.uniform(0, 2 * math.pi)))
        norm = abs(s.c_p0) ** 2 + abs(s.c_p2) ** 2
        assert norm == pytest.approx(1.0, abs=1e-9)

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            oracles.PulseSegment(-1e-6, OMEGA, 0.0, 0.0)
        with pytest.raises(ValueError):
            oracles.PulseSegment(1e-6, -OMEGA, 0.0, 0.0)


def _trace(**bad):
    arrays = dict(t_s=np.zeros(2), p32_mean=np.zeros(2), p32_sem=np.zeros(2))
    arrays.update({key: np.array([0.0, v]) for key, v in bad.items()})
    return dynamics.TraceResult(**arrays)


@pytest.mark.parametrize("build", [
    pytest.param(lambda bad: MagneticField(bad, 0.0), id="field-magnitude"),
    pytest.param(lambda bad: MagneticField(3.0, bad), id="field-angle"),
    pytest.param(lambda bad: NoiseModel(rabi_frac_std=bad), id="noise-rabi"),
    pytest.param(lambda bad: NoiseModel(phi_jitter_std_deg=bad),
                 id="noise-phi"),
    pytest.param(lambda bad: NoiseModel(detuning_offset_std=bad),
                 id="noise-detuning"),
    pytest.param(lambda bad: oracles.PulseSegment(bad, OMEGA, 0.0, 0.0),
                 id="segment-duration"),
    pytest.param(lambda bad: oracles.PulseSegment(1e-6, bad, 0.0, 0.0),
                 id="segment-omega"),
    pytest.param(lambda bad: oracles.PulseSegment(1e-6, OMEGA, bad, 0.0),
                 id="segment-delta"),
    pytest.param(lambda bad: oracles.PulseSegment(1e-6, OMEGA, 0.0, bad),
                 id="segment-phase"),
    pytest.param(lambda bad: _trace(t_s=bad), id="trace-time"),
    pytest.param(lambda bad: _trace(p32_mean=bad), id="trace-mean"),
    pytest.param(lambda bad: _trace(p32_sem=bad), id="trace-sem")])
def test_non_finite_parameters_rejected(build):
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            build(bad)


class TestApplySpam:
    def test_identity(self):
        p = np.linspace(0, 1, 11)
        np.testing.assert_array_equal(dynamics.apply_spam(p, NOISELESS), p)

    def test_dark_manifold_convention(self):
        noise = NoiseModel(prep_efficiency=0.9)
        assert dynamics.apply_spam(0.0, noise) == 0.0
        assert dynamics.apply_spam(1.0, noise) == pytest.approx(0.9)

    def test_multiplicative_readout(self):
        noise = NoiseModel(prep_efficiency=0.9, readout_fidelity=0.76)
        p = np.array([0.0, 0.5, 1.0])
        np.testing.assert_allclose(dynamics.apply_spam(p, noise),
                                   0.9 * 0.76 * p)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            dynamics.apply_spam(1.5, NOISELESS)

    def test_rejects_nan_scalar(self):
        with pytest.raises(ValueError):
            dynamics.apply_spam(math.nan, NOISELESS)

    def test_rejects_nan_in_array(self):
        p = np.linspace(0, 1, 11)
        p[4] = math.nan
        with pytest.raises(ValueError):
            dynamics.apply_spam(p, NOISELESS)

    def test_in_place(self):
        noise = NoiseModel(prep_efficiency=0.9, readout_fidelity=0.76)
        p = np.array([0.0, 0.5, 1.0 + 1e-13])
        out = dynamics.apply_spam(p, noise, out=p)
        assert out is p
        np.testing.assert_array_equal(p, noise.spam_scale
                                      * np.array([0.0, 0.5, 1.0]))

    def test_in_range_block_matches_the_clip_bit_for_bit(self):
        # the clip is skipped in range: same bits, -0.0 included
        noise = NoiseModel(prep_efficiency=0.9, readout_fidelity=0.76)
        p = np.random.default_rng(8).uniform(0.0, 1.0, (64, 7))
        p[0, :3] = (-0.0, 0.0, 1.0)
        want = np.clip(p, 0.0, 1.0) * noise.spam_scale
        got = dynamics.apply_spam(p.copy(), noise)
        assert got.tobytes() == want.tobytes()
        assert np.signbit(got[0, 0]) and not np.signbit(got[0, 1])

    def test_just_above_one_is_still_clipped(self):
        noise = NoiseModel(prep_efficiency=0.9)
        p = np.array([0.25, 1.0 + 1e-13, 1.0 + 1e-12])
        np.testing.assert_array_equal(dynamics.apply_spam(p, noise),
                                      0.9 * np.array([0.25, 1.0, 1.0]))

    def test_nan_raises_in_place(self):
        p = np.array([0.5, math.nan, 0.25])
        with pytest.raises(ValueError, match="must lie in"):
            dynamics.apply_spam(p, NOISELESS, out=p)

    def test_new_array_leaves_input(self):
        noise = NoiseModel(prep_efficiency=0.9)
        for p in (np.array([0.0, 0.5, 1.0]), np.array([0.5, 1.0 + 1e-13])):
            before = p.copy()
            out = dynamics.apply_spam(p, noise)
            assert out is not p
            np.testing.assert_array_equal(p, before)


class TestSimulateRabi:
    T_GRID = np.linspace(0.0, 60e-6, 121)

    def test_noiseless_magic_is_pure_sinusoid(self):
        tr = dynamics.simulate_rabi(magic_trap(), 1.4e-6, NOISELESS, OMEGA,
                                    self.T_GRID, trials=16, master_seed=1)
        want = np.sin(OMEGA * self.T_GRID / 2) ** 2
        np.testing.assert_allclose(tr.p32_mean, want, atol=1e-9)
        np.testing.assert_allclose(tr.p32_sem, 0.0, atol=1e-12)

    def test_rabi_jitter_envelope(self):
        noise = NoiseModel(rabi_frac_std=0.10)
        tr = dynamics.simulate_rabi(magic_trap(), 0.0, noise, OMEGA,
                                    self.T_GRID, trials=2000, master_seed=2)
        sig = 0.10 * OMEGA
        want = 0.5 * (1 - np.cos(OMEGA * self.T_GRID)
                      * np.exp(-(sig * self.T_GRID) ** 2 / 2))
        sem = np.maximum(tr.p32_sem, 1e-12)
        assert np.all(np.abs(tr.p32_mean - want) <= 3 * sem + 5e-3)

    def test_seed_determinism(self):
        a = dynamics.simulate_rabi(mismatched_trap(), 2e-6,
                                   NoiseModel(rabi_frac_std=0.1), OMEGA,
                                   self.T_GRID, trials=64, master_seed=5)
        b = dynamics.simulate_rabi(mismatched_trap(), 2e-6,
                                   NoiseModel(rabi_frac_std=0.1), OMEGA,
                                   self.T_GRID, trials=64, master_seed=5)
        np.testing.assert_array_equal(a.p32_mean, b.p32_mean)
        np.testing.assert_array_equal(a.p32_sem, b.p32_sem)
        c = dynamics.simulate_rabi(mismatched_trap(), 2e-6,
                                   NoiseModel(rabi_frac_std=0.1), OMEGA,
                                   self.T_GRID, trials=64, master_seed=6)
        assert not np.array_equal(a.p32_mean, c.p32_mean)

    def test_no_drive_gives_exact_zeros(self):
        # Omega_eff = 0 on every trial: Omega/Omega_eff is taken as 1
        tr = dynamics.simulate_rabi(magic_trap(), 0.0, NOISELESS, 0.0,
                                    self.T_GRID, trials=16, master_seed=1)
        np.testing.assert_array_equal(tr.p32_mean, 0.0)
        np.testing.assert_array_equal(tr.p32_sem, 0.0)

    def test_spam_caps_maxima(self):
        noise = NoiseModel(prep_efficiency=0.9, readout_fidelity=0.76)
        t_pi = math.pi / OMEGA
        tr = dynamics.simulate_rabi(magic_trap(), 0.0, noise, OMEGA,
                                    np.array([0.0, t_pi, 2 * t_pi]),
                                    trials=8, master_seed=3)
        assert tr.p32_mean.max() == pytest.approx(0.9 * 0.76, abs=1e-9)

    def test_phi_jitter_needs_field_context(self):
        with pytest.raises(ValueError):
            dynamics.simulate_rabi(magic_trap(), 0.0,
                                   NoiseModel(phi_jitter_std_deg=0.5),
                                   OMEGA, self.T_GRID, trials=4,
                                   master_seed=1)


class TestSimulateRamsey:
    def test_unknown_motional_model(self):
        # one place rejects it: the detuning ladder of trapmodel
        with pytest.raises(ModelMismatch):
            dynamics.simulate_ramsey(magic_trap(), 0.0, NOISELESS, OMEGA,
                                     F_FR, np.linspace(0.0, 5e-6, 11),
                                     trials=4, master_seed=1,
                                     motional_model="bogus")

    def test_magic_noiseless_fringe(self):
        t_r = np.linspace(0.0, 6.0 / F_FR, 160)
        tr = dynamics.simulate_ramsey(magic_trap(), 0.0, NOISELESS, OMEGA,
                                      F_FR, t_r, trials=8, master_seed=1)
        assert tr.p32_mean[0] == pytest.approx(1.0, abs=1e-6)
        fit = analysis.fit_sinusoid(tr.t_s, tr.p32_mean)
        assert fit.freq_hz == pytest.approx(F_FR, rel=1e-6)
        assert 2 * fit.amplitude == pytest.approx(1.0, abs=1e-6)

    def test_static_spread_gaussian_envelope(self):
        sig = 2 * math.pi * 5e3
        f_fr = 100e3
        t_r = np.linspace(0.0, 80e-6, 220)   # ~2.5 decay times of 1/sig
        noise = NoiseModel(detuning_offset_std=sig)
        tr = dynamics.simulate_ramsey(magic_trap(), 0.0, noise, OMEGA, f_fr,
                                      t_r, trials=3000, master_seed=7,
                                      instantaneous_pulses=True)
        want = 0.5 * (1 + np.cos(2 * math.pi * f_fr * t_r)
                      * np.exp(-(sig * t_r) ** 2 / 2))
        sem = np.maximum(tr.p32_sem, 1e-12)
        assert np.all(np.abs(tr.p32_mean - want) <= 3 * sem + 5e-3)

    def test_thermal_ladder_shifts_fringe(self):
        # ensemble-mean detuning moves the apparent fringe frequency by
        # mean(delta - delta_ref)/2pi; checks the trapmodel chain end to end
        trap = mismatched_trap(rel=0.995, du_hz=40.0)
        t_k = 2e-6
        t_r = np.linspace(0.0, 60e-6, 600)
        tr = dynamics.simulate_ramsey(trap, t_k, NOISELESS, OMEGA, F_FR,
                                      t_r, trials=4000, master_seed=11,
                                      instantaneous_pulses=True)
        from fsqubit.constants import HBAR, K_B
        x = HBAR * trap.omega_p0_rad_s / (K_B * t_k)
        nbar = 1.0 / np.expm1(x)
        d_om = trap.delta_omega_rad_s
        # drive reference removes du_center and the zero-point ladder, so
        # the surviving ensemble mean is sum_i dOmega_i * nbar_i
        mean_delta = float(np.sum(d_om * nbar))
        fit = analysis.fit_sinusoid(tr.t_s, tr.p32_mean)
        shift = fit.freq_hz - F_FR
        assert shift == pytest.approx(mean_delta / (2 * math.pi), rel=0.15)

    def test_spam_scales_amplitude(self):
        t_r = np.linspace(0.0, 4.0 / F_FR, 120)
        noise = NoiseModel(prep_efficiency=0.9, readout_fidelity=0.8)
        tr = dynamics.simulate_ramsey(magic_trap(), 0.0, noise, OMEGA, F_FR,
                                      t_r, trials=8, master_seed=2)
        fit = analysis.fit_sinusoid(tr.t_s, tr.p32_mean,
                                    fixed_freq_hz=F_FR)
        assert 2 * fit.amplitude == pytest.approx(0.72, abs=1e-3)


class TestSimulateEcho:
    def test_zero_time_equals_composed_pi(self):
        tr = dynamics.simulate_echo(magic_trap(), 0.0, NOISELESS, OMEGA,
                                    F_FR, np.array([0.0]), trials=4,
                                    master_seed=1)
        assert tr.p32_mean[0] == pytest.approx(1.0, abs=1e-6)

    def test_static_disorder_refocused(self):
        sig = 2 * math.pi * 20e3
        t = np.linspace(0.0, 80e-6, 90)
        noise = NoiseModel(detuning_offset_std=sig)
        tr = dynamics.simulate_echo(magic_trap(), 0.0, noise, OMEGA, 50e3,
                                    t, trials=1500, master_seed=9,
                                    instantaneous_pulses=True)
        clean = dynamics.simulate_echo(magic_trap(), 0.0, NOISELESS, OMEGA,
                                       50e3, t, trials=4, master_seed=9,
                                       instantaneous_pulses=True)
        sem = np.maximum(tr.p32_sem, 1e-12)
        assert np.all(np.abs(tr.p32_mean - clean.p32_mean)
                      <= 3 * sem + 5e-3)

    def test_fluctuating_detuning_decays(self):
        sig = 2 * math.pi * 15e3
        f_fr = 60e3
        t = np.linspace(0.0, 120e-6, 160)
        noise = NoiseModel(detuning_offset_std=sig)
        tr = dynamics.simulate_echo(magic_trap(), 0.0, noise, OMEGA, f_fr,
                                    t, trials=3000, master_seed=13,
                                    instantaneous_pulses=True,
                                    fluctuating_detuning=True)
        # pi/2(x) t/2 pi(y) t/2 pi/2(-2pi f t) with independent halves:
        # P = (1 + cos(2 pi f t - (d1-d2) t/2))/2, d1-d2 ~ N(0, sqrt2 sig),
        # so the fringe keeps the Ramsey sign and the envelope is
        # exp(-sig^2 t^2/4)
        want = 0.5 * (1 + np.cos(2 * math.pi * f_fr * t)
                      * np.exp(-(sig * t) ** 2 / 4))
        sem = np.maximum(tr.p32_sem, 1e-12)
        assert np.all(np.abs(tr.p32_mean - want) <= 3 * sem + 6e-3)
        late = np.abs(tr.p32_mean[-40:] - 0.5)
        assert late.max() < 0.1


class TestBurstGrid:
    def test_structure(self):
        grid = dynamics.ramsey_burst_grid(1e-3, F_FR, n_windows=9,
                                          points_per_window=28)
        assert grid[0] == 0.0
        assert np.all(np.diff(grid) > 0)
        assert grid.size == 9 * 28
        # bursts must not straddle contrast-window edges
        width = 5.0 / F_FR
        idx = np.floor(grid / width + 1e-9).astype(int)
        assert len(np.unique(idx)) == 9

    def test_window_compatibility_with_extract(self):
        grid = dynamics.ramsey_burst_grid(200e-6, F_FR)
        y = 0.5 * (1 + np.cos(2 * math.pi * F_FR * grid))
        pts = analysis.extract_contrast(grid, y, F_FR)
        assert len(pts) == 9
        for p in pts:
            assert p.contrast == pytest.approx(1.0, abs=1e-9)


def _scalar_mean(protocol, deltas, om_f, t_grid, instantaneous):
    """Trial-mean P(3P2) from chaining the scalar ``evolve_segment`` over
    explicit segments, one trial and one time at a time."""
    p = np.zeros_like(t_grid)
    free = lambda dur, d: oracles.PulseSegment(dur, 0.0, d, 0.0)
    for k, f in enumerate(om_f):
        om, d1, d2 = OMEGA * f, deltas[0, k], deltas[-1, k]

        def pulse(angle, delta, phase):
            if instantaneous:
                return oracles.PulseSegment(angle, 1.0, 0.0, phase)
            return oracles.PulseSegment(angle / OMEGA, om, delta, phase)

        for j, t in enumerate(t_grid):
            fringe = -2 * math.pi * F_FR * t
            segs = {
                "rabi": [oracles.PulseSegment(t, om, d1, 0.0)],
                "ramsey": [pulse(math.pi / 2, d1, 0.0), free(t, d1),
                           pulse(math.pi / 2, d1, fringe)],
                "echo": [pulse(math.pi / 2, d1, 0.0), free(t / 2, d1),
                         pulse(math.pi, d2, math.pi / 2), free(t / 2, d2),
                         pulse(math.pi / 2, d2, fringe)]}[protocol]
            state = oracles.QubitState(1.0, 0.0)
            for seg in segs:
                state = oracles.evolve_segment(state, seg)
            p[j] += state.p32
    return p / len(om_f)


def _simulate(protocol, trap, temp, noise, t, trials, seed, instantaneous,
              sets):
    """The engine through the public entry point of ``protocol``."""
    if protocol == "rabi":
        return dynamics.simulate_rabi(trap, temp, noise, OMEGA, t, trials,
                                      seed)
    if protocol == "ramsey":
        return dynamics.simulate_ramsey(
            trap, temp, noise, OMEGA, F_FR, t, trials, seed,
            instantaneous_pulses=instantaneous)
    return dynamics.simulate_echo(
        trap, temp, noise, OMEGA, F_FR, t, trials, seed,
        instantaneous_pulses=instantaneous, fluctuating_detuning=(sets == 2))


@pytest.mark.parametrize("protocol,instantaneous,sets", [
    ("rabi", False, 1), ("ramsey", False, 1), ("ramsey", True, 1),
    ("echo", False, 1), ("echo", True, 1), ("echo", False, 2),
    ("echo", True, 2)])
def test_engine_matches_scalar_propagator(protocol, instantaneous, sets):
    # pins the pending-phase walk (signs of the laser and free-evolution
    # phases) to the independent one-state propagator
    trap, temp, trials, seed = mismatched_trap(), 3e-6, 5, 31
    noise = NoiseModel(rabi_frac_std=0.05,
                       detuning_offset_std=2 * math.pi * 2e3,
                       prep_efficiency=0.9, readout_fidelity=0.95)
    # 6.175 fringe periods per step: no laser phase is a multiple of pi
    t = np.linspace(0.0, 57e-6, 13)
    deltas, om_f, _ = dynamics._draw_trials(trap, temp, noise, trials, seed,
                                            "fock", detuning_sets=sets)
    want = noise.spam_scale * _scalar_mean(protocol, deltas, om_f, t,
                                           instantaneous)
    got = _simulate(protocol, trap, temp, noise, t, trials, seed,
                    instantaneous, sets)
    np.testing.assert_allclose(got.p32_mean, want, rtol=0, atol=1e-12)


def _split_grid(kind):
    lin = np.linspace(0.0, 200e-6, 801)
    if kind == "linspace":
        return lin
    if kind == "burst":
        return dynamics.ramsey_burst_grid(80e-6, F_FR)
    if kind == "nudged":
        lin[400] += 1e-3 * (lin[1] - lin[0])
        return lin
    if kind == "burst_direct":
        # one point per burst 7 ulp off its run, like _straddled_grid's:
        # direct values written into a cell table with unused cells
        t = dynamics.ramsey_burst_grid(80e-6, F_FR)
        near = np.arange(5, t.size, 28)
        t[near] += 7 * np.spacing(t[near])
        assert set(near) <= set(dynamics._chunk_grid(t)[3].tolist())
        return t
    return np.sort(np.random.default_rng(4).uniform(0.0, 200e-6, 200))


@pytest.mark.parametrize("grid", ["linspace", "burst", "nudged", "random",
                                  "burst_direct"])
@pytest.mark.parametrize("protocol,instantaneous,sets", [
    ("rabi", False, 1), ("ramsey", False, 1), ("ramsey", True, 1),
    ("echo", False, 1), ("echo", True, 1), ("echo", False, 2),
    ("echo", True, 2)])
def test_engine_matches_scalar_propagator_on_split_grids(
        protocol, instantaneous, sets, grid):
    # long grids, fringe phases up to 1634 rad: the angle-addition runs
    # and the directly evaluated points both match the propagator
    t = _split_grid(grid)
    assert (dynamics._chunk_grid(t) is None) == (grid == "random")
    trap, temp, trials, seed = mismatched_trap(), 3e-6, 2, 37
    noise = NoiseModel(rabi_frac_std=0.05,
                       detuning_offset_std=2 * math.pi * 2e3)
    deltas, om_f, _ = dynamics._draw_trials(trap, temp, noise, trials, seed,
                                            "fock", detuning_sets=sets)
    want = _scalar_mean(protocol, deltas, om_f, t, instantaneous)
    got = _simulate(protocol, trap, temp, noise, t, trials, seed,
                    instantaneous, sets)
    np.testing.assert_allclose(got.p32_mean, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("grid", ["nudged", "burst"])
def test_tile_size_changes_no_bit(grid, monkeypatch):
    # slabs of about 1 and 7 runs against the default slab, on grids whose
    # cell map is not the identity
    t = _split_grid(grid)
    starts, offsets, cell, _ = dynamics._chunk_grid(t)
    assert not np.array_equal(cell, np.arange(cell.size))
    noise = NoiseModel(rabi_frac_std=0.05,
                       detuning_offset_std=2 * math.pi * 2e3,
                       prep_efficiency=0.9, readout_fidelity=0.95)

    def run():
        return dynamics.simulate_echo(
            mismatched_trap(), 3e-6, noise, OMEGA, F_FR, t,
            2 * dynamics._TRIAL_BLOCK + 3, 43, fluctuating_detuning=True)

    want = run()
    run_bytes = 8 * dynamics._TRIAL_BLOCK * offsets.size
    assert dynamics._SLAB_BYTES // run_bytes not in (1, 7)
    for runs in (1, 7):
        monkeypatch.setattr(dynamics, "_SLAB_BYTES", runs * run_bytes)
        got = run()
        np.testing.assert_array_equal(got.p32_mean, want.p32_mean)
        np.testing.assert_array_equal(got.p32_sem, want.p32_sem)


def _straddled_grid():
    """The 801-point linspace with a directly evaluated point on each side
    of every boundary of 2, 3, 5 and 7 slabs (7 is the default slab of a
    full block); returns the grid and those boundaries."""
    t = np.linspace(0.0, 200e-6, 801)
    grid = dynamics._chunk_grid(t)
    # one segment: each point's cell is its index
    bounds = {cells.start for n in (2, 3, 5, 7)
              for cells, *_ in dynamics._grid_parts(t, grid, n)} - {0}
    near = sorted({b + side for b in bounds for side in (-1, 1)})
    # 7 ulp: off the point's run (> 4 ulp), inside its segment (< 8 ulp
    # of the largest time)
    t[near] += 7 * np.spacing(t[near])
    assert set(near) <= set(dynamics._chunk_grid(t)[3].tolist())
    return t, bounds


@pytest.mark.parametrize("grid", ["linspace", "nudged", "burst", "random",
                                  "straddled", "burst_direct"])
@pytest.mark.parametrize("protocol", ["echo", "ramsey", "rabi"])
def test_part_count_changes_no_bit(grid, protocol, monkeypatch):
    # 1, 2, 3 and 5 threads, block b on thread b mod n, on split and
    # unsplit grids and with direct points next to the slab boundaries;
    # five blocks, the last partial
    if grid == "straddled":
        t, bounds = _straddled_grid()
        slabs = dynamics._grid_parts(t, dynamics._chunk_grid(t), 7)
        assert {cells.start for cells, *_ in slabs} - {0} <= bounds
    else:
        t = _split_grid(grid)
    monkeypatch.setattr(dynamics, "_PART_POINTS", 16)
    noise = NoiseModel(rabi_frac_std=0.05,
                       detuning_offset_std=2 * math.pi * 2e3,
                       prep_efficiency=0.9, readout_fidelity=0.95)
    results = {}
    for n in (1, 2, 3, 5):
        monkeypatch.setattr(dynamics, "_cpu_count", lambda n=n: n)
        results[n] = _simulate(protocol, mismatched_trap(), 3e-6, noise, t,
                               4 * dynamics._TRIAL_BLOCK + 3, 53, False, 2)
    for n in (2, 3, 5):
        np.testing.assert_array_equal(results[n].p32_mean,
                                      results[1].p32_mean)
        np.testing.assert_array_equal(results[n].p32_sem, results[1].p32_sem)


def _count_started_threads(monkeypatch):
    """Patch threading.Thread so that every started thread is listed."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


@pytest.mark.parametrize("grid,trials,cpus,threads", [
    ("window", 1200, 8, 0), ("burst", 2000, 8, 0), ("linspace", 2048, 2, 1)])
def test_thread_count_is_derived(grid, trials, cpus, threads, monkeypatch):
    # min(CPUs, blocks, T // _PART_POINTS) threads, the calling thread
    # among them: a 28-point window and the 252-point burst grid start
    # none, an 801-point run of 4 blocks on 2 CPUs starts one
    t = {"window": np.linspace(0.0, 5 / F_FR, 28, endpoint=False),
         "burst": dynamics.ramsey_burst_grid(80e-6, F_FR),
         "linspace": np.linspace(0.0, 200e-6, 801)}[grid]
    started = _count_started_threads(monkeypatch)
    monkeypatch.setattr(dynamics, "_cpu_count", lambda: cpus)
    dynamics.simulate_ramsey(mismatched_trap(), 3e-6, NOISELESS, OMEGA,
                             F_FR, t, trials, 61)
    assert len(started) == threads


def test_worker_part_error_reaches_the_caller(monkeypatch):
    # apply_spam rejects the populations of a block off the calling
    # thread: the caller raises its ValueError after every thread has ended
    spam = dynamics.apply_spam

    def corrupt_off_main(p, noise, out=None):
        if threading.current_thread() is not threading.main_thread():
            p += 2.0
        return spam(p, noise, out=out)

    monkeypatch.setattr(dynamics, "apply_spam", corrupt_off_main)
    monkeypatch.setattr(dynamics, "_cpu_count", lambda: 3)
    started = _count_started_threads(monkeypatch)
    t = np.linspace(0.0, 200e-6, 801)
    before = threading.active_count()
    with pytest.raises(ValueError, match="must lie in"):
        dynamics.simulate_ramsey(mismatched_trap(), 3e-6, NOISELESS, OMEGA,
                                 F_FR, t, dynamics._TRIAL_BLOCK + 40, 59)
    assert len(started) == 1
    assert threading.active_count() == before


@pytest.mark.parametrize("case", ["echo", "rabi", "ramsey_unsplit",
                                  "ramsey_burst"])
def test_echo_working_set_below_two_blocks(case):
    # one block buffer and cache-sized tiles for every protocol and grid:
    # no (block, T) temporaries
    t = np.linspace(0.0, 200e-6, 801)
    if case == "ramsey_unsplit":
        t = np.sort(np.random.default_rng(4).uniform(0.0, 200e-6, t.size))
        assert dynamics._chunk_grid(t) is None
    if case == "ramsey_burst":  # 288 cells for 252 points
        t = dynamics.ramsey_burst_grid(1236e-6, F_FR, span_factor=1.5)
        assert t.size == 252
    noise = NoiseModel(rabi_frac_std=0.05,
                       detuning_offset_std=2 * math.pi * 2e3,
                       prep_efficiency=0.9, readout_fidelity=0.95)
    trap = mismatched_trap()

    def run(trials, seed):
        if case == "echo":
            return dynamics.simulate_echo(trap, 3e-6, noise, OMEGA, F_FR, t,
                                          trials, seed,
                                          fluctuating_detuning=True)
        if case == "rabi":
            return dynamics.simulate_rabi(trap, 3e-6, noise, OMEGA, t,
                                          trials, seed)
        return dynamics.simulate_ramsey(trap, 3e-6, noise, OMEGA, F_FR, t,
                                        trials, seed)

    run(4, 1)  # warm
    tracemalloc.start()
    try:
        run(2000, 47)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * dynamics._TRIAL_BLOCK * t.size * 8


def test_grid_split_accepts_only_points_on_their_run():
    t = np.linspace(0.0, 200e-6, 801)
    t[400] += 1e-3 * (t[1] - t[0])
    starts, offsets, cell, direct = dynamics._chunk_grid(t)
    assert offsets.size == 29 and direct.size == 0
    run, m = np.divmod(cell, offsets.size)
    pred = starts[run] + offsets[m]
    assert np.all(np.abs(t - pred) <= 4 * np.spacing(t))
    # the nudged point starts a run of its own
    assert m[400] == 0 and m[401] == 0
    # about 30 ulp off its run, inside its segment: evaluated directly
    t[100] *= 1 + 20 * np.finfo(float).eps
    grid = dynamics._chunk_grid(t)
    np.testing.assert_array_equal(grid[3], [100])
    rng = np.random.default_rng(5)
    k, amp = rng.uniform(0.2, 0.5, (2, 7))
    w = 2 * math.pi * F_FR + rng.normal(0.0, 1e4, 7)
    harmonics = [(amp, w, rng.uniform(-math.pi, math.pi, 7))]
    b = grid[1][:, None] * w
    offset_trig = np.array([[np.cos(b), np.sin(b)]])
    split, unsplit = np.empty((2, 2, 2 * t.size * k.size))
    every = np.arange(t.size)  # a grid without runs: every point direct
    (part,), (whole,) = (dynamics._grid_parts(t, g, 1)
                         for g in (grid, (t[:0], t[:0], every, every)))
    np.testing.assert_allclose(
        dynamics._harmonic_sum(k, harmonics, offset_trig, part,
                               split)[grid[2]],
        dynamics._harmonic_sum(k, harmonics, offset_trig[:, :, :0], whole,
                               unsplit),
        rtol=0, atol=1e-12)


def _fock_coherence(trap, temperature_K, sigma_off, t):
    """phi(t) = E[e^{i delta t}] for thermal Fock ladders (geometric n_i
    with q_i = e^{-hbar w_i / kB T}, lock point at n = 0) times a Gaussian
    detuning offset."""
    from fsqubit.constants import HBAR, K_B
    q = np.exp(-HBAR * trap.omega_p0_rad_s / (K_B * temperature_K))
    z = np.exp(1j * np.outer(t, trap.delta_omega_rad_s))
    return (np.prod((1 - q) / (1 - q * z), axis=1)
            * np.exp(-(sigma_off * t) ** 2 / 2))


@pytest.mark.slow
def test_ramsey_matches_exact_ensemble_mean():
    # one assertion over the draws, the geometric inverse CDF, the detuning
    # ladder and lock point, propagation and SPAM
    trap, temp, sig = mismatched_trap(), 3e-6, 2 * math.pi * 300.0
    noise = NoiseModel(detuning_offset_std=sig, prep_efficiency=0.9,
                       readout_fidelity=0.95)
    t = dynamics.ramsey_burst_grid(500e-6, F_FR)
    tr = dynamics.simulate_ramsey(trap, temp, noise, OMEGA, F_FR, t,
                                  trials=100_000, master_seed=2718,
                                  instantaneous_pulses=True)
    theta = -2 * math.pi * F_FR * t
    exact = noise.spam_scale * 0.5 * (
        1 + np.real(np.exp(1j * theta)
                    * np.conj(_fock_coherence(trap, temp, sig, t))))
    assert t.size == 252
    # at t = 0 every trial reads the same population up to round-off, so
    # the SEM vanishes and the mean must agree to 1e-12 there
    assert np.all(np.abs(tr.p32_mean - exact) <= 4.5 * tr.p32_sem + 1e-12)


def _classical_coherence(trap, temperature_K, sigma_off, t):
    """phi(t) = E[e^{i delta t}] for thermal classical positions: delta is
    2 pi sum_i q_i x_i^2 about the trap center with x_i ~ N(0, s_i^2),
    s_i = sqrt(kB T / m) / w_i, so each axis gives (1 - 4 pi i q_i s_i^2
    t)^(-1/2); times a Gaussian detuning offset."""
    from fsqubit.constants import H_PLANCK, K_B, MASS_SR88
    quad = (MASS_SR88 / (2 * H_PLANCK)
            * (trap.omega_p0_rad_s ** 2 - trap.omega_p2_rad_s ** 2))
    s2 = K_B * temperature_K / MASS_SR88 / trap.omega_p0_rad_s ** 2
    return (np.prod((1 - 4j * math.pi * np.outer(t, quad * s2)) ** -0.5,
                    axis=1)
            * np.exp(-(sigma_off * t) ** 2 / 2))


@pytest.mark.slow
def test_classical_ramsey_matches_exact_ensemble_mean():
    # the same check through the normal quantile and the classical
    # position-to-detuning map
    trap, temp, sig = mismatched_trap(), 3e-6, 2 * math.pi * 300.0
    noise = NoiseModel(detuning_offset_std=sig, prep_efficiency=0.9,
                       readout_fidelity=0.95)
    t = dynamics.ramsey_burst_grid(500e-6, F_FR)
    tr = dynamics.simulate_ramsey(trap, temp, noise, OMEGA, F_FR, t,
                                  trials=100_000, master_seed=2718,
                                  instantaneous_pulses=True,
                                  motional_model="classical")
    theta = -2 * math.pi * F_FR * t
    exact = noise.spam_scale * 0.5 * (
        1 + np.real(np.exp(1j * theta)
                    * np.conj(_classical_coherence(trap, temp, sig, t))))
    assert np.all(np.abs(tr.p32_mean - exact) <= 4.5 * tr.p32_sem + 1e-12)


class TestDeterminismContract:
    @pytest.mark.parametrize("model", ["fock", "classical"])
    @pytest.mark.parametrize("sets", [1, 2])
    def test_draws_independent_of_trial_count(self, model, sets):
        # trial k's draws depend on (seed, k) only, never on the count
        noise = NoiseModel(rabi_frac_std=0.05, phi_jitter_std_deg=0.3,
                           detuning_offset_std=2 * math.pi * 200.0)
        short, long = (dynamics._draw_trials(
            mismatched_trap(), 5e-6, noise, n, 21, model, detuning_sets=sets)
            for n in (300, 700))
        for a, b in zip(short, long):
            np.testing.assert_array_equal(a, b[..., :300])


class TestPhilox:
    """Contracts of the trial draws that hold for any generator: uniforms
    strictly inside (0, 1), and fixed draw slots."""

    def test_uniforms_strictly_inside_unit_interval(self):
        lo, hi = dynamics._to_unit(np.array([0, 2 ** 64 - 1],
                                            dtype=np.uint64))
        assert 0.0 < lo < hi < 1.0

    @pytest.mark.parametrize("model", ["fock", "classical"])
    def test_second_detuning_set_keeps_first_draws(self, model):
        noise = NoiseModel(rabi_frac_std=0.05, phi_jitter_std_deg=0.3,
                           detuning_offset_std=2 * math.pi * 200.0)
        one, two = (dynamics._draw_trials(
            mismatched_trap(), 5e-6, noise, 400, 21, model, detuning_sets=s)
            for s in (1, 2))
        np.testing.assert_array_equal(one[0][0], two[0][0])
        np.testing.assert_array_equal(one[1], two[1])
        np.testing.assert_array_equal(one[2], two[2])
        assert not np.array_equal(two[0][0], two[0][1])


def _kronecker_steps(dims=10, bits=128):
    """floor(alpha_j 2^64) for alpha_j = phi^-(j + 1), j < dims, phi the
    positive root of x^(dims + 1) = x + 1, in integers: phi is bracketed
    by (lo, lo + 1) / 2^bits, and each floor must be the same at both
    ends of the bracket."""
    lo, hi = 1 << bits, 2 << bits  # phi in (1, 2)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        # sign of p(mid / 2^bits) 2^(bits (dims + 1)), p = x^(d+1) - x - 1
        if (mid ** (dims + 1) - (mid << bits * dims)
                - (1 << bits * (dims + 1))) > 0:
            hi = mid
        else:
            lo = mid
    steps = []
    for j in range(1, dims + 1):
        scale = 1 << (64 + bits * j)
        low, high = scale // hi ** j, scale // lo ** j
        assert low == high
        steps.append(low)
    return steps


class TestKroneckerDraws:
    def test_steps_match_integer_arithmetic(self):
        want = [a | 1 for a in _kronecker_steps()]
        assert [int(a) for a in dynamics._KRONECKER_STEPS] == want

    def test_replicates_divide_the_block(self):
        assert dynamics._TRIAL_BLOCK % dynamics._REPLICATES == 0

    @pytest.mark.parametrize("slots", [6, 10])
    def test_uniform_is_the_integer_form(self, slots):
        # trial k = i R + r: ((s_rj + (i + 1) a_j) mod 2^64 >> 12, + 0.5)
        # 2^-52 in Python integers, shifts from PCG64 of SeedSequence(seed)
        seed, reps = 97, dynamics._REPLICATES
        shifts = np.random.PCG64(np.random.SeedSequence(seed)).random_raw(
            10 * reps).reshape(reps, 10)
        u = dynamics._trial_uniforms(seed, 1100, slots)
        assert u.shape == (1100, slots)
        for k in (0, 1, reps - 1, reps, 511, 512, 777, 1099):
            i, r = divmod(k, reps)
            for j in range(slots):
                word = (int(shifts[r, j]) + (i + 1)
                        * int(dynamics._KRONECKER_STEPS[j])) % 2 ** 64
                assert u[k, j] == ((word >> 12) + 0.5) * 2.0 ** -52

    @pytest.mark.parametrize("slots", [6, 10])
    def test_prefix_independent_of_trial_count(self, slots):
        # counts on both sides of multiples of R and of the 512-trial block
        reps = dynamics._REPLICATES
        counts = sorted({n + d for n in (reps, 2 * reps, 512, 1024)
                         for d in (-1, 0, 1)})
        for big in counts:
            full = dynamics._trial_uniforms(1234, big, slots)
            for k in counts:
                if k <= big:
                    np.testing.assert_array_equal(
                        full[:k], dynamics._trial_uniforms(1234, k, slots))


def test_run_plan_cached_per_grid():
    # two grids of one length get their own plans, each the one a fresh
    # build gives, and a second call on a grid returns its cached plan
    lin, nudged = _split_grid("linspace"), _split_grid("nudged")
    assert lin.size == nudged.size
    args = (dynamics._TRIAL_BLOCK, dynamics._SLAB_BYTES)
    dynamics._run_plan.cache_clear()
    plans = [dynamics._run_plan(t.tobytes(), *args) for t in (lin, nudged)]
    assert not np.array_equal(plans[0][1], plans[1][1])
    for t, (offsets, cell, cells, _) in zip((lin, nudged), plans):
        starts, want_offsets, want_cell, _ = dynamics._chunk_grid(t)
        np.testing.assert_array_equal(offsets, want_offsets)
        np.testing.assert_array_equal(cell, want_cell)
        assert cells == starts.size * offsets.size
        assert dynamics._run_plan(t.tobytes(), *args)[1] is cell
    # an engine run on the second grid reads the same with the cache warm
    # from the first grid as from a cold one
    noise = NoiseModel(rabi_frac_std=0.05,
                       detuning_offset_std=2 * math.pi * 2e3)
    runs = []
    for warm in (True, False):
        dynamics._run_plan.cache_clear()
        if warm:
            _simulate("echo", mismatched_trap(), 3e-6, noise, lin, 600, 3,
                      False, 2)
        runs.append(_simulate("echo", mismatched_trap(), 3e-6, noise, nudged,
                              600, 3, False, 2))
    assert runs[0].p32_mean.tobytes() == runs[1].p32_mean.tobytes()
    assert runs[0].p32_sem.tobytes() == runs[1].p32_sem.tobytes()


@pytest.mark.parametrize("grid", ["burst_direct", "random"])
def test_cached_run_plan_is_read_only(grid):
    t = _split_grid(grid)
    offsets, cell, _, slabs = dynamics._run_plan(
        t.tobytes(), dynamics._TRIAL_BLOCK, dynamics._SLAB_BYTES)
    arrays = [offsets, cell] + [a for part in slabs for a in part[1:]]
    assert any(a.size for part in slabs for a in part[2:])  # direct points
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0.0


@pytest.mark.parametrize("protocol,sets,instantaneous,evaluations", [
    ("ramsey", 1, False, 1), ("ramsey", 1, True, 1), ("echo", 1, False, 2),
    ("echo", 2, False, 3), ("echo", 1, True, 2), ("echo", 2, True, 2)])
def test_pulse_coefficients_match_per_pulse_oracle(
        protocol, sets, instantaneous, evaluations, monkeypatch):
    # one SU(2) evaluation per distinct (pulse area, detuning set), with
    # the bytes of one evaluation per pulse
    noise = NoiseModel(rabi_frac_std=0.05,
                       detuning_offset_std=2 * math.pi * 2e3)
    deltas, om_f, _ = dynamics._draw_trials(mismatched_trap(), 3e-6, noise,
                                            700, 71, "fock",
                                            detuning_sets=sets)
    plan = dynamics._pulse_plan({"ramsey": dynamics.RAMSEY,
                                 "echo": dynamics.ECHO}[protocol])
    args = (plan, OMEGA, F_FR, instantaneous, OMEGA * om_f, deltas)
    want_k, want = oracles.pulse_coefficients(*args)
    calls = []
    su2 = dynamics._su2_elements
    monkeypatch.setattr(dynamics, "_su2_elements",
                        lambda *a: calls.append(a) or su2(*a))
    k, harmonics = dynamics._pulse_coefficients(*args)
    assert len(calls) == evaluations
    assert k.tobytes() == want_k.tobytes()
    assert len(harmonics) == len(want)
    for got_h, want_h in zip(harmonics, want):
        for a, b in zip(got_h, want_h):
            assert a.tobytes() == b.tobytes()


@pytest.mark.slow
def test_replicate_sem_matches_seed_spread():
    # the reported SEM is the spread of the replicate means: over seeds
    # 1-16 of a shipped trace config, the seed-to-seed sd of p32_mean and
    # the median reported p32_sem agree within a factor 1.5 at the median
    # grid point (points where every trial reads alike are left out)
    root = pathlib.Path(__file__).resolve().parents[1]
    cfg = json.loads((root / "configs/ramsey_shallow_magic_8G.json")
                     .read_text())
    scenario = cli._Scenario(cfg, "ramsey")
    t = cli._time_grid_s(cfg)
    traces = [scenario.simulate(t, seed) for seed in range(1, 17)]
    spread = np.std([tr.p32_mean for tr in traces], axis=0, ddof=1)
    sem = np.median([tr.p32_sem for tr in traces], axis=0)
    live = sem > 1e-12
    assert live.sum() > t.size // 2
    ratio = float(np.median(spread[live] / sem[live]))
    assert 1 / 1.5 < ratio < 1.5


class TestTraceCSV:
    def test_roundtrip(self, tmp_path):
        tr = dynamics.simulate_rabi(magic_trap(), 0.0, NOISELESS, OMEGA,
                                    np.linspace(0, 2e-5, 40), trials=4,
                                    master_seed=1)
        path = tmp_path / "trace.csv"
        dynamics.write_trace_csv(tr, path)
        text = path.read_text().splitlines()
        assert text[0] == "t_s,p32_mean,p32_sem"
        assert len(text) == 41
        back = dynamics.read_trace_csv(path)
        np.testing.assert_allclose(back.t_s, tr.t_s, atol=1e-15)
        np.testing.assert_allclose(back.p32_mean, tr.p32_mean, rtol=1e-8)

    def test_bytes_match_csv_writer(self, tmp_path):
        tr = dynamics.simulate_echo(mismatched_trap(), 3e-6,
                                    NoiseModel(rabi_frac_std=0.1), OMEGA,
                                    F_FR, np.linspace(0, 2e-5, 40), trials=64,
                                    master_seed=3)
        # a signed zero in every column, and a one-row trace
        tiny = dynamics.TraceResult(np.array([-0.0]), np.array([-0.0]),
                                    np.array([0.0]))
        for k, trace in enumerate((tr, tiny)):
            path, ref = tmp_path / f"t{k}.csv", tmp_path / f"ref{k}.csv"
            dynamics.write_trace_csv(trace, path)
            with open(ref, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["t_s", "p32_mean", "p32_sem"])
                for t, m, s in zip(trace.t_s, trace.p32_mean, trace.p32_sem):
                    w.writerow([f"{t:.12e}", f"{m:.9e}", f"{s:.9e}"])
            assert path.read_bytes() == ref.read_bytes()
        assert path.read_bytes().endswith(
            b"\r\n-0.000000000000e+00,-0.000000000e+00,0.000000000e+00\r\n")

    def test_bytes_match_per_row_oracle(self, tmp_path):
        tr = dynamics.simulate_ramsey(mismatched_trap(), 3e-6,
                                      NoiseModel(rabi_frac_std=0.1), OMEGA,
                                      F_FR, np.linspace(0, 2e-4, 801),
                                      trials=64, master_seed=5)
        # signed zero, the smallest subnormal, a huge value and a one-row
        # trace; every cell goes through one "%" format
        edge = dynamics.TraceResult(
            np.array([-0.0, 5e-324, 1e300, -1e300, 0.1]),
            np.array([5e-324, -0.0, 1.0, 0.1, 1e-300]),
            np.array([1e300, 5e-324, -0.0, 0.0, 0.1]))
        traces = [tr, edge,
                  dynamics.TraceResult(np.array([5e-324]),
                                       np.array([-0.0]), np.array([1e300]))]
        for k, trace in enumerate(traces):
            path, ref = tmp_path / f"t{k}.csv", tmp_path / f"ref{k}.csv"
            dynamics.write_trace_csv(trace, path)
            oracles.write_trace_csv(trace, ref)
            assert path.read_bytes() == ref.read_bytes()
        assert path.read_bytes() == (b"t_s,p32_mean,p32_sem\r\n"
                                     b"4.940656458412e-324,-0.000000000e+00,"
                                     b"1.000000000e+300\r\n")


    @pytest.mark.parametrize("body", [
        "", "1e-6,0.5,0.01\r\n2e-6,0.5\r\n", "1e-6,1.5,0.01\r\n"],
        ids=["header_only", "ragged", "population_above_one"])
    def test_malformed_file_raises(self, tmp_path, body):
        path = tmp_path / "trace.csv"
        path.write_text("t_s,p32_mean,p32_sem\r\n" + body, newline="")
        with pytest.raises(ValueError):
            dynamics.read_trace_csv(path)

@pytest.mark.slow
class TestPhiNoise:
    def test_scan(self, shallow46, table):
        cfg = shallow46["config"]
        field = shallow46["field"]
        env = FieldEnvironment(cfg,
                               MagneticField(8.0, shallow46["phi_magic_deg"]))
        trap = trapmodel.characterize_trap(cfg, env, table, field=field)
        t2_guess = 2e-3
        grid = dynamics.ramsey_burst_grid(t2_guess, F_FR)
        dphis = [0.0, 0.3, 1.0]
        t2s = []
        for k, dphi in enumerate(dphis):
            tr = dynamics.simulate_ramsey(
                trap, 1.4e-6, NoiseModel(phi_jitter_std_deg=dphi), OMEGA,
                F_FR, grid, trials=500,
                master_seed=dynamics.spawn_seed(21, 10_000 + k),
                field=field, env=env, table=table)
            pts = analysis.extract_contrast(tr.t_s, tr.p32_mean, F_FR)
            t2s.append(analysis.fit_t2_envelope(
                [p.t_s for p in pts], [p.contrast for p in pts]).t2_s)
        assert all(t2s[i] >= t2s[i + 1] * 0.98 for i in range(len(t2s) - 1))
        assert t2s[0] > 3 * t2s[-1]
