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
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("shapes", [
    ((8, 5), (40,), (40,)), ((), (1,), (1,)), ((3,), (4,), (4,)),
    ((4,), (4,), (3,)), ((2, 2), (2, 2), (2, 2))],
    ids=["2-d", "0-d", "mean-length", "sem-length", "all-2-d"])
def test_trace_arrays_must_be_1d_of_one_length(shapes):
    with pytest.raises(ValueError, match="1-d"):
        dynamics.TraceResult(*map(np.zeros, shapes))


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
        out = dynamics.apply_spam(p, noise)
        np.testing.assert_array_equal(out, noise.spam_scale
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
            dynamics.apply_spam(p, NOISELESS)

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

    @pytest.mark.parametrize("t2, f_fr", [
        (math.nan, F_FR), (200e-6, math.nan), (math.inf, F_FR),
        (200e-6, math.inf)])
    def test_non_finite_scalars_fail(self, t2, f_fr):
        with pytest.raises(ValueError, match="finite"):
            dynamics.ramsey_burst_grid(t2, f_fr)

    @pytest.mark.parametrize("shape", [
        dict(window_periods=math.nan), dict(window_periods=math.inf),
        dict(window_periods=0.5), dict(span_factor=math.nan),
        dict(span_factor=math.inf), dict(span_factor=0.0)],
        ids=["periods-nan", "periods-inf", "half-period", "span-nan",
             "span-inf", "span-zero"])
    def test_out_of_range_shape_fails(self, shape):
        with pytest.raises(ValueError, match="window_periods"):
            dynamics.ramsey_burst_grid(200e-6, F_FR, **shape)


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
        # one point per burst 7 ulp off its run (more than 4 ulp, inside
        # its segment): direct points in a cell table with unused cells
        t = dynamics.ramsey_burst_grid(80e-6, F_FR)
        near = np.arange(5, t.size, 28)
        t[near] += 7 * np.spacing(t[near])
        assert set(near) <= set(_own_rows(t).tolist())
        return t
    return np.sort(np.random.default_rng(4).uniform(0.0, 200e-6, 200))


def _own_rows(t):
    """The points of ``t`` that read a row of its run plan no other point
    reads: the directly evaluated points, and every point of a grid
    without pieces."""
    _, offsets, cell = dynamics._run_plan(t.tobytes())
    row = cell // offsets.size
    return np.flatnonzero(np.bincount(row)[row] == 1)


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
    assert (dynamics._run_plan(t.tobytes())[1].size == 1) == (
        grid == "random")
    trap, temp, trials, seed = mismatched_trap(), 3e-6, 2, 37
    noise = NoiseModel(rabi_frac_std=0.05,
                       detuning_offset_std=2 * math.pi * 2e3)
    deltas, om_f, _ = dynamics._draw_trials(trap, temp, noise, trials, seed,
                                            "fock", detuning_sets=sets)
    want = _scalar_mean(protocol, deltas, om_f, t, instantaneous)
    got = _simulate(protocol, trap, temp, noise, t, trials, seed,
                    instantaneous, sets)
    np.testing.assert_allclose(got.p32_mean, want, rtol=0, atol=1e-12)


def _replicate_oracle(protocol, trap, temp, noise, t, trials, seed, sets):
    """Mean and SEM from every trial's P(3P2) in every cell of the grid's
    run plan, by the engine's coefficients and angle addition one trial
    at a time, summed per replicate (trial k in replicate k % 32)."""
    deltas, om_f, _ = dynamics._draw_trials(trap, temp, noise, trials, seed,
                                            "fock", detuning_sets=sets)
    if protocol == "rabi":
        k, harmonics = dynamics._drive_coefficients(OMEGA * om_f, deltas)
    else:
        segments = {"ramsey": dynamics.RAMSEY,
                    "echo": dynamics.ECHO}[protocol]
        k, harmonics = dynamics._pulse_coefficients(
            segments, OMEGA, F_FR, False, OMEGA * om_f, deltas)
    starts, offsets, cell = dynamics._run_plan(t.tobytes())
    p = k[:, None, None]
    for c, w in harmonics:
        # (trials, C, 1) start angles, (trials, 1, R) offset angles
        a = starts[:, None] * w[:, None, None]
        b = offsets * w[:, None, None]
        head = c[:, None, None] * (np.cos(a) + 1j * np.sin(a))
        p = p + head.real * np.cos(b) - head.imag * np.sin(b)
    p = p.reshape(trials, -1)[:, cell]
    reps = min(trials, dynamics._REPLICATES)
    replicate = np.arange(trials) % dynamics._REPLICATES
    sums = np.zeros((reps, t.size))
    np.add.at(sums, replicate, p)
    means = noise.spam_scale * sums / np.bincount(replicate)[:, None]
    sem = (means.std(axis=0, ddof=1) / math.sqrt(reps) if reps > 1
           else np.zeros(t.size))
    return noise.spam_scale * p.mean(axis=0), sem


@pytest.mark.parametrize("grid", ["linspace", "burst", "burst_direct",
                                  "random"])
@pytest.mark.parametrize("protocol,sets", [
    ("rabi", 1), ("ramsey", 1), ("echo", 1), ("echo", 2)])
def test_partial_blocks_match_per_trial_oracle(protocol, sets, grid):
    # trial counts below, at and past a replicate and past whole blocks:
    # the zero-amplitude padding and the last, partial block add nothing
    t = _split_grid(grid)
    noise = NoiseModel(rabi_frac_std=0.05,
                       detuning_offset_std=2 * math.pi * 2e3,
                       prep_efficiency=0.9, readout_fidelity=0.95)
    for trials in (1, 4, 31, 33, 545, 1543):
        want_mean, want_sem = _replicate_oracle(
            protocol, mismatched_trap(), 3e-6, noise, t, trials, 19, sets)
        got = _simulate(protocol, mismatched_trap(), 3e-6, noise, t, trials,
                        19, False, sets)
        np.testing.assert_allclose(got.p32_mean, want_mean, rtol=0,
                                   atol=1e-13, err_msg=f"{trials} trials")
        np.testing.assert_allclose(got.p32_sem, want_sem, rtol=0,
                                   atol=1e-13, err_msg=f"{trials} trials")


@pytest.mark.parametrize("protocol", ["rabi", "ramsey", "echo"])
def test_engine_on_empty_and_one_point_grids(protocol):
    # no cell at all, and one point: a single one-cell run at offset 0
    noise = NoiseModel(rabi_frac_std=0.05,
                       detuning_offset_std=2 * math.pi * 2e3)
    empty = _simulate(protocol, mismatched_trap(), 3e-6, noise, np.zeros(0),
                      7, 3, False, 1)
    assert empty.p32_mean.shape == empty.p32_sem.shape == (0,)
    t = np.array([3e-6])
    got = _simulate(protocol, mismatched_trap(), 3e-6, noise, t, 7, 3, False,
                    1)
    want_mean, want_sem = _replicate_oracle(protocol, mismatched_trap(),
                                            3e-6, noise, t, 7, 3, 1)
    np.testing.assert_allclose(got.p32_mean, want_mean, rtol=0, atol=1e-13)
    np.testing.assert_allclose(got.p32_sem, want_sem, rtol=0, atol=1e-13)


def _non_unitary(monkeypatch, protocol):
    # a pulse element 1e-9 off unitary; the drive's analogue is an
    # Omega_eff below Omega, so K = Omega^2 / (2 Omega_eff^2) > 1/2
    if protocol == "rabi":
        hypot = np.hypot
        monkeypatch.setattr(np, "hypot",
                            lambda a, b: hypot(a, b) * (1 - 1e-9))
        return
    su2 = dynamics._su2_elements

    def scaled(*args):
        u00, coupling, u11 = su2(*args)
        return u00, coupling * (1 + 1e-9), u11

    monkeypatch.setattr(dynamics, "_su2_elements", scaled)


def _nan_coefficient(monkeypatch, protocol):
    # one trial's coefficient of the first harmonic is NaN
    name = ("_drive_coefficients" if protocol == "rabi"
            else "_pulse_coefficients")
    coefficients = getattr(dynamics, name)

    def with_nan(*args):
        k, harmonics = coefficients(*args)
        c, w = harmonics[0]
        c = c.copy()
        c[3] = math.nan
        return k, [(c, w), *harmonics[1:]]

    monkeypatch.setattr(dynamics, name, with_nan)


def _mean_past_one(monkeypatch, protocol):
    # SPAM sees one replicate's means raised by 1
    spam = dynamics.apply_spam

    def pushed(p, noise):
        p = p.copy()
        p[-1] += 1.0
        return spam(p, noise)

    monkeypatch.setattr(dynamics, "apply_spam", pushed)


@pytest.mark.parametrize("protocol", ["ramsey", "echo", "rabi"])
@pytest.mark.parametrize("corrupt", [_non_unitary, _nan_coefficient,
                                     _mean_past_one],
                         ids=["non_unitary", "nan", "past_one"])
def test_range_guard_rejects_corrupt_trials(protocol, corrupt, monkeypatch):
    # the certificates on the coefficients and the check on the replicate
    # means each raise the range error before a trace is formed
    corrupt(monkeypatch, protocol)
    t = np.linspace(0.0, 200e-6, 801)
    with pytest.raises(ValueError, match="must lie in"):
        _simulate(protocol, mismatched_trap(), 3e-6, NOISELESS, t,
                  dynamics._TRIAL_BLOCK + 40, 59, False, 1)


def _straddled_grid():
    """The 801-point linspace with a directly evaluated point on each side
    of every cut of its run table into 2, 3, 5 and 7 equal parts of whole
    runs: direct points, each a one-cell row of its own, among the pieces."""
    t = np.linspace(0.0, 200e-6, 801)
    # one segment of 28 runs of R = isqrt(800) + 1 = 29 points
    r = math.isqrt(t.size - 1) + 1
    bounds = {r * (-(-t.size // r) * i // n)
              for n in (2, 3, 5, 7) for i in range(1, n)}
    near = sorted({b + side for b in bounds for side in (-1, 1)})
    # 7 ulp: off the point's cell (> 4 ulp), inside its segment (< 8 ulp
    # of the largest time)
    t[near] += 7 * np.spacing(t[near])
    assert set(near) <= set(_own_rows(t).tolist())
    return t


_PART_GRIDS = ["linspace", "nudged", "burst", "random", "straddled",
               "burst_direct"]
_PART_PROTOCOLS = ["echo", "ramsey", "rabi"]


def _part_count_runs():
    """Mean and SEM, stacked, of every case of the part-count test, keyed
    "protocol-grid": five blocks, the last partial, two detuning sets."""
    noise = NoiseModel(rabi_frac_std=0.05,
                       detuning_offset_std=2 * math.pi * 2e3,
                       prep_efficiency=0.9, readout_fidelity=0.95)
    runs = {}
    for grid in _PART_GRIDS:
        t = _straddled_grid() if grid == "straddled" else _split_grid(grid)
        for protocol in _PART_PROTOCOLS:
            got = _simulate(protocol, mismatched_trap(), 3e-6, noise, t,
                            4 * dynamics._TRIAL_BLOCK + 3, 53, False, 2)
            runs[f"{protocol}-{grid}"] = np.stack([got.p32_mean,
                                                   got.p32_sem])
    return runs


@pytest.fixture(scope="module")
def blas_thread_runs(tmp_path_factory):
    """``_part_count_runs`` from child processes whose BLAS may start 1, 2,
    3 and 5 threads for the engine's products, keyed by that count.
    OpenBLAS reads the count when numpy loads and takes at most the CPUs
    the process may run on, so a host of n CPUs compares min(n, count)."""
    root = pathlib.Path(__file__).resolve().parents[1]
    code = ("import sys, numpy as np, test_dynamics\n"
            "np.savez(sys.argv[1], **test_dynamics._part_count_runs())")
    runs = {}
    for count in (1, 2, 3, 5):
        path = tmp_path_factory.mktemp("blas") / f"{count}.npz"
        done = subprocess.run(
            [sys.executable, "-c", code, str(path)],
            env={**os.environ,
                 "PYTHONPATH": os.pathsep.join([str(root / "src"),
                                                str(root / "tests")]),
                 "OPENBLAS_NUM_THREADS": str(count),
                 "OMP_NUM_THREADS": str(count)},
            capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        with np.load(path) as saved:
            runs[count] = dict(saved)
    return runs


@pytest.mark.parametrize("grid", _PART_GRIDS)
@pytest.mark.parametrize("protocol", _PART_PROTOCOLS)
def test_part_count_changes_no_bit(grid, protocol, blas_thread_runs):
    # the engine's products split over 1, 2, 3 and 5 BLAS threads, on
    # split and unsplit grids and with direct points among the runs; a
    # BLAS that split a cell's sum over the trials would move bits here
    key = f"{protocol}-{grid}"
    for count in (2, 3, 5):
        np.testing.assert_array_equal(blas_thread_runs[count][key],
                                      blas_thread_runs[1][key],
                                      err_msg=f"{count} BLAS threads")


@pytest.mark.parametrize("case", ["echo", "rabi", "ramsey_unsplit",
                                  "ramsey_burst"])
def test_echo_working_set_below_two_blocks(case):
    # one block buffer and cache-sized tiles for every protocol and grid:
    # no (block, T) temporaries
    t = np.linspace(0.0, 200e-6, 801)
    if case == "ramsey_unsplit":
        t = np.sort(np.random.default_rng(4).uniform(0.0, 200e-6, t.size))
        assert dynamics._run_plan(t.tobytes())[1].size == 1
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
    starts, offsets, cell = dynamics._run_plan(t.tobytes())
    assert offsets.size % 29 == 0
    run, m = np.divmod(cell, offsets.size)
    pred = starts[run] + offsets[m]
    assert np.all(np.abs(t - pred) <= 4 * np.spacing(t))
    # the nudged point, a segment of its own, heads a row of its own, and
    # the next point heads the next segment's piece
    assert m[400] == 0 and m[401] == 0
    np.testing.assert_array_equal(_own_rows(t), [400])
    # about 30 ulp off its cell, inside its segment: evaluated directly
    t[100] *= 1 + 20 * np.finfo(float).eps
    np.testing.assert_array_equal(_own_rows(t), [100, 400])
    starts, offsets, cell = dynamics._run_plan(t.tobytes())
    # it reads the offset-0 cell of a row of its own
    run, m = np.divmod(cell[100], offsets.size)
    assert m == 0 and starts[run] == t[100]
    # two trials per replicate: the products over the runs match a direct
    # evaluation at every point
    rng = np.random.default_rng(5)
    shape = (dynamics._REPLICATES, 2)
    amp = rng.uniform(0.2, 0.5, shape)
    w = 2 * math.pi * F_FR + rng.normal(0.0, 1e4, shape)
    phi = rng.uniform(-math.pi, math.pi, shape)
    coef = amp * np.exp(1j * phi)
    got = dynamics._block_products(starts, offsets, coef, w)
    want = (amp[:, :, None]
            * np.cos(w[:, :, None] * t + phi[:, :, None])).sum(axis=1)
    np.testing.assert_allclose(
        got.reshape(dynamics._REPLICATES, -1)[:, cell], want,
        rtol=0, atol=1e-12)


class _CountingNumpy:
    """numpy for the engine, counting the elements it passes to cos and
    sin."""

    def __init__(self):
        self.elements = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def cos(self, x, *args, **kwargs):
        self.elements += np.size(x)
        return np.cos(x, *args, **kwargs)

    def sin(self, x, *args, **kwargs):
        self.elements += np.size(x)
        return np.sin(x, *args, **kwargs)


def test_trig_per_trial_does_not_grow_with_the_grid(monkeypatch):
    # Rabi (one harmonic, no pulse elements): one cos/sin pair per trial
    # for the step and one per run-start head, so two on the 801- and the
    # 3201-point linspace and on the 28-point scan window alike, and on
    # the shipped t2 burst grid one per burst plus the step
    counting = _CountingNumpy()
    monkeypatch.setattr(dynamics, "np", counting)
    noise = NoiseModel(rabi_frac_std=0.05,
                       detuning_offset_std=2 * math.pi * 2e3)
    trials = 1024
    grids = {"linspace_801": (np.linspace(0.0, 200e-6, 801), 2),
             "linspace_3201": (np.linspace(0.0, 200e-6, 3201), 2),
             "scan_window": (dict(_shipped_grids())["magic_scan_8G"], 2),
             "t2_burst": (dynamics.ramsey_burst_grid(1236e-6, F_FR,
                                                     span_factor=1.5), 10)}
    for name, (t, pairs) in grids.items():
        counting.elements = 0
        dynamics.simulate_rabi(mismatched_trap(), 3e-6, noise, OMEGA, t,
                               trials, 5)
        assert counting.elements == 2 * pairs * trials, name


def test_block_products_within_stated_bound_on_long_phases():
    # the longest shipped t2 burst grid (t2_shallow_phi20_8G: fringe phases
    # to 3e4 rad) and the 28-point scan window at t_R = 700 us (one head
    # of 5 columns, phases to 5.7e3 rad) against a direct sum over trials,
    # within the bound _block_products states: 2 (|w| max(t) + R K) eps
    # per unit amplitude
    grids = {"t2_burst": (dynamics.ramsey_burst_grid(1500e-6, F_FR,
                                                     span_factor=2.5), 1e4),
             "scan_window": (dict(_shipped_grids())["magic_scan_8G"], 5e3)}
    for seed, (name, (t, phase)) in enumerate(grids.items(), 11):
        starts, offsets, _ = dynamics._run_plan(t.tobytes())
        r, k = dynamics._table_split(starts.size, offsets.size)[:2]
        assert k > 1, name
        rng = np.random.default_rng(seed)
        shape = (dynamics._REPLICATES, 16)
        amp = rng.uniform(0.0, 0.5, shape)
        w = -2 * math.pi * F_FR + rng.normal(0.0, 2e4, shape)
        phi = rng.uniform(-math.pi, math.pi, shape)
        coef = amp * np.exp(1j * phi)
        got = dynamics._block_products(starts, offsets, coef, w)
        cells = starts[:, None] + offsets
        want = (amp[..., None, None]
                * np.cos(w[..., None, None] * cells
                         + phi[..., None, None])).sum(axis=1)
        bound = (2 * (np.abs(w).max() * cells.max() + r * k) * 2.0 ** -52
                 * amp.sum(axis=1)[:, None, None])
        assert np.abs(w).max() * cells.max() > phase, name
        assert np.all(np.abs(got - want) <= bound), name


def test_block_products_reorder_heads_and_powers_within_bound():
    # a grid of 9 bursts of 100 points, whose plan has C > 1 heads of
    # K >= 3 columns, so that the (K, C) cells of the matrix product are
    # reordered to (C, K): every cell against a direct sum over trials,
    # within the stated 2 (|w| max(t) + R K) eps per unit amplitude
    t = dynamics.ramsey_burst_grid(1500e-6, F_FR, points_per_window=100,
                                   span_factor=2.5)
    starts, offsets, _ = dynamics._run_plan(t.tobytes())
    r, k = dynamics._table_split(starts.size, offsets.size)[:2]
    assert starts.size > 1 and k >= 3
    rng = np.random.default_rng(12)
    shape = (dynamics._REPLICATES, 16)
    amp = rng.uniform(0.0, 0.5, shape)
    w = -2 * math.pi * F_FR + rng.normal(0.0, 2e4, shape)
    phi = rng.uniform(-math.pi, math.pi, shape)
    coef = amp * np.exp(1j * phi)
    got = dynamics._block_products(starts, offsets, coef, w)
    cells = starts[:, None] + offsets
    want = (amp[..., None, None] * np.cos(w[..., None, None] * cells
                                          + phi[..., None, None])).sum(axis=1)
    bound = (2 * (np.abs(w).max() * cells.max() + r * k) * 2.0 ** -52
             * amp.sum(axis=1)[:, None, None])
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= bound)


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


def test_finite_pulse_ramsey_matches_fock_lattice_mean():
    # finite pulses, so each Fock number's detuning acts during the pulses
    # too; only x is mismatched, so the exact mean is a sum over one ladder
    om = 2 * math.pi * np.array([25e3, 26e3, 4.3e3])
    trap = trapmodel.TrapCharacterization(
        depth_p0_hz=4.6e5, depth_p2_hz=4.5e5, omega_p0_rad_s=om,
        omega_p2_rad_s=om * [0.99, 1.0, 1.0], du_center_hz=300.0)
    t = dynamics.ramsey_burst_grid(500e-6, F_FR)
    tr = dynamics.simulate_ramsey(trap, 3e-6, NOISELESS, OMEGA, F_FR, t,
                                  trials=20_000, master_seed=2718)
    exact = oracles.fock_lattice_mean(
        dynamics.RAMSEY, OMEGA, F_FR, trap, 3e-6, t)
    assert t.size == 252
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
    dynamics._run_plan.cache_clear()
    plans = [dynamics._run_plan(t.tobytes()) for t in (lin, nudged)]
    assert not np.array_equal(plans[0][2], plans[1][2])
    for t, plan in zip((lin, nudged), plans):
        starts, offsets, cell = plan
        # offsets of one step, and every point reads its own time to the
        # 4-ulp rule
        np.testing.assert_array_equal(
            offsets, np.arange(offsets.size) * offsets[1])
        head, j = np.divmod(cell, offsets.size)
        assert np.all(np.abs(t - (starts[head] + offsets[j]))
                      <= 4 * np.spacing(t))
        assert dynamics._run_plan(t.tobytes())[2] is plan[2]
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


@st.composite
def _grids(draw):
    """Time grids of every kind a run plan meets: linspace, fringe bursts,
    a linspace with points nudged off it or jittered by whole ulps, a
    cumulative sum of one step and sorted random times."""
    kind = draw(st.sampled_from(["linspace", "burst", "nudged", "jitter",
                                 "cumsum", "random"]))
    size = draw(st.integers(0, 1200))
    span = draw(st.floats(1e-7, 1e-2))
    start = draw(st.sampled_from([0.0, 0.37 * span, 3.0 * span]))
    t = np.linspace(start, start + span, size)
    if kind == "burst":
        t = dynamics.ramsey_burst_grid(
            span, draw(st.floats(1e4, 1e7)),
            n_windows=draw(st.integers(2, 15)),
            points_per_window=draw(st.integers(6, 60)),
            span_factor=draw(st.floats(1.0, 3.0)))
    elif kind == "nudged" and size:
        for i in draw(st.lists(st.integers(0, size - 1), max_size=3)):
            t[i] += draw(st.sampled_from([1e-3, 1e-9, 5e-14])) * span / size
    elif kind == "jitter":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        t += rng.integers(-6, 7, size) * np.spacing(t)
    elif kind == "cumsum":
        t = np.cumsum(np.full(size, span / max(size, 1)))
    elif kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        t = np.sort(start + rng.uniform(0.0, span, size))
    return t


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_grids())
@example(np.cumsum(np.full(117, 8.921777566014363e-08)))
def test_every_point_reads_a_cell_within_4_ulp(t):
    # the cell-read contract of the run plan: offsets of one step, every
    # point within 4 ulp of its cell, and exact at the offset-0 cell that
    # heads its row
    starts, offsets, cell = dynamics._run_plan(t.tobytes())
    want = np.arange(offsets.size) * offsets[1] if offsets.size > 1 else [0.0]
    np.testing.assert_array_equal(offsets, want)
    row, m = np.divmod(cell, offsets.size)
    read = starts[row] + offsets[m]
    assert np.all(np.abs(t - read) <= 4 * np.spacing(np.abs(t)))
    np.testing.assert_array_equal(read[m == 0], t[m == 0])
    for a in (starts, offsets, cell):
        assert not a.flags.writeable


def _shipped_grids():
    """(config name, time grid) of each shipped config that simulates: the
    grid its command hands the engine."""
    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    for path in sorted(root.glob("*.json")):
        cfg = json.loads(path.read_text())
        if path.stem.startswith(("rabi", "ramsey")):
            yield path.stem, cli._time_grid_s(cfg)
        elif path.stem.startswith(("t2", "phinoise")):
            f_fr = float(cfg["drive"]["fringe_MHz"]) * 1e6
            yield path.stem, cli._burst_grid_s(cfg, f_fr)[0]
        elif path.stem.startswith("magic_scan"):
            f_fr = float(cfg["drive"]["fringe_MHz"]) * 1e6
            yield path.stem, cli._scan_window_s(cfg, f_fr)[0]


_SHIPPED_PLANS = {
    "ramsey_shallow_magic_8G": (1, 812, 29, 28),
    "ramsey_deep_phi0_3G": (1, 484, 22, 22),
    "rabi_deep_phi0_3G": (1, 121, 11, 11),
    "magic_scan_3G": (1, 30, 6, 5), "magic_scan_8G": (1, 30, 6, 5),
    "t2_deep_phi0_3G": (6, 64, 16, 4),
    **dict.fromkeys(["t2_shallow_magic_3G", "t2_shallow_magic_8G",
                     "t2_shallow_phi0_3G", "t2_shallow_phi20_8G",
                     "t2_shallow_phi9p5_8G", "phinoise_magic_8G"],
                    (9, 32, 16, 2))}


def test_shipped_grids_keep_their_run_plans():
    # (heads C, offsets J, rows R, columns per head K) of every shipped
    # grid: the plans the artifact bytes were made with, on any numpy or
    # BLAS
    got = {}
    for name, t in _shipped_grids():
        starts, offsets, _ = dynamics._run_plan(t.tobytes())
        got[name] = (starts.size, offsets.size,
                     *dynamics._table_split(starts.size, offsets.size)[:2])
    assert got == _SHIPPED_PLANS


@pytest.mark.parametrize("grid", ["2-d", "0-d", "nan", "inf"])
@pytest.mark.parametrize("protocol", ["rabi", "ramsey", "echo"])
def test_engine_rejects_bad_time_grid_before_drawing(protocol, grid,
                                                     monkeypatch):
    t = np.linspace(0.0, 200e-6, 40)
    if grid == "2-d":
        t = t.reshape(8, 5)
    elif grid == "0-d":
        t = np.array(3e-6)
    else:
        t[7] = math.nan if grid == "nan" else math.inf

    def no_draws(*args, **kwargs):
        raise AssertionError("trials drawn for a bad time grid")

    monkeypatch.setattr(dynamics, "_draw_trials", no_draws)
    with pytest.raises(ValueError, match="time grid"):
        _simulate(protocol, mismatched_trap(), 3e-6, NOISELESS, t, 64, 5,
                  False, 1)


@pytest.mark.parametrize("omega, f_fr, temp", [
    (0.0, F_FR, 3e-6), (-OMEGA, F_FR, 3e-6), (math.nan, F_FR, 3e-6),
    (math.inf, F_FR, 3e-6), (OMEGA, math.nan, 3e-6), (OMEGA, F_FR, math.nan),
    (OMEGA, F_FR, math.inf), (OMEGA, F_FR, -1e-6)],
    ids=["omega-zero", "omega-negative", "omega-nan", "omega-inf",
         "fringe-nan", "temperature-nan", "temperature-inf",
         "temperature-negative"])
def test_ramsey_rejects_bad_scalars_before_drawing(omega, f_fr, temp,
                                                   monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("trials drawn for a bad scalar")

    monkeypatch.setattr(dynamics, "_draw_trials", no_draws)
    with pytest.raises(ValueError, match="finite"):
        dynamics.simulate_ramsey(mismatched_trap(), temp, NOISELESS, omega,
                                 f_fr, np.linspace(0.0, 20e-6, 40),
                                 trials=64, master_seed=5)


@pytest.mark.parametrize("grid", ["burst_direct", "random"])
def test_cached_run_plan_is_read_only(grid):
    t = _split_grid(grid)
    starts, offsets, cell = dynamics._run_plan(t.tobytes())
    # the direct points, every point of a grid without pieces, read the
    # offset-0 cells of rows of their own
    direct = _own_rows(t)
    assert direct.size
    run, m = np.divmod(cell[direct], offsets.size)
    assert not m.any()
    np.testing.assert_array_equal(starts[run], t[direct])
    for a in (starts, offsets, cell):
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
    segments = {"ramsey": dynamics.RAMSEY, "echo": dynamics.ECHO}[protocol]
    args = (segments, OMEGA, F_FR, instantaneous, OMEGA * om_f, deltas)
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


ECHO_HARMONICS = [(0, 1, -1), (1, 0, 0), (1, -1, 1), (1, 1, -1)]


@pytest.mark.parametrize("protocol,sets,combinations", [
    ("ramsey", 1, [(1, -1)]), ("echo", 1, ECHO_HARMONICS),
    ("echo", 2, ECHO_HARMONICS)])
def test_pulse_harmonics_keep_their_order(protocol, sets, combinations):
    # the harmonics' order sets the engine's block layout, and so a
    # trace's bytes: harmonic h has the slope w = d_h . (free-segment
    # slopes, fringe slope -2 pi f_fr), d_h in this order
    noise = NoiseModel(detuning_offset_std=2 * math.pi * 2e3)
    deltas, om_f, _ = dynamics._draw_trials(mismatched_trap(), 3e-6, noise,
                                            700, 71, "fock",
                                            detuning_sets=sets)
    segments = {"ramsey": dynamics.RAMSEY, "echo": dynamics.ECHO}[protocol]
    _, harmonics = dynamics._pulse_coefficients(
        segments, OMEGA, F_FR, False, OMEGA * om_f, deltas)
    slopes = [deltas[min(dset, sets - 1)] * size
              for kind, size, _, dset in segments if kind == "free"]
    slopes.append(np.full(700, -2 * math.pi * F_FR))
    assert len(harmonics) == len(combinations)
    for (_, w), d in zip(harmonics, combinations):
        np.testing.assert_allclose(w, np.dot(d, slopes), rtol=0, atol=1e-6)


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
