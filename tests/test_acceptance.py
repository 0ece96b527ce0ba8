"""Acceptance gate: eleven numbered end-to-end criteria.

Each test prints one ``ACCEPTANCE nn <name>: PASS|FAIL`` line so the
verdict reads straight off the log. Tolerances are pinned in this file.
Shared fixtures (focal-field builds) are session-scoped; criterion timers
cover the criterion's own computation.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from fsqubit import (FieldEnvironment, MagneticField, NoiseModel,
                     TweezerConfig, analysis, atomstark, dynamics,
                     focalfield, trapmodel)
from fsqubit.constants import MU_B_HZ_PER_G, intensity_to_e0sq

OMEGA = 2 * math.pi * 84e3
F_FR = 1.3e6
NOISELESS = NoiseModel()


def _verdict(num: int, name: str, checks: list[tuple[bool, str]]) -> None:
    ok = all(c for c, _ in checks)
    fails = "; ".join(m for c, m in checks if not c)
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if fails:
        line += f" [{fails}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def magic_env(shallow46, table):
    env = FieldEnvironment(shallow46["config"],
                           MagneticField(8.0, shallow46["phi_magic_deg"]))
    trap = trapmodel.characterize_trap(shallow46["config"], env, table,
                                       field=shallow46["field"])
    return {"env": env, "trap": trap}


@pytest.fixture(scope="module")
def magic_map(shallow46, table, magic_env):
    t0 = time.perf_counter()
    m = focalfield.lightshift_map(shallow46["field"], magic_env["env"],
                                  table, n=101)
    return {"map": m, "seconds": time.perf_counter() - t0}


def _fit_t2(trap, temperature_K, t2_prior_s, trials, seed,
            noise=NOISELESS) -> float:
    # sampling protocol: reach 1.5x the best prior estimate, covering the
    # Gaussian decay through its information peak at sqrt(2) T2 without
    # averaging in the post-decay shoulder, which the envelope model does
    # not describe
    grid = dynamics.ramsey_burst_grid(t2_prior_s, F_FR, span_factor=1.5)
    trace = dynamics.simulate_ramsey(trap, temperature_K, noise, OMEGA,
                                     F_FR, grid, trials, seed)
    points = analysis.extract_contrast(trace.t_s, trace.p32_mean, F_FR)
    fit = analysis.fit_t2_envelope([p.t_s for p in points],
                                   [p.contrast for p in points])
    return fit.t2_s


def test_criterion_01_stark_oracle(table):
    t0 = time.perf_counter()
    alpha_s, alpha_t = table.alpha("3P2", 539.91)
    zeeman_hz = MU_B_HZ_PER_G * 1.5 * 1000.0
    e0sq_hz = 5e4
    worst = 0.0
    for theta in np.linspace(0.0, 180.0, 13):
        u = np.array([math.sin(math.radians(theta)), 0.0,
                      math.cos(math.radians(theta))], dtype=complex)
        h = atomstark.j2_hamiltonian(alpha_s, alpha_t, u,
                                     e0sq_hz / atomstark.E0SQ_AU_HZ,
                                     zeeman_hz)
        got = atomstark.m0_eigenvalue(h)
        want = atomstark.m0_light_shift(
            alpha_s, alpha_t, 2, math.cos(math.radians(theta)) ** 2,
            e0sq_hz / atomstark.E0SQ_AU_HZ)
        worst = max(worst, abs(got - want) / abs(want))
    dt = time.perf_counter() - t0
    print(f"stark-oracle worst rel err {worst!r}")
    _verdict(1, "stark-oracle", [
        (worst < 1e-6, f"worst rel err {worst:.2e} >= 1e-6"),
        (dt < 1.0, f"runtime {dt:.2f} s >= 1 s"),
    ])


def test_criterion_02_magic_anchors(table):
    t0 = time.perf_counter()
    deep = TweezerConfig(wavelength_nm=539.91, power_W=1.45e-3, na=0.5,
                         target_waist_nm=564.0)
    env0 = FieldEnvironment(deep, MagneticField(8.0, 0.0))
    lam = atomstark.find_magic_wavelength(env0, table)
    # x polarization at the Gaussian focal center; phi = 0 puts it on the
    # field axis
    w0 = deep.target_waist_nm * 1e-9
    e0sq = intensity_to_e0sq(2.0 * deep.power_W / (math.pi * w0 * w0))
    du = float(atomstark.differential_shift_from_projection(
        table, deep.wavelength_nm, 1.0, e0sq))
    dt = time.perf_counter() - t0
    _verdict(2, "magic-anchors", [
        (lam is not None and abs(lam - 535.9) <= 0.5,
         f"magic wavelength {lam} nm not within 535.9 +- 0.5"),
        (-0.3e6 <= du <= -0.1e6,
         f"center shift {du / 1e6:.3f} MHz outside -0.2 MHz +- 50%"),
        (dt < 5.0, f"runtime {dt:.2f} s >= 5 s"),
    ])


def test_criterion_03_focal_suite(shallow46, table, magic_env, magic_map):
    t0 = time.perf_counter()
    field = shallow46["field"]
    waist_nm = field.waist_m * 1e9
    e_axis = field.field_at(0.0, 0.0, 0.0)
    long_frac = abs(e_axis[2]) / math.hypot(abs(e_axis[0]),
                                            abs(e_axis[1]))
    m = magic_map["map"]
    xx, yy = np.meshgrid(m.x_m, m.y_m)
    inside = np.hypot(xx, yy) <= field.waist_m
    peak = float(np.max(np.abs(m.du_hz[inside])))
    # The quadratic rise lives on the focal polarization axis (x here),
    # where the longitudinal lobes sit; the orthogonal focal-plane line
    # stays exactly magic. In the reference experiment's frame the rise
    # axis is the one perpendicular to the input-beam polarization.
    iy0 = np.argmin(np.abs(m.y_m))
    ix0 = np.argmin(np.abs(m.x_m))
    sel = np.abs(m.x_m) <= field.waist_m / 2
    v = m.x_m[sel]
    line = m.du_hz[iy0, :][sel]
    a = float(np.sum(v ** 2 * line) / np.sum(v ** 4))
    resid = line - a * v ** 2
    # through-origin model (magic center is zero by construction): R^2
    # uses the no-constant, uncentered convention
    r2 = 1.0 - float(resid @ resid) / float(line @ line)
    selp = np.abs(m.y_m) <= field.waist_m / 2
    flat = float(np.max(np.abs(m.du_hz[selp, ix0])))
    dt = (time.perf_counter() - t0 + magic_map["seconds"]
          + shallow46["build_seconds"])
    _verdict(3, "focal-suite", [
        (abs(waist_nm - 564.0) <= 1.0,
         f"waist {waist_nm:.2f} nm not within 564 +- 1"),
        (long_frac < 1e-10,
         f"on-axis longitudinal fraction {long_frac:.2e} >= 1e-10"),
        (600.0 <= peak <= 3400.0,
         f"in-waist peak {peak:.0f} Hz outside [600, 3400]"),
        (r2 > 0.99,
         f"polarization-axis quadratic R^2 {r2:.4f} <= 0.99"),
        (flat < 0.1,
         f"orthogonal line is not magic: |dU| up to {flat:.2e} Hz"),
        (dt < 120.0, f"runtime {dt:.1f} s >= 120 s"),
    ])


def test_criterion_04_rabi_jitter(magic_env):
    t0 = time.perf_counter()
    t = np.linspace(0.0, 60e-6, 121)
    noise = NoiseModel(rabi_frac_std=0.10)
    trace = dynamics.simulate_rabi(magic_env["trap"], 0.0, noise, OMEGA,
                                   t, trials=2000, master_seed=41)
    want = 0.5 * (1 - np.cos(OMEGA * t)
                  * np.exp(-(0.1 * OMEGA * t) ** 2 / 2))
    band = 3 * np.maximum(trace.p32_sem, 1e-12) + 5e-3
    worst = float(np.max(np.abs(trace.p32_mean - want) - band))
    dt = time.perf_counter() - t0
    _verdict(4, "rabi-jitter-envelope", [
        (worst <= 0.0,
         f"trace leaves the 3-sigma band by up to {worst:.3e}"),
        (dt < 30.0, f"runtime {dt:.1f} s >= 30 s"),
    ])


def test_criterion_05_ramsey_exactness(magic_env):
    t_r = np.linspace(0.0, 6.0 / F_FR, 160)
    trace = dynamics.simulate_ramsey(magic_env["trap"], 0.0, NOISELESS,
                                     OMEGA, F_FR, t_r, trials=4,
                                     master_seed=42)
    fit = analysis.fit_sinusoid(trace.t_s, trace.p32_mean)
    rel = abs(fit.freq_hz - F_FR) / F_FR
    pi_defect = abs(trace.p32_mean[0] - 1.0)
    _verdict(5, "ramsey-exactness", [
        (rel < 1e-4, f"fringe refit off by {rel:.2e} (>= 0.01%)"),
        (pi_defect < 1e-6,
         f"t_R = 0 composite misses a pi pulse by {pi_defect:.2e}"),
    ])


def test_criterion_06_coherence_hierarchy(deep1450, shallow46, table,
                                          magic_env):
    t0 = time.perf_counter()
    env_deep = FieldEnvironment(deep1450["config"],
                                MagneticField(3.0, 0.0))
    trap_deep = trapmodel.characterize_trap(
        deep1450["config"], env_deep, table, field=deep1450["field"])
    env_sh0 = FieldEnvironment(shallow46["config"],
                               MagneticField(3.0, 0.0))
    trap_sh0 = trapmodel.characterize_trap(
        shallow46["config"], env_sh0, table, field=shallow46["field"])
    # priors: the reference measured values for these three scenarios
    t2_deep = _fit_t2(trap_deep, 8.0e-6, 36e-6, 2000, 2001)
    t2_sh0 = _fit_t2(trap_sh0, 1.4e-6, 203e-6, 2000, 2002)
    t2_magic = _fit_t2(magic_env["trap"], 1.4e-6, 1236e-6, 2000, 2003)
    dt = time.perf_counter() - t0
    _verdict(6, "coherence-hierarchy", [
        (t2_sh0 >= 3 * t2_deep,
         f"shallow/phi0 {t2_sh0 * 1e6:.0f} us < 3x deep "
         f"{t2_deep * 1e6:.0f} us"),
        (t2_magic >= 3 * t2_sh0,
         f"shallow/magic {t2_magic * 1e6:.0f} us < 3x shallow/phi0 "
         f"{t2_sh0 * 1e6:.0f} us"),
        (618e-6 <= t2_magic <= 2472e-6,
         f"magic T2 {t2_magic * 1e6:.0f} us not within 2x of 1236 us"),
        (dt < 600.0, f"runtime {dt:.1f} s >= 600 s"),
    ])


def test_criterion_07_thermal_estimate(magic_map, magic_env):
    tau = analysis.thermal_dephasing_estimate(magic_map["map"],
                                              magic_env["trap"], 1.4e-6)
    _verdict(7, "thermal-dephasing-estimate", [
        (1e-3 <= tau <= 10e-3,
         f"estimate {tau * 1e3:.2f} ms outside [1, 10] ms"),
    ])


def test_criterion_08_phinoise_study(shallow46, table, magic_env):
    t0 = time.perf_counter()
    dphis = [0.0, 0.1, 0.2, 0.3, 0.5]
    grid = dynamics.ramsey_burst_grid(1236e-6, F_FR, span_factor=1.5)
    t2s = []
    for k, dphi in enumerate(dphis):
        trace = dynamics.simulate_ramsey(
            magic_env["trap"], 1.4e-6, NoiseModel(phi_jitter_std_deg=dphi),
            OMEGA, F_FR, grid, trials=800,
            master_seed=dynamics.spawn_seed(31, 10_000 + k),
            field=shallow46["field"], env=magic_env["env"], table=table)
        pts = analysis.extract_contrast(trace.t_s, trace.p32_mean, F_FR)
        t2s.append(analysis.fit_t2_envelope(
            [p.t_s for p in pts], [p.contrast for p in pts]).t2_s)
    monotone = all(t2s[k + 1] <= t2s[k] for k in range(len(t2s) - 1))
    # angle amplitude reproducing T2 = 1.24 ms, log-interpolated
    target = 1.24e-3
    db_x = None
    for k in range(len(t2s) - 1):
        if t2s[k] >= target >= t2s[k + 1]:
            f = (math.log(t2s[k] / target)
                 / math.log(t2s[k] / t2s[k + 1]))
            dphi_star = dphis[k] + f * (dphis[k + 1] - dphis[k])
            db_x = 8.0 * math.tan(math.radians(dphi_star))
            break
    dt = time.perf_counter() - t0
    _verdict(8, "phi-noise-study", [
        (t2s[0] > target,
         f"noise-free magic T2 {t2s[0] * 1e3:.2f} ms does not exceed "
         "1.24 ms"),
        (monotone, f"T2 not monotone non-increasing: {t2s}"),
        (db_x is not None and db_x > 10e-3,
         f"equivalent field noise {db_x} G not above 10 mG"),
        (dt < 600.0, f"runtime {dt:.1f} s >= 600 s"),
    ])


def test_criterion_09_echo_refocusing(magic_env):
    t = np.linspace(0.0, 80e-6, 90)
    noise = NoiseModel(detuning_offset_std=2 * math.pi * 20e3)
    disordered = dynamics.simulate_echo(
        magic_env["trap"], 0.0, noise, OMEGA, 50e3, t, trials=2000,
        master_seed=9, instantaneous_pulses=True)
    clean = dynamics.simulate_echo(
        magic_env["trap"], 0.0, NOISELESS, OMEGA, 50e3, t, trials=4,
        master_seed=9, instantaneous_pulses=True)
    band = 3 * np.maximum(disordered.p32_sem, 1e-12) + 5e-3
    worst = float(np.max(np.abs(disordered.p32_mean - clean.p32_mean)
                         - band))
    _verdict(9, "echo-refocusing", [
        (worst <= 0.0,
         f"echo deviates from disorder-free by 3 sigma + {worst:.3e}"),
    ])


def test_criterion_10_fit_recovery(tmp_path, magic_env):
    checks = []
    # noiseless sinusoid to 1e-9
    t = np.linspace(0.0, 40e-6, 400)
    y = 0.5 + 0.45 * np.sin(2 * math.pi * F_FR * t + 1.0)
    fit = analysis.fit_sinusoid(t, y)
    checks.append((abs(fit.freq_hz - F_FR) / F_FR < 1e-9
                   and abs(fit.amplitude - 0.45) < 1e-9
                   and abs(fit.offset - 0.5) < 1e-9,
                   "noiseless sinusoid parameters off by >= 1e-9"))
    # T2 = 500 us under 1% contrast noise to 2%
    rng = np.random.Generator(np.random.PCG64(123))
    tc = np.linspace(0.0, 1e-3, 10)
    c = np.exp(-tc ** 2 / (2 * 500e-6 ** 2)) + rng.normal(0, 0.01, 10)
    env_fit = analysis.fit_t2_envelope(tc, c)
    checks.append((abs(env_fit.t2_s - 500e-6) / 500e-6 <= 0.02,
                   f"T2 {env_fit.t2_s * 1e6:.1f} us off 500 us by > 2%"))
    # norm preservation over 1e4 segments
    rng2 = np.random.Generator(np.random.PCG64(7))
    state = dynamics.QubitState(1.0, 0.0)
    for _ in range(10_000):
        seg = dynamics.PulseSegment(
            duration_s=rng2.uniform(0, 2e-6),
            omega_rad_s=rng2.uniform(0, 2 * OMEGA),
            delta_rad_s=rng2.normal(0, OMEGA),
            phi_l_rad=rng2.uniform(0, 2 * math.pi))
        state = dynamics.evolve_segment(state, seg)
    norm_err = abs(abs(state.c_p0) ** 2 + abs(state.c_p2) ** 2 - 1.0)
    checks.append((norm_err < 1e-9,
                   f"norm drifted by {norm_err:.2e} over 1e4 segments"))
    # byte-identical reruns under a fixed seed
    t_r = np.linspace(0.0, 30e-6, 40)
    noise = NoiseModel(rabi_frac_std=0.05,
                       detuning_offset_std=2 * math.pi * 2e3)
    paths = []
    for k in range(2):
        trace = dynamics.simulate_ramsey(magic_env["trap"], 1.4e-6,
                                         noise, OMEGA, F_FR, t_r,
                                         trials=100, master_seed=77)
        p = tmp_path / f"rerun{k}.csv"
        dynamics.write_trace_csv(trace, p)
        paths.append(p)
    checks.append((paths[0].read_bytes() == paths[1].read_bytes(),
                   "rerun with the same seed is not byte-identical"))
    _verdict(10, "fit-recovery", checks)


def test_criterion_11_tangential_magic_755(shallow46, table, table_755,
                                           magic_env, magic_map):
    t0 = time.perf_counter()
    cfg755 = TweezerConfig(
        wavelength_nm=755.0, power_W=1e-3, na=0.5,
        filling_factor=shallow46["field"].filling_factor)
    field755 = focalfield.build_field(cfg755)
    env755 = FieldEnvironment(cfg755, MagneticField(8.0, 90.0))
    trap755 = trapmodel.characterize_trap(cfg755, env755, table_755,
                                          field=field755)
    # equal trap depth for the qubit's trapped state; depth and map both
    # scale linearly with power, so one build at 1 mW suffices
    p_eq_w = (magic_env["trap"].depth_p0_hz / trap755.depth_p0_hz) * 1e-3
    map755 = focalfield.lightshift_map(field755, env755, table_755, n=101)
    xx, yy = np.meshgrid(map755.x_m, map755.y_m)
    inside = np.hypot(xx, yy) <= field755.waist_m
    peak755 = float(np.max(np.abs(map755.du_hz[inside]))) \
        * (p_eq_w / 1e-3)
    m539 = magic_map["map"]
    xx, yy = np.meshgrid(m539.x_m, m539.y_m)
    inside539 = np.hypot(xx, yy) <= shallow46["field"].waist_m
    peak539 = float(np.max(np.abs(m539.du_hz[inside539])))
    ratio = peak539 / peak755
    dt = time.perf_counter() - t0
    _verdict(11, "tangential-magic-755", [
        (ratio >= 100.0,
         f"reduction x{ratio:.0f} below 100 (539.91 nm peak "
         f"{peak539:.1f} Hz, 755 nm equal-depth peak {peak755:.2e} Hz)"),
        (dt < 120.0, f"runtime {dt:.1f} s >= 120 s"),
    ])
