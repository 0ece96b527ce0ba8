"""Fitting and estimation routines.

Oracles: exact synthetic sinusoids and Gaussian envelopes with frozen
parameters, closed-form thermal variance of a quadratic shift map, and
local-optimality checks against random parameter perturbations.
"""

import math

import numpy as np
import pytest

from fsqubit import analysis, dynamics, trapmodel
from fsqubit.constants import K_B, MASS_SR88
from fsqubit.errors import (FitFailed, GridTooCoarse, NoDecayObserved,
                            WindowTooShort)
from fsqubit.focalfield import LightShiftMap

import oracles


def sinusoid(t, a, f, phi0, c):
    return a * np.sin(2 * math.pi * f * t + phi0) + c


class TestFitSinusoidFixedF:
    T = np.linspace(0.0, 5e-6, 50)

    def test_exact_recovery(self):
        y = sinusoid(self.T, 0.31, 1.3e6, 0.7, 0.46)
        fit = analysis.fit_sinusoid(self.T, y, fixed_freq_hz=1.3e6)
        assert fit.amplitude == pytest.approx(0.31, rel=1e-9)
        assert fit.phase_rad == pytest.approx(0.7, rel=1e-9)
        assert fit.offset == pytest.approx(0.46, rel=1e-9)
        assert fit.freq_hz == 1.3e6
        assert fit.rms < 1e-12

    def test_constant_data(self):
        y = np.full_like(self.T, 0.4)
        fit = analysis.fit_sinusoid(self.T, y, fixed_freq_hz=1.3e6)
        assert abs(fit.amplitude) < 1e-12
        assert fit.offset == pytest.approx(0.4, rel=1e-12)

    def test_exactly_reproducible(self):
        rng = np.random.default_rng(3)
        y = sinusoid(self.T, 0.2, 1.3e6, 1.1, 0.5) + rng.normal(0, 0.02, 50)
        f1 = analysis.fit_sinusoid(self.T, y, fixed_freq_hz=1.3e6)
        f2 = analysis.fit_sinusoid(self.T, y, fixed_freq_hz=1.3e6)
        assert (f1.amplitude, f1.phase_rad, f1.offset) == \
            (f2.amplitude, f2.phase_rad, f2.offset)

    def test_negative_amplitude_absorbed(self):
        y = sinusoid(self.T, -0.25, 1.3e6, 0.0, 0.5)
        fit = analysis.fit_sinusoid(self.T, y, fixed_freq_hz=1.3e6)
        assert fit.amplitude == pytest.approx(0.25, rel=1e-9)
        recon = sinusoid(self.T, fit.amplitude, 1.3e6, fit.phase_rad,
                         fit.offset)
        np.testing.assert_allclose(recon, y, atol=1e-12)

    def test_collapsed_time_grid_fails_typed(self):
        # every point at one float time (a scan window at 1e300 Hz): the
        # inverted design has a negative variance on its diagonal
        t = np.full(28, 7e-4)
        y = np.linspace(0.2, 0.7, 28)
        with pytest.raises(FitFailed, match="numerically singular"):
            analysis.fit_sinusoid(t, y, fixed_freq_hz=1.3e300)


class TestFitSinusoidFreeF:
    T = np.linspace(0.0, 5e-6, 50)

    def test_exact_recovery(self):
        y = sinusoid(self.T, 0.31, 1.3e6, 0.7, 0.46)
        fit = analysis.fit_sinusoid(self.T, y)
        assert fit.freq_hz == pytest.approx(1.3e6, rel=1e-9)
        assert fit.amplitude == pytest.approx(0.31, rel=1e-9)
        assert fit.phase_rad == pytest.approx(0.7, rel=1e-7)
        assert fit.offset == pytest.approx(0.46, rel=1e-9)

    def test_noisy_frequency_recovery(self):
        rng = np.random.default_rng(7)
        y = sinusoid(self.T, 0.5, 1.3e6, 0.3, 0.5) + rng.normal(0, 0.02, 50)
        fit = analysis.fit_sinusoid(self.T, y)
        assert fit.freq_hz == pytest.approx(1.3e6, rel=1e-3)

    def test_too_few_points(self):
        t = self.T[:5]
        with pytest.raises(FitFailed):
            analysis.fit_sinusoid(t, sinusoid(t, 0.3, 1.3e6, 0.0, 0.5))

    def test_span_below_one_period(self):
        t = np.linspace(0.0, 0.2 / 1.3e6, 20)
        with pytest.raises(FitFailed):
            analysis.fit_sinusoid(t, sinusoid(t, 0.3, 1.3e6, 0.0, 0.5))

    def test_constant_data_rejected(self):
        with pytest.raises(FitFailed):
            analysis.fit_sinusoid(self.T, np.full_like(self.T, 0.5))

    def test_local_optimality(self):
        rng = np.random.default_rng(11)
        y = sinusoid(self.T, 0.4, 1.3e6, 0.9, 0.5) + rng.normal(0, 0.03, 50)
        fit = analysis.fit_sinusoid(self.T, y)

        def ssr(a, f, p, c):
            return float(np.sum((sinusoid(self.T, a, f, p, c) - y) ** 2))

        best = ssr(fit.amplitude, fit.freq_hz, fit.phase_rad, fit.offset)
        for _ in range(100):
            fac = 1.0 + rng.uniform(-0.05, 0.05, size=4)
            assert best <= ssr(fit.amplitude * fac[0], fit.freq_hz * fac[1],
                               fit.phase_rad * fac[2],
                               fit.offset * fac[3]) + 1e-15

    def test_phase_error_carries_frequency_correlation(self):
        # a window 100 us after t = 0: the phase at t = 0 is extrapolated
        # through the fitted frequency, so its error must include the
        # frequency uncertainty; the reported error matches the scatter of
        # the fitted phases over 200 noise draws
        t = 100e-6 + np.linspace(0.0, 4e-6, 120)
        phases, errors = [], []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            y = sinusoid(t, 0.3, 1.3e6, 0.7, 0.5) + rng.normal(0, 0.03,
                                                                t.size)
            fit = analysis.fit_sinusoid(t, y)
            phases.append(fit.phase_rad)
            errors.append(fit.phase_err_rad)
        resultant = abs(np.mean(np.exp(1j * np.array(phases))))
        circular_sd = math.sqrt(-2.0 * math.log(resultant))
        assert 0.8 <= np.median(errors) / circular_sd <= 1.25

    def test_frequency_at_stationary_point(self):
        # the profiled slope dSSR/df, each side re-solved for (a_s, a_c, c),
        # changes sign within 1e-12 relative of the fitted frequency
        rng = np.random.default_rng(11)
        y = sinusoid(self.T, 0.4, 1.3e6, 0.9, 0.5) + rng.normal(0, 0.03, 50)
        fit = analysis.fit_sinusoid(self.T, y)

        def slope(f):
            w = 2 * math.pi * f * self.T
            x = np.column_stack([np.sin(w), np.cos(w), np.ones_like(w)])
            (a_s, a_c, c), *_ = np.linalg.lstsq(x, y, rcond=None)
            model = a_s * np.sin(w) + a_c * np.cos(w) + c
            dmodel = 2 * math.pi * self.T * (a_s * np.cos(w)
                                             - a_c * np.sin(w))
            return 2 * np.sum((model - y) * dmodel)

        f = fit.freq_hz
        assert slope(f * (1 - 1e-12)) < 0 < slope(f * (1 + 1e-12))

    def test_scan_falls_back_to_one_solve_per_frequency(self, monkeypatch):
        # a block of the frequency scan whose batched solve meets a
        # singular design is scanned by one lstsq solve per frequency
        rng = np.random.default_rng(11)
        y = sinusoid(self.T, 0.4, 1.3e6, 0.9, 0.5) + rng.normal(0, 0.03, 50)
        want = analysis.fit_sinusoid(self.T, y)

        def singular(theta, y):
            raise FitFailed("sinusoid design matrix is singular")

        monkeypatch.setattr(analysis, "_fixed_freq_fits", singular)
        got = analysis.fit_sinusoid(self.T, y)
        assert got.freq_hz == pytest.approx(want.freq_hz, rel=1e-12)
        assert got.amplitude == pytest.approx(want.amplitude, rel=1e-12)


class TestExtractContrast:
    F = 1.3e6

    def grid(self, n_windows, per_window=40):
        total = n_windows * 5.0 / self.F
        return np.linspace(0.0, total, n_windows * per_window,
                           endpoint=False)

    def test_undamped_full_contrast(self):
        t = self.grid(6)
        y = 0.5 * (1 + np.cos(2 * math.pi * self.F * t))
        pts = analysis.extract_contrast(t, y, self.F)
        assert len(pts) == 6
        for p in pts:
            assert p.contrast == pytest.approx(1.0, abs=1e-9)

    def test_tracks_gaussian_envelope(self):
        # T2 long against the window so the envelope is flat within one
        t2 = 20e-6
        t = self.grid(10)
        env = np.exp(-t ** 2 / (2 * t2 ** 2))
        y = 0.5 * (1 + env * np.cos(2 * math.pi * self.F * t))
        pts = analysis.extract_contrast(t, y, self.F)
        for p in pts:
            want = math.exp(-p.t_s ** 2 / (2 * t2 ** 2))
            if want > 0.1:
                assert p.contrast == pytest.approx(want, rel=0.02)

    def test_pure_noise_consistent_with_zero(self):
        rng = np.random.default_rng(5)
        t = self.grid(1, per_window=200)
        y = rng.normal(0.5, 0.02, t.size)
        (p,) = analysis.extract_contrast(t, y, self.F)
        assert abs(p.contrast) < 3 * p.contrast_err

    def test_window_too_short(self):
        t = self.grid(4)
        y = 0.5 * (1 + np.cos(2 * math.pi * self.F * t))
        with pytest.raises(WindowTooShort):
            analysis.extract_contrast(t, y, self.F, window_periods=0.8)

    def test_offset_invariance(self):
        t = self.grid(5)
        rng = np.random.default_rng(9)
        y = 0.3 * np.cos(2 * math.pi * self.F * t) + rng.normal(0, 0.01,
                                                                t.size)
        a = analysis.extract_contrast(t, y, self.F)
        b = analysis.extract_contrast(t, y + 0.37, self.F)
        for pa, pb in zip(a, b):
            assert pa.contrast == pytest.approx(pb.contrast, abs=1e-12)


F_FR = 1.3e6
WIDTH = 5.0 / F_FR  # one default contrast window


def decaying_fringe(t, seed):
    """Ramsey fringe under a Gaussian envelope with shot noise."""
    env = np.exp(-t ** 2 / (2 * 80e-6 ** 2))
    return (0.5 + 0.45 * env * np.cos(2 * math.pi * F_FR * t + 0.3)
            + np.random.default_rng(seed).normal(0.0, 0.01, t.size))


def contrast_grid(case):
    """(time grid, windows it keeps) of each parity case."""
    if case == "linspace_801":  # windows of 15 and 16 points
        return np.linspace(0.0, 200e-6, 801), 52
    if case == "shuffled_801":
        return np.random.default_rng(2).permutation(
            np.linspace(0.0, 200e-6, 801)), 52
    if case == "t2_burst":
        return dynamics.ramsey_burst_grid(100e-6, F_FR), 9
    if case == "short_window_skipped":  # window 2 keeps 5 points
        t = np.linspace(0.0, 4 * WIDTH, 80, endpoint=False)
        return np.delete(t, np.arange(45, 60)), 3
    if case == "point_on_edge":
        # a point just under an edge joins the window above, the last
        # point on the final edge joins the last window
        t = np.linspace(0.0, 3 * WIDTH, 61)
        t[40] = 2 * WIDTH * (1.0 - 0.25 * analysis._EDGE_TOL)
        return t, 3
    return 20e-6 + np.arange(28) / 28 * WIDTH, 1  # one magic-scan window


class TestBatchedContrast:
    """The batched window fit against one fit_sinusoid per window."""

    @pytest.mark.parametrize("case", [
        "linspace_801", "shuffled_801", "t2_burst", "short_window_skipped",
        "point_on_edge", "single_28"])
    def test_matches_per_window_fits(self, case):
        t, windows = contrast_grid(case)
        y = decaying_fringe(t, 11)
        got = analysis.extract_contrast(t, y, F_FR)
        want = oracles.extract_contrast(t, y, F_FR)
        assert len(got) == len(want) == windows
        assert [p.t_s for p in got] == [p.t_s for p in want]
        for key in ("contrast", "contrast_err"):
            np.testing.assert_allclose(
                [getattr(p, key) for p in got],
                [getattr(p, key) for p in want], rtol=1e-12, atol=0.0)

    def test_edge_points_change_windows(self):
        t, _ = contrast_grid("point_on_edge")
        pts = analysis.extract_contrast(t, decaying_fringe(t, 11), F_FR)
        # 20 points, 20 without the moved one, 21 with it and the final edge
        assert [p.t_s for p in pts] == [
            float(t[:20].mean()), float(t[20:40].mean()),
            float(t[40:].mean())]

    def test_linalg_calls_do_not_grow_with_windows(self, monkeypatch):
        calls = []
        for name in ("inv", "solve", "lstsq", "pinv", "det", "svd", "qr"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name,
                lambda *a, _real=real, _name=name, **kw: (
                    calls.append(_name), _real(*a, **kw))[1])
        per_trace = []
        for n_windows in (2, 20, 60):
            t = np.linspace(0.0, n_windows * WIDTH, 16 * n_windows,
                            endpoint=False)
            calls.clear()
            pts = analysis.extract_contrast(t, decaying_fringe(t, 3), F_FR)
            assert len(pts) == n_windows
            per_trace.append(len(calls))
        assert per_trace == [1, 1, 1]

    @pytest.mark.parametrize("frac", [0.0, 0.5, 0.93])
    def test_collapsed_window_fails_as_per_window_fit(self, frac):
        # window 1's 28 points all at one time: a rank-one design
        t = np.linspace(0.0, 4 * WIDTH, 4 * 28, endpoint=False)
        t[28:56] = (1.0 + frac) * WIDTH
        y = decaying_fringe(t, 7)
        with pytest.raises(FitFailed) as want:
            oracles.extract_contrast(t, y, F_FR)
        with pytest.raises(FitFailed) as got:
            analysis.extract_contrast(t, y, F_FR)
        assert str(got.value) == str(want.value)


FITS = {"fixed": lambda t, y: analysis.fit_sinusoid(t, y,
                                                   fixed_freq_hz=1.3e6),
        "free": lambda t, y: analysis.fit_sinusoid(t, y),
        "contrast": lambda t, y: analysis.extract_contrast(t, y, 1.3e6)}


@pytest.mark.parametrize("fit", sorted(FITS))
@pytest.mark.parametrize("where", ["nan_y", "inf_t"])
def test_non_finite_input_fails(fit, where):
    # one bad sample of a clean fringe: a typed FitFailed, not a NaN fit
    # or an overflowing window index
    t = np.linspace(0.0, 10e-6, 60)
    y = sinusoid(t, 0.31, 1.3e6, 0.7, 0.46)
    if where == "nan_y":
        y[17] = math.nan
    else:
        t[-1] = math.inf
    with pytest.raises(FitFailed, match="non-finite time or population"):
        FITS[fit](t, y)


class TestFitT2Envelope:
    def test_noiseless_exact(self):
        t = np.linspace(0.0, 1.2e-3, 12)
        c = 0.9 * np.exp(-t ** 2 / (2 * 500e-6 ** 2))
        fit = analysis.fit_t2_envelope(t, c)
        assert fit.t2_s == pytest.approx(500e-6, rel=1e-7)
        assert fit.c0 == pytest.approx(0.9, rel=1e-7)

    def test_noisy_recovery_within_2pct(self):
        rng = np.random.default_rng(13)
        t = np.linspace(0.0, 1.2e-3, 10)
        c = np.exp(-t ** 2 / (2 * 500e-6 ** 2)) + rng.normal(0, 0.01, 10)
        fit = analysis.fit_t2_envelope(t, c)
        assert fit.t2_s == pytest.approx(500e-6, rel=0.02)

    def test_constant_contrast_no_decay(self):
        t = np.linspace(0.0, 1e-3, 8)
        with pytest.raises(NoDecayObserved) as exc:
            analysis.fit_t2_envelope(t, np.full(8, 0.8))
        assert exc.value.t2_lower_bound_s == pytest.approx(1e-3)

    def test_barely_decaying_no_decay(self):
        t = np.linspace(0.0, 1e-4, 8)
        c = 0.9 * np.exp(-t ** 2 / (2 * 0.05 ** 2))   # T2 = 50 ms >> span
        with pytest.raises(NoDecayObserved):
            analysis.fit_t2_envelope(t, c)

    def test_rescale_invariance(self):
        t = np.linspace(0.0, 1.2e-3, 12)
        rng = np.random.default_rng(17)
        c = 0.8 * np.exp(-t ** 2 / (2 * 400e-6 ** 2)) \
            + rng.normal(0, 0.005, 12)
        f1 = analysis.fit_t2_envelope(t, c)
        f2 = analysis.fit_t2_envelope(t, 0.37 * c)
        assert f2.t2_s == pytest.approx(f1.t2_s, rel=1e-9)
        assert f2.c0 == pytest.approx(0.37 * f1.c0, rel=1e-9)

    def test_too_few_points(self):
        t = np.linspace(0.0, 1e-3, 3)
        with pytest.raises(FitFailed):
            analysis.fit_t2_envelope(t, np.exp(-t ** 2 / (2 * 3e-4 ** 2)))

    def test_local_optimality(self):
        rng = np.random.default_rng(19)
        t = np.linspace(0.0, 1.5e-3, 14)
        c = 0.85 * np.exp(-t ** 2 / (2 * 600e-6 ** 2)) \
            + rng.normal(0, 0.02, 14)
        fit = analysis.fit_t2_envelope(t, c)

        def ssr(c0, t2):
            return float(np.sum((c0 * np.exp(-t ** 2 / (2 * t2 ** 2))
                                 - c) ** 2))

        best = ssr(fit.c0, fit.t2_s)
        for _ in range(100):
            fac = 1.0 + rng.uniform(-0.05, 0.05, size=2)
            assert best <= ssr(fit.c0 * fac[0], fit.t2_s * fac[1]) + 1e-15

    def test_beta_at_stationary_point(self):
        # the nine windowed contrasts of the shipped t2_deep_phi0_3G run:
        # the profiled slope dSSR/dbeta changes sign within 1e-12 relative
        # of the fitted beta = 1 / 2 T2^2
        t = np.array([1.854395604396e-06, 9.546703296703e-06,
                      1.339285714286e-05, 2.108516483516e-05,
                      2.877747252747e-05, 3.262362637363e-05,
                      4.031593406593e-05, 4.416208791209e-05,
                      5.185439560440e-05])
        c = np.array([9.969598935e-01, 9.809567746e-01, 9.682922876e-01,
                      9.347869492e-01, 8.923643263e-01, 8.686263488e-01,
                      8.177298782e-01, 7.911726467e-01, 7.371280624e-01])
        fit = analysis.fit_t2_envelope(t, c)

        def slope(beta):
            g = np.exp(-beta * t ** 2)
            c0 = np.sum(g * c) / np.sum(g * g)
            return 2 * np.sum((c0 * g - c) * (-c0 * t ** 2 * g))

        beta = 1.0 / (2.0 * fit.t2_s ** 2)
        assert slope(beta * (1 - 1e-12)) < 0 < slope(beta * (1 + 1e-12))

    def test_rising_contrast_no_decay(self):
        # the SSR minimum lies below the grid's slowest decay
        t = np.linspace(0.0, 1e-3, 8)
        with pytest.raises(NoDecayObserved) as exc:
            analysis.fit_t2_envelope(t, 0.5 + 0.2 * t / t[-1])
        assert exc.value.t2_lower_bound_s == pytest.approx(1e-3)

    def test_decay_faster_than_grid_fails(self):
        # every time within 5% of t_max, so the grid's fastest decay row
        # is exp(-2 * 350 * 0.95^2) ~ 1e-274: still a normal double, and
        # the argmin at that end is a failure, not a division by zero
        t = np.linspace(0.95e-3, 1e-3, 8)
        c = np.zeros(8)
        c[0] = 1.0
        with pytest.raises(FitFailed, match="faster"):
            analysis.fit_t2_envelope(t, c)

    def test_zero_contrast_fails_before_decay_rule(self):
        t = np.linspace(0.0, 1e-3, 8)
        with pytest.raises(FitFailed, match="not positive"):
            analysis.fit_t2_envelope(t, np.zeros(8))

    def test_non_finite_contrast_fails(self):
        t = np.linspace(0.0, 1.2e-3, 12)
        c = 0.9 * np.exp(-t ** 2 / (2 * 500e-6 ** 2))
        c[3] = np.nan
        with pytest.raises(FitFailed, match="non-finite"):
            analysis.fit_t2_envelope(t, c)

    def test_negative_envelope_fails(self):
        t = np.linspace(0.0, 1.2e-3, 12)
        c = -0.9 * np.exp(-t ** 2 / (2 * 500e-6 ** 2))
        with pytest.raises(FitFailed, match="not positive"):
            analysis.fit_t2_envelope(t, c)


class TestStationaryPoint:
    GRID = np.array([1.0, 2.0, 3.0, 4.0])

    def test_bisects_the_slope_sign_change(self):
        p = analysis._stationary_point(lambda x: x - 2.6, self.GRID, 2)
        assert p == pytest.approx(2.6, rel=1e-15)

    @pytest.mark.parametrize("slope", [lambda x: 1.0, lambda x: -1.0,
                                       lambda x: 2.6 - x])
    def test_no_sign_change_keeps_grid_point(self, slope):
        assert analysis._stationary_point(slope, self.GRID, 2) == 3.0


def quadratic_map(kappa_hz_m2, half_m=1e-6, n=201):
    x = np.linspace(-half_m, half_m, n)
    xx, yy = np.meshgrid(x, x, indexing="xy")
    return LightShiftMap(x_m=x, y_m=x.copy(),
                         du_hz=kappa_hz_m2 * (xx ** 2 + yy ** 2))


def trap_with(omega_xy_hz):
    om = 2 * math.pi * np.array([omega_xy_hz, omega_xy_hz, omega_xy_hz / 6])
    return trapmodel.TrapCharacterization(
        depth_p0_hz=1e6, depth_p2_hz=1e6,
        omega_p0_rad_s=om, omega_p2_rad_s=om.copy(), du_center_hz=0.0)


class TestThermalDephasingEstimate:
    KAPPA = 1.6e16

    def test_quadratic_closed_form(self):
        m = quadratic_map(self.KAPPA)
        trap = trap_with(25e3)
        t_k = 1.4e-6
        tau = analysis.thermal_dephasing_estimate(m, trap, t_k)
        sig = math.sqrt(K_B * t_k / MASS_SR88) / trap.omega_p0_rad_s[0]
        sigma_du = self.KAPPA * math.sqrt(2 * sig ** 4 + 2 * sig ** 4)
        assert tau == pytest.approx(1.0 / (2 * math.pi * sigma_du), rel=0.02)

    def test_doubling_temperature_halves_timescale(self):
        m = quadratic_map(self.KAPPA)
        trap = trap_with(25e3)
        tau1 = analysis.thermal_dephasing_estimate(m, trap, 1.0e-6)
        tau2 = analysis.thermal_dephasing_estimate(m, trap, 2.0e-6)
        assert tau1 / tau2 == pytest.approx(2.0, rel=0.05)

    def test_uniform_map_unbounded(self):
        m = quadratic_map(0.0)
        tau = analysis.thermal_dephasing_estimate(m, trap_with(25e3), 1.4e-6)
        assert math.isinf(tau)

    def test_grid_too_coarse(self):
        m = quadratic_map(self.KAPPA, n=21)
        with pytest.raises(GridTooCoarse):
            analysis.thermal_dephasing_estimate(m, trap_with(25e3), 1e-8)

    def test_zero_temperature_unbounded(self):
        m = quadratic_map(self.KAPPA)
        tau = analysis.thermal_dephasing_estimate(m, trap_with(25e3), 0.0)
        assert math.isinf(tau)


class TestJsonExport:
    def test_sinusoid_fit_json(self):
        t = np.linspace(0.0, 5e-6, 50)
        fit = analysis.fit_sinusoid(t, sinusoid(t, 0.3, 1.3e6, 0.2, 0.5),
                                    fixed_freq_hz=1.3e6)
        d = fit.to_json_dict()
        assert d["model"] == "sinusoid"
        assert d["freq_hz"] == 1.3e6
        assert "amplitude_err" in d and "rms" in d

    def test_envelope_fit_json(self):
        t = np.linspace(0.0, 1.2e-3, 12)
        fit = analysis.fit_t2_envelope(
            t, 0.9 * np.exp(-t ** 2 / (2 * 5e-4 ** 2)))
        d = fit.to_json_dict()
        assert d["model"] == "gaussian_envelope"
        assert d["t2_s"] == pytest.approx(5e-4, rel=1e-6)
        assert "t2_err_s" in d
