"""Scalar reference implementations that the tests check the engine against.

* :class:`QubitState`, :class:`PulseSegment` and :func:`evolve_segment`: the
  one-state, one-segment propagator. It applies the engine's own SU(2)
  elements (``dynamics._su2_elements``), so its unitarity over many
  segments checks those elements, and chained over a protocol's segments
  it checks the engine's expansion into harmonics.
* :func:`polarization_in_field_frame`: the full field-frame polarization,
  the reference for ``atomstark.axis_projection``.
* :func:`read_map_csv` and :func:`trap_from_json_dict`: readers of the map
  CSV and the trap JSON that no command needs, for the round-trip tests.
* :func:`extract_contrast`: one ``fit_sinusoid`` per window, the reference
  for the batched windowed contrast fit of ``analysis.extract_contrast``.
* :func:`sinusoid_fit`: the linear sinusoid solve at a given frequency by
  ``np.linalg.lstsq`` (an orthogonal factorization, not normal equations)
  and its errors by the scalar delta method, the reference for the
  least-squares core of ``analysis.fit_sinusoid``.
* :func:`write_trace_csv`: one f-string per row, the reference for the
  bytes of ``dynamics.write_trace_csv``.
* :func:`pulse_coefficients`: the complex harmonic coefficients c_d of a
  pulse plan, P(3P2)(t) = K + sum_d Re(c_d e^{i w_d t}), with one SU(2)
  evaluation per pulse, the reference for
  ``dynamics._pulse_coefficients``, which evaluates each distinct pulse
  once.
* :func:`fock_lattice_mean`: the exact ensemble mean of P(3P2)(t) with
  finite pulses over the thermal Fock ladder of one mismatched axis, a
  weighted sum of :func:`pulse_coefficients` at the ladder's detunings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fsqubit.analysis import (_EDGE_TOL, ContrastPoint, SinusoidFit,
                             fit_sinusoid)
from fsqubit.constants import HBAR, K_B
from fsqubit.dynamics import _su2_elements
from fsqubit.focalfield import LightShiftMap
from fsqubit.trapmodel import _JSON_KEYS, TrapCharacterization


@dataclass(frozen=True)
class QubitState:
    """Two-level amplitudes (c_3P0, c_3P2)."""

    c_p0: complex
    c_p2: complex

    def __post_init__(self) -> None:
        norm = abs(self.c_p0) ** 2 + abs(self.c_p2) ** 2
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"state norm {norm} is not 1")

    @property
    def p32(self) -> float:
        return abs(self.c_p2) ** 2


@dataclass(frozen=True)
class PulseSegment:
    """Constant-parameter drive segment; Omega = 0 is free evolution."""

    duration_s: float
    omega_rad_s: float
    delta_rad_s: float
    phi_l_rad: float

    def __post_init__(self) -> None:
        if not 0 <= self.duration_s < math.inf:
            raise ValueError("segment duration must be finite and >= 0")
        if not 0 <= self.omega_rad_s < math.inf:
            raise ValueError("Rabi frequency must be finite and >= 0")
        if not (math.isfinite(self.delta_rad_s)
                and math.isfinite(self.phi_l_rad)):
            raise ValueError("detuning and phase must be finite")


def evolve_segment(state: QubitState, seg: PulseSegment) -> QubitState:
    """Exact rotating-frame propagator for one constant segment."""
    u00, coupling, u11 = _su2_elements(seg.omega_rad_s, seg.delta_rad_s,
                                       seg.duration_s)
    phase = np.exp(-1j * seg.phi_l_rad)
    a, b = state.c_p0, state.c_p2
    return QubitState(complex(u00 * a + coupling * phase * b),
                      complex(coupling * np.conj(phase) * a + u11 * b))


def polarization_in_field_frame(epsilon: np.ndarray,
                                phi_deg: float) -> np.ndarray:
    """Map a tweezer-frame polarization onto the field-aligned frame.

    The field direction lies in the transverse plane at angle phi from the
    input-polarization axis. The returned components are along
    (z_hat x B_hat, z_hat, B_hat) — the third component is the one along
    the quantization axis.
    """
    phi = math.radians(phi_deg)
    ex, ey, ez = np.asarray(epsilon, dtype=complex)
    return np.array([
        -math.sin(phi) * ex + math.cos(phi) * ey,
        ez,
        math.cos(phi) * ex + math.sin(phi) * ey,
    ])


def read_map_csv(path) -> LightShiftMap:
    """Read a map CSV written by ``focalfield.write_map_csv``."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim != 2 or data.shape[1] != 3:
        raise ValueError(f"{path}: expected 3 columns x_nm,y_nm,dU_over_h_Hz")
    x = np.unique(data[:, 0]) * 1e-9
    nx = x.size
    if data.shape[0] % nx:
        raise ValueError(f"{path}: ragged grid")
    y = data[::nx, 1] * 1e-9
    return LightShiftMap(x, y, data[:, 2].reshape(y.size, nx))


def trap_from_json_dict(d: dict) -> TrapCharacterization:
    """Inverse of ``TrapCharacterization.to_json_dict``."""
    s0, s2 = (d["states"][k] for k in _JSON_KEYS)
    return TrapCharacterization(
        depth_p0_hz=float(s0["depth_hz"]), depth_p2_hz=float(s2["depth_hz"]),
        omega_p0_rad_s=np.asarray(s0["omega_rad_s"], dtype=float),
        omega_p2_rad_s=np.asarray(s2["omega_rad_s"], dtype=float),
        du_center_hz=float(d["du_center_hz"]))


def extract_contrast(t, y, fringe_hz: float,
                     window_periods: float = 5.0) -> list[ContrastPoint]:
    """Windowed contrast, window by window: the windows of
    ``analysis.extract_contrast`` (edge tolerance, last-edge rule, windows
    under 6 points skipped), each fitted by its own fixed-frequency
    ``fit_sinusoid``."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    width = window_periods / fringe_hz
    t0 = float(t.min())
    idx = np.floor((t - t0) / width + _EDGE_TOL).astype(int)
    last = max(int(np.ceil((float(t.max()) - t0) / width)) - 1, 0)
    idx = np.minimum(idx, last)
    points = []
    for k in range(int(idx.max()) + 1):
        mask = idx == k
        if mask.sum() < 6:
            continue
        fit = fit_sinusoid(t[mask], y[mask], fixed_freq_hz=fringe_hz)
        points.append(ContrastPoint(t_s=float(t[mask].mean()),
                                    contrast=2.0 * fit.amplitude,
                                    contrast_err=2.0 * fit.amplitude_err))
    return points


def sinusoid_fit(t, y, freq_hz: float, free_freq: bool = False) -> SinusoidFit:
    """Exact LS sinusoid A sin(2 pi f t + phi0) + c at ``freq_hz``.

    (a_s, a_c, c) by lstsq; every error from sigma^2 (J^T J)^-1, with J the
    (sin, cos, 1) columns plus, when ``free_freq``, d model / d f, and
    sigma^2 = SSR / (n - columns of J). The amplitude and phase errors
    follow from (a_s, a_c) one scalar formula at a time.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    theta = 2.0 * math.pi * freq_hz * t
    design = np.column_stack([np.sin(theta), np.cos(theta), np.ones_like(t)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    ssr = float(resid @ resid)
    a_s, a_c, c = (float(v) for v in coef)
    jac = design
    if free_freq:
        f_col = 2.0 * math.pi * t * (a_s * design[:, 1] - a_c * design[:, 0])
        jac = np.column_stack([design, f_col])
    cov = ssr / max(t.size - jac.shape[1], 1) * np.linalg.inv(jac.T @ jac)
    var_s, var_c, var_off = np.diag(cov)[:3]
    cov_sc = cov[0, 1]
    amp = math.hypot(a_s, a_c)
    if amp > 0:
        amp_err = math.sqrt(max(
            (a_s / amp) ** 2 * var_s + (a_c / amp) ** 2 * var_c
            + 2 * (a_s * a_c / amp ** 2) * cov_sc, 0.0))
        phase_err = math.sqrt(max(
            (a_c / amp ** 2) ** 2 * var_s + (a_s / amp ** 2) ** 2 * var_c
            - 2 * (a_s * a_c / amp ** 4) * cov_sc, 0.0))
    else:
        amp_err = math.sqrt(max(var_s, var_c))
        phase_err = math.pi
    return SinusoidFit(
        amplitude=amp, freq_hz=float(freq_hz),
        phase_rad=math.atan2(a_c, a_s) if amp > 0 else 0.0, offset=c,
        amplitude_err=amp_err,
        freq_err_hz=math.sqrt(cov[3, 3]) if free_freq else None,
        phase_err_rad=phase_err, offset_err=math.sqrt(var_off),
        rms=math.sqrt(ssr / t.size))


def write_trace_csv(trace, path) -> None:
    """t_s, p32_mean, p32_sem rows, one f-string each, CRLF line ends."""
    rows = [f"{t:.12e},{m:.9e},{s:.9e}\r\n" for t, m, s in zip(
        trace.t_s.tolist(), trace.p32_mean.tolist(), trace.p32_sem.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("".join(["t_s,p32_mean,p32_sem\r\n", *rows]))


def pulse_coefficients(plan, omega_rad_s, f_fringe_hz, instantaneous_pulses,
                       omegas, deltas):
    """K and the (c, w) of each harmonic of ``dynamics._pulse_plan``
    output, P(3P2)(t) = K + sum_d Re(c_d e^{i w_d t}), one
    ``_su2_elements`` call per pulse."""
    pulses, frees, terms, harmonics = plan
    n, sets = omegas.size, deltas.shape[0]
    elems = [_su2_elements(1.0, 0.0, size) if instantaneous_pulses
             else _su2_elements(omegas, deltas[min(dset, sets - 1)],
                                size / omega_rad_s)
             for size, dset in pulses]

    def path_amp(steps, amp):
        for (u00, coupling, u11), (row, col) in zip(elems, steps):
            amp = amp * (coupling if row != col else u11 if row else u00)
        return amp

    amps = [sum(path_amp(*path) for path in paths) for paths in terms]
    k = sum(np.abs(amp) ** 2 for amp in amps)
    slopes = [deltas[min(dset, sets - 1)] * size for size, dset in frees]
    slopes.append(-2.0 * math.pi * f_fringe_hz)
    out = []
    for d, pairs in harmonics:
        c = sum(2.0 * amps[q] * np.conj(amps[p]) for p, q in pairs)
        w = sum(x * slopes[v] for v, x in enumerate(d) if x)
        out.append((np.broadcast_to(c, (n,)), np.broadcast_to(w, (n,))))
    return np.broadcast_to(k, (n,)), out


def fock_lattice_mean(plan, omega_rad_s, f_fringe_hz, trap, temperature_K,
                      t, weight_loss=1e-16):
    """Exact noiseless ensemble mean of P(3P2)(t) with finite pulses on a
    trap whose frequencies match on every axis but one:
    sum_n P(n) [K(delta_n) + sum_d Re(c_d(delta_n) e^{i w_d(delta_n) t})]
    over that axis's Fock ladder, P(n) = (1 - q) q^n with
    q = exp(-hbar w_3P0 / kB T) and delta_n = n (w_3P0 - w_3P2), the drive
    locked at n = 0. The ladder stops at the first N with q^N, the weight
    left out, at most ``weight_loss``."""
    (axis,) = np.flatnonzero(trap.delta_omega_rad_s)
    q = math.exp(-HBAR * trap.omega_p0_rad_s[axis] / (K_B * temperature_K))
    n = np.arange(math.ceil(math.log(weight_loss) / math.log(q)))
    deltas = n * trap.delta_omega_rad_s[axis]
    k, harmonics = pulse_coefficients(plan, omega_rad_s, f_fringe_hz, False,
                                      np.full(n.size, omega_rad_s),
                                      deltas[None, :])
    p = k[:, None] + sum(np.real(c[:, None] * np.exp(1j * np.outer(w, t)))
                         for c, w in harmonics)
    return (1.0 - q) * q ** n @ p
