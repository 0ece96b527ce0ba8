"""Two-level pulse protocols over Monte-Carlo ensembles of motion and noise.

Rotating-frame convention: H/hbar = -(delta/2) sigma_z
+ (Omega/2)(cos phi_L sigma_x + sin phi_L sigma_y) with
sigma_z = |3P2><3P2| - |3P0><3P0|, so a constant segment rotates the Bloch
vector by Omega_eff t about (Omega cos phi_L, Omega sin phi_L,
-delta)/Omega_eff, Omega_eff = sqrt(Omega^2 + delta^2).

The drive is referenced to the transition of the motional ground state in
the trap: delta_ref is the trapmodel detuning ladder at a zero sample (n = 0
for the Fock model, the trap center for the classical one), so a cold atom
in a magic trap sits exactly on resonance and thermal occupation produces
the residual per-shot detunings. Shot-to-shot noise (one motional sample, one
Rabi amplitude, one field angle, one detuning offset per trial) is frozen
within a shot. Ramsey and the echo are module-level pulse/free segment
lists (``RAMSEY``, ``ECHO``). Ramsey's second pi/2 pulse carries
phi_L = -2 pi f_fr t_R, the phase-reset convention that writes a
synthetic fringe at f_fr; the echo inserts a pi pulse about +y between
two half periods of free evolution.

Free evolution, diag(e^{-i delta t/2}, e^{+i delta t/2}), is
diag(1, e^{i delta t}) up to a global phase, and a pulse at laser phase
theta is R_z(theta) U(0) R_z(-theta) with R_z(x) = diag(1, e^{ix}), so its
element from state s to s' is U0[s', s] e^{i theta (s' - s)}, U0 depending
on the trial alone. Expanded over the states between the pulses, the final
3P2 amplitude is a sum of paths whose phases are linear in t, with slopes
set by the trial (delta times the free fraction, -2 pi f_fr for the
fringe). P(3P2) of a trial is therefore K + sum_d amp_d cos(w_d t + phi_d)
with trial-only K, amp_d, w_d and phi_d: one harmonic for Ramsey, four for
the echo, and one for a single drive (Rabi), (Omega sin(Omega_eff t/2) /
Omega_eff)^2 = K - K cos(Omega_eff t). Each cosine is evaluated by angle
addition over runs of equally spaced times, about 4 sqrt(T) trig calls
per trial instead of T. Each grid point owns a cell of a table of C runs
of R cells (one cell per point on a grid without runs); a point off every
run is evaluated directly into its cell. Each protocol hands the one
Monte-Carlo engine a function from the trial draws to these coefficients:
draws -> coefficients -> harmonic sum -> SPAM -> Welford merge per cell
-> each point reads its cell.

SPAM convention: unprepared population stays in the dark manifold and
contributes zero signal; readout infidelity scales multiplicatively. The
observed population is therefore eta_prep * F_read * P_ideal with no
additive offset.

Trial randomness is counter-based: uniform u[k, s] of trial k and draw
slot s is a Philox4x32-10 output word pair under a key derived once from
the master seed, computed for all trials in one vectorized pass. Slots
are fixed: 0-2 motion and 3 detuning offset (set 0), 4 Rabi factor, 5
angle jitter, 6-9 the second detuning set. Results are therefore
reproducible bit-for-bit and independent of the trial count and of how
trials would be partitioned across workers. Trial accumulation is a
fixed-order block sum: trials are summed in blocks of 512 in trial order.
The cell table is cut into slabs of whole runs, about _SLAB_BYTES /
(8 x 512) cells; a block runs slab by slab through harmonic sum, SPAM and
its mean and M2 while the slab's (cells, 512) buffer, trials contiguous,
sits in L2, so each cell's block sum over trials is numpy's pairwise sum.
Block b runs on thread b mod n, n = min(CPUs the process may run on,
blocks, T // _PART_POINTS), thread 0 being the calling thread, and the
calling thread merges the blocks by Welford/Chan in block order. Every
step after the draws works per trial and cell, so the thread count and
the slab are derived, not configured, and change no value.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .atomstark import axis_projection, differential_shift_from_projection
from .params import FieldEnvironment, NoiseModel
from .special import ndtri
from .trapmodel import (detuning_for_sample, sample_fock_thermal,
                        sample_position_classical)

# trial block size for the vectorized evolution (memory / determinism unit)
_TRIAL_BLOCK = 512
# bytes of one (cells, block) slab: the cell table is cut into slabs of
# whole runs, about _SLAB_BYTES / (8 * block) cells, so that a slab's
# buffers stay in L2; it changes no value
_SLAB_BYTES = 2 ** 19
# a grid of T points runs on at most T // _PART_POINTS threads
_PART_POINTS = 128


def _cpu_count() -> int:
    """CPUs this process may run on (all where affinity is unknown)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _su2_elements(omega, delta, duration):
    """(u00, coupling, u11) of one constant segment at laser phase 0; the
    phase phi_L multiplies the coupling by e^{-i phi_L} above the diagonal
    and by e^{+i phi_L} below it (broadcasting)."""
    half = 0.5 * np.hypot(omega, delta) * duration
    # sin(half)/Omega_eff without the 0/0 at Omega_eff -> 0
    sdur = 0.5 * duration * np.sinc(half / math.pi)
    cos_h = np.cos(half)
    return (cos_h - 1j * delta * sdur, -1j * omega * sdur,
            cos_h + 1j * delta * sdur)


def apply_spam(p_ideal, noise: NoiseModel, out=None):
    """Observed population: eta_prep * F_read * P_ideal (dark-manifold
    convention, zero additive offset); ``out=p_ideal`` works in place."""
    p = np.asarray(p_ideal, dtype=float)
    lo, hi = (p.min(), p.max()) if p.size else (0.0, 0.0)
    # written so that a NaN fails both comparisons
    if not (lo >= -1e-12 and hi <= 1 + 1e-12):
        raise ValueError("ideal populations must lie in [0, 1]")
    if lo >= 0 and hi <= 1:  # the clip is the identity, -0.0 included
        out = np.multiply(p, noise.spam_scale, out=out)
    else:
        out = np.clip(p, 0.0, 1.0, out=out)
        out *= noise.spam_scale
    return float(out) if np.ndim(p_ideal) == 0 else out


@dataclass(frozen=True)
class TraceResult:
    """Ensemble-averaged protocol trace."""

    t_s: np.ndarray
    p32_mean: np.ndarray
    p32_sem: np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.t_s)):
            raise ValueError("times must be finite")
        if not np.all((self.p32_mean >= -1e-12)
                      & (self.p32_mean <= 1 + 1e-12)):
            raise ValueError("mean populations must lie in [0, 1]")
        if not np.all((self.p32_sem >= 0) & (self.p32_sem < np.inf)):
            raise ValueError("standard errors must be finite and >= 0")


def write_trace_csv(trace: TraceResult, path) -> None:
    """t_s, p32_mean, p32_sem rows with the CRLF line ends of
    ``csv.writer``; no cell needs quoting."""
    cells = np.stack([trace.t_s, trace.p32_mean, trace.p32_sem], axis=1)
    with open(path, "w", newline="") as fh:
        fh.write("t_s,p32_mean,p32_sem\r\n" + "%.12e,%.9e,%.9e\r\n"
                 * len(cells) % tuple(cells.ravel().tolist()))


def read_trace_csv(path) -> TraceResult:
    """Read a trace CSV written by :func:`write_trace_csv`."""
    with open(path) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]
                if line.strip()]
    if not rows or any(len(row) != 3 for row in rows):
        raise ValueError(f"expected 3 columns t_s,p32_mean,p32_sem in {path}")
    t, mean, sem = (np.array([float(x) for x in col]) for col in zip(*rows))
    return TraceResult(t_s=t, p32_mean=mean, p32_sem=sem)


def spawn_seed(master_seed: int, tag: int) -> int:
    """Master seed of sub-run ``tag`` (one point of a scan)."""
    return int(np.random.SeedSequence(
        entropy=master_seed, spawn_key=(tag,)).generate_state(1)[0])


# Philox4x32-10 constants: round multipliers and key (Weyl) increments
_PHILOX_M = (np.uint64(0xD2511F53), np.uint64(0xCD9E8D57))
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def philox4x32(counter, key):
    """Philox4x32-10 block function (Salmon et al., "Parallel random
    numbers: as easy as 1, 2, 3", SC'11).

    ``counter`` is four broadcastable arrays of 32-bit words, ``key`` two
    32-bit words; returns the four output words as uint64 arrays holding
    32-bit values.
    """
    c0, c1, c2, c3 = (np.asarray(c, dtype=np.uint64) for c in counter)
    k0, k1 = int(key[0]), int(key[1])
    for _ in range(10):
        p0 = _PHILOX_M[0] * c0
        p1 = _PHILOX_M[1] * c2
        c0, c1, c2, c3 = ((p1 >> _SHIFT32) ^ c1 ^ np.uint64(k0), p1 & _LO32,
                          (p0 >> _SHIFT32) ^ c3 ^ np.uint64(k1), p0 & _LO32)
        k0 = (k0 + _PHILOX_W[0]) & 0xFFFFFFFF
        k1 = (k1 + _PHILOX_W[1]) & 0xFFFFFFFF
    return c0, c1, c2, c3


def _to_unit(hi, lo):
    # top 52 bits of the 64-bit word hi:lo, centred in their cell: exact
    # in a double and strictly inside (0, 1)
    m52 = ((hi << _SHIFT32) | lo) >> np.uint64(12)
    return (m52.astype(float) + 0.5) * 2.0 ** -52


def _trial_uniforms(master_seed: int, trials: int, slots: int) -> np.ndarray:
    """Uniforms u[k, s] in (0, 1) for trial k and draw slot s.

    Block b of trial k is Philox4x32-10 of the counter (k lo32, k hi32, b,
    0) under the key SeedSequence(master_seed).generate_state(2); its four
    words give slots 2b and 2b + 1. Each uniform is a pure function of
    (seed, trial, slot).
    """
    key = np.random.SeedSequence(master_seed).generate_state(2)
    k = np.arange(trials, dtype=np.uint64)[:, None]
    blocks = np.arange((slots + 1) // 2, dtype=np.uint64)[None, :]
    w = philox4x32((k & _LO32, k >> _SHIFT32, blocks, 0), key)
    u = np.stack((_to_unit(w[0], w[1]), _to_unit(w[2], w[3])), axis=-1)
    return u.reshape(trials, -1)[:, :slots]


# Draw slots per trial: detuning set s takes motion (3 slots) and offset
# (1 slot) from _SET_SLOTS[s]; slot 4 is the Rabi factor, slot 5 the angle
# jitter. A second set therefore never moves the first set's draws.
_SET_SLOTS = (0, 6)
_OMEGA_SLOT, _PHI_SLOT = 4, 5


def _draw_trials(trap, temperature_K, noise, trials, master_seed,
                 motional_model, detuning_sets=1):
    """Per-trial shot-static draws.

    Returns (deltas[sets, trials], omega_factor[trials],
    phi_dev_deg[trials]); deltas are already referenced to the drive lock
    point, the zero sample's detuning, and include the per-set detuning
    offset draw.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    d_ref = detuning_for_sample(np.zeros(3), trap, motional_model)
    sampler = (sample_fock_thermal if motional_model == "fock"
               else sample_position_classical)
    u = _trial_uniforms(master_seed, trials, 4 * detuning_sets + 2)  # 6 or 10

    def normal(std, slot):
        # std * ndtri(u) is exactly +-0 at std = 0, so the quantile is skipped
        return std * ndtri(u[:, slot]) if std else np.zeros(trials)

    deltas = np.empty((detuning_sets, trials))
    for s, base in enumerate(_SET_SLOTS[:detuning_sets]):
        sample = sampler(temperature_K, trap.omega_p0_rad_s,
                         u[:, base:base + 3])
        deltas[s] = (detuning_for_sample(sample, trap, motional_model)
                     - d_ref
                     + normal(noise.detuning_offset_std, base + 3))
    # |.|: an amplitude sign flip is a pi phase shift, unobservable from
    # the ground state; keeps the Omega >= 0 invariant
    om_f = np.abs(1.0 + normal(noise.rabi_frac_std, _OMEGA_SLOT))
    phi_dev = normal(noise.phi_jitter_std_deg, _PHI_SLOT)
    return deltas, om_f, phi_dev


def _phi_noise_delta_rad_s(field, env: FieldEnvironment, table,
                           phi_dev_deg: np.ndarray) -> np.ndarray:
    """Per-trial detuning from field-angle jitter, evaluated exactly at the
    trap center."""
    e = field.focus_jet()[0]
    phi = env.field.phi_deg

    def du_at(phi_deg):
        return differential_shift_from_projection(
            table, env.tweezer.wavelength_nm, *axis_projection(e, phi_deg))

    return 2.0 * math.pi * (du_at(phi + phi_dev_deg) - du_at(phi))


def _block_stats(p, stats):
    """Mean and sum of squared deviations over the trials of a (points,
    trials) slab into stats[0] and stats[1]; p is overwritten."""
    np.mean(p, axis=1, out=stats[0])
    p -= stats[0][:, None]
    np.square(p, out=p).sum(axis=1, out=stats[1])


def _merge_blocks(stats, trials):
    """Mean and m2 of all trials from the (mean, m2) rows of consecutive
    blocks of _TRIAL_BLOCK trials, merged by Welford/Chan in block order:
    exact zero variance for identical trials, unlike sum/sum-of-squares
    cancellation."""
    (mean, m2), n = stats[0], min(trials, _TRIAL_BLOCK)
    for bm, bm2 in stats[1:]:
        nb = min(trials - n, _TRIAL_BLOCK)
        n0, n = n, n + nb
        d = bm - mean
        mean = mean + d * (nb / n)
        m2 = m2 + bm2 + d * d * (n0 * nb / n)
    return mean, m2


# Pulse protocols as segment lists of (kind, size, laser phase, detuning
# set). A "pulse" rotates by the nominal angle ``size`` (duration
# size / Omega, or an ideal rotation with instantaneous pulses); a "free"
# segment lasts ``size`` times the grid time. The phase "fringe" is the
# Ramsey phase reset -2 pi f_fr t. Detuning set 1 is a fresh draw when the
# detuning fluctuates, else set 0 again.
RAMSEY = (("pulse", math.pi / 2, 0.0, 0),
          ("free", 1.0, 0.0, 0),
          ("pulse", math.pi / 2, "fringe", 0))
ECHO = (("pulse", math.pi / 2, 0.0, 0),
        ("free", 0.5, 0.0, 0),
        ("pulse", math.pi, math.pi / 2, 1),
        ("free", 0.5, 0.0, 1),
        ("pulse", math.pi / 2, "fringe", 1))


@functools.lru_cache(maxsize=None)
def _pulse_plan(segments):
    """Expansion of the final 3P2 amplitude of a pulse/free protocol over
    bit strings, grouped by phase.

    A path fixes the state s (0 = 3P0, 1 = 3P2) after each pulse, the last
    one 1. A pulse at laser phase theta contributes the element
    U0[s', s] e^{i theta (s' - s)}, and a free segment in state s the phase
    s * delta * size * t, so a path's phase is an integer combination of
    the phase variables: the free segments, in order, then the fringe.
    Paths with the same combination add into one term. Returns (pulses,
    frees, terms, harmonics): (size, set) of each pulse and free segment;
    per term its paths as ((s', s) per pulse, constant phase factor); and
    per harmonic d = n_q - n_p (first nonzero entry positive) the term
    pairs (p, q) whose combinations differ by d.
    """
    pulses = tuple((size, dset) for kind, size, _, dset in segments
                   if kind == "pulse")
    frees = tuple((size, dset) for kind, size, _, dset in segments
                  if kind == "free")
    terms = {}
    for bits in itertools.product((0, 1), repeat=len(pulses) - 1):
        states = iter(bits + (1,))
        s, f, phase = 0, 0, 0.0
        steps, coef = [], [0] * (len(frees) + 1)
        for kind, _, phi_l, _ in segments:
            if kind == "free":
                coef[f] = s
                f += 1
                continue
            s_new = next(states)
            steps.append((s_new, s))
            if phi_l == "fringe":
                coef[-1] += s_new - s
            else:
                phase += phi_l * (s_new - s)
            s = s_new
        terms.setdefault(tuple(coef), []).append(
            (tuple(steps), complex(math.cos(phase), math.sin(phase))))
    coefs = list(terms)
    harmonics = {}
    for q, nq in enumerate(coefs):
        for p, np_ in enumerate(coefs[:q]):
            d = tuple(a - b for a, b in zip(nq, np_))
            if next(x for x in d if x) > 0:
                harmonics.setdefault(d, []).append((p, q))
            else:
                harmonics.setdefault(tuple(-x for x in d), []).append((q, p))
    return (pulses, frees, tuple(tuple(paths) for paths in terms.values()),
            tuple((d, tuple(pairs)) for d, pairs in harmonics.items()))


def _pulse_coefficients(plan, omega_rad_s, f_fringe_hz, instantaneous_pulses,
                        omegas, deltas):
    """Per trial, P(3P2)(t) = K + sum_d amp_d cos(w_d t + phi_d): returns K
    and the (amp, w, phi) of each harmonic, every one of shape (trials,)."""
    pulses, frees, terms, harmonics = plan
    n, sets = omegas.size, deltas.shape[0]
    elems = []
    for size, dset in pulses:
        if instantaneous_pulses:
            elems.append(_su2_elements(1.0, 0.0, size))
        else:
            elems.append(_su2_elements(omegas, deltas[min(dset, sets - 1)],
                                       size / omega_rad_s))

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
        out.append(tuple(np.broadcast_to(x, (n,))
                         for x in (np.abs(c), w, np.angle(c))))
    return np.broadcast_to(k, (n,)), out


def _drive_coefficients(omegas, deltas):
    """Rabi: K and the one harmonic (-K, Omega_eff, 0) at the set-0
    detunings, K = Omega^2 / (2 Omega_eff^2), each of shape (trials,);
    Omega/Omega_eff is 1 at Omega_eff = 0, where P is 0."""
    om_eff = np.hypot(omegas, deltas[0])
    k = 0.5 * np.divide(omegas, om_eff, out=np.ones_like(om_eff),
                        where=om_eff > 0) ** 2
    return k, [(-k, om_eff, np.zeros_like(k))]


def _chunk_grid(t):
    """Split the time grid into runs t_j = s_c + m * step, m < R ~ sqrt(T),
    of one common step, so that cos(w t + phi) follows by angle addition
    from C + R angles per trial instead of T.

    Consecutive points whose spacing matches the median step to rounding
    form segments, cut into runs of R points. A point is accepted when it
    lies within 4 ulp of s_c + m * step, so the phase moves by no more
    than the rounding of w t itself; the rest are evaluated directly.
    Returns (starts, offsets, cell, direct): the run starts (C,), m * step
    (R,), the flat (c, m) cell of each grid point and the indices of the
    direct points; None when the split would not save trig calls.
    """
    size = t.size
    r = math.isqrt(size - 1) + 1 if size > 1 else 1
    if 4 * r >= size:  # not even one unbroken run would save trig calls
        return None
    dt = np.diff(t)
    step = float(np.sort(dt)[dt.size // 2])  # np.median would load numpy.ma
    tol = 8.0 * np.spacing(np.abs(t).max())
    begins = np.insert(np.flatnonzero(np.abs(dt - step) > tol) + 1, 0, 0)
    lengths = np.diff(begins, append=size)
    # refine the step over the longest segment: errors of t enter / length
    b = int(begins[np.argmax(lengths)])
    e = b + int(lengths.max()) - 1
    if e > b:
        step = float((t[e] - t[b]) / (e - b))
    m = (np.arange(size) - np.repeat(begins, lengths)) % r
    head = m == 0
    run = np.cumsum(head) - 1
    starts = t[head]
    offsets = np.arange(r) * step
    miss = np.abs(t - (starts[run] + offsets[m])) > 4.0 * np.spacing(
        np.abs(t))
    direct = np.flatnonzero(miss)
    if 2 * (starts.size + r) + direct.size >= size:
        return None
    return starts, offsets, run * r + m, direct


def _grid_parts(t, grid, parts):
    """Cut the grid's cell table into up to ``parts`` ranges of whole runs
    (of cells, on a grid without runs), about equal in size. Returns per
    range its cells as a slice of the table, its run starts, and the times
    and the cells, counted from its first, of its direct points."""
    starts, offsets, cell, direct = grid
    unit = offsets.size or 1  # a grid without runs has a cell per point
    units = starts.size or t.size
    edges = [unit * u for u in sorted({units * i // parts
                                       for i in range(parts + 1)})]
    at = cell[direct]  # increasing, like the cells of the grid's points
    split = np.searchsorted(at, edges)
    return [(slice(c0, c1), starts[c0 // unit:c1 // unit], t[direct[d0:d1]],
             at[d0:d1] - c0)
            for c0, c1, d0, d1 in zip(edges, edges[1:], split, split[1:])]


def _harmonic_sum(k, harmonics, offset_trig, part, bufs):
    """K + sum amp cos(w t + phi) in one slab's cells as a (cells, trials)
    view of bufs[0], trials contiguous: the (C, R, trials) angle addition
    over its runs from their starts and the block's ``offset_trig`` (cos,
    sin of offsets * w per harmonic), then its direct points, evaluated as
    k + h_1 + h_2 + ... into their own cells, products in bufs[1]."""
    cells, starts, t_direct, at = part
    n = k.size
    shape = (starts.size, offset_trig.shape[2], n)
    c, cp = (b[:math.prod(shape)].reshape(shape) for b in bufs)
    for h, ((amp, w, phi), (cos_b, sin_b)) in enumerate(
            zip(harmonics, offset_trig)):
        a = starts[:, None] * w + phi
        # the first harmonic's product goes straight into c
        np.multiply((amp * np.cos(a))[:, None], cos_b, out=cp if h else c)
        if h:
            c += cp
        c -= np.multiply((amp * np.sin(a))[:, None], sin_b, out=cp)
    c += k
    out = bufs[0][:(cells.stop - cells.start) * n].reshape(-1, n)
    if at.size:
        dp = bufs[1][:at.size * n].reshape(-1, n)
        out[at] = k
        for amp, w, phi in harmonics:
            np.multiply(t_direct[:, None], w, out=dp)
            dp += phi
            out[at] += np.multiply(np.cos(dp, out=dp), amp, out=dp)
    return out


def _run_sequence(coefficients, trap, temperature_K, noise: NoiseModel,
                  omega_rad_s, t_grid_s, trials: int, master_seed: int,
                  motional_model: str, detuning_sets: int,
                  field, env, table) -> TraceResult:
    """Draw the trials, add angle jitter, take the protocol's per-trial
    coefficients, evaluate P(3P2) from 3P0 over blocks of trials, apply
    SPAM and accumulate it per cell, which each grid time reads.

    ``coefficients(omegas, deltas)`` maps the Rabi frequencies (trials,)
    and detunings (sets, trials) to (K, harmonics) of
    K + sum_d amp_d cos(w_d t + phi_d). Block b runs on thread b mod n
    (thread 0 is the calling thread), slab by slab of ``_grid_parts``:
    ``_harmonic_sum``, SPAM and the block statistics in place while the
    slab sits in L2. Draws, coefficients, every buffer and the merge stay
    on the calling thread."""
    jitter = noise.phi_jitter_std_deg > 0
    if jitter and any(x is None for x in (field, env, table)):
        raise ValueError(
            "phi_jitter_std_deg > 0 needs the field context (field, env, "
            "table) to map angle jitter onto shifts")
    t = np.asarray(t_grid_s, dtype=float)
    deltas, om_f, phi_dev = _draw_trials(trap, temperature_K, noise, trials,
                                         master_seed, motional_model,
                                         detuning_sets=detuning_sets)
    if jitter:
        deltas = deltas + _phi_noise_delta_rad_s(field, env, table, phi_dev)
    k, harmonics = coefficients(omega_rad_s * om_f, deltas)
    grid = _chunk_grid(t) or (t[:0], t[:0], np.arange(t.size),
                              np.arange(t.size))
    starts, offsets, cell, _ = grid
    # C runs of R cells, or a cell per point on a grid without runs
    cells = starts.size * offsets.size or t.size
    block = min(trials, _TRIAL_BLOCK)
    slabs = _grid_parts(t, grid, max(1, -(-cells * 8 * block
                                          // _SLAB_BYTES)))
    # per block: (mean, m2) over its trials in each cell
    stats = np.empty((-(-trials // _TRIAL_BLOCK), 2, cells))
    n = max(1, min(_cpu_count(), len(stats), t.size // _PART_POINTS))
    # a slab's cells and their products
    width = max((cols.stop - cols.start for cols, *_ in slabs), default=0)
    bufs = np.empty((n, 2, width * block))
    trig = np.empty((n, len(harmonics) * 2 * offsets.size * block))
    errors = [None] * n

    def run_blocks(i):
        try:
            for b in range(i, len(stats), n):
                sl = slice(b * _TRIAL_BLOCK, (b + 1) * _TRIAL_BLOCK)
                kb, hb = k[sl], [tuple(x[sl] for x in h) for h in harmonics]
                shape = (len(hb), 2, offsets.size, kb.size)
                offset_trig = trig[i, :math.prod(shape)].reshape(shape)
                for (_, w, _), (cos_b, sin_b) in zip(hb, offset_trig):
                    np.multiply(offsets[:, None], w, out=sin_b)
                    np.cos(sin_b, out=cos_b)
                    np.sin(sin_b, out=sin_b)
                for part in slabs:
                    p = _harmonic_sum(kb, hb, offset_trig, part, bufs[i])
                    _block_stats(apply_spam(p, noise, out=p),
                                 stats[b, :, part[0]])
        except BaseException as exc:  # raised again on the calling thread
            errors[i] = exc

    threads = [threading.Thread(target=run_blocks, args=(i,))
               for i in range(1, n)]
    try:
        for thread in threads:
            thread.start()
        run_blocks(0)
    finally:
        for thread in threads:
            if thread.ident is not None:  # started
                thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    mean, m2 = (x[cell] for x in _merge_blocks(stats, trials))
    sem = (np.sqrt(m2 / (trials - 1) / trials) if trials > 1
           else np.zeros_like(mean))
    return TraceResult(t_s=t, p32_mean=np.clip(mean, 0.0, 1.0), p32_sem=sem)


def simulate_rabi(trap, temperature_K, noise: NoiseModel, omega_rad_s,
                  t_grid_s, trials: int, master_seed: int,
                  motional_model: str = "fock",
                  field=None, env=None, table=None) -> TraceResult:
    """Continuous drive from 3P0: per trial a motional sample sets the
    detuning, the Rabi amplitude jitters shot to shot, and P(3P2)(t) is
    averaged; SPAM is applied to the ensemble."""
    return _run_sequence(_drive_coefficients, trap, temperature_K, noise,
                         omega_rad_s, t_grid_s, trials, master_seed,
                         motional_model, 1, field, env, table)


def simulate_ramsey(trap, temperature_K, noise: NoiseModel, omega_rad_s,
                    f_fringe_hz, t_r_grid_s, trials: int, master_seed: int,
                    motional_model: str = "fock",
                    instantaneous_pulses: bool = False,
                    field=None, env=None, table=None) -> TraceResult:
    """pi/2 -- free(t_R) -- pi/2 with the second pulse at
    phi_L = -2 pi f_fr t_R. Pulse durations are pi/(2 Omega_nominal); the
    per-trial Rabi amplitude and detuning act during the pulses unless
    ``instantaneous_pulses`` (oracle mode) is set."""
    coefficients = functools.partial(
        _pulse_coefficients, _pulse_plan(RAMSEY), omega_rad_s, f_fringe_hz,
        instantaneous_pulses)
    return _run_sequence(coefficients, trap, temperature_K, noise,
                         omega_rad_s, t_r_grid_s, trials, master_seed,
                         motional_model, 1, field, env, table)


def simulate_echo(trap, temperature_K, noise: NoiseModel, omega_rad_s,
                  f_fringe_hz, t_grid_s, trials: int, master_seed: int,
                  motional_model: str = "fock",
                  instantaneous_pulses: bool = False,
                  fluctuating_detuning: bool = False,
                  field=None, env=None, table=None) -> TraceResult:
    """pi/2 -- t/2 -- pi(+y) -- t/2 -- pi/2(phi_L = -2 pi f_fr t).

    Shot-static detunings refocus exactly. With ``fluctuating_detuning``
    the motional sample and detuning offset are redrawn for the second
    half (and the closing pulses), modeling a correlation time shorter
    than the sequence."""
    coefficients = functools.partial(
        _pulse_coefficients, _pulse_plan(ECHO), omega_rad_s, f_fringe_hz,
        instantaneous_pulses)
    return _run_sequence(coefficients, trap, temperature_K, noise,
                         omega_rad_s, t_grid_s, trials, master_seed,
                         motional_model, 2 if fluctuating_detuning else 1,
                         field, env, table)


def ramsey_burst_grid(t2_guess_s: float, f_fringe_hz: float,
                      n_windows: int = 9, points_per_window: int = 28,
                      window_periods: float = 5.0,
                      span_factor: float = 2.5) -> np.ndarray:
    """Free-evolution grid of fringe-sampling bursts.

    Bursts of ``points_per_window`` points, each ``window_periods`` fringe
    periods long, are placed at window-aligned positions from 0 out to
    ``span_factor * t2_guess_s`` so that contrast extraction with the same
    ``window_periods`` puts one burst per window.

    With a trusted prior, ``span_factor`` near 1.5 keeps the fit on the
    decay itself; motional-ladder envelopes level off past the decay (a
    finite weight sits in the motional ground state) and sampling that
    shoulder biases a Gaussian envelope fit upward."""
    if t2_guess_s <= 0 or f_fringe_hz <= 0:
        raise ValueError("t2 guess and fringe frequency must be positive")
    if n_windows < 2 or points_per_window < 6:
        raise ValueError("need >= 2 windows and >= 6 points per window")
    width = window_periods / f_fringe_hz
    span = span_factor * t2_guess_s
    if span < n_windows * width:
        # T2 so short that the windows tile the span contiguously
        starts = np.arange(n_windows) * width
    else:
        raw = np.linspace(0.0, span - width, n_windows)
        starts = np.round(raw / width) * width
    offsets = (np.arange(points_per_window) / points_per_window) * width
    return (starts[:, None] + offsets[None, :]).ravel()

