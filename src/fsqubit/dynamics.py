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
on the trial alone. Carried through the segments from 3P0, the amplitude
splits by state and by the integer combination d of the phase variables
its phase is linear in t with: each free segment spent in 3P2 (slope delta
times the free fraction) and the fringe (-2 pi f_fr), both set by the
trial. P(3P2) of a trial is therefore K + sum_d Re(c_d e^{i w_d t})
with trial-only K, complex c_d and w_d: one harmonic for Ramsey, four for
the echo, and one for a single drive (Rabi), (Omega sin(Omega_eff t/2) /
Omega_eff)^2 = K - K cos(Omega_eff t), c = -K real. Each e^{i w t} is
evaluated by angle addition over pieces of equally spaced times, with the
trig by recurrence: one cos/sin pair per trial for the step and one per
piece head, powers for the rest, in complex128 tables filled by numpy's
complex multiply. Each grid point reads a cell of a table of C heads by J
offsets within 4 ulp of its own time; a point further off its piece heads
a one-cell row of its own and reads its offset-0 cell (every point does on
a grid without pieces, J = 1).
Each protocol hands the one Monte-Carlo engine a function from the trial
draws to these coefficients: draws -> coefficients -> replicate sums per
cell -> SPAM on the replicate means of each point; a grid's run plan is
cached by its bytes.

SPAM convention: unprepared population stays in the dark manifold and
contributes zero signal; readout infidelity scales multiplicatively. The
observed population is therefore eta_prep * F_read * P_ideal with no
additive offset.

Trial draws are a randomly shifted Kronecker sequence: trial k is point
i = k // Q of replicate r = k % Q, Q = _REPLICATES, and its uniform in
slot j is (m52 + 0.5) 2^-52, m52 the top 52 bits of s_rj + (i + 1) a_j
(mod 2^64), with the steps a_j of _KRONECKER_STEPS and ten shifts s_rj
per replicate from the master seed. Slots are fixed: 0-2 motion and 3
detuning offset (set 0), 4 Rabi factor, 5 angle jitter, 6-9 the second
detuning set. Each uniform is a pure function of (seed, trial, slot), so
results are reproducible bit for bit and independent of the trial count;
p32_sem is the spread of the Q replicate means (t tails, Q - 1 degrees
of freedom). Only linear sums of the per-trial populations are kept, so
no (trial, time) array is formed: the coefficients are laid out
replicate-major, padded with zero-coefficient trials to a multiple of Q,
and per block of at most 512 trials, fewer where its trig tables would
pass _BLOCK_BYTES, the replicate sums of every cell are one stacked
matrix product of the real and imaginary parts of
c e^{i w (s_c + k R step)} over each head's columns by those of
e^{-i r step w} over the rows, added to the total in block order; sum K
is added per replicate. The block's tables are allocated once per call.
The range guard sits where values are formed: each trial's pulse
elements are certified unitary (the drive's K in [0, 1/2]), every
coefficient finite, and SPAM checks the replicate means. No Python
thread runs; BLAS's own thread count changes no value.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .params import NoiseModel
from .special import ndtri
from .trapmodel import (angle_detuning, detuning_for_sample,
                        sample_fock_thermal, sample_position_classical)

# trials in a block (memory / determinism unit) where its trig tables fit
# in _BLOCK_BYTES; wider cell tables take fewer
_TRIAL_BLOCK = 512
_BLOCK_BYTES = 2 ** 20
# Cost of a block's tables per trial and harmonic, in ns at a full block
# (measured on a 2-CPU AVX-512 Xeon): a cos/sin pair of a head's phase
# (large arguments), a cell of products, a doubling level (its fixed numpy
# calls) and a cell of the matrix product
_NS_START, _NS_POWER, _NS_LEVEL, _NS_SUM = 30, 5, 21, 0.12


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


def apply_spam(p_ideal, noise: NoiseModel):
    """Observed population: eta_prep * F_read * P_ideal (dark-manifold
    convention, zero additive offset), in a new array."""
    p = np.asarray(p_ideal, dtype=float)
    lo, hi = (p.min(), p.max()) if p.size else (0.0, 0.0)
    # written so that a NaN fails both comparisons
    if not (lo >= -1e-12 and hi <= 1 + 1e-12):
        raise ValueError("ideal populations must lie in [0, 1]")
    out = np.clip(p, 0.0, 1.0)
    # in place: a second (32, T) array for the product made this step
    # about 6x slower (T = 801, 2-CPU x86-64, numpy 2.4)
    out *= noise.spam_scale
    return float(out) if np.ndim(p_ideal) == 0 else out


@dataclass(frozen=True)
class TraceResult:
    """Ensemble-averaged protocol trace."""

    t_s: np.ndarray
    p32_mean: np.ndarray
    p32_sem: np.ndarray

    def __post_init__(self) -> None:
        if not (np.ndim(self.t_s) == 1 and np.shape(self.t_s)
                == np.shape(self.p32_mean) == np.shape(self.p32_sem)):
            raise ValueError("t_s, p32_mean and p32_sem must be 1-d arrays "
                             "of one length")
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


# Kronecker steps a_j = floor(alpha_j 2^64) | 1, alpha_j = phi^-(j + 1),
# phi the positive root of x^11 = x + 1 (M. Roberts, "The unreasonable
# effectiveness of quasirandom sequences", 2018), odd so as to wrap exactly
_KRONECKER_STEPS = np.array([
    0xefa239aadff080ff, 0xe0504e7a17640707, 0xd1f91e9d401f2cd3,
    0xc48ca286cd4c4b4d, 0xb7fbd901347b3e45, 0xac38b6695442df75,
    0xa13614fb593f897d, 0x96e7a62094fc418f, 0x8d41e4add988ea91,
    0x843a0802f95827ad], dtype=np.uint64)
_REPLICATES = 32  # random shifts (Cranley & Patterson 1976), divide 512


def _to_unit(words):
    # top 52 bits of each 64-bit word, centred in their cell: exact in a
    # double and strictly inside (0, 1)
    return ((words >> np.uint64(12)).astype(float) + 0.5) * 2.0 ** -52


def _trial_uniforms(master_seed: int, trials: int, slots: int) -> np.ndarray:
    """Uniforms u[k, j] in (0, 1) for trial k and slot j; the shifts are
    the first 10 Q words of PCG64(SeedSequence(master_seed)), ten per
    replicate whatever ``slots`` is. uint64 arrays wrap without a warning."""
    shifts = np.random.PCG64(master_seed).random_raw(
        _REPLICATES * _KRONECKER_STEPS.size).reshape(_REPLICATES, -1)
    points = np.arange(1, -(-trials // _REPLICATES) + 1, dtype=np.uint64)
    # (slot, point, replicate): trials run along the last two axes
    words = ((_KRONECKER_STEPS[:slots, None] * points)[:, :, None]
             + shifts.T[:slots, None, :])
    return _to_unit(words).reshape(slots, -1)[:, :trials].T


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


def _replicate_stats(sums, trials, noise: NoiseModel):
    """Mean over all trials and its standard error from the
    (_REPLICATES, points) sums of ideal populations: SPAM on each
    replicate mean, then their trial-weighted mean and their sd over
    sqrt(replicates)."""
    reps = min(trials, _REPLICATES)
    # replicate r holds the trials k < trials with k % _REPLICATES == r
    counts = ((trials - 1 - np.arange(reps)) // _REPLICATES + 1)[:, None]
    means = apply_spam(sums[:reps] / counts, noise)
    sem = (means.std(axis=0, ddof=1) / math.sqrt(reps) if reps > 1
           else np.zeros(sums.shape[1]))
    return (means * counts).sum(axis=0) / trials, sem


def _certify(ok) -> None:
    """Raise unless every entry of ``ok`` holds: the per-trial coefficients
    keep each trial's P(3P2) in [0, 1] at every time."""
    if not np.all(ok):
        raise ValueError("ideal populations must lie in [0, 1]")


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


def _pulse_coefficients(segments, omega_rad_s, f_fringe_hz,
                        instantaneous_pulses, omegas, deltas):
    """Per trial, P(3P2)(t) = K + sum_d Re(c_d e^{i w_d t}): returns K and
    the (c, w) of each harmonic, c complex, every one of shape (trials,).

    One amplitude per (state s, combination d) is carried through the
    segments from 3P0 at 1; d counts the phase variables (the free
    segments, in order, then the fringe) in its phase. A free segment in
    3P2 enters d; a pulse at laser phase theta takes s to s' with
    U0[s', s] e^{i theta (s' - s)}, the fringe's theta entering d. The 3P2
    amplitudes a after the last pulse pair into harmonics
    d = d_q - d_p (first nonzero entry positive), c = sum 2 a_q conj(a_p)
    over (q, p < q). Visiting s' = 0 before 1 fixes their order, which
    sets the engine's block layout and so a trace's bytes.
    """
    n, sets = omegas.size, deltas.shape[0]
    # one SU(2) evaluation per distinct (pulse area, detuning set)
    keys = [(size, 0 if instantaneous_pulses else min(dset, sets - 1))
            for kind, size, _, dset in segments if kind == "pulse"]
    su2 = {key: _su2_elements(1.0, 0.0, key[0]) if instantaneous_pulses
           else _su2_elements(omegas, deltas[key[1]], key[0] / omega_rad_s)
           for key in dict.fromkeys(keys)}
    # unitary elements keep every amplitude, so P(3P2) at any t, in [0, 1]
    for u00, coupling, _ in su2.values():
        _certify(np.abs(np.abs(u00) ** 2 + np.abs(coupling) ** 2 - 1.0)
                 <= 1e-12)
    slopes = [deltas[min(dset, sets - 1)] * size
              for kind, size, _, dset in segments if kind == "free"]
    slopes.append(-2.0 * math.pi * f_fringe_hz)
    amps, free = {(0, (0,) * len(slopes)): 1 + 0j}, 0
    for kind, _, phi_l, _ in segments:
        if kind == "free":
            amps = {(s, d[:free] + (s,) + d[free + 1:]): amp
                    for (s, d), amp in amps.items()}
            free += 1
            continue
        u00, coupling, u11 = su2[keys.pop(0)]
        step = {}
        for (s, d), amp in amps.items():
            # only 3P2 is kept after the last pulse
            for s_new in (0, 1) if keys else (1,):
                turn = s_new - s
                if phi_l == "fringe":
                    key, theta = (s_new, d[:-1] + (d[-1] + turn,)), 0.0
                else:
                    key, theta = (s_new, d), phi_l * turn
                x = (amp * complex(math.cos(theta), math.sin(theta))
                     if theta else amp)
                x = x * (coupling if turn else u11 if s else u00)
                step[key] = step[key] + x if key in step else x
        amps = step
    terms = [(d, amp) for (_, d), amp in amps.items()]
    k = sum(np.abs(amp) ** 2 for _, amp in terms)
    harmonics, zero = {}, (0,) * len(slopes)
    for q, (dq, aq) in enumerate(terms):
        for dp, ap in terms[:q]:
            d = tuple(map(operator.sub, dq, dp))
            # tuples compare lexicographically: d's first nonzero entry > 0
            if d > zero:
                c = 2.0 * aq * np.conj(ap)
            else:
                d, c = tuple(map(operator.neg, d)), 2.0 * ap * np.conj(aq)
            harmonics[d] = harmonics.get(d, 0) + c
    out = []
    for d, c in harmonics.items():
        w = sum(x * slopes[v] for v, x in enumerate(d) if x)
        out.append((np.broadcast_to(c, (n,)), np.broadcast_to(w, (n,))))
    return np.broadcast_to(k, (n,)), out


def _drive_coefficients(omegas, deltas):
    """Rabi: K and the one harmonic (c, w) = (-K, Omega_eff), c real, at
    the set-0 detunings, K = Omega^2 / (2 Omega_eff^2), each of shape
    (trials,); Omega/Omega_eff is 1 at Omega_eff = 0, where P is 0.
    0 <= K <= 1/2 keeps P = K - K cos(Omega_eff t) in [0, 1]."""
    om_eff = np.hypot(omegas, deltas[0])
    k = 0.5 * np.divide(omegas, om_eff, out=np.ones_like(om_eff),
                        where=om_eff > 0) ** 2
    _certify((k >= 0) & (k <= 0.5))
    return k, [(-k, om_eff)]


@functools.lru_cache(maxsize=64)
def _table_split(c: int, j: int):
    """How a block evaluates C heads by J offsets: (R, K, cost). The rows
    hold R offsets and each head K columns, R K >= J, with R about
    sqrt(C J) so that both tables stay small. ``cost``, in ns per trial
    and harmonic, ranks splits and plans and is not an absolute time: the
    step's one cos/sin pair, which would add the same to every plan, is
    left out. It is the one cost rule, which also picks a run plan's K and
    whether it has pieces at all. A lone offset (J = 1) is priced alike,
    though it computes no step and no powers."""
    k = -(-j // min(j, math.isqrt(max(c * j - 1, 0)) + 1))
    r = -(-j // k)
    levels = (r - 1).bit_length() + (k - 1).bit_length() + (k > 1)
    return r, k, (_NS_START * c + _NS_POWER * (c * k + r)
                  + _NS_LEVEL * levels + _NS_SUM * c * j)


@functools.lru_cache(maxsize=8)
def _run_plan(key: bytes):
    """Cell table of the grid whose float64 bytes are ``key``: heads (C,),
    offsets (J,) = arange(J) * step and the flat (c, j) cell of each
    point, which reads head c + offset j, so that e^{i w t} follows
    by angle addition from the C + J angles of the heads and offsets
    instead of T. Cached, every array read-only.

    Consecutive points whose spacing matches the median step to rounding
    form segments, each cut into pieces of K R points, R = isqrt(T - 1)
    + 1; a piece hangs off its own first point, its head, so that its
    point m reads head + m step. A point more than 4 ulp from that cell
    heads a one-cell row of its own, after the pieces, so every point
    reads a cell within 4 ulp of its own time: its phase moves by no more
    than the rounding of w t itself. K, and pieces against no pieces (every
    point its own row, J = 1), take the least cost of ``_table_split``;
    grids under 4 R points, which that cost misprices, have no pieces.
    """
    t = np.frombuffer(key)
    size = t.size
    r = math.isqrt(size - 1) + 1 if size > 1 else 1
    # (cost, K) of the plan; K = 0 is no pieces and wins a tie
    best, plan = (_table_split(size, 1)[2], 0), None
    if 4 * r < size:
        dt = np.diff(t)
        # the median step; np.median would load numpy.ma
        step = float(np.sort(dt)[dt.size // 2])
        tol = 8.0 * np.spacing(np.abs(t).max())
        begins = np.insert(np.flatnonzero(np.abs(dt - step) > tol) + 1, 0, 0)
        lengths = np.diff(begins, append=size)
        # refine the step over the longest segment: errors of t enter / length
        b = int(begins[np.argmax(lengths)])
        e = b + int(lengths.max()) - 1
        if e > b:
            step = float((t[e] - t[b]) / (e - b))
        index = np.arange(size)
        pos = index - np.repeat(begins, lengths)
        ks = np.arange(1, -(-int(lengths.max()) // r) + 1)
        pieces = (-(-lengths // (ks[:, None] * r))).sum(axis=1).tolist()

        def floor(c, j):
            # _table_split's cost of c or more rows of j > 1 cells, at
            # least: R + K C >= 2 sqrt(C J) and its levels >= log2(J)
            return (_NS_START * c + 2 * _NS_POWER * math.sqrt(c * j)
                    + _NS_LEVEL * (j - 1).bit_length() + _NS_SUM * c * j)

        # in the order of that floor, until it passes the best cost found
        for low, k in sorted((floor(c, k * r), k)
                             for c, k in zip(pieces, ks.tolist())):
            if (low, k) > best:
                break
            m = pos % (k * r)
            offsets = np.arange(k * r) * step
            direct = np.flatnonzero(np.abs(t - (t[index - m] + offsets[m]))
                                    > 4.0 * np.spacing(np.abs(t)))
            cost = (_table_split(pieces[k - 1] + direct.size, k * r)[2], k)
            if cost < best:
                best, plan = cost, (m, offsets, direct)
    if plan is None:
        starts, offsets, cell = t, np.zeros(1), np.arange(size)
    else:
        m, offsets, direct = plan
        head = m == 0
        cell = (np.cumsum(head) - 1) * offsets.size + m
        cell[direct] = (np.count_nonzero(head)
                        + np.arange(direct.size)) * offsets.size
        starts = np.concatenate([t[head], t[direct]])
    for a in (starts, offsets, cell):
        a.flags.writeable = False
    return starts, offsets, cell


def _replicate_major(xs, points):
    """Arrays (trials,) -> (_REPLICATES, points, len(xs)) of their common
    dtype, trial i Q + r of the h-th at [r, i, h], padded with zeros past
    the last trial."""
    out = np.zeros((points * _REPLICATES, len(xs)), np.result_type(*xs))
    for h, x in enumerate(xs):
        out[:len(x), h] = x
    return out.reshape(points, _REPLICATES, -1).swapaxes(0, 1).copy()


def _scratch(work, name, shape, dtype=float):
    """An uninitialised array of ``shape`` and ``dtype``, carved from the
    buffer ``name`` of the dict ``work``, which grows it as needed; None
    allocates."""
    size = math.prod(shape)
    if work is None:
        return np.empty(shape, dtype)
    if name not in work or work[name].size < size:
        work[name] = np.empty(size, dtype)
    return work[name][:size].reshape(shape)


def _fill_powers(table, b, work):
    """table[q] = table[0] b^q along the first axis of a complex table, by
    doubling: for p = 1, 2, 4, ... the slab [p, 2p) is the slab [0, p)
    times b^p, and b^p squares b^(p/2) in a copy of b; a cell takes at
    most 2 log2(q) + 1 products. The powers axis is outermost, so each
    level reads and writes disjoint contiguous slabs."""
    size, p = len(table), 1
    power = _scratch(work, "power", b.shape, complex)
    power[...] = b
    while p < size:
        m = min(p, size - p)
        np.multiply(table[:m], power, out=table[p:p + m])
        p *= 2
        if p < size:
            np.multiply(power, power, out=power)


def _block_products(starts, offsets, coef, w, work=None):
    """Per replicate, sum over one block's trials of
    Re(coef e^{i w (s_c + o_j)}) in every (c, j) cell, as one stacked
    product of the columns coef e^{i w (s_c + k R step)} over the cells
    (c, k) by the rows e^{-i r step w} over r < R, j = k R + r, with
    (R, K) from ``_table_split``; the offsets must be arange(J) * step, as
    in a run plan. The product takes their float views, so a cell sums
    re re + im im of column and row, which is Re(column / row) for a row
    on the unit circle. ``coef`` and ``w`` hold the (_REPLICATES, n)
    coefficients (complex, or real) and slopes of n trials per replicate,
    the harmonics side by side, as every harmonic is summed alike.
    ``work`` is a dict of buffers reused across calls (None allocates).
    Returns a (_REPLICATES, C, J) array.

    Trig by recurrence: per trial and harmonic one cos/sin pair of -step w
    gives e^(-i step w), its powers (the rows) and Z = e^(i R step w), the
    conjugate of the R-th, and one pair per head its phasor e^(i w s_c),
    times coef the column k = 0; the columns k > 0 are that column times
    Z^k (``_fill_powers``: numpy's complex multiply on complex128 tables).
    The coefficient multiplies the C heads rather than the R rows, fewer
    wherever J >= C, as R is about sqrt(C J). A cell's error stays below
    2 (|w| max(t) + R K) eps |coef|, with eps = 2^-52: the rounding of
    w step and of the start's phase grows with the power to the scale of
    the argument rounding of e^(i w t) itself, and that of the at most
    4 log2(R K) + 4 products stays below R K eps. A lone offset is 0 (a
    grid without pieces, R = K = 1): the row is 1.

    The tables are laid out powers-outermost, rows (R, replicate, trial)
    and columns (K, C, replicate, trial), so that every doubling level runs
    over contiguous slabs; the matrix product reads their float views, re
    and im interleaved along the trials, per replicate as strided views,
    and its (K, C) cells are reordered to (C, K), a copy only where both
    exceed 1.
    """
    c, j = starts.size, offsets.size
    r, k = _table_split(c, j)[:2]
    hn = w.shape[1]
    rows = _scratch(work, "rows", (r, _REPLICATES, hn), complex)
    cols = _scratch(work, "cols", (k, c, _REPLICATES, hn), complex)
    phase = _scratch(work, "phase", (c, _REPLICATES, hn))
    # a block's trials are a strided view of the run's; contiguous, the
    # (C, replicate, trial) loops below run over long inner axes
    w, coef = np.ascontiguousarray(w), np.ascontiguousarray(coef)
    np.multiply(starts[:, None, None], w, out=phase)
    np.cos(phase, out=cols[0].real)
    np.sin(phase, out=cols[0].imag)
    cols[0] *= coef
    rows[0] = 1.0
    if j > 1:
        z = _scratch(work, "z", (_REPLICATES, hn), complex)
        np.multiply(w, -offsets[1], out=phase[0])
        np.cos(phase[0], out=z.real)
        np.sin(phase[0], out=z.imag)
        _fill_powers(rows, z, work)
        if k > 1:
            # Z, the step between a head's columns: the conjugate of
            # rows[R - 1] z, by a multiply of its float view, as numpy 2.4
            # negates a strided view in place wrongly
            np.multiply(rows[r - 1], z, out=z)
            real_z = z.view(float)
            real_z *= np.resize((1.0, -1.0), 2 * hn)
            _fill_powers(cols, z, work)
    real_rows = rows.view(float)
    real_cols = cols.view(float).reshape(k * c, _REPLICATES, 2 * hn)
    sums = np.matmul(real_cols.transpose(1, 0, 2),
                     real_rows.transpose(1, 2, 0))
    return sums.reshape(_REPLICATES, k, c, r).swapaxes(1, 2).reshape(
        _REPLICATES, c, k * r)[:, :, :j]


def _run_sequence(coefficients, trap, temperature_K, noise: NoiseModel,
                  omega_rad_s, t_grid_s, trials: int, master_seed: int,
                  motional_model: str, detuning_sets: int,
                  field, env, table) -> TraceResult:
    """Draw the trials, add angle jitter, take the protocol's per-trial
    coefficients and sum P(3P2) from 3P0 per replicate in every cell, which
    each grid time reads; SPAM acts on the replicate means.

    ``coefficients(omegas, deltas)`` maps the Rabi frequencies (trials,)
    and detunings (sets, trials) to (K, harmonics) of
    K + sum_d Re(c_d e^{i w_d t}), each harmonic a (c, w) pair. The
    coefficients are laid out replicate-major, and blocks of
    ``_block_products`` enter the (_REPLICATES, C, J) sums in trial order;
    sum K per replicate is added to every cell last."""
    if not (0 <= omega_rad_s < math.inf and 0 <= temperature_K < math.inf):
        raise ValueError("Rabi frequency and temperature must be finite "
                         "and >= 0")
    jitter = noise.phi_jitter_std_deg > 0
    if jitter and any(x is None for x in (field, env, table)):
        raise ValueError(
            "phi_jitter_std_deg > 0 needs the field context (field, env, "
            "table) to map angle jitter onto shifts")
    t = np.asarray(t_grid_s, dtype=float)
    if t.ndim != 1 or not np.isfinite(t).all():
        raise ValueError("the time grid must be a 1-d array of finite times")
    deltas, om_f, phi_dev = _draw_trials(trap, temperature_K, noise, trials,
                                         master_seed, motional_model,
                                         detuning_sets=detuning_sets)
    if jitter:
        deltas = deltas + angle_detuning(field, env, table, phi_dev)
    k, harmonics = coefficients(omega_rad_s * om_f, deltas)
    _certify([np.isfinite(x).all()
              for x in (k, *itertools.chain(*harmonics))])
    starts, offsets, cell = _run_plan(t.tobytes())
    points = -(-trials // _REPLICATES)
    # the harmonics side by side, so that a block's trials of every
    # harmonic are one run of columns
    coef, w = (_replicate_major(x, points) for x in zip(*harmonics))
    # trials per replicate in a block: its columns and rows, 2 per
    # harmonic and trial in each (head, power) cell and row, fit
    # _BLOCK_BYTES
    rows, powers = _table_split(starts.size, offsets.size)[:2]
    trial_bytes = 8 * _REPLICATES * 2 * len(harmonics) * (
        starts.size * powers + rows)
    width = max(1, min(_TRIAL_BLOCK // _REPLICATES,
                       _BLOCK_BYTES // trial_bytes))
    sums = np.zeros((_REPLICATES, starts.size, offsets.size))
    work = {}  # the blocks' tables, freed with this call
    for i in range(0, points, width):
        sl = slice(i, i + width)
        sums += _block_products(
            starts, offsets, coef[:, sl].reshape(_REPLICATES, -1),
            w[:, sl].reshape(_REPLICATES, -1), work)
    sums = sums.reshape(_REPLICATES, -1)[:, cell]
    sums += _replicate_major([k], points)[..., 0].sum(axis=1)[:, None]
    mean, sem = _replicate_stats(sums, trials, noise)
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


def _pulse_protocol(segments, omega_rad_s, f_fringe_hz, instantaneous_pulses):
    """The ``coefficients`` of a pulse protocol for ``_run_sequence``; its
    pulses last size / Omega, so Omega must be positive."""
    if not (0 < omega_rad_s < math.inf and math.isfinite(f_fringe_hz)):
        raise ValueError("pulses need a positive finite Rabi frequency and "
                         "a finite fringe frequency")
    return functools.partial(_pulse_coefficients, segments, omega_rad_s,
                             f_fringe_hz, instantaneous_pulses)


def simulate_ramsey(trap, temperature_K, noise: NoiseModel, omega_rad_s,
                    f_fringe_hz, t_r_grid_s, trials: int, master_seed: int,
                    motional_model: str = "fock",
                    instantaneous_pulses: bool = False,
                    field=None, env=None, table=None) -> TraceResult:
    """pi/2 -- free(t_R) -- pi/2 with the second pulse at
    phi_L = -2 pi f_fr t_R. Pulse durations are pi/(2 Omega_nominal); the
    per-trial Rabi amplitude and detuning act during the pulses unless
    ``instantaneous_pulses`` (oracle mode) is set."""
    coefficients = _pulse_protocol(RAMSEY, omega_rad_s, f_fringe_hz,
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
    coefficients = _pulse_protocol(ECHO, omega_rad_s, f_fringe_hz,
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
    if not (0 < t2_guess_s < math.inf and 0 < f_fringe_hz < math.inf):
        raise ValueError("t2 guess and fringe frequency must be positive "
                         "and finite")
    if n_windows < 2 or points_per_window < 6:
        raise ValueError("need >= 2 windows and >= 6 points per window")
    if not (1 <= window_periods < math.inf and 0 < span_factor < math.inf):
        raise ValueError("window_periods must be >= 1 and span_factor "
                         "positive, both finite")
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

