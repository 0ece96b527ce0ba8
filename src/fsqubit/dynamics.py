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
addition over runs of equally spaced times, and where it pays the trig by
recurrence: one cos/sin pair per trial for the step and one per run
start, powers for the rest. Each grid point reads a cell of a table of C
run starts of J offsets; a point off every run starts a one-cell run of
its own and reads its offset-0 cell (every point does on a grid without
runs, J = 1).
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
replicate-major, padded with zero-amplitude trials to a multiple of Q,
and per block of at most 512 trials, fewer where its trig tables would
pass _BLOCK_BYTES, the replicate sums of every cell are one stacked
matrix product of cos and sin of w (s_c + k R step) + phi over each run
start's columns by amp cos and -amp sin of r step w over the rows,
added to the total in block order; sum K is added per replicate. The
block's tables are allocated once per call. The range guard sits where
values are formed: each trial's pulse elements are certified unitary
(the drive's K in [0, 1/2]), every coefficient finite, and SPAM checks
the replicate means. No Python thread runs; BLAS's own thread count
changes no value.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .atomstark import axis_projection, differential_shift_from_projection
from .params import FieldEnvironment, NoiseModel
from .special import ndtri
from .trapmodel import (detuning_for_sample, sample_fock_thermal,
                        sample_position_classical)

# trials in a block (memory / determinism unit) where its trig tables fit
# in _BLOCK_BYTES; wider cell tables take fewer
_TRIAL_BLOCK = 512
_BLOCK_BYTES = 2 ** 20
# Cost of a block's tables per trial and harmonic, in ns at a full block
# (measured on a 2-CPU AVX-512 Xeon): a cos/sin pair of a run start's phase
# (large arguments) and of an offset's (small ones), a cell of products, a
# doubling level (its fixed numpy calls) and a cell of the matrix product
_NS_START, _NS_OFFSET, _NS_POWER, _NS_LEVEL, _NS_SUM = 30, 12, 5, 21, 0.12


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
    # one SU(2) evaluation per distinct (pulse area, detuning set)
    keys = [(size, 0 if instantaneous_pulses else min(dset, sets - 1))
            for size, dset in pulses]
    su2 = {key: _su2_elements(1.0, 0.0, key[0]) if instantaneous_pulses
           else _su2_elements(omegas, deltas[key[1]], key[0] / omega_rad_s)
           for key in dict.fromkeys(keys)}
    # unitary elements keep every path sum, so P(3P2) at any t, in [0, 1]
    for u00, coupling, _ in su2.values():
        _certify(np.abs(np.abs(u00) ** 2 + np.abs(coupling) ** 2 - 1.0)
                 <= 1e-12)
    elems = [su2[key] for key in keys]

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
    Omega/Omega_eff is 1 at Omega_eff = 0, where P is 0. 0 <= K <= 1/2
    keeps P = K - K cos(Omega_eff t) in [0, 1]."""
    om_eff = np.hypot(omegas, deltas[0])
    k = 0.5 * np.divide(omegas, om_eff, out=np.ones_like(om_eff),
                        where=om_eff > 0) ** 2
    _certify((k >= 0) & (k <= 0.5))
    return k, [(-k, om_eff, np.zeros_like(k))]


def _chunk_grid(t):
    """Split the time grid into runs t_j = s_c + m * step, m < R ~ sqrt(T),
    of one common step, so that cos(w t + phi) follows by angle addition
    from the C + R angles of the run starts and offsets instead of T;
    ``_run_plan`` merges runs whose starts lie on one progression, and
    ``_block_products`` takes the angles by recurrence from one cos/sin
    pair per trial for the step and one per head where that pays.

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


@functools.lru_cache(maxsize=64)
def _table_split(c: int, j: int):
    """How a block evaluates C run starts by J offsets: (R, K, by_powers,
    cost). By powers the rows hold R offsets and each start K columns,
    R K >= J, with R about sqrt(C J) so that both tables stay small;
    directly, R = J and K = 1. ``cost`` is the cheaper route's, in ns per
    trial and harmonic: the one cost rule, which also picks a run plan's
    heads."""
    k = -(-j // min(j, math.isqrt(max(c * j - 1, 0)) + 1))
    r = -(-j // k)
    levels = (r - 1).bit_length() + (k - 1).bit_length() + (k > 1)
    by_powers = (_NS_START * c + _NS_OFFSET + _NS_POWER * (c * k + r)
                 + _NS_LEVEL * levels)
    # a lone offset is 0: the cos columns alone
    direct = _NS_START * c + _NS_OFFSET * j if j > 1 else _NS_START * c / 2
    product = _NS_SUM * c * j
    if by_powers < direct:
        return r, k, True, by_powers + product
    return j, 1, False, direct + product


@functools.lru_cache(maxsize=8)
def _run_plan(key: bytes):
    """Cell table of the grid whose float64 bytes are ``key``: run starts
    (C,), offsets (J,) = arange(J) * step and the flat (c, j) cell of each
    point, which reads s_c + o_j. A direct point starts a run of its own
    and reads its offset-0 cell; on a grid without runs every point does,
    J = 1. Cached, every array read-only.

    The runs of ``_chunk_grid`` whose starts follow a progression
    s_head + q R step, each within 4 ulp as the grid points are, merge:
    K runs of R cells hang off one head, J = K R, and a run start is
    addressed as (head, k) by the cell index alone. K is chosen by the cost
    rule of ``_table_split`` over whole progressions cut every K runs;
    K = 1 keeps ``_chunk_grid``'s runs.
    """
    t = np.frombuffer(key)
    grid = _chunk_grid(t)
    if grid is None:
        starts, offsets, cell = t, np.zeros(1), np.arange(t.size)
    else:
        run_starts, offsets, cell, direct = grid
        r, step = offsets.size, float(offsets[1])
        # place of each run start on its progression
        pos = np.zeros(run_starts.size, dtype=np.int64)
        head = 0
        for c in range(1, run_starts.size):
            if (abs(run_starts[c] - (run_starts[head] + (c - head) * r * step))
                    <= 4.0 * np.spacing(abs(run_starts[c]))):
                pos[c] = c - head
            else:
                head = c
        ends = np.append(np.flatnonzero(pos == 0)[1:], pos.size) - 1
        lengths = pos[ends] + 1
        # runs per head: whole progressions cut every k runs, the cheapest
        k = min(range(1, int(lengths.max()) + 1), key=lambda q: _table_split(
            int((-(-lengths // q)).sum()) + direct.size, q * r)[3])
        first = pos % k == 0
        heads = np.cumsum(first) - 1
        run, m = np.divmod(cell, r)
        cell = (heads[run] * k + pos[run] % k) * r + m
        cell[direct] = (heads[-1] + 1 + np.arange(direct.size)) * k * r
        starts = np.concatenate([run_starts[first], t[direct]])
        offsets = np.arange(k * r) * step
    for a in (starts, offsets, cell):
        a.flags.writeable = False
    return starts, offsets, cell


def _replicate_major(xs, points):
    """Arrays (trials,) -> (_REPLICATES, points, len(xs)), trial i Q + r
    of the h-th at [r, i, h], padded with zeros past the last trial."""
    out = np.zeros((points * _REPLICATES, len(xs)))
    for h, x in enumerate(xs):
        out[:len(x), h] = x
    return out.reshape(points, _REPLICATES, -1).swapaxes(0, 1).copy()


def _scratch(work, name, shape):
    """An uninitialised array of ``shape``, carved from the buffer ``name``
    of the dict ``work``, which grows it as needed; None allocates."""
    size = math.prod(shape)
    if work is None:
        return np.empty(shape)
    if name not in work or work[name].size < size:
        work[name] = np.empty(size)
    return work[name][:size].reshape(shape)


def _cmul(a, b, out, tmp):
    """out = a b for complex numbers held as (re, im) pairs on the last
    axis; ``b`` is wide: b.re and b.im stacked, each repeated over that
    axis, so that every product runs over contiguous memory. tmp is
    scratch of out's shape; out overlaps neither a nor b."""
    np.multiply(a, b[0], out=out)
    np.multiply(a, b[1], out=tmp)
    out[..., 0] -= tmp[..., 1]
    out[..., 1] += tmp[..., 0]


def _fill_powers(table, wide, work):
    """table[:, q] = table[:, 0] b^q along axis 1, b given wide, by
    doubling: for p = 1, 2, 4, ... the cells [p, 2p) are the cells [0, p)
    times b^p, and b^p squares b^(p/2); a cell takes at most
    2 log2(q) + 1 products."""
    size, p = table.shape[1], 1
    squares = _scratch(work, "squares", (2,) + wide.shape)
    while p < size:
        out = table[:, p:2 * p]
        _cmul(table[:, :out.shape[1]], wide, out,
              _scratch(work, "tmp", out.shape))
        p *= 2
        if p < size:
            # b^p from b^(p/2), into the square buffer not being read
            (re, im), wide = wide, squares[p.bit_length() % 2]
            np.multiply(re, re, out=wide[0])
            np.multiply(im, im, out=wide[1])
            wide[0] -= wide[1]
            np.multiply(re, im, out=wide[1])
            wide[1] += wide[1]


def _block_products(starts, offsets, harmonics, work=None):
    """Per replicate, sum over one block's trials of
    sum_h amp cos(w (s_c + o_j) + phi) in every (c, j) cell, as one
    stacked product of the columns cos, sin(w (s_c + k R step) + phi) over
    the cells (c, k) by the rows amp cos(r step w), -amp sin(r step w) over
    r < R, j = k R + r, with (R, K) from ``_table_split``; the offsets must
    be arange(J) * step, as in a run plan. ``harmonics`` holds per
    harmonic the (_REPLICATES, 2, n) signed amplitudes (amp, -amp), w and
    phi (_REPLICATES, n) of n trials per replicate; as every harmonic is
    summed alike, they may come merged into one. ``work`` is a dict of
    buffers reused across calls (None allocates). Returns a
    (_REPLICATES, C, J) view.

    Trig by recurrence, where ``_table_split`` finds that it pays: per
    trial and harmonic one cos/sin pair of step w gives z = e^(i step w),
    its powers z^r (the rows) and Z = z^R, and one pair per run start its
    phasor e^(i (w s_c + phi)), the column k = 0; the columns k > 0 are
    that phasor times Z^k (``_fill_powers``: real products of (re, im)
    pairs). A cell's error stays below c (|w| max(t) + R K) eps amp, with
    c = 2 and eps = 2^-52: the rounding of w step and of the start's phase
    grows with the power to the scale of the direct route's own argument
    rounding, and that of the at most 4 log2(R K) + 3 products stays below
    R K eps. Otherwise every start and offset takes its own pair; a lone
    offset is 0 (a grid without runs), where the sin terms vanish.

    By powers the tables are laid out (cell, replicate, trial, re/im), so
    that the products run over contiguous memory; each replicate's matrix
    is a strided view for the matrix product.
    """
    c, j = starts.size, offsets.size
    r, k, by_powers = _table_split(c, j)[:3]
    signed, w, phi = (harmonics[0] if len(harmonics) == 1 else
                      [np.concatenate(x, axis=-1) for x in zip(*harmonics)])
    hn = w.shape[1]
    if not by_powers:
        # run starts along the last axis, the long contiguous one
        parts = 1 if j == 1 else 2
        rows = _scratch(work, "rows", (_REPLICATES, j, parts, hn))
        cols = _scratch(work, "cols", (_REPLICATES, parts, hn, c))
        a = w[:, :, None] * starts
        a += phi[:, :, None]
        b = offsets[:, None] * w[:, None, :]
        for i, f in enumerate((np.cos, np.sin)[:parts]):
            f(a, out=cols[:, i])
            np.multiply(f(b), signed[:, None, i], out=rows[:, :, i])
        return np.matmul(rows.reshape(_REPLICATES, j, parts * hn),
                         cols.reshape(_REPLICATES, parts * hn, c)
                         ).swapaxes(1, 2)
    rows = _scratch(work, "rows", (1, r, _REPLICATES, hn, 2))
    cols = _scratch(work, "cols", (c, k, _REPLICATES, hn, 2))
    phase = _scratch(work, "phase", (c, _REPLICATES, hn))
    np.multiply(starts[:, None, None], w, out=phase)
    phase += phi
    np.cos(phase, out=cols[:, 0, ..., 0])
    np.sin(phase, out=cols[:, 0, ..., 1])
    z = _scratch(work, "z", (2, _REPLICATES, hn, 2))
    np.multiply(w, offsets[1], out=phase[0])
    np.cos(phase[0], out=z[0, ..., 0])
    np.sin(phase[0], out=z[1, ..., 0])
    z[..., 1] = z[..., 0]
    rows[0, 0, ..., 0] = 1.0
    rows[0, 0, ..., 1] = 0.0
    _fill_powers(rows, z, work)
    if k > 1:
        # Z = z^R, the step between a start's columns, made wide
        big_z = _scratch(work, "big_z", z.shape)
        _cmul(rows[0, r - 1], z, big_z[0], _scratch(work, "tmp", z.shape[1:]))
        big_z[1, ..., 0] = big_z[0, ..., 1]
        big_z[..., 1] = big_z[..., 0]
        _fill_powers(cols, big_z, work)
    rows *= np.ascontiguousarray(np.moveaxis(signed, 1, 2))
    return np.matmul(
        cols.reshape(c * k, _REPLICATES, 2 * hn).transpose(1, 0, 2),
        rows.reshape(r, _REPLICATES, 2 * hn).transpose(1, 2, 0)
    ).reshape(_REPLICATES, c, k * r)[:, :, :j]


def _run_sequence(coefficients, trap, temperature_K, noise: NoiseModel,
                  omega_rad_s, t_grid_s, trials: int, master_seed: int,
                  motional_model: str, detuning_sets: int,
                  field, env, table) -> TraceResult:
    """Draw the trials, add angle jitter, take the protocol's per-trial
    coefficients and sum P(3P2) from 3P0 per replicate in every cell, which
    each grid time reads; SPAM acts on the replicate means.

    ``coefficients(omegas, deltas)`` maps the Rabi frequencies (trials,)
    and detunings (sets, trials) to (K, harmonics) of
    K + sum_d amp_d cos(w_d t + phi_d). The coefficients are laid out
    replicate-major, and blocks of ``_block_products`` enter the
    (_REPLICATES, C, R) sums in trial order; sum K per replicate is added
    to every cell last."""
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
    _certify([np.isfinite(x).all()
              for x in (k, *itertools.chain(*harmonics))])
    starts, offsets, cell = _run_plan(t.tobytes())
    points = -(-trials // _REPLICATES)
    # the harmonics side by side, so that a block's trials of every
    # harmonic are one run of columns
    amp, w, phi = (_replicate_major(x, points) for x in zip(*harmonics))
    # (amp, -amp), signs by a multiply: numpy 2.4 negates a strided view
    # in place wrongly
    signed = amp[:, None] * np.array([1.0, -1.0])[:, None, None]
    # trials per replicate in a block: its columns and rows, 2 per
    # harmonic and trial in each (start, power) cell and row, fit
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
            starts, offsets,
            [(signed[:, :, sl].reshape(_REPLICATES, 2, -1),
              w[:, sl].reshape(_REPLICATES, -1),
              phi[:, sl].reshape(_REPLICATES, -1))], work)
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

