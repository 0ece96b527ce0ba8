"""Level shifts of fine-structure states in a polarized light field.

All Hamiltonians are returned as E/h in Hz, in the |J, m_J> basis with m
ascending from -J to +J. The quantization axis is the bias-field direction:
rotations are applied to the polarization vector, never to the angular
momentum matrices.

Polarization vectors are expressed in the tweezer frame
(x = input-polarization axis, y = orthogonal transverse axis,
z = propagation); :func:`polarization_in_field_frame` maps them onto the
field-aligned frame used by :func:`stark_hamiltonian`.
"""

from __future__ import annotations

import csv
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import AU_POLARIZABILITY, H_PLANCK, MU_B_HZ_PER_G, intensity_to_e0sq
from .errors import (
    DegenerateLabeling,
    NonUnitPolarization,
    UnknownState,
    WavelengthOutOfRange,
)
from .params import FieldEnvironment, TweezerConfig

# Hz of energy per a.u. of polarizability per unit of reduced squared field.
E0SQ_AU_HZ = AU_POLARIZABILITY / H_PLANCK

GROUND = "3P0"
EXCITED = "3P2"

_UNIT_TOL = 1e-12
_TERM_RE = re.compile(r"^(\d+)([SPDFGHIK])(\d+)$")
_L_OF = {"S": 0, "P": 1, "D": 2, "F": 3, "G": 4, "H": 5, "I": 6, "K": 7}


def _check_unit(epsilon: np.ndarray) -> np.ndarray:
    eps = np.asarray(epsilon, dtype=complex)
    if eps.shape != (3,):
        raise NonUnitPolarization("polarization must be a complex 3-vector")
    norm = float(np.linalg.norm(eps))
    if abs(norm - 1.0) > _UNIT_TOL:
        raise NonUnitPolarization(
            f"polarization norm {norm!r} differs from 1 beyond {_UNIT_TOL}")
    return eps


@dataclass(frozen=True)
class PolarizationVector:
    """Unit polarization vector plus reduced squared field I/(2 eps0 c)."""

    epsilon: np.ndarray
    e0sq: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", _check_unit(self.epsilon))
        if self.e0sq < 0:
            raise ValueError("e0sq must be >= 0")


@dataclass(frozen=True)
class StateInfo:
    """One fine-structure state: term symbol plus tabulated polarizabilities."""

    label: str
    j: int
    g_j: float
    wavelengths_nm: np.ndarray
    alpha_s_au: np.ndarray
    alpha_t_au: np.ndarray


def _parse_term(label: str) -> tuple[int, float]:
    """(J, Lande g_J) from an LS term symbol like '3P2'."""
    m = _TERM_RE.match(label.strip())
    if m is None:
        raise UnknownState(f"cannot parse term symbol {label!r}")
    mult, lchar, jstr = m.groups()
    s = (int(mult) - 1) / 2.0
    l = _L_OF[lchar]
    j = int(jstr)
    if j == 0:
        return 0, 0.0
    g = 1.0 + (j * (j + 1) + s * (s + 1) - l * (l + 1)) / (2.0 * j * (j + 1))
    return j, g


class PolarizabilityTable:
    """Scalar/tensor polarizabilities vs wavelength for a set of states."""

    def __init__(self, states: dict[str, StateInfo]):
        self._states = states

    @classmethod
    def from_csv(cls, path: str | Path) -> "PolarizabilityTable":
        rows: dict[str, list[tuple[float, float, float]]] = {}
        with open(path, newline="") as fh:
            reader = csv.reader(
                line for line in fh if line.strip() and not line.startswith("#"))
            header = next(reader)
            if [h.strip() for h in header] != [
                    "state", "wavelength_nm", "alpha_s_au", "alpha_t_au"]:
                raise ValueError(f"unexpected table header in {path}: {header}")
            for rec in reader:
                state, lam, a_s, a_t = rec
                rows.setdefault(state, []).append(
                    (float(lam), float(a_s), float(a_t)))
        states = {}
        for label, entries in rows.items():
            entries.sort()
            lam, a_s, a_t = (np.array(col) for col in zip(*entries))
            j, g = _parse_term(label)
            states[label] = StateInfo(label, j, g, lam, a_s, a_t)
        return cls(states)

    def state(self, label: str) -> StateInfo:
        try:
            return self._states[label]
        except KeyError:
            raise UnknownState(f"state {label!r} not in table "
                               f"(have {sorted(self._states)})") from None

    def span_nm(self, label: str) -> tuple[float, float]:
        s = self.state(label)
        return float(s.wavelengths_nm[0]), float(s.wavelengths_nm[-1])

    def alpha(self, label: str, wavelength_nm: float) -> tuple[float, float]:
        """(alpha_s, alpha_t) in a.u., piecewise-linear in wavelength."""
        s = self.state(label)
        lo, hi = s.wavelengths_nm[0], s.wavelengths_nm[-1]
        if not lo - 1e-9 <= wavelength_nm <= hi + 1e-9:
            raise WavelengthOutOfRange(
                f"{wavelength_nm} nm outside [{lo}, {hi}] nm for {label}")
        a_s = float(np.interp(wavelength_nm, s.wavelengths_nm, s.alpha_s_au))
        a_t = float(np.interp(wavelength_nm, s.wavelengths_nm, s.alpha_t_au))
        return a_s, a_t


def load_table(spec: str | Path | None = None) -> PolarizabilityTable:
    """Load a table from a path, 'builtin:<name>', or $FSQUBIT_TABLE."""
    if spec is None:
        spec = os.environ.get("FSQUBIT_TABLE", "builtin:sr88_fixture")
    spec = str(spec)
    if spec.startswith("builtin:"):
        from importlib.resources import files
        path = files("fsqubit").joinpath(f"data/{spec[8:]}.csv")
        return PolarizabilityTable.from_csv(str(path))
    return PolarizabilityTable.from_csv(spec)


def angular_momentum_matrices(j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Jx, Jy, Jz) in the m = -j..+j ascending basis, hbar = 1."""
    dim = 2 * j + 1
    m = np.arange(-j, j + 1, dtype=float)
    cplus = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1.0))
    jplus = np.zeros((dim, dim))
    jplus[np.arange(1, dim), np.arange(dim - 1)] = cplus
    jminus = jplus.T.copy()
    jx = (jplus + jminus) / 2.0
    jy = (jplus - jminus) / 2j
    jz = np.diag(m)
    return jx, jy.astype(complex), jz


def stark_hamiltonian(alpha_s_au: float, alpha_t_au: float, j: int,
                      pol: PolarizationVector) -> np.ndarray:
    """ac-Stark operator, E/h in Hz.

    H = -e0sq [ alpha_s + 3 alpha_t / (J(2J-1)) *
                ( {(eps.J), (eps*.J)}/2 - J(J+1)/3 ) ]

    The tensor part vanishes identically for J = 0 (and would be undefined
    for J < 1), so only the scalar term is kept there.
    """
    eps = _check_unit(pol.epsilon)
    e_hz = pol.e0sq * E0SQ_AU_HZ
    dim = 2 * j + 1
    h = -alpha_s_au * e_hz * np.eye(dim, dtype=complex)
    if j >= 1 and alpha_t_au != 0.0:
        jx, jy, jz = angular_momentum_matrices(j)
        a = eps[0] * jx + eps[1] * jy + eps[2] * jz
        b = a.conj().T
        sym = (a @ b + b @ a) / 2.0
        pref = 3.0 * alpha_t_au / (j * (2 * j - 1))
        h -= e_hz * pref * (sym - (j * (j + 1) / 3.0) * np.eye(dim))
    return h


def zeeman_hamiltonian(field, g_j: float, j: int) -> np.ndarray:
    """Linear Zeeman operator along the field axis, E/h in Hz (diagonal)."""
    m = np.arange(-j, j + 1, dtype=float)
    return np.diag(MU_B_HZ_PER_G * g_j * field.magnitude_G * m).astype(complex)


@dataclass(frozen=True)
class LevelShifts:
    """Eigenenergies labeled adiabatically by m_J.

    ``energies_hz[i]`` belongs to ``labels[i]``; labels ascend from -J to
    +J. ``eigenvectors`` holds the matching eigenvectors as columns.
    """

    energies_hz: np.ndarray
    labels: np.ndarray
    eigenvectors: np.ndarray

    def energy_of(self, m: int) -> float:
        idx = np.nonzero(self.labels == m)[0]
        if idx.size != 1:
            raise KeyError(f"no unique level with m_J = {m}")
        return float(self.energies_hz[idx[0]])


def level_shifts(stark_hz: np.ndarray, zeeman_hz: np.ndarray) -> LevelShifts:
    """Diagonalize stark + zeeman and label levels by Zeeman-basis overlap.

    Each dressed eigenvector is assigned the m_J of the Zeeman eigenvector
    it overlaps most; an assignment with max overlap <= 0.5, or two levels
    claiming the same label, raises DegenerateLabeling.
    """
    stark = np.asarray(stark_hz, dtype=complex)
    zee = np.asarray(zeeman_hz, dtype=complex)
    if stark.shape != zee.shape or stark.ndim != 2 \
            or stark.shape[0] != stark.shape[1]:
        raise ValueError("stark and zeeman must be equal square matrices")
    dim = stark.shape[0]
    if dim % 2 != 1:
        raise ValueError("expected odd dimension (integer J)")
    jj = (dim - 1) // 2
    mvals = np.arange(-jj, jj + 1)

    evals, evecs = np.linalg.eigh(stark + zee)
    _, zvecs = np.linalg.eigh(zee)
    # m_J carried by each Zeeman eigenvector (robust to eigh ordering).
    zm = np.rint(np.einsum("ik,i,ik->k", zvecs.conj(), mvals, zvecs).real
                 ).astype(int)

    overlaps = np.abs(zvecs.conj().T @ evecs) ** 2
    labels = np.empty(dim, dtype=int)
    for i in range(dim):
        k = int(np.argmax(overlaps[:, i]))
        if overlaps[k, i] <= 0.5 + 1e-12:
            raise DegenerateLabeling(
                f"max overlap {overlaps[k, i]:.4f} <= 0.5 for level {i}")
        labels[i] = zm[k]
    if len(set(labels.tolist())) != dim:
        raise DegenerateLabeling("two levels claimed the same m_J label")

    order = np.argsort(labels)
    return LevelShifts(energies_hz=evals[order].astype(float),
                       labels=labels[order],
                       eigenvectors=evecs[:, order])


def polarization_in_field_frame(epsilon: np.ndarray, phi_deg: float) -> np.ndarray:
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


def axis_projection(e, phi_deg):
    """(|u3|^2, e0sq) of tweezer-frame complex fields ``e[..., 3]``.

    |u3|^2 is the squared projection of the unit polarization on a
    transverse bias field at ``phi_deg`` (0 where the field vanishes) and
    e0sq = |E|^2 / 4. ``phi_deg`` may be an array broadcasting against
    ``e[..., 0]``.
    """
    e = np.asarray(e)
    isum = np.sum(np.abs(e) ** 2, axis=-1)
    phi = np.radians(phi_deg)
    u3num = e[..., 0] * np.cos(phi) + e[..., 1] * np.sin(phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        u3_sq = np.where(isum > 0, np.abs(u3num) ** 2 / isum, 0.0)
    return u3_sq, isum / 4.0


def gaussian_center_polarization(tweezer: TweezerConfig) -> PolarizationVector:
    """Linear polarization with the Gaussian focal-center reduced field."""
    if tweezer.target_waist_nm is None:
        raise ValueError("tweezer has no target waist; pass an explicit "
                         "polarization instead")
    w0 = tweezer.target_waist_nm * 1e-9
    i0 = 2.0 * tweezer.power_W / (math.pi * w0 * w0)
    return PolarizationVector(
        epsilon=np.array([1.0, 0.0, 0.0], dtype=complex),
        e0sq=intensity_to_e0sq(i0))


def m0_light_shift(alpha_s_au: float, alpha_t_au: float, j: int,
                   u3_sq: float, e0sq: float) -> float:
    """Second-order m_J = 0 shift in Hz for axis projection |u3|^2.

    -e0sq [ alpha_s - alpha_t (J+1)/(2J-1) (3 |u3|^2 - 1)/2 ];
    the tensor factor reduces to P2(cos theta) for J = 2 and linear
    polarization at angle theta from the quantization axis.
    """
    e_hz = e0sq * E0SQ_AU_HZ
    if j < 1:
        return -alpha_s_au * e_hz
    tensor = alpha_t_au * (j + 1.0) / (2.0 * j - 1.0) \
        * (3.0 * u3_sq - 1.0) / 2.0
    return -e_hz * (alpha_s_au - tensor)


def state_light_shift(table: PolarizabilityTable, label: str,
                      wavelength_nm: float, u3_sq, e0sq):
    """m_J = 0 shift in Hz of one tabulated state (vectorized)."""
    a_s, a_t = table.alpha(label, wavelength_nm)
    return m0_light_shift(a_s, a_t, table.state(label).j, u3_sq, e0sq)


def differential_shift_from_projection(table: PolarizabilityTable,
                                       wavelength_nm: float,
                                       u3_sq, e0sq):
    """Vectorized perturbative differential shift (Hz).

    ``u3_sq`` is |eps_hat . B_hat|^2 and ``e0sq`` the reduced squared field;
    both may be arrays that broadcast together.
    """
    return (state_light_shift(table, GROUND, wavelength_nm, u3_sq, e0sq)
            - state_light_shift(table, EXCITED, wavelength_nm, u3_sq, e0sq))


def differential_light_shift(env: FieldEnvironment,
                             table: PolarizabilityTable,
                             pol: PolarizationVector | None = None) -> float:
    """Differential shift U(3P0) - U(3P2, m_J = 0) in Hz, second order.

    Only the squared projection of the polarization on the field axis
    enters, so the result is exactly linear in e0sq and independent of the
    field magnitude. Valid while tensor couplings are small against the
    Zeeman splitting; the exact-diagonalization route (:func:`level_shifts`)
    reduces to this one for large |B| and is tested against it.

    ``pol`` is given in the tweezer frame; default is the linear
    Gaussian-center polarization of ``env.tweezer``.
    """
    if pol is None:
        pol = gaussian_center_polarization(env.tweezer)
    u3_sq, _ = axis_projection(pol.epsilon, env.field.phi_deg)
    return float(differential_shift_from_projection(
        table, env.tweezer.wavelength_nm, u3_sq, pol.e0sq))


def find_magic_angle(env: FieldEnvironment,
                     table: PolarizabilityTable) -> float | None:
    """Field angle in [0, 90] deg where the differential shift vanishes.

    The shift D is affine in u = |eps . B_hat|^2 = cos^2 phi for the
    Gaussian-center polarization, so its zero u* = D(0) / (D(0) - D(1)) is
    closed form. None when u* lies outside [0, 1] (a value, not a failure);
    0.0 when D vanishes at every angle. The env's own phi is ignored.
    """
    pol = gaussian_center_polarization(env.tweezer)
    d1, d0 = (float(differential_shift_from_projection(
        table, env.tweezer.wavelength_nm, u, pol.e0sq)) for u in (1.0, 0.0))
    if d0 == d1:
        return 0.0 if d0 == 0.0 else None
    u_star = d0 / (d0 - d1)
    if not 0.0 <= u_star <= 1.0:
        return None
    return math.degrees(math.acos(math.sqrt(u_star)))


def find_magic_wavelength(env: FieldEnvironment,
                          table: PolarizabilityTable) -> float | None:
    """Wavelength where the shift crosses zero at the env's field angle.

    The tables interpolate linearly, so the shift is piecewise linear on
    the union of both states' knots: the root is the first zero knot, or
    the first sign change solved by one linear interpolation, exact under
    the tables' interpolation. None when the shift keeps its sign over the
    overlap of the two spans.
    """
    (lo0, hi0), (lo2, hi2) = table.span_nm(GROUND), table.span_nm(EXCITED)
    lo, hi = max(lo0, lo2), min(hi0, hi2)
    if not hi > lo:
        raise WavelengthOutOfRange("tabulated spans do not overlap")
    pol = gaussian_center_polarization(env.tweezer)
    u3_sq, _ = axis_projection(pol.epsilon, env.field.phi_deg)
    lam = np.union1d(table.state(GROUND).wavelengths_nm,
                     table.state(EXCITED).wavelengths_nm)
    lam = lam[(lam >= lo) & (lam <= hi)]
    du = np.array([differential_shift_from_projection(table, x, u3_sq,
                                                      pol.e0sq) for x in lam])
    sign = np.sign(du)
    hits = np.flatnonzero(sign[:-1] * sign[1:] <= 0.0)  # a zero or a flip
    if hits.size == 0:
        return None
    a, b = hits[0], hits[0] + 1
    if du[a] == 0.0 or du[b] == 0.0:
        return float(lam[a] if du[a] == 0.0 else lam[b])
    return float(lam[a] + (lam[b] - lam[a]) * du[a] / (du[a] - du[b]))
