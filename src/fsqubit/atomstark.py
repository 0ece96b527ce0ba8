"""Level shifts of fine-structure states in a polarized light field.

Energies are E/h in Hz. The quantization axis is the bias-field
direction: rotations are applied to the polarization vector, never to the
angular momentum matrices.

Polarization vectors are expressed in the tweezer frame
(x = input-polarization axis, y = orthogonal transverse axis,
z = propagation); :func:`polarization_in_field_frame` maps them onto the
field-aligned frame. Every run uses the perturbative m_J = 0 shift
:func:`m0_light_shift`; :func:`j2_hamiltonian` and :func:`m0_eigenvalue`
are its exact-diagonalization oracle for J = 2.
"""

from __future__ import annotations

import csv
import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .constants import AU_POLARIZABILITY, H_PLANCK
from .errors import (
    DegenerateLabeling,
    MalformedTable,
    NonUnitPolarization,
    UnknownState,
    WavelengthOutOfRange,
)
from .params import FieldEnvironment

if TYPE_CHECKING:
    import numpy as np

# Hz of energy per a.u. of polarizability per unit of reduced squared field.
E0SQ_AU_HZ = AU_POLARIZABILITY / H_PLANCK

GROUND = "3P0"
EXCITED = "3P2"

_UNIT_TOL = 1e-12
_TABLE_HEADER = ["state", "wavelength_nm", "alpha_s_au", "alpha_t_au"]
_TERM_RE = re.compile(r"^(\d+)([SPDFGHIK])(\d+)$")
_L_OF = {"S": 0, "P": 1, "D": 2, "F": 3, "G": 4, "H": 5, "I": 6, "K": 7}


@dataclass(frozen=True)
class StateInfo:
    """One fine-structure state: term symbol plus tabulated polarizabilities,
    one float per distinct wavelength, in increasing wavelength."""

    label: str
    j: int
    g_j: float
    wavelengths_nm: tuple[float, ...]
    alpha_s_au: tuple[float, ...]
    alpha_t_au: tuple[float, ...]


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
        """Parse a UTF-8 CSV table; blank lines and lines starting with '#'
        are skipped. Raises MalformedTable, naming the path and line, also
        for a state given twice at one wavelength."""
        data = Path(path).read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise MalformedTable(f"{path}, line {line}: not UTF-8 text") \
                from None
        kept = [(n, line) for n, line in enumerate(text.splitlines(), 1)
                if line.strip() and not line.startswith("#")]
        if not kept:
            raise MalformedTable(f"{path}: no header line")
        records = zip((n for n, _ in kept),
                      csv.reader(line for _, line in kept))
        n, header = next(records)
        if [h.strip() for h in header] != _TABLE_HEADER:
            raise MalformedTable(f"{path}, line {n}: header {header} is not "
                                 f"{','.join(_TABLE_HEADER)}")
        rows: dict[str, list[tuple[float, float, float]]] = {}
        lines: dict[tuple[str, float], int] = {}  # (state, wavelength)
        for n, rec in records:
            if len(rec) != 4:
                raise MalformedTable(f"{path}, line {n}: {len(rec)} cells, "
                                     "expected 4")
            try:
                values = tuple(map(float, rec[1:]))
            except ValueError:
                raise MalformedTable(f"{path}, line {n}: non-numeric cell in "
                                     f"{rec}") from None
            if not all(map(math.isfinite, values)):
                raise MalformedTable(f"{path}, line {n}: non-finite cell in "
                                     f"{rec}")
            first = lines.setdefault((rec[0], values[0]), n)
            if first != n:
                raise MalformedTable(f"{path}, line {n}: {rec[0]} at "
                                     f"{values[0]!r} nm repeats line {first}")
            rows.setdefault(rec[0], []).append(values)
        states = {}
        for label, entries in rows.items():
            entries.sort()
            lam, a_s, a_t = zip(*entries)
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
        """(alpha_s, alpha_t) in a.u., piecewise-linear in wavelength:
        ``np.interp`` at one point, bit for bit (the end values outside
        the knots, the knot's value on one, else the same arithmetic)."""
        s = self.state(label)
        x, xp = wavelength_nm, s.wavelengths_nm
        if not xp[0] - 1e-9 <= x <= xp[-1] + 1e-9:
            raise WavelengthOutOfRange(
                f"{x} nm outside [{xp[0]}, {xp[-1]}] nm for {label}")
        j = max(bisect_right(xp, x) - 1, 0)
        if x < xp[0] or j == len(xp) - 1 or x == xp[j]:
            return s.alpha_s_au[j], s.alpha_t_au[j]
        return tuple((fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j]) * (x - xp[j])
                     + fp[j] for fp in (s.alpha_s_au, s.alpha_t_au))


def load_table(spec: str | Path | None = None) -> PolarizabilityTable:
    """Load a table from a path or 'builtin:<name>'; None is the packaged
    'builtin:sr88_fixture'."""
    spec = "builtin:sr88_fixture" if spec is None else str(spec)
    if spec.startswith("builtin:"):
        from importlib.resources import files
        path = files("fsqubit").joinpath(f"data/{spec[8:]}.csv")
        return PolarizabilityTable.from_csv(str(path))
    return PolarizabilityTable.from_csv(spec)


def j2_hamiltonian(alpha_s_au: float, alpha_t_au: float, u, e0sq: float,
                   zeeman_hz: float) -> np.ndarray:
    """Stark + Zeeman operator of a J = 2 level, E/h in Hz.

    H = -e0sq [ alpha_s + alpha_t / 2 ( {(u.J), (u*.J)}/2 - 2 ) ]
        + zeeman_hz J_z

    ``u`` is the unit polarization in the field frame (third component
    along the bias field, as from :func:`polarization_in_field_frame`) and
    ``zeeman_hz`` the splitting per unit m_J, g_J mu_B |B|.
    """
    import numpy as np
    u = np.asarray(u, dtype=complex)
    norm = float(np.linalg.norm(u))
    if u.shape != (3,) or abs(norm - 1.0) > _UNIT_TOL:
        raise NonUnitPolarization(
            f"polarization {u!r} is not a unit complex 3-vector")
    m = np.arange(-2.0, 3.0)
    jplus = np.diag(np.sqrt(6.0 - m[:-1] * (m[:-1] + 1.0)), -1)
    a = (u[0] * ((jplus + jplus.T) / 2.0) + u[1] * ((jplus - jplus.T) / 2j)
         + u[2] * np.diag(m))
    b = a.conj().T
    e_hz = e0sq * E0SQ_AU_HZ
    h = -alpha_s_au * e_hz * np.eye(5, dtype=complex)
    h -= e_hz * (3.0 * alpha_t_au / 6) * ((a @ b + b @ a) / 2.0
                                          - 2.0 * np.eye(5))
    return h + np.diag(zeeman_hz * m)


def m0_eigenvalue(h: np.ndarray) -> float:
    """Eigenvalue of :func:`j2_hamiltonian` labeled m_J = 0, in Hz.

    Each eigenvector takes the m_J of the basis state it overlaps most; a
    maximum overlap <= 0.5, or two eigenvectors claiming one m_J, raises
    DegenerateLabeling.
    """
    import numpy as np
    evals, evecs = np.linalg.eigh(h)
    overlaps = np.abs(evecs) ** 2
    labels = np.argmax(overlaps, axis=0)
    worst = float(overlaps[labels, np.arange(5)].min())
    if worst <= 0.5 + 1e-12:
        raise DegenerateLabeling(f"max overlap {worst:.4f} <= 0.5")
    if len(set(labels.tolist())) != 5:
        raise DegenerateLabeling("two levels claimed the same m_J label")
    return float(evals[labels == 2][0])


def polarization_in_field_frame(epsilon: np.ndarray, phi_deg: float) -> np.ndarray:
    """Map a tweezer-frame polarization onto the field-aligned frame.

    The field direction lies in the transverse plane at angle phi from the
    input-polarization axis. The returned components are along
    (z_hat x B_hat, z_hat, B_hat) — the third component is the one along
    the quantization axis.
    """
    import numpy as np
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
    import numpy as np
    e = np.asarray(e)
    isum = np.sum(np.abs(e) ** 2, axis=-1)
    phi = np.radians(phi_deg)
    u3num = e[..., 0] * np.cos(phi) + e[..., 1] * np.sin(phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        u3_sq = np.where(isum > 0, np.abs(u3num) ** 2 / isum, 0.0)
    return u3_sq, isum / 4.0


def m0_light_shift(alpha_s_au: float, alpha_t_au: float, j: int,
                   u3_sq: float, e0sq: float) -> float:
    """Second-order m_J = 0 shift in Hz for axis projection |u3|^2.

    -e0sq [ alpha_s - alpha_t (J+1)/(2J-1) (3 |u3|^2 - 1)/2 ];
    the tensor factor reduces to P2(cos theta) for J = 2 and linear
    polarization at angle theta from the quantization axis. Valid while
    tensor couplings are small against the Zeeman splitting, where it
    meets :func:`m0_eigenvalue`.
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


def find_magic_angle(env: FieldEnvironment,
                     table: PolarizabilityTable) -> float | None:
    """Field angle in [0, 90] deg where the differential shift vanishes.

    The shift D is affine in u = |eps . B_hat|^2 = cos^2 phi for the
    x polarization of the focal center (J1(0) = J2(0) = 0), so its zero
    u* = D(0) / (D(0) - D(1)) is closed form. D is proportional to e0sq,
    taken as 1: the root depends on the table and wavelength alone. None
    when u* lies outside [0, 1] (a value, not a failure); 0.0 when D
    vanishes at every angle. The env's own phi is ignored.
    """
    d1, d0 = (float(differential_shift_from_projection(
        table, env.tweezer.wavelength_nm, u, 1.0)) for u in (1.0, 0.0))
    if d0 == d1:
        return 0.0 if d0 == 0.0 else None
    u_star = d0 / (d0 - d1)
    if not 0.0 <= u_star <= 1.0:
        return None
    return math.degrees(math.acos(math.sqrt(u_star)))


def _wavelength_knots(table: PolarizabilityTable) -> list[float]:
    """Sorted distinct wavelengths of both qubit states, as
    ``np.union1d`` gives them."""
    return sorted(set(table.state(GROUND).wavelengths_nm)
                  | set(table.state(EXCITED).wavelengths_nm))


def find_magic_wavelength(env: FieldEnvironment,
                          table: PolarizabilityTable) -> float | None:
    """Wavelength where the shift crosses zero at the env's field angle.

    The tables interpolate linearly, so the shift is piecewise linear on
    the union of both states' knots: the root is the first isolated zero
    knot, or the first sign change solved by one linear interpolation,
    exact under the tables' interpolation. None when the shift keeps its
    sign over the overlap of the two spans, or when its only zeros are
    whole knot intervals on which it vanishes (no isolated root, as on the
    755 nm table at phi = 90 deg, where it is zero at every knot). The
    shift is that of :func:`find_magic_angle`: x polarization, e0sq = 1.
    """
    (lo0, hi0), (lo2, hi2) = table.span_nm(GROUND), table.span_nm(EXCITED)
    lo, hi = max(lo0, lo2), min(hi0, hi2)
    if not hi > lo:
        raise WavelengthOutOfRange("tabulated spans do not overlap")
    # |u3|^2 of x polarization: ** 2 is C pow(), as in axis_projection;
    # c * c differs from it in the last bit at some angles
    u3_sq = math.cos(math.radians(env.field.phi_deg)) ** 2
    lam = [x for x in _wavelength_knots(table) if lo <= x <= hi]
    du = [differential_shift_from_projection(table, x, u3_sq, 1.0)
          for x in lam]
    zero = [d == 0.0 for d in du]
    # knots bounding an interval on which the shift vanishes identically
    flat = [z and (p or q) for p, z, q in zip([False] + zero, zero,
                                              zero[1:] + [False])]
    for a in range(len(lam) - 1):
        b = a + 1
        # a zero or a flip, away from any vanishing interval
        if (min(du[a], du[b]) <= 0.0 <= max(du[a], du[b])
                and not flat[a] and not flat[b]):
            if zero[a] or zero[b]:
                return lam[a] if zero[a] else lam[b]
            return lam[a] + (lam[b] - lam[a]) * du[a] / (du[a] - du[b])
    return None
