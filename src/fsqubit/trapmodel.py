"""Per-state trap characterization and thermal motional sampling.

The two qubit states see different optical potentials (tensor shift plus
focal polarization structure), so the trap is characterized per state: depth
at the focal center and harmonic frequencies from the exact curvature of the
local m_J = 0 light shift there, taken from the field's ``focus_jet``. The
motional state of the atom is sampled either as Fock numbers in the 3P0
ladder (default) or as a classical position. The samplers map a batch of
uniforms in (0, 1) to samples by inverse CDF (geometric Fock law, normal
quantile for positions), and each sample maps to a static detuning for the
internal-state dynamics:

* Fock:       delta = 2 pi dU_center + sum_i (w_i^3P0 - w_i^3P2)(n_i + 1/2)
* classical:  delta = 2 pi dU(r), the local differential potential over hbar,
              reconstructed from the harmonic model.

``dU = U(3P0) - U(3P2)`` throughout, so both routes agree at the trap center
and a magic configuration with matched frequencies gives delta = 0. The
motional state is frozen over one experimental shot; the drive acts on the
internal state only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atomstark import PolarizabilityTable, state_light_shift
from .constants import H_PLANCK, HBAR, K_B, MASS_SR88
from .errors import ModelMismatch, NotTrapping
from .params import FieldEnvironment, TweezerConfig
from .special import ndtri

# States characterized, in (ground, excited) order.
_STATE_LABELS = ("3P0", "3P2")
_JSON_KEYS = ("3P0", "3P2_mJ0")


@dataclass(frozen=True)
class TrapCharacterization:
    """Harmonic model of both trapping potentials around the focal center.

    Depths are U/h in Hz, positive for a trapping (negative-energy) well;
    frequencies are rad/s along (x, y, z) with x the input-polarization
    axis; ``du_center_hz`` is U(3P0)/h - U(3P2, m_J=0)/h at the center.
    """

    depth_p0_hz: float
    depth_p2_hz: float
    omega_p0_rad_s: np.ndarray
    omega_p2_rad_s: np.ndarray
    du_center_hz: float

    @property
    def delta_omega_rad_s(self) -> np.ndarray:
        """Per-axis trap-frequency mismatch, 3P0 minus 3P2."""
        return self.omega_p0_rad_s - self.omega_p2_rad_s

    def to_json_dict(self) -> dict:
        return {
            "states": {
                _JSON_KEYS[0]: {
                    "depth_hz": self.depth_p0_hz,
                    "omega_rad_s": [float(w) for w in self.omega_p0_rad_s],
                },
                _JSON_KEYS[1]: {
                    "depth_hz": self.depth_p2_hz,
                    "omega_rad_s": [float(w) for w in self.omega_p2_rad_s],
                },
            },
            "du_center_hz": self.du_center_hz,
        }


def squared_jet(f, f1, f2):
    """|f|^2 and its pure second derivatives along x, y, z at the focus from
    a ``focus_jet`` (f, f1, f2): (|f|^2)'' = 2 Re(conj(f) f'') + 2 |f'|^2."""
    return np.concatenate(([np.abs(f) ** 2],
                           2.0 * np.real(np.conj(f) * f2)
                           + 2.0 * np.abs(f1) ** 2))


def characterize_trap(config: TweezerConfig, env: FieldEnvironment,
                      table: PolarizabilityTable,
                      field) -> TrapCharacterization:
    """Characterize both trapping potentials around the focal center.

    ``field`` is the focal field: any object with ``focus_jet``, such as
    ``focalfield.build_field(config)`` or a ``GaussianField``. It is
    authoritative for amplitudes; ``config`` supplies the wavelength,
    ``env.field`` the quantization-axis angle.

    The m_J = 0 shift is linear in e0sq = |E|^2/4 and u3_sq e0sq =
    |B_hat . E|^2/4, so it maps their center values and curvatures exactly
    to the depth and the trap curvature.

    Raises :class:`NotTrapping` if either state has a center energy that
    is not negative or a curvature that is not positive along some axis
    (NaN included).
    """
    e, d1, d2 = field.focus_jet()
    phi = math.radians(env.field.phi_deg)
    b_hat = np.array([math.cos(phi), math.sin(phi), 0.0])
    # index 0: the center value; 1..3: the curvature along x, y, z
    isum = squared_jet(e, d1, d2).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        u3_sq = squared_jet(e @ b_hat, d1 @ b_hat, d2 @ b_hat) / isum
    u = [state_light_shift(table, label, config.wavelength_nm, u3_sq,
                           isum / 4.0) for label in _STATE_LABELS]
    for label, v in zip(_STATE_LABELS, u):
        if not v[0] < 0.0:
            raise NotTrapping(f"{label}: center energy {v[0]:.3g} Hz is not "
                              "below the free-space asymptote")
        if not np.all(v[1:] > 0.0):
            raise NotTrapping(f"{label}: non-positive curvature along "
                              f"{'xyz'[np.argmin(v[1:] > 0.0)]}")
    return TrapCharacterization(
        depth_p0_hz=-float(u[0][0]),
        depth_p2_hz=-float(u[1][0]),
        omega_p0_rad_s=np.sqrt(H_PLANCK * u[0][1:] / MASS_SR88),
        omega_p2_rad_s=np.sqrt(H_PLANCK * u[1][1:] / MASS_SR88),
        du_center_hz=float(u[0][0] - u[1][0]))


def sample_fock_thermal(temperature_K: float, omega_rad_s, u):
    """Thermal Fock numbers from uniforms ``u`` in (0, 1), by the inverse
    CDF of P(n) ~ exp(-n x), x = hbar w / kB T: n = floor(log u / -x).

    ``omega_rad_s`` broadcasts against ``u`` (one frequency, or one per
    trailing axis); returns an int array of ``u``'s broadcast shape. T = 0
    gives the ground state exactly.
    """
    om = np.asarray(omega_rad_s, dtype=float)
    if temperature_K < 0:
        raise ValueError("temperature must be >= 0")
    if np.any(om <= 0):
        raise ValueError("trap frequency must be positive")
    if temperature_K == 0.0:
        return np.zeros(np.broadcast_shapes(np.shape(u), om.shape),
                        dtype=np.int64)
    x = HBAR * om / (K_B * temperature_K)
    with np.errstate(divide="ignore", over="ignore"):
        n = np.floor(np.log(u) / -x)
    if not np.all(n < 2.0 ** 63):  # NaN and inf fail too
        raise ValueError("thermal occupation is not finite or overflows "
                         f"int64 at T = {temperature_K!r} K")
    return n.astype(np.int64)


def sample_position_classical(temperature_K: float, omega_rad_s, u):
    """Thermal positions in a 3D harmonic well from uniforms ``u`` of shape
    (..., 3): independent Gaussians with sigma_i = sqrt(kB T / m) / w_i,
    mapped through the normal quantile ``special.ndtri``."""
    om = np.asarray(omega_rad_s, dtype=float)
    if om.shape != (3,) or np.any(om <= 0):
        raise ValueError("need three positive trap frequencies")
    if temperature_K < 0:
        raise ValueError("temperature must be >= 0")
    if np.shape(u)[-1:] != (3,):
        raise ValueError("need one uniform per axis in the last dimension")
    if temperature_K == 0.0:
        return np.zeros(np.shape(u))
    sigma = np.sqrt(K_B * temperature_K / MASS_SR88) / om
    return sigma * ndtri(u)


def detuning_for_sample(sample, trap: TrapCharacterization,
                        motional_model: str) -> np.ndarray:
    """Static detunings (rad/s) of motional samples of shape (..., 3).

    ``"fock"`` samples are occupation numbers: the center shift plus the
    frequency-mismatch ladder. ``"classical"`` samples are positions (m):
    the harmonic reconstruction of the local differential potential.
    Returns shape (...).
    """
    if motional_model == "fock":
        return (2.0 * math.pi * trap.du_center_hz
                + (np.asarray(sample) + 0.5) @ trap.delta_omega_rad_s)
    if motional_model == "classical":
        quad = (MASS_SR88 / (2.0 * H_PLANCK)
                * (trap.omega_p0_rad_s ** 2 - trap.omega_p2_rad_s ** 2))
        r2 = np.asarray(sample, dtype=float) ** 2
        return 2.0 * math.pi * (trap.du_center_hz + r2 @ quad)
    raise ModelMismatch(f"unknown motional model {motional_model!r}")
