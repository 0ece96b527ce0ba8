"""Per-state trap characterization and thermal motional sampling.

The two qubit states see different optical potentials (tensor shift plus
focal polarization structure), so the trap is characterized per state: depth
at the focal center and harmonic frequencies from centered second
differences of the local m_J = 0 light shift. The motional state of the atom
is sampled either as Fock numbers in the 3P0 ladder (default) or as a
classical position, and each sample maps to a static detuning for the
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

from . import focalfield
from .atomstark import (PolarizabilityTable, axis_projection,
                        state_light_shift)
from .constants import H_PLANCK, HBAR, K_B, MASS_SR88
from .errors import ModelMismatch, NotTrapping
from .params import FieldEnvironment, TweezerConfig

# States characterized, in (ground, excited) order.
_STATE_LABELS = ("3P0", "3P2")
_JSON_KEYS = ("3P0", "3P2_mJ0")

# Finite-difference step as a fraction of the measured waist.
_STENCIL_FRACTION = 1.0 / 50.0


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

    @classmethod
    def from_json_dict(cls, d: dict) -> "TrapCharacterization":
        s0, s2 = (d["states"][k] for k in _JSON_KEYS)
        return cls(depth_p0_hz=float(s0["depth_hz"]),
                   depth_p2_hz=float(s2["depth_hz"]),
                   omega_p0_rad_s=np.asarray(s0["omega_rad_s"], dtype=float),
                   omega_p2_rad_s=np.asarray(s2["omega_rad_s"], dtype=float),
                   du_center_hz=float(d["du_center_hz"]))


def _state_energies_hz(field, table: PolarizabilityTable,
                       wavelength_nm: float, phi_deg: float,
                       points) -> dict[str, np.ndarray]:
    """m_J = 0 energies U/h at ``points[k] = (x, y, z)`` for both states."""
    u3_sq, e0sq = axis_projection(field.field_at(*points.T), phi_deg)
    if np.any(e0sq == 0.0):
        raise NotTrapping("zero field on the stencil: no trap here")
    return {label: state_light_shift(table, label, wavelength_nm, u3_sq,
                                     e0sq)
            for label in _STATE_LABELS}


def characterize_trap(config: TweezerConfig, env: FieldEnvironment,
                      table: PolarizabilityTable,
                      field=None) -> TrapCharacterization:
    """Characterize both trapping potentials around the focal center.

    ``field`` overrides the focal field (any object with ``field_at`` and
    ``waist_m``, e.g. the Gaussian fallback); by default the full vector
    field is built from ``config``. The field object is authoritative for
    amplitudes; ``config`` supplies the wavelength, ``env.field`` the
    quantization-axis angle.

    Raises :class:`NotTrapping` if either state has a center energy that
    is not negative or a curvature that is not positive along some axis
    (NaN included).
    """
    if field is None:
        field = focalfield.build_field(config)
    step = field.waist_m * _STENCIL_FRACTION
    # 7-point stencil: center, then -/+ along each axis.
    offs = np.array([[0.0, 0.0, 0.0],
                     [-step, 0, 0], [step, 0, 0],
                     [0, -step, 0], [0, step, 0],
                     [0, 0, -step], [0, 0, step]])
    energies = _state_energies_hz(field, table, config.wavelength_nm,
                                  env.field.phi_deg, offs)
    depths = {}
    omegas = {}
    for label in _STATE_LABELS:
        u = energies[label]
        if not u[0] < 0.0:
            raise NotTrapping(f"{label}: center energy {u[0]:.3g} Hz is not "
                              "below the free-space asymptote")
        depths[label] = -float(u[0])
        om = np.empty(3)
        for i, axis in enumerate("xyz"):
            curv_hz_m2 = (u[1 + 2 * i] - 2.0 * u[0] + u[2 + 2 * i]) / step ** 2
            if not curv_hz_m2 > 0.0:
                raise NotTrapping(f"{label}: non-positive curvature along "
                                  f"{axis}")
            om[i] = math.sqrt(H_PLANCK * curv_hz_m2 / MASS_SR88)
        omegas[label] = om
    return TrapCharacterization(
        depth_p0_hz=depths["3P0"],
        depth_p2_hz=depths["3P2"],
        omega_p0_rad_s=omegas["3P0"],
        omega_p2_rad_s=omegas["3P2"],
        du_center_hz=float(energies["3P0"][0] - energies["3P2"][0]))


@dataclass(frozen=True)
class MotionalSample:
    """One frozen motional state, tagged by model kind.

    kind = "fock": ``n`` holds (n_x, n_y, n_z). kind = "classical":
    ``position_m`` holds the sampled position.
    """

    kind: str
    n: np.ndarray | None = None
    position_m: np.ndarray | None = None


def fock_sample(n) -> MotionalSample:
    arr = np.asarray(n)
    if arr.shape != (3,) or np.any(arr < 0):
        raise ValueError("n must be three non-negative occupation numbers")
    return MotionalSample(kind="fock", n=arr.astype(np.int64))


def classical_sample(position_m) -> MotionalSample:
    pos = np.asarray(position_m, dtype=float)
    if pos.shape != (3,):
        raise ValueError("position must be a 3-vector in meters")
    return MotionalSample(kind="classical", position_m=pos)


def sample_fock_thermal(temperature_K: float, omega_rad_s: float,
                        rng: np.random.Generator, size=None):
    """Thermal Fock numbers for one mode: P(n) ~ exp(-n hbar w / kB T).

    Returns a scalar int for ``size=None``, else an int array. T = 0 gives
    the ground state exactly.
    """
    if temperature_K < 0:
        raise ValueError("temperature must be >= 0")
    if omega_rad_s <= 0:
        raise ValueError("trap frequency must be positive")
    if temperature_K == 0.0:
        return 0 if size is None else np.zeros(size, dtype=np.int64)
    x = HBAR * omega_rad_s / (K_B * temperature_K)
    # success probability 1 - exp(-x), written to stay exact for tiny x
    p = -math.expm1(-x)
    draw = rng.geometric(p, size=size) - 1
    return int(draw) if size is None else draw.astype(np.int64)


def sample_position_classical(temperature_K: float, omega_rad_s,
                              rng: np.random.Generator, size=None):
    """Thermal positions in a 3D harmonic well: independent Gaussians with
    sigma_i = sqrt(kB T / m) / w_i. Returns shape (3,) or (size, 3)."""
    om = np.asarray(omega_rad_s, dtype=float)
    if om.shape != (3,) or np.any(om <= 0):
        raise ValueError("need three positive trap frequencies")
    if temperature_K < 0:
        raise ValueError("temperature must be >= 0")
    shape = (3,) if size is None else (size, 3)
    if temperature_K == 0.0:
        return np.zeros(shape)
    sigma = np.sqrt(K_B * temperature_K / MASS_SR88) / om
    return rng.normal(0.0, sigma, size=shape)


def detuning_for_sample(sample: MotionalSample,
                        trap: TrapCharacterization) -> float:
    """Static detuning (rad/s) of one shot's motional sample.

    Fock samples use the center shift plus the frequency-mismatch ladder;
    classical samples evaluate the harmonic reconstruction of the local
    differential potential at the sampled position.
    """
    if sample.kind == "fock":
        if sample.n is None:
            raise ModelMismatch("fock sample carries no occupation numbers")
        return float(2.0 * math.pi * trap.du_center_hz
                     + np.sum(trap.delta_omega_rad_s
                              * (np.asarray(sample.n) + 0.5)))
    if sample.kind == "classical":
        if sample.position_m is None:
            raise ModelMismatch("classical sample carries no position")
        r2 = np.asarray(sample.position_m, dtype=float) ** 2
        du_hz = (trap.du_center_hz
                 + MASS_SR88 / (2.0 * H_PLANCK)
                 * float(np.sum((trap.omega_p0_rad_s ** 2
                                 - trap.omega_p2_rad_s ** 2) * r2)))
        return 2.0 * math.pi * du_hz
    raise ModelMismatch(f"unknown motional model kind {sample.kind!r}")
