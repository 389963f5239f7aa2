"""Thermodynamic-limit ground states of the Dicke model.

N two-level atoms of splitting omega0 couple with strength lam to a single
radiation mode of frequency omega.  After a Holstein-Primakoff expansion
around the mean field the ground state is Gaussian in two effective modes
(mode 0: radiation, mode 1: atomic fluctuations).  The quantum phase
transition sits at lambda_c = sqrt(omega * omega0) / 2; below it the mean
field vanishes (normal phase), above it the field and the atomic polarization
acquire macroscopic displacements (superradiant phase).

The covariance matrix is built by undoing the symplectic chain that
diagonalizes the quadratic Hamiltonian: local squeezers into dimensionless
quadratures, a two-mode rotation by theta, and local squeezers into the
normal-mode frequencies eps_minus, eps_plus.  Atom number enters the first
moments only; all second moments are N-independent.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import CriticalPointSingularity, UnphysicalStateError
from .gaussian import GaussianState, SymplecticTransform, apply_symplectic, partial_trace, vacuum_state

DEFAULT_DELTA_MIN = 1e-8

RADIATION_MODE = 0
ATOMIC_MODE = 1


class Phase(str, enum.Enum):
    NORMAL = "normal"
    SUPERRADIANT = "superradiant"


@dataclass(frozen=True)
class DickeParams:
    """Model parameters; lam is the atom-field coupling."""

    lam: float
    omega: float = 1.0
    omega0: float = 1.0
    n_atoms: int = 100

    def __post_init__(self) -> None:
        if not self.omega > 0 or not self.omega0 > 0:
            raise ValueError("omega and omega0 must be positive")
        if self.lam < 0:
            raise ValueError(f"coupling must be nonnegative, got {self.lam}")
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms must be a positive integer, got {self.n_atoms}")

    @property
    def lambda_c(self) -> float:
        return np.sqrt(self.omega * self.omega0) / 2.0


@dataclass(frozen=True)
class DickeDerived:
    """Mean-field and normal-mode data derived from DickeParams."""

    lambda_c: float
    k: float
    alpha: float
    beta: float
    theta: float
    eps_minus: float
    eps_plus: float
    omega_tilde: float
    phase: Phase
    omega: float
    omega0: float
    lam: float


def derive(params: DickeParams, delta_min: float = DEFAULT_DELTA_MIN) -> DickeDerived:
    """Mean-field displacements and Bogoliubov data at the given coupling.

    Raises CriticalPointSingularity when |lam - lambda_c| <= delta_min, where
    the lower normal-mode frequency vanishes and the Gaussian description is
    singular.
    """
    w, w0, lam = params.omega, params.omega0, params.lam
    lc = params.lambda_c
    if abs(lam - lc) <= delta_min:
        raise CriticalPointSingularity(
            f"|lam - lambda_c| = {abs(lam - lc):.3e} <= delta_min = {delta_min:.3e}"
        )
    if lam < lc:
        phase, k = Phase.NORMAL, 1.0
    else:
        phase, k = Phase.SUPERRADIANT, (lc / lam) ** 2
    # mean-field branch: both displacements taken with the positive sign
    alpha = (lam / w) * np.sqrt(max(0.0, 1.0 - k * k))
    beta = np.sqrt(max(0.0, (1.0 - k) / 2.0))
    omega_tilde = w0 * (1.0 + k) / (2.0 * k)
    s = w * w + (w0 / k) ** 2
    r = np.hypot((w0 / k) ** 2 - w * w, 4.0 * lam * np.sqrt(w * w0 * k))
    em_sq = (s - r) / 2.0
    ep_sq = (s + r) / 2.0
    if em_sq < -1e-12 * max(1.0, s):
        raise UnphysicalStateError(f"negative squared normal-mode frequency {em_sq:.3e}")
    theta = 0.5 * np.arctan2(4.0 * lam * np.sqrt(w * w0 * k) * k * k, w0 * w0 - k * k * w * w)
    return DickeDerived(
        lambda_c=lc,
        k=k,
        alpha=float(alpha),
        beta=float(beta),
        theta=float(theta),
        eps_minus=float(np.sqrt(max(em_sq, 0.0))),
        eps_plus=float(np.sqrt(ep_sq)),
        omega_tilde=float(omega_tilde),
        phase=phase,
        omega=w,
        omega0=w0,
        lam=lam,
    )


def f1_matrix(derived: DickeDerived) -> np.ndarray:
    """Local squeezer into dimensionless quadratures: Diag(1/sqrt(w), sqrt(w), 1/sqrt(wt), sqrt(wt))."""
    w, wt = derived.omega, derived.omega_tilde
    return np.diag([1.0 / np.sqrt(w), np.sqrt(w), 1.0 / np.sqrt(wt), np.sqrt(wt)])


def f2_matrix(derived: DickeDerived) -> np.ndarray:
    """Two-mode rotation by theta mixing the dimensionless quadratures."""
    c, s = np.cos(derived.theta), np.sin(derived.theta)
    i2 = np.eye(2)
    return np.block([[c * i2, -s * i2], [s * i2, c * i2]])


def f3_matrix(derived: DickeDerived) -> np.ndarray:
    """Local squeezer into normal-mode scales: Diag(sqrt(em), 1/sqrt(em), sqrt(ep), 1/sqrt(ep))."""
    em, ep = derived.eps_minus, derived.eps_plus
    return np.diag([np.sqrt(em), 1.0 / np.sqrt(em), np.sqrt(ep), 1.0 / np.sqrt(ep)])


def symplectic_chain(derived: DickeDerived) -> SymplecticTransform:
    """Symplectic matrix mapping the normal-mode vacuum to the ground state.

    The chain F1 -> rotation(theta) -> F3 brings the Hamiltonian to normal
    form, so the state is built with the inverse chain
    F = F1^-1 @ F2(theta)^T @ F3^-1.  At lam = 0 the chain is the identity.
    """
    f1 = f1_matrix(derived)
    f2 = f2_matrix(derived)
    f3 = f3_matrix(derived)
    f1_inv = np.diag(1.0 / np.diag(f1))
    f3_inv = np.diag(1.0 / np.diag(f3))
    return SymplecticTransform(f1_inv @ f2.T @ f3_inv)


def mean_vector(derived: DickeDerived, n_atoms: int) -> np.ndarray:
    """First moments (alpha sqrt(2N), 0, -beta sqrt(2N), 0)."""
    root = np.sqrt(2.0 * n_atoms)
    return np.array([derived.alpha * root, 0.0, -derived.beta * root, 0.0])


def ground_state(params: DickeParams, delta_min: float = DEFAULT_DELTA_MIN) -> GaussianState:
    """Two-mode Gaussian ground state (mode 0 radiation, mode 1 atoms)."""
    derived = derive(params, delta_min=delta_min)
    chain = symplectic_chain(derived)
    transform = SymplecticTransform(chain.matrix, mean_vector(derived, params.n_atoms))
    return apply_symplectic(vacuum_state(2), transform)


def reduced_radiation_state(params: DickeParams, delta_min: float = DEFAULT_DELTA_MIN) -> GaussianState:
    """Single-mode reduced state of the radiation mode."""
    return partial_trace(ground_state(params, delta_min=delta_min), [RADIATION_MODE])


def reduced_atomic_state(params: DickeParams, delta_min: float = DEFAULT_DELTA_MIN) -> GaussianState:
    """Single-mode reduced state of the atomic fluctuation mode."""
    return partial_trace(ground_state(params, delta_min=delta_min), [ATOMIC_MODE])


def derived_to_dict(derived: DickeDerived) -> dict:
    """JSON-friendly dump of the derived quantities."""
    return {
        "lambda_c": derived.lambda_c,
        "k": derived.k,
        "alpha": derived.alpha,
        "beta": derived.beta,
        "theta": derived.theta,
        "eps_minus": derived.eps_minus,
        "eps_plus": derived.eps_plus,
        "omega_tilde": derived.omega_tilde,
        "phase": derived.phase.value,
    }
