"""Quantum Fisher information of the ground-state family in the coupling.

The coupling enters through both moments, so the QFI of a pure Gaussian
family splits into a quadratic (covariance) part and a displacement part:

    H = -Tr[Omega^T dcov Omega dcov] + dmean^T cov^-1 dmean

with the symmetric logarithmic derivative L = R^T Phi R + R^T zeta - nu,
Phi = -dcov, zeta = Omega^T cov^-1 dmean, nu = Tr[Omega^T cov Omega Phi].

The moments and their exact coupling derivatives come from one vectorised
jet, `dicke.moment_jet`, over an array of couplings.  `qfi_from_jet` turns a
whole jet into QFIs at once; `state_derivative` runs the same jet at a single
coupling, and `qfi` and the SLD functions read from it.  There is no step to
choose; the only excluded couplings are the window of half-width delta_min
around lambda_c, where the jet raises.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dicke import DEFAULT_DELTA_MIN, DickeParams, MomentJet, derive, f1_matrix, moment_jet
from .gaussian import symplectic_form


@dataclass(frozen=True)
class StateDerivative:
    """Coupling derivatives of the ground-state moments at one coupling.

    `jet` is the one-coupling moment jet they are read from; it also holds
    the moments themselves.
    """

    jet: MomentJet

    @property
    def dcov(self) -> np.ndarray:
        return self.jet.dcov[0]

    @property
    def dmean(self) -> np.ndarray:
        return self.jet.dmean[0]


def state_derivative(params: DickeParams, delta_min: float = DEFAULT_DELTA_MIN) -> StateDerivative:
    """d(cov)/d(lam) and d(mean)/d(lam) of the ground state at params, in closed form."""
    return StateDerivative(moment_jet([params.lam], params.omega, params.omega0, params.n_atoms, delta_min))


@dataclass(frozen=True)
class EstimationResult:
    """QFI split into covariance-driven and displacement-driven parts."""

    qfi: float
    quadratic_term: float
    displacement_term: float


def qfi_from_jet(jet: MomentJet) -> list[EstimationResult]:
    """Quantum Fisher information at every coupling of the jet."""
    omega = symplectic_form(2)
    quadratic = -np.trace(omega.T @ jet.dcov @ omega @ jet.dcov, axis1=-2, axis2=-1)
    dmean = jet.dmean[:, :, None]
    displacement = np.swapaxes(dmean, -1, -2) @ np.linalg.solve(jet.cov, dmean)
    return [
        EstimationResult(qfi=q + d, quadratic_term=q, displacement_term=d)
        for q, d in zip(quadratic.tolist(), displacement[:, 0, 0].tolist())
    ]


def qfi(params: DickeParams, delta_min: float = DEFAULT_DELTA_MIN) -> EstimationResult:
    """Quantum Fisher information of the coupling at params."""
    return qfi_from_jet(state_derivative(params, delta_min).jet)[0]


def cramer_rao_bound(result: EstimationResult, n_measurements: int) -> float:
    """Lower bound 1/(m H) on the estimator variance after m independent runs."""
    if n_measurements < 1:
        raise ValueError("n_measurements must be a positive integer")
    return 1.0 / (n_measurements * result.qfi)


@dataclass(frozen=True)
class SldCoefficients:
    """Quadratic form, linear term, and scalar offset of the SLD."""

    phi: np.ndarray
    zeta: np.ndarray
    nu: float


def sld_coefficients(params: DickeParams, delta_min: float = DEFAULT_DELTA_MIN) -> SldCoefficients:
    """SLD coefficients (Phi, zeta, nu) in the laboratory quadratures."""
    sd = state_derivative(params, delta_min)
    cov, dmean, dcov = sd.jet.cov[0], sd.dmean, sd.dcov
    omega = symplectic_form(2)
    phi = -dcov
    zeta = omega.T @ np.linalg.solve(cov, dmean)
    nu = float(np.trace(omega.T @ cov @ omega @ phi))
    return SldCoefficients(phi=phi, zeta=zeta, nu=nu)


def sld_coefficients_f1_frame(
    params: DickeParams, delta_min: float = DEFAULT_DELTA_MIN
) -> SldCoefficients:
    """SLD coefficients in the dimensionless quadratures R' = F1 R.

    In this frame the quadratic form collapses near the critical point onto
    the single divergent direction (x1' - x2')^2, and in the superradiant
    phase the linear term approaches a coupling-independent vector along
    (omega0^2 p1', -omega^2 p2').
    """
    raw = sld_coefficients(params, delta_min=delta_min)
    f1_inv_t = np.diag(1.0 / np.diag(f1_matrix(derive(params, delta_min=delta_min))))
    return SldCoefficients(
        phi=f1_inv_t @ raw.phi @ f1_inv_t,
        zeta=f1_inv_t @ raw.zeta,
        nu=raw.nu,
    )


def fit_power_law(samples: list[tuple[float, float]], center: float) -> tuple[float, float]:
    """Fit value = prefactor * |x - center|^exponent by least squares in logs.

    Requires at least four samples, all on one side of the center, spanning
    at least one decade of |x - center|.  Returns (exponent, prefactor).
    """
    if len(samples) < 4:
        raise ValueError(f"need at least 4 samples, got {len(samples)}")
    x = np.array([s[0] for s in samples], dtype=float)
    y = np.array([s[1] for s in samples], dtype=float)
    offsets = x - center
    if not (np.all(offsets > 0) or np.all(offsets < 0)):
        raise ValueError("samples must all lie on one side of the center")
    dist = np.abs(offsets)
    if np.max(dist) / np.min(dist) < 10.0 * (1.0 - 1e-9):
        raise ValueError("samples must span at least one decade in |x - center|")
    if np.any(y <= 0):
        raise ValueError("power-law fit requires positive values")
    slope, intercept = np.polyfit(np.log(dist), np.log(y), 1)
    return float(slope), float(np.exp(intercept))
