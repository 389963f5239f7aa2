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
choose; the only excluded couplings are the window of half-width
dicke.DELTA_MIN = 1e-8 around lambda_c, where the jet raises.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dicke import DickeParams, MomentJet, derive, moment_jet
from .gaussian import symplectic_form


def state_derivative(params: DickeParams) -> MomentJet:
    """The one-coupling moment jet at params: the ground-state moments and their
    closed-form derivatives d(mean)/d(lam), d(cov)/d(lam), each a single row."""
    return moment_jet([params.lam], params.omega, params.omega0, params.n_atoms)


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


def qfi(params: DickeParams) -> EstimationResult:
    """Quantum Fisher information of the coupling at params."""
    return qfi_from_jet(state_derivative(params))[0]


@dataclass(frozen=True)
class SldCoefficients:
    """Quadratic form, linear term, and scalar offset of the SLD."""

    phi: np.ndarray
    zeta: np.ndarray
    nu: float


def sld_coefficients(params: DickeParams) -> SldCoefficients:
    """SLD coefficients (Phi, zeta, nu) in the laboratory quadratures."""
    jet = state_derivative(params)
    cov, dmean, dcov = jet.cov[0], jet.dmean[0], jet.dcov[0]
    omega = symplectic_form(2)
    phi = -dcov
    zeta = omega.T @ np.linalg.solve(cov, dmean)
    nu = float(np.trace(omega.T @ cov @ omega @ phi))
    return SldCoefficients(phi=phi, zeta=zeta, nu=nu)


def sld_coefficients_f1_frame(params: DickeParams) -> SldCoefficients:
    """SLD coefficients in the dimensionless quadratures R' = F1 R.

    In this frame the quadratic form collapses near the critical point onto
    the single divergent direction (x1' - x2')^2, and in the superradiant
    phase the linear term approaches a coupling-independent vector along
    (omega0^2 p1', -omega^2 p2').
    """
    raw = sld_coefficients(params)
    d = derive(params)
    # F1 = Diag(1/sqrt(w), sqrt(w), 1/sqrt(wt), sqrt(wt)), so R^T Phi R = R'^T F1^-1 Phi F1^-1 R'
    w, wt = math.sqrt(d.omega), math.sqrt(d.omega_tilde)
    f1_inv = np.array([w, 1.0 / w, wt, 1.0 / wt])
    return SldCoefficients(phi=f1_inv[:, None] * raw.phi * f1_inv, zeta=f1_inv * raw.zeta, nu=raw.nu)


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
