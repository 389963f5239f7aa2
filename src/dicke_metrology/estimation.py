"""Quantum Fisher information of the ground-state family in the coupling.

The coupling enters through both moments, so the QFI of a pure Gaussian
family splits into a quadratic (covariance) part and a displacement part:

    H = -Tr[Omega^T dcov Omega dcov] + dmean^T cov^-1 dmean

with the symmetric logarithmic derivative L = R^T Phi R + R^T zeta - nu,
Phi = -dcov, zeta = Omega^T cov^-1 dmean, nu = Tr[Omega^T cov Omega Phi].

The moments and their exact coupling derivatives come from one vectorised
jet, `dicke.moment_jet`, over an array of couplings.  `qfi_from_jet` turns a
whole jet into arrays of QFIs and their two parts at once; `state_derivative`
runs both stages of the same jet at a DickeParams' coupling as a numpy
scalar and returns the 0-d jet, mean (4,) and cov (4, 4), on every call;
`qfi` and the SLD functions read from it, and `qfi_from_jet` takes it as it
takes a batch.  There is no step to choose; the only excluded couplings are
the window |lam - lambda_c| <= dicke.DELTA_MIN lambda_c (DELTA_MIN = 1e-8)
around lambda_c, where the jet raises.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dicke import DickeParams, MomentJet, _ground_at, _jet, _squeezers, derive
from .gaussian import _OMEGA2


def state_derivative(params: DickeParams) -> MomentJet:
    """The one-coupling moment jet at params, at 0-d: the ground-state moments
    and their closed-form derivatives d(mean)/d(lam), d(cov)/d(lam), with mean
    and dmean (4,), cov and dcov (4, 4).

    Both stages run on every call, at the params' coupling as a numpy scalar.
    """
    return _jet(_ground_at(params))


@dataclass(frozen=True)
class EstimationResult:
    """QFI split into covariance-driven and displacement-driven parts."""

    qfi: float
    quadratic_term: float
    displacement_term: float


def qfi_from_jet(jet: MomentJet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantum Fisher information at every coupling of the jet, as the arrays
    (qfi, quadratic_term, displacement_term) with the jet's leading shape:
    one entry per coupling of a batch, numpy scalars for a 0-d jet."""
    quadratic = -np.trace(_OMEGA2.T @ jet.dcov @ _OMEGA2 @ jet.dcov, axis1=-2, axis2=-1)
    dmean = jet.dmean[..., None]
    displacement = (np.swapaxes(dmean, -1, -2) @ np.linalg.solve(jet.cov, dmean))[..., 0, 0]
    return quadratic + displacement, quadratic, displacement


def qfi(params: DickeParams) -> EstimationResult:
    """Quantum Fisher information of the coupling at params."""
    h, quadratic, displacement = map(float, qfi_from_jet(state_derivative(params)))
    return EstimationResult(qfi=h, quadratic_term=quadratic, displacement_term=displacement)


@dataclass(frozen=True)
class SldCoefficients:
    """Quadratic form, linear term, and scalar offset of the SLD."""

    phi: np.ndarray
    zeta: np.ndarray
    nu: float


def sld_coefficients(params: DickeParams) -> SldCoefficients:
    """SLD coefficients (Phi, zeta, nu) in the laboratory quadratures."""
    jet = state_derivative(params)
    phi = -jet.dcov
    zeta = _OMEGA2.T @ np.linalg.solve(jet.cov, jet.dmean)
    nu = float(np.trace(_OMEGA2.T @ jet.cov @ _OMEGA2 @ phi))
    return SldCoefficients(phi=phi, zeta=zeta, nu=nu)


def sld_coefficients_f1_frame(params: DickeParams) -> SldCoefficients:
    """SLD coefficients in the dimensionless quadratures R' = F1 R.

    In this frame the quadratic form collapses near the critical point onto
    the single divergent direction (x1' - x2')^2, and in the superradiant
    phase the linear term approaches a coupling-independent vector along
    (omega0^2 p1', -omega^2 p2').
    """
    raw = sld_coefficients(params)
    # F1 = Diag(1/sqrt(w), sqrt(w), 1/sqrt(wt), sqrt(wt)), so R^T Phi R = R'^T F1^-1 Phi F1^-1 R'
    f1_inv = _squeezers(params.omega, derive(params)["omega_tilde"])
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
