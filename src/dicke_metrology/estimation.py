"""Quantum Fisher information of the ground-state family in the coupling.

The coupling enters through both moments, so the QFI of a pure Gaussian
family splits into a quadratic (covariance) part and a displacement part:

    H = -Tr[Omega^T dcov Omega dcov] + dmean^T cov^-1 dmean

with the symmetric logarithmic derivative L = R^T Phi R + R^T zeta - nu,
Phi = -dcov, zeta = Omega^T cov^-1 dmean, nu = Tr[Omega^T cov Omega Phi].

Moment derivatives are exact: the chain rule runs through the mean-field
scalars k, alpha, beta, the effective atomic frequency, the normal-mode
frequencies and the rotation angle theta, and the product rule through the
symplectic chain S = F1^-1 F2(theta)^T F3^-1 that builds cov = S S^T / 2.
There is no step to choose; the only excluded couplings are the window of
half-width delta_min around lambda_c, where `derive` raises.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dicke import DEFAULT_DELTA_MIN, DickeParams, Phase, derive, ground_state
from .dicke import f1_matrix, f2_matrix, f3_matrix
from .gaussian import symplectic_form

# generator of the two-mode rotation: d/dtheta F2(theta)^T = F2(theta)^T @ _ROT_GEN
_ROT_GEN = np.kron(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))


@dataclass(frozen=True)
class StateDerivative:
    """Coupling derivatives of the ground-state moments."""

    dcov: np.ndarray
    dmean: np.ndarray


def state_derivative(params: DickeParams, delta_min: float = DEFAULT_DELTA_MIN) -> StateDerivative:
    """d(cov)/d(lam) and d(mean)/d(lam) of the ground state at params, in closed form."""
    d = derive(params, delta_min=delta_min)
    w, w0, lam, k = d.omega, d.omega0, d.lam, d.k
    em, ep, wt = d.eps_minus, d.eps_plus, d.omega_tilde
    if d.phase is Phase.SUPERRADIANT:
        dk = -2.0 * k / lam
        root = math.sqrt(1.0 - k * k)
        dalpha = root / w - (lam / w) * k * dk / root
        dbeta = -dk / (4.0 * d.beta)
    else:
        dk = dalpha = dbeta = 0.0
    dwt = -w0 * dk / (2.0 * k * k)
    # normal modes: eps_-+^2 = (s -+ r) / 2 with r = hypot(u, v) and ds = du
    u, v = (w0 / k) ** 2 - w * w, 4.0 * lam * math.sqrt(w * w0 * k)
    ds = -2.0 * w0 * w0 * dk / k**3
    dv = 4.0 * math.sqrt(w * w0 * k) * (1.0 + lam * dk / (2.0 * k))
    r = math.hypot(u, v)
    if r > 0.0:
        dr = (u * ds + v * dv) / r
        # theta = atan2(y, x) / 2
        y, x = v * k * k, w0 * w0 - k * k * w * w
        dy, dx = dv * k * k + 2.0 * v * k * dk, -2.0 * k * w * w * dk
        dtheta = 0.5 * (x * dy - y * dx) / (x * x + y * y)
    else:
        # resonance at lam = 0: the modes are degenerate, and the limit
        # lam -> 0+ has r = v and a constant theta = pi/4
        d = replace(d, theta=math.pi / 4.0)
        dr, dtheta = dv, 0.0
    dem, dep = (ds - dr) / (4.0 * em), (ds + dr) / (4.0 * ep)
    # product rule through the chain S = F1^-1 F2^T F3^-1 of `ground_state`;
    # the squeezers are diagonal, so they enter by their logarithmic derivatives
    f1_inv, rot, f3_inv = 1.0 / np.diag(f1_matrix(d)), f2_matrix(d).T, 1.0 / np.diag(f3_matrix(d))
    g1 = np.array([0.0, 0.0, 0.5, -0.5]) * (dwt / wt)
    g3 = np.array([-0.5 * dem / em, 0.5 * dem / em, -0.5 * dep / ep, 0.5 * dep / ep])
    chain = f1_inv[:, None] * rot * f3_inv
    dchain = g1[:, None] * chain + chain * g3 + dtheta * (f1_inv[:, None] * (rot @ _ROT_GEN) * f3_inv)
    a = dchain @ chain.T
    dmean = math.sqrt(2.0 * params.n_atoms) * np.array([dalpha, 0.0, -dbeta, 0.0])
    return StateDerivative(dcov=(a + a.T) / 2.0, dmean=dmean)


@dataclass(frozen=True)
class EstimationResult:
    """QFI split into covariance-driven and displacement-driven parts."""

    qfi: float
    quadratic_term: float
    displacement_term: float


def qfi(params: DickeParams, delta_min: float = DEFAULT_DELTA_MIN) -> EstimationResult:
    """Quantum Fisher information of the coupling at params."""
    sd = state_derivative(params, delta_min=delta_min)
    st = ground_state(params, delta_min=delta_min)
    omega = symplectic_form(2)
    quadratic = -float(np.trace(omega.T @ sd.dcov @ omega @ sd.dcov))
    displacement = float(sd.dmean @ np.linalg.solve(st.cov, sd.dmean))
    return EstimationResult(
        qfi=quadratic + displacement,
        quadratic_term=quadratic,
        displacement_term=displacement,
    )


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
    sd = state_derivative(params, delta_min=delta_min)
    st = ground_state(params, delta_min=delta_min)
    omega = symplectic_form(2)
    phi = -sd.dcov
    zeta = omega.T @ np.linalg.solve(st.cov, sd.dmean)
    nu = float(np.trace(omega.T @ st.cov @ omega @ phi))
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
