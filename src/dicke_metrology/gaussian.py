"""Gaussian states of M bosonic modes and the symplectic calculus on them.

Conventions used throughout the package:

* hbar = 1, quadratures x = (a + a^dag)/sqrt(2), p = i(a^dag - a)/sqrt(2),
* quadrature ordering (x1, p1, x2, p2, ...),
* vacuum variance 1/2, i.e. the vacuum covariance matrix is I/2.

A state is the pair (mean, cov) of first moments and the symmetrized
covariance matrix.  All operations are plain numpy on small dense arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularCovarianceError, UnphysicalStateError

SYMPLECTIC_TOL = 1e-10


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2M x 2M symplectic form, block-diagonal in ((0, 1), (-1, 0))."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be positive, got {n_modes}")
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for m in range(n_modes):
        omega[2 * m, 2 * m + 1] = 1.0
        omega[2 * m + 1, 2 * m] = -1.0
    return omega


@dataclass(frozen=True)
class GaussianState:
    """First moments and covariance matrix of an M-mode Gaussian state."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0 or mean.size == 0:
            raise ValueError(f"mean must have even positive length, got shape {mean.shape}")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} does not match mean length {mean.size}")
        scale = max(1.0, float(np.max(np.abs(cov))))
        if np.max(np.abs(cov - cov.T)) > 1e-8 * scale:
            raise ValueError("cov must be symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", (cov + cov.T) / 2.0)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2


def vacuum_state(n_modes: int) -> GaussianState:
    """Vacuum of M modes: zero mean, covariance I/2."""
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes) / 2.0)


def require_symplectic(f: np.ndarray) -> None:
    """Raise ValueError unless F Omega F^T = Omega for F, or for every F of a stack (..., 2M, 2M)."""
    omega = symplectic_form(f.shape[-1] // 2)
    defect = np.abs(f @ omega @ np.swapaxes(f, -1, -2) - omega).max(axis=(-2, -1))
    # scale-aware: squeezers with large entries lose a few digits in the product
    tol = SYMPLECTIC_TOL * np.maximum(1.0, np.abs(f).max(axis=(-2, -1))) ** 2
    bad = defect > tol
    if bad.any():
        raise ValueError(f"matrix is not symplectic: |F Omega F^T - Omega| = {defect[bad].flat[0]:.3e}")


@dataclass(frozen=True)
class SymplecticTransform:
    """Affine Gaussian map R -> matrix @ R + displacement.

    The matrix must satisfy F Omega F^T = Omega; this is checked at
    construction time by `require_symplectic`.
    """

    matrix: np.ndarray
    displacement: np.ndarray | None = None

    def __post_init__(self) -> None:
        f = np.asarray(self.matrix, dtype=float)
        if f.ndim != 2 or f.shape[0] != f.shape[1] or f.shape[0] % 2 != 0:
            raise ValueError(f"matrix must be square of even dimension, got {f.shape}")
        d = self.displacement
        d = np.zeros(f.shape[0]) if d is None else np.asarray(d, dtype=float)
        if d.shape != (f.shape[0],):
            raise ValueError(f"displacement shape {d.shape} does not match matrix {f.shape}")
        require_symplectic(f)
        object.__setattr__(self, "matrix", f)
        object.__setattr__(self, "displacement", d)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2


def apply_symplectic(state: GaussianState, transform: SymplecticTransform) -> GaussianState:
    """Map (mean, cov) -> (F mean + d, F cov F^T)."""
    if transform.n_modes != state.n_modes:
        raise ValueError("transform and state act on different mode numbers")
    f = transform.matrix
    return GaussianState(f @ state.mean + transform.displacement, f @ state.cov @ f.T)


def partial_trace(state: GaussianState, keep: list[int] | tuple[int, ...]) -> GaussianState:
    """Reduced state of the modes in ``keep`` (0-based), in the order given."""
    keep = list(keep)
    if not keep:
        raise ValueError("keep must name at least one mode")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate mode indices in {keep}")
    for m in keep:
        if not 0 <= m < state.n_modes:
            raise IndexError(f"mode index {m} out of range for {state.n_modes}-mode state")
    idx = np.array([i for m in keep for i in (2 * m, 2 * m + 1)])
    return GaussianState(state.mean[idx], state.cov[np.ix_(idx, idx)])


@dataclass(frozen=True)
class SymplecticSpectrum:
    """Symplectic eigenvalues of a two-mode covariance matrix.

    ``d_minus <= d_plus`` are the eigenvalues of the state itself;
    ``ppt_d_minus <= ppt_d_plus`` those of its partial transpose.
    ``i1 .. i4`` are the symplectic invariants det A, det B, det C, det cov
    for the block form cov = ((A, C), (C^T, B)).
    """

    d_plus: float
    d_minus: float
    ppt_d_plus: float
    ppt_d_minus: float
    i1: float
    i2: float
    i3: float
    i4: float


def _check_invariants(delta: float, det: float, scale: float) -> None:
    rad = delta * delta - 4.0 * det
    if rad < -1e-10 * max(1.0, scale):
        raise UnphysicalStateError(f"negative discriminant {rad:.3e} in symplectic spectrum")
    if (delta - np.sqrt(max(rad, 0.0))) / 2.0 < -1e-10 * max(1.0, scale):
        raise UnphysicalStateError("negative squared symplectic eigenvalue")


def _eigen_pair(cov: np.ndarray) -> tuple[float, float]:
    # d+- = sqrt((Delta +- sqrt(Delta^2 - 4 det))/2) in terms of the invariants;
    # evaluated through eig(Omega cov), whose error stays linear in machine
    # epsilon at the degenerate spectra of pure states (the determinant route
    # loses half the digits there through radicand cancellation).
    ev = np.linalg.eigvals(symplectic_form(2) @ cov)
    d = np.sort(np.abs(ev.imag))
    return (d[2] + d[3]) / 2.0, (d[0] + d[1]) / 2.0


def symplectic_spectrum(cov: np.ndarray) -> SymplecticSpectrum:
    """Spectrum of a two-mode covariance matrix and its partial transpose."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (4, 4):
        raise ValueError(f"expected a 4x4 two-mode covariance, got {cov.shape}")
    a = np.linalg.det(cov[:2, :2])
    b = np.linalg.det(cov[2:, 2:])
    c = np.linalg.det(cov[:2, 2:])
    det = np.linalg.det(cov)
    scale = float(np.max(np.abs(cov))) ** 4
    _check_invariants(a + b + 2.0 * c, det, scale)
    _check_invariants(a + b - 2.0 * c, det, scale)
    d_plus, d_minus = _eigen_pair(cov)
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    ppt_plus, ppt_minus = _eigen_pair(flip @ cov @ flip)
    return SymplecticSpectrum(d_plus, d_minus, ppt_plus, ppt_minus, a, b, c, det)


def log_negativity(cov: np.ndarray) -> float:
    """Logarithmic negativity E_N = max(0, -ln(2 d_minus_ppt)) of a two-mode state."""
    spectrum = symplectic_spectrum(cov)
    return max(0.0, -np.log(2.0 * spectrum.ppt_d_minus))


def purity(cov: np.ndarray) -> float:
    """Purity mu = 1 / (2^M sqrt(det cov))."""
    cov = np.asarray(cov, dtype=float)
    n_modes = cov.shape[0] // 2
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise SingularCovarianceError("covariance determinant is not positive")
    return float(np.exp(-n_modes * np.log(2.0) - 0.5 * logdet))


def wigner_at(state: GaussianState, point: np.ndarray) -> float:
    """Wigner function at a phase-space point; integrates to one over phase space."""
    point = np.asarray(point, dtype=float)
    if point.shape != state.mean.shape:
        raise ValueError(f"point shape {point.shape} does not match state dimension")
    sign, logdet = np.linalg.slogdet(state.cov)
    if sign <= 0:
        raise SingularCovarianceError("covariance determinant is not positive")
    delta = point - state.mean
    quad = delta @ np.linalg.solve(state.cov, delta)
    m = state.n_modes
    return float(np.exp(-0.5 * quad - m * np.log(2.0 * np.pi) - 0.5 * logdet))


def characteristic_function_at(state: GaussianState, lam: np.ndarray) -> complex:
    """Symmetrically ordered characteristic function chi(Lambda)."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != state.mean.shape:
        raise ValueError(f"argument shape {lam.shape} does not match state dimension")
    omega = symplectic_form(state.n_modes)
    ol = omega.T @ lam
    quad = ol @ state.cov @ ol
    phase = lam @ omega @ state.mean
    return complex(np.exp(-0.5 * quad - 1j * phase))


def state_to_dict(state: GaussianState) -> dict:
    """JSON-friendly dict {modes, mean, cov} with row-major cov."""
    return {
        "modes": state.n_modes,
        "mean": state.mean.tolist(),
        "cov": state.cov.tolist(),
    }


def state_from_dict(data: dict) -> GaussianState:
    """Inverse of :func:`state_to_dict`; validates the mode count."""
    state = GaussianState(np.asarray(data["mean"]), np.asarray(data["cov"]))
    if state.n_modes != int(data["modes"]):
        raise ValueError("mode count does not match moment dimensions")
    return state
