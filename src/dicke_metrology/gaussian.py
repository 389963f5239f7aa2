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


# the two-mode form, built once and shared read-only
_OMEGA2 = symplectic_form(2)
_OMEGA2.setflags(write=False)
# partial transposition of the second mode, p2 -> -p2 on each side of a cov,
# as one sign per entry; each product with it is exact, so it keeps the bits of
# the flip as diagonal matrix products
_PPT_FLIP = np.outer([1.0, 1.0, 1.0, -1.0], [1.0, 1.0, 1.0, -1.0])
_PPT_FLIP.setflags(write=False)


def _any(cond):
    """cond.any() for a batch; a 0-d condition, as one coupling or one matrix
    gives it, unchanged, which skips the reduction."""
    return cond.any() if isinstance(cond, np.ndarray) else cond


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
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", _symmetrized(cov))

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2


def _own_state(mean: np.ndarray, cov: np.ndarray) -> GaussianState:
    """A GaussianState that holds mean and cov themselves, unchecked.

    For the package's own records only: float arrays of shapes (2M,) and
    (2M, 2M) with cov exactly symmetric, which the public constructor's check
    and symmetrization would hand back with the same bits.
    """
    state = object.__new__(GaussianState)
    object.__setattr__(state, "mean", mean)
    object.__setattr__(state, "cov", cov)
    return state


def _symmetrized(cov: np.ndarray) -> np.ndarray:
    """(cov + cov^T)/2 of a covariance matrix, or of each matrix of a stack (..., 2M, 2M).

    Raises ValueError unless each is symmetric to 1e-8 of its largest entry
    magnitude, or of 1 if that is larger.
    """
    cov_t = np.swapaxes(cov, -1, -2)
    # fmax, like max(1.0, x), reads a nan entry as 1
    scale = np.fmax(1.0, np.abs(cov).max(axis=(-2, -1)))
    if (np.abs(cov - cov_t).max(axis=(-2, -1)) > 1e-8 * scale).any():
        raise ValueError("cov must be symmetric")
    return (cov + cov_t) / 2.0


def require_symplectic(f: np.ndarray) -> None:
    """Raise ValueError unless F Omega F^T = Omega for F, or for every F of a stack (..., 2M, 2M)."""
    omega = _OMEGA2 if f.shape[-1] == 4 else symplectic_form(f.shape[-1] // 2)
    defect = np.abs(f @ omega @ np.swapaxes(f, -1, -2) - omega).max(axis=(-2, -1))
    # scale-aware: squeezers with large entries lose a few digits in the product
    tol = SYMPLECTIC_TOL * np.maximum(1.0, np.abs(f).max(axis=(-2, -1))) ** 2
    bad = defect > tol
    if _any(bad):
        raise ValueError(f"matrix is not symplectic: |F Omega F^T - Omega| = {defect[bad].flat[0]:.3e}")


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
    """Symplectic eigenvalues of a two-mode covariance matrix, or of each of a stack.

    ``d_minus <= d_plus`` are the eigenvalues of the state itself;
    ``ppt_d_minus <= ppt_d_plus`` those of its partial transpose.
    ``i1 .. i4`` are the symplectic invariants det A, det B, det C, det cov
    for the block form cov = ((A, C), (C^T, B)).  Fields have the stack's shape.
    """

    d_plus: float | np.ndarray
    d_minus: float | np.ndarray
    ppt_d_plus: float | np.ndarray
    ppt_d_minus: float | np.ndarray
    i1: float | np.ndarray
    i2: float | np.ndarray
    i3: float | np.ndarray
    i4: float | np.ndarray

    @property
    def log_negativity(self) -> float | np.ndarray:
        """Logarithmic negativity E_N = max(0, -ln(2 ppt_d_minus))."""
        return _log_negativity(self.ppt_d_minus)


def _checked_invariants(cov) -> tuple[np.ndarray, ...]:
    """cov as a float array (..., 4, 4) with the invariants det A, det B,
    det C, det cov of each matrix, once they pass the checks.

    The invariant sums of the state and of its partial transpose are
    a + b + 2c and a + b - 2c.  UnphysicalStateError is raised where either
    gives a discriminant or a squared symplectic eigenvalue below -1e-10 of
    the matrix's largest entry magnitude (or 1) to the fourth; both
    discriminants are checked first, the state's before its transpose's.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 two-mode covariance, got {cov.shape}")
    # the 2 x 2 blocks ((A, C), (C^T, B)) of each matrix in one det call, which
    # gives each block the bits it gets alone; a block of subnormal entries, as
    # a nearly uncorrelated state's C can be, makes det warn of a division by
    # zero while it returns the right 0.0
    with np.errstate(divide="ignore"):
        dets = np.linalg.det(np.swapaxes(cov.reshape(cov.shape[:-2] + (2, 2, 2, 2)), -3, -2))
        det = np.linalg.det(cov)
    # [()] reads a 0-d block determinant as a numpy scalar, like det's own
    a, b, c = dets[..., 0, 0][()], dets[..., 1, 1][()], dets[..., 0, 1][()]
    # each matrix at its own scale; fmax, like max(1.0, x), reads a nan scale as 1
    tol = -1e-10 * np.fmax(1.0, np.abs(cov).max(axis=(-2, -1)) ** 4)
    deltas = (a + b + 2.0 * c, a + b - 2.0 * c)
    rads = [delta * delta - 4.0 * det for delta in deltas]
    for rad in rads:
        bad = rad < tol
        if _any(bad):
            raise UnphysicalStateError(f"negative discriminant {np.extract(bad, rad)[0]:.3e} in symplectic spectrum")
    for delta, rad in zip(deltas, rads):
        if _any((delta - np.sqrt(np.maximum(rad, 0.0))) / 2.0 < tol):
            raise UnphysicalStateError("negative squared symplectic eigenvalue")
    return cov, a, b, c, det


def _symplectic_eigenvalues(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d_plus, d_minus) of each matrix of cov (..., 4, 4).

    d+- = sqrt((Delta +- sqrt(Delta^2 - 4 det))/2) in terms of the invariants,
    evaluated through eig(Omega cov), whose error stays linear in machine
    epsilon at the degenerate spectra of pure states (the determinant route
    loses half the digits there through radicand cancellation).  Each entry of
    the product with Omega is one exact term, and each matrix of a stack gets
    the bits it gets alone.
    """
    d = np.sort(np.abs(np.linalg.eigvals(_OMEGA2 @ cov).imag), axis=-1)
    return (d[..., 2] + d[..., 3]) / 2.0, (d[..., 0] + d[..., 1]) / 2.0


def _log_negativity(ppt_d_minus):
    """E_N = max(0, -ln(2 ppt_d_minus)), elementwise."""
    # max(0.0, x) bit for bit: fmax reads a nan as 0.0, and + 0.0 turns -0.0 into 0.0
    return np.fmax(-np.log(2.0 * ppt_d_minus), 0.0) + 0.0


def symplectic_spectrum(cov: np.ndarray) -> SymplecticSpectrum:
    """Spectrum of a two-mode covariance matrix and its partial transpose, or of
    each matrix of a stack (..., 4, 4), with the bits that matrix gets alone."""
    cov, a, b, c, det = _checked_invariants(cov)
    # one eigenvalue call takes the state and its partial transpose
    d_plus, d_minus = _symplectic_eigenvalues(np.stack([cov, cov * _PPT_FLIP]))
    return SymplecticSpectrum(d_plus[0], d_minus[0], d_plus[1], d_minus[1], a, b, c, det)


def _ppt_d_minus(cov: np.ndarray) -> np.ndarray:
    """`symplectic_spectrum(cov).ppt_d_minus` bit for bit, after the same
    checks, from the eigenvalues of the partial transpose alone."""
    cov = _checked_invariants(cov)[0]
    return _symplectic_eigenvalues(cov * _PPT_FLIP)[1]


def log_negativity(cov: np.ndarray) -> float | np.ndarray:
    """Logarithmic negativity E_N = max(0, -ln(2 ppt_d_minus)) of a two-mode
    state, or of each of a stack: `symplectic_spectrum(cov).log_negativity`
    bit for bit, read from the partial transpose alone."""
    return _log_negativity(_ppt_d_minus(cov))


def wigner_at(state: GaussianState, points: np.ndarray) -> float | np.ndarray:
    """Wigner function, normalised over phase space, at a point (2M,) or at each of a stack (..., 2M)."""
    points = np.asarray(points, dtype=float)
    if points.shape[-1:] != state.mean.shape:
        raise ValueError(f"point shape {points.shape} does not match state dimension")
    sign, logdet = np.linalg.slogdet(state.cov)
    if sign <= 0:
        raise SingularCovarianceError("covariance determinant is not positive")
    delta = points - state.mean
    # a matmul per point keeps the bits of `delta @ solve(cov, delta)`; np.sum does not
    quad = (delta[..., None, :] @ np.linalg.solve(state.cov, delta[..., None]))[..., 0, 0]
    return np.exp(-0.5 * quad - state.n_modes * np.log(2.0 * np.pi) - 0.5 * logdet)


def state_to_dict(state: GaussianState) -> dict:
    """JSON-friendly dict {modes, mean, cov} with row-major cov."""
    return {
        "modes": state.n_modes,
        "mean": state.mean.tolist(),
        "cov": state.cov.tolist(),
    }
