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

All of this is written once, vectorised over a 1-D array of couplings that
share (omega, omega0, N): `moment_jet` runs mean field ->
Bogoliubov modes -> chain -> exact coupling derivatives and returns mean,
cov, dmean and dcov with one row per coupling; `ground_moments` is the same
code without the derivatives.  `derive`, `ground_state` and everything built
on them call it with a single coupling, and each coupling is evaluated on
its own, so a sweep and a point-by-point loop give the same bits.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CriticalPointSingularity
from .gaussian import GaussianState, partial_trace, require_symplectic

# half-width of the window around lambda_c that every coupling evaluation refuses
DELTA_MIN = 1e-8

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
        _checked_couplings([self.lam], self.omega, self.omega0, self.n_atoms)

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


class _Modes(NamedTuple):
    """Mean-field and normal-mode data, one entry per coupling.

    u, v, s, r and p are the Bogoliubov quantities scaled by k^2, which keeps
    them of order omega0^2 deep in the superradiant phase.
    """

    lam: np.ndarray
    lam_c: float
    superradiant: np.ndarray
    k: np.ndarray
    root: np.ndarray  # sqrt(1 - k^2)
    alpha: np.ndarray
    beta: np.ndarray
    omega_tilde: np.ndarray
    u: np.ndarray  # omega0^2 - (k omega)^2
    v: np.ndarray
    s: np.ndarray  # omega0^2 + (k omega)^2
    r: np.ndarray  # hypot(u, v)
    p: np.ndarray  # (k eps_minus eps_plus)^2
    eps_minus: np.ndarray
    eps_plus: np.ndarray
    theta: np.ndarray


def _normal_modes(lam: np.ndarray, w: float, w0: float) -> _Modes:
    """Mean-field displacements and Bogoliubov data at every coupling in lam.

    Raises CriticalPointSingularity when any |lam - lambda_c| <= DELTA_MIN,
    where the lower normal-mode frequency vanishes and the Gaussian
    description is singular.
    """
    lc = math.sqrt(w * w0) / 2.0
    gap = np.abs(lam - lc)
    inside = gap <= DELTA_MIN
    if inside.any():
        raise CriticalPointSingularity(
            f"|lam - lambda_c| = {gap[inside][0]:.3e} <= DELTA_MIN = {DELTA_MIN:.3e}"
        )
    superradiant = lam >= lc
    # k = (lambda_c / lam)^2 in the superradiant phase and exactly 1 below it
    k = (lc / np.maximum(lam, lc)) ** 2
    # mean-field branch: both displacements taken with the positive sign
    root = np.sqrt(1.0 - k * k)
    alpha = (lam / w) * root
    beta = np.sqrt((1.0 - k) / 2.0)
    omega_tilde = w0 * (1.0 + k) / (2.0 * k)
    # normal-mode frequencies eps_-+^2 = (s -+ r) / (2 k^2) and the angle
    # tan(2 theta) = v / u of the Bogoliubov rotation
    u = w0 * w0 - k * k * w * w
    v = 4.0 * lam * np.sqrt(w * w0 * k) * k * k
    s = w0 * w0 + k * k * w * w
    r = np.hypot(u, v)
    # s - r cancels to nothing deep in the superradiant phase, so eps_-^2 is
    # 2 p / (s + r), with p = (s^2 - r^2) / 4 written per phase
    p = np.where(superradiant, (w * w0 * root) ** 2, 4.0 * w * w0 * (lc - lam) * (lc + lam))
    theta = 0.5 * np.arctan2(v, u)
    return _Modes(
        lam, lc, superradiant, k, root, alpha, beta, omega_tilde, u, v, s, r, p,
        np.sqrt(2.0 * p / (s + r)), np.sqrt((s + r) / 2.0) / k, theta,
    )


def derive(params: DickeParams) -> DickeDerived:
    """Mean-field displacements and Bogoliubov data at the given coupling.

    Raises CriticalPointSingularity when |lam - lambda_c| <= DELTA_MIN, where
    the lower normal-mode frequency vanishes and the Gaussian description is
    singular.
    """
    m = _normal_modes(np.array([params.lam], dtype=float), params.omega, params.omega0)
    return DickeDerived(
        lambda_c=m.lam_c,
        k=float(m.k[0]),
        alpha=float(m.alpha[0]),
        beta=float(m.beta[0]),
        theta=float(m.theta[0]),
        eps_minus=float(m.eps_minus[0]),
        eps_plus=float(m.eps_plus[0]),
        omega_tilde=float(m.omega_tilde[0]),
        phase=Phase.SUPERRADIANT if m.superradiant[0] else Phase.NORMAL,
        omega=params.omega,
        omega0=params.omega0,
        lam=params.lam,
    )


def _squeezers(a, b) -> np.ndarray:
    """Diagonal (sqrt a, 1/sqrt a, sqrt b, 1/sqrt b) of two local squeezers, per coupling."""
    diag = np.empty(np.broadcast(a, b).shape + (4,))
    diag[..., 0] = np.sqrt(a)
    diag[..., 2] = np.sqrt(b)
    diag[..., 1::2] = 1.0 / diag[..., 0::2]
    return diag


def _rotation(theta) -> np.ndarray:
    """Two-mode rotation F2(theta) mixing the dimensionless quadratures, per coupling."""
    c, s = np.cos(theta), np.sin(theta)
    f2 = np.zeros(np.shape(theta) + (4, 4))
    for i in (0, 1):
        f2[..., i, i] = f2[..., i + 2, i + 2] = c
        f2[..., i, i + 2] = -s
        f2[..., i + 2, i] = s
    return f2


def _chain(w, wt, theta, em, ep) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factors (diag F1^-1, F2(theta)^T, diag F3^-1) of the chain S = F1^-1 F2^T F3^-1."""
    return _squeezers(w, wt), np.swapaxes(_rotation(theta), -1, -2), 1.0 / _squeezers(em, ep)


def _product(f1_inv: np.ndarray, rot: np.ndarray, f3_inv: np.ndarray) -> np.ndarray:
    return f1_inv[..., :, None] * rot * f3_inv[..., None, :]


def symplectic_chain(derived: DickeDerived) -> np.ndarray:
    """Symplectic 4 x 4 matrix mapping the normal-mode vacuum to the ground state.

    The chain F1 -> rotation(theta) -> F3 brings the Hamiltonian to normal
    form, with F1 = Diag(1/sqrt(w), sqrt(w), 1/sqrt(wt), sqrt(wt)) into
    dimensionless quadratures and F3 = Diag(sqrt(em), 1/sqrt(em), sqrt(ep),
    1/sqrt(ep)) into the normal-mode scales, so the state is built with the
    inverse chain F = F1^-1 @ F2(theta)^T @ F3^-1.  At lam = 0 the chain is
    the identity.
    """
    d = derived
    chain = _product(*_chain(d.omega, d.omega_tilde, d.theta, d.eps_minus, d.eps_plus))
    require_symplectic(chain)
    return chain


def _x_displacement(x1, x2, n_atoms: int) -> np.ndarray:
    """Vectors sqrt(2N) (x1, 0, -x2, 0), per coupling."""
    out = np.zeros(np.broadcast(x1, x2).shape + (4,))
    out[..., 0] = x1
    out[..., 2] = -x2
    return math.sqrt(2.0 * n_atoms) * out


# generator of the two-mode rotation: d/dtheta F2(theta)^T = F2(theta)^T @ _ROT_GEN
_ROT_GEN = np.kron(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))
# d log _squeezers(a, b) = _DLOG_A da/a + _DLOG_B db/b
_DLOG_A = np.array([0.5, -0.5, 0.0, 0.0])
_DLOG_B = np.array([0.0, 0.0, 0.5, -0.5])


@dataclass(frozen=True)
class MomentJet:
    """Ground-state moments and their coupling derivatives, one row per coupling.

    mean and dmean have shape (n, 4), cov and dcov shape (n, 4, 4), with the
    quadratures ordered (x_rad, p_rad, x_atoms, p_atoms).
    """

    mean: np.ndarray
    cov: np.ndarray
    dmean: np.ndarray
    dcov: np.ndarray


def _checked_couplings(lams, omega: float, omega0: float, n_atoms: int) -> np.ndarray:
    """The couplings as a 1-D float array, once they and (omega, omega0, n_atoms) are
    checked to lie in the model's domain; raises ValueError where they do not."""
    lam = np.array(lams, dtype=float, ndmin=1)
    if lam.ndim != 1:
        raise ValueError(f"couplings must form a 1-D array, got shape {lam.shape}")
    if not np.isfinite(lam).all():
        raise ValueError(f"couplings must be finite, got {lam[~np.isfinite(lam)][0]}")
    if (lam < 0).any():
        raise ValueError(f"couplings must be nonnegative, got {lam[lam < 0][0]}")
    try:
        w, w0, n = float(omega), float(omega0), float(n_atoms)
        inside = 0 < w < math.inf and 0 < w0 < math.inf and 1 <= n < math.inf and n.is_integer()
    except OverflowError:  # an int too large for a double
        inside = False
    if not inside:
        raise ValueError(
            f"omega and omega0 must be finite and positive and n_atoms a positive integer, "
            f"got {omega!r}, {omega0!r}, {n_atoms!r}"
        )
    return lam


def _checked_chain(modes: _Modes, w: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Chain factors and the chain S at the couplings of modes, checked to be symplectic.

    At resonance and lam = 0 the two normal modes are degenerate and theta is
    undefined; the chain takes the limit lam -> 0+, theta = pi/4, which
    leaves the state the vacuum and fixes the derivative.
    """
    theta = np.where(modes.r > 0.0, modes.theta, np.pi / 4.0)
    f1_inv, rot, f3_inv = _chain(w, modes.omega_tilde, theta, modes.eps_minus, modes.eps_plus)
    chain = _product(f1_inv, rot, f3_inv)
    require_symplectic(chain)
    return f1_inv, rot, f3_inv, chain


def _moments(modes: _Modes, chain: np.ndarray, n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean sqrt(2N) (alpha, 0, -beta, 0) and covariance S S^T / 2 of the vacuum mapped by S."""
    g = chain @ chain.transpose(0, 2, 1)
    return _x_displacement(modes.alpha, modes.beta, n_atoms), (g + g.transpose(0, 2, 1)) / 4.0


def ground_moments(lams, omega: float, omega0: float, n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean (n, 4) and covariance (n, 4, 4) of the ground state at each coupling in lams.

    The couplings share omega, omega0 and n_atoms.  This is moment_jet
    without the derivatives.
    """
    modes = _normal_modes(_checked_couplings(lams, omega, omega0, n_atoms), omega, omega0)
    return _moments(modes, _checked_chain(modes, omega)[3], n_atoms)


def moment_jet(lams, omega: float, omega0: float, n_atoms: int) -> MomentJet:
    """Ground-state moments and their exact coupling derivatives at each coupling in lams.

    The couplings share omega, omega0 and n_atoms.  The chain rule runs
    through k, alpha, beta, the effective atomic frequency, the normal-mode
    frequencies and theta, and the product rule through the chain S, so that
    dcov = (dS S^T + S dS^T) / 2 and dmean = sqrt(2N) (dalpha, 0, -dbeta, 0).
    Each coupling is evaluated on its own: a batch gives every coupling the
    same bits as a one-coupling call.
    """
    w, w0 = omega, omega0
    m = _normal_modes(_checked_couplings(lams, w, w0, n_atoms), w, w0)
    f1_inv, rot, f3_inv, chain = _checked_chain(m, w)
    mean, cov = _moments(m, chain, n_atoms)
    lam, k, sr = m.lam, m.k, m.superradiant
    # below lambda_c, k, alpha and beta are constant; the safe denominators
    # only stand in where the numerators vanish
    dk = np.where(sr, -2.0 * k / np.maximum(lam, m.lam_c), 0.0)
    dalpha = m.root / w - (lam / w) * k * dk / np.where(sr, m.root, 1.0)
    dbeta = -dk / (4.0 * np.where(sr, m.beta, 1.0))
    # u and s differ by the constant 2 omega0^2, so du = -ds; v = 4 lam sqrt(w w0) k^(5/2)
    ds = 2.0 * k * w * w * dk
    dv = 4.0 * np.sqrt(w * w0 * k) * k * k * (1.0 + 2.5 * lam * dk / k)
    # r = 0 only at the degenerate point, where the limit lam -> 0+ has
    # r = v and a constant theta (see _checked_chain)
    regular = m.r > 0.0
    dr = np.where(regular, (m.v * dv - m.u * ds) / np.where(regular, m.r, 1.0), dv)
    dtheta = 0.5 * (m.u * dv + m.v * ds) / np.where(regular, m.r * m.r, 1.0)
    # log derivatives of s + r, of eps_+ = sqrt((s + r)/2)/k, of eps_-^2 = 2 p/(s + r)
    # and of omega_tilde / eps_+, with omega_tilde = w0 (1 + k)/(2 k)
    dlog_sr = (ds + dr) / (m.s + m.r)
    dlog_ep = 0.5 * dlog_sr - dk / k
    dlog_p = np.where(
        sr, -2.0 * k * dk / np.where(sr, m.root, 1.0) ** 2, -2.0 * lam / ((m.lam_c - lam) * (m.lam_c + lam))
    )
    dlog_em = 0.5 * (dlog_p - dlog_sr)
    dlog_ratio = dk / (1.0 + k) - 0.5 * dlog_sr
    # the squeezers are diagonal, so S_ij = f1_i R_ij f3_j changes by
    # S_ij (dlog f1_i + dlog f3_j) and through R.  Deep in the superradiant
    # phase omega_tilde and eps_+ grow alike, so the atomic rows' sqrt(omega_tilde)
    # is split into sqrt(omega_tilde / eps_+) sqrt(eps_+), and the second factor
    # cancels exactly against the eps_+ columns
    rows = np.multiply.outer(dlog_ratio, _DLOG_B)
    ep_rows = np.multiply.outer(dlog_ep, _DLOG_B)
    cols = -np.multiply.outer(dlog_em, _DLOG_A) - ep_rows
    turn = dtheta[:, None, None] * _product(f1_inv, rot @ _ROT_GEN, f3_inv)
    dchain = (rows[:, :, None] + (ep_rows[:, :, None] + cols[:, None, :])) * chain + turn
    a = dchain @ chain.transpose(0, 2, 1)
    return MomentJet(mean, cov, _x_displacement(dalpha, dbeta, n_atoms), (a + a.transpose(0, 2, 1)) / 2.0)


def ground_state(params: DickeParams) -> GaussianState:
    """Two-mode Gaussian ground state (mode 0 radiation, mode 1 atoms)."""
    mean, cov = ground_moments([params.lam], params.omega, params.omega0, params.n_atoms)
    return GaussianState(mean[0], cov[0])


def reduced_radiation_state(params: DickeParams) -> GaussianState:
    """Single-mode reduced state of the radiation mode."""
    return partial_trace(ground_state(params), [RADIATION_MODE])


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
