"""Thermodynamic-limit ground states of the Dicke model.

N two-level atoms of splitting omega0 couple with strength lam to a single
radiation mode of frequency omega.  After a Holstein-Primakoff expansion
around the mean field the ground state is Gaussian in two effective modes
(mode 0: radiation, mode 1: atomic fluctuations).  The quantum phase
transition sits at lambda_c = sqrt(omega * omega0) / 2; below it the mean
field vanishes (normal phase), above it the field and the atomic polarization
acquire macroscopic displacements (superradiant phase).

In both phases the quadratic Hamiltonian reads H = (p^T T p + x^T V x) / 2
with T = Diag(omega, omega_tilde) and no x-p terms (Emary and Brandes, PRE
67, 066203 (2003)), so the covariance is an x block and a p block, read in
closed form from the square root of M = T^1/2 V T^1/2 (see `_ground`).
Atom number enters the first moments only; the second moments are
N-independent.

All of this is written once, vectorised over couplings of any shape that
share (omega, omega0, N), in two stages: the ground stage `_ground` runs mean
field -> blocks -> mean and cov into one record, and the derivative stage
`_jet` adds the exact coupling derivatives of the same closed form.
`moment_jet` runs both on a 1-D array, one row per coupling, and
`ground_moments` the first.  Each coupling is evaluated on its own, so a
sweep and a point-by-point loop give the same bits.

A DickeParams keeps nothing but its fields: each one-coupling reader runs
the stages it needs at the params' coupling as a numpy scalar, so each step
is scalar arithmetic.  The state never reads the normal-mode spectrum: only
`derive` forms the normal-mode frequencies and the Bogoliubov angle theta,
and `symplectic_chain` builds the 4 x 4 chain from them.  Where a batch
picks one of two values per coupling, `_select` calls np.where, and for one
coupling returns the chosen value itself, so both shapes run one formula;
`gaussian._any` does likewise for conditions.  Squares are written as
products, because a numpy scalar's `** 2` calls pow, which can differ from
an array's in the last bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CriticalPointSingularity
from .gaussian import GaussianState, _any, _own_state, require_symplectic

# half-width, relative to lambda_c, of the window around lambda_c that every
# coupling evaluation refuses: the paper's reduced offset |lam / lambda_c - 1|
DELTA_MIN = 1e-8

RADIATION_MODE = 0
ATOMIC_MODE = 1
# the radiation mode's quadratures in the two-mode moments
_RAD = slice(2 * RADIATION_MODE, 2 * RADIATION_MODE + 2)


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
        return _critical_coupling(self.omega, self.omega0)


def _critical_coupling(w: float, w0: float) -> float:
    """lambda_c = sqrt(omega * omega0) / 2, where the superradiant phase begins."""
    return math.sqrt(w * w0) / 2.0


def _select(cond, a, b):
    """np.where(cond, a, b) for a batch; for the 0-d np.bool_ condition of one
    coupling, the chosen value itself, which skips the ufunc call.

    Both values are computed, as np.where needs them; a Python float constant
    chosen at 0-d stays a Python float, and arithmetic with the numpy scalars
    around it gives the bits of the batch.
    """
    if isinstance(cond, np.bool_):
        return a if cond else b
    return np.where(cond, a, b)


def derive(params: DickeParams) -> dict:
    """Mean-field and normal-mode data at the coupling of params, as the dict
    {lambda_c, k, alpha, beta, theta, eps_minus, eps_plus, omega_tilde, phase};
    phase is "normal" or "superradiant".  Raises CriticalPointSingularity
    within DELTA_MIN lambda_c of lambda_c.

    The only place that forms the normal-mode spectrum, which the state does
    not read: with u, v, s, r and p scaled by k^2, eps_-+^2 = (s -+ r) /
    (2 k^2) and the angle tan(2 theta) = v / u of the Bogoliubov rotation.
    """
    ground = _ground_at(params)
    w, w0, lam, k = params.omega, params.omega0, ground.lam, ground.k
    omega_tilde = w0 * (1.0 + k) / (2.0 * k)
    u = w0 * w0 - k * k * w * w  # omega0^2 - (k omega)^2
    v = 4.0 * lam * np.sqrt(w * w0 * k) * k * k
    s = w0 * w0 + k * k * w * w  # omega0^2 + (k omega)^2
    r = np.hypot(u, v)
    # s - r cancels to nothing deep in the superradiant phase, so eps_-^2 is
    # 2 p / (s + r), with p = (s^2 - r^2) / 4 = (k eps_minus eps_plus)^2
    # written per phase; q = w w0 sqrt(1 - k^2) above lambda_c
    if ground.superradiant:
        p = ground.q * ground.q
    else:
        p = 4.0 * w * w0 * (ground.lam_c - lam) * (ground.lam_c + lam)
    # at resonance and lam = 0 the two normal modes are degenerate and theta is
    # undefined; the limit lam -> 0+, theta = pi/4, leaves the state the vacuum
    theta = 0.5 * np.arctan2(v, u) if r > 0.0 else np.pi / 4.0
    values = {
        "k": k, "alpha": ground.alpha, "beta": ground.beta, "theta": theta,
        "eps_minus": np.sqrt(2.0 * p / (s + r)), "eps_plus": np.sqrt((s + r) / 2.0) / k, "omega_tilde": omega_tilde,
    }
    return {
        "lambda_c": ground.lam_c,
        **{name: float(value) for name, value in values.items()},
        "phase": "superradiant" if ground.superradiant else "normal",
    }


def _squeezers(a, b) -> np.ndarray:
    """Diagonal (sqrt a, 1/sqrt a, sqrt b, 1/sqrt b) of two local squeezers."""
    root_a, root_b = np.sqrt(a), np.sqrt(b)
    return np.array([root_a, 1.0 / root_a, root_b, 1.0 / root_b])


def _rotation(theta) -> np.ndarray:
    """Two-mode rotation F2(theta) mixing the dimensionless quadratures."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, 0.0, -s, 0.0], [0.0, c, 0.0, -s], [s, 0.0, c, 0.0], [0.0, s, 0.0, c]])


def symplectic_chain(params: DickeParams) -> np.ndarray:
    """The 4 x 4 symplectic matrix S whose S S^T / 2 is the ground-state
    covariance at the coupling of params.

    S = F1^-1 F2(theta)^T F3^-1 undoes the chain that brings the Hamiltonian
    to normal form: F1 = Diag(1/sqrt(w), sqrt(w), 1/sqrt(wt), sqrt(wt)) into
    dimensionless quadratures, the rotation F2 by the theta of `derive`
    (pi/4 at the degenerate point lam = 0 on resonance), and F3 =
    Diag(sqrt(em), 1/sqrt(em), sqrt(ep), 1/sqrt(ep)) into the normal-mode
    scales.  Raises ValueError if S is not symplectic.
    """
    modes = derive(params)
    f1_inv = _squeezers(params.omega, modes["omega_tilde"])
    f3_inv = 1.0 / _squeezers(modes["eps_minus"], modes["eps_plus"])
    chain = f1_inv[:, None] * _rotation(modes["theta"]).T * f3_inv
    require_symplectic(chain)
    return chain


def _x_displacement(x1, x2, n_atoms: int) -> np.ndarray:
    """Vectors sqrt(2N) (x1, 0, -x2, 0), per coupling: x1 a numpy array or
    scalar, x2 of its shape or a Python float at 0-d."""
    scale = math.sqrt(2.0 * n_atoms)
    out = np.zeros(x1.shape + (4,))
    out[..., 0] = scale * x1
    out[..., 2] = scale * -x2
    return out


# the smallest normal double
_TINY = float(np.finfo(float).tiny)
# the frequency band [2^-511, sqrt(largest double)], inside which lambda_c,
# omega omega0, omega^2 and omega0^2 are normal doubles
_FREQ_MIN, _FREQ_MAX = math.sqrt(_TINY), math.sqrt(float(np.finfo(float).max))


@dataclass(frozen=True)
class MomentJet:
    """Ground-state moments and their coupling derivatives: rows for a batch,
    0-d for one coupling.

    mean and dmean have shape (n, 4), cov and dcov shape (n, 4, 4) for a batch
    of n couplings, and (4,) and (4, 4) for one, with the quadratures ordered
    (x_rad, p_rad, x_atoms, p_atoms).
    """

    mean: np.ndarray
    cov: np.ndarray
    dmean: np.ndarray
    dcov: np.ndarray


def _checked_couplings(lams, omega: float, omega0: float, n_atoms: int) -> np.ndarray:
    """The couplings as a 1-D float array, once they and (omega, omega0, n_atoms) are
    checked to lie in the model's domain; raises ValueError where they do not.

    Three bounds keep the moments finite: 2N must be a finite double; omega
    and omega0 must lie in [_FREQ_MIN, _FREQ_MAX] = [2^-511, 1.34e154], so
    that lambda_c, omega omega0, omega^2 and omega0^2 are normal doubles
    (measured on the lines omega = 2^k with omega0 = 2^-k or 1, and swapped:
    the photon rows, which read the moments alone, at lam = 0 and
    lambda_c / 2 were finite up to k = 511 and nan or inf at k = 512; other
    rows may still overflow inside the band); and no coupling may pass
    lambda_c / sqrt(_TINY max(1, omega) max(1, omega0)), past which
    k = (lambda_c / lam)^2 or the upper normal-mode frequency, about
    omega0 / k, leaves the doubles; at frequencies from 1e-3 to 1e3 the
    moments were measured finite up to twice that bound.
    """
    try:
        lam = np.array(lams, dtype=float, ndmin=1)
    except OverflowError:  # an int too large for a double
        raise ValueError(f"couplings must be finite, got {lams!r}") from None
    if lam.ndim != 1:
        raise ValueError(f"couplings must form a 1-D array, got shape {lam.shape}")
    try:
        w, w0, n = float(omega), float(omega0), float(n_atoms)
    except OverflowError:  # an int too large for a double
        w = w0 = n = math.nan
    model = 0 < w < math.inf and 0 < w0 < math.inf and 1 <= n and 2.0 * n < math.inf and n.is_integer()
    in_band = _FREQ_MIN <= w <= _FREQ_MAX and _FREQ_MIN <= w0 <= _FREQ_MAX
    if model and in_band:
        bound = _critical_coupling(w, w0) / math.sqrt(max(1.0, w) * max(1.0, w0) * _TINY)
        # the usual case in one pass; a nan coupling fails it, and the checks
        # below name the first rule broken
        if ((lam >= 0.0) & (lam <= bound)).all():
            return lam
    if not np.isfinite(lam).all():
        raise ValueError(f"couplings must be finite, got {lam[~np.isfinite(lam)][0]}")
    if (lam < 0).any():
        raise ValueError(f"couplings must be nonnegative, got {lam[lam < 0][0]}")
    if not model:
        raise ValueError(
            f"omega and omega0 must be finite and positive and n_atoms a positive integer at most half the "
            f"largest double, got {omega!r}, {omega0!r}, {n_atoms!r}"
        )
    if not in_band:
        raise ValueError(
            f"omega and omega0 must lie in [{_FREQ_MIN!r}, {_FREQ_MAX!r}], where lambda_c, omega omega0 and"
            f" their squares are normal doubles, got {omega!r}, {omega0!r}"
        )
    if (lam > bound).any():
        raise ValueError(f"couplings must be at most {bound!r} at these frequencies, got {lam[lam > bound][0]}")
    return lam


class _Ground(NamedTuple):
    """The ground stage at each coupling of an array that shares (omega,
    omega0, n_atoms): the mean field, the moments, and the block quantities
    q, a, b, s2, s, g and l_s = L / s of `_ground` that the derivative stage
    reads."""

    lam: np.ndarray
    lam_c: float
    superradiant: np.ndarray
    k: np.ndarray
    root: np.ndarray  # sqrt(1 - k^2)
    alpha: np.ndarray
    beta: np.ndarray
    q: np.ndarray  # k sqrt(det M)
    omega: float
    omega0: float
    n_atoms: int
    a: np.ndarray
    b: np.ndarray
    s2: np.ndarray
    s: np.ndarray
    g: np.ndarray
    l_s: np.ndarray
    mean: np.ndarray
    cov: np.ndarray


def _ground(lam: np.ndarray, omega: float, omega0: float, n_atoms: int) -> _Ground:
    """Mean field, blocks and moments at each coupling in lam, couplings that
    `_checked_couplings` accepts with the model: a 1-D float array, whose
    results carry a leading axis, or a numpy float64 scalar, whose mean is
    (4,), cov (4, 4) and other fields numpy scalars.

    Raises CriticalPointSingularity when any |lam - lambda_c| <= DELTA_MIN
    lambda_c, where the lower normal-mode frequency vanishes and the Gaussian
    description is singular.

    The mean field: k = (lambda_c / lam)^2 in the superradiant phase and
    exactly 1 below it, alpha = (lam / omega) sqrt(1 - k^2) and beta =
    sqrt((1 - k) / 2), both taken with the positive sign.  The blocks are
    sigma_x = T^1/2 R^-1 T^1/2 / 2 and sigma_p = T^-1/2 R T^-1/2 / 2, with
    T = Diag(omega, omega_tilde) and R = sqrt(M) = (M + sqrt(det M) I) /
    sqrt(tr M + 2 sqrt(det M)) for M = T^1/2 V T^1/2 = [[omega^2, m], [m,
    omega0^2 / k^2]], m = 2 lam sqrt(omega omega0 k).  Scaled by k^2:
    q = k sqrt(det M), formed per phase without a square or a subtraction,
    and (k tr R)^2 = s2 = omega0^2 + (k omega)^2 + 2 k q.  With a = omega0^2
    + k q, b = k omega^2 + q, s = sqrt(s2), g = sqrt((1 + k)/2) and L = lam
    k^2:

        sigma_x = [[omega a / (2 q s), -omega omega0 g L / (q s)],
                   [.., omega0 (1 + k) b / (4 q s)]],
        sigma_p = [[b / (2 omega s), L / (g s)], [.., a / (omega0 (1 + k) s)]],

    each entry a product of ratios, which stays inside the doubles where the
    entry does.  The mean is sqrt(2N) (alpha, 0, -beta, 0).
    """
    lc = _critical_coupling(omega, omega0)
    gap = np.abs(lam - lc)
    inside = gap <= DELTA_MIN * lc
    if _any(inside):
        raise CriticalPointSingularity(
            f"|lam - lambda_c| = {gap[inside][0]:.3e} <= DELTA_MIN lambda_c = {DELTA_MIN * lc:.3e}"
        )
    superradiant = lam >= lc
    ratio = lc / _select(superradiant, lam, lc)
    k = ratio * ratio
    root = np.sqrt(1.0 - k * k)
    alpha = (lam / omega) * root
    beta = np.sqrt((1.0 - k) / 2.0)
    # q = omega omega0 sqrt(1 - k^2) above lambda_c and 4 lambda_c
    # sqrt((lambda_c - lam)(lambda_c + lam)) below it, where the normal branch
    # takes lambda_c at a superradiant coupling, whose square may overflow
    normal = _select(superradiant, lc, lam)
    q = _select(superradiant, omega * omega0 * root, 4.0 * lc * np.sqrt((lc - normal) * (lc + normal)))
    a = omega0 * omega0 + k * q
    b = k * omega * omega + q
    kw = k * omega
    s2 = omega0 * omega0 + kw * kw + 2.0 * k * q
    s = np.sqrt(s2)
    g = np.sqrt((1.0 + k) / 2.0)
    # L / s, taken so that lam k^2 may underflow where L / s does not
    l_s = lam * k / s * k
    a_s = a / s
    # (x_rad, p_rad, x_atoms, p_atoms): x-x and p-p entries only
    cov = np.zeros(np.shape(lam) + (4, 4))
    cov[..., 0, 0] = a_s * (omega / q) / 2.0
    cov[..., 1, 1] = b / s / (2.0 * omega)
    cov[..., 2, 2] = omega0 * (1.0 + k) / 4.0 * (b / q) / s
    cov[..., 3, 3] = a_s / (omega0 * (1.0 + k))
    cov[..., 0, 2] = cov[..., 2, 0] = -(omega * omega0 / q) * g * l_s
    cov[..., 1, 3] = cov[..., 3, 1] = l_s / g
    mean = _x_displacement(alpha, beta, n_atoms)
    return _Ground(
        lam, lc, superradiant, k, root, alpha, beta, q, omega, omega0, n_atoms, a, b, s2, s, g, l_s, mean, cov
    )


def _ground_at(params: DickeParams) -> _Ground:
    """The ground stage at the coupling of params, as a numpy scalar."""
    # __post_init__ has checked the coupling
    return _ground(np.float64(params.lam), params.omega, params.omega0, params.n_atoms)


def ground_moments(lams, omega: float, omega0: float, n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean (n, 4) and covariance (n, 4, 4) of the ground state at each coupling in lams.

    The couplings share omega, omega0 and n_atoms.  This is moment_jet
    without the derivatives.
    """
    ground = _ground(_checked_couplings(lams, omega, omega0, n_atoms), omega, omega0, n_atoms)
    return ground.mean, ground.cov


def moment_jet(lams, omega: float, omega0: float, n_atoms: int) -> MomentJet:
    """Ground-state moments and their exact coupling derivatives at each coupling in lams.

    The couplings share omega, omega0 and n_atoms.  Each coupling is
    evaluated on its own: a batch gives every coupling the same bits as a
    one-coupling call.
    """
    return _jet(_ground(_checked_couplings(lams, omega, omega0, n_atoms), omega, omega0, n_atoms))


def _jet(ground: _Ground) -> MomentJet:
    """The derivative stage: the moments of ground and their coupling derivatives.

    The chain rule runs through k, alpha and beta for the mean, dmean =
    sqrt(2N) (dalpha, 0, -dbeta, 0), and through k and q for the blocks of
    `_ground`.  Deep in the superradiant phase the entries tend to constants,
    and the sums d log a - d log q - d log s that their derivatives take would
    cancel to a few digits there, so each diagonal entry's log-derivative is
    one sum of like-signed terms.  With Z = (q^2 - (omega omega0)^2) dk =
    -(k omega omega0)^2 dk (dk = 0 below lambda_c):

        d log(a / s) = k (k b dq + Z) / (a s2),
        d log(b / s) = (a dq - Z) / (b s2),
        d log(b / (q s)) = -(k y d log q + Z) / (b s2),

    with y = q^2 + (omega omega0)^2 + 3 k omega^2 q + k^2 omega^4, each a
    sum of ratios that stays inside the doubles where the result does.  The
    jet has the shape of ground: rows for a 1-D batch, mean (4,) and cov
    (4, 4) for a scalar.
    """
    w, w0, cov, lc, root = ground.omega, ground.omega0, ground.cov, ground.lam_c, ground.root
    lam, k, sr, q = ground.lam, ground.k, ground.superradiant, ground.q
    a, b, s2, s, g, l_s = ground.a, ground.b, ground.s2, ground.s, ground.g, ground.l_s
    # below lambda_c, k, alpha and beta are constant; the safe denominators
    # only stand in where the numerators vanish
    lam_sr = _select(sr, lam, lc)
    dk = _select(sr, -2.0 * k / lam_sr, 0.0)
    safe_root = _select(sr, root, 1.0)
    dalpha = root / w - (lam / w) * k * dk / safe_root
    dbeta = -dk / (4.0 * _select(sr, ground.beta, 1.0))
    # q = w w0 sqrt(1 - k^2) above lambda_c, where d log k = -2 / lam, and
    # 4 lambda_c sqrt((lambda_c - lam)(lambda_c + lam)) below it
    dlog_q = _select(sr, 2.0 * k * k / (lam_sr * (safe_root * safe_root)), -lam / ((lc - lam) * (lc + lam)))
    dq = q * dlog_q
    ww0, kw2 = w * w0, k * w * w
    z = k * ww0
    z_as, z_bs = z / a * (z / s2) * dk, z / b * (z / s2) * dk  # -Z / (a s2), -Z / (b s2)
    dlog_as = k * (k * (b / s2) * (dq / a) - z_as)
    dlog_bs = (a / s2) * (dq / b) + z_bs
    ky_bs = k * (q / b * (q / s2) + ww0 / b * (ww0 / s2) + 3.0 * (kw2 / b) * (q / s2) + kw2 / b * (kw2 / s2))
    dlog_bqs = z_bs - ky_bs * dlog_q
    dlog_1k = dk / (1.0 + k)  # = 2 d log g
    dlog_s = b / s2 * dk + k / s2 * dq
    dl_s = _select(sr, -3.0, 1.0) * (k / s) * k  # dL / s = k^2 (1 + 2 lam d log k) / s
    dcov = np.zeros_like(cov)
    dcov[..., 0, 0] = cov[..., 0, 0] * (dlog_as - dlog_q)
    dcov[..., 1, 1] = cov[..., 1, 1] * dlog_bs
    dcov[..., 2, 2] = cov[..., 2, 2] * (dlog_1k + dlog_bqs)
    dcov[..., 3, 3] = cov[..., 3, 3] * (dlog_as - dlog_1k)
    x_slope = cov[..., 0, 2] * (0.5 * dlog_1k - dlog_q - dlog_s) - (ww0 / q) * g * dl_s
    dcov[..., 0, 2] = dcov[..., 2, 0] = x_slope
    dcov[..., 1, 3] = dcov[..., 3, 1] = (dl_s - l_s * (0.5 * dlog_1k + dlog_s)) / g
    dmean = _x_displacement(dalpha, dbeta, ground.n_atoms)
    return MomentJet(ground.mean, cov, dmean, dcov)


def ground_state(params: DickeParams) -> GaussianState:
    """Two-mode Gaussian ground state (mode 0 radiation, mode 1 atoms)."""
    ground = _ground_at(params)
    return _own_state(ground.mean, ground.cov)


def reduced_radiation_state(params: DickeParams) -> GaussianState:
    """Single-mode reduced state of the radiation mode: the partial trace of
    `ground_state`, bit for bit.  `_ground` builds cov exactly symmetric, so
    the check and symmetrization of a public GaussianState would return the
    block's own bits, and neither runs."""
    ground = _ground_at(params)
    return _own_state(ground.mean[_RAD], ground.cov[_RAD, _RAD])
