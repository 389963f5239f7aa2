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

All of this is written once, vectorised over couplings of any shape that
share (omega, omega0, N), in two stages: the ground stage `_ground` runs mean
field -> Bogoliubov modes -> chain -> mean and cov, and the derivative stage
`_jet` adds the exact coupling derivatives.  `moment_jet` runs both on a 1-D
array and returns mean, cov, dmean and dcov with one row per coupling;
`ground_moments` returns the ground stage's mean and cov.  Each coupling is
evaluated on its own, so a sweep and a point-by-point loop give the same
bits.

A DickeParams runs the ground stage once, on first use, at its one coupling
as a numpy scalar, where each step is scalar arithmetic rather than a ufunc
call on a one-element array, and keeps that record: mean (4,), cov and
chain (4, 4).  `ground_state`, `reduced_radiation_state`, `derive`,
`symplectic_chain` and the 0-d jet of `estimation.state_derivative` all read
it, and the record's mean, cov and chain, which they hand out, are
read-only; `reduced_radiation_state` hands out copies of its radiation
block.  The derivative stage is not kept; it runs again on each call that
needs it.  Where a batch picks one of two values per coupling, `_select`
calls np.where, and for one coupling returns the chosen value itself, so
both shapes run one formula; `gaussian._any` likewise reduces a batch's
condition and reads one coupling's as it is.  Squares are written as
products, because a numpy scalar's `** 2` calls pow, which can differ from
an array's `** 2` in the last bit.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import CriticalPointSingularity
from .gaussian import GaussianState, _any, _own_state, require_symplectic

# half-width of the window around lambda_c that every coupling evaluation refuses
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

    @functools.cached_property
    def _record(self) -> _Ground:
        """The ground stage `_ground` at lam, computed on first use.

        mean, cov and chain, the arrays that the public functions hand out,
        are read-only; the others never leave the package's private functions.
        Equality and hashing read the fields alone, and a copy or an unpickled
        params computes its own record (see __getstate__).
        """
        # __post_init__ has checked the coupling
        record = _ground(np.float64(self.lam), self.omega, self.omega0, self.n_atoms)
        for array in (record.mean, record.cov, record.chain):
            array.setflags(write=False)
        return record

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _critical_coupling(w: float, w0: float) -> float:
    """lambda_c = sqrt(omega * omega0) / 2, where the superradiant phase begins."""
    return math.sqrt(w * w0) / 2.0


class _Modes(NamedTuple):
    """Mean-field and normal-mode data, with the shape of the couplings.

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


def _normal_modes(lam: np.ndarray, w: float, w0: float) -> _Modes:
    """Mean-field displacements and Bogoliubov data at every coupling in lam.

    Raises CriticalPointSingularity when any |lam - lambda_c| <= DELTA_MIN,
    where the lower normal-mode frequency vanishes and the Gaussian
    description is singular.
    """
    lc = _critical_coupling(w, w0)
    gap = np.abs(lam - lc)
    inside = gap <= DELTA_MIN
    if _any(inside):
        raise CriticalPointSingularity(
            f"|lam - lambda_c| = {gap[inside][0]:.3e} <= DELTA_MIN = {DELTA_MIN:.3e}"
        )
    superradiant = lam >= lc
    # k = (lambda_c / lam)^2 in the superradiant phase and exactly 1 below it
    ratio = lc / _select(superradiant, lam, lc)
    k = ratio * ratio
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
    # 2 p / (s + r), with p = (s^2 - r^2) / 4 written per phase; the normal
    # branch takes lambda_c at a superradiant coupling, whose square may overflow
    wr = w * w0 * root
    normal = _select(superradiant, lc, lam)
    p = _select(superradiant, wr * wr, 4.0 * w * w0 * (lc - normal) * (lc + normal))
    # at resonance and lam = 0 the two normal modes are degenerate and theta is
    # undefined; the limit lam -> 0+, theta = pi/4, leaves the state the vacuum
    # and fixes the derivative
    theta = _select(r > 0.0, 0.5 * np.arctan2(v, u), np.pi / 4.0)
    return _Modes(
        lam, lc, superradiant, k, root, alpha, beta, omega_tilde, u, v, s, r, p,
        np.sqrt(2.0 * p / (s + r)), np.sqrt((s + r) / 2.0) / k, theta,
    )


def derive(params: DickeParams) -> dict:
    """Mean-field and normal-mode data at the coupling of params, as the dict
    {lambda_c, k, alpha, beta, theta, eps_minus, eps_plus, omega_tilde, phase}
    read from the normal modes that build the state; phase is "normal" or
    "superradiant".  Raises CriticalPointSingularity within DELTA_MIN of lambda_c.
    """
    m = params._record.modes
    names = ("k", "alpha", "beta", "theta", "eps_minus", "eps_plus", "omega_tilde")
    return {
        "lambda_c": m.lam_c,
        **{name: float(getattr(m, name)) for name in names},
        "phase": "superradiant" if m.superradiant else "normal",
    }


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


def _product(f1_inv: np.ndarray, rot: np.ndarray, f3_inv: np.ndarray) -> np.ndarray:
    return f1_inv[..., :, None] * rot * f3_inv[..., None, :]


def _x_displacement(x1, x2, n_atoms: int) -> np.ndarray:
    """Vectors sqrt(2N) (x1, 0, -x2, 0), per coupling: x1 a numpy array or
    scalar, x2 of its shape or a Python float at 0-d."""
    scale = math.sqrt(2.0 * n_atoms)
    out = np.zeros(x1.shape + (4,))
    out[..., 0] = scale * x1
    out[..., 2] = scale * -x2
    return out


# generator of the two-mode rotation: d/dtheta F2(theta)^T = F2(theta)^T @ _ROT_GEN
_ROT_GEN = np.kron(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))
# d log _squeezers(a, b) = _DLOG_A da/a + _DLOG_B db/b
_DLOG_A = np.array([0.5, -0.5, 0.0, 0.0])
_DLOG_B = np.array([0.0, 0.0, 0.5, -0.5])
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
    """The ground stage at each coupling of an array that shares (omega, omega0, n_atoms).

    f1_inv, rot and f3_inv are the factors (diag F1^-1, F2(theta)^T, diag F3^-1)
    of the chain S = F1^-1 F2(theta)^T F3^-1, which is checked symplectic; mean
    and cov are the moments of the normal-mode vacuum mapped by S.
    """

    modes: _Modes
    omega: float
    omega0: float
    n_atoms: int
    f1_inv: np.ndarray
    rot: np.ndarray
    f3_inv: np.ndarray
    chain: np.ndarray
    mean: np.ndarray
    cov: np.ndarray


def _ground(lam: np.ndarray, omega: float, omega0: float, n_atoms: int) -> _Ground:
    """Mean field, normal modes, chain and moments at each coupling in lam,
    couplings that `_checked_couplings` accepts with the model: a 1-D float
    array, whose results carry a leading axis, or a numpy float64 scalar,
    whose mean is (4,), cov and chain (4, 4) and modes numpy scalars.

    The chain F1 -> rotation F2(theta) -> F3 brings the Hamiltonian to normal
    form, with F1 = Diag(1/sqrt(w), sqrt(w), 1/sqrt(wt), sqrt(wt)) into
    dimensionless quadratures and F3 = Diag(sqrt(em), 1/sqrt(em), sqrt(ep),
    1/sqrt(ep)) into the normal-mode scales, so S maps the normal-mode vacuum
    to the ground state: mean sqrt(2N) (alpha, 0, -beta, 0) and covariance
    S S^T / 2; theta is that of `_normal_modes`, pi/4 at the degenerate point.
    Raises ValueError if a chain is not symplectic.
    """
    modes = _normal_modes(lam, omega, omega0)
    f1_inv = _squeezers(omega, modes.omega_tilde)
    rot = np.swapaxes(_rotation(modes.theta), -1, -2)
    f3_inv = 1.0 / _squeezers(modes.eps_minus, modes.eps_plus)
    chain = _product(f1_inv, rot, f3_inv)
    require_symplectic(chain)
    g = chain @ np.swapaxes(chain, -1, -2)
    mean = _x_displacement(modes.alpha, modes.beta, n_atoms)
    cov = (g + np.swapaxes(g, -1, -2)) / 4.0
    return _Ground(modes, omega, omega0, n_atoms, f1_inv, rot, f3_inv, chain, mean, cov)


def symplectic_chain(params: DickeParams) -> np.ndarray:
    """The 4 x 4 chain S of `_ground` at the coupling of params, the matrix
    whose S S^T / 2 is the ground-state covariance; read-only."""
    return params._record.chain


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

    The chain rule runs through k, alpha, beta, the effective atomic
    frequency, the normal-mode frequencies and theta, and the product rule
    through the chain S, so that dcov = (dS S^T + S dS^T) / 2 and
    dmean = sqrt(2N) (dalpha, 0, -dbeta, 0).  The jet has the shape of
    ground: rows for a 1-D batch, mean (4,) and cov (4, 4) for a scalar.
    """
    m, w, w0, chain = ground.modes, ground.omega, ground.omega0, ground.chain
    lam, k, sr = m.lam, m.k, m.superradiant
    # below lambda_c, k, alpha and beta are constant; the safe denominators
    # only stand in where the numerators vanish
    dk = _select(sr, -2.0 * k / _select(sr, lam, m.lam_c), 0.0)
    safe_root = _select(sr, m.root, 1.0)
    dalpha = m.root / w - (lam / w) * k * dk / safe_root
    dbeta = -dk / (4.0 * _select(sr, m.beta, 1.0))
    # u and s differ by the constant 2 omega0^2, so du = -ds; v = 4 lam sqrt(w w0) k^(5/2)
    ds = 2.0 * k * w * w * dk
    dv = 4.0 * np.sqrt(w * w0 * k) * k * k * (1.0 + 2.5 * lam * dk / k)
    # r = 0 only at the degenerate point, where the limit lam -> 0+ has
    # r = v and a constant theta (see _normal_modes)
    regular = m.r > 0.0
    r = _select(regular, m.r, 1.0)
    dr = _select(regular, (m.v * dv - m.u * ds) / r, dv)
    # r * r underflows where u and v both fall below ~1e-154, at couplings near
    # 0 on resonance; there dtheta is taken with the unit vector (u, v) / r
    rr = r * r
    small = rr < _TINY
    dtheta = 0.5 * (m.u * dv + m.v * ds) / _select(small, 1.0, rr)
    if _any(small):
        dtheta = _select(small, 0.5 * (m.u / r * dv + m.v / r * ds) / r, dtheta)
    # log derivatives of s + r, of eps_+ = sqrt((s + r)/2)/k, of eps_-^2 = 2 p/(s + r)
    # and of omega_tilde / eps_+, with omega_tilde = w0 (1 + k)/(2 k)
    dlog_sr = (ds + dr) / (m.s + m.r)
    dlog_ep = 0.5 * dlog_sr - dk / k
    dlog_p = _select(
        sr, -2.0 * k * dk / (safe_root * safe_root), -2.0 * lam / ((m.lam_c - lam) * (m.lam_c + lam))
    )
    dlog_em = 0.5 * (dlog_p - dlog_sr)
    dlog_ratio = dk / (1.0 + k) - 0.5 * dlog_sr
    # the squeezers are diagonal, so S_ij = f1_i R_ij f3_j changes by
    # S_ij (dlog f1_i + dlog f3_j) and through R.  Deep in the superradiant
    # phase omega_tilde and eps_+ grow alike, so the atomic rows' sqrt(omega_tilde)
    # is split into sqrt(omega_tilde / eps_+) sqrt(eps_+), and the second factor
    # cancels exactly against the eps_+ columns
    rows = dlog_ratio[..., None] * _DLOG_B
    ep_rows = dlog_ep[..., None] * _DLOG_B
    cols = -(dlog_em[..., None] * _DLOG_A) - ep_rows
    turn = dtheta[..., None, None] * _product(ground.f1_inv, ground.rot @ _ROT_GEN, ground.f3_inv)
    dchain = (rows[..., :, None] + (ep_rows[..., :, None] + cols[..., None, :])) * chain + turn
    a = dchain @ np.swapaxes(chain, -1, -2)
    dmean = _x_displacement(dalpha, dbeta, ground.n_atoms)
    return MomentJet(ground.mean, ground.cov, dmean, (a + np.swapaxes(a, -1, -2)) / 2.0)


def ground_state(params: DickeParams) -> GaussianState:
    """Two-mode Gaussian ground state (mode 0 radiation, mode 1 atoms): the
    record's read-only mean and cov themselves."""
    record = params._record
    return _own_state(record.mean, record.cov)


def reduced_radiation_state(params: DickeParams) -> GaussianState:
    """Single-mode reduced state of the radiation mode: the radiation block of
    the record's mean and cov, as writable copies.

    This is the partial trace of `ground_state`, bit for bit: the record's cov
    is exactly symmetric, so the check and symmetrization of a public
    GaussianState would return the block's own bits, and neither runs.
    """
    record = params._record
    return _own_state(record.mean[_RAD].copy(), record.cov[_RAD, _RAD].copy())
