"""Classical Fisher information of local measurements on the ground state.

Two probes of single-mode reduced states are covered: homodyne detection of
a rotated quadrature x(phi), whose outcome statistics are Gaussian, and
photon counting, whose distribution follows from the displaced squeezed
thermal form of the reduced state.  Both yield classical Fisher information
in the coupling that can be compared against the QFI bound.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dicke import _RAD, ATOMIC_MODE, RADIATION_MODE, DickeParams, MomentJet
from .errors import NonConvergedSeries, UnphysicalStateError
from .estimation import state_derivative
from .gaussian import GaussianState, _symmetrized

DIAGONAL_TOL = 1e-10
# a photon series stops where the p(n) mass, and the photon-counting FI, that
# its tail is estimated to hold falls below this share
PN_TAIL_TOL = 1e-10
# a series still short of its mass at <n> + PN_LIMIT_SDS sd(n) + PN_LIMIT_FLOOR
# does not converge: on the Dicke and single-mode states measured, even the
# FI cutoffs, which lie past the mass cutoffs, end within <n> + 40 sd(n) + 100
PN_LIMIT_SDS = 100.0
PN_LIMIT_FLOOR = 100
# no series runs past this many terms, some 2 s and 32 MB of Python floats;
# a state with <n> at or above it is refused at once
PN_MAX_TERMS = 10**6
FI_TERM_FLOOR = 1e-14
# a p(n) below this is no rounding of a nonnegative value: the series broke down
_BREAKDOWN = -1e-9
FI_MARGIN = 0.4


class Target(str, enum.Enum):
    RADIATION = "radiation"
    ATOMS = "atoms"


@dataclass(frozen=True)
class HomodyneSetting:
    """Local-oscillator phase and which reduced mode is probed."""

    phi: float
    target: Target = Target.RADIATION

    @property
    def mode(self) -> int:
        return RADIATION_MODE if self.target is Target.RADIATION else ATOMIC_MODE


def _mode_entries(mean: np.ndarray, cov: np.ndarray) -> list[list[float]]:
    """The entries [mx, mp, cxx, cxp, cpx, cpp] of each member of one mode,
    mean (2,) and cov (2, 2), or of a stack, (..., 2) and (..., 2, 2), as
    floats in C order, once `_require_aligned` has passed each.  Every photon
    reader reads here and refuses a member in one order: value family,
    derivative family, vacuum bound, series limit."""
    if cov.shape[-2:] != (2, 2):
        raise ValueError(f"expected a single-mode state, got {cov.shape[-1] // 2} modes")
    members = [m + c for m, c in zip(mean.reshape(-1, 2).tolist(), cov.reshape(-1, 4).tolist(), strict=True)]
    for entries in members:
        _require_aligned(*entries)
    return members


def _require_aligned(mx: float, mp: float, cxx: float, cxp: float, cpx: float, cpp: float) -> None:
    """Raise unless the entries of one mode's mean and cov, or of their
    derivatives, keep the x/p-aligned, x-displaced form."""
    cov = (cxx, cxp, cpx, cpp)
    # as max(1.0, np.max(np.abs(cov))) reads it: a nan entry leaves the scale at 1
    scale = 1.0 if any(map(math.isnan, cov)) else max(1.0, *map(abs, cov))
    if abs(cxp) > DIAGONAL_TOL * scale:
        raise UnphysicalStateError("off-diagonal covariance: outside the x/p-aligned family")
    if abs(mp) > DIAGONAL_TOL * max(1.0, abs(mx)):
        raise UnphysicalStateError("momentum displacement: outside the x-displaced family")


def fi_homodyne_from_jet(jet: MomentJet, setting: HomodyneSetting) -> np.ndarray:
    """Homodyne Fisher information about the coupling at every coupling of the
    jet, with the jet's leading shape (a numpy scalar for a 0-d jet).

    For the Gaussian marginal with mean m(lam) and variance v(lam),
    FI = (dm)^2 / v + (dv)^2 / (2 v^2).
    """
    i = 2 * setting.mode
    c2 = math.cos(setting.phi) ** 2
    s2 = math.sin(setting.phi) ** 2
    var = c2 * jet.cov[..., i, i] + s2 * jet.cov[..., i + 1, i + 1]
    dvar = c2 * jet.dcov[..., i, i] + s2 * jet.dcov[..., i + 1, i + 1]
    dmean = math.cos(setting.phi) * jet.dmean[..., i]
    return dmean * dmean / var + dvar * dvar / (2.0 * var * var)


def fi_homodyne(params: DickeParams, setting: HomodyneSetting) -> float:
    """Fisher information of homodyne outcomes about the coupling at params."""
    return float(fi_homodyne_from_jet(state_derivative(params), setting))


@dataclass(frozen=True)
class DstsParams:
    """Displaced squeezed thermal decomposition of a single-mode Gaussian state."""

    n_th: float
    r: float
    n_s: float
    gamma: float


def dsts_params(state: GaussianState) -> DstsParams:
    """Thermal occupation, squeezing, and displacement of an x/p-aligned state."""
    [(mx, _, sx, _, _, sp)] = _mode_entries(state.mean, state.cov)
    return _dsts(sx, sp, mx)


def _require_above_vacuum(sx: float, sp: float) -> float:
    """Raise unless an x/p-aligned mode with variances sx, sp has a covariance
    determinant at or above the vacuum bound 1/4; return the determinant.
    A nan determinant, as a variance past the doubles gives, is not above it."""
    det = sx * sp
    if not det >= 0.25 * (1.0 - 1e-9):
        raise UnphysicalStateError(f"covariance determinant {det:.6e} below the vacuum bound 1/4")
    return det


def _dsts(sx: float, sp: float, mx: float) -> DstsParams:
    """`dsts_params` of an x/p-aligned mode with variances sx, sp and x mean mx."""
    det = _require_above_vacuum(sx, sp)
    n_th = max(0.0, math.sqrt(det) - 0.5)
    r = 0.25 * math.log(sx / sp)
    n_s = math.sinh(r) ** 2
    return DstsParams(n_th=n_th, r=r, n_s=n_s, gamma=mx / math.sqrt(2.0))


@dataclass(frozen=True)
class MeanPhotonDecomposition:
    """Squeezing, thermal, and coherent contributions to the mean photon number."""

    n_s: float
    thermal: float
    coherent: float
    total: float


def mean_photon_decomposition(state: GaussianState) -> MeanPhotonDecomposition:
    """<N> = n_s + n_th (1 + 2 n_s) + gamma^2, reported term by term."""
    return MeanPhotonDecomposition(*_decomposition(dsts_params(state)))


def _decomposition(d: DstsParams) -> tuple[float, float, float, float]:
    """The terms (n_s, thermal, coherent, total) of `MeanPhotonDecomposition`."""
    thermal = d.n_th * (1.0 + 2.0 * d.n_s)
    coherent = d.gamma * d.gamma
    return d.n_s, thermal, coherent, d.n_s + thermal + coherent


def _radiation_decompositions(mean: np.ndarray, cov: np.ndarray) -> list[list[float]]:
    """`mean_photon_decomposition` of the radiation mode at each coupling of
    the ground stage's mean and cov, as the columns n_s, thermal, coherent
    and total.  `_ground` builds cov exactly symmetric, so the symmetrization
    of GaussianState would return its bits, and it does not run."""
    members = _mode_entries(mean[..., _RAD], cov[..., _RAD, _RAD])
    return [list(column) for column in zip(*(_decomposition(_dsts(sx, sp, mx)) for mx, _, sx, _, _, sp in members))]


def _series_inputs(sx: float, sp: float, mx: float) -> tuple[float, float, float, float]:
    """(log r00, t, s, c) of an x/p-aligned mode with variances sx, sp and x mean mx.

    With dx = 2 sx + 1 and dp = 2 sp + 1: t = (2 sx - 1)/dx carries the x axis
    and the displacement, s = (2 sp - 1)/dp the bare p axis, c = sqrt(2) mx/dx,
    and p(0) = r00 = 2 exp(-mx^2/dx)/sqrt(dx dp).
    """
    dx, dp = 1.0 + 2.0 * sx, 1.0 + 2.0 * sp
    t, s, c = (2.0 * sx - 1.0) / dx, (2.0 * sp - 1.0) / dp, math.sqrt(2.0) * mx / dx
    # r00 = 1 / G(1) from the same t, s, c as the recurrence: the series then
    # sums to one within the rounding of c^2 / (1 - t), ~1e-11 at <n> = 2.5e5,
    # where 2 exp(-mx^2/dx)/sqrt(dx dp) rounds apart from them by up to 1e-10
    return 0.5 * (math.log1p(-s) + math.log1p(-t)) - c * c / (1.0 - t), t, s, c


def _series_derivatives(
    sx: float, sp: float, mx: float, dsx: float, dsp: float, dmx: float
) -> tuple[float, float, float, float]:
    """Derivatives (d log r00, dt, ds, dc) of `_series_inputs` along the
    derivatives dsx, dsp, dmx of its arguments."""
    dx, dp = 1.0 + 2.0 * sx, 1.0 + 2.0 * sp
    dlog_r00 = -2.0 * mx * (dmx - mx * dsx / dx) / dx - dsx / dx - dsp / dp
    dc = math.sqrt(2.0) * (dmx - 2.0 * mx * dsx / dx) / dx
    return dlog_r00, 4.0 * dsx / (dx * dx), 4.0 * dsp / (dp * dp), dc


def _mode_moments(mx: float, mp: float, cxx: float, cxp: float, cpx: float, cpp: float) -> tuple[float, float]:
    """<n> and Var(n) of one mode from the entries of its mean and cov.

    <n> = (Tr sigma + |mu|^2 - 1)/2 and Var(n) = Tr sigma^2 / 2 - 1/4 + mu^T sigma mu.
    """
    mean_n = 0.5 * (cxx + cpp + (mx * mx + mp * mp) - 1.0)
    quadratic = mx * cxx * mx + mx * cxp * mp + mp * cpx * mx + mp * cpp * mp
    return mean_n, 0.5 * (cxx * cxx + cxp * cxp + cpx * cpx + cpp * cpp) - 0.25 + quadratic


def _series_limit(mean_n: float, var_n: float) -> int:
    """Cutoff by which a photon series with these moments must have converged."""
    if not mean_n < PN_MAX_TERMS:
        raise NonConvergedSeries(f"<n> = {mean_n:.3e}: the photon series would run past {PN_MAX_TERMS} terms")
    return min(int(mean_n + PN_LIMIT_SDS * math.sqrt(max(var_n, 0.0))) + PN_LIMIT_FLOOR, PN_MAX_TERMS)


@dataclass(frozen=True)
class PhotonDistribution:
    """Truncated photon-number distribution with its unresolved tail mass.

    tail_mass is max(0, 1 - (p(0) + ... + p(n_max))), the sum taken pairwise
    (np.sum), which lies within ~1e-15 of the exactly rounded sum.
    """

    probs: np.ndarray
    n_max: int
    tail_mass: float


def photon_distribution(state: GaussianState) -> PhotonDistribution:
    """Photon-number distribution of the state, truncated at a resolved tail.

    The series runs forward and stops at the first n where
    p(0) + ... + p(n) reaches 1 - PN_TAIL_TOL; p(0..n) do not depend on where
    it stops.  It raises NonConvergedSeries if that has not happened by
    <n> + PN_LIMIT_SDS sd(n) + PN_LIMIT_FLOOR from the state's own moments,
    at most PN_MAX_TERMS.  The state's six entries are read once as floats,
    and the family check, the moments and the series inputs all run on them.
    """
    [entries] = _mode_entries(state.mean, state.cov)
    mx, _, sx, _, _, sp = entries
    _require_above_vacuum(sx, sp)
    limit = _series_limit(*_mode_moments(*entries))
    inputs = _series_inputs(sx, sp, mx)
    probs = _kernels.pn_series(*inputs, limit, PN_TAIL_TOL)
    _check_breakdown(probs)
    dist = PhotonDistribution(probs, len(probs) - 1, tail_mass=_tail_mass(probs))
    if dist.n_max == limit and not dist.tail_mass < PN_TAIL_TOL:
        raise _short_of_mass(limit, inputs[0], dist.tail_mass)
    return dist


def _tail_mass(probs: np.ndarray) -> float:
    """max(0, 1 - (p(0) + ... + p(n_max))), the sum taken pairwise."""
    # 1e-10 tail against a pairwise sum's ~1e-15 rounding: math.fsum would
    # cost more than the series on long tables
    return max(0.0, 1.0 - float(probs.sum()))


def _short_of_mass(limit: int, log_r00: float, shortfall: float) -> NonConvergedSeries:
    """The error of a photon series still short of 1 - PN_TAIL_TOL at its
    cutoff limit, 1 - sum p(n) = shortfall.

    log r00 carries the roundings of c^2, of its division by 1 - t and of the
    sum in `_series_inputs`, up to about 1.5 ulp of itself, and every p(n)
    carries that error relative (one ulp is 1.2e-10 at log r00 = -9e5).  A
    shortfall within 2 ulps of log r00 says more about the doubles than about
    the tail, and the message says so.
    """
    message = f"photon series tail above {PN_TAIL_TOL:.1e} at the cutoff limit {limit}"
    resolution = 2.0 * math.ulp(log_r00)
    if shortfall <= resolution:
        message += (
            f"; the shortfall 1 - sum p(n) = {shortfall:.2e} lies within the rounding of"
            f" log r00 = {log_r00:.6e} (2 ulps, {resolution:.1e}) that every p(n) carries:"
            f" the doubles, not the tail, limit the mass"
        )
    return NonConvergedSeries(message)


def _check_breakdown(probs: np.ndarray) -> None:
    low = float(probs.min())
    if low < _BREAKDOWN:
        raise UnphysicalStateError(f"photon series broke down: p(n) = {low:.3e}")


def _fi_tail_terms(terms: list[float], fi: float, tail_tol: float) -> int:
    """How many more terms an FI sum ending in `terms` needs; 0 once the FI
    that its tail is estimated to hold is at most tail_tol * fi.

    The estimate continues the decay of the last two pairs of terms as a
    geometric series.  Pairs, because the terms of some states vanish at every
    odd n; terms below the p(n) floor are zero, and a sum whose last pair is
    zero is finished.
    """
    last, prev = math.fsum(terms[-2:]), math.fsum(terms[-4:-2])
    if last == 0.0:
        return 0
    if not last < prev:
        # not yet decaying: go a quarter further
        return max(4, len(terms) // 4)
    ratio = last / prev
    tail = last * ratio / (1.0 - ratio)
    if tail <= tail_tol * fi:
        return 0
    return 2 * math.ceil(math.log(tail_tol * fi / tail) / math.log(ratio)) + 2


def fi_photon_counting_from_jet(jet: MomentJet) -> list[tuple[float, int]]:
    """Photon-counting Fisher information of the radiation mode at every
    coupling of the jet, each with the series cutoff it summed over: one
    (FI, cutoff) per coupling in C order, a list of one for a 0-d jet."""
    return _photon_fi_stack(
        jet.mean[..., _RAD], jet.cov[..., _RAD, _RAD], jet.dmean[..., _RAD], jet.dcov[..., _RAD, _RAD]
    )


def _photon_fi_stack(
    mean: np.ndarray, cov: np.ndarray, dmean: np.ndarray, dcov: np.ndarray
) -> list[tuple[float, int]]:
    """(FI, cutoff) of photon counting for each member of the single-mode stacks
    mean (..., 2), cov (..., 2, 2) with parameter derivatives dmean (..., 2),
    dcov (..., 2, 2), in C order; one member for an unstacked mode.

    FI = sum_n (dp(n))^2 / p(n) with dp(n) exact, summed in one pass of the
    derivative filter over the series (`_kernels.FisherTerms`); terms with
    p(n) below a fixed floor are skipped.  The series runs past the mass
    cutoff that `photon_distribution` stops at, until the FI its tail is
    estimated to hold is below PN_TAIL_TOL FI.

    Each member is read, checked and sized as in `photon_distribution`, and
    no series runs until all have passed.  A `MomentJet` may come from outside
    the package, so cov gets the check and symmetrization of GaussianState.
    """
    cov = _symmetrized(cov)
    rows = []
    for entries, (dmx, _, dsx, _, _, dsp) in zip(_mode_entries(mean, cov), _mode_entries(dmean, dcov), strict=True):
        mx, _, sx, _, _, sp = entries
        _require_above_vacuum(sx, sp)
        mean_n, var_n = _mode_moments(*entries)
        slopes = _series_derivatives(sx, sp, mx, dsx, dsp, dmx)
        rows.append((mean_n, _series_limit(mean_n, var_n), _series_inputs(sx, sp, mx), slopes))
    return [_photon_fi_row(*row) for row in rows]


def _photon_fi_row(
    mean_n: float, limit: int, inputs: tuple[float, float, float, float], slopes: tuple[float, float, float, float]
) -> tuple[float, int]:
    """(FI, cutoff) of one state from its <n>, series limit, series inputs
    (log r00, t, s, c) and their derivatives (d log r00, dt, ds, dc)."""
    series = _kernels.PnSeries(*inputs)
    if not series.extend(limit, PN_TAIL_TOL):
        raise _short_of_mass(limit, inputs[0], _tail_mass(series.probs()))
    fisher = _kernels.FisherTerms(series, *slopes, FI_TERM_FLOOR, _BREAKDOWN)
    # the first sum runs FI_MARGIN of the mass cutoff's distance from <n>
    # past it: on 306 Dicke radiation states (N 1 to 1e4, three frequency
    # pairs, both phases) and squeezed, thermal and coherent families, the
    # FI tail had ended there, so one pass usually settles the sum; a later
    # round walks on from where the last one stopped
    more = math.ceil(FI_MARGIN * (series.n_max - mean_n)) + 2
    while True:
        series.extend(min(limit, series.n_max + more))
        if fisher.walk():
            # a scaled value past the low bound: check the p(n) themselves
            _check_breakdown(series.probs())
        fi = math.fsum(fisher.terms)
        more = _fi_tail_terms(fisher.terms, fi, PN_TAIL_TOL)
        if not more:
            return fi, series.n_max
        if series.n_max >= limit:
            raise NonConvergedSeries(f"photon-counting FI tail above {PN_TAIL_TOL:.1e} at the cutoff limit {limit}")


def fi_photon_counting(params: DickeParams) -> float:
    """Fisher information of photon counting on the radiation mode."""
    return fi_photon_counting_from_jet(state_derivative(params))[0][0]
