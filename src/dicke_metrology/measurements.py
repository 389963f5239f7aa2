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
from .dicke import ATOMIC_MODE, RADIATION_MODE, DickeParams, MomentJet
from .errors import NonConvergedSeries, UnphysicalStateError
from .estimation import state_derivative
from .gaussian import GaussianState

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


def _require_in_family(mean: np.ndarray, cov: np.ndarray) -> None:
    """Raise unless mean and cov, the moments of one mode or their derivatives,
    keep the x/p-aligned, x-displaced form."""
    if cov.shape != (2, 2):
        raise ValueError(f"expected a single-mode state, got {cov.shape[0] // 2} modes")
    scale = max(1.0, float(np.max(np.abs(cov))))
    if abs(cov[0, 1]) > DIAGONAL_TOL * scale:
        raise UnphysicalStateError("off-diagonal covariance: outside the x/p-aligned family")
    if abs(mean[1]) > DIAGONAL_TOL * max(1.0, abs(mean[0])):
        raise UnphysicalStateError("momentum displacement: outside the x-displaced family")


def fi_homodyne_from_jet(jet: MomentJet, setting: HomodyneSetting) -> np.ndarray:
    """Homodyne Fisher information about the coupling at every coupling of the jet.

    For the Gaussian marginal with mean m(lam) and variance v(lam),
    FI = (dm)^2 / v + (dv)^2 / (2 v^2).
    """
    i = 2 * setting.mode
    c2 = math.cos(setting.phi) ** 2
    s2 = math.sin(setting.phi) ** 2
    var = c2 * jet.cov[:, i, i] + s2 * jet.cov[:, i + 1, i + 1]
    dvar = c2 * jet.dcov[:, i, i] + s2 * jet.dcov[:, i + 1, i + 1]
    dmean = math.cos(setting.phi) * jet.dmean[:, i]
    return dmean * dmean / var + dvar * dvar / (2.0 * var * var)


def fi_homodyne(params: DickeParams, setting: HomodyneSetting) -> float:
    """Fisher information of homodyne outcomes about the coupling at params."""
    return float(fi_homodyne_from_jet(state_derivative(params), setting)[0])


@dataclass(frozen=True)
class DstsParams:
    """Displaced squeezed thermal decomposition of a single-mode Gaussian state."""

    n_th: float
    r: float
    n_s: float
    gamma: float


def dsts_params(state: GaussianState) -> DstsParams:
    """Thermal occupation, squeezing, and displacement of an x/p-aligned state."""
    _require_in_family(state.mean, state.cov)
    sx, sp = float(state.cov[0, 0]), float(state.cov[1, 1])
    det = sx * sp
    if det < 0.25 * (1.0 - 1e-9):
        raise UnphysicalStateError(f"covariance determinant {det:.6e} below the vacuum bound 1/4")
    n_th = max(0.0, math.sqrt(det) - 0.5)
    r = 0.25 * math.log(sx / sp)
    n_s = math.sinh(r) ** 2
    return DstsParams(n_th=n_th, r=r, n_s=n_s, gamma=float(state.mean[0]) / math.sqrt(2.0))


@dataclass(frozen=True)
class MeanPhotonDecomposition:
    """Squeezing, thermal, and coherent contributions to the mean photon number."""

    n_s: float
    thermal: float
    coherent: float
    total: float


def mean_photon_decomposition(state: GaussianState) -> MeanPhotonDecomposition:
    """<N> = n_s + n_th (1 + 2 n_s) + gamma^2, reported term by term."""
    d = dsts_params(state)
    thermal = d.n_th * (1.0 + 2.0 * d.n_s)
    coherent = d.gamma * d.gamma
    return MeanPhotonDecomposition(
        n_s=d.n_s,
        thermal=thermal,
        coherent=coherent,
        total=d.n_s + thermal + coherent,
    )


def photon_series_inputs(state: GaussianState) -> tuple[float, float, float, float]:
    """Inputs (log r00, t, s, c) of the photon-number series of `_kernels` for the state.

    With dx = 2 sx + 1 and dp = 2 sp + 1: t = (2 sx - 1)/dx carries the x axis
    and the displacement, s = (2 sp - 1)/dp the bare p axis, c = sqrt(2) mx/dx,
    and p(0) = r00 = 2 exp(-mx^2/dx)/sqrt(dx dp).
    """
    _require_in_family(state.mean, state.cov)
    sx, sp, mx = float(state.cov[0, 0]), float(state.cov[1, 1]), float(state.mean[0])
    dx, dp = 1.0 + 2.0 * sx, 1.0 + 2.0 * sp
    t, s, c = (2.0 * sx - 1.0) / dx, (2.0 * sp - 1.0) / dp, math.sqrt(2.0) * mx / dx
    # r00 = 1 / G(1) from the same t, s, c as the recurrence: the series then
    # sums to one within the rounding of c^2 / (1 - t), ~1e-11 at <n> = 2.5e5,
    # where 2 exp(-mx^2/dx)/sqrt(dx dp) rounds apart from them by up to 1e-10
    return 0.5 * (math.log1p(-s) + math.log1p(-t)) - c * c / (1.0 - t), t, s, c


def photon_number_moments(mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<n> and Var(n) of single-mode Gaussian states, mean (..., 2), cov (..., 2, 2).

    <n> = (Tr sigma + |mu|^2 - 1)/2 and Var(n) = Tr sigma^2 / 2 - 1/4 + mu^T sigma mu.
    """
    mean, cov = np.asarray(mean, dtype=float), np.asarray(cov, dtype=float)
    trace = cov[..., 0, 0] + cov[..., 1, 1]
    mean_n = 0.5 * (trace + np.sum(mean * mean, axis=-1) - 1.0)
    var_n = 0.5 * np.sum(cov * cov, axis=(-2, -1)) - 0.25 + np.einsum("...i,...ij,...j->...", mean, cov, mean)
    return mean_n, var_n


def _series_limit(mean_n: float, var_n: float) -> int:
    """Cutoff by which a photon series with these moments must have converged."""
    if not mean_n < PN_MAX_TERMS:
        raise NonConvergedSeries(f"<n> = {mean_n:.3e}: the photon series would run past {PN_MAX_TERMS} terms")
    return min(int(mean_n + PN_LIMIT_SDS * math.sqrt(max(var_n, 0.0))) + PN_LIMIT_FLOOR, PN_MAX_TERMS)


@dataclass(frozen=True)
class PhotonDistribution:
    """Truncated photon-number distribution with its unresolved tail mass."""

    probs: np.ndarray
    n_max: int
    tail_mass: float


def photon_distribution(state: GaussianState, n_max: int | None = None) -> PhotonDistribution:
    """Photon-number distribution of the state, truncated at a resolved tail.

    With explicit n_max the series is evaluated once at that cutoff.
    Otherwise it runs forward and stops at the first n where
    p(0) + ... + p(n) reaches 1 - PN_TAIL_TOL; p(0..n) do not depend on where
    it stops.  It raises NonConvergedSeries if that has not happened by
    <n> + PN_LIMIT_SDS sd(n) + PN_LIMIT_FLOOR from the state's own moments,
    at most PN_MAX_TERMS.
    """
    if n_max is not None:
        probs = _kernels.pn_series(*photon_series_inputs(state), int(n_max))
        return _distribution(probs)
    limit = _series_limit(*photon_number_moments(state.mean, state.cov))
    dist = _distribution(_kernels.pn_series(*photon_series_inputs(state), limit, PN_TAIL_TOL))
    if dist.n_max == limit and not dist.tail_mass < PN_TAIL_TOL:
        raise NonConvergedSeries(f"photon series tail above {PN_TAIL_TOL:.1e} at the cutoff limit {limit}")
    return dist


def _distribution(probs: np.ndarray) -> PhotonDistribution:
    _check_breakdown(probs)
    return PhotonDistribution(probs, len(probs) - 1, tail_mass=max(0.0, 1.0 - math.fsum(probs)))


def _check_breakdown(probs: np.ndarray) -> None:
    low = float(np.min(probs))
    if low < -1e-9:
        raise UnphysicalStateError(f"photon series broke down: p(n) = {low:.3e}")


def _pn_derivative(
    state: GaussianState, dmean: np.ndarray, dcov: np.ndarray, probs: np.ndarray
) -> np.ndarray:
    """dp(n) of the series probs of state, given the derivatives of its moments.

    The chain rule runs through the inputs of `photon_series_inputs`.
    """
    _require_in_family(dmean, dcov)
    _, t, s, c = photon_series_inputs(state)
    sx, sp, mx = float(state.cov[0, 0]), float(state.cov[1, 1]), float(state.mean[0])
    dsx, dsp, dmx = float(dcov[0, 0]), float(dcov[1, 1]), float(dmean[0])
    dx, dp = 1.0 + 2.0 * sx, 1.0 + 2.0 * sp
    dlog_r00 = -2.0 * mx * (dmx - mx * dsx / dx) / dx - dsx / dx - dsp / dp
    dc = math.sqrt(2.0) * (dmx - 2.0 * mx * dsx / dx) / dx
    return _kernels.pn_derivative(probs, dlog_r00, t, 4.0 * dsx / (dx * dx), s, 4.0 * dsp / (dp * dp), c, dc)


def _fi_tail_terms(terms: np.ndarray, fi: float, tail_tol: float) -> int:
    """How many more terms an FI sum ending in `terms` needs; 0 once the FI
    that its tail is estimated to hold is at most tail_tol * fi.

    The estimate continues the decay of the last two pairs of terms as a
    geometric series.  Pairs, because the terms of some states vanish at every
    odd n; terms below the p(n) floor are zero, and a sum whose last pair is
    zero is finished.
    """
    last, prev = float(np.sum(terms[-2:])), float(np.sum(terms[-4:-2]))
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


def fi_photon_counting_family(state: GaussianState, dmean: np.ndarray, dcov: np.ndarray) -> tuple[float, int]:
    """Photon-counting Fisher information of a single-mode state family.

    state is the family member at the estimated parameter, dmean and dcov
    the parameter derivatives of its moments.  FI = sum_n (dp(n))^2 / p(n)
    with dp(n) exact; terms with p(n) below a fixed floor are skipped.  The
    series runs past the mass cutoff that `photon_distribution` stops at,
    until the FI its tail is estimated to hold is below PN_TAIL_TOL FI.
    Returns (FI, cutoff).
    """
    mean_n, var_n = photon_number_moments(state.mean, state.cov)
    limit = _series_limit(mean_n, var_n)
    series = _kernels.PnSeries(*photon_series_inputs(state))
    if not series.extend(limit, PN_TAIL_TOL):
        raise NonConvergedSeries(f"photon series tail above {PN_TAIL_TOL:.1e} at the cutoff limit {limit}")
    # the first sum runs FI_MARGIN of the mass cutoff's distance from <n>
    # past it: on 306 Dicke radiation states (N 1 to 1e4, three frequency
    # pairs, both phases) and squeezed, thermal and coherent families, the
    # FI tail had ended there, so one filter pass usually settles the sum
    more = math.ceil(FI_MARGIN * (series.n_max - mean_n)) + 2
    while True:
        series.extend(min(limit, series.n_max + more))
        probs = series.probs()
        _check_breakdown(probs)
        dp = _pn_derivative(state, dmean, dcov, probs)
        keep = probs >= FI_TERM_FLOOR
        terms = np.where(keep, dp * dp / np.where(keep, probs, 1.0), 0.0)
        fi = math.fsum(terms.tolist())
        more = _fi_tail_terms(terms, fi, PN_TAIL_TOL)
        if not more:
            return fi, series.n_max
        if series.n_max >= limit:
            raise NonConvergedSeries(f"photon-counting FI tail above {PN_TAIL_TOL:.1e} at the cutoff limit {limit}")


def fi_photon_counting_from_jet(jet: MomentJet, index: int) -> tuple[float, int]:
    """Photon-counting Fisher information of the radiation mode at coupling
    `index` of the jet, with the series cutoff it summed over."""
    mode = slice(2 * RADIATION_MODE, 2 * RADIATION_MODE + 2)
    return fi_photon_counting_family(
        GaussianState(jet.mean[index, mode], jet.cov[index, mode, mode]),
        jet.dmean[index, mode],
        jet.dcov[index, mode, mode],
    )


def fi_photon_counting(params: DickeParams) -> float:
    """Fisher information of photon counting on the radiation mode."""
    return fi_photon_counting_from_jet(state_derivative(params), 0)[0]
