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
from .dicke import ATOMIC_MODE, DEFAULT_DELTA_MIN, RADIATION_MODE, DickeParams, MomentJet
from .errors import NonConvergedSeries, UnphysicalStateError
from .estimation import state_derivative
from .gaussian import GaussianState

DIAGONAL_TOL = 1e-10
PN_TAIL_TOL = 1e-10
PN_HARD_LIMIT = 100_000
FI_TERM_FLOOR = 1e-14


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


def _require_in_family(state: GaussianState) -> None:
    if state.n_modes != 1:
        raise ValueError(f"expected a single-mode state, got {state.n_modes} modes")
    scale = max(1.0, float(np.max(np.abs(state.cov))))
    if abs(state.cov[0, 1]) > DIAGONAL_TOL * scale:
        raise UnphysicalStateError("off-diagonal covariance: outside the x/p-aligned family")
    if abs(state.mean[1]) > DIAGONAL_TOL * max(1.0, abs(state.mean[0])):
        raise UnphysicalStateError("momentum displacement: outside the x-displaced family")


def quadrature_distribution(state: GaussianState, phi: float) -> tuple[float, float]:
    """Mean and variance of the rotated quadrature x(phi) = x cos(phi) + p sin(phi)."""
    _require_in_family(state)
    c2 = math.cos(phi) ** 2
    s2 = math.sin(phi) ** 2
    return (
        math.cos(phi) * float(state.mean[0]),
        c2 * float(state.cov[0, 0]) + s2 * float(state.cov[1, 1]),
    )


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


def fi_homodyne(
    params: DickeParams, setting: HomodyneSetting, delta_min: float = DEFAULT_DELTA_MIN
) -> float:
    """Fisher information of homodyne outcomes about the coupling at params."""
    return float(fi_homodyne_from_jet(state_derivative(params, delta_min).jet, setting)[0])


@dataclass(frozen=True)
class DstsParams:
    """Displaced squeezed thermal decomposition of a single-mode Gaussian state."""

    n_th: float
    r: float
    n_s: float
    gamma: float


def dsts_params(state: GaussianState) -> DstsParams:
    """Thermal occupation, squeezing, and displacement of an x/p-aligned state."""
    _require_in_family(state)
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


@dataclass(frozen=True)
class PhotonNumberKernel:
    """Scalar inputs of the photon-number series for one state."""

    log_r00: float
    a_tilde: float
    b_tilde: float
    c_tilde: float


def photon_kernel_params(state: GaussianState) -> PhotonNumberKernel:
    """Series coefficients from the quadrature moments."""
    _require_in_family(state)
    sx, sp = float(state.cov[0, 0]), float(state.cov[1, 1])
    mx = float(state.mean[0])
    dx, dp = 1.0 + 2.0 * sx, 1.0 + 2.0 * sp
    return PhotonNumberKernel(
        log_r00=math.log(2.0) - mx * mx / dx - 0.5 * math.log(dx * dp),
        a_tilde=(4.0 * sx * sp - 1.0) / (dx * dp),
        b_tilde=2.0 * (sp - sx) / (dx * dp),
        c_tilde=math.sqrt(2.0) * mx / dx,
    )


@dataclass(frozen=True)
class PhotonDistribution:
    """Truncated photon-number distribution with its unresolved tail mass."""

    probs: np.ndarray
    n_max: int
    tail_mass: float


def _pn_values(kernel: PhotonNumberKernel, n_max: int) -> np.ndarray:
    # the displacement rides on the x-axis branch t = A - B of the
    # generating function; s = A + B carries the bare p-axis factor
    t = kernel.a_tilde - kernel.b_tilde
    s = kernel.a_tilde + kernel.b_tilde
    return _kernels.pn_series(kernel.log_r00, t, s, abs(kernel.c_tilde), n_max)


def photon_distribution(
    state: GaussianState,
    n_max: int | None = None,
    tail_tol: float = PN_TAIL_TOL,
    hard_limit: int = PN_HARD_LIMIT,
) -> PhotonDistribution:
    """Photon-number distribution of the state, truncated at a resolved tail.

    With explicit n_max the series is evaluated once at that cutoff; otherwise
    the cutoff starts at 10<N> + 50 and doubles until the unresolved tail mass
    drops below tail_tol, raising NonConvergedSeries at the hard limit.
    """
    kernel = photon_kernel_params(state)
    if n_max is not None:
        probs = _pn_values(kernel, int(n_max))
        _check_breakdown(probs)
        return PhotonDistribution(probs, int(n_max), tail_mass=max(0.0, 1.0 - math.fsum(probs)))
    mean_n = mean_photon_decomposition(state).total
    cutoff = int(10.0 * mean_n + 50.0)
    while True:
        if cutoff > hard_limit:
            raise NonConvergedSeries(
                f"photon series tail above {tail_tol:.1e} at the cutoff limit {hard_limit}"
            )
        probs = _pn_values(kernel, cutoff)
        _check_breakdown(probs)
        tail = 1.0 - math.fsum(probs)
        if tail < tail_tol:
            return PhotonDistribution(probs, cutoff, tail_mass=max(0.0, tail))
        cutoff = 2 * cutoff + 50


def _check_breakdown(probs: np.ndarray) -> None:
    low = float(np.min(probs))
    if low < -1e-9:
        raise UnphysicalStateError(f"photon series broke down: p(n) = {low:.3e}")


def _pn_derivative(
    state: GaussianState, dmean: np.ndarray, dcov: np.ndarray, probs: np.ndarray
) -> np.ndarray:
    """dp(n) of the series probs of state, given the derivatives of its moments.

    The chain rule runs through the series inputs of `photon_kernel_params`,
    t = A - B = (2 sx - 1)/(2 sx + 1), s = A + B = (2 sp - 1)/(2 sp + 1), C, log r00.
    """
    scale = max(1.0, float(np.max(np.abs(dcov))))
    if abs(dcov[0, 1]) > DIAGONAL_TOL * scale or abs(dmean[1]) > DIAGONAL_TOL * max(1.0, abs(dmean[0])):
        raise UnphysicalStateError("moment derivatives leave the x/p-aligned, x-displaced family")
    sx, sp, mx = float(state.cov[0, 0]), float(state.cov[1, 1]), float(state.mean[0])
    dsx, dsp, dmx = float(dcov[0, 0]), float(dcov[1, 1]), float(dmean[0])
    dx, dp = 1.0 + 2.0 * sx, 1.0 + 2.0 * sp
    dlog_r00 = -2.0 * mx * (dmx - mx * dsx / dx) / dx - dsx / dx - dsp / dp
    t, dt = (2.0 * sx - 1.0) / dx, 4.0 * dsx / (dx * dx)
    s, ds = (2.0 * sp - 1.0) / dp, 4.0 * dsp / (dp * dp)
    c, dc = math.sqrt(2.0) * mx / dx, math.sqrt(2.0) * (dmx - 2.0 * mx * dsx / dx) / dx
    return _kernels.pn_derivative(probs, dlog_r00, t, dt, s, ds, c, dc)


def fi_photon_counting_family(
    state: GaussianState, dmean: np.ndarray, dcov: np.ndarray, tail_tol: float = PN_TAIL_TOL
) -> tuple[float, int]:
    """Photon-counting Fisher information of a single-mode state family.

    state is the family member at the estimated parameter, dmean and dcov
    the parameter derivatives of its moments.  FI = sum_n (dp(n))^2 / p(n)
    over the state's adaptive cutoff, with dp(n) exact; terms with p(n)
    below a fixed floor are skipped.  Returns (FI, cutoff).
    """
    dist = photon_distribution(state, tail_tol=tail_tol)
    dp = _pn_derivative(state, dmean, dcov, dist.probs)
    keep = dist.probs >= FI_TERM_FLOOR
    fi = math.fsum((dp[keep] ** 2 / dist.probs[keep]).tolist())
    return float(fi), dist.n_max


def fi_photon_counting_from_jet(
    jet: MomentJet, index: int, tail_tol: float = PN_TAIL_TOL
) -> tuple[float, int]:
    """Photon-counting Fisher information of the radiation mode at coupling
    `index` of the jet, with the series cutoff it summed over."""
    mode = slice(2 * RADIATION_MODE, 2 * RADIATION_MODE + 2)
    return fi_photon_counting_family(
        GaussianState(jet.mean[index, mode], jet.cov[index, mode, mode]),
        jet.dmean[index, mode],
        jet.dcov[index, mode, mode],
        tail_tol=tail_tol,
    )


def fi_photon_counting_detail(
    params: DickeParams, tail_tol: float = PN_TAIL_TOL, delta_min: float = DEFAULT_DELTA_MIN
) -> tuple[float, int]:
    """Fisher information of photon counting on the radiation mode, with the
    series cutoff it summed over."""
    return fi_photon_counting_from_jet(state_derivative(params, delta_min).jet, 0, tail_tol=tail_tol)


def fi_photon_counting(
    params: DickeParams, tail_tol: float = PN_TAIL_TOL, delta_min: float = DEFAULT_DELTA_MIN
) -> float:
    """Fisher information of photon counting on the radiation mode."""
    return fi_photon_counting_detail(params, tail_tol=tail_tol, delta_min=delta_min)[0]
