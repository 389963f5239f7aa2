"""Independent oracles used by the test suite.

Truncated Fock-space construction of displaced squeezed thermal states,
Gaussian pure-state overlaps, purity and the characteristic function,
direct numerical Fisher-information integrals, the rotated-quadrature
marginal they integrate, the package's photon-counting FI on an arbitrary
single-mode family, the photon series at a fixed cutoff, its former
forward loop (the band test on all three live values every term), its
former log-form p(n) of the scaled runs, its derivative filter over
unscaled p(n) and the former two-pass photon FI row built on it, the
series inputs of a single-mode state, its photon-number
moments as arrays over a stack, the ground-state covariance from its six
closed-form entries, the covariance and its coupling derivative at 400
digits from the square root of M = T^1/2 V T^1/2, the coupling QFI at 50
digits, the package's former QFI reader and SLD linear term by
np.linalg.solve, random two-mode symplectic matrices, the former two-call symplectic spectrum (one
eigenvalue call for the state and one for its partial transpose, flipped by
diagonal matrix products), the CLI's former cell-by-cell CSV formatting and
row-wise JSON, its former per-row builders for entanglement, photon and
Wigner tables, and its former row builders and row padding for every sweep.
Everything here trades speed for independence from the phase-space code
paths it checks; only the tests import this module, and it is the only one
that needs scipy.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.linalg import expm

from dicke_metrology import _kernels, measurements
from dicke_metrology.dicke import RADIATION_MODE, DickeParams, derive, ground_moments, moment_jet
from dicke_metrology.dicke import reduced_radiation_state
from dicke_metrology.errors import DickeMetrologyError, NonConvergedSeries, SingularCovarianceError
from dicke_metrology.errors import UnphysicalStateError
from dicke_metrology.estimation import qfi_from_jet
from dicke_metrology.gaussian import GaussianState, partial_trace, symplectic_form, symplectic_spectrum
from dicke_metrology.measurements import (
    DstsParams,
    HomodyneSetting,
    Target,
    _photon_fi_stack,
    fi_homodyne_from_jet,
    fi_photon_counting_from_jet,
    mean_photon_decomposition,
)

TRACE_LOSS_TOL = 1e-9
PSD_TOL = 1e-10
FOCK_DIM_LIMIT = 4000


@dataclass(frozen=True)
class FockStateMatrix:
    """Density matrix on a truncated number basis."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = self.matrix
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"matrix shape {m.shape} does not match dim {self.dim}")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise UnphysicalStateError("density matrix is not Hermitian")
        tr = float(np.trace(m).real)
        if not (1.0 - 1e-6 <= tr <= 1.0 + 1e-12):
            raise UnphysicalStateError(f"trace {tr} outside [1 - 1e-6, 1]")
        if float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2.0))) < -PSD_TOL:
            raise UnphysicalStateError("density matrix has a negative eigenvalue")

    @property
    def photon_probs(self) -> np.ndarray:
        return np.diag(self.matrix).real.copy()

    @property
    def mean_photons(self) -> float:
        return float(np.arange(self.dim) @ self.photon_probs)


def _annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def _build_once(params: DstsParams, dim: int) -> tuple[np.ndarray, float]:
    a = _annihilation(dim)
    ad = a.T
    if params.n_th > 0.0:
        n = np.arange(dim)
        diag = np.exp(n * math.log(params.n_th) - (n + 1) * math.log1p(params.n_th))
    else:
        diag = np.zeros(dim)
        diag[0] = 1.0
    rho = np.diag(diag).astype(complex)
    if params.r != 0.0:
        s = expm((params.r / 2.0) * (ad @ ad - a @ a))
        rho = s @ rho @ s.conj().T
    if params.gamma != 0.0:
        d = expm(params.gamma * (ad - a))
        rho = d @ rho @ d.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho, float(np.trace(rho).real)


def build_dsts_fock(params: DstsParams, dim: int | None = None) -> FockStateMatrix:
    """Displaced squeezed thermal density matrix on a truncated basis.

    With dim=None the truncation starts at 10<N> + 40 and grows until the
    trace loss drops below 1e-9.  An explicit dim that cannot hold the state
    raises instead.
    """
    mean_n = params.n_s + params.n_th * (1.0 + 2.0 * params.n_s) + params.gamma**2
    if dim is not None:
        rho, tr = _build_once(params, dim)
        if 1.0 - tr > TRACE_LOSS_TOL:
            raise ValueError(f"trace loss {1.0 - tr:.3e} at dim {dim}: truncation insufficient")
        return FockStateMatrix(dim, rho)
    dim = int(10.0 * mean_n + 40.0)
    while True:
        rho, tr = _build_once(params, dim)
        if 1.0 - tr <= TRACE_LOSS_TOL:
            return FockStateMatrix(dim, rho)
        if dim >= FOCK_DIM_LIMIT:
            raise ValueError(f"trace loss {1.0 - tr:.3e} persists at dim {dim}")
        dim = min(FOCK_DIM_LIMIT, 2 * dim)


def vacuum_state(n_modes: int) -> GaussianState:
    """Vacuum of M modes: zero mean, covariance I/2."""
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes) / 2.0)


def purity(cov: np.ndarray) -> float:
    """Purity mu = 1 / (2^M sqrt(det cov))."""
    cov = np.asarray(cov, dtype=float)
    n_modes = cov.shape[0] // 2
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise SingularCovarianceError("covariance determinant is not positive")
    return float(np.exp(-n_modes * np.log(2.0) - 0.5 * logdet))


def characteristic_function_at(state: GaussianState, lam: np.ndarray) -> np.ndarray:
    """Symmetrically ordered characteristic function chi(Lambda) at each point
    of a (..., 2M) stack, as an array of shape (...)."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape[-1:] != state.mean.shape:
        raise ValueError(f"argument shape {lam.shape} does not match state dimension")
    omega = symplectic_form(state.n_modes)
    ol = lam @ omega  # (Omega^T Lambda)^T, one row per point
    quad = np.einsum("...i,ij,...j->...", ol, state.cov, ol)
    phase = lam @ (omega @ state.mean)
    return np.exp(-0.5 * quad - 1j * phase)


def quadrature_distribution(state: GaussianState, phi: float) -> tuple[float, float]:
    """Mean and variance of the rotated quadrature x(phi) = x cos(phi) + p sin(phi) of one mode."""
    if state.n_modes != 1:
        raise ValueError(f"expected a single-mode state, got {state.n_modes} modes")
    c, s = math.cos(phi), math.sin(phi)
    mean = c * float(state.mean[0]) + s * float(state.mean[1])
    return mean, c * c * float(state.cov[0, 0]) + s * s * float(state.cov[1, 1]) + 2.0 * c * s * float(state.cov[0, 1])


def pure_overlap(s1: GaussianState, s2: GaussianState, purity_tol: float = 1e-6) -> float:
    """|<psi1|psi2>|^2 for pure Gaussian states."""
    for s in (s1, s2):
        mu = purity(s.cov)
        if abs(mu - 1.0) > purity_tol:
            raise UnphysicalStateError(f"purity {mu} too far from 1 for the overlap formula")
    total = s1.cov + s2.cov
    delta = s1.mean - s2.mean
    sign, logdet = np.linalg.slogdet(total)
    if sign <= 0:
        raise UnphysicalStateError("covariance sum is not positive definite")
    return float(math.exp(-0.5 * (delta @ np.linalg.solve(total, delta)) - 0.5 * logdet))


def fidelity_qfi(state_at, lam: float, delta: float) -> float:
    """Finite-separation QFI 8(1 - sqrt(overlap))/delta^2 of a pure family."""
    ov = pure_overlap(state_at(lam - delta / 2.0), state_at(lam + delta / 2.0))
    return 8.0 * (1.0 - math.sqrt(ov)) / delta**2


def fi_integral_oracle(
    pdf,
    lam: float,
    step: float,
    grid: np.ndarray,
    discrete: bool = False,
    norm_tol: float = 1e-6,
    floor: float = 1e-300,
) -> float:
    """(d_lam ln p)^2 p integrated over outcomes by brute force.

    pdf(lam, outcomes) evaluates the outcome density on the grid; continuous
    densities are integrated with the trapezoid rule, discrete ones summed.
    """
    p0 = np.asarray(pdf(lam, grid), dtype=float)
    total = float(np.sum(p0)) if discrete else float(np.trapezoid(p0, grid))
    if abs(total - 1.0) > norm_tol:
        raise ValueError(f"outcome density sums to {total}, not normalized on this grid")
    dp = (np.asarray(pdf(lam + step, grid)) - np.asarray(pdf(lam - step, grid))) / (2.0 * step)
    mask = p0 > floor
    integrand = np.zeros_like(p0)
    integrand[mask] = dp[mask] ** 2 / p0[mask]
    return float(np.sum(integrand)) if discrete else float(np.trapezoid(integrand, grid))


def fi_gauss_hermite(pdf, lam: float, step: float, center: float, scale: float, order: int = 180) -> float:
    """Continuous-outcome FI by Gauss-Hermite quadrature.

    center/scale shift the nodes onto the density's bulk: x = center + scale y
    with scale ~ sqrt(2 var) makes the e^{y^2}-compensated integrand polynomial
    up to the density's own Gaussian envelope.
    """
    y, w = np.polynomial.hermite.hermgauss(order)
    x = center + scale * y
    p0 = np.asarray(pdf(lam, x), dtype=float)
    dp = (np.asarray(pdf(lam + step, x)) - np.asarray(pdf(lam - step, x))) / (2.0 * step)
    mask = p0 > 1e-300
    h = np.zeros_like(p0)
    h[mask] = dp[mask] ** 2 / p0[mask] * np.exp(y[mask] ** 2) * scale
    return float(w @ h)


def closed_form_cov(params: DickeParams) -> np.ndarray:
    """Ground-state covariance from the six closed-form entries.

    Independent of the symplectic-chain construction of `ground_state`; the
    two must agree to high accuracy on a coupling grid.
    """
    derived = derive(params)
    w, wt = params.omega, derived["omega_tilde"]
    em, ep = derived["eps_minus"], derived["eps_plus"]
    theta = derived["theta"]
    c2 = np.cos(theta) ** 2
    s2 = np.sin(theta) ** 2
    s2t = np.sin(2.0 * theta)
    cov = np.zeros((4, 4))
    cov[0, 0] = 0.5 * w * (c2 / em + s2 / ep)
    cov[1, 1] = (em * c2 + ep * s2) / (2.0 * w)
    cov[2, 2] = 0.5 * wt * (c2 / ep + s2 / em)
    cov[3, 3] = (ep * c2 + em * s2) / (2.0 * wt)
    cov[0, 2] = cov[2, 0] = 0.25 * np.sqrt(w * wt) * s2t * (1.0 / ep - 1.0 / em)
    cov[1, 3] = cov[3, 1] = -0.25 * s2t * (em - ep) / np.sqrt(w * wt)
    return cov


def _reference_cov(lam, omega: float, omega0: float) -> mpmath.matrix:
    """The ground-state covariance at the mpf coupling lam, from R = sqrt(M) =
    (M + sqrt(det M) I) / sqrt(tr M + 2 sqrt(det M)) for M = T^1/2 V T^1/2 =
    [[omega^2, m], [m, omega0^2 / k^2]], with det M written per phase without
    cancellation, as sigma_x = T^1/2 R^-1 T^1/2 / 2 and sigma_p = T^-1/2 R
    T^-1/2 / 2 for T = Diag(omega, omega_tilde)."""
    w, w0 = mpmath.mpf(omega), mpmath.mpf(omega0)
    lc = mpmath.sqrt(w * w0) / 2
    k = (lc / lam) ** 2 if lam > lc else mpmath.mpf(1)
    m = 2 * lam * mpmath.sqrt(w * w0 * k)
    m11, m22 = w * w, w0 * w0 / (k * k)
    det = (w * w0) ** 2 * (1 - k) * (1 + k) / (k * k) if lam > lc else 4 * w * w0 * (lc - lam) * (lc + lam)
    root_det = mpmath.sqrt(det)
    trace_root = mpmath.sqrt(m11 + m22 + 2 * root_det)
    r = [[(m11 + root_det) / trace_root, m / trace_root], [m / trace_root, (m22 + root_det) / trace_root]]
    r_inv = [[r[1][1] / root_det, -r[0][1] / root_det], [-r[1][0] / root_det, r[0][0] / root_det]]
    t = [mpmath.sqrt(w), mpmath.sqrt(w0 * (1 + k) / (2 * k))]
    cov = mpmath.zeros(4, 4)
    for i in range(2):
        for j in range(2):
            cov[2 * i, 2 * j] = t[i] * r_inv[i][j] * t[j] / 2
            cov[2 * i + 1, 2 * j + 1] = r[i][j] / (t[i] * t[j]) / 2
    return cov


def reference_moments(lam: float, omega: float, omega0: float) -> tuple[np.ndarray, np.ndarray]:
    """(cov, dcov) of the ground state at the exact double lam, rounded to
    doubles; dcov by a central difference whose step lies 20 orders below the
    coupling's distance from lambda_c and from 0.  400 digits, because at
    extreme detuning an entry of order 1 moves by 1e-205 of itself per unit
    of lam."""
    with mpmath.workdps(400):
        x = mpmath.mpf(lam)
        lc = mpmath.sqrt(mpmath.mpf(omega) * omega0) / 2
        step = min(abs(x - lc) / 10, max(x, lc)) * mpmath.mpf(10) ** -20
        cov = _reference_cov(x, omega, omega0)
        dcov = mpmath.zeros(4, 4)
        for i, j in ((0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (2, 0), (1, 3), (3, 1)):
            dcov[i, j] = mpmath.diff(lambda y: _reference_cov(y, omega, omega0)[i, j], x, h=step)
        return np.array(cov.tolist(), dtype=float), np.array(dcov.tolist(), dtype=float)


def reference_qfi(lam: float, omega: float, omega0: float, n_atoms: int) -> mpmath.mpf:
    """The coupling QFI of the ground state at the exact double lam, at 50
    digits: the quadratic term -Tr[Omega^T dcov Omega dcov] from
    `_reference_cov` and its mpmath derivative, and the displacement term
    dmean^T cov^-1 dmean from the closed forms of the mean field's
    d(alpha)/d(lam) = (1 + k^2) / (omega sqrt(1 - k^2)) and d(beta)/d(lam) =
    k / (2 lam beta), with the mean sqrt(2N) (alpha, 0, -beta, 0)."""
    with mpmath.workdps(50):
        x = mpmath.mpf(lam)
        cov = _reference_cov(x, omega, omega0)
        dcov = mpmath.zeros(4, 4)
        for i, j in ((0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (2, 0), (1, 3), (3, 1)):
            dcov[i, j] = mpmath.diff(lambda y: _reference_cov(y, omega, omega0)[i, j], x)
        form = mpmath.matrix(symplectic_form(2).tolist())
        quadratic = -sum((form.T * dcov * form * dcov)[i, i] for i in range(4))
        dmean = mpmath.zeros(4, 1)
        lc = mpmath.sqrt(mpmath.mpf(omega) * omega0) / 2
        if x > lc:
            k = (lc / x) ** 2
            beta = mpmath.sqrt((1 - k) / 2)
            root = mpmath.sqrt(2 * mpmath.mpf(n_atoms))
            dmean[0] = root * (1 + k * k) / (omega * mpmath.sqrt(1 - k * k))
            dmean[2] = -root * k / (2 * x * beta)
        return quadratic + (dmean.T * mpmath.inverse(cov) * dmean)[0]


def solve_form_qfi(jet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(qfi, quadratic_term, displacement_term) of a jet by the package's
    former reader: the quadratic term as the trace of a 4x4 matmul chain, the
    displacement term dmean^T cov^-1 dmean by np.linalg.solve."""
    form = symplectic_form(2)
    quadratic = -np.trace(form.T @ jet.dcov @ form @ jet.dcov, axis1=-2, axis2=-1)
    dmean = jet.dmean[..., None]
    displacement = (np.swapaxes(dmean, -1, -2) @ np.linalg.solve(jet.cov, dmean))[..., 0, 0]
    return quadratic + displacement, quadratic, displacement


def solve_form_zeta(jet) -> np.ndarray:
    """The SLD's linear term Omega^T cov^-1 dmean of a 0-d jet by np.linalg.solve."""
    return symplectic_form(2).T @ np.linalg.solve(jet.cov, jet.dmean)


def random_symplectic(rng: np.random.Generator, scale: float = 0.5) -> np.ndarray:
    """A two-mode symplectic matrix expm(Omega G) for a random symmetric G of entries ~ scale."""
    g = rng.normal(scale=scale, size=(4, 4))
    return expm(symplectic_form(2) @ (g + g.T) / 2.0)


def two_call_spectrum(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(d_plus, d_minus, ppt_d_plus, ppt_d_minus) of a two-mode covariance, or of
    each of a stack, as `symplectic_spectrum` took them before it stacked the
    state and its partial transpose into one eigenvalue call."""

    def eigen_pair(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ev = np.linalg.eigvals(symplectic_form(2) @ c)
        d = np.sort(np.abs(ev.imag), axis=-1)
        return (d[..., 2] + d[..., 3]) / 2.0, (d[..., 0] + d[..., 1]) / 2.0

    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    return (*eigen_pair(cov), *eigen_pair(flip @ cov @ flip))


def fi_photon_counting_family(state: GaussianState, dmean: np.ndarray, dcov: np.ndarray) -> tuple[float, int]:
    """(FI, cutoff) of photon counting on a single-mode state family: state is
    the member at the estimated parameter, dmean and dcov the parameter
    derivatives of its moments.  The package's series on a family that no
    Dicke coupling gives, for the exact coherent, thermal and squeezed FIs."""
    dmean, dcov = np.asarray(dmean, dtype=float), np.asarray(dcov, dtype=float)
    if state.cov.shape != (2, 2) or dmean.shape != (2,) or dcov.shape != (2, 2):
        raise ValueError(f"expected the moments of one mode, got cov {state.cov.shape}, dcov {dcov.shape}")
    return _photon_fi_stack(state.mean[None], state.cov[None], dmean[None], dcov[None])[0]


class ThreeValueSeries(_kernels.PnSeries):
    """`_kernels.PnSeries` with the `extend` loop it had before its two-stage
    band test: the largest of the three live magnitudes against [1e-200, 1e200]
    on every term, and an integer n."""

    def extend(self, n_max: int, tail_tol: float | None = None) -> bool:
        a1, a2, a3, q0, q1, q2 = self._coeffs
        vals, scales = self._vals, self._scales
        p0, p1, p2 = self._live
        banked, run_mass, exp2 = self._banked, self._run_mass, scales[-1][1]
        log_scale = self._log_r00 + exp2 * _kernels._LN2
        goal = math.inf if tail_tol is None else 1.0 - tail_tol
        run_goal = _kernels._run_goal(goal - banked, log_scale)
        for n in range(len(vals) - 1, n_max):
            if run_mass >= run_goal:
                break
            p0, p1, p2 = (
                ((q0 - a1 * n) * p0 + (q1 - a2 * (n - 1)) * p1 + (q2 - a3 * (n - 2)) * p2) / (n + 1),
                p0,
                p1,
            )
            big = max(abs(p0), abs(p1), abs(p2))
            if big > _kernels._HIGH or 0.0 < big < _kernels._LOW:
                e = math.frexp(big)[1]
                p0, p1, p2 = math.ldexp(p0, -e), math.ldexp(p1, -e), math.ldexp(p2, -e)
                banked += run_mass * math.exp(log_scale) if log_scale < 700.0 else math.inf
                exp2 += e
                log_scale = self._log_r00 + exp2 * _kernels._LN2
                scales.append((n + 1, exp2))
                run_mass, run_goal = 0.0, _kernels._run_goal(goal - banked, log_scale)
            vals.append(p0)
            run_mass += p0
        self._live, self._banked, self._run_mass = (p0, p1, p2), banked, run_mass
        return run_mass >= run_goal


def log_form_probs(series: _kernels.PnSeries) -> np.ndarray:
    """p(0..n_max) of a series as `_kernels.PnSeries.probs` computed them
    before its one-multiply runs: sign(v) exp(log|v| + log r00 + e ln 2) for
    every scaled value v of every run."""
    v = np.array(series._vals)
    starts = [i for i, _ in series._scales] + [len(v)]
    logs = series._log_r00 + _kernels._LN2 * np.repeat([e for _, e in series._scales], np.diff(starts))
    with np.errstate(divide="ignore"):
        return np.sign(v) * np.exp(np.log(np.abs(v)) + logs)


def pn_derivative(
    probs: np.ndarray, dlog_r00: float, t: float, dt: float, s: float, ds: float, c: float, dc: float
) -> np.ndarray:
    """dp(0..n_max) along a path of series inputs, from the unscaled probs = pn_series(...).

    The derivative filter D dG = P G of `_kernels`, with P applied as a numpy
    convolution; c and dc enter as c^2 and c dc only, so the sign of c is free.
    """
    one_st, one_t2 = np.convolve([1.0, -s], [1.0, -t]), np.convolve([1.0, -t], [1.0, -t])
    feedback = np.convolve([1.0, -s], one_t2)
    # P / z, a quadratic
    inner = 0.5 * ds * one_t2 + (0.5 * dt + 2.0 * c * dc) * one_st + c * c * dt * np.array([0.0, 1.0, -s])
    forward = dlog_r00 * feedback + np.append(0.0, inner)
    out = np.convolve(probs, forward)[: len(probs)].tolist()
    _, d1, d2, d3 = feedback.tolist()
    y1 = y2 = y3 = 0.0
    for n, x in enumerate(out):
        y1, y2, y3 = x - d1 * y1 - d2 * y2 - d3 * y3, y1, y2
        out[n] = y1
    return np.array(out)


def photon_fi_row_two_pass(
    mean_n: float, limit: int, inputs: tuple[float, float, float, float], slopes: tuple[float, float, float, float]
) -> tuple[float, int]:
    """(FI, cutoff) of one photon-counting row summed the way `measurements._photon_fi_row`
    did before its one-pass filter: each round takes the whole unscaled p(0..n)
    of the series, filters it with `pn_derivative` and sums sum dp^2 / p over
    the p(n) at or above the floor; the same margin, tail rule and checks."""
    _, t, s, c = inputs
    dlog_r00, dt, ds, dc = slopes
    series = _kernels.PnSeries(*inputs)
    if not series.extend(limit, measurements.PN_TAIL_TOL):
        raise NonConvergedSeries(f"photon series tail above the tail tolerance at the cutoff limit {limit}")
    more = math.ceil(measurements.FI_MARGIN * (series.n_max - mean_n)) + 2
    while True:
        series.extend(min(limit, series.n_max + more))
        probs = series.probs()
        if float(np.min(probs)) < -1e-9:
            raise UnphysicalStateError(f"photon series broke down: p(n) = {float(np.min(probs)):.3e}")
        dp = pn_derivative(probs, dlog_r00, t, dt, s, ds, c, dc)
        keep = probs >= measurements.FI_TERM_FLOOR
        terms = np.where(keep, dp * dp / np.where(keep, probs, 1.0), 0.0)
        fi = math.fsum(terms.tolist())
        more = measurements._fi_tail_terms(terms.tolist(), fi, measurements.PN_TAIL_TOL)
        if not more:
            return fi, series.n_max
        if series.n_max >= limit:
            raise NonConvergedSeries(f"photon-counting FI tail above the tail tolerance at the cutoff limit {limit}")


def photon_series_inputs(state: GaussianState) -> tuple[float, float, float, float]:
    """Inputs (log r00, t, s, c) of the photon-number series of `_kernels` for
    an x/p-aligned, x-displaced single-mode state."""
    [(mx, _, sx, _, _, sp)] = measurements._mode_entries(state.mean, state.cov)
    return measurements._series_inputs(sx, sp, mx)


def photon_number_moments(mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<n> and Var(n) of single-mode Gaussian states, mean (..., 2), cov (..., 2, 2),
    as arrays: the former stacked form of `measurements._mode_moments`.

    <n> = (Tr sigma + |mu|^2 - 1)/2 and Var(n) = Tr sigma^2 / 2 - 1/4 + mu^T sigma mu.
    """
    mean, cov = np.asarray(mean, dtype=float), np.asarray(cov, dtype=float)
    trace = cov[..., 0, 0] + cov[..., 1, 1]
    mean_n = 0.5 * (trace + np.sum(mean * mean, axis=-1) - 1.0)
    # mu^T sigma mu term by term and elementwise, so that a member of a stack
    # gets the bits it gets alone (einsum's summation order depends on the
    # stack's size)
    mx, mp = mean[..., 0], mean[..., 1]
    quadratic = mx * cov[..., 0, 0] * mx + mx * cov[..., 0, 1] * mp + mp * cov[..., 1, 0] * mx + mp * cov[..., 1, 1] * mp
    var_n = 0.5 * np.sum(cov * cov, axis=(-2, -1)) - 0.25 + quadratic
    return mean_n, var_n


def fixed_cutoff_probs(state: GaussianState, n_max: int) -> np.ndarray:
    """p(0..n_max) of a single-mode state's photon series at a fixed cutoff,
    where the package's distribution stops at its resolved tail."""
    return _kernels.pn_series(*photon_series_inputs(state), n_max)


def csv_cell(value) -> str:
    """One CSV cell as the CLI printed it cell by cell: a string as is, an
    integer in decimal, anything else as a double at 17 significant digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.17g}"


def render_csv(columns: tuple[str, ...], rows: list[list]) -> str:
    """The CLI's CSV table, header and status column included, one cell at a time."""
    lines = [",".join(columns + ("status",))]
    lines.extend(",".join(csv_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def render_json(columns: tuple[str, ...], rows: list[list], extra: dict | None = None) -> str:
    """The CLI's JSON table, row by row, with a nan or an infinity printed as null."""
    cells = [[None if isinstance(v, float) and not math.isfinite(v) else v for v in row] for row in rows]
    doc = {"columns": [*columns, "status"], "rows": cells}
    doc.update(extra or {})
    return json.dumps(doc, indent=2) + "\n"


# The CLI's former per-row path: a GaussianState per coupling, its partial
# trace and the scalar spectrum and decomposition, and the Wigner grid one
# point at a time.  The row builders take (couplings, config) as the CLI's do.


def _states(lams: list[float], cfg: dict) -> list[GaussianState]:
    mean, cov = ground_moments(lams, cfg["omega"], cfg["omega0"], cfg["n_atoms"])
    return [GaussianState(m, c) for m, c in zip(mean, cov)]


def entanglement_rows_per_state(lams: list[float], cfg: dict) -> list[list]:
    rows = []
    for lam, st in zip(lams, _states(lams, cfg)):
        spec = symplectic_spectrum(st.cov)
        rows.append([lam, max(0.0, -np.log(2.0 * spec.ppt_d_minus)), spec.ppt_d_minus])
    return rows


def photon_rows_per_state(lams: list[float], cfg: dict) -> list[list]:
    rows = []
    for lam, st in zip(lams, _states(lams, cfg)):
        d = mean_photon_decomposition(partial_trace(st, [RADIATION_MODE]))
        rows.append([lam, d.n_s, d.thermal, d.coherent, d.total])
    return rows


def wigner_at_point(state: GaussianState, point: np.ndarray) -> float:
    """Wigner function at one phase-space point, with the quadratic form as a 1-D dot product."""
    sign, logdet = np.linalg.slogdet(state.cov)
    if sign <= 0:
        raise SingularCovarianceError("covariance determinant is not positive")
    delta = point - state.mean
    quad = delta @ np.linalg.solve(state.cov, delta)
    return float(np.exp(-0.5 * quad - state.n_modes * np.log(2.0 * np.pi) - 0.5 * logdet))


def wigner_rows_per_point(params: DickeParams, points: int) -> tuple[GaussianState, list[list]]:
    """The radiation state and the rows of the CLI's Wigner table, one point at a time."""
    state = reduced_radiation_state(params)
    sx, sp = math.sqrt(state.cov[0, 0]), math.sqrt(state.cov[1, 1])
    xs = np.linspace(state.mean[0] - 6 * sx, state.mean[0] + 6 * sx, points)
    ps = np.linspace(state.mean[1] - 6 * sp, state.mean[1] + 6 * sp, points)
    return state, [[float(x), float(p), wigner_at_point(state, np.array([x, p])), "ok"] for x in xs for p in ps]


# The CLI's former row path for the sweeps it vectorised: one list per row from
# the stacked moments, and a sweep's rows with their status appended, a
# failed point padded with NaN.


def _jet(lams: list[float], cfg: dict):
    return moment_jet(lams, cfg["omega"], cfg["omega0"], cfg["n_atoms"])


def qfi_rows(lams: list[float], cfg: dict) -> list[list]:
    columns = (column.tolist() for column in qfi_from_jet(_jet(lams, cfg)))
    return [list(row) for row in zip(lams, *columns)]


def fi_homodyne_rows(lams: list[float], cfg: dict) -> list[list]:
    jet = _jet(lams, cfg)
    target = Target(cfg["target"])
    fis = [fi_homodyne_from_jet(jet, HomodyneSetting(phi=phi, target=target)).tolist() for phi in cfg["phi"]]
    return [
        [lam, phi, fi, h, fi / h]
        for lam, h, *row in zip(lams, qfi_from_jet(jet)[0].tolist(), *fis)
        for phi, fi in zip(cfg["phi"], row)
    ]


def fi_photon_rows(lams: list[float], cfg: dict) -> list[list]:
    jet = _jet(lams, cfg)
    return [
        [lam, fi, h, fi / h, n_max]
        for lam, h, (fi, n_max) in zip(lams, qfi_from_jet(jet)[0].tolist(), fi_photon_counting_from_jet(jet))
    ]


def sweep_rows(builder, width: int, lams: list[float], cfg: dict) -> list[list]:
    """The rows, status included, of a sweep over lams of a table `width`
    columns wide before its status: after a domain error each point again on
    its own, a failed one with NaN values."""
    try:
        return [row + ["ok"] for row in builder(lams, cfg)]
    except (DickeMetrologyError, np.linalg.LinAlgError) as exc:
        status = "nonconverged" if isinstance(exc, NonConvergedSeries) else "singular"
    if len(lams) > 1:
        return [row for lam in lams for row in sweep_rows(builder, width, [lam], cfg)]
    pad = [math.nan] * (width - 1)
    if builder is fi_homodyne_rows:
        return [[lams[0], phi] + pad[1:] + [status] for phi in cfg["phi"]]
    return [[lams[0]] + pad + [status]]
