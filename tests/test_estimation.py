"""Tests for the QFI / SLD layer, including an analytic derivative oracle."""
import functools

import numpy as np
import pytest
import sympy as sp

from dicke_metrology import dicke
from dicke_metrology.dicke import DickeParams, derive, ground_moments, ground_state, moment_jet
from dicke_metrology.errors import CriticalPointSingularity
from dicke_metrology.estimation import (
    fit_power_law,
    qfi,
    qfi_from_jet,
    sld_coefficients,
    sld_coefficients_f1_frame,
    state_derivative,
)
from dicke_metrology.measurements import HomodyneSetting, Target, fi_homodyne, fi_homodyne_from_jet
from oracles import fidelity_qfi


@functools.lru_cache(maxsize=None)
def _symbolic_moment_derivatives(w, w0, superradiant, n_atoms):
    lam = sp.Symbol("lam", positive=True)
    w, w0 = sp.nsimplify(w), sp.nsimplify(w0)
    k = (sp.sqrt(w * w0) / 2) ** 2 / lam ** 2 if superradiant else sp.Integer(1)
    wt = w0 * (1 + k) / (2 * k)
    s = w ** 2 + (w0 / k) ** 2
    r = sp.sqrt(((w0 / k) ** 2 - w ** 2) ** 2 + 16 * lam ** 2 * w * w0 * k)
    em = sp.sqrt((s - r) / 2)
    ep = sp.sqrt((s + r) / 2)
    th = sp.atan2(4 * lam * sp.sqrt(w * w0 * k) * k ** 2, w0 ** 2 - k ** 2 * w ** 2) / 2
    c2, s2, s2t = sp.cos(th) ** 2, sp.sin(th) ** 2, sp.sin(2 * th)
    entries = {
        (0, 0): w * (c2 / em + s2 / ep) / 2,
        (1, 1): (em * c2 + ep * s2) / (2 * w),
        (2, 2): wt * (c2 / ep + s2 / em) / 2,
        (3, 3): (ep * c2 + em * s2) / (2 * wt),
        (0, 2): sp.sqrt(w * wt) * s2t * (1 / ep - 1 / em) / 4,
        (1, 3): -s2t * (em - ep) / (4 * sp.sqrt(w * wt)),
    }
    root = sp.sqrt(2 * n_atoms)
    alpha = (lam / w) * sp.sqrt(1 - k ** 2)
    beta = sp.sqrt((1 - k) / 2)
    means = {0: alpha * root, 2: -beta * root}
    return (
        lam,
        {ij: sp.diff(expr, lam) for ij, expr in entries.items()},
        {i: sp.diff(expr, lam) for i, expr in means.items()},
    )


def analytic_moment_derivatives(lam_val, omega=1.0, omega0=1.0, n_atoms=100):
    """Symbolic d(cov)/d(lam), d(mean)/d(lam) at any (omega, omega0), either phase.

    Differentiates the closed-form covariance entries and the mean-field
    displacements through k, theta and the normal-mode frequencies with
    sympy, and evaluates at 30 digits; independent of the chain-rule code
    under test.
    """
    superradiant = lam_val > np.sqrt(omega * omega0) / 2
    lam, dcov_exprs, dmean_exprs = _symbolic_moment_derivatives(omega, omega0, superradiant, n_atoms)
    at = {lam: sp.Rational(lam_val)}
    dcov = np.zeros((4, 4))
    for (i, j), expr in dcov_exprs.items():
        dcov[i, j] = dcov[j, i] = float(expr.evalf(30, subs=at))
    dmean = np.zeros(4)
    for i, expr in dmean_exprs.items():
        dmean[i] = float(expr.evalf(30, subs=at))
    return dcov, dmean


ORACLE_FREQUENCIES = [(1.0, 1.0), (1.0, 2.0), (2.0, 0.5)]
# lam / lambda_c; the last three are lam = 1e2, 1e4 and 1e6 at resonance, where
# eps_minus^2 = (s - r)/2 lost every digit
ORACLE_OFFSETS = [0.02, 0.5, 0.99, 0.999, 1.001, 1.01, 1.5, 10.0, 2e2, 2e4, 2e6]
# (omega, omega0, n_atoms): a valid model, and values outside its domain
MODEL = (1.0, 1.0, 100)
BAD_MODELS = [
    (float("nan"), 1.0, 100),
    (-1.0, 1.0, 100),
    (1.0, 0.0, 100),
    (1.0, 1.0, 0),
    (1.0, 1.0, 2.5),
    (1.0, 1.0, -100),
    (1.0, 1.0, 10**400),
]


class TestStateDerivative:
    def test_normal_phase_mean_frozen(self):
        sd = state_derivative(DickeParams(lam=0.3))
        assert np.array_equal(sd.dmean[0], np.zeros(4))

    def test_dcov_symmetric(self):
        sd = state_derivative(DickeParams(lam=0.7))
        assert np.array_equal(sd.dcov[0], sd.dcov[0].T)

    def test_against_analytic_oracle(self):
        for omega, omega0 in ORACLE_FREQUENCIES:
            for ratio in ORACLE_OFFSETS:
                where = f"omega={omega}, omega0={omega0}, lam/lambda_c={ratio}"
                lam = ratio * np.sqrt(omega * omega0) / 2
                dcov_exact, dmean_exact = analytic_moment_derivatives(lam, omega, omega0)
                sd = state_derivative(DickeParams(lam=lam, omega=omega, omega0=omega0))
                scale = np.max(np.abs(dcov_exact))
                assert np.max(np.abs(sd.dcov[0] - dcov_exact)) / scale < 1e-10, where
                if ratio < 1:
                    assert np.array_equal(dmean_exact, np.zeros(4)), where
                    assert np.array_equal(sd.dmean[0], np.zeros(4)), where
                else:
                    worst = np.max(np.abs(sd.dmean[0] - dmean_exact)) / np.max(np.abs(dmean_exact))
                    assert worst < 1e-10, where

    @pytest.mark.parametrize("omega0", [1.0, 2.0])
    def test_zero_coupling_is_the_small_coupling_limit(self, omega0):
        # at resonance the two modes are degenerate at lam = 0
        at_zero = state_derivative(DickeParams(lam=0.0, omega0=omega0))
        near_zero = state_derivative(DickeParams(lam=1e-9, omega0=omega0))
        assert np.max(np.abs(at_zero.dcov[0] - near_zero.dcov[0])) < 1e-8


class TestMomentJet:
    """One vectorised jet serves sweeps and single couplings alike."""

    # lam / lambda_c on both sides of the transition; 0 is the degenerate
    # point at resonance
    RATIOS = [0.0, 0.02, 0.5, 0.99, 0.999, 1.001, 1.01, 1.5, 10.0, 100.0]

    @pytest.mark.parametrize("n_atoms", [1, 100, 10_000])
    @pytest.mark.parametrize("omega, omega0", ORACLE_FREQUENCIES)
    def test_batch_equals_one_point_jets(self, omega, omega0, n_atoms):
        lams = np.sqrt(omega * omega0) / 2 * np.array(self.RATIOS)
        batch = moment_jet(lams, omega, omega0, n_atoms)
        homodyne = [
            fi_homodyne_from_jet(batch, HomodyneSetting(phi=phi, target=target))
            for phi in (0.0, 1.0)
            for target in Target
        ]
        for i, lam in enumerate(lams):
            where = f"omega={omega}, omega0={omega0}, N={n_atoms}, lam={lam}"
            one = moment_jet([lam], omega, omega0, n_atoms)
            for field in ("mean", "cov", "dmean", "dcov"):
                assert np.array_equal(getattr(batch, field)[i], getattr(one, field)[0]), (field, where)
            params = DickeParams(lam=float(lam), omega=omega, omega0=omega0, n_atoms=n_atoms)
            assert qfi_from_jet(batch)[i] == qfi(params), where
            assert [fi[i] for fi in homodyne] == [
                fi_homodyne(params, HomodyneSetting(phi=phi, target=target))
                for phi in (0.0, 1.0)
                for target in Target
            ], where

    def test_moments_match_ground_state(self):
        lams = [0.0, 0.3, 0.7]
        mean, cov = ground_moments(lams, 1.0, 1.0, 100)
        jet = moment_jet(lams, 1.0, 1.0, 100)
        assert np.array_equal(mean, jet.mean) and np.array_equal(cov, jet.cov)
        for i, lam in enumerate(lams):
            state = ground_state(DickeParams(lam=lam))
            assert np.array_equal(state.mean, mean[i]) and np.array_equal(state.cov, cov[i])

    def test_critical_window_raises_for_one_point_and_batch(self):
        with pytest.raises(CriticalPointSingularity):
            moment_jet([0.5 + 1e-9], 1.0, 1.0, 100)
        with pytest.raises(CriticalPointSingularity):
            moment_jet([0.3, 0.5 - 1e-9, 0.7], 1.0, 1.0, 100)

    def test_perturbed_chain_fails_the_symplectic_check(self, monkeypatch):
        rotation = dicke._rotation
        monkeypatch.setattr(dicke, "_rotation", lambda theta: rotation(theta) * (1.0 + 1e-6))
        with pytest.raises(ValueError, match="not symplectic"):
            moment_jet([0.3, 0.7], 1.0, 1.0, 100)
        with pytest.raises(ValueError, match="not symplectic"):
            ground_state(DickeParams(lam=0.7))

    @pytest.mark.parametrize(
        "lams, model",
        [([-0.1], MODEL), ([[0.3, 0.7]], MODEL), ([0.3, float("inf")], MODEL), ([float("nan")], MODEL)]
        + [([0.3], bad) for bad in BAD_MODELS],
        ids=[f"lams{i}" for i in range(4)] + [f"model{i}" for i in range(len(BAD_MODELS))],
    )
    def test_malformed_couplings_rejected(self, lams, model):
        # the validator's message, not a math domain error further down
        with pytest.raises(ValueError, match="must"):
            moment_jet(lams, *model)
        with pytest.raises(ValueError, match="must"):
            ground_moments(lams, *model)


class TestQfi:
    def test_decoupled_limit(self):
        res = qfi(DickeParams(lam=1e-4))
        assert res.qfi == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("omega0", [1.0, 2.0])
    def test_zero_coupling(self, omega0):
        # the decoupled limit 4 / (omega + omega0)^2, reached at lam = 0 itself
        res = qfi(DickeParams(lam=0.0, omega0=omega0))
        assert res.qfi == pytest.approx(4 / (1 + omega0) ** 2, rel=1e-12)

    def test_deep_superradiant_limit(self):
        res = qfi(DickeParams(lam=50.0, n_atoms=100))
        assert res.qfi == pytest.approx(400.0, rel=0.01)

    def test_terms_sum(self):
        res = qfi(DickeParams(lam=0.8))
        assert res.qfi == res.quadratic_term + res.displacement_term
        assert res.qfi > 0

    def test_displacement_term_by_phase(self):
        assert qfi(DickeParams(lam=0.3)).displacement_term == 0.0
        assert qfi(DickeParams(lam=0.7)).displacement_term > 0

    def test_critical_scaling_normal_side(self):
        res = qfi(DickeParams(lam=0.49))
        assert res.qfi * 8 * 0.01 ** 2 == pytest.approx(1.0, rel=0.05)

    @pytest.mark.xfail(
        strict=True,
        reason="displacement response scales with atom number and dominates "
        "the inverse-square law at this offset for N = 100",
    )
    def test_critical_scaling_superradiant_side(self):
        res = qfi(DickeParams(lam=0.51, n_atoms=100))
        assert res.qfi * 8 * 0.01 ** 2 == pytest.approx(1.0, rel=0.05)

    def test_critical_scaling_superradiant_single_atom(self):
        # with N = 1 the displacement part stays subleading on both sides
        minus = qfi(DickeParams(lam=0.49, n_atoms=1))
        plus = qfi(DickeParams(lam=0.51, n_atoms=1))
        assert minus.qfi * 8 * 0.01 ** 2 == pytest.approx(1.0, rel=0.05)
        assert plus.qfi * 8 * 0.01 ** 2 == pytest.approx(1.0, rel=0.05)

    def test_displacement_term_linear_in_n(self):
        params_n = DickeParams(lam=0.7, n_atoms=100)
        params_4n = DickeParams(lam=0.7, n_atoms=400)
        gap = qfi(params_4n).qfi - qfi(params_n).qfi
        assert gap == pytest.approx(3 * qfi(params_n).displacement_term, rel=0.01)

    def test_sign_branch_irrelevant(self):
        # H depends on the displacement derivative quadratically
        params = DickeParams(lam=0.9)
        sd = state_derivative(params)
        cov = ground_state(params).cov
        plus = sd.dmean[0] @ np.linalg.solve(cov, sd.dmean[0])
        minus = (-sd.dmean[0]) @ np.linalg.solve(cov, -sd.dmean[0])
        assert plus == minus

    @pytest.mark.parametrize("lam", [0.3, 0.7])
    def test_fidelity_oracle(self, lam):
        def state_at(x):
            return ground_state(DickeParams(lam=x))

        h_fid = fidelity_qfi(state_at, lam, 1e-5)
        assert h_fid == pytest.approx(qfi(DickeParams(lam=lam)).qfi, rel=1e-3)


class TestSld:
    def test_zeta_zero_normal_phase(self):
        coeffs = sld_coefficients(DickeParams(lam=0.3))
        assert np.array_equal(coeffs.zeta, np.zeros(4))

    @pytest.mark.parametrize("lam", [0.3, 0.8])
    def test_nu_vanishes(self, lam):
        assert abs(sld_coefficients(DickeParams(lam=lam)).nu) < 1e-6

    def test_phi_is_minus_dcov(self):
        params = DickeParams(lam=0.6)
        coeffs = sld_coefficients(params)
        sd = state_derivative(params)
        assert np.array_equal(coeffs.phi, -sd.dcov[0])

    @pytest.mark.parametrize("side", [-1, 1])
    def test_phi_prime_divergence_exponent(self, side):
        samples = []
        for dist in np.logspace(-2, -3, 9):
            lam = 0.5 + side * dist
            phi = sld_coefficients_f1_frame(DickeParams(lam=lam)).phi
            samples.append((lam, float(np.max(np.abs(phi)))))
        exponent, _ = fit_power_law(samples, 0.5)
        assert exponent == pytest.approx(-1.5, abs=0.05)

    def test_phi_prime_x_sector_structure(self):
        # divergent part concentrates on (x1' - x2')^2
        phi = sld_coefficients_f1_frame(DickeParams(lam=0.499)).phi
        xs = phi[np.ix_([0, 2], [0, 2])]
        assert xs / xs[0, 0] == pytest.approx(
            np.array([[1.0, -1.0], [-1.0, 1.0]]), abs=1e-3
        )
        ps = phi[np.ix_([1, 3], [1, 3])]
        assert np.max(np.abs(ps)) < 0.01 * abs(xs[0, 0])

    @staticmethod
    def zeta_angle(lam):
        params = DickeParams(lam=lam)
        zeta = sld_coefficients(params).zeta
        d = derive(params)
        # F1 (0, 1, 0, -1) with F1 = Diag(1/sqrt(w), sqrt(w), 1/sqrt(wt), sqrt(wt))
        vref = np.array([0.0, np.sqrt(d.omega), 0.0, -np.sqrt(d.omega_tilde)])
        cosang = zeta @ vref / (np.linalg.norm(zeta) * np.linalg.norm(vref))
        return np.arccos(abs(cosang))

    def test_zeta_direction_near_critical(self):
        assert self.zeta_angle(0.501) < 0.01

    @pytest.mark.xfail(
        strict=True,
        reason="the asymptotic direction is reached only as lam approaches "
        "the critical coupling; at this offset the angle is about 0.028 rad",
    )
    def test_zeta_direction_at_wider_offset(self):
        assert self.zeta_angle(0.51) < 0.01


class TestFitPowerLaw:
    def test_exact_recovery(self):
        xs = 0.5 - np.logspace(-2, -3, 6)
        samples = [(x, (0.5 - x) ** -2.0) for x in xs]
        exponent, prefactor = fit_power_law(samples, 0.5)
        assert exponent == pytest.approx(-2.0, abs=1e-12)
        assert prefactor == pytest.approx(1.0, abs=1e-12)

    def test_prefactor_recovery(self):
        xs = 0.5 + np.logspace(-3, -1, 8)
        samples = [(x, 0.125 * (x - 0.5) ** -1.5) for x in xs]
        exponent, prefactor = fit_power_law(samples, 0.5)
        assert exponent == pytest.approx(-1.5, abs=1e-12)
        assert prefactor == pytest.approx(0.125, rel=1e-12)

    def test_too_few_samples(self):
        samples = [(0.4, 1.0), (0.45, 2.0), (0.48, 3.0)]
        with pytest.raises(ValueError):
            fit_power_law(samples, 0.5)

    def test_straddling_rejected(self):
        samples = [(0.4, 1.0), (0.45, 2.0), (0.52, 3.0), (0.6, 4.0)]
        with pytest.raises(ValueError):
            fit_power_law(samples, 0.5)

    def test_narrow_span_rejected(self):
        xs = 0.5 - np.linspace(0.01, 0.02, 5)
        with pytest.raises(ValueError):
            fit_power_law([(x, 1.0) for x in xs], 0.5)

    def test_nonpositive_rejected(self):
        xs = 0.5 - np.logspace(-2, -3, 5)
        samples = [(x, 0.0) for x in xs]
        with pytest.raises(ValueError):
            fit_power_law(samples, 0.5)
