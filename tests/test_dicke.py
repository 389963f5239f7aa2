"""Tests for the Dicke ground-state construction."""
import mpmath
import numpy as np
import pytest

from dicke_metrology.dicke import (
    ATOMIC_MODE,
    CriticalPointSingularity,
    DickeParams,
    Phase,
    derive,
    derived_to_dict,
    ground_state,
    reduced_radiation_state,
    symplectic_chain,
)
from dicke_metrology.gaussian import log_negativity, partial_trace, symplectic_form, symplectic_spectrum
from oracles import closed_form_cov, purity

RESONANT_GRID = np.concatenate(
    [np.linspace(0.01, 0.49, 25), np.linspace(0.51, 2.0, 25)]
)


class TestParams:
    def test_lambda_c_resonant(self):
        assert DickeParams(lam=0.3).lambda_c == 0.5

    def test_lambda_c_detuned(self):
        assert DickeParams(lam=0.1, omega=0.25).lambda_c == 0.25

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": -0.1},
            {"lam": 0.3, "omega": 0.0},
            {"lam": 0.3, "omega0": -1.0},
            {"lam": 0.3, "n_atoms": 0},
            {"lam": float("inf")},
            {"lam": float("nan")},
            {"lam": 0.3, "omega": float("inf")},
            {"lam": 0.3, "n_atoms": float("inf")},
            {"lam": 0.3, "n_atoms": 2.5},
            {"lam": 0.3, "n_atoms": 10**400},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DickeParams(**kwargs)


class TestDerive:
    def test_normal_phase(self):
        d = derive(DickeParams(lam=0.3))
        assert d.phase is Phase.NORMAL
        assert d.k == 1.0
        assert d.alpha == 0.0
        assert d.beta == 0.0

    def test_superradiant_point(self):
        d = derive(DickeParams(lam=1.0))
        assert d.phase is Phase.SUPERRADIANT
        assert d.k == pytest.approx(0.25)
        assert d.beta == pytest.approx(np.sqrt(0.375), abs=1e-12)
        assert d.alpha == pytest.approx(np.sqrt(1 - 0.25 ** 2), abs=1e-12)

    def test_decoupled_limit(self):
        d = derive(DickeParams(lam=0.0))
        assert d.eps_minus == 1.0
        assert d.eps_plus == 1.0
        assert d.theta == 0.0

    def test_k_continuous_at_transition(self):
        below = derive(DickeParams(lam=0.5 - 1e-6)).k
        above = derive(DickeParams(lam=0.5 + 1e-6)).k
        assert below == 1.0
        assert above == pytest.approx(1.0, abs=1e-5)

    def test_eps_minus_vanishes_at_critical(self):
        for delta in (1e-2, 1e-3, 1e-4):
            for side in (-1, 1):
                d = derive(DickeParams(lam=0.5 + side * delta))
                assert 0 < d.eps_minus < 10 * np.sqrt(delta)

    @pytest.mark.parametrize("lam", [1e2, 1e4, 1e6])
    def test_eps_minus_deep_superradiant(self, lam):
        # eps_minus^2 = (s - r)/2 at 50 digits, where s and r agree to 1e-4 / lam^4
        with mpmath.workdps(50):
            k = (mpmath.mpf(0.5) / lam) ** 2
            q2 = 1 / k**2
            r = mpmath.hypot(q2 - 1, 4 * lam * mpmath.sqrt(k))
            exact = float(mpmath.sqrt((1 + q2 - r) / 2))
        assert derive(DickeParams(lam=lam)).eps_minus == pytest.approx(exact, rel=1e-14)

    def test_eps_ordering(self):
        for lam in RESONANT_GRID:
            d = derive(DickeParams(lam=lam))
            assert 0 < d.eps_minus <= d.eps_plus

    def test_theta_branch_continuous(self):
        # 2 theta stays in (0, pi) where arctan would jump at w0^2 = k^2 w^2
        lams = np.linspace(0.51, 1.5, 60)
        thetas = [derive(DickeParams(lam=l)).theta for l in lams]
        steps = np.abs(np.diff(thetas))
        assert np.max(steps) < 0.1

    def test_singularity_window(self):
        with pytest.raises(CriticalPointSingularity):
            derive(DickeParams(lam=0.5 + 1e-9))
        with pytest.raises(CriticalPointSingularity):
            derive(DickeParams(lam=0.5 - 1e-9))

    def test_dict_dump(self):
        data = derived_to_dict(derive(DickeParams(lam=0.7)))
        assert data["phase"] == "superradiant"
        assert data["lambda_c"] == 0.5
        assert set(data) == {
            "lambda_c", "k", "alpha", "beta", "theta",
            "eps_minus", "eps_plus", "omega_tilde", "phase",
        }


class TestSymplecticChain:
    def test_identity_at_zero_coupling(self):
        chain = symplectic_chain(derive(DickeParams(lam=0.0)))
        assert np.allclose(chain, np.eye(4), atol=1e-14)

    @pytest.mark.parametrize("lam", [0.1, 0.4, 0.499, 0.501, 0.8, 2.0])
    def test_symplectic_law(self, lam):
        f = symplectic_chain(derive(DickeParams(lam=lam)))
        omega = symplectic_form(2)
        assert np.max(np.abs(f @ omega @ f.T - omega)) < 1e-10 * max(1.0, np.max(np.abs(f)) ** 2)

    @pytest.mark.parametrize("lam", [0.05, 0.25, 0.4, 0.49, 0.51, 0.7, 1.0, 1.8])
    def test_matches_closed_form(self, lam):
        d = derive(DickeParams(lam=lam))
        f = symplectic_chain(d)
        cov = f @ (np.eye(4) / 2) @ f.T
        assert np.max(np.abs(cov - closed_form_cov(d))) < 1e-10

    def test_closed_form_detuned(self):
        d = derive(DickeParams(lam=0.4, omega=0.25))
        f = symplectic_chain(d)
        cov = f @ (np.eye(4) / 2) @ f.T
        assert np.max(np.abs(cov - closed_form_cov(d))) < 1e-10


class TestGroundState:
    def test_normal_phase_centered_and_pure(self):
        state = ground_state(DickeParams(lam=0.3))
        assert np.array_equal(state.mean, np.zeros(4))
        assert purity(state.cov) == pytest.approx(1.0, abs=1e-10)

    def test_superradiant_mean(self):
        d = derive(DickeParams(lam=1.0))
        state = ground_state(DickeParams(lam=1.0, n_atoms=100))
        root = np.sqrt(200.0)
        assert state.mean == pytest.approx(
            np.array([d.alpha * root, 0.0, -d.beta * root, 0.0]), abs=1e-12
        )

    @pytest.mark.parametrize("lam", RESONANT_GRID[::5])
    def test_purity_on_grid(self, lam):
        state = ground_state(DickeParams(lam=lam))
        assert purity(state.cov) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("lam", [0.2, 0.49, 0.51, 1.3])
    def test_sparsity_pattern(self, lam):
        # x-x and p-p couplings only
        cov = ground_state(DickeParams(lam=lam)).cov
        for i, j in ((0, 1), (0, 3), (1, 2), (2, 3)):
            assert abs(cov[i, j]) < 1e-12

    def test_entangled_near_critical(self):
        spec = symplectic_spectrum(ground_state(DickeParams(lam=0.49)).cov)
        assert spec.ppt_d_minus < 0.5
        assert log_negativity(ground_state(DickeParams(lam=0.49)).cov) > 0

    def test_mean_scaling_with_n(self):
        small = ground_state(DickeParams(lam=0.8, n_atoms=50))
        large = ground_state(DickeParams(lam=0.8, n_atoms=200))
        assert np.array_equal(large.mean, 2.0 * small.mean)
        assert np.array_equal(large.cov, small.cov)


class TestReducedStates:
    def test_zero_coupling_vacuum(self):
        state = reduced_radiation_state(DickeParams(lam=0.0))
        assert np.allclose(state.cov, np.eye(2) / 2, atol=1e-14)
        assert np.array_equal(state.mean, np.zeros(2))

    def test_blocks_of_full_state(self):
        params = DickeParams(lam=0.7)
        full = ground_state(params)
        rad = reduced_radiation_state(params)
        atm = partial_trace(ground_state(params), [ATOMIC_MODE])
        assert np.array_equal(rad.cov, full.cov[:2, :2])
        assert np.array_equal(atm.cov, full.cov[2:, 2:])
        assert np.array_equal(rad.mean, full.mean[:2])
        assert np.array_equal(atm.mean, full.mean[2:])

    def test_strong_squeezing_near_critical(self):
        cov = reduced_radiation_state(DickeParams(lam=0.499)).cov
        assert cov[0, 0] / cov[1, 1] > 10

    def test_displaced_superradiant(self):
        d = derive(DickeParams(lam=1.5))
        state = reduced_radiation_state(DickeParams(lam=1.5, n_atoms=100))
        assert state.mean[0] == pytest.approx(d.alpha * np.sqrt(200.0), abs=1e-12)
        assert state.mean[1] == 0.0
