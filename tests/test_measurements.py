"""Tests for homodyne and photon-counting Fisher information."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke_metrology import measurements
from dicke_metrology.dicke import DickeParams, derive, ground_state, reduced_radiation_state
from dicke_metrology.errors import NonConvergedSeries, UnphysicalStateError
from dicke_metrology.estimation import qfi, state_derivative
from dicke_metrology.gaussian import GaussianState, partial_trace
from dicke_metrology.measurements import (
    FI_TERM_FLOOR,
    PN_TAIL_TOL,
    HomodyneSetting,
    Target,
    _fi_tail_terms,
    _pn_derivative,
    dsts_params,
    fi_homodyne,
    fi_photon_counting,
    fi_photon_counting_family,
    fi_photon_counting_from_jet,
    mean_photon_decomposition,
    photon_distribution,
    photon_number_moments,
    photon_series_inputs,
)
from oracles import fi_gauss_hermite, quadrature_distribution, vacuum_state


def dsts_state(n_th, r, gamma):
    """Single-mode state with thermal occupation, x/p squeezing, x displacement."""
    sx = (0.5 + n_th) * np.exp(2 * r)
    sp = (0.5 + n_th) * np.exp(-2 * r)
    return GaussianState(np.array([gamma * np.sqrt(2.0), 0.0]), np.diag([sx, sp]))


class TestQuadratureDistribution:
    @pytest.mark.parametrize("phi", [0.0, 0.7, np.pi / 2])
    def test_vacuum(self, phi):
        mean, var = quadrature_distribution(vacuum_state(1), phi)
        assert mean == 0.0
        assert var == pytest.approx(0.5, abs=1e-15)

    def test_superradiant_mean(self):
        params = DickeParams(lam=1.0, n_atoms=100)
        state = reduced_radiation_state(params)
        mean, var = quadrature_distribution(state, 0.0)
        assert mean == pytest.approx(derive(params).alpha * np.sqrt(200.0), rel=1e-12)
        assert mean == pytest.approx(13.693, abs=5e-4)
        assert var == float(state.cov[0, 0])

    def test_strong_squeezing_near_critical(self):
        state = reduced_radiation_state(DickeParams(lam=0.499))
        _, var_x = quadrature_distribution(state, 0.0)
        _, var_p = quadrature_distribution(state, np.pi / 2)
        assert var_x / var_p > 10

    def test_rejects_off_diagonal(self):
        cov = np.array([[0.6, 0.1], [0.1, 0.6]])
        with pytest.raises(UnphysicalStateError):
            dsts_params(GaussianState(np.zeros(2), cov))

    def test_rejects_momentum_displacement(self):
        state = GaussianState(np.array([0.0, 1.0]), np.eye(2) / 2)
        with pytest.raises(UnphysicalStateError):
            dsts_params(state)

    def test_rejects_two_mode(self):
        with pytest.raises(ValueError):
            dsts_params(vacuum_state(2))


class TestHomodyneFi:
    def test_normal_phase_small_coupling(self):
        # resonance, phi = 0: ratio approaches 4.5 lam^2
        params = DickeParams(lam=0.01)
        ratio = fi_homodyne(params, HomodyneSetting(0.0, Target.RADIATION)) / qfi(params).qfi
        assert ratio == pytest.approx(4.5e-4, rel=0.05)

    def test_normal_phase_pi_quarter(self):
        params = DickeParams(lam=0.01)
        ratio = fi_homodyne(params, HomodyneSetting(np.pi / 4, Target.RADIATION)) / qfi(params).qfi
        assert ratio == pytest.approx(0.5e-4, rel=0.05)

    @pytest.mark.parametrize("phi,limit", [(0.0, 1.0), (np.pi / 6, 0.75), (np.pi / 3, 0.25)])
    def test_deep_superradiant_radiation(self, phi, limit):
        params = DickeParams(lam=50.0, n_atoms=100)
        ratio = fi_homodyne(params, HomodyneSetting(phi, Target.RADIATION)) / qfi(params).qfi
        assert ratio == pytest.approx(limit, rel=0.01)

    def test_deep_superradiant_atoms_blind(self):
        params = DickeParams(lam=50.0, n_atoms=100)
        ratio = fi_homodyne(params, HomodyneSetting(0.0, Target.ATOMS)) / qfi(params).qfi
        assert ratio < 1e-3

    @pytest.mark.parametrize("target", [Target.RADIATION, Target.ATOMS])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_near_critical_close_to_optimal(self, target, side):
        # x-quadrature ratio approaches 1 as the critical point is neared
        lam = 0.5 + side * 1e-5
        params = DickeParams(lam=lam)
        ratio = fi_homodyne(params, HomodyneSetting(0.0, target)) / qfi(params).qfi
        assert 0.99 < ratio <= 1 + 1e-6

    @pytest.mark.xfail(
        strict=True,
        reason="the square-root correction to the ratio is about 1.9 sqrt(1e-3), "
        "so one percent of optimality needs a much smaller offset",
    )
    def test_near_critical_at_wider_offset(self):
        params = DickeParams(lam=0.499)
        ratio = fi_homodyne(params, HomodyneSetting(0.0, Target.RADIATION)) / qfi(params).qfi
        assert ratio == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("lam", [0.2, 0.45, 0.6, 1.2])
    @pytest.mark.parametrize("phi", [0.0, 1.0])
    @pytest.mark.parametrize("target", [Target.RADIATION, Target.ATOMS])
    def test_bounded_by_qfi(self, lam, phi, target):
        params = DickeParams(lam=lam)
        fi = fi_homodyne(params, HomodyneSetting(phi, target))
        assert 0 <= fi <= qfi(params).qfi * (1 + 1e-6)

    @pytest.mark.parametrize(
        "lam,phi,mode", [(0.3, 0.0, 0), (0.7, np.pi / 5, 0), (0.7, 1.0, 1)]
    )
    def test_matches_quadrature_integral(self, lam, phi, mode):
        # closed form against Gauss-Hermite integration of the outcome density
        def pdf(x, grid):
            st = partial_trace(ground_state(DickeParams(lam=x)), [mode])
            m, v = quadrature_distribution(st, phi)
            return np.exp(-((grid - m) ** 2) / (2 * v)) / np.sqrt(2 * np.pi * v)

        st = partial_trace(ground_state(DickeParams(lam=lam)), [mode])
        m, v = quadrature_distribution(st, phi)
        numeric = fi_gauss_hermite(pdf, lam, 1e-6, m, np.sqrt(2 * v))
        target = Target.RADIATION if mode == 0 else Target.ATOMS
        closed = fi_homodyne(DickeParams(lam=lam), HomodyneSetting(phi, target))
        assert closed == pytest.approx(numeric, rel=1e-6)

    def test_pi_half_diverges_but_suboptimal(self):
        # p-quadrature FI grows without bound toward lambda_c yet its ratio stays below 1
        setting = HomodyneSetting(np.pi / 2, Target.RADIATION)
        fis = []
        for dist in (1e-2, 1e-3, 1e-4):
            params = DickeParams(lam=0.5 - dist)
            fi = fi_homodyne(params, setting)
            fis.append(fi)
            assert fi < qfi(params).qfi
        assert fis[0] < fis[1] < fis[2]

    def test_atomic_target_swaps_frequencies(self):
        # normal-phase atomic ratio equals the radiation ratio with the two
        # frequencies interchanged
        a = DickeParams(lam=0.02, omega=0.6, omega0=1.4)
        b = DickeParams(lam=0.02, omega=1.4, omega0=0.6)
        ratio_atoms = fi_homodyne(a, HomodyneSetting(0.0, Target.ATOMS)) / qfi(a).qfi
        ratio_rad = fi_homodyne(b, HomodyneSetting(0.0, Target.RADIATION)) / qfi(b).qfi
        assert ratio_atoms == pytest.approx(ratio_rad, rel=1e-8)

    def test_ratio_insensitive_to_n(self):
        settings_ = HomodyneSetting(0.0, Target.RADIATION)
        r100 = fi_homodyne(DickeParams(lam=0.7, n_atoms=100), settings_)
        r400 = fi_homodyne(DickeParams(lam=0.7, n_atoms=400), settings_)
        q100 = qfi(DickeParams(lam=0.7, n_atoms=100)).qfi
        q400 = qfi(DickeParams(lam=0.7, n_atoms=400)).qfi
        assert abs(r100 / q100 - r400 / q400) < 0.01


class TestDstsParams:
    def test_vacuum(self):
        d = dsts_params(vacuum_state(1))
        assert (d.n_th, d.r, d.n_s, d.gamma) == (0.0, 0.0, 0.0, 0.0)

    def test_pure_squeezed(self):
        state = GaussianState(np.zeros(2), np.diag([np.e / 2, 1 / (2 * np.e)]))
        d = dsts_params(state)
        assert d.r == pytest.approx(0.5, abs=1e-14)
        assert d.n_th == pytest.approx(0.0, abs=1e-14)
        assert d.n_s == pytest.approx(np.sinh(0.5) ** 2, abs=1e-14)

    def test_displacement_extensive(self):
        params = DickeParams(lam=0.7, n_atoms=100)
        d = dsts_params(reduced_radiation_state(params))
        alpha = derive(params).alpha
        assert d.gamma ** 2 == pytest.approx(alpha ** 2 * 100, rel=1e-12)

    def test_unphysical_rejected(self):
        state = GaussianState(np.zeros(2), np.diag([0.4, 0.4]))
        with pytest.raises(UnphysicalStateError):
            dsts_params(state)


class TestMeanPhotons:
    def test_squeezed_vacuum(self):
        total = mean_photon_decomposition(dsts_state(0.0, 0.8, 0.0)).total
        assert total == pytest.approx(np.sinh(0.8) ** 2, rel=1e-12)

    def test_thermal(self):
        dec = mean_photon_decomposition(GaussianState(np.zeros(2), 1.5 * np.eye(2)))
        assert dec.total == pytest.approx(1.0, rel=1e-12)
        assert dec.thermal == dec.total

    def test_coherent(self):
        dec = mean_photon_decomposition(dsts_state(0.0, 0.0, 1.3))
        assert dec.total == pytest.approx(1.3 ** 2, rel=1e-12)

    def test_matches_series_mean(self):
        state = reduced_radiation_state(DickeParams(lam=0.55, n_atoms=100))
        dec = mean_photon_decomposition(state)
        dist = photon_distribution(state)
        series_mean = float(np.arange(dist.probs.size) @ dist.probs)
        assert series_mean == pytest.approx(dec.total, rel=1e-6)

    def test_number_moments_match_series(self):
        # one call over a batch of states, against the moments of each series
        states = [dsts_state(0.3, 0.5, 1.2), dsts_state(0.0, -0.8, 0.0), dsts_state(1.5, 0.0, -2.0)]
        states.append(reduced_radiation_state(DickeParams(lam=0.7, n_atoms=100)))
        mean_n, var_n = photon_number_moments(
            np.array([st.mean for st in states]), np.array([st.cov for st in states])
        )
        for st, m, v in zip(states, mean_n, var_n):
            probs = photon_distribution(st, n_max=4000).probs
            n = np.arange(probs.size)
            assert m == pytest.approx(mean_photon_decomposition(st).total, rel=1e-12)
            assert v == pytest.approx(float(probs @ (n - m) ** 2), rel=1e-9)


class TestPhotonDistribution:
    def test_vacuum(self):
        dist = photon_distribution(vacuum_state(1), n_max=10)
        assert dist.probs[0] == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(dist.probs[1:])) < 1e-14

    def test_thermal_geometric(self):
        n_th = 0.8
        dist = photon_distribution(GaussianState(np.zeros(2), (n_th + 0.5) * np.eye(2)))
        n = np.arange(dist.probs.size)
        exact = n_th ** n / (1 + n_th) ** (n + 1)
        assert np.max(np.abs(dist.probs - exact)) < 1e-13

    def test_squeezed_vacuum_closed_form(self):
        r = 0.6
        dist = photon_distribution(dsts_state(0.0, r, 0.0), n_max=40)
        for m in (0, 1, 3, 7):
            exact = (
                math.factorial(2 * m)
                * np.tanh(r) ** (2 * m)
                / (4 ** m * math.factorial(m) ** 2 * np.cosh(r))
            )
            assert dist.probs[2 * m] == pytest.approx(exact, rel=1e-12)
            assert abs(dist.probs[2 * m + 1]) < 1e-15

    def test_coherent_poisson(self):
        gamma = 1.2
        dist = photon_distribution(dsts_state(0.0, 0.0, gamma), n_max=30)
        n = np.arange(31)
        exact = np.exp(-(gamma ** 2)) * gamma ** (2 * n) / [math.factorial(i) for i in n]
        assert np.max(np.abs(dist.probs - exact)) < 1e-14

    @pytest.mark.parametrize("lam,n_atoms", [(0.7, 4000), (1.0, 1000)])
    def test_underflowing_r00(self, lam, n_atoms):
        # p(0) = r00 is below the smallest double: exp(-1352) and exp(-923)
        state = reduced_radiation_state(DickeParams(lam=lam, n_atoms=n_atoms))
        dist = photon_distribution(state)
        assert np.min(dist.probs) >= 0.0
        assert math.fsum(dist.probs) == pytest.approx(1.0 - dist.tail_mass, abs=1e-10)
        mean = math.fsum((np.arange(dist.probs.size) * dist.probs).tolist())
        assert mean == pytest.approx(mean_photon_decomposition(state).total, rel=1e-6)

    def test_normalization_with_tail(self):
        state = reduced_radiation_state(DickeParams(lam=0.8, n_atoms=100))
        dist = photon_distribution(state)
        assert math.fsum(dist.probs) + dist.tail_mass == pytest.approx(1.0, abs=1e-8)
        assert np.min(dist.probs) > -1e-12

    def test_broadens_toward_critical(self):
        near = photon_distribution(reduced_radiation_state(DickeParams(lam=0.49)))
        far = photon_distribution(reduced_radiation_state(DickeParams(lam=0.3)))
        assert near.probs.argmax() == 0
        assert far.probs.argmax() == 0
        assert far.probs[0] > near.probs[0]

    def test_nonconverged_at_tiny_limit(self, monkeypatch):
        # the series limit shrinks to <n> + 3, far short of the resolved tail
        monkeypatch.setattr(measurements, "PN_LIMIT_SDS", 0.0)
        monkeypatch.setattr(measurements, "PN_LIMIT_FLOOR", 3)
        state = reduced_radiation_state(DickeParams(lam=0.8, n_atoms=100))
        with pytest.raises(NonConvergedSeries):
            photon_distribution(state)

    @given(
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_series_stays_normalized(self, n_th, r, gamma):
        dist = photon_distribution(dsts_state(n_th, r, gamma))
        assert np.min(dist.probs) > -1e-12
        assert math.fsum(dist.probs) + dist.tail_mass == pytest.approx(1.0, abs=1e-8)

    @given(
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_kernel_bounds(self, n_th, r, gamma):
        log_r00, t, s, _ = photon_series_inputs(dsts_state(n_th, r, gamma))
        assert math.isfinite(log_r00) and log_r00 <= math.log(2.0)
        # |B| <= A + 1 for A = (s + t)/2, B = (s - t)/2
        assert abs(s - t) <= s + t + 2.0


class TestPhotonCountingFi:
    def test_normal_phase_sandwich(self):
        params = DickeParams(lam=0.3)
        fi = fi_photon_counting(params)
        assert 0 < fi < qfi(params).qfi

    @pytest.mark.xfail(
        strict=True,
        reason="measured ratios are about 0.88 and 0.72 at these offsets: the "
        "displacement derivative splits between the two modes, capping a "
        "radiation-only counter below nine tenths of the bound",
    )
    @pytest.mark.parametrize("lam", [0.49, 0.51])
    def test_near_critical_ratio(self, lam):
        params = DickeParams(lam=lam, n_atoms=100)
        assert fi_photon_counting(params) / qfi(params).qfi >= 0.9

    def test_coherent_family_oracle(self):
        # gamma(lam) = 2 lam: Poisson FI is 4 (dgamma/dlam)^2 = 16 exactly
        state = GaussianState(np.array([2 * 0.7 * np.sqrt(2.0), 0.0]), np.eye(2) / 2)
        fi, _ = fi_photon_counting_family(state, np.array([2 * np.sqrt(2.0), 0.0]), np.zeros((2, 2)))
        assert fi == pytest.approx(16.0, rel=1e-9)

    def test_thermal_family_oracle(self):
        # n(lam) = lam^2: FI = (dn)^2 / (n (1 + n))
        state = GaussianState(np.zeros(2), (0.9 ** 2 + 0.5) * np.eye(2))
        fi, _ = fi_photon_counting_family(state, np.zeros(2), 2 * 0.9 * np.eye(2))
        exact = (2 * 0.9) ** 2 / (0.81 * 1.81)
        assert fi == pytest.approx(exact, rel=1e-9)

    def test_squeezed_family_oracle(self):
        # squeezed vacuum in r: d log p(2m) = 2m / (sinh r cosh r) - tanh r and
        # Var(n) = 2 sinh^2 r cosh^2 r give FI = 2 for every r.  p vanishes at
        # every odd n, and the mass cutoff alone (n = 50 at r = 0.8) leaves
        # 8e-8 of this FI in the tail
        for r in (0.8, 1.5):
            state = GaussianState(np.zeros(2), np.diag([np.exp(2 * r), np.exp(-2 * r)]) / 2)
            dcov = np.diag([np.exp(2 * r), -np.exp(-2 * r)])
            fi, _ = fi_photon_counting_family(state, np.zeros(2), dcov)
            assert fi == pytest.approx(2.0, rel=1e-9), r

    def test_fi_tail_looks_past_zero_terms(self):
        # terms of squeezed-vacuum shape: zero at every odd n, the even ones
        # falling by 0.6 per pair; ending on a zero must not end the sum
        def terms(n_max):
            n = np.arange(n_max + 1)
            return np.where(n % 2 == 0, 0.6 ** (n / 2), 0.0)

        fi = math.fsum(terms(400).tolist())
        short = terms(21)
        more = _fi_tail_terms(short, fi, PN_TAIL_TOL)
        assert more > 0
        longer = terms(21 + more)
        assert _fi_tail_terms(longer, fi, PN_TAIL_TOL) == 0
        assert fi - math.fsum(longer.tolist()) <= PN_TAIL_TOL * fi

    def test_derivative_leaving_the_family_rejected(self):
        state = GaussianState(np.zeros(2), np.eye(2) / 2)
        with pytest.raises(UnphysicalStateError):
            fi_photon_counting_family(state, np.zeros(2), np.array([[0.0, 0.1], [0.1, 0.0]]))

    @pytest.mark.parametrize(
        "lam,n_atoms", [(0.3, 100), (0.49, 100), (0.51, 100), (1.5, 100), (1.0, 1000), (0.7, 4000)]
    )
    def test_derivative_filter_matches_difference_quotient(self, lam, n_atoms):
        # dp(n) of the kernel filter against a central difference of the series
        # at one fixed cutoff; at N = 4000, lam = 0.7 p(0) underflows
        params = DickeParams(lam=lam, n_atoms=n_atoms)
        state = reduced_radiation_state(params)
        center = photon_distribution(state)
        sd = state_derivative(params)
        dp = _pn_derivative(state, sd.dmean[0, :2], sd.dcov[0, :2, :2], center.probs)

        def probs_at(x):
            side = reduced_radiation_state(DickeParams(lam=x, n_atoms=n_atoms))
            return photon_distribution(side, n_max=center.n_max).probs

        h = 1e-6 * abs(lam - params.lambda_c)
        quotient = (probs_at(lam + h) - probs_at(lam - h)) / (2 * h)
        bulk = center.probs >= 1e-6 * np.max(center.probs)
        assert np.max(np.abs(dp - quotient)[bulk]) <= 1e-6 * np.max(np.abs(quotient[bulk]))

    def test_shared_cutoff_reported(self):
        # at the reported cutoff both the mass and the FI are resolved; at
        # N = 100, lam = 0.495 a cutoff of 10 <n> + 50 left 1.3e-8 of the FI
        for lam, n_atoms in ((0.45, 100), (0.495, 100), (0.55, 100), (1.0, 1000)):
            params = DickeParams(lam=lam, n_atoms=n_atoms)
            fi, n_max = fi_photon_counting_from_jet(state_derivative(params), 0)
            state = reduced_radiation_state(params)
            assert photon_distribution(state, n_max=n_max).tail_mass < PN_TAIL_TOL
            sd = state_derivative(params)
            longer = photon_distribution(state, n_max=2 * n_max).probs
            dp = _pn_derivative(state, sd.dmean[0, :2], sd.dcov[0, :2, :2], longer)
            keep = longer >= FI_TERM_FLOOR
            assert fi == pytest.approx(math.fsum((dp[keep] ** 2 / longer[keep]).tolist()), rel=1e-10)

    def test_cutoffs_stay_near_the_resolved_tail(self):
        # work guard: the mass cutoffs summed over these states were 7775
        # when the series learned to stop at its resolved mass, each the
        # first n whose tail is below 1e-10; the FI cutoffs summed to 8454
        mass_total = fi_total = 0
        for n_atoms in (100, 1000, 10_000):
            for x in (0.5, 0.9, 0.99, 1.01, 1.1, 1.5):
                params = DickeParams(lam=0.5 * x, n_atoms=n_atoms)
                mass_total += photon_distribution(reduced_radiation_state(params)).n_max
                fi_total += fi_photon_counting_from_jet(state_derivative(params), 0)[1]
        assert mass_total <= 1.1 * 7775
        assert fi_total <= 1.1 * 8454
