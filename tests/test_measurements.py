"""Tests for homodyne and photon-counting Fisher information."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dicke_metrology import measurements
from dicke_metrology.dicke import DickeParams, MomentJet, derive, ground_state, moment_jet, reduced_radiation_state
from dicke_metrology.errors import NonConvergedSeries, UnphysicalStateError
from dicke_metrology.estimation import qfi, state_derivative
from dicke_metrology.gaussian import GaussianState, partial_trace
from dicke_metrology.measurements import (
    FI_TERM_FLOOR,
    PN_TAIL_TOL,
    HomodyneSetting,
    Target,
    _fi_tail_terms,
    dsts_params,
    fi_homodyne,
    fi_photon_counting,
    fi_photon_counting_from_jet,
    mean_photon_decomposition,
    photon_distribution,
)
from oracles import (
    fi_gauss_hermite,
    fi_photon_counting_family,
    fixed_cutoff_probs,
    photon_number_moments,
    photon_series_inputs,
    pn_derivative,
    quadrature_distribution,
    vacuum_state,
)


def state_pn_derivative(state, dmean, dcov, probs):
    """dp(n) of the series probs of state along the derivatives dmean, dcov of its moments."""
    _, t, s, c = photon_series_inputs(state)
    moments = float(state.cov[0, 0]), float(state.cov[1, 1]), float(state.mean[0])
    dlog_r00, dt, ds, dc = measurements._series_derivatives(*moments, float(dcov[0, 0]), float(dcov[1, 1]), float(dmean[0]))
    return pn_derivative(probs, dlog_r00, t, dt, s, ds, c, dc)


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
        assert mean == pytest.approx(derive(params)["alpha"] * np.sqrt(200.0), rel=1e-12)
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
        alpha = derive(params)["alpha"]
        assert d.gamma ** 2 == pytest.approx(alpha ** 2 * 100, rel=1e-12)

    def test_unphysical_rejected(self):
        state = GaussianState(np.zeros(2), np.diag([0.4, 0.4]))
        with pytest.raises(UnphysicalStateError):
            dsts_params(state)


# modes whose covariance determinant lies below the vacuum bound 1/4, or is
# nan, which passed the bound
BELOW_VACUUM = [np.diag([0.3, 0.3]), np.diag([0.45, 0.45]), np.diag([0.5, np.nan])]


def photon_fi(state: GaussianState) -> tuple[float, int]:
    """Photon-counting FI of a state along a parameter that moves nothing."""
    return fi_photon_counting_family(state, np.zeros(2), np.zeros((2, 2)))


@pytest.mark.parametrize("cov", BELOW_VACUUM, ids=["0.09", "0.2025", "nan"])
@pytest.mark.parametrize("reader", [dsts_params, mean_photon_decomposition, photon_distribution, photon_fi])
def test_readers_refuse_a_mode_below_the_vacuum_bound(reader, cov):
    # photon_distribution summed these to p(0) = 1.25 and 1.0526 with no
    # tail, and photon_fi refused them only as "photon series broke down"
    with pytest.raises(UnphysicalStateError, match="below the vacuum bound 1/4"):
        reader(GaussianState(np.zeros(2), cov))


@pytest.mark.parametrize(
    "cov,message",
    [([[1.0, 0.5], [0.5, 1.0]], "off-diagonal covariance"), (np.diag([0.3, 0.3]), "below the vacuum bound 1/4")],
    ids=["off-diagonal", "below-vacuum"],
)
@pytest.mark.parametrize("reader", [dsts_params, mean_photon_decomposition, photon_distribution, photon_fi])
def test_readers_refuse_a_mode_past_the_term_bound_alike(reader, cov, message):
    # <n> ~ 2e6 lies above PN_MAX_TERMS: photon_fi read NonConvergedSeries
    # from its series limit before the family and vacuum checks that the
    # other readers run first
    state = GaussianState(np.array([2000.0, 0.0]), cov)
    assert 0.5 * (np.trace(state.cov) + state.mean @ state.mean - 1.0) > measurements.PN_MAX_TERMS
    with pytest.raises(UnphysicalStateError, match=message):
        reader(state)


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
            probs = fixed_cutoff_probs(st, 4000)
            n = np.arange(probs.size)
            assert m == pytest.approx(mean_photon_decomposition(st).total, rel=1e-12)
            assert v == pytest.approx(float(probs @ (n - m) ** 2), rel=1e-9)


class TestPhotonDistribution:
    def test_vacuum(self):
        probs = fixed_cutoff_probs(vacuum_state(1), 10)
        assert probs[0] == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(probs[1:])) < 1e-14

    def test_thermal_geometric(self):
        n_th = 0.8
        dist = photon_distribution(GaussianState(np.zeros(2), (n_th + 0.5) * np.eye(2)))
        n = np.arange(dist.probs.size)
        exact = n_th ** n / (1 + n_th) ** (n + 1)
        assert np.max(np.abs(dist.probs - exact)) < 1e-13

    def test_squeezed_vacuum_closed_form(self):
        r = 0.6
        probs = fixed_cutoff_probs(dsts_state(0.0, r, 0.0), 40)
        for m in (0, 1, 3, 7):
            exact = (
                math.factorial(2 * m)
                * np.tanh(r) ** (2 * m)
                / (4 ** m * math.factorial(m) ** 2 * np.cosh(r))
            )
            assert probs[2 * m] == pytest.approx(exact, rel=1e-12)
            assert abs(probs[2 * m + 1]) < 1e-15

    def test_coherent_poisson(self):
        gamma = 1.2
        probs = fixed_cutoff_probs(dsts_state(0.0, 0.0, gamma), 30)
        n = np.arange(31)
        exact = np.exp(-(gamma ** 2)) * gamma ** (2 * n) / [math.factorial(i) for i in n]
        assert np.max(np.abs(probs - exact)) < 1e-14

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

    # a squeezed coherent state whose p(n) sum to 1 - 5.3e-14, within one ulp
    # of its log r00 = -346.2, and a displaced thermal one that falls short
    # by 2.6e-14, 7 ulps of its log r00 = -20.9
    WITHIN_ROUNDING = GaussianState(np.array([30.0, 0.0]), np.diag([0.8, 0.3125]))
    BEYOND_ROUNDING = GaussianState(np.array([10.0, 0.0]), np.diag([2.0, 2.0]))

    @pytest.mark.parametrize("state, within", [(WITHIN_ROUNDING, True), (BEYOND_ROUNDING, False)])
    def test_nonconverged_says_when_the_doubles_limit_the_mass(self, monkeypatch, state, within):
        log_r00 = measurements._series_inputs(state.cov[0, 0], state.cov[1, 1], state.mean[0])[0]
        monkeypatch.setattr(measurements, "PN_TAIL_TOL", math.ulp(log_r00) / 8.0)
        note = "the doubles, not the tail, limit the mass"
        for read in (
            lambda: photon_distribution(state),
            lambda: fi_photon_counting_family(state, np.array([1.0, 0.0]), np.zeros((2, 2))),
        ):
            with pytest.raises(NonConvergedSeries, match="photon series tail above") as info:
                read()
            assert (note in str(info.value)) is within
            assert (f"log r00 = {log_r00:.6e}" in str(info.value)) is within

    def test_nonconverged_near_the_term_bound_says_the_doubles_limit_the_mass(self):
        # <n> ~ 9e5: the series stops at its limit 1 - 1.27e-10 short, within
        # the 2.3e-10 of two ulps of log r00 = -9.0e5
        state = reduced_radiation_state(DickeParams(lam=30.0, n_atoms=1000))
        with pytest.raises(NonConvergedSeries, match="the doubles, not the tail, limit the mass"):
            photon_distribution(state)

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

    @given(
        st.one_of(
            st.tuples(st.floats(0.0, 2.0), st.floats(-1.0, 1.0), st.floats(-2.0, 2.0)).map(lambda d: dsts_state(*d)),
            st.tuples(
                st.sampled_from([(1.0, 1.0), (1.0, 2.0), (0.5, 3.0)]),
                st.sampled_from([1, 10, 100, 1000, 10_000]),
                st.one_of(st.floats(0.0, 0.999), st.floats(1.001, 3.0)),
            ).map(lambda m: reduced_radiation_state(DickeParams(0.5 * math.sqrt(m[0][0] * m[0][1]) * m[2], *m[0], m[1]))),
        )
    )
    @example(reduced_radiation_state(DickeParams(lam=1.0, n_atoms=10_000)))
    @settings(max_examples=80, deadline=None)
    def test_tail_mass_within_two_ulps_of_the_exact_sum(self, state):
        # the pairwise sum against the correctly rounded one, on displaced
        # squeezed thermal states and Dicke radiation states in both phases
        dist = photon_distribution(state)
        assert abs(dist.tail_mass - max(0.0, 1.0 - math.fsum(dist.probs.tolist()))) <= 2.0 * 2.0**-52

    @given(st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=6), st.booleans())
    @example([131.0, 0.001953125, 21.0, 1.0, 1.0, 1.0], False)
    @settings(max_examples=300, deadline=None)
    def test_mode_moments_have_the_bits_of_the_array_moments(self, entries, symmetric):
        # <n> and Var(n) from a state's six floats set the series limit, which
        # then cannot move: any entries, symmetric or not, in or out of the family
        if symmetric:
            entries[4] = entries[3]
        mean, cov = np.array(entries[:2]), np.array(entries[2:]).reshape(2, 2)
        floats = measurements._mode_moments(*entries)
        arrays = photon_number_moments(mean, cov)
        assert [np.float64(x).tobytes() for x in floats] == [np.float64(x).tobytes() for x in arrays]


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
        dp = state_pn_derivative(state, sd.dmean[:2], sd.dcov[:2, :2], center.probs)

        def probs_at(x):
            side = reduced_radiation_state(DickeParams(lam=x, n_atoms=n_atoms))
            return fixed_cutoff_probs(side, center.n_max)

        h = 1e-6 * abs(lam - params.lambda_c)
        quotient = (probs_at(lam + h) - probs_at(lam - h)) / (2 * h)
        bulk = center.probs >= 1e-6 * np.max(center.probs)
        assert np.max(np.abs(dp - quotient)[bulk]) <= 1e-6 * np.max(np.abs(quotient[bulk]))

    def test_shared_cutoff_reported(self):
        # at the reported cutoff both the mass and the FI are resolved; at
        # N = 100, lam = 0.495 a cutoff of 10 <n> + 50 left 1.3e-8 of the FI
        for lam, n_atoms in ((0.45, 100), (0.495, 100), (0.55, 100), (1.0, 1000)):
            params = DickeParams(lam=lam, n_atoms=n_atoms)
            [(fi, n_max)] = fi_photon_counting_from_jet(state_derivative(params))
            state = reduced_radiation_state(params)
            assert 1.0 - math.fsum(fixed_cutoff_probs(state, n_max)) < PN_TAIL_TOL
            sd = state_derivative(params)
            longer = fixed_cutoff_probs(state, 2 * n_max)
            dp = state_pn_derivative(state, sd.dmean[:2], sd.dcov[:2, :2], longer)
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
                fi_total += fi_photon_counting_from_jet(state_derivative(params))[0][1]
        assert mass_total <= 1.1 * 7775
        assert fi_total <= 1.1 * 8454


class TestPhotonFiStack:
    """The checks and series inputs run once per jet; every coupling keeps its bits."""

    @pytest.mark.parametrize("n_atoms", [100, 1000])
    def test_stack_matches_one_coupling_at_a_time(self, n_atoms):
        lams = [0.1, 0.3, 0.45, 0.49, 0.51, 0.55, 0.7, 1.0]
        batch = fi_photon_counting_from_jet(moment_jet(lams, 1.0, 1.0, n_atoms))
        alone = [fi_photon_counting_from_jet(moment_jet([lam], 1.0, 1.0, n_atoms))[0] for lam in lams]
        assert batch == alone
        assert [fi for fi, _ in batch] == [fi_photon_counting(DickeParams(lam=lam, n_atoms=n_atoms)) for lam in lams]

    def _jet(self):
        jet = moment_jet([0.2, 0.3, 0.4, 0.6], 1.0, 1.0, 100)
        return MomentJet(jet.mean.copy(), jet.cov.copy(), jet.dmean.copy(), jet.dcov.copy())

    @pytest.mark.parametrize("short", ["cov", "derivatives"])
    def test_stacks_of_different_lengths_rejected(self, short):
        # a member without its cov or its derivatives is an error, not a
        # shorter list of rows
        jet = self._jet()
        if short == "cov":
            jet = MomentJet(jet.mean, jet.cov[:3], jet.dmean, jet.dcov)
        else:
            jet = MomentJet(jet.mean, jet.cov, jet.dmean[:3], jet.dcov[:3])
        with pytest.raises(ValueError) as info:
            fi_photon_counting_from_jet(jet)
        assert type(info.value) is ValueError

    def test_derivative_outside_the_family_rejected_in_a_stack(self):
        jet = self._jet()
        jet.dcov[2, 0, 1] = jet.dcov[2, 1, 0] = 0.1
        with pytest.raises(UnphysicalStateError):
            fi_photon_counting_from_jet(jet)

    def test_asymmetric_member_rejected_in_a_stack(self):
        jet = self._jet()
        jet.cov[1, 0, 1] += 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            fi_photon_counting_from_jet(jet)


    # each refusal rule of the photon readers, in the order they run, and a
    # radiation mode (entries 0 and 1) that breaks it
    RULES = ["value family", "derivative family", "vacuum bound", "series limit"]
    EXPECTED = {
        "value family": "off-diagonal covariance",
        "derivative family": "momentum displacement",
        "vacuum bound": "below the vacuum bound",
        "series limit": "the photon series would run past",
    }

    @staticmethod
    def _stack(members):
        """A jet of `members` normal-phase couplings, whose arrays a test may change."""
        jet = moment_jet(np.linspace(0.2, 0.45, members), 1.0, 1.0, 100)
        return MomentJet(jet.mean.copy(), jet.cov.copy(), jet.dmean.copy(), jet.dcov.copy())

    @staticmethod
    def _radiation(jet):
        """The radiation stacks of a jet as `_photon_fi_stack` reads them."""
        rad = slice(0, 2)
        cov = measurements._symmetrized(jet.cov[:, rad, rad])
        return jet.mean[:, rad], cov, jet.dmean[:, rad], jet.dcov[:, rad, rad]

    @staticmethod
    def _break(jet, k, rule):
        if rule == "value family":
            jet.cov[k, 0, 1] = jet.cov[k, 1, 0] = 1e-3
        elif rule == "derivative family":
            jet.dmean[k, 1] = 0.5
        elif rule == "vacuum bound":
            jet.cov[k, 0, 0] = jet.cov[k, 1, 1] = 0.4
        else:
            jet.cov[k, 0, 0] = jet.cov[k, 1, 1] = 3e6

    @staticmethod
    def _outcome(read, *args):
        try:
            return repr(read(*args))
        except Exception as exc:  # the type and message are the outcome
            return type(exc), str(exc)

    def _member_loop(self, *stack):
        """(FI, cutoff) of each member as the per-member loop reads it."""
        return [measurements._photon_fi_row(*row) for row in measurements._member_rows(*stack)]

    # 4 members run the member loop, 16 the column pass
    @pytest.mark.parametrize("members", [4, 16])
    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("rule", RULES)
    def test_a_refused_member_raises_as_the_member_loop_does(self, rule, k, members):
        jet = self._stack(members)
        self._break(jet, k, rule)
        assert measurements._stack_rows(*self._radiation(jet)) is None
        raised = self._outcome(fi_photon_counting_from_jet, jet)
        assert raised == self._outcome(self._member_loop, *self._radiation(jet))
        alone = MomentJet(jet.mean[k], jet.cov[k], jet.dmean[k], jet.dcov[k])
        assert raised == self._outcome(fi_photon_counting_from_jet, alone)
        assert self.EXPECTED[rule] in raised[1]

    @pytest.mark.parametrize(
        "first, second, raised_by",
        [("vacuum bound", "value family", 2), ("series limit", "derivative family", 2),
         ("series limit", "vacuum bound", 0), ("vacuum bound", "series limit", 0)],
    )
    def test_the_first_failure_in_the_loop_order_raises(self, first, second, raised_by):
        # the family rules run over every member before the vacuum bound and
        # the series limit run member by member
        jet = self._stack(16)
        self._break(jet, 0, first)
        self._break(jet, 2, second)
        raised = self._outcome(fi_photon_counting_from_jet, jet)
        assert raised == self._outcome(self._member_loop, *self._radiation(jet))
        k = raised_by
        alone = MomentJet(jet.mean[k], jet.cov[k], jet.dmean[k], jet.dcov[k])
        assert raised == self._outcome(fi_photon_counting_from_jet, alone)

    @pytest.mark.parametrize("n_atoms", [1, 100, 10_000, 10**6])
    @pytest.mark.parametrize("omega, omega0", [(1.0, 1.0), (1.0, 2.0), (0.5, 3.0)])
    def test_the_column_pass_keeps_the_bits_of_the_member_loop(self, omega, omega0, n_atoms):
        lc = math.sqrt(omega * omega0) / 2.0
        ratios = [0.0, 1e-9, 0.1, 0.5, 0.9, 0.999, 0.99999, 1.00001, 1.001, 1.1, 2.0, 10.0, 1e3]
        jet = moment_jet([lc * r for r in ratios], omega, omega0, n_atoms)
        stack = self._radiation(jet)
        try:
            member_rows = measurements._member_rows(*stack)
        except NonConvergedSeries:
            # deep in the superradiant phase at large N, <n> passes PN_MAX_TERMS
            assert measurements._stack_rows(*stack) is None
            return
        rows = measurements._stack_rows(*stack)
        assert repr(rows) == repr(member_rows)
        assert all(type(limit) is int for _, limit, _, _ in rows)
        if n_atoms <= 100:
            alone = [fi_photon_counting_from_jet(moment_jet([lc * r], omega, omega0, n_atoms))[0] for r in ratios]
            assert repr(fi_photon_counting_from_jet(jet)) == repr(alone)

    @pytest.mark.parametrize(
        "mean, cov, dmean, dcov",
        [
            ([0.0, 0.0], [[math.nan, 0.0], [0.0, 0.6]], [0.0, 0.0], [[0.1, 0.0], [0.0, 0.1]]),
            ([0.0, 0.0], [[0.6, math.nan], [math.nan, 0.6]], [0.0, 0.0], [[0.1, 0.0], [0.0, 0.1]]),
            ([0.0, 0.0], [[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0], [[0.1, 0.0], [0.0, 0.1]]),
            ([0.0, 0.0], [[-0.5, 0.0], [0.0, -0.5]], [0.0, 0.0], [[0.1, 0.0], [0.0, 0.1]]),
            ([math.inf, 0.0], [[0.6, 0.0], [0.0, 0.6]], [0.0, 0.0], [[0.1, 0.0], [0.0, 0.1]]),
            ([1.0, 0.0], [[0.6, 0.0], [0.0, 0.6]], [math.inf, 0.0], [[0.1, 0.0], [0.0, 0.1]]),
            ([1.0, 0.0], [[0.6, 0.0], [0.0, 0.6]], [0.0, 0.0], [[math.inf, 0.0], [0.0, -math.inf]]),
            ([1.0, 0.0], [[0.6, 0.0], [0.0, 0.6]], [1e300, 0.0], [[1e300, 0.0], [0.0, 1e300]]),
            ([1.0, 1e-12], [[0.6, 1e-12], [1e-12, 0.6]], [0.0, 0.0], [[0.1, 0.0], [0.0, 0.1]]),
        ],
        ids=["nan-variance", "nan-off-diagonal", "negative-variances", "zero-denominator", "inf-mean",
             "inf-slope", "inf-variance-slopes", "overflowing-slopes", "inside-the-family-tolerance"],
    )
    def test_a_member_past_the_doubles_reads_as_in_the_member_loop(self, mean, cov, dmean, dcov):
        # good members on either side: the column pass sends the stack to the
        # member loop, or reads it as that loop would, with no warning
        stack = [np.array(x) for x in self._radiation(self._stack(16))]
        for array, member in zip(stack, (mean, cov, dmean, dcov)):
            array[1] = member
        symmetrized = (stack[0], measurements._symmetrized(stack[1]), stack[2], stack[3])
        assert self._outcome(measurements._photon_fi_stack, *stack) == self._outcome(self._member_loop, *symmetrized)
