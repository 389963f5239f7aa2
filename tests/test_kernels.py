"""The photon-number recurrence and its derivative filter against oracles and closed forms."""
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from dicke_metrology import _kernels, measurements
from dicke_metrology.dicke import DickeParams, moment_jet, reduced_radiation_state
from dicke_metrology.errors import NonConvergedSeries, UnphysicalStateError
from dicke_metrology.measurements import fi_photon_counting_from_jet, photon_distribution
from oracles import (
    ThreeValueSeries,
    log_form_probs,
    photon_fi_row_two_pass,
    photon_number_moments,
    photon_series_inputs,
    pn_derivative,
)

_LOG4 = math.log(4.0)

# inputs covering every branch: displaced thermal-squeezed (t > 0),
# anti-squeezed with displacement (t < 0), pure coherent (t = 0),
# squeezed vacuum (c = 0, s < 0), thermal (t = s, c = 0), near-critical sizes
BRANCH_CASES = [
    (0.8, 0.3, 0.1, 0.7, 60),
    (0.9, -0.3, 0.2, 0.5, 60),
    (0.6, 0.0, 0.0, 1.0, 40),
    (1.1, 0.5, -0.5, 0.0, 80),
    (0.5, 0.5, 0.5, 0.0, 80),
    (0.2, 0.97, 0.1, 2.0, 400),
    (0.4, -0.8, 0.6, 1.5, 300),
]


# reference oracle: the O(n^2) log-domain convolution of the two factors of
# the generating function, exact fsum per n.  For each n, p(n) = r00 sum_k
# T2(k) T1(n-k), where T2 carries the central binomial coefficients of
# (1 - s z)^{-1/2} and T1 collapses to scaled Hermite values: for t > 0 the
# argument is imaginary and the even-order values reduce to an all-positive
# recurrence, for t < 0 they are ordinary (sign-alternating) Hermite values,
# and at t = 0 the factor degenerates to powers c^{2m}/m!.  Everything is a
# (log magnitude, sign) pair so the Hermite growth never overflows.


def _hermite_even_logs(w: float, sgn: float, n_pairs: int):
    """Log magnitudes and signs of h_{2j}, j = 0..n_pairs, for the recurrence
    h_{m+1} = 2 w h_m + sgn 2 m h_{m-1}, h_0 = 1, h_1 = 2w.

    sgn = +1 gives the all-positive reduction of Hermite values at imaginary
    argument iw; sgn = -1 gives ordinary Hermite polynomials at w.
    """
    lh = np.zeros(n_pairs + 1)
    sh = np.ones(n_pairs + 1)
    if n_pairs == 0:
        return lh, sh
    l2w = math.log(2.0 * w) if w > 0.0 else -math.inf
    la, sa = 0.0, 1.0
    lb, sb = l2w, (1.0 if w > 0.0 else 0.0)
    for m in range(1, 2 * n_pairs):
        t1l, t1s = l2w + lb, sb
        t2l, t2s = math.log(2.0 * m) + la, sgn * sa
        if t1s == 0.0 or t1l == -math.inf:
            lc, sc = t2l, t2s
        elif t2s == 0.0 or t2l == -math.inf:
            lc, sc = t1l, t1s
        else:
            if t1l < t2l:
                t1l, t1s, t2l, t2s = t2l, t2s, t1l, t1s
            d = math.exp(t2l - t1l)
            if t1s == t2s:
                lc, sc = t1l + math.log1p(d), t1s
            elif d >= 1.0:
                lc, sc = -math.inf, 0.0
            else:
                lc, sc = t1l + math.log1p(-d), t1s
        la, sa = lb, sb
        lb, sb = lc, sc
        if (m + 1) % 2 == 0:
            j = (m + 1) // 2
            lh[j] = lb
            sh[j] = sb
    return lh, sh


def _branch_logs(t: float, s: float, c: float, n_max: int):
    """(log|T1|, sign T1, log|T2|, sign T2) arrays for indices 0..n_max."""
    m = np.arange(n_max + 1)
    lfact = gammaln(m + 1.0)
    if t == 0.0:
        if c > 0.0:
            lt1 = 2.0 * m * math.log(c) - lfact
        else:
            lt1 = np.full(n_max + 1, -np.inf)
            lt1[0] = 0.0
        st1 = np.ones(n_max + 1)
    else:
        at = abs(t)
        lh, st1 = _hermite_even_logs(c / math.sqrt(at), 1.0 if t > 0.0 else -1.0, n_max)
        lt1 = m * (math.log(at) - _LOG4) + lh - lfact
    if s == 0.0:
        lt2 = np.full(n_max + 1, -np.inf)
        lt2[0] = 0.0
        st2 = np.ones(n_max + 1)
    else:
        lt2 = gammaln(2.0 * m + 1.0) - 2.0 * lfact + m * (math.log(abs(s)) - _LOG4)
        st2 = np.ones(n_max + 1) if s > 0.0 else np.where(m % 2 == 0, 1.0, -1.0)
    return lt1, st1, lt2, st2


def pn_series_numpy(r00: float, t: float, s: float, c: float, n_max: int) -> np.ndarray:
    """Reference evaluation: vectorized term logs, exact fsum per n."""
    lt1, st1, lt2, st2 = _branch_logs(t, s, c, n_max)
    lr = math.log(r00)
    out = np.zeros(n_max + 1)
    for n in range(n_max + 1):
        lg = lt2[: n + 1] + lt1[n::-1]
        sg = st2[: n + 1] * st1[n::-1]
        mask = (sg != 0.0) & (lg > -np.inf)
        if not mask.any():
            continue
        lmax = float(np.max(lg[mask]))
        ssum = math.fsum((sg[mask] * np.exp(lg[mask] - lmax)).tolist())
        if ssum != 0.0:
            out[n] = math.copysign(math.exp(lr + lmax + math.log(abs(ssum))), ssum)
    return out


# radiation states of the Dicke ground state on both sides of lambda_c = 0.5,
# near and far from it
PHYSICAL_CASES = [(0.1, 100), (0.45, 100), (0.49, 100), (0.55, 100), (1.5, 100), (0.7, 10), (2.0, 1)]
# the cutoffs these states were checked out to when photon_distribution
# started at 10 <n> + 50, 3 to 12 times past their resolved tails; kept so
# that the checks reach as far into the tail as before
DEEP_CUTOFFS = {
    (0.1, 100): 50, (0.45, 100): 51, (0.49, 100): 56, (0.55, 100): 147,
    (1.5, 100): 2272, (0.7, 10): 86, (2.0, 1): 89, (1.0, 1000): 9425,
}


def _agree(a, b, rtol=1e-12):
    scale = np.max(np.abs(a))
    assert np.max(np.abs(a - b)) < rtol * max(scale, 1e-30)


def _radiation_series_inputs(lam, n_atoms):
    state = reduced_radiation_state(DickeParams(lam=lam, n_atoms=n_atoms))
    n_max = DEEP_CUTOFFS[lam, n_atoms]
    assert n_max > photon_distribution(state).n_max
    return *photon_series_inputs(state), n_max


@pytest.mark.parametrize("r00,t,s,c,n_max", BRANCH_CASES)
def test_recurrence_matches_convolution(r00, t, s, c, n_max):
    _agree(pn_series_numpy(r00, t, s, c, n_max), _kernels.pn_series(math.log(r00), t, s, c, n_max))


@pytest.mark.parametrize("lam,n_atoms", PHYSICAL_CASES)
def test_recurrence_matches_convolution_on_radiation_states(lam, n_atoms):
    log_r00, t, s, c, n_max = _radiation_series_inputs(lam, n_atoms)
    out = _kernels.pn_series(log_r00, t, s, c, n_max)
    # the convolution's term logs carry rounding of eps |log term|, which
    # reaches 1.6e-11 of max p at lam = 1.5 (<n> ~ 220)
    _agree(pn_series_numpy(math.exp(log_r00), t, s, c, n_max), out, rtol=1e-10)
    assert np.min(out) >= 0.0


def _recurrence_exactly(log_r00, t, s, c, n_max):
    """p(0..n_max) of the recurrence run at mpmath's working precision from
    the double inputs, as mpf values."""
    t, s, c2 = mpmath.mpf(t), mpmath.mpf(s), mpmath.mpf(c) ** 2
    a1, a2, a3 = -(s + 2 * t), t * t + 2 * s * t, -s * t * t
    q0, q1, q2 = (s + t) / 2 + c2, -(3 * s * t / 2 + t * t / 2 + c2 * s), s * t * t
    p0, p1, p2 = mpmath.exp(log_r00), 0, 0
    out = [p0]
    for n in range(n_max):
        p0, p1, p2 = ((q0 - a1 * n) * p0 + (q1 - a2 * (n - 1)) * p1 + (q2 - a3 * (n - 2)) * p2) / (n + 1), p0, p1
        out.append(p0)
    return out


def _recurrence_60_digits(log_r00, t, s, c, n_max):
    return np.array([float(p) for p in _recurrence_exactly(log_r00, t, s, c, n_max)])


@pytest.mark.parametrize("lam,n_atoms", [(1.5, 100), (1.0, 1000)])
def test_forward_evaluation_is_stable(lam, n_atoms):
    # rounding in double precision does not grow along n, out to n_max 9425
    # where r00 = exp(-923) underflows
    args = _radiation_series_inputs(lam, n_atoms)
    with mpmath.workdps(60):
        exact = _recurrence_60_digits(*args)
    out = _kernels.pn_series(*args)
    _agree(exact, out)
    bulk = exact > 1e-8 * np.max(exact)
    assert np.max(np.abs(out[bulk] / exact[bulk] - 1.0)) < 1e-12


# radiation tables whose series run as one scaled run, and two that
# renormalise: r00 = exp(-923) at N = 1000, lam = 1, and exp(-3381) at
# N = 10^4, lam = 0.7, whose first runs have no normal double as their scale
PROBS_CASES = [(0.1, 100), (0.3, 100), (0.49, 100), (0.51, 100), (2.0, 100), (0.6, 1000), (0.51, 10**4),
               (1.0, 1000), (0.7, 10**4)]


def _stopped_series(lam, n_atoms):
    """The series of the radiation mode's p(n) table, run to its mass cutoff."""
    series = _kernels.PnSeries(*photon_series_inputs(reduced_radiation_state(DickeParams(lam=lam, n_atoms=n_atoms))))
    assert series.extend(10**6, measurements.PN_TAIL_TOL)
    return series


def _scaled_exactly(series):
    """Each scaled value v of the series times its run's scale exp(log r00 + e ln 2),
    at mpmath's working precision: the exact result of `probs`' own step."""
    stops = [i for i, _ in series._scales[1:]] + [series.n_max + 1]
    ln2 = mpmath.log(2)
    return [
        mpmath.mpf(v) * mpmath.exp(series._log_r00 + e * ln2)
        for (start, e), stop in zip(series._scales, stops)
        for v in series._vals[start:stop]
    ]


def _max_relative_error(probs, exact):
    """The largest |p / exact - 1| over the entries whose exact value is a normal double."""
    errors = (abs(mpmath.mpf(p) / x - 1) for p, x in zip(probs.tolist(), exact) if abs(x) >= sys.float_info.min)
    return float(max(errors, default=0))


@pytest.mark.parametrize("lam,n_atoms", PROBS_CASES)
def test_probs_scale_each_run_at_least_as_closely_as_the_log_form(lam, n_atoms):
    # against the recurrence run at 50 digits, both forms read its own
    # rounding (up to 2.9e-13 here), and which of the two lies closer to it on
    # a short table is a matter of one rounding; against the exact scaling of
    # the same scaled values the step itself shows: one rounding of exp(L) and
    # one of the product, where the log form adds roundings relative to log|v|
    series = _stopped_series(lam, n_atoms)
    with mpmath.workdps(50):
        exact = _scaled_exactly(series)
        error = _max_relative_error(series.probs(), exact)
        assert error <= _max_relative_error(log_form_probs(series), exact)
        if len(series._scales) == 1:
            # log r00 itself is the scale's exponent: two roundings, each at most an ulp
            assert error <= 2.0**-51


@pytest.mark.parametrize("lam,n_atoms", PROBS_CASES)
def test_probs_against_a_50_digit_run_of_the_recurrence(lam, n_atoms):
    series = _stopped_series(lam, n_atoms)
    with mpmath.workdps(50):
        exact = _recurrence_exactly(series._log_r00, *series._inputs, series.n_max)
        # the recurrence's own rounding, which both forms read: up to 2.9e-13
        # here (N = 10^4, lam = 0.7), and 1e-12 near lambda_c
        assert _max_relative_error(series.probs(), exact) < 1e-12


@pytest.mark.parametrize("log_r00", [-699.0, -701.0])
def test_probs_on_either_side_of_the_normal_scale(log_r00):
    # exp(-699) is a normal double and the run is scaled by one multiply;
    # exp(-701) is one too, but past the margin the run keeps the log form
    series = _kernels.PnSeries(log_r00, 0.5, 0.5, 0.0)  # thermal, p(n) = r00 2^-n
    series.extend(60)
    if log_r00 > -700.0:
        with mpmath.workdps(50):
            assert _max_relative_error(series.probs(), _scaled_exactly(series)) <= 2.0**-51
    else:
        assert np.array_equal(series.probs(), log_form_probs(series))


@pytest.mark.parametrize("log_r00", [math.log(1.25), 699.0, 705.0])
def test_a_negative_scaled_value_trips_the_breakdown_check(log_r00):
    # below the vacuum bound p(n) = r00 (-1/4)^n: p(1) < 0 in a run scaled by
    # one multiply (r00 = 5/4, e^699) and in one that keeps the log form
    # (e^705 is finite, but past the normal-scale margin)
    _, t, s, c = measurements._series_inputs(0.3, 0.3, 0.0)
    series = _kernels.PnSeries(log_r00, t, s, c)
    series.extend(3)
    probs = series.probs()
    assert probs[1] < 0.0 < probs[2]
    with pytest.raises(UnphysicalStateError, match=r"photon series broke down: p\(n\) = -"):
        measurements._check_breakdown(probs)


# radiation states whose series renormalise along the way (r00 underflows at
# N = 1000 and 4000) and ones that do not
STOP_CASES = PHYSICAL_CASES + [(1.0, 1000), (0.7, 4000)]


@pytest.mark.parametrize("lam,n_atoms", STOP_CASES)
@pytest.mark.parametrize("tail_tol", [1e-6, 1e-10])
def test_early_stop_is_a_prefix_of_the_longer_series(lam, n_atoms, tail_tol):
    state = reduced_radiation_state(DickeParams(lam=lam, n_atoms=n_atoms))
    args = photon_series_inputs(state)
    stopped = _kernels.pn_series(*args, 10**6, tail_tol)
    longer = _kernels.pn_series(*args, 2 * len(stopped) + 10)
    assert np.array_equal(stopped, longer[: len(stopped)])
    # it stops at the first n whose summed mass reaches 1 - tail_tol
    tails = 1.0 - np.cumsum(longer)
    n = len(stopped) - 1
    assert tails[n] <= tail_tol * (1 + 1e-4)
    assert n == 0 or tails[n - 1] > tail_tol * (1 - 1e-4)


@pytest.mark.parametrize("lam,n_atoms", [(1.5, 100), (1.0, 1000), (0.7, 4000)])
def test_series_resumes_with_the_same_bits(lam, n_atoms):
    state = reduced_radiation_state(DickeParams(lam=lam, n_atoms=n_atoms))
    args = photon_series_inputs(state)
    series = _kernels.PnSeries(*args)
    assert series.extend(10**6, 1e-3)
    start = series.n_max
    whole = _kernels.pn_series(*args, start + 2000)
    for n_max in (start, start + 1, start + 7, start + 400, start + 2000):
        assert not series.extend(n_max)
        assert series.n_max == n_max
        assert np.array_equal(series.probs(), whole[: n_max + 1])


def test_mass_stop_counts_the_mass_before_a_renormalisation():
    # Poisson with mean 928 from p(0) = exp(-928): the running scale steps up
    # at n = 878, where p(n) = 3.4e-3, after 4.8% of the mass, which the stop
    # must still count
    mean = 928.0
    args = (-mean, 0.0, 0.0, math.sqrt(mean))
    stopped = _kernels.pn_series(*args, 10**4, 1e-10)
    longer = _kernels.pn_series(*args, 2000)
    tails = 1.0 - np.cumsum(longer)
    n = len(stopped) - 1
    assert tails[n] <= 1e-10 * (1 + 1e-4) and tails[n - 1] > 1e-10 * (1 - 1e-4)


def test_extend_reports_an_unreached_mass():
    series = _kernels.PnSeries(math.log(0.5), 0.5, 0.5, 0.0)  # thermal, <n> = 1
    assert not series.extend(5, 1e-10)
    assert series.n_max == 5
    assert series.extend(10**4, 1e-10)
    assert 1.0 - math.fsum(series.probs().tolist()) < 1e-10


# an arbitrary direction in (log r00, t, s, c)
PATH_DIRECTION = (0.3, 0.05, -0.04, 0.2)


def _normalised(t, s, c):
    """Series inputs whose p(n) sum to 1: r00 = sqrt((1 - s)(1 - t)) exp(-c^2 / (1 - t))."""
    return 0.5 * math.log1p(-s) + 0.5 * math.log1p(-t) - c * c / (1.0 - t), t, s, c


@st.composite
def _squeezed_vacua(draw):
    # p(2m) ~ t^(2m), zero at every odd n, run past 1e-200 by up to 2.5 times
    t = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.01, 0.6))
    crossing = 200.0 * math.log(10.0) / -math.log(abs(t))
    return _normalised(t, -t, 0.0), math.ceil(crossing * draw(st.floats(1.05, 2.5))), None, 1.0


@st.composite
def _near_vacua(draw):
    # t, s and c of ~1e-146: each term falls by ~1e-146, so the values leave
    # the band downward every few terms, and some underflow to 0.0.  t and s
    # share a sign, so p(1) ~ (s + t)/2 does not cancel, and the slopes are
    # those of a coupling lam ~ sqrt(t), as t ~ lam^2 near the vacuum: a
    # step of 1e-308 between two values, or slopes of 1, would take the
    # filter's history out of the double range at a renormalisation, where
    # the walk raises
    exponent = draw(st.floats(-155.0, -135.0))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    t, s, c = (10.0 ** (exponent + draw(st.floats(-2.0, 2.0))) for _ in range(3))
    inputs = (0.0, sign * t, sign * s, draw(st.sampled_from([-c, c])))
    return inputs, draw(st.integers(2, 80)), None, 10.0 ** (0.5 * exponent)


@st.composite
def _displaced(draw):
    # the scaled values start at 1 and peak near exp(c^2 / (1 - t)), here
    # e^480 to e^2300, so they rise past 1e200 ~ e^460 up to five times
    # before the mass stop
    t, s = draw(st.floats(-0.3, 0.3)), draw(st.floats(-0.5, 0.5))
    return _normalised(t, s, draw(st.floats(25.0, 40.0))), 10**5, 1e-10, 1.0


@st.composite
def _mixed(draw):
    # thermal, coherent and squeezed-thermal states, to the mass stop or a fixed cutoff
    t, s = draw(st.floats(-0.95, 0.95)), draw(st.floats(-0.95, 0.95))
    c = draw(st.sampled_from([0.0, draw(st.floats(0.0, 5.0))]))
    tail_tol = draw(st.sampled_from([None, 1e-10, 1e-3]))
    return _normalised(t, s, c), draw(st.integers(0, 2000)), tail_tol, 1.0


SVAC_005 = (_normalised(0.05, -0.05, 0.0), 400, None, 1.0)
# subnormal s: p(1) = s/2 ~ 1e-311 after p(0) = 1, and p(2) = p(3) = 0, so
# the run that starts at n = 3 is scaled by 2^1032 and p(0) has no double there
SUBNORMAL_DROP = ((-1.1125369292535e-311, 0.0, 2.225073858507e-311, 0.0), 3, None, 1.0)


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def _walked(fisher):
    """walk()'s result and the bits of all terms so far, or the error it raises."""
    try:
        return fisher.walk(), _bits(fisher.terms)
    except NonConvergedSeries as exc:
        return type(exc), str(exc)


@given(
    case=st.one_of(_squeezed_vacua(), _near_vacua(), _displaced(), _mixed()),
    split=st.floats(0.0, 1.0),
    slopes=st.tuples(*[st.floats(-1.0, 1.0)] * 4),
)
@example(case=SVAC_005, split=0.5, slopes=PATH_DIRECTION)
@example(case=SUBNORMAL_DROP, split=0.0, slopes=(0.0, 0.0, 0.0, 0.0))
@settings(max_examples=150, deadline=None)
def test_band_test_on_the_new_value_decides_as_the_three_value_test(case, split, slopes):
    # the two-stage band test of `PnSeries.extend` against its former loop,
    # which tested the largest of the three live values on every term; both
    # extended in two calls, each followed by a walk of the FI terms, which
    # give the same terms or raise the same error
    inputs, n_max, tail_tol, slope_scale = case
    series, oracle = _kernels.PnSeries(*inputs), ThreeValueSeries(*inputs)
    slopes = [slope_scale * x for x in slopes]
    terms, oracle_terms = (
        _kernels.FisherTerms(x, *slopes, measurements.FI_TERM_FLOOR, measurements._BREAKDOWN)
        for x in (series, oracle)
    )
    for stop in (int(split * n_max), n_max):
        assert series.extend(stop, tail_tol) == oracle.extend(stop, tail_tol)
        assert _bits(series._vals) == _bits(oracle._vals)
        assert series._scales == oracle._scales
        assert _bits(series._live + (series._banked, series._run_mass)) == _bits(
            oracle._live + (oracle._banked, oracle._run_mass)
        )
        walked = _walked(terms)
        assert walked == _walked(oracle_terms)
        if walked[0] is NonConvergedSeries:
            return


def test_a_history_with_no_double_in_the_new_scale_raises_a_domain_error():
    # p(0) = 1 in a run scaled by 2^1032: a status for the CLI, not an OverflowError
    inputs, n_max, _, _ = SUBNORMAL_DROP
    series = _kernels.PnSeries(*inputs)
    series.extend(n_max)
    assert series._scales == [(0, 0), (3, -1032)]
    terms = _kernels.FisherTerms(series, 0.0, 0.0, 0.0, 0.0, measurements.FI_TERM_FLOOR, measurements._BREAKDOWN)
    with pytest.raises(NonConvergedSeries, match="double range"):
        terms.walk()


def test_squeezed_vacuum_renormalises_where_all_three_values_leave_the_band():
    # p = 0 at every odd n: a test of |p(n)| alone would renormalise at
    # n = 143 and 299, where p(n), 0 up to rounding, lies below the band
    # but p(n-1) still lies inside it
    inputs, n_max, _, _ = SVAC_005
    series = _kernels.PnSeries(*inputs)
    series.extend(n_max)
    assert [n for n, _ in series._scales] == [0, 155, 309]


@pytest.mark.parametrize("r00,t,s,c,n_max", BRANCH_CASES)
def test_derivative_filter_along_a_straight_path(r00, t, s, c, n_max):
    dl, dt, ds, dc = PATH_DIRECTION

    def series(h):
        return _kernels.pn_series(math.log(r00) + h * dl, t + h * dt, s + h * ds, c + h * dc, n_max)

    h = 1e-6
    quotient = (series(h) - series(-h)) / (2 * h)
    dp = pn_derivative(series(0.0), dl, t, dt, s, ds, c, dc)
    _agree(quotient, dp, rtol=1e-6)
    # only c^2 and c dc enter
    assert np.array_equal(dp, pn_derivative(series(0.0), dl, t, dt, s, ds, -c, -dc))


def _fi_row_args(lam, n_atoms):
    """<n>, series limit, series inputs and their coupling derivatives of the
    photon-counting FI row of the radiation mode at resonance."""
    jet = moment_jet([lam], 1.0, 1.0, n_atoms)
    mean, cov, dmean, dcov = jet.mean[0, :2], jet.cov[0, :2, :2], jet.dmean[0, :2], jet.dcov[0, :2, :2]
    mean_n, var_n = photon_number_moments(mean, cov)
    moments = float(cov[0, 0]), float(cov[1, 1]), float(mean[0])
    slopes = measurements._series_derivatives(*moments, float(dcov[0, 0]), float(dcov[1, 1]), float(dmean[0]))
    return float(mean_n), measurements._series_limit(mean_n, var_n), measurements._series_inputs(*moments), slopes


# the rows where a term written S y^2 / v overflows (y^2 past the double
# range): deep superradiant, with p(0) underflowing at N = 1000 and 10^4
OVERFLOW_CASES = [(1.0, 1000), (1.0, 10_000), (2.0, 100)]
# rows whose series renormalises inside the run of terms above the p(n)
# floor (at n = 411 of 371..776 and at n = 758 of 729..1190)
BULK_RENORMALISED_CASES = [(0.6, 3000), (1.55, 400)]


@pytest.mark.parametrize("lam,n_atoms", STOP_CASES + OVERFLOW_CASES[1:] + BULK_RENORMALISED_CASES)
def test_one_pass_fi_is_the_filtered_sum(lam, n_atoms):
    # the FI of one pass of the filter over the scaled runs against sum dp^2 / p
    # of the unscaled p(n), filtered whole each round, at the same cutoff
    [(fi, n_max)] = fi_photon_counting_from_jet(moment_jet([lam], 1.0, 1.0, n_atoms))
    fi_oracle, n_max_oracle = photon_fi_row_two_pass(*_fi_row_args(lam, n_atoms))
    assert n_max == n_max_oracle
    assert math.isfinite(fi) and fi == pytest.approx(fi_oracle, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lam,n_atoms", [(0.45, 100), (1.5, 100), (0.7, 4000)] + OVERFLOW_CASES)
def test_fi_terms_resume_with_the_same_bits(lam, n_atoms, monkeypatch):
    # no FI margin: the row needs several tail rounds, each walking on from the
    # last; its sum has the bits of one walk over the final cutoff
    mean_n, limit, inputs, slopes = args = _fi_row_args(lam, n_atoms)
    walks = []
    walk = _kernels.FisherTerms.walk
    monkeypatch.setattr(measurements, "FI_MARGIN", 0.0)
    monkeypatch.setattr(_kernels.FisherTerms, "walk", lambda self: walks.append(len(self.terms)) or walk(self))
    fi, n_max = measurements._photon_fi_row(*args)
    assert len(walks) > 1
    monkeypatch.undo()
    series = _kernels.PnSeries(*inputs)
    series.extend(n_max)
    once = _kernels.FisherTerms(series, *slopes, measurements.FI_TERM_FLOOR, measurements._BREAKDOWN)
    once.walk()
    assert len(once.terms) == n_max + 1
    assert math.fsum(once.terms) == fi


def test_fi_pass_reports_a_broken_series():
    # a covariance below the vacuum bound: p(n) = r00 (-1/4)^n with r00 = 5/4,
    # whose mass is reached at n = 0 and whose p(1) is negative; the row is
    # fed by hand, as `_photon_fi_stack` refuses the mode before any series
    mean_n, var_n = (float(x) for x in photon_number_moments(np.zeros(2), np.diag([0.3, 0.3])))
    inputs = measurements._series_inputs(0.3, 0.3, 0.0)
    slopes = measurements._series_derivatives(0.3, 0.3, 0.0, 0.1, 0.1, 0.0)
    with pytest.raises(UnphysicalStateError, match=r"broke down: p\(n\) = -3\.125e-01"):
        measurements._photon_fi_row(mean_n, measurements._series_limit(mean_n, var_n), inputs, slopes)


class TestClosedForms:
    def test_vacuum(self):
        out = _kernels.pn_series(math.log(1.0), 0.0, 0.0, 0.0, 5)
        assert out[0] == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(out[1:])) < 1e-15

    def test_thermal_geometric(self):
        # sigma = n + 1/2 on both axes: t = s = n/(n+1), c = 0, r00 = 1/(n+1)
        n_th = 1.4
        t = n_th / (n_th + 1.0)
        out = _kernels.pn_series(math.log(1.0 / (n_th + 1.0)), t, t, 0.0, 30)
        n = np.arange(31)
        exact = n_th ** n / (1.0 + n_th) ** (n + 1)
        assert np.max(np.abs(out - exact)) < 1e-15

    def test_coherent_poisson(self):
        gamma = 1.1
        out = _kernels.pn_series(math.log(math.exp(-gamma ** 2)), 0.0, 0.0, gamma, 25)
        exact = [math.exp(-gamma ** 2) * gamma ** (2 * k) / math.factorial(k) for k in range(26)]
        assert np.max(np.abs(out - np.array(exact))) < 1e-15

    def test_squeezed_vacuum(self):
        # sigma_x = e^{2r}/2: t = tanh(r), s = -tanh(r), r00 = 1/cosh(r)
        r = 0.7
        th = math.tanh(r)
        out = _kernels.pn_series(math.log(1.0 / math.cosh(r)), th, -th, 0.0, 20)
        for m in (0, 2, 5):
            exact = (
                math.factorial(2 * m)
                * th ** (2 * m)
                / (4 ** m * math.factorial(m) ** 2 * math.cosh(r))
            )
            assert out[2 * m] == pytest.approx(exact, rel=1e-13)
            assert abs(out[2 * m + 1]) < 1e-16

    def test_n_max_zero(self):
        out = _kernels.pn_series(math.log(0.7), 0.2, 0.1, 0.4, 0)
        assert out.shape == (1,)
        assert out[0] == pytest.approx(0.7, abs=1e-15)

    def test_large_cutoff_no_overflow(self):
        # strongly squeezed displaced state: the raw Hermite magnitudes pass
        # 1e300 near m = 150, so only the log-magnitude path survives
        sx, sp, mx = 200.0, 1.0 / (4.0 * 200.0), 20.0
        dx, dp = 1.0 + 2.0 * sx, 1.0 + 2.0 * sp
        r00 = 2.0 * math.exp(-mx * mx / dx) / math.sqrt(dx * dp)
        t = (2.0 * sx - 1.0) / dx
        s = (2.0 * sp - 1.0) / dp
        c = math.sqrt(2.0) * mx / dx
        out = _kernels.pn_series(math.log(r00), t, s, c, 6000)
        assert np.all(np.isfinite(out))
        assert np.min(out) > -1e-12
        assert math.fsum(out.tolist()) == pytest.approx(1.0, abs=1e-9)
