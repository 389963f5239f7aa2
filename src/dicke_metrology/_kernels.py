"""Photon-number series kernel.

The distribution of a single-mode Gaussian state diagonal in x/p with an
x displacement has the generating function

    G(z) = sum_n p(n) z^n = r00 (1 - s z)^{-1/2} (1 - t z)^{-1/2} exp{c^2 z/(1 - t z)}

with t, s and c from the moments (`measurements._series_inputs`); only
c^2 enters, so the sign of c is free.
G is D-finite: multiplying G'/G through by (1 - s z)(1 - t z)^2 gives

    (n+1) p(n+1) = (q0 - a1 n) p(n) + (q1 - a2 (n-1)) p(n-1) + (q2 - a3 (n-2)) p(n-2)

with p(0) = r00, p(-1) = p(-2) = 0 and

    a1 = -(s + 2t),   a2 = t^2 + 2 s t,   a3 = -s t^2,
    q0 = (s + t)/2 + c^2,   q1 = -(3 s t/2 + t^2/2 + c^2 s),   q2 = s t^2,

so every p(n) costs a fixed handful of operations.  The characteristic roots
of the recurrence are s, t, t, all inside the unit circle for a physical
state, and for |s|, |t| < 1 the wanted solution carries the dominant
exp(2 c sqrt(n/t)) growth of the essential singularity at z = 1/t, so forward
evaluation is stable: rounding errors excite only solutions that it outgrows.

The values run scaled, starting at 1 with the scale r00; the three live
values are renormalised by a power of two 2^-e whenever their largest
magnitude leaves [1e-200, 1e200], and the scale becomes r00 2^(e1 + e2 + ...).
Each term tests only the new value against that band, and takes the largest
magnitude of the three only when the new value lies outside it (zero and
negative values included).  That is the decision of a test of all three on
every term: a value above 1e200 is renormalised at the step that makes it,
which leaves the largest live value in [0.5, 1), so the two older values
never exceed 1e200; and all three below 1e-200 puts the new one there too.
The new value alone would not do: a squeezed vacuum has p = 0 at every odd
n, where p(n-1) may still lie inside the band.
The exponents add exactly, so the log scale log r00 + (e1 + e2 + ...) ln 2
does not collect a rounding per renormalisation, which at <n> ~ 1e5 had
summed to 1e-10 of the mass.  A run becomes p(n) by one multiply, v exp(L)
for its log scale L, whenever exp(L) is a normal double (|L| < 700): one
rounding of the scale and one of the product, where sign(v) exp(log|v| + L)
adds the roundings of log|v| and of the sum, each relative to the size of
the exponent.  Only a run whose scale leaves the doubles keeps that log
form, so r00 itself may underflow; in either form entries below the
smallest double become 0.0 and nothing raises.  The running sum of p(0..n)
is kept the same way, as the mass of the values already renormalised plus
the scaled sum of the current run, so the series can stop at the first n
where it reaches 1 - tail_tol.  The recurrence runs forward, so p(0..n) do
not depend on where it stops.

Along any path of the inputs, d log G = d(log r00) + (ds/2) z/(1 - s z)
+ (dt/2 + 2 c dc) z/(1 - t z) + c^2 dt z^2/(1 - t z)^2, so with
D(z) = (1 - s z)(1 - t z)^2 the derivative series obeys D dG = P G for the cubic

    P = D d(log r00) + (ds/2) z (1 - t z)^2 + (dt/2 + 2 c dc) z (1 - s z)(1 - t z)
        + c^2 dt z^2 (1 - s z).

Read coefficient by coefficient this is a filter that takes p(n) to dp(n);
its feedback D has the roots s, t, t of the recurrence above, so its
homogeneous solutions decay and forward evaluation is stable.  The filter is
linear, so `FisherTerms` runs it on the scaled runs themselves: within a run
it gives dp(n) / (r00 2^e), and at each renormalisation its history is
rescaled by the same exact 2^-e as the series'.  Each photon-counting FI term
dp^2 / p is then (y S)(y / v) for the scaled value v, its filtered y and the
run's scale S; written so, nothing overflows where y^2 would.  The history
also holds p(n-3), which the series neither rescales nor tests: where the
values fall by more than the double range over three terms, that value has
no double in the new run's scale, and the walk raises NonConvergedSeries.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergedSeries

_LOW, _HIGH = 1e-200, 1e200
_LN2 = math.log(2.0)


class PnSeries:
    """p(0), p(1), ... for series inputs log r00, t, s, c, evaluated forward on demand.

    `extend` continues the recurrence where it stopped, so p(0..n) have the
    same bits whether they were computed in one call or in several.
    """

    def __init__(self, log_r00: float, t: float, s: float, c: float) -> None:
        t, s, c = float(t), float(s), float(c)
        c2 = c ** 2
        self._inputs = (t, s, c)
        self._coeffs = (
            -(s + 2.0 * t), t * t + 2.0 * s * t, -s * t * t,
            0.5 * (s + t) + c2, -(1.5 * s * t + 0.5 * t * t + c2 * s), s * t * t,
        )
        self._vals = [1.0]
        self._log_r00 = float(log_r00)
        # (first index, e) of each run of values that share the scale r00 2^e;
        # e is exact, so the log scale of a run carries one rounding however
        # many runs come before it
        self._scales = [(0, 0)]
        # the scaled p(n), p(n-1), p(n-2); the mass of the earlier runs and
        # the scaled mass of the current one
        self._live = (1.0, 0.0, 0.0)
        self._banked, self._run_mass = 0.0, 1.0

    @property
    def n_max(self) -> int:
        return len(self._vals) - 1

    def extend(self, n_max: int, tail_tol: float | None = None) -> bool:
        """Run on to p(n_max), or with tail_tol stop at the first n where
        p(0) + ... + p(n) reaches 1 - tail_tol.  Returns whether it did.

        Each term tests p(n) alone against [1e-200, 1e200], and only a p(n)
        outside it (zero and negative included) asks whether the largest of
        |p(n)|, |p(n-1)|, |p(n-2)| has left the band: the decision of a test
        of all three on every term, for the reasons in the module docstring."""
        a1, a2, a3, q0, q1, q2 = self._coeffs
        vals, scales = self._vals, self._scales
        append = vals.append
        p0, p1, p2 = self._live
        banked, run_mass, exp2 = self._banked, self._run_mass, scales[-1][1]
        log_scale = self._log_r00 + exp2 * _LN2
        goal = math.inf if tail_tol is None else 1.0 - tail_tol
        run_goal = _run_goal(goal - banked, log_scale)
        low, high = _LOW, _HIGH
        # n, n - 1 and n - 2 as doubles, carried on by adding 1.0: every
        # integer below 2^53 is a double, and no list is that long, so each
        # sum is exact and the counters are the integers the recurrence
        # names, without a conversion or a subtraction per term
        n = float(len(vals) - 1)
        n1, n2 = n - 1.0, n - 2.0
        for _ in range(len(vals) - 1, n_max):
            if run_mass >= run_goal:
                break
            m = n + 1.0
            p0, p1, p2 = ((q0 - a1 * n) * p0 + (q1 - a2 * n1) * p1 + (q2 - a3 * n2) * p2) / m, p0, p1
            n2, n1, n = n1, n, m
            if not low <= p0 <= high:
                big = max(abs(p0), abs(p1), abs(p2))
                if big > high or 0.0 < big < low:
                    e = math.frexp(big)[1]
                    p0, p1, p2 = math.ldexp(p0, -e), math.ldexp(p1, -e), math.ldexp(p2, -e)
                    banked += run_mass * math.exp(log_scale) if log_scale < 700.0 else math.inf
                    exp2 += e
                    log_scale = self._log_r00 + exp2 * _LN2
                    scales.append((len(vals), exp2))
                    run_mass, run_goal = 0.0, _run_goal(goal - banked, log_scale)
            append(p0)
            run_mass += p0
        self._live, self._banked, self._run_mass = (p0, p1, p2), banked, run_mass
        return run_mass >= run_goal

    def probs(self) -> np.ndarray:
        """p(0..n_max) as doubles; entries below the smallest double read 0.0.

        Each run of scaled values v with log scale L = log r00 + e ln 2 becomes
        v exp(L), one multiply per entry, when exp(L) is a normal double
        (|L| < 700); a run whose scale is no normal double keeps the log form
        sign(v) exp(log|v| + L).  Either way a negative value stays negative,
        so the breakdown check still sees it."""
        p = np.array(self._vals)
        stops = [i for i, _ in self._scales[1:]] + [len(p)]
        for (start, e), stop in zip(self._scales, stops):
            log_scale = self._log_r00 + e * _LN2
            run = p[start:stop]
            if -700.0 < log_scale < 700.0:
                run *= math.exp(log_scale)
            else:
                with np.errstate(divide="ignore"):
                    run[...] = np.sign(run) * np.exp(np.log(np.abs(run)) + log_scale)
        return p


def _run_goal(rest: float, log_scale: float) -> float:
    # the scaled mass the current run must add to bring in `rest`, capped at
    # e^700, which no run of values inside the band sums to
    if rest <= 0.0:
        return 0.0
    return math.exp(min(math.log(rest) - log_scale, 700.0))


def pn_series(
    log_r00: float, t: float, s: float, c: float, n_max: int, tail_tol: float | None = None
) -> np.ndarray:
    """p(0..n) for series inputs log r00, t, s, c.

    n is n_max; with tail_tol it is the first n where p(0) + ... + p(n)
    reaches 1 - tail_tol, and n_max only bounds it.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    series = PnSeries(log_r00, t, s, c)
    series.extend(n_max, tail_tol)
    return series.probs()


def _exp(x: float) -> float:
    return math.exp(x) if x < 709.0 else math.inf


class FisherTerms:
    """The photon-counting FI terms dp(n)^2 / p(n) of a PnSeries, for the
    derivatives (d log r00, dt, ds, dc) of its inputs along a parameter path.

    Terms with p(n) below `floor` are 0.0.  `walk` runs the derivative filter
    over the values the series has added since the last call, so the terms
    have the same bits whether they were walked in one call or in several.
    Both p(n) thresholds are compared on the scaled values, one bound per run.
    """

    def __init__(self, series: PnSeries, dlog_r00: float, dt: float, ds: float, dc: float,
                 floor: float, low: float) -> None:
        t, s, c = series._inputs
        a1, a2, a3 = series._coeffs[:3]  # the feedback D = 1 + a1 z + a2 z^2 + a3 z^3
        # P / z = i0 + i1 z + i2 z^2
        half_ds, mid, c2dt = 0.5 * ds, 0.5 * dt + 2.0 * c * dc, c * c * dt
        i0 = half_ds + mid
        i1 = -2.0 * t * half_ds - (s + t) * mid + c2dt
        i2 = t * t * half_ds + s * t * mid - s * c2dt
        self._filter = (dlog_r00, dlog_r00 * a1 + i0, dlog_r00 * a2 + i1, dlog_r00 * a3 + i2, a1, a2, a3)
        self._series = series
        self._log_floor, self._log_low = math.log(floor), math.log(-low)
        # the last three scaled p and filtered dp, and the run they are scaled to
        self._history = (0.0,) * 6
        self._run = 0
        self.terms: list[float] = []

    def _run_bounds(self, exp2: int) -> tuple[float, float, float]:
        """The scale S of a run with exponent exp2, and the scaled values at
        which p(n) = v S reaches the floor and the low bound."""
        log_scale = self._series._log_r00 + exp2 * _LN2
        # no v reaches a floor below the smallest double: v = 0.0 is no term
        floor = max(_exp(self._log_floor - log_scale), 5e-324)
        return _exp(log_scale), floor, -_exp(self._log_low - log_scale)

    def walk(self) -> bool:
        """Add the terms of the series on to its n_max; returns whether any of
        the values walked in this call lies below the low bound."""
        vals, scales = self._series._vals, self._series._scales
        f0, f1, f2, f3, d1, d2, d3 = self._filter
        v1, v2, v3, y1, y2, y3 = self._history
        run, terms = self._run, self.terms
        scale, floor, low = self._run_bounds(scales[run][1])
        append = terms.append
        n, broke = len(terms), False
        while n < len(vals):
            if run + 1 < len(scales) and scales[run + 1][0] == n:
                # the series renormalised here: rescale the history with it
                run += 1
                e = scales[run][1] - scales[run - 1][1]
                try:
                    v1, v2, v3, y1, y2, y3 = (math.ldexp(x, -e) for x in (v1, v2, v3, y1, y2, y3))
                except OverflowError:
                    raise NonConvergedSeries(
                        f"photon-counting FI history leaves the double range at the renormalisation at n = {n}"
                    ) from None
                scale, floor, low = self._run_bounds(scales[run][1])
            stop = scales[run + 1][0] if run + 1 < len(scales) else len(vals)
            for v in vals[n:stop]:
                y = f0 * v + f1 * v1 + f2 * v2 + f3 * v3 - (d1 * y1 + d2 * y2 + d3 * y3)
                v1, v2, v3 = v, v1, v2
                y1, y2, y3 = y, y1, y2
                if v >= floor:
                    append((y * scale) * (y / v))
                elif v < low:
                    append(0.0)
                    broke = True
                else:
                    append(0.0)
            n = stop
        self._history, self._run = (v1, v2, v3, y1, y2, y3), run
        return broke
