"""Photon-number series kernel.

The distribution of a single-mode Gaussian state diagonal in x/p with an
x displacement has the generating function

    G(z) = sum_n p(n) z^n = r00 (1 - s z)^{-1/2} (1 - t z)^{-1/2} exp{c^2 z/(1 - t z)}

with t = A - B, s = A + B built from the kernel coefficients and c = |C|.
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

The values run scaled, starting at 1 with a running log scale that starts at
log r00; the three live values are renormalised whenever their largest
magnitude leaves [1e-200, 1e200].  Only the final exponentiation can leave
the double range, so r00 itself may underflow: entries below the smallest
double become 0.0 and nothing raises.

Along any path of the inputs, d log G = d(log r00) + (ds/2) z/(1 - s z)
+ (dt/2 + 2 c dc) z/(1 - t z) + c^2 dt z^2/(1 - t z)^2, so with
D(z) = (1 - s z)(1 - t z)^2 the derivative series obeys D dG = P G for the cubic

    P = D d(log r00) + (ds/2) z (1 - t z)^2 + (dt/2 + 2 c dc) z (1 - s z)(1 - t z)
        + c^2 dt z^2 (1 - s z).

Read coefficient by coefficient this is a filter that takes p(n) to dp(n);
its feedback D has the roots s, t, t of the recurrence above, so its
homogeneous solutions decay and forward evaluation is stable.
"""
from __future__ import annotations

import math

import numpy as np

_LOW, _HIGH = 1e-200, 1e200


def pn_series(log_r00: float, t: float, s: float, c: float, n_max: int) -> np.ndarray:
    """p(0..n_max) for kernel inputs log r00, t = A - B, s = A + B, c = |C|."""
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    t, s, c2 = float(t), float(s), float(c) ** 2
    a1, a2, a3 = -(s + 2.0 * t), t * t + 2.0 * s * t, -s * t * t
    q0, q1, q2 = 0.5 * (s + t) + c2, -(1.5 * s * t + 0.5 * t * t + c2 * s), s * t * t
    vals = [1.0] * (n_max + 1)
    logs = [float(log_r00)] * (n_max + 1)
    # p0, p1, p2 hold the scaled p(n), p(n-1), p(n-2)
    p0, p1, p2, log_scale = 1.0, 0.0, 0.0, float(log_r00)
    for n in range(n_max):
        p0, p1, p2 = (
            ((q0 - a1 * n) * p0 + (q1 - a2 * (n - 1)) * p1 + (q2 - a3 * (n - 2)) * p2) / (n + 1),
            p0,
            p1,
        )
        big = max(abs(p0), abs(p1), abs(p2))
        if big > _HIGH or 0.0 < big < _LOW:
            p0, p1, p2 = p0 / big, p1 / big, p2 / big
            log_scale += math.log(big)
        vals[n + 1] = p0
        logs[n + 1] = log_scale
    v = np.array(vals)
    with np.errstate(divide="ignore"):
        return np.sign(v) * np.exp(np.log(np.abs(v)) + np.array(logs))


def pn_derivative(
    probs: np.ndarray, dlog_r00: float, t: float, dt: float, s: float, ds: float, c: float, dc: float
) -> np.ndarray:
    """dp(0..n_max) along a path of kernel inputs, from probs = pn_series(...).

    c and dc enter as c^2 and c dc only, so the sign of c is free.
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
