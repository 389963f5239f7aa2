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
