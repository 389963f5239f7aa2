"""Output checks: stored seed references and physics invariants.

Every check returns None when the output passes and a one-line reason when it
does not; a reason turns the operation into a failed one.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Relative tolerance against the stored reference.  Analytic derivatives must
# meet it: over every gaussian_sweep input and fi-photon grid point, halving
# the package's finite-difference step moves the QFI by at most 1.3e-8
# relative, the photon FI by 7.9e-9 and the homodyne FI by 0.22 of this
# tolerance.  It rejects a value moved by 1e-6 relative.
RTOL = 1e-7
# Absolute floors, added to RTOL * |reference|.  An FI far below the QFI is
# dominated by finite-difference noise on the scale of the QFI.
FI_FLOOR = 1e-9
E_N_FLOOR = 1e-12
P_FLOOR = 1e-15
NO_REFERENCE = "no stored reference for this input"

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    """{workload: {input key: [values]}} as written by make_reference.py."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["values"]


def first_failure(*reasons: str | None) -> str | None:
    return next((r for r in reasons if r), None)


def against_reference(columns, values, ref, floors=None) -> str | None:
    if ref is None:
        return NO_REFERENCE
    floors = floors if floors is not None else (0.0,) * len(columns)
    for name, value, expected, floor in zip(columns, values, ref, floors):
        if not abs(value - expected) <= RTOL * abs(expected) + floor:
            return f"{name} = {value!r}, reference {expected!r} (rel. diff {_rel(value, expected):.2e})"
    return None


def _rel(value: float, expected: float) -> float:
    return abs(value - expected) / abs(expected) if expected else math.inf


def fi_below_qfi(name: str, fi: float, h: float) -> str | None:
    if not (fi >= 0.0 and fi <= h * (1.0 + RTOL)):
        return f"{name} = {fi!r} outside [0, H = {h!r}]"
    return None


def qfi_limits(point, h: float) -> str | None:
    """H -> 4/(w + w0)^2 as lam -> 0 and H -> 4N/w^2 as lam -> infinity.

    The tolerances are 10 (lam/lambda_c)^2 and 10 (lambda_c/lam)^4: at the seed
    the deviations are ~3 (lam/lambda_c)^2 and ~2.5 (lambda_c/lam)^4.
    """
    x = point.lam / point.lambda_c
    if x <= 0.05:
        limit, tol, which = 4.0 / (point.omega + point.omega0) ** 2, 10.0 * x * x, "lam->0"
    elif x >= 5.0:
        limit, tol, which = 4.0 * point.n_atoms / point.omega**2, 10.0 / x**4, "lam->inf"
    else:
        return None
    if not abs(h / limit - 1.0) <= tol + RTOL:
        return f"H = {h!r} misses the {which} limit {limit!r} by {abs(h / limit - 1.0):.2e} > {tol:.2e}"
    return None


def series_mean(probs: np.ndarray) -> float:
    return math.fsum((np.arange(len(probs)) * probs).tolist())


def photon_invariants(probs: np.ndarray, tail_mass: float, total: float) -> str | None:
    """p(n) >= 0, sum p = 1 - tail_mass, and the series mean equals <n>."""
    low = float(np.min(probs))
    if low < 0.0:
        return f"p(n) = {low!r} < 0 at n = {int(np.argmin(probs))}"
    mass = math.fsum(probs.tolist())
    # the series resolves the distribution to a tail mass of 1e-10, no finer
    if not abs(mass - (1.0 - tail_mass)) <= 1e-10:
        return f"sum p = {mass!r} but 1 - tail_mass = {1.0 - tail_mass!r}"
    mean = series_mean(probs)
    if not abs(mean - total) <= 1e-6 * total + 1e-9:
        return f"series mean {mean!r} differs from mean_photon_decomposition total {total!r}"
    return None
