"""One digest over every one-coupling result of `dicke_metrology`, and one per field.

    python tools/one_coupling_bits.py

Runs each one-coupling reader on a fixed set of points and prints one sha256
digest over the bytes of every result, together with the type and message of
every error raised, under warnings-as-errors.  Two commits that print the
same digest give every one of these results the same bits.  Below it comes
one digest per reader and top-level field of its result (a dataclass's
fields, a dict's keys; a result of neither kind, and an error, under the
reader's name alone), so two commits whose totals differ show which fields
moved.

The points are a lattice (three frequency pairs, N from 1 to 10^6, couplings
from 1e-3 to 1e3 lambda_c and from 1e-1 to 1e-7 of lambda_c on either side
of it), 1500 seeded draws (frequencies 0.25 to 4, N 1 to 10^6, couplings
uniform in 0 to 3 lambda_c, log-uniform in 1e-300 to 1e5 lambda_c, exactly 0
and 1e-9 to 1e-2 of lambda_c on either side of it) and the extremes: lam = 0,
5e-324, 1e-300, 1e-160 and 1e-150 lambda_c, 1e4 and 1e8 lambda_c, and the
couplings at and next to each edge of the window around lambda_c, at
lambda_c (1 -+ dicke.DELTA_MIN).  Each point gets a fresh DickeParams and
the readers run in a fixed order; photon counting runs only where the
radiation mode holds fewer than about 300 photons, so that the whole run
takes well under a minute.
"""
from __future__ import annotations

import hashlib
import math
import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dicke_metrology as dm  # noqa: E402
from dicke_metrology import dicke  # noqa: E402

SEED = 20160101
DRAWS = 1500
FREQUENCIES = ((1.0, 1.0), (1.0, 2.0), (0.5, 3.0))
ATOMS = (1, 100, 10_000, 10**6)
SETTINGS = [dm.HomodyneSetting(phi, target) for target in dm.Target for phi in (0.0, math.pi / 3)]
# photon counting runs where <n> + 10 sd(n) of the radiation mode stays below this
PHOTON_TERMS = 300.0


def _lattice() -> list[tuple[float, float, int, float]]:
    points = []
    for w, w0 in FREQUENCIES:
        lc = math.sqrt(w * w0) / 2.0
        ratios = [10.0**e for e in range(-3, 4)] + [1.0 + s * 10.0**-e for s in (-1, 1) for e in range(1, 8)]
        points += [(w, w0, n, lc * x) for n in ATOMS for x in ratios]
    return points


def _draws() -> list[tuple[float, float, int, float]]:
    rng = np.random.default_rng(SEED)
    points = []
    for i in range(DRAWS):
        w, w0 = (float(f) for f in np.exp(rng.uniform(math.log(0.25), math.log(4.0), 2)))
        n = int(np.exp(rng.uniform(0.0, math.log(1e6))))
        lc = math.sqrt(w * w0) / 2.0
        kind = i % 4
        if kind == 0:
            x = float(rng.uniform(0.0, 3.0))
        elif kind == 1:
            x = 10.0 ** float(rng.uniform(-300.0, 5.0))
        elif kind == 2:
            x = 0.0
        else:
            x = 1.0 + float(rng.choice([-1.0, 1.0])) * 10.0 ** float(rng.uniform(-9.0, -2.0))
        points.append((w, w0, n, lc * x))
    return points


def _extremes() -> list[tuple[float, float, int, float]]:
    points = []
    for w, w0 in FREQUENCIES:
        lc = math.sqrt(w * w0) / 2.0
        couplings = [0.0, 5e-324] + [lc * x for x in (1e-300, 1e-160, 1e-150, 1e4, 1e8)]
        for edge in (lc * (1.0 - dicke.DELTA_MIN), lc * (1.0 + dicke.DELTA_MIN)):
            couplings += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
        points += [(w, w0, n, lam) for n in (1, 10**6) for lam in couplings]
    return points


def _photon_cheap(params: dm.DickeParams) -> bool:
    state = dm.reduced_radiation_state(params)
    mean, cov = state.mean, state.cov
    n = 0.5 * (cov[0, 0] + cov[1, 1] + mean @ mean - 1.0)
    return n + 10.0 * math.sqrt(max(0.5 * float(np.sum(cov * cov)) + mean @ cov @ mean, 0.0)) < PHOTON_TERMS


def _readers(params: dm.DickeParams):
    """(name, call) for each one-coupling reader, in the order they run."""
    yield "ground_state", lambda: dm.ground_state(params)
    yield "reduced_radiation_state", lambda: dm.reduced_radiation_state(params)
    yield "derive", lambda: dm.derive(params)
    yield "symplectic_chain", lambda: dm.symplectic_chain(params)
    yield "state_derivative", lambda: dm.state_derivative(params)
    yield "qfi", lambda: dm.qfi(params)
    yield "sld_coefficients", lambda: dm.sld_coefficients(params)
    yield "sld_coefficients_f1_frame", lambda: dm.sld_coefficients_f1_frame(params)
    yield "symplectic_spectrum", lambda: dm.symplectic_spectrum(dm.ground_state(params).cov)
    yield "log_negativity", lambda: dm.log_negativity(dm.ground_state(params).cov)
    for setting in SETTINGS:
        yield "fi_homodyne", lambda setting=setting: dm.fi_homodyne(params, setting)
    yield "moment_jet", lambda: dm.moment_jet([params.lam], params.omega, params.omega0, params.n_atoms)
    yield "dsts_params", lambda: dm.dsts_params(dm.reduced_radiation_state(params))
    yield "mean_photon_decomposition", lambda: dm.mean_photon_decomposition(dm.reduced_radiation_state(params))
    try:
        cheap = _photon_cheap(params)
    except Exception:  # the readers above record the error
        cheap = False
    if cheap:
        yield "photon_distribution", lambda: dm.photon_distribution(dm.reduced_radiation_state(params))
        yield "fi_photon_counting", lambda: dm.fi_photon_counting(params)


def _feed(h, value) -> None:
    """Feed the bits of a result into the hash; shapes are not hashed, so a
    one-row array and its unbatched row feed the same bytes."""
    if isinstance(value, dict):
        for key in sorted(value):
            h.update(key.encode())
            _feed(h, value[key])
    elif isinstance(value, str):
        h.update(value.encode())
    elif isinstance(value, (int, float, np.floating, np.integer, np.ndarray)):
        h.update(np.asarray(value, dtype=float).tobytes())
    elif hasattr(value, "__dataclass_fields__"):
        for name in value.__dataclass_fields__:
            _feed(h, getattr(value, name))
    else:
        raise TypeError(f"no bits for {type(value).__name__}")


def _fields(value) -> list[tuple[str, object]]:
    """(name, part) of each top-level field of a result; ("", value) for a
    result without fields."""
    if isinstance(value, dict):
        return [(key, value[key]) for key in sorted(value)]
    if hasattr(value, "__dataclass_fields__"):
        return [(name, getattr(value, name)) for name in value.__dataclass_fields__]
    return [("", value)]


def main() -> None:
    points = _lattice() + _draws() + _extremes()
    digest, results = hashlib.sha256(), 0
    by_field = {}  # "reader.field" -> the sha256 of that field alone
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w, w0, n, lam in points:
            try:
                params = dm.DickeParams(lam=lam, omega=w, omega0=w0, n_atoms=n)
            except ValueError as exc:
                raise SystemExit(f"point outside the model: {exc}") from None
            for name, call in _readers(params):
                try:
                    value = call()
                except Exception as exc:  # the error is a result too
                    value = f"{type(exc).__name__}: {exc}"
                digest.update(name.encode())
                _feed(digest, value)
                for field, part in _fields(value):
                    _feed(by_field.setdefault(f"{name}.{field}" if field else name, hashlib.sha256()), part)
                results += 1
    print(f"sha256 {digest.hexdigest()}  {len(points)} points, {results} results")
    for label, field_digest in by_field.items():
        print(f"{field_digest.hexdigest()}  {label}")


if __name__ == "__main__":
    main()
