"""Tests for the one-coupling readers of a DickeParams against the batch.

Every one-coupling entry point runs the ground stage at the params' coupling
as a numpy scalar, so on one params any order of calls must give the bits of
fresh params and of the coupling's row in a batched jet, and a params holds
nothing beyond its fields for equality, hashing, copies or
`dataclasses.replace` to see.
"""
import copy
import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dicke_metrology import dicke
from dicke_metrology.dicke import (
    DELTA_MIN,
    RADIATION_MODE,
    DickeParams,
    MomentJet,
    derive,
    ground_state,
    moment_jet,
    reduced_radiation_state,
    symplectic_chain,
)
from dicke_metrology.errors import CriticalPointSingularity, DickeMetrologyError
from dicke_metrology.estimation import (
    qfi,
    qfi_from_jet,
    sld_coefficients,
    state_derivative,
)
from dicke_metrology.gaussian import partial_trace
from dicke_metrology.measurements import (
    HomodyneSetting,
    Target,
    fi_homodyne,
    fi_homodyne_from_jet,
    fi_photon_counting,
    fi_photon_counting_from_jet,
)

PHIS = (0.0, 1.0)


def _homodyne(target: Target):
    return lambda params: [fi_homodyne(params, HomodyneSetting(phi=phi, target=target)) for phi in PHIS]


# the one-coupling entry points, by name
CALLS = {
    "ground_state": ground_state,
    "reduced_radiation_state": reduced_radiation_state,
    "qfi": qfi,
    "fi_homodyne_radiation": _homodyne(Target.RADIATION),
    "fi_homodyne_atoms": _homodyne(Target.ATOMS),
    "fi_photon_counting": fi_photon_counting,
    "derive": derive,
    "symplectic_chain": symplectic_chain,
}


def _bits(value):
    """value as a structure that compares equal only for the same bits."""
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    if dataclasses.is_dataclass(value):
        return type(value).__name__, _bits(list(vars(value).values()))
    return value


def _row(jet: MomentJet, i: int) -> MomentJet:
    """Row i of a batched jet, as a 0-d jet."""
    return MomentJet(jet.mean[i], jet.cov[i], jet.dmean[i], jet.dcov[i])


def _outcome(call, params):
    """The bits of call(params), or the type and message of the domain error it raises."""
    try:
        return _bits(call(params))
    except DickeMetrologyError as exc:
        return type(exc), str(exc)


# every call, in name order
ALL_CALLS = sorted(CALLS)

# the accepted domain: positive frequencies, a positive atom number and a
# nonnegative coupling, drawn as lam / lambda_c so that both phases, the
# degenerate point lam = 0 and the refused window at lambda_c all occur; the
# ranges keep each photon series below ~10^5 terms
FREQUENCIES = st.floats(0.25, 4.0)
ATOMS = st.sampled_from([1, 2, 100, 1000])
RATIOS = st.one_of(st.floats(0.0, 3.0), st.sampled_from([0.0, 1.0, 1.0 + 1e-9, 0.999, 1.001]))
# (omega, omega0, n_atoms, couplings as lam / lambda_c)
MODELS = st.tuples(FREQUENCIES, FREQUENCIES, ATOMS, st.lists(RATIOS, min_size=1, max_size=4))


def _couplings(omega: float, omega0: float, ratios: list[float]) -> list[float]:
    return [math.sqrt(omega * omega0) / 2.0 * ratio for ratio in ratios]


@st.composite
def _call_orders(draw):
    """(model, the index of the params' coupling, the names of the calls made on it, in order)."""
    model = draw(MODELS)
    i = draw(st.integers(0, len(model[3]) - 1), label="index")
    return model, i, draw(st.lists(st.sampled_from(ALL_CALLS), min_size=1, max_size=12), label="calls")


@st.composite
def _radiation_cases(draw):
    """(omega, omega0, n_atoms, lam) in both phases, at the degenerate point lam = 0 and
    just outside the refused window at lambda_c; a lam drawn from [0, 3 lambda_c] may
    be lambda_c itself."""
    omega, omega0 = draw(FREQUENCIES), draw(FREQUENCIES)
    n_atoms = draw(st.sampled_from([1, 2, 100, 1000, 10**4, 10**6]))
    lc = math.sqrt(omega * omega0) / 2.0
    near = lc * (1.0 + DELTA_MIN * draw(st.sampled_from([-1.001, 1.001]), label="just outside"))
    return omega, omega0, n_atoms, draw(st.one_of(st.floats(0.0, 3.0 * lc), st.sampled_from([0.0, near])), label="lam")


def _nearest_outside(lc: float, away: float) -> float:
    """The coupling nearest lambda_c on the side of `away` that the window DELTA_MIN lambda_c does not refuse."""
    lam = lc + math.copysign(DELTA_MIN * lc, away - lc)
    while abs(lam - lc) > DELTA_MIN * lc:
        lam = math.nextafter(lam, lc)
    while abs(lam - lc) <= DELTA_MIN * lc:
        lam = math.nextafter(lam, away)
    return lam


def _homodyne_pair(target: Target):
    settings_ = [HomodyneSetting(phi=phi, target=target) for phi in PHIS]
    return (
        lambda params: [fi_homodyne(params, setting) for setting in settings_],
        lambda jet, i: [float(fi_homodyne_from_jet(jet, setting)[i]) for setting in settings_],
    )


# the one-coupling readers of a jet, by name: each reader on a params, and its
# batch twin on row i of a batched jet
JET_READERS = {
    "state_derivative": (state_derivative, _row),
    "qfi": (
        lambda params: dataclasses.astuple(qfi(params)),
        lambda jet, i: tuple(float(column[i]) for column in qfi_from_jet(jet)),
    ),
    "fi_homodyne_radiation": _homodyne_pair(Target.RADIATION),
    "fi_homodyne_atoms": _homodyne_pair(Target.ATOMS),
    # the batch's own row would raise for the whole batch where one member's series fails
    "fi_photon_counting": (
        fi_photon_counting,
        lambda jet, i: fi_photon_counting_from_jet(_row(jet, i))[0][0],
    ),
    "sld_phi": (lambda params: sld_coefficients(params).phi, lambda jet, i: -jet.dcov[i]),
}


# the readers share nothing but the params, so the orders are the rotations
# of the readers, either way round:
# each reader runs first, last and in every place between, after and before
# each other reader
ORDERS = [
    names[k:] + names[:k] for names in (list(JET_READERS), list(JET_READERS)[::-1]) for k in range(len(JET_READERS))
]


class TestOneCouplingAgainstTheBatch:
    """Each one-coupling reader runs the batch code at 0-d, where `dicke._select`
    hands back the chosen value itself, a Python float where that is a
    constant: it must give the bits of the coupling's row in a batch."""

    LC = 0.5  # lambda_c at omega = omega0 = 1
    # lam = 0 on and off resonance (theta's degenerate point, and the
    # constants of the normal phase), a coupling whose square is subnormal at
    # 1e-160 lambda_c, deep in the superradiant phase, the couplings nearest
    # lambda_c on either side of the window, and one point in each phase
    MODELS = {
        (1.0, 1.0, 100): [
            0.0, 1e-160 * LC, 1e4 * LC, _nearest_outside(LC, 0.0), _nearest_outside(LC, math.inf), 0.3, 0.7,
        ],
        (1.0, 2.0, 100): [0.0, 1e4 * math.sqrt(2.0) / 2.0, 0.3],
    }

    def test_the_cases_reach_the_python_constants(self):
        # the jet's constants of the normal phase, and derive's theta at the
        # degenerate point, where arctan2(0, 0) would give 0
        assert not dicke._ground_at(DickeParams(lam=0.0, omega0=2.0)).superradiant
        assert derive(DickeParams(lam=0.0))["theta"] == math.pi / 4.0
        lam = self.MODELS[(1.0, 1.0, 100)][1]
        coupling = dicke._ground_at(DickeParams(lam=lam)).cov[0, 2]
        assert coupling != 0.0 and coupling * coupling < np.finfo(float).tiny

    @pytest.mark.parametrize("model", list(MODELS))
    def test_readers_in_any_place_give_the_bits_of_the_batch_row(self, model):
        omega, omega0, n_atoms = model
        lams = self.MODELS[model]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            jet = moment_jet(lams, omega, omega0, n_atoms)
            batch = {
                name: [_outcome(lambda _: twin(jet, i), None) for i in range(len(lams))]
                for name, (_, twin) in JET_READERS.items()
            }
            for i, lam in enumerate(lams):
                one = state_derivative(DickeParams(lam, omega, omega0, n_atoms))
                assert [one.mean.shape, one.cov.shape, one.dmean.shape, one.dcov.shape] == [(4,), (4, 4)] * 2
                for order in ORDERS:
                    params = DickeParams(lam, omega, omega0, n_atoms)
                    for name in order:
                        assert _outcome(JET_READERS[name][0], params) == batch[name][i], (lam, order, name)


class TestOneRecordPerParams:
    @given(_call_orders())
    # the branches where a scalar coupling could part from the batch: lam = 0
    # on and off resonance (theta's degenerate point), couplings whose squares
    # underflow (1e-160) or nearly do (1e-150), deep in the superradiant
    # phase, a large atom number, and a coupling where pow(x, 2) and x * x
    # differ in the last bit
    @example(((1.0, 1.0, 100, [0.0, 0.5]), 0, ALL_CALLS))
    @example(((1.0, 2.0, 100, [0.0]), 0, ALL_CALLS))
    @example(((1.0, 1.0, 100, [1e-150, 1e-160]), 0, ALL_CALLS))
    @example(((1.0, 1.0, 100, [1e-150, 1e-160]), 1, ALL_CALLS))
    @example(((1.0, 2.0, 100, [1e4, 0.5]), 0, ALL_CALLS))
    @example(((1.0, 1.0, 10**6, [1.5, 0.5]), 0, ALL_CALLS))
    @example(((1.0, 1.0, 100, [1.3970406077070024]), 0, ALL_CALLS))
    @settings(max_examples=40, deadline=None)
    def test_any_call_order_gives_the_bits_of_fresh_params_and_of_the_batch(self, case):
        (omega, omega0, n_atoms, ratios), i, order = case
        lams = _couplings(omega, omega0, ratios)
        params = DickeParams(lam=lams[i], omega=omega, omega0=omega0, n_atoms=n_atoms)
        fresh = {
            name: _outcome(call, DickeParams(lam=lams[i], omega=omega, omega0=omega0, n_atoms=n_atoms))
            for name, call in CALLS.items()
        }
        for name in order:
            assert _outcome(CALLS[name], params) == fresh[name], name
        lc = math.sqrt(omega * omega0) / 2.0
        if abs(lams[i] - lc) > DELTA_MIN * lc:
            # the ground stage at a numpy scalar: scalars and unbatched arrays, no one-row stacks
            ground = dicke._ground_at(params)
            scalars = [value for name, value in ground._asdict().items() if name not in ("mean", "cov")]
            assert all(np.ndim(value) == 0 and not isinstance(value, np.ndarray) for value in scalars)
            assert [ground.mean.shape, ground.cov.shape, symplectic_chain(params).shape] == [(4,), (4, 4), (4, 4)]
        if any(abs(lam - lc) <= DELTA_MIN * lc for lam in lams):
            with pytest.raises(CriticalPointSingularity):
                moment_jet(lams, omega, omega0, n_atoms)
            return
        jet = moment_jet(lams, omega, omega0, n_atoms)
        one = state_derivative(params)
        for field in ("mean", "cov", "dmean", "dcov"):
            assert _bits(getattr(jet, field)[i]) == _bits(getattr(one, field)), field
        state = ground_state(params)
        assert _bits([state.mean, state.cov]) == _bits([jet.mean[i], jet.cov[i]])
        res = qfi(params)
        columns = [column[i] for column in qfi_from_jet(jet)]
        assert _bits(columns) == _bits([res.qfi, res.quadratic_term, res.displacement_term])
        for target in Target:
            rows = [float(fi_homodyne_from_jet(jet, HomodyneSetting(phi=phi, target=target))[i]) for phi in PHIS]
            assert _bits(rows) == fresh[f"fi_homodyne_{target.value}"]
        try:
            photon = fi_photon_counting_from_jet(jet)
        except DickeMetrologyError as exc:
            # the batch stops at a coupling whose series fails alone
            assert any(
                _outcome(fi_photon_counting, DickeParams(lam, omega, omega0, n_atoms))[0] is type(exc) for lam in lams
            )
        else:
            assert _bits(photon[i][0]) == fresh["fi_photon_counting"]

    @given(_radiation_cases())
    @example((0.5, 0.5, 1, 0.25))  # lam = lambda_c
    # 1.001e-8 below lambda_c = 1.22: outside an absolute window of 1e-8, inside the relative one
    @example((2.0, 3.0, 1, 1.224744861381589))
    @settings(max_examples=60, deadline=None)
    def test_radiation_state_is_the_partial_trace_of_the_ground_state(self, case):
        # read from the ground state's radiation block, it has the bits of the
        # two-mode state traced out, in both phases, at the degenerate point
        # lam = 0 and just outside the refused window at lambda_c; inside it
        # both raise
        omega, omega0, n_atoms, lam = case
        params = DickeParams(lam=lam, omega=omega, omega0=omega0, n_atoms=n_atoms)
        lc = math.sqrt(omega * omega0) / 2.0
        if abs(lam - lc) <= DELTA_MIN * lc:
            for call in (reduced_radiation_state, ground_state):
                with pytest.raises(CriticalPointSingularity):
                    call(params)
            return
        reduced = reduced_radiation_state(params)
        traced = partial_trace(ground_state(DickeParams(lam, omega, omega0, n_atoms)), [RADIATION_MODE])
        assert _bits([reduced.mean, reduced.cov]) == _bits([traced.mean, traced.cov])
        reduced.mean[...], reduced.cov[...] = 1e3, -1e3
        again = reduced_radiation_state(params)
        assert _bits([again.mean, again.cov]) == _bits([traced.mean, traced.cov])
        state = ground_state(params)
        assert _bits([state.mean[:2], state.cov[:2, :2]]) == _bits([traced.mean, traced.cov])

    @given(MODELS)
    @settings(max_examples=30, deadline=None)
    def test_replace_copy_and_pickle_never_see_the_old_record(self, model):
        omega, omega0, n_atoms, ratios = model
        lams = _couplings(omega, omega0, ratios + [0.5])
        params = DickeParams(lam=lams[0], omega=omega, omega0=omega0, n_atoms=n_atoms)
        _outcome(qfi, params)
        field_names = [field.name for field in dataclasses.fields(DickeParams)]
        assert list(vars(params)) == field_names  # nothing kept beside the fields
        for lam in lams[1:]:
            moved = dataclasses.replace(params, lam=lam)
            fresh = DickeParams(lam=lam, omega=omega, omega0=omega0, n_atoms=n_atoms)
            for call in CALLS.values():
                assert _outcome(call, moved) == _outcome(call, fresh)
        for twin in (copy.copy(params), copy.deepcopy(params), pickle.loads(pickle.dumps(params))):
            assert twin == params and list(vars(twin)) == field_names
            for call in (ground_state, symplectic_chain, derive):
                assert _outcome(call, twin) == _outcome(call, params)

    @given(MODELS)
    @settings(max_examples=30, deadline=None)
    def test_equality_and_hash_read_the_fields_alone(self, model):
        omega, omega0, n_atoms, ratios = model
        lams = _couplings(omega, omega0, ratios)
        used = DickeParams(lam=lams[0], omega=omega, omega0=omega0, n_atoms=n_atoms)
        _outcome(ground_state, used)
        unused = DickeParams(lam=lams[0], omega=omega, omega0=omega0, n_atoms=n_atoms)
        assert used == unused and hash(used) == hash(unused) == hash(dataclasses.astuple(unused))
        for lam in lams[1:]:
            other = DickeParams(lam=lam, omega=omega, omega0=omega0, n_atoms=n_atoms)
            assert (other == used) == (lam == lams[0])
        assert len({used, unused}) == 1
