"""Tests for the Gaussian-state layer: moments, symplectic maps, spectra."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dicke_metrology.gaussian import (
    GaussianState,
    _symmetrized,
    SingularCovarianceError,
    SymplecticSpectrum,
    UnphysicalStateError,
    log_negativity,
    partial_trace,
    require_symplectic,
    state_to_dict,
    symplectic_form,
    symplectic_spectrum,
    wigner_at,
)
from oracles import characteristic_function_at, purity, two_call_spectrum, vacuum_state


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def squeezer(r):
    return np.diag([np.exp(r), np.exp(-r)])


def beamsplitter(theta):
    # orthogonal symplectic mix of two modes in (x1, p1, x2, p2) ordering
    c, s = np.cos(theta), np.sin(theta)
    return np.array(
        [
            [c, 0.0, s, 0.0],
            [0.0, c, 0.0, s],
            [-s, 0.0, c, 0.0],
            [0.0, -s, 0.0, c],
        ]
    )


def random_symplectic_1mode(rng):
    # Euler decomposition covers all of Sp(2, R)
    m = rotation(rng.uniform(0, 2 * np.pi)) @ squeezer(rng.uniform(-1.5, 1.5))
    return m @ rotation(rng.uniform(0, 2 * np.pi))


def random_symplectic_2mode(rng):
    blocks = np.zeros((4, 4))
    blocks[:2, :2] = random_symplectic_1mode(rng)
    blocks[2:, 2:] = random_symplectic_1mode(rng)
    tail = np.zeros((4, 4))
    tail[:2, :2] = rotation(rng.uniform(0, 2 * np.pi))
    tail[2:, 2:] = squeezer(rng.uniform(-0.8, 0.8))
    return beamsplitter(rng.uniform(0, 2 * np.pi)) @ blocks @ tail


class TestSymplecticForm:
    def test_one_mode(self):
        assert np.array_equal(symplectic_form(1), np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_block_structure(self):
        omega = symplectic_form(3)
        assert omega.shape == (6, 6)
        assert np.array_equal(omega[2:4, 2:4], symplectic_form(1))
        assert np.array_equal(omega.T, -omega)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            symplectic_form(0)


class TestGaussianState:
    def test_vacuum(self):
        vac = vacuum_state(2)
        assert vac.n_modes == 2
        assert np.array_equal(vac.mean, np.zeros(4))
        assert np.array_equal(vac.cov, np.eye(4) / 2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GaussianState(np.zeros(2), np.eye(4) / 2)

    def test_odd_mean_rejected(self):
        with pytest.raises(ValueError):
            GaussianState(np.zeros(3), np.eye(3) / 2)

    def test_asymmetric_cov_rejected(self):
        cov = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(ValueError):
            GaussianState(np.zeros(2), cov)

    def test_cov_symmetrized(self):
        # tiny asymmetry below tolerance is averaged away
        cov = np.eye(2) / 2
        cov[0, 1] = 1e-12
        state = GaussianState(np.zeros(2), cov)
        assert np.array_equal(state.cov, state.cov.T)

    def test_stack_checked_member_by_member(self):
        # the rule GaussianState applies, run once over a stack of covariances
        rng = np.random.default_rng(3)
        covs = rng.normal(size=(5, 2, 2))
        covs = covs @ np.swapaxes(covs, -1, -2) + 1e-9 * rng.normal(size=(5, 2, 2))
        stacked = _symmetrized(covs)
        for cov, member in zip(covs, stacked):
            assert np.array_equal(member, GaussianState(np.zeros(2), cov).cov)
        covs[3, 0, 1] += 0.1
        with pytest.raises(ValueError, match="symmetric"):
            _symmetrized(covs)

    def test_roundtrip_dict(self):
        rng = np.random.default_rng(7)
        f = random_symplectic_2mode(rng)
        state = GaussianState(rng.normal(size=4), f @ (np.eye(4) / 2) @ f.T)
        data = state_to_dict(state)
        again = GaussianState(np.asarray(data["mean"]), np.asarray(data["cov"]))
        assert data["modes"] == again.n_modes == 2
        assert np.array_equal(again.mean, state.mean)
        assert np.array_equal(again.cov, state.cov)


class TestSymplecticTransform:
    def test_identity(self):
        require_symplectic(np.eye(2))

    def test_squeezer_accepted(self):
        require_symplectic(squeezer(0.5))

    def test_non_symplectic_rejected(self):
        with pytest.raises(ValueError):
            require_symplectic(np.diag([2.0, 1.0]))

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_symplectic_law_and_det(self, seed):
        f = random_symplectic_2mode(np.random.default_rng(seed))
        omega = symplectic_form(2)
        assert np.max(np.abs(f @ omega @ f.T - omega)) < 1e-10 * max(1.0, np.max(np.abs(f)) ** 2)
        assert abs(np.linalg.det(f) - 1.0) < 1e-10 * max(1.0, np.max(np.abs(f)) ** 4)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_purity_preserved(self, seed):
        rng = np.random.default_rng(seed)
        f, d = random_symplectic_2mode(rng), rng.normal(size=4)
        thermal = GaussianState(np.zeros(4), np.diag([0.5, 0.5, 1.7, 1.7]))
        out = GaussianState(f @ thermal.mean + d, f @ thermal.cov @ f.T)
        assert purity(out.cov) == pytest.approx(purity(thermal.cov), abs=1e-10)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_vacuum_conjugation_stays_pure(self, seed):
        rng = np.random.default_rng(seed)
        f = random_symplectic_2mode(rng)
        out = GaussianState(np.zeros(4), f @ vacuum_state(2).cov @ f.T)
        spec = symplectic_spectrum(out.cov)
        assert spec.d_minus == pytest.approx(0.5, abs=1e-10)
        assert spec.d_plus == pytest.approx(0.5, abs=1e-10)


class TestPartialTrace:
    def test_product_vacua(self):
        reduced = partial_trace(vacuum_state(2), [0])
        assert np.array_equal(reduced.cov, np.eye(2) / 2)
        assert np.array_equal(reduced.mean, np.zeros(2))

    def test_block_slicing(self):
        rng = np.random.default_rng(3)
        f = random_symplectic_2mode(rng)
        state = GaussianState(rng.normal(size=4), f @ (np.eye(4) / 2) @ f.T)
        reduced = partial_trace(state, [1])
        assert np.array_equal(reduced.cov, state.cov[2:, 2:])
        assert np.array_equal(reduced.mean, state.mean[2:])

    def test_keep_order(self):
        rng = np.random.default_rng(4)
        f = random_symplectic_2mode(rng)
        state = GaussianState(rng.normal(size=4), f @ (np.eye(4) / 2) @ f.T)
        swapped = partial_trace(state, [1, 0])
        assert np.array_equal(swapped.cov[:2, :2], state.cov[2:, 2:])
        assert np.array_equal(swapped.cov[:2, 2:], state.cov[2:, :2])

    def test_bad_index(self):
        with pytest.raises(IndexError):
            partial_trace(vacuum_state(2), [2])

    def test_duplicate_index(self):
        with pytest.raises(ValueError):
            partial_trace(vacuum_state(2), [0, 0])

    def test_empty_keep(self):
        with pytest.raises(ValueError):
            partial_trace(vacuum_state(2), [])

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_reduction_stays_physical(self, seed):
        # d_minus >= 1/2 for any reduction of a physical state
        rng = np.random.default_rng(seed)
        f = random_symplectic_2mode(rng)
        out = GaussianState(np.zeros(4), f @ vacuum_state(2).cov @ f.T)
        reduced = partial_trace(out, [0])
        ev = np.linalg.eigvals(symplectic_form(1) @ reduced.cov)
        assert np.max(np.abs(ev.imag)) >= 0.5 - 1e-10


class TestSpectrumAndEntanglement:
    def test_vacuum_spectrum(self):
        spec = symplectic_spectrum(np.eye(4) / 2)
        assert spec.d_plus == pytest.approx(0.5, abs=1e-12)
        assert spec.d_minus == pytest.approx(0.5, abs=1e-12)
        assert spec.ppt_d_minus == pytest.approx(0.5, abs=1e-12)
        assert spec.i4 == pytest.approx(1 / 16, abs=1e-14)

    def test_pure_two_mode_invariants(self):
        # pure states: det cov = 1/16 and I1 + I2 + 2 I3 = 1/2
        rng = np.random.default_rng(11)
        for _ in range(5):
            f = random_symplectic_2mode(rng)
            spec = symplectic_spectrum(f @ (np.eye(4) / 2) @ f.T)
            assert spec.i4 == pytest.approx(1 / 16, rel=1e-9)
            assert spec.i1 + spec.i2 + 2 * spec.i3 == pytest.approx(0.5, rel=1e-9)

    def test_product_state_not_entangled(self):
        cov = np.diag([np.e / 2, 1 / (2 * np.e), 0.5, 0.5])
        assert log_negativity(cov) == 0.0

    def test_two_mode_squeezed_entangled(self):
        r = 0.8
        ch, sh = np.cosh(2 * r), np.sinh(2 * r)
        cov = 0.5 * np.array(
            [
                [ch, 0.0, sh, 0.0],
                [0.0, ch, 0.0, -sh],
                [sh, 0.0, ch, 0.0],
                [0.0, -sh, 0.0, ch],
            ]
        )
        # E_N = 2r for the two-mode squeezed vacuum
        assert log_negativity(cov) == pytest.approx(2 * r, rel=1e-10)

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            symplectic_spectrum(np.eye(2) / 2)

    def test_unphysical_rejected(self):
        with pytest.raises(UnphysicalStateError):
            symplectic_spectrum(np.diag([1.0, -1.0, 1.0, 1.0]))


ANGLES = st.floats(0.0, 2 * np.pi)
SQUEEZINGS = st.floats(-3.0, 3.0)
OCCUPATIONS = st.floats(0.0, 5.0)


@st.composite
def physical_two_mode_covs(draw, pure=False):
    # local rotations and squeezers up to r = 3 on a thermal diagonal, the
    # vacuum's if pure, then a beam splitter that entangles the two squeezed modes
    blocks = np.zeros((4, 4))
    for m in (0, 1):
        blocks[2 * m:2 * m + 2, 2 * m:2 * m + 2] = rotation(draw(ANGLES)) @ squeezer(draw(SQUEEZINGS)) @ rotation(draw(ANGLES))
    f = beamsplitter(draw(ANGLES)) @ blocks
    nu = [0.5 if pure else draw(OCCUPATIONS) + 0.5 for _ in range(2)]
    return f @ np.diag([nu[0], nu[0], nu[1], nu[1]]) @ f.T


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestStacks:
    """A stack gives each matrix or point the bits it gets alone."""

    FIELDS = ("d_plus", "d_minus", "ppt_d_plus", "ppt_d_minus", "i1", "i2", "i3", "i4", "log_negativity")

    @given(st.lists(physical_two_mode_covs(), min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_spectrum_of_a_stack_is_the_spectrum_of_each(self, covs):
        stack = symplectic_spectrum(np.stack(covs))
        for i, cov in enumerate(covs):
            alone = symplectic_spectrum(cov)
            for field in self.FIELDS:
                assert isinstance(getattr(alone, field), np.float64), field
                assert same_bits(getattr(stack, field)[i], getattr(alone, field)), (i, field)

    @given(st.lists(st.one_of(physical_two_mode_covs(pure=True), physical_two_mode_covs()), min_size=1, max_size=6))
    # diagonal states, whose zero entries carry either sign: the flip's matrix
    # products turned each into +0.0, where the sign flip keeps it
    @example([np.where(np.eye(4) == 1.0, np.diag([0.5, 0.5, 2.0, 0.125]), -0.0)])
    @example([np.eye(4) / 2, np.where(np.eye(4) == 1.0, np.diag([3.0, 1 / 12, 0.5, 0.5]), -0.0)])
    @settings(max_examples=150, deadline=None)
    def test_spectrum_has_the_bits_of_the_two_call_form(self, covs):
        # the state and its partial transpose in one eigenvalue call, the p2
        # flip as signs: each matrix, alone or stacked, keeps the bits of one
        # call per matrix with the flip as diagonal matrix products
        for cov in [*covs, np.stack(covs)]:
            spec = symplectic_spectrum(cov)
            former = two_call_spectrum(cov)
            for field, value in zip(("d_plus", "d_minus", "ppt_d_plus", "ppt_d_minus"), former):
                assert same_bits(getattr(spec, field), value), field

    @given(st.lists(physical_two_mode_covs(), min_size=1, max_size=4), st.integers(0, 4))
    @settings(max_examples=50, deadline=None)
    def test_one_unphysical_matrix_fails_the_stack(self, covs, at):
        covs.insert(min(at, len(covs)), np.diag([1.0, -1.0, 1.0, 1.0]))
        with pytest.raises(UnphysicalStateError):
            symplectic_spectrum(np.stack(covs))

    def test_subnormal_correlations_raise_no_warning(self):
        # det of a C block of subnormal entries warned of a division by zero,
        # an error under this suite's warning filter, and returns 0.0
        cov = 1.5 * np.eye(4)
        cov[:2, 2:] = [[0.0, -5e-324], [5e-324, 0.0]]
        cov[2:, :2] = cov[:2, 2:].T
        spec = symplectic_spectrum(np.stack([np.eye(4) / 2, cov]))
        assert spec.i3.tolist() == [0.0, 0.0] and spec.d_minus[1] == pytest.approx(1.5)

    def test_nested_stack_keeps_its_shape(self):
        covs = np.stack([np.eye(4) / 2, np.diag([np.e / 2, 1 / (2 * np.e), 0.5, 0.5])] * 3).reshape(3, 2, 4, 4)
        assert symplectic_spectrum(covs).log_negativity.shape == (3, 2)

    def test_log_negativity_reads_a_negative_zero_as_zero(self):
        # max(0.0, -0.0) is 0.0; so is E_N where 2 ppt_d_minus is exactly 1
        for ppt, e_n in ((0.5, 0.0), (np.array([0.5, 0.25]), np.array([0.0, np.log(2.0)]))):
            spec = SymplecticSpectrum(*[ppt] * 8)
            assert same_bits(spec.log_negativity, e_n)

    @given(SQUEEZINGS, ANGLES, OCCUPATIONS, st.lists(st.tuples(st.floats(-30, 30), st.floats(-30, 30)), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_wigner_of_a_point_stack_is_the_wigner_of_each(self, r, angle, n_th, points):
        f = rotation(angle) @ squeezer(r)
        state = GaussianState(np.array([1.5, -0.5]), (n_th + 0.5) * f @ f.T)
        points = np.array(points)
        values = wigner_at(state, points)
        assert values.shape == (len(points),)
        for point, value in zip(points, values):
            alone = wigner_at(state, point)
            assert isinstance(alone, np.float64)
            assert same_bits(value, alone)
        # a (1, n, 2) stack keeps its leading shape and its bits
        assert same_bits(wigner_at(state, points[None]), values[None])



# entries of the symmetric matrices below, -0.0 among them
ENTRIES = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1.5, 2.0, 3.0]


@st.composite
def symmetric_matrices(draw):
    # every combination of the state's and the partial transpose's checks,
    # each passed or failed, occurs among these
    upper = np.triu_indices(4)
    m = np.empty((4, 4))
    m[upper] = m.T[upper] = draw(st.lists(st.sampled_from(ENTRIES), min_size=10, max_size=10))
    return m


@st.composite
def diagonal_covs_with_negative_zeros(draw):
    nu = [draw(OCCUPATIONS) + 0.5 for _ in range(2)]
    r = [draw(SQUEEZINGS) for _ in range(2)]
    diag = np.diag([nu[0] * np.exp(r[0]), nu[0] * np.exp(-r[0]), nu[1] * np.exp(r[1]), nu[1] * np.exp(-r[1])])
    return np.where(np.eye(4) == 1.0, diag, -0.0)


# one matrix per outcome of the checks of the state and of its partial
# transpose: a failed discriminant check ("disc"), a failed eigenvalue check
# ("eig") or none ("ok")
CHECK_OUTCOMES = {
    ("ok", "ok"): [[1.0, -0.5, 1.0, -0.5], [-0.5, 1.0, -0.5, 1.0], [1.0, -0.5, 3.0, -0.5], [-0.5, 1.0, -0.5, 2.0]],
    ("eig", "ok"): [[1.0, 0.5, -0.5, 3.0], [0.5, 3.0, 2.0, 1.5], [-0.5, 2.0, 1.0, 0.5], [3.0, 1.5, 0.5, 3.0]],
    ("ok", "eig"): [[0.0, 0.0, 1.0, -1.0], [0.0, 1.0, 3.0, -1.0], [1.0, 3.0, 1.5, 0.5], [-1.0, -1.0, 0.5, 0.0]],
    ("eig", "eig"): [[1.5, -1.0, -0.5, 1.0], [-1.0, 0.0, 0.0, 0.0], [-0.5, 0.0, -1.0, 3.0], [1.0, 0.0, 3.0, -1.0]],
    ("disc", "ok"): [[-1.0, -0.5, 0.0, 1.5], [-0.5, -0.5, 1.0, 1.5], [0.0, 1.0, 1.0, 1.0], [1.5, 1.5, 1.0, 2.0]],
    ("ok", "disc"): [[1.5, 1.5, 1.0, -0.5], [1.5, 2.0, 3.0, 1.0], [1.0, 3.0, -1.0, 0.0], [-0.5, 1.0, 0.0, 0.5]],
    ("disc", "disc"): [[-1.0, -0.5, -0.5, 3.0], [-0.5, 1.5, -1.0, 0.0], [-0.5, -1.0, -0.5, 0.0], [3.0, 0.0, 0.0, 0.5]],
    ("disc", "eig"): [[0.0, 1.5, 0.0, -0.5], [1.5, 1.0, 2.0, 2.0], [0.0, 2.0, 0.0, 0.0], [-0.5, 2.0, 0.0, -1.0]],
    ("eig", "disc"): [[0.5, 0.0, 1.5, 1.0], [0.0, -0.5, 1.5, -0.5], [1.5, 1.5, 0.0, -0.5], [1.0, -0.5, -0.5, 2.0]],
}


def outcome(read):
    """The value of read(), or the type and message of what it raised."""
    try:
        return read()
    except Exception as exc:  # the error is the outcome
        return type(exc), str(exc)


class TestLogNegativity:
    """log_negativity reads the partial transpose alone, with the bits and
    the errors of `symplectic_spectrum(cov).log_negativity`."""

    @given(
        st.lists(
            st.one_of(
                physical_two_mode_covs(), physical_two_mode_covs(pure=True),
                diagonal_covs_with_negative_zeros(), symmetric_matrices(),
            ),
            min_size=1,
            max_size=4,
        )
    )
    @example([np.array(cov) for cov in CHECK_OUTCOMES.values()])
    @settings(max_examples=200, deadline=None)
    def test_log_negativity_has_the_bits_and_errors_of_the_spectrum(self, covs):
        for cov in [*covs, np.stack(covs)]:
            expected = outcome(lambda: symplectic_spectrum(cov).log_negativity)
            got = outcome(lambda: log_negativity(cov))
            if isinstance(expected, tuple):
                assert got == expected
            else:
                assert type(got) is type(expected) and same_bits(got, expected)

    @pytest.mark.parametrize("checks", list(CHECK_OUTCOMES))
    def test_both_discriminants_are_checked_before_either_eigenvalue(self, checks):
        cov = np.array(CHECK_OUTCOMES[checks])
        if "disc" in checks:
            expected = "negative discriminant"
        elif "eig" in checks:
            expected = "negative squared symplectic eigenvalue"
        else:
            assert log_negativity(cov) == symplectic_spectrum(cov).log_negativity
            return
        for read in (log_negativity, symplectic_spectrum):
            with pytest.raises(UnphysicalStateError, match=expected):
                read(cov)


class TestPurity:
    def test_vacuum(self):
        assert purity(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_thermal(self):
        # n_th = 1: cov = (3/2) I, purity 1/(2 n_th + 1)
        assert purity(1.5 * np.eye(2)) == pytest.approx(1 / 3, abs=1e-12)

    def test_two_mode_vacuum(self):
        assert purity(np.eye(4) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_singular(self):
        with pytest.raises(SingularCovarianceError):
            purity(np.diag([1.0, 0.0]))


class TestWignerAndCharacteristic:
    def test_chi_at_zero(self):
        assert characteristic_function_at(vacuum_state(1), np.zeros(2)) == 1.0 + 0.0j

    def test_chi_vacuum(self):
        val = characteristic_function_at(vacuum_state(1), np.array([1.0, 0.0]))
        assert val == pytest.approx(np.exp(-0.25), abs=1e-14)

    def test_chi_displaced_phase(self):
        state = GaussianState(np.array([2.0, 0.0]), np.eye(2) / 2)
        val = characteristic_function_at(state, np.array([0.0, 1.0]))
        # Lambda^T Omega mean = -2 for Lambda = (0, 1)
        assert val == pytest.approx(np.exp(-0.25) * np.exp(2j), abs=1e-14)

    def test_wigner_vacuum_origin(self):
        assert wigner_at(vacuum_state(1), np.zeros(2)) == pytest.approx(1 / np.pi, abs=1e-14)

    def test_wigner_vacuum_offset(self):
        val = wigner_at(vacuum_state(1), np.array([1.0, 0.0]))
        assert val == pytest.approx(np.exp(-1.0) / np.pi, abs=1e-14)

    def test_wigner_normalization(self):
        f = squeezer(0.6) @ rotation(0.3)
        state = GaussianState(np.array([0.7, -0.2]), f @ vacuum_state(1).cov @ f.T)
        xs = np.linspace(-9, 9, 321)
        grid = wigner_at(state, np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1))
        dx = xs[1] - xs[0]
        assert np.trapezoid(np.trapezoid(grid, dx=dx), dx=dx) == pytest.approx(1.0, abs=1e-6)

    def test_wigner_matches_chi_fourier(self):
        # W(R) = (2 pi)^-2 integral of chi(Lambda) exp(i Lambda^T Omega R)
        f = squeezer(0.4)
        state = GaussianState(np.array([0.5, 0.1]), f @ vacuum_state(1).cov @ f.T)
        point = np.array([0.8, -0.3])
        omega = symplectic_form(1)
        ls = np.linspace(-12, 12, 601)
        dl = ls[1] - ls[0]
        lams = np.stack(np.meshgrid(ls, ls, indexing="ij"), axis=-1)
        vals = characteristic_function_at(state, lams) * np.exp(1j * lams @ omega @ point)
        integral = np.trapezoid(np.trapezoid(vals, dx=dl), dx=dl) / (2 * np.pi) ** 2
        assert abs(integral.imag) < 1e-8
        assert integral.real == pytest.approx(wigner_at(state, point), abs=1e-4)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            wigner_at(vacuum_state(1), np.zeros(4))
        with pytest.raises(ValueError):
            characteristic_function_at(vacuum_state(2), np.zeros(2))
