"""Tests for the truncated Fock-space validators and FI integral oracles in tests/oracles.py."""
import math

import numpy as np
import pytest

from dicke_metrology.dicke import DickeParams, ground_state
from dicke_metrology.errors import UnphysicalStateError
from dicke_metrology.estimation import qfi
from dicke_metrology.gaussian import GaussianState
from dicke_metrology.measurements import DstsParams, dsts_params, mean_photon_decomposition
from oracles import (
    FockStateMatrix,
    build_dsts_fock,
    fi_gauss_hermite,
    fi_integral_oracle,
    fidelity_qfi,
    fixed_cutoff_probs,
    pure_overlap,
    vacuum_state,
)


def squeezed_vacuum(r):
    return GaussianState(np.zeros(2), np.diag([np.exp(2 * r) / 2, np.exp(-2 * r) / 2]))


class TestBuildDsts:
    def test_vacuum_projector(self):
        rho = build_dsts_fock(DstsParams(n_th=0.0, r=0.0, n_s=0.0, gamma=0.0), dim=10)
        expect = np.zeros((10, 10))
        expect[0, 0] = 1.0
        assert np.max(np.abs(rho.matrix - expect)) < 1e-14

    def test_thermal_diagonal(self):
        rho = build_dsts_fock(DstsParams(n_th=1.0, r=0.0, n_s=0.0, gamma=0.0))
        n = np.arange(rho.dim)
        expect = 1.0 / 2.0 ** (n + 1)
        assert np.max(np.abs(rho.photon_probs - expect)) < 1e-12
        assert np.max(np.abs(rho.matrix - np.diag(np.diag(rho.matrix)))) < 1e-14

    def test_mean_photons_formula(self):
        params = DstsParams(n_th=0.5, r=0.3, n_s=math.sinh(0.3) ** 2, gamma=1.2)
        rho = build_dsts_fock(params)
        expect = params.n_s + params.n_th * (1 + 2 * params.n_s) + params.gamma ** 2
        assert rho.mean_photons == pytest.approx(expect, rel=1e-8)

    def test_trace_monotone_in_dim(self):
        from oracles import _build_once

        params = DstsParams(n_th=0.5, r=0.5, n_s=math.sinh(0.5) ** 2, gamma=1.5)
        # truncation-dominated regime; past convergence only roundoff moves
        traces = [_build_once(params, dim)[1] for dim in (8, 11, 15, 20)]
        assert traces == sorted(traces)
        assert traces[0] < 1.0 - 1e-6
        assert _build_once(params, 70)[1] == pytest.approx(1.0, abs=1e-9)

    def test_insufficient_dim_raises(self):
        params = DstsParams(n_th=1.0, r=0.8, n_s=math.sinh(0.8) ** 2, gamma=2.0)
        with pytest.raises(ValueError):
            build_dsts_fock(params, dim=12)

    def test_validation_rejects_bad_trace(self):
        m = np.eye(4, dtype=complex) * 0.2
        with pytest.raises(UnphysicalStateError):
            FockStateMatrix(4, m)

    def test_validation_rejects_non_hermitian(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        m[0, 1] = 0.5
        with pytest.raises(UnphysicalStateError):
            FockStateMatrix(4, m)


class TestPureOverlap:
    def test_identical(self):
        state = squeezed_vacuum(0.4)
        assert pure_overlap(state, state) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_vs_squeezed(self):
        r = 0.9
        val = pure_overlap(vacuum_state(1), squeezed_vacuum(r))
        assert val == pytest.approx(1 / np.cosh(r), rel=1e-12)

    def test_symmetric(self):
        s1 = ground_state(DickeParams(lam=0.3))
        s2 = ground_state(DickeParams(lam=0.35))
        assert pure_overlap(s1, s2) == pytest.approx(pure_overlap(s2, s1), rel=1e-14)

    def test_displaced_pair(self):
        # two coherent states: overlap e^{-|delta|^2 / 2} in these units
        s1 = GaussianState(np.array([1.0, 0.0]), np.eye(2) / 2)
        s2 = GaussianState(np.array([0.0, 1.0]), np.eye(2) / 2)
        assert pure_overlap(s1, s2) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_rejects_mixed_input(self):
        thermal = GaussianState(np.zeros(2), 1.5 * np.eye(2))
        with pytest.raises(UnphysicalStateError):
            pure_overlap(thermal, vacuum_state(1))

    def test_fidelity_qfi_matches(self):
        def state_at(lam):
            return ground_state(DickeParams(lam=lam))

        h_fid = fidelity_qfi(state_at, 0.3, 1e-5)
        assert h_fid == pytest.approx(qfi(DickeParams(lam=0.3)).qfi, rel=1e-3)


class TestFiIntegralOracle:
    def test_gaussian_location(self):
        sigma2 = 0.7

        def pdf(lam, x):
            return np.exp(-((x - lam) ** 2) / (2 * sigma2)) / np.sqrt(2 * np.pi * sigma2)

        grid = np.linspace(-9, 11, 20001)
        fi = fi_integral_oracle(pdf, 1.0, 1e-5, grid)
        assert fi == pytest.approx(1 / sigma2, rel=1e-8)

    def test_gaussian_scale(self):
        # variance family v(lam) = lam: FI = 1 / (2 lam^2)
        def pdf(lam, x):
            return np.exp(-(x ** 2) / (2 * lam)) / np.sqrt(2 * np.pi * lam)

        grid = np.linspace(-16, 16, 40001)
        fi = fi_integral_oracle(pdf, 1.3, 1e-6, grid)
        assert fi == pytest.approx(1 / (2 * 1.3 ** 2), rel=1e-7)

    def test_poisson_family(self):
        # mean mu(lam) = lam^2: FI = (2 lam)^2 / lam^2 = 4
        def pmf(lam, n):
            mu = lam ** 2
            return np.exp(n * np.log(mu) - mu - [math.lgamma(v + 1) for v in n])

        grid = np.arange(200)
        fi = fi_integral_oracle(pmf, 2.0, 1e-6, grid, discrete=True)
        assert fi == pytest.approx(4.0, rel=1e-8)

    def test_unnormalized_rejected(self):
        def pdf(lam, x):
            return np.full_like(x, 0.01)

        with pytest.raises(ValueError):
            fi_integral_oracle(pdf, 1.0, 1e-5, np.linspace(-1, 1, 101))


class TestGaussHermite:
    def test_location_family(self):
        def pdf(lam, x):
            return np.exp(-((x - lam) ** 2)) / np.sqrt(np.pi)

        fi = fi_gauss_hermite(pdf, 0.4, 1e-6, center=0.4, scale=1.0)
        assert fi == pytest.approx(2.0, rel=1e-8)

    def test_center_scale_shift(self):
        # far-displaced narrow family: quadrature must follow the bulk
        def pdf(lam, x):
            return np.exp(-((x - 30 * lam) ** 2) / 0.02) / np.sqrt(0.02 * np.pi)

        fi = fi_gauss_hermite(pdf, 1.0, 1e-7, center=30.0, scale=0.1)
        assert fi == pytest.approx(30 ** 2 / 0.01, rel=1e-6)


def test_spec_point_against_photon_series():
    # DSTS (0.5, 0.3, 1.2): diagonal of the density matrix against the series
    state_cov = np.diag(
        [(0.5 + 0.5) * np.exp(0.6), (0.5 + 0.5) * np.exp(-0.6)]
    )
    state = GaussianState(np.array([1.2 * np.sqrt(2.0), 0.0]), state_cov)
    d = dsts_params(state)
    rho = build_dsts_fock(d, dim=80)
    probs = fixed_cutoff_probs(state, 30)
    assert np.max(np.abs(probs - rho.photon_probs[:31])) < 1e-8
    assert mean_photon_decomposition(state).total == pytest.approx(
        rho.mean_photons, rel=1e-8
    )
