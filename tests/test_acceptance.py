"""Acceptance gate: eleven numbered criteria, one test and one verdict line each.

Each test prints `CRITERION n: ... PASS|FAIL` before asserting, so the verdict
survives in captured output; under `pytest -v` the per-test PASSED/FAILED line
carries the same information.  Criteria 1, 3 and 7 fail honestly: the measured
values are printed and the analysis lives in the project notes, not here.
"""
import math
import time

import numpy as np
import pytest

from dicke_metrology.dicke import (
    DickeParams,
    ground_state,
    symplectic_chain,
)
from dicke_metrology.estimation import (
    fit_power_law,
    qfi,
    sld_coefficients,
    sld_coefficients_f1_frame,
)
from dicke_metrology.gaussian import (
    GaussianState,
    log_negativity,
    symplectic_form,
)
from dicke_metrology.measurements import (
    DstsParams,
    HomodyneSetting,
    Target,
    fi_homodyne,
    fi_photon_counting,
    mean_photon_decomposition,
    photon_distribution,
)
from oracles import build_dsts_fock, closed_form_cov, fidelity_qfi, fixed_cutoff_probs, purity

LAMBDA_C = 0.5  # resonant omega = omega0 = 1 throughout


def verdict(n, label, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"CRITERION {n}: {label} ... {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def test_criterion_01_qfi_critical_scaling():
    t0 = time.perf_counter()
    offsets = np.logspace(-2, -3, 9)
    fits = {}
    for side, sign in (("normal", -1), ("superradiant", 1)):
        samples = [
            (LAMBDA_C + sign * d, qfi(DickeParams(lam=LAMBDA_C + sign * d)).qfi)
            for d in offsets
        ]
        fits[side] = fit_power_law(samples, LAMBDA_C)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0
    for side, (exponent, prefactor) in fits.items():
        ok = ok and abs(exponent + 2.0) <= 0.05 and abs(prefactor - 0.125) <= 0.05 * 0.125
    detail = "; ".join(
        f"{side}: exp={fits[side][0]:.4f}, pref={fits[side][1]:.4f}" for side in fits
    )
    verdict(1, "QFI critical scaling 1/(8 d^2) on both sides", ok, f"{detail}; {elapsed:.2f}s")
    assert elapsed < 1.0
    for side, (exponent, prefactor) in fits.items():
        assert exponent == pytest.approx(-2.0, abs=0.05), side
        assert prefactor == pytest.approx(0.125, rel=0.05), side


def test_criterion_02_qfi_limits():
    h_zero = qfi(DickeParams(lam=1e-4)).qfi
    h_inf = qfi(DickeParams(lam=50.0, n_atoms=100)).qfi
    ok = abs(h_zero - 1.0) <= 1e-3 and abs(h_inf - 400.0) <= 4.0
    verdict(2, "QFI limits 4/(w+w0)^2 and 4N/w^2", ok, f"H(0+)={h_zero:.6f}, H(50)={h_inf:.3f}")
    assert h_zero == pytest.approx(1.0, abs=1e-3)
    assert h_inf == pytest.approx(400.0, rel=0.01)


def test_criterion_03_homodyne_optimal_at_criticality():
    ratios = {}
    for sign in (-1, 1):
        params = DickeParams(lam=LAMBDA_C + sign * 1e-3)
        h = qfi(params).qfi
        for phi in (0.0, np.pi / 3):
            for target in (Target.RADIATION, Target.ATOMS):
                r = fi_homodyne(params, HomodyneSetting(phi, target)) / h
                ratios[(sign, phi, target.value)] = r
    ok = all(0.99 <= r <= 1.0 + 1e-6 for r in ratios.values())
    worst = min(ratios, key=ratios.get)
    verdict(
        3,
        "homodyne FI/H in [0.99, 1] at offset 1e-3",
        ok,
        f"worst={ratios[worst]:.4f} at side={worst[0]:+d}, phi={worst[1]:.3f}, {worst[2]}",
    )
    for key, r in sorted(ratios.items(), key=lambda kv: kv[1]):
        assert 0.99 <= r <= 1.0 + 1e-6, f"{key}: ratio {r:.4f}"


def test_criterion_04_homodyne_large_coupling_limit():
    params = DickeParams(lam=50.0, n_atoms=100)
    h = qfi(params).qfi
    rad = {
        phi: fi_homodyne(params, HomodyneSetting(phi, Target.RADIATION)) / h
        for phi in (0.0, np.pi / 6, np.pi / 3)
    }
    atomic = fi_homodyne(params, HomodyneSetting(0.0, Target.ATOMS)) / h
    ok = all(
        abs(r - np.cos(phi) ** 2) <= 0.01 * np.cos(phi) ** 2 for phi, r in rad.items()
    ) and atomic < 1e-3
    verdict(
        4,
        "homodyne FI/H -> cos^2(phi) at lam=50, atoms blind",
        ok,
        f"ratios={[f'{r:.5f}' for r in rad.values()]}, atoms={atomic:.2e}",
    )
    for phi, r in rad.items():
        assert r == pytest.approx(np.cos(phi) ** 2, rel=0.01)
    assert atomic < 1e-3


def test_criterion_05_homodyne_small_coupling_limit():
    # resonant normal-phase ratios: 4.5 lam^2 at phi=0, 0.5 lam^2 at phi=pi/4,
    # identical for the two subsystems since the frequencies coincide
    params = DickeParams(lam=1e-2)
    h = qfi(params).qfi
    expected = {0.0: 4.5e-4, np.pi / 4: 0.5e-4}
    ratios = {
        (phi, target.value): fi_homodyne(params, HomodyneSetting(phi, target)) / h
        for phi in expected
        for target in (Target.RADIATION, Target.ATOMS)
    }
    ok = all(abs(r - expected[phi]) <= 0.05 * expected[phi] for (phi, _), r in ratios.items())
    verdict(
        5,
        "homodyne FI/H matches normal-phase lam^2 laws at lam=0.01",
        ok,
        ", ".join(f"{k[1]}@{k[0]:.2f}: {v:.4e}" for k, v in ratios.items()),
    )
    for (phi, target), r in ratios.items():
        assert r == pytest.approx(expected[phi], rel=0.05), (phi, target)


def test_criterion_06_photon_statistics_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260819)
    worst_abs, worst_sum, worst_mean = 0.0, 0.0, 0.0
    for _ in range(20):
        n_th = float(rng.uniform(0.0, 2.0))
        r = float(rng.uniform(-1.0, 1.0))
        gamma = float(rng.uniform(-2.0, 2.0))
        cov = np.diag([(0.5 + n_th) * np.exp(2 * r), (0.5 + n_th) * np.exp(-2 * r)])
        state = GaussianState(np.array([gamma * np.sqrt(2.0), 0.0]), cov)
        series = fixed_cutoff_probs(state, 30)
        fock = build_dsts_fock(
            DstsParams(n_th=n_th, r=r, n_s=math.sinh(r) ** 2, gamma=gamma)
        )
        worst_abs = max(worst_abs, float(np.max(np.abs(series - fock.photon_probs[:31]))))
        full = photon_distribution(state)
        worst_sum = max(worst_sum, abs(math.fsum(full.probs) - 1.0))
        mean_series = float(np.arange(full.probs.size) @ full.probs)
        total = mean_photon_decomposition(state).total
        if total > 0:
            worst_mean = max(worst_mean, abs(mean_series - total) / total)
    elapsed = time.perf_counter() - t0
    ok = worst_abs <= 1e-8 and worst_sum <= 1e-8 and worst_mean <= 1e-6 and elapsed < 30.0
    verdict(
        6,
        "photon series vs Fock oracle over 20 random states",
        ok,
        f"|dp|={worst_abs:.1e}, |sum-1|={worst_sum:.1e}, mean rel={worst_mean:.1e}, {elapsed:.1f}s",
    )
    assert worst_abs <= 1e-8
    assert worst_sum <= 1e-8
    assert worst_mean <= 1e-6
    assert elapsed < 30.0


def test_criterion_07_photon_counting_near_optimality():
    def ratio(lam):
        params = DickeParams(lam=lam, n_atoms=100)
        return fi_photon_counting(params) / qfi(params).qfi

    near = {lam: ratio(lam) for lam in (0.49, 0.51)}
    monotone = {}
    for sign in (-1, 1):
        seq = [ratio(LAMBDA_C + sign * d) for d in (0.1, 0.05, 0.02, 0.01)]
        monotone[sign] = seq
    ok = all(r >= 0.9 for r in near.values()) and all(
        seq == sorted(seq) for seq in monotone.values()
    )
    verdict(
        7,
        "photon counting FI/H >= 0.9 near lam_c and rising toward it",
        ok,
        f"near={[f'{v:.3f}' for v in near.values()]}, "
        f"normal={[f'{v:.3f}' for v in monotone[-1]]}, "
        f"superradiant={[f'{v:.3f}' for v in monotone[1]]}",
    )
    for lam, r in near.items():
        assert r >= 0.9, f"lam={lam}: ratio {r:.4f}"
    for sign, seq in monotone.items():
        assert seq == sorted(seq), f"side {sign:+d}: {[f'{v:.4f}' for v in seq]}"


def test_criterion_08_fidelity_oracle_equivalence():
    def state_at(lam):
        return ground_state(DickeParams(lam=lam))

    worst = 0.0
    for lam in (0.1, 0.3, 0.45, 0.6, 1.0, 2.0):
        h = qfi(DickeParams(lam=lam)).qfi
        h_fid = fidelity_qfi(state_at, lam, 1e-5)
        worst = max(worst, abs(h - h_fid) / h)
    ok = worst < 1e-3
    verdict(8, "QFI equals fidelity oracle to 1e-3", ok, f"worst rel dev {worst:.1e}")
    assert worst < 1e-3


def test_criterion_09_structural_suite():
    grid = np.linspace(0.01, 2.0, 200)
    grid = grid[np.abs(grid - LAMBDA_C) >= 1e-4]
    omega = symplectic_form(2)
    worst = dict(purity=0.0, symplectic=0.0, nu=0.0, closed_form=0.0)
    for lam in grid:
        params = DickeParams(lam=float(lam))
        f = symplectic_chain(params)
        state = ground_state(params)
        worst["purity"] = max(worst["purity"], abs(purity(state.cov) - 1.0))
        worst["symplectic"] = max(
            worst["symplectic"], float(np.max(np.abs(f @ omega @ f.T - omega)))
        )
        worst["nu"] = max(worst["nu"], abs(sld_coefficients(params).nu))
        worst["closed_form"] = max(
            worst["closed_form"],
            float(np.max(np.abs(f @ (np.eye(4) / 2.0) @ f.T - closed_form_cov(params)))),
        )
    ok = (
        worst["purity"] <= 1e-10
        and worst["symplectic"] < 1e-10
        and worst["nu"] <= 1e-6
        and worst["closed_form"] <= 1e-10
    )
    verdict(
        9,
        "purity, symplectic law, nu, closed-form cov on 199-point grid",
        ok,
        ", ".join(f"{k}={v:.1e}" for k, v in worst.items()),
    )
    assert worst["purity"] <= 1e-10
    assert worst["symplectic"] < 1e-10
    assert worst["nu"] <= 1e-6
    assert worst["closed_form"] <= 1e-10


def test_criterion_10_entanglement_curve_shape():
    grid = np.linspace(0.0, 1.0, 101)
    step = grid[1] - grid[0]
    values = {}
    for lam in grid:
        if abs(lam - LAMBDA_C) < 1e-4:
            continue
        values[float(lam)] = log_negativity(ground_state(DickeParams(lam=float(lam))).cov)
    at_zero = values[0.0]
    interior = [values[l] for l in values if 0 < l < LAMBDA_C]
    lam_max = max(values, key=values.get)
    ok = at_zero == 0.0 and all(v > 0 for v in interior) and abs(lam_max - LAMBDA_C) <= step + 1e-12
    verdict(
        10,
        "log-negativity zero at 0, positive below lam_c, peaked at lam_c",
        ok,
        f"E_N(0)={at_zero}, max at lam={lam_max:.2f}",
    )
    assert at_zero == 0.0
    assert all(v > 0 for v in interior)
    assert abs(lam_max - LAMBDA_C) <= step + 1e-12


def test_criterion_11_sld_asymptotics():
    samples = []
    for dist in np.logspace(-2, -3, 9):
        lam = LAMBDA_C - dist
        phi = sld_coefficients_f1_frame(DickeParams(lam=lam)).phi
        samples.append((lam, float(np.max(np.abs(phi)))))
    exponent, _ = fit_power_law(samples, LAMBDA_C)
    norms = [
        float(np.linalg.norm(sld_coefficients_f1_frame(DickeParams(lam=LAMBDA_C + d)).zeta))
        for d in (1e-3, 2e-3, 5e-3, 1e-2)
    ]
    spread = (max(norms) - min(norms)) / (max(norms) + min(norms))
    ok = abs(exponent + 1.5) <= 0.05 and spread <= 0.02
    verdict(
        11,
        "SLD quadratic exponent -3/2 and plateauing linear term",
        ok,
        f"exp={exponent:.4f}, zeta spread={spread:.4f}",
    )
    assert exponent == pytest.approx(-1.5, abs=0.05)
    assert spread <= 0.02
