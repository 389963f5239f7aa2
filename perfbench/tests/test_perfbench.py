"""Tests of the benchmark itself: inputs, checks, failure accounting, tracing."""
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from dicke_metrology import _kernels  # noqa: E402
from perfbench import calibrate, checks, harness, setup_time, trace, workloads  # noqa: E402

POINT_WORKLOADS = (workloads.GAUSSIAN_SWEEP, workloads.PHOTON_TABLES)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def reference():
    return checks.load_reference()


@pytest.mark.parametrize("wl", POINT_WORKLOADS, ids=lambda w: w.name)
def test_generators_are_deterministic_per_seed(wl, reference):
    assert wl.points(7) == wl.points(7)
    assert wl.points(7) != wl.points(8)
    for cell, point in zip(wl.cells, wl.points(7)):
        lattice = [cell.point(step) for step in range(workloads.JITTER_STEPS)]
        assert point in lattice
        lams = sorted(p.lam for p in lattice)
        lo, hi = sorted(cell.point(s).lam for s in (-0.5, workloads.JITTER_STEPS - 0.5))
        assert lo <= lams[0] < lams[-1] <= hi
    assert all(p.key in reference[wl.name] for p in wl.lattice())


def test_cli_inputs_are_deterministic_per_seed(reference):
    wl = workloads.CLI_SWEEPS
    assert {wl.step(7)} == {wl.step(7) for _ in range(3)}
    assert len({wl.step(s) for s in range(40)}) == workloads.JITTER_STEPS
    assert all(
        wl.ref_key(sw, step) in reference[wl.name]
        for sw in wl.sweeps
        for step in range(workloads.JITTER_STEPS)
    )


def _near_critical(wl, reference):
    point = min(wl.lattice(), key=lambda p: abs(p.lam / p.lambda_c - 1.0))
    return point, reference[wl.name][point.key]


def _perturbed(values, index, rel=1e-6):
    out = list(values)
    out[index] *= 1.0 + rel
    return out


def test_gaussian_check_rejects_value_moved_by_1e_6(reference):
    wl = workloads.GAUSSIAN_SWEEP
    point, ref = _near_critical(wl, reference)
    assert wl.check(point, list(ref), ref) is None
    for index, column in enumerate(wl.columns):
        if column.startswith("FI") or column == "H":
            failure = wl.check(point, _perturbed(ref, index), ref)
            assert failure is not None and column in failure


def test_photon_table_check_rejects_value_moved_by_1e_6(reference):
    wl = workloads.PHOTON_TABLES
    point, ref = _near_critical(wl, reference)
    probs, tail, total = wl.compute(point)
    assert wl.check(point, (probs, tail, total), ref) is None
    assert "total" in wl.check(point, (probs, tail, total * (1.0 + 1e-6)), ref)
    assert "p(n)" in wl.check(point, (-probs, tail, total), ref)


def test_cli_check_rejects_value_moved_by_1e_6_and_jobs_mismatch(reference):
    ref = reference["cli_sweeps"]["qfi|0"]
    header = "lambda,H,quadratic_term,displacement_term,status"

    def csv(rows):
        return "\n".join([header] + [",".join(f"{v!r}" for v in row) + ",ok" for row in rows]) + "\n"

    assert workloads._cli_check("qfi", 0, csv(ref), ref) is None
    moved = [list(row) for row in ref]
    moved[5] = _perturbed(moved[5], 1)
    assert "H" in workloads._cli_check("qfi", 0, csv(moved), ref)
    assert "exit code" in workloads._cli_check("qfi", 3, csv(ref), ref)
    serial = {}
    assert workloads._cli_jobs_check("qfi", (0, csv(ref)), ref, 1, serial) is None
    same_values = csv(ref).replace(",0.0,ok", ",0,ok", 1)
    assert "differs" in workloads._cli_jobs_check("qfi", (0, same_values), ref, 2, serial)


def _op(label, run, check=lambda out: None):
    return workloads.Operation(label=label, points=1, run=run, check=check)


def _raise():
    raise ValueError("boom")


def _spin():
    while True:
        pass


def test_raising_or_overrunning_operation_is_counted_not_raised():
    ops = [
        _op("raises", _raise),
        _op("spins", _spin),
        _op("wrong", lambda: 1.0, check=lambda out: "off by one"),
        _op("fine", lambda: 1.0),
    ]
    with harness.deadlines():
        loop = harness.measure(ops, deadline_s=0.05, seconds=0.0)
    reasons = {r.label: r.reason for r in loop.records}
    assert loop.passes == 1 and len(loop.records) == 4
    assert reasons["raises"] == "ValueError: boom"
    assert reasons["spins"].startswith("DeadlineExceeded")
    assert reasons["wrong"] == "wrong output: off by one"
    assert reasons["fine"] is None
    spin = next(r for r in loop.records if r.label == "spins")
    assert 0.05 <= spin.elapsed_s < 1.0
    metrics = harness.end_to_end_metrics(loop, 0.05, 1.0, 0.5)
    assert metrics["ok_ratio"][0] == 0.25
    assert metrics["point_p90_ms"][0] == pytest.approx(50.0)


def test_times_scale_with_host_speed_factor():
    ops = [_op(f"op{i}", lambda: 1.0) for i in range(3)]
    probe = calibrate.Probe(interval_s=0.0)
    with harness.deadlines():
        loop = harness.measure(ops, deadline_s=1.0, seconds=0.0, probe=probe)
    assert len(probe.samples) == len(ops)
    assert probe.factor == pytest.approx(calibrate.REFERENCE_S / (sum(probe.samples) / len(ops)))
    unscaled = harness.end_to_end_metrics(loop, 1.0, 1.0, 0.5)
    slow_host = harness.end_to_end_metrics(loop, 1.0, 0.5, 0.5)
    assert slow_host["point_p50_ms"][0] == pytest.approx(0.5 * unscaled["point_p50_ms"][0])
    assert slow_host["points_per_s"][0] == pytest.approx(2.0 * unscaled["points_per_s"][0])
    assert slow_host["ok_ratio"] == unscaled["ok_ratio"]


def _traced_loop(ops):
    tracer = trace.Tracer()
    with harness.deadlines():
        return tracer, harness.measure(ops, 30.0, 0.0, tracer)


def _mixed_ops():
    gaussian = workloads.GAUSSIAN_SWEEP.operations(3, checks.load_reference(), ROOT)[:3]
    tables = workloads.PHOTON_TABLES.operations(3, checks.load_reference(), ROOT)
    return gaussian + tables[2:3]  # N=100 at 1e-3 below lambda_c: a short series


def test_traced_self_times_fit_in_run_wall_time():
    tracer, loop = _traced_loop(_mixed_ops())
    assert all(r.ok for r in loop.records)
    traced_ns = sum(r.elapsed_s for r in loop.records if r.traced) * 1e9
    layer_self = sum(loop.stats.layer_self_ns.values())
    assert 0.5 * traced_ns < layer_self <= traced_ns <= loop.wall_s * 1e9
    assert loop.first_spans and all(s[5] >= 0 for s in loop.first_spans)
    metrics, absent = harness.per_layer_metrics(tracer, loop, dict.fromkeys(setup_time.DEPENDENCIES.values(), 1.0))
    assert absent == []
    assert metrics["estimation.state_derivative.calls"][0] == 3 * 5
    assert metrics["measurements.photon_distribution.calls"][0] == 1
    assert metrics["kernels.pn_series.calls"][0] == metrics["measurements.series_per_distribution"][0] >= 1


def test_traced_run_survives_an_absent_name(monkeypatch):
    monkeypatch.delattr(_kernels, "pn_series")
    tracer, loop = _traced_loop(_mixed_ops()[:2])
    assert all(r.ok for r in loop.records)
    metrics, absent = trace.span_metrics(tracer, loop.stats, loop.passes, 2)
    assert absent == ["kernels.pn_series"]
    assert metrics["kernels.pn_series.calls"][0] == 0.0
    assert metrics["dicke.ground_state.calls"][0] > 0
    ghost = trace.Tracer(layers={**trace.LAYERS, "ghost": "no_such_module"})
    assert ghost.absent_modules == ["ghost"]


def test_parse_importtime_keeps_groups_disjoint():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |         numpy.testing",
        "import time:        70 |        120 |       scipy._lib",
        "import time:        80 |        200 |     scipy",
        "import time:        10 |        510 |   dicke_metrology",
        "import time:         5 |        515 | dicke_metrology.cli",
    ])
    assert setup_time.parse_importtime(text) == {
        "setup.import_package_ms": 0.515,
        "setup.import_numpy_ms": 0.3,
        "setup.import_scipy_ms": 0.2,
    }


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        deadline = workloads.WORKLOADS[entry["name"]].deadline_s
        assert f"deadline {deadline:g} s per operation" in entry["why"]
    loop = harness.Loop([harness.Record("op", "", 1, 0.01)], [0.01])
    e2e = harness.end_to_end_metrics(loop, 1.0, 1.0, 0.5)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    tracer, loop = _traced_loop(_mixed_ops()[:1])
    import_ms = dict.fromkeys([setup_time.PACKAGE_METRIC, *setup_time.DEPENDENCIES.values()], 1.0)
    layer, _ = harness.per_layer_metrics(tracer, loop, import_ms)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {k: u for k, (_, u) in layer.items()}
    assert all(math.isfinite(v) for v, _ in layer.values())
