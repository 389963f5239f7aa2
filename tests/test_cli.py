"""End-to-end tests of the sweep command-line interface."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dicke_metrology
from dicke_metrology import cli
from dicke_metrology.cli import EXIT_OK, main


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


class TestSmoke:
    def test_qfi_single_point(self, capsys):
        code, out = run(capsys, ["qfi", "--lambda", "0.3"])
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "lambda,H,quadratic_term,displacement_term,status"
        assert lines[1].endswith(",ok")

    def test_entanglement_grid(self, capsys):
        code, out = run(
            capsys,
            ["entanglement", "--lambda-min", "0.1", "--lambda-max", "0.8", "--points", "5"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "lambda,E_N,d_tilde_minus,status"
        assert len(lines) == 6

    def test_entanglement_zero_coupling(self, capsys):
        code, out = run(capsys, ["entanglement", "--lambda", "0"])
        row = out.strip().split("\n")[1].split(",")
        assert code == 0
        assert float(row[1]) == 0.0

    def test_fi_homodyne_multi_phi(self, capsys):
        code, out = run(
            capsys, ["fi-homodyne", "--lambda", "0.3", "--phi", "0,0.5235987755982988"]
        )
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "lambda,phi,FI,H,ratio,status"
        assert len(lines) == 3

    def test_photon_sweep(self, capsys):
        code, out = run(
            capsys,
            ["photon", "--lambda-min", "0.1", "--lambda-max", "0.4", "--points", "3"],
        )
        assert code == 0
        assert out.startswith("lambda,n_s,thermal,coherent,total,status")

    def test_fi_photon_single(self, capsys):
        code, out = run(capsys, ["fi-photon", "--lambda", "0.3"])
        lines = out.strip().split("\n")
        assert code == 0
        row = lines[1].split(",")
        assert lines[0] == "lambda,FI,H,ratio,n_max,status"
        assert 0 < float(row[3]) < 1
        # the FI sums at least over the mass-resolved distribution
        state = dicke_metrology.reduced_radiation_state(dicke_metrology.DickeParams(lam=0.3))
        assert int(row[4]) >= dicke_metrology.photon_distribution(state).n_max

    @pytest.mark.parametrize("n_atoms,lam", [("10000", "2"), ("1000", "5"), ("100", "50")])
    def test_fi_photon_large_states_converge(self, capsys, n_atoms, lam):
        # cutoffs of 10 <n> + 50 passed a fixed limit of 1e5 terms here, and
        # each of these rows read nonconverged
        code, out = run(capsys, ["fi-photon", "--n-atoms", n_atoms, "--lambda", lam])
        row = out.strip().split("\n")[1].split(",")
        assert code == 0 and row[-1] == "ok"
        assert 0 < float(row[1]) <= float(row[2])


    @pytest.mark.parametrize("command", ["qfi", "fi-homodyne"])
    def test_deep_superradiant_row_is_finite(self, capsys, command):
        # eps_minus^2 = (s - r)/2 cancelled to zero here, and the row read nan,...,ok
        code, out = run(capsys, [command, "--lambda", "10000"])
        row = out.strip().split("\n")[1].split(",")
        assert code == 0 and row[-1] == "ok"
        assert all(np.isfinite(float(x)) for x in row[:-1])

    @pytest.mark.parametrize(
        "argv",
        [
            ["fi-photon", "--lambda", "0.7", "--n-atoms", "1000000000000000000"],
            ["photon", "--lambda", "1000"],
        ],
    )
    def test_series_past_the_work_bound_is_nonconverged(self, capsys, argv):
        # <n> is about 4e17 and 1e8: the series would run for that many terms
        code, out = run(capsys, argv)
        assert code == 3
        assert out.strip().split("\n")[-1].endswith(",nonconverged")


class TestDeterminism:
    def test_repeat_run_identical(self, tmp_path):
        args = [
            "qfi",
            "--lambda-min", "0.05",
            "--lambda-max", "0.95",
            "--points", "7",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_do_not_change_output(self, tmp_path):
        sweeps = [
            (["fi-homodyne", "--lambda-min", "0.1", "--lambda-max", "0.9", "--points", "6", "--phi", "0,1.0"], ["3"]),
            (["qfi", "--lambda-min", "0.1", "--lambda-max", "0.9", "--points", "6"], ["2", "3"]),
            (["fi-photon", "--lambda-min", "0.1", "--lambda-max", "0.8", "--points", "4"], ["2", "3"]),
            # more jobs than grid points
            (["qfi", "--lambda-min", "0.1", "--lambda-max", "0.8", "--points", "3"], ["7"]),
            (["fi-photon", "--lambda-min", "0.1", "--lambda-max", "0.8", "--points", "3"], ["7"]),
        ]
        for args, jobs in sweeps:
            a = tmp_path / "serial.csv"
            assert main(args + ["--jobs", "1", "--out", str(a)]) == 0
            for n in jobs:
                b = tmp_path / f"parallel{n}.csv"
                assert main(args + ["--jobs", n, "--out", str(b)]) == 0
                assert a.read_bytes() == b.read_bytes(), (args, n)


class TestGridAndConfig:
    def test_exclusion_window(self, capsys):
        code, out = run(
            capsys,
            [
                "qfi",
                "--lambda-min", "0.4",
                "--lambda-max", "0.6",
                "--points", "21",
                "--exclusion", "0.02",
            ],
        )
        assert code == 0
        lams = [float(line.split(",")[0]) for line in out.strip().split("\n")[1:]]
        assert all(abs(l - 0.5) >= 0.02 for l in lams)
        assert len(lams) < 21

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"lambda": 0.25, "n_atoms": 16}))
        code, out = run(capsys, ["qfi", "--config", str(cfg)])
        assert code == 0
        assert out.strip().split("\n")[1].startswith("0.25,")

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"lambda": 0.25}))
        code, out = run(capsys, ["qfi", "--config", str(cfg), "--lambda", "0.35"])
        assert code == 0
        assert out.strip().split("\n")[1].startswith("0.34999")

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"lambda": 0.25, "typo_key": 1}))
        code, _ = run(capsys, ["qfi", "--config", str(cfg)])
        assert code == 2

    def test_bad_grid_bounds(self, capsys):
        code, _ = run(capsys, ["qfi", "--lambda-min", "0.9", "--lambda-max", "0.1"])
        assert code == 2

    def test_bad_format_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["qfi", "--lambda", "0.3", "--format", "xml"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["qfi", "--omega", "0"],
            ["qfi", "--omega", "-1"],
            ["qfi", "--omega0", "0"],
            ["qfi", "--n-atoms", "0"],
            ["qfi", "--lambda", "-0.1"],
            ["qfi", "--lambda-min", "-0.1"],
            ["wigner", "--lambda", "-0.1"],
            ["photon", "--lambda", "-0.1"],
            ["qfi", "--lambda", "0.3", "--n-atoms", "1" + "0" * 400],
        ],
    )
    def test_out_of_domain_model_values(self, capsys, argv):
        code, out = run(capsys, argv)
        assert code == 2
        assert out == ""


class TestChunks:
    def test_equal_costs_split_into_near_equal_sizes(self):
        for n in range(1, 25):
            for count in range(1, 8):
                sizes = [len(c) for c in cli._contiguous_chunks(list(range(n)), count, [1.0] * n)]
                size, extra = divmod(n, min(count, n))
                assert sizes == [size + 1] * extra + [size] * (min(count, n) - extra), (n, count)

    def test_qfi_rows_weigh_the_same(self):
        grid = [0.1, 0.3, 0.7, 0.9]
        assert cli._row_costs("qfi", grid, dict(cli._DEFAULTS)) == [1.0] * 4

    def test_photon_chunks_balance_the_series_cost(self):
        # superradiant rows carry longer series, so the later chunk holds
        # fewer couplings but about the same estimated cost
        cfg = dict(cli._DEFAULTS, n_atoms=1000)
        grid = cli._lambda_grid(dict(cfg, lambda_min=0.55, lambda_max=1.0, points=40))
        costs = cli._row_costs("fi-photon", grid, cfg)
        assert costs == sorted(costs)
        first, last = cli._contiguous_chunks(grid, 2, costs)
        assert first + last == grid
        assert len(first) > len(last)
        assert abs(sum(costs[: len(first)]) - sum(costs[len(first):])) <= max(costs)

    def test_costs_fall_back_to_equal_at_the_critical_coupling(self):
        cfg = dict(cli._DEFAULTS)
        assert cli._row_costs("fi-photon", [0.4, 0.5, 0.6], cfg) == [1.0] * 3


class TestStatusAndExitCodes:
    def test_singular_row_exit_3(self, capsys):
        # lambda pinned exactly at the critical coupling
        code, out = run(capsys, ["qfi", "--lambda", "0.5"])
        assert code == 3
        row = out.strip().split("\n")[1]
        assert row == "0.5,nan,nan,nan,singular"

    def test_mixed_rows_still_emitted(self, capsys):
        code, out = run(
            capsys,
            [
                "qfi",
                "--lambda-min", "0.4",
                "--lambda-max", "0.5",
                "--points", "3",
                "--exclusion", "0",
            ],
        )
        lines = out.strip().split("\n")[1:]
        assert code == 3
        statuses = [line.split(",")[-1] for line in lines]
        assert statuses.count("ok") == 2
        assert statuses.count("singular") == 1


    @pytest.mark.parametrize("points", ["3", "5"])
    def test_mixed_rows_same_with_jobs(self, capsys, points):
        # the chunk that holds the critical coupling falls back to one point
        # at a time, however the grid is split
        args = [
            "qfi",
            "--lambda-min", "0.4",
            "--lambda-max", "0.5",
            "--points", points,
            "--exclusion", "0",
        ]
        serial = run(capsys, args + ["--jobs", "1"])
        assert run(capsys, args + ["--jobs", "2"]) == serial
        code, out = serial
        statuses = [line.split(",")[-1] for line in out.strip().split("\n")[1:]]
        assert code == 3
        assert statuses == ["ok"] * (int(points) - 1) + ["singular"]

    def test_chunk_falls_back_to_per_point_statuses(self):
        cfg = dict(cli._DEFAULTS, phi=[0.0, 1.0])
        rows = cli._compute_chunk(("fi-homodyne", [0.4, 0.5, 0.6], cfg))
        assert [(row[0], row[1], row[-1]) for row in rows] == [
            (0.4, 0.0, "ok"), (0.4, 1.0, "ok"),
            (0.5, 0.0, "singular"), (0.5, 1.0, "singular"),
            (0.6, 0.0, "ok"), (0.6, 1.0, "ok"),
        ]
        alone = cli._compute_chunk(("fi-homodyne", [0.4], cfg)) + cli._compute_chunk(("fi-homodyne", [0.6], cfg))
        assert rows[:2] + rows[4:] == alone


class TestErrorTaxonomy:
    """Only numerical-domain failures become statuses; other faults propagate."""

    def test_row_builder_fault_propagates(self, capsys, monkeypatch):
        def broken(lam, cfg):
            raise ValueError("fault in a row builder")

        monkeypatch.setitem(cli._ROW_BUILDERS, "qfi", broken)
        with pytest.raises(ValueError, match="fault in a row builder"):
            main(["qfi", "--lambda", "0.3"])
        assert capsys.readouterr().out == ""

    def test_pn_table_fault_propagates(self, capsys, monkeypatch):
        def broken(state):
            raise ValueError("fault in the p(n) table")

        monkeypatch.setattr(cli, "photon_distribution", broken)
        with pytest.raises(ValueError, match="fault in the p\\(n\\) table"):
            main(["photon", "--lambda", "0.3"])

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["qfi", "--lambda", "inf"], None),
            (["qfi", "--omega", "inf", "--lambda", "0.3"], None),
            (["qfi", "--lambda-max", "inf"], None),
            (["qfi"], '{"n_atoms": 1e999}'),
            (["qfi"], '{"n_atoms": 2.5}'),
            (["fi-homodyne", "--lambda", "0.3", "--phi", "inf"], None),
            (["fi-homodyne", "--lambda", "0.3", "--phi", "0,nan"], None),
        ],
    )
    def test_non_finite_or_fractional_input_is_a_config_error(self, capsys, tmp_path, argv, config):
        # these printed nan rows with status ok, except that N = 2.5 ran as
        # given and phi = inf stopped with a traceback
        if config is not None:
            path = tmp_path / "sweep.json"
            path.write_text(config)
            argv = argv + ["--config", str(path)]
        code, out = run(capsys, argv)
        assert code == 2
        assert out == ""

    def test_setup_fault_propagates(self, capsys, monkeypatch):
        def broken(cfg):
            raise ValueError("fault in the grid")

        monkeypatch.setattr(cli, "_lambda_grid", broken)
        with pytest.raises(ValueError, match="fault in the grid"):
            main(["qfi"])


def test_import_loads_no_scipy():
    src = str(Path(dicke_metrology.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, dicke_metrology, dicke_metrology.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# documented entry points that nothing else in the package has to call: the
# scalar API of the README, the console script, the SLD and power-law fit that
# carry criteria 1 and 11, and the chain that criterion 9 checks
ENTRY_POINTS = {
    "cli.main",
    "dicke.DickeParams",
    "dicke.ground_state",
    "dicke.reduced_radiation_state",
    "dicke.symplectic_chain",
    "estimation.fit_power_law",
    "estimation.qfi",
    "estimation.sld_coefficients",
    "estimation.sld_coefficients_f1_frame",
    "gaussian.log_negativity",
    "measurements.HomodyneSetting",
    "measurements.Target",
    "measurements.fi_homodyne",
    "measurements.fi_photon_counting",
    "measurements.photon_distribution",
}


def _loads(tree: ast.Module, modules: set[str]):
    """(name, top-level definition it sits in) of each name the module reads."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, owner
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                yield node.attr, owner


def _package_trees() -> dict[str, ast.Module]:
    """Syntax tree of each module of the package but __init__, by module name."""
    paths = [p for p in sorted(Path(dicke_metrology.__file__).resolve().parent.glob("*.py")) if p.stem != "__init__"]
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in paths}


def test_public_definitions_are_used_or_documented():
    # a public function or class that only tests call belongs in tests/oracles.py;
    # re-exports from __init__ do not count as uses
    trees = _package_trees()
    defined = {
        f"{stem}.{node.name}"
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    loads = {(stem, name, owner) for stem, tree in trees.items() for name, owner in _loads(tree, set(trees))}
    unused = sorted(
        qualname
        for qualname in defined - ENTRY_POINTS
        if not any(name == qualname.split(".")[1] and (stem, owner) != tuple(qualname.split(".")) for stem, name, owner in loads)
    )
    assert unused == []
    assert ENTRY_POINTS <= defined


# defaults that no caller in the package overrides: the fixed cutoff that the
# oracle tests compare the adaptive photon series against, and the command
# line, which the console script leaves to sys.argv
UNSET_DEFAULTS = {("measurements.photon_distribution", "n_max"), ("cli.main", "argv")}


def _passed(call: ast.Call, params: list[str]) -> set[str]:
    """Those of the positional parameters params, or of the keywords, that the call sets."""
    keywords = {kw.arg for kw in call.keywords}
    if None in keywords or any(isinstance(arg, ast.Starred) for arg in call.args):
        # an unpacked argument can reach any parameter
        return set(params) | keywords
    return set(params[: len(call.args)]) | keywords


def test_every_default_is_set_by_some_caller():
    # a default that no caller in the package overrides is a constant passed
    # around as an option
    trees = _package_trees()
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = set()
    for stem, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            defaults = positional[len(positional) - len(fn.args.defaults):]
            defaults += [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            passed = set().union(*(_passed(call, positional) for call in calls.get(fn.name, [])))
            unset |= {(f"{stem}.{fn.name}", name) for name in defaults if name not in passed}
    assert unset == UNSET_DEFAULTS


class TestJsonFormat:
    def test_structure_and_nan(self, capsys):
        code, out = run(capsys, ["qfi", "--lambda", "0.5", "--format", "json"])
        data = json.loads(out)
        assert code == 3
        assert data["columns"] == ["lambda", "H", "quadratic_term", "displacement_term", "status"]
        assert data["rows"][0][1] is None  # nan rendered as null
        assert data["rows"][0][-1] == "singular"

    def test_roundtrip_value(self, capsys):
        code, out = run(capsys, ["qfi", "--lambda", "0.3", "--format", "json"])
        data = json.loads(out)
        assert code == 0
        assert data["rows"][0][1] == pytest.approx(3.3203125, rel=1e-8)

    def test_wigner_extras(self, capsys):
        code, out = run(
            capsys, ["wigner", "--lambda", "0.3", "--points", "7", "--format", "json"]
        )
        data = json.loads(out)
        assert code == 0
        assert data["columns"] == ["x", "p", "W", "status"]
        assert len(data["rows"]) == 49
        assert data["derived"]["phase"] == "normal"
        assert set(data["state"]) == {"modes", "mean", "cov"}


class TestWigner:
    def test_requires_single_lambda(self, capsys):
        code, _ = run(capsys, ["wigner", "--lambda-min", "0.1", "--lambda-max", "0.3"])
        assert code == 2

    def test_grid_covers_displaced_peak(self, capsys):
        code, out = run(capsys, ["wigner", "--lambda", "0.7", "--points", "9"])
        assert code == 0
        lines = out.strip().split("\n")[1:]
        assert len(lines) == 81
        best = max(lines, key=lambda line: float(line.split(",")[2]))
        # peak sits near the displaced mean, far from the origin
        assert float(best.split(",")[0]) > 5

    def test_normalization_numeric(self, capsys):
        code, out = run(capsys, ["wigner", "--lambda", "0.2", "--points", "61"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        xs = sorted({float(r[0]) for r in rows})
        ps = sorted({float(r[1]) for r in rows})
        grid = np.array([float(r[2]) for r in rows]).reshape(len(xs), len(ps))
        integral = np.trapezoid(
            np.trapezoid(grid, dx=ps[1] - ps[0]), dx=xs[1] - xs[0]
        )
        assert integral == pytest.approx(1.0, abs=1e-3)


class TestPhotonTables:
    def test_pn_second_file(self, tmp_path):
        out = tmp_path / "photon.csv"
        code = main(["photon", "--lambda", "0.45", "--out", str(out)])
        assert code == 0
        pn = tmp_path / "photon_pn.csv"
        assert pn.exists()
        lines = pn.read_text().strip().split("\n")
        assert lines[0] == "n,p,status"
        probs = [float(line.split(",")[1]) for line in lines[1:]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-8)

    def test_decomposition_row(self, capsys):
        code, out = run(capsys, ["photon", "--lambda", "0.55"])
        row = out.strip().split("\n")[1].split(",")
        assert code == 0
        n_s, thermal, coherent, total = map(float, row[1:5])
        assert total == pytest.approx(n_s + thermal + coherent, rel=1e-12)

    def test_pn_table_when_r00_underflows(self, capsys):
        # p(0) = r00 ~ exp(-1352) is below the smallest double at this size
        code, out = run(capsys, ["photon", "--n-atoms", "4000", "--lambda", "0.7"])
        tables = out.strip().split("n,p,status\n")
        assert code == EXIT_OK
        rows = tables[1].strip().split("\n")
        assert len(rows) > 1
        assert all(row.endswith(",ok") for row in rows)
