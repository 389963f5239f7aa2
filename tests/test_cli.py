"""End-to-end tests of the sweep command-line interface."""
import ast
import json
import math
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dicke_metrology
from dicke_metrology import cli, dicke, measurements
from dicke_metrology.cli import EXIT_OK, main
from dicke_metrology.dicke import derive
from dicke_metrology.gaussian import state_to_dict
from oracles import (
    entanglement_rows_per_state,
    fi_homodyne_rows,
    fi_photon_rows,
    photon_rows_per_state,
    qfi_rows,
    render_csv,
    render_json,
    sweep_rows,
    wigner_rows_per_point,
)


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

    # every subcommand, all rows ok
    RUNS = [
        ["fi-homodyne", "--lambda-min", "0.1", "--lambda-max", "0.9", "--points", "6", "--phi", "0,1.0"],
        ["qfi", "--lambda-min", "0.1", "--lambda-max", "0.9", "--points", "6"],
        ["fi-photon", "--lambda-min", "0.1", "--lambda-max", "0.8", "--points", "4"],
        ["entanglement", "--lambda-min", "0.1", "--lambda-max", "0.9", "--points", "6"],
        ["photon", "--lambda-min", "0.1", "--lambda-max", "0.9", "--points", "6"],
        ["photon", "--lambda", "0.3"],
        ["wigner", "--lambda", "0.3", "--points", "4"],
    ]
    # grids with singular and nonconverged rows
    MIXED_RUNS = [
        ["fi-photon", "--lambda-min", "0.4", "--lambda-max", "0.6", "--points", "3", "--exclusion", "0"],
        ["fi-homodyne", "--lambda-min", "0.4", "--lambda-max", "0.6", "--points", "3", "--exclusion", "0"],
        ["fi-photon", "--lambda-min", "0.3", "--lambda-max", "0.7", "--points", "2", "--n-atoms", "1" + "0" * 18],
    ]

    def test_jobs_do_not_change_output(self, capsys):
        # --jobs is accepted and ignored: past 1 it adds one note on stderr
        statuses = set()
        for argv in self.RUNS + self.MIXED_RUNS:
            for fmt in ("csv", "json"):
                args = argv + ["--format", fmt]
                code, serial = main(args + ["--jobs", "1"]), capsys.readouterr()
                assert serial.err == "" and code == (EXIT_OK if argv in self.RUNS else 3), args
                for jobs in ("2", "4"):
                    assert main(args + ["--jobs", jobs]) == code
                    captured = capsys.readouterr()
                    assert captured.out == serial.out, (args, jobs)
                    assert captured.err == "note: jobs is ignored; the sweep runs in this process\n"
                if fmt == "csv":
                    statuses.update(line.rsplit(",", 1)[-1] for line in serial.out.splitlines())
        assert {"ok", "singular", "nonconverged"} <= statuses

    def test_jobs_below_one_or_fractional_is_a_config_error(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text('{"jobs": 1.5}')
        for argv in (["--jobs", "0"], ["--config", str(path)]):
            code = main(["qfi", "--lambda", "0.3", *argv])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == "" and captured.err.startswith("error: jobs must be")


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

    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_empty_phi_list_is_a_config_error(self, capsys, tmp_path, source):
        # an empty list in the config file passed, and fi-homodyne then died
        # in np.stack with a traceback
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"phi": []} if source == "config" else {}))
        argv = ["fi-homodyne", "--lambda", "0.3", "--config", str(path)]
        code = main(argv + (["--phi", ""] if source == "flag" else []))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err == "error: empty --phi list\n"

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


class TestOptionTable:
    """One flag per config key, "--" plus the key with dashes, storing under the key."""

    # a value for every key, none of them its default
    VALUES = {
        "omega": 1.5,
        "omega0": 0.5,
        "n_atoms": 40,
        "lambda": 0.3,
        "lambda_min": 0.1,
        "lambda_max": 0.9,
        "points": 7,
        "exclusion": 0.01,
        "phi": [0.0, 0.5],
        "target": "atoms",
        "format": "json",
        "out": "table.json",
        "jobs": 2,
    }

    def test_every_flag_stores_under_its_config_key(self):
        [commands] = [action.choices for action in cli._build_parser()._actions if action.dest == "command"]
        for name, parser in commands.items():
            flags = {
                flag: action.dest
                for action in parser._actions
                for flag in action.option_strings
                if flag not in ("-h", "--help", "--config")
            }
            assert sorted(flags.values()) == sorted(cli._DEFAULTS), name
            assert all(flag == "--" + dest.replace("_", "-") for flag, dest in flags.items()), name
        assert list(commands) == list(cli._COMMANDS)

    def test_config_file_and_flags_give_the_same_config(self, tmp_path):
        assert set(self.VALUES) == set(cli._DEFAULTS)
        assert all(value != cli._DEFAULTS[key] for key, value in self.VALUES.items())
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(self.VALUES))
        flags = [
            item
            for key, value in self.VALUES.items()
            for item in ("--" + key.replace("_", "-"), ",".join(map(repr, value)) if key == "phi" else str(value))
        ]
        parse = cli._build_parser().parse_args
        from_file = cli._load_config(parse(["qfi", "--config", str(path)]))
        assert cli._load_config(parse(["qfi", *flags])) == from_file == self.VALUES


def _as_columns(rows: list[list], width: int) -> list[tuple[list, int]]:
    """Rows as the CLI's (values, repeat) columns, one value per row each."""
    return [([row[i] for row in rows], 1) for i in range(width)]


class TestRenderCsv:
    """The column renderers give the bytes of the former cell-by-cell formatter
    and row-wise JSON."""

    DOUBLES = st.floats() | st.sampled_from(
        [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2250738585072014e-308 / 3, 1.7976931348623157e308]
    )
    STATUSES = st.sampled_from(["ok", "singular", "nonconverged"]) | st.text()

    @given(st.lists(st.tuples(DOUBLES, DOUBLES, DOUBLES, DOUBLES, st.integers(0, 10**6), STATUSES), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_fi_photon_rows(self, rows):
        rows = [list(row) for row in rows]
        columns = cli._COMMANDS["fi-photon"].columns
        assert cli._render_csv(columns, _as_columns(rows, 6)) == render_csv(columns, rows)

    @given(st.lists(st.tuples(st.integers(0, 10**6), DOUBLES.map(np.float64), STATUSES), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_pn_rows(self, rows):
        # the p(n) table: an int column, and doubles as numpy scalars
        rows = [list(row) for row in rows]
        assert cli._render_csv(("n", "p"), _as_columns(rows, 3)) == render_csv(("n", "p"), rows)

    @given(
        st.lists(st.tuples(DOUBLES, DOUBLES, STATUSES), min_size=1, max_size=6),
        st.lists(DOUBLES, min_size=1, max_size=4),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_values_shared_by_rows(self, couplings, angles, data):
        # a fi-homodyne table: lambda, H and the status fill one row per angle,
        # and the angles repeat for every coupling
        k = len(angles)
        size = len(couplings) * k
        cells = data.draw(st.lists(st.tuples(self.DOUBLES, self.DOUBLES), min_size=size, max_size=size))
        rows = [
            [lam, phi, fi, h, ratio, status]
            for i, (lam, h, status) in enumerate(couplings)
            for phi, (fi, ratio) in zip(angles, cells[i * k:(i + 1) * k])
        ]
        lams, hs, statuses = (list(column) for column in zip(*couplings))
        fis, ratios = (list(column) for column in zip(*cells))
        table = [(lams, k), (angles, 1), (fis, 1), (hs, k), (ratios, 1), (statuses, k)]
        names = cli._COMMANDS["fi-homodyne"].columns
        assert cli._render_csv(names, table) == render_csv(names, rows)
        assert cli._render_json(names, table) == render_json(names, rows)


class TestStatusAndExitCodes:
    def test_singular_row_exit_3(self, capsys):
        # lambda pinned exactly at the critical coupling
        code, out = run(capsys, ["qfi", "--lambda", "0.5"])
        assert code == 3
        row = out.strip().split("\n")[1]
        assert row == "0.5,nan,nan,nan,singular"

    def test_window_is_relative_to_lambda_c(self, capsys):
        # below lambda_c = 5e-11 an absolute window of 1e-8 refused the whole
        # normal phase: three singular rows and exit 3
        argv = ["qfi", "--omega", "1e-10", "--omega0", "1e-10", "--lambda-min", "1e-12", "--lambda-max", "4e-11"]
        code, out = run(capsys, argv + ["--points", "3", "--exclusion", "0"])
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert code == 0
        assert [row[-1] for row in rows] == ["ok"] * 3
        # H = 4 / (omega + omega0)^2 = 1e20 at small coupling
        assert rows[0][1] == "1.0012008004482304e+20"

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
        # the grid that holds the critical coupling falls back to one point at a time
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
        (fi, h, ratio), statuses = cli._sweep_columns("fi-homodyne", [0.4, 0.5, 0.6], cfg)
        assert statuses == ["ok", "singular", "ok"]
        # FI and ratio hold one value per (coupling, angle), H one per coupling
        assert len(fi) == len(ratio) == 6 and len(h) == 3
        assert all(map(math.isnan, fi[2:4] + h[1:2] + ratio[2:4]))
        assert not any(map(math.isnan, fi[:2] + fi[4:] + h[:1] + h[2:] + ratio[:2] + ratio[4:]))
        alone = cli._joined([cli._sweep_columns("fi-homodyne", [lam], cfg) for lam in (0.4, 0.6)])
        assert alone == ([fi[:2] + fi[4:], h[:1] + h[2:], ratio[:2] + ratio[4:]], ["ok", "ok"])

    def test_sweep_runs_the_mean_field_once_over_its_grid(self, capsys, monkeypatch):
        # and a grid through lambda_c once more per point, in the fallback
        argv = ["fi-photon", "--points", "18", "--lambda-min", "0.1", "--lambda-max", "0.9"]
        cfg = dict(cli._DEFAULTS, points=18, lambda_min=0.1, lambda_max=0.9)
        calls = []
        ground = cli._ground
        monkeypatch.setattr(cli, "_ground", lambda *args: (calls.append(args), ground(*args))[1])
        assert main(argv + ["--jobs", "2"]) == EXIT_OK
        assert len(calls) == 1 and calls[0][0].tolist() == cli._lambda_grid(cfg)
        calls.clear()
        critical = ["fi-photon", "--lambda-min", "0.4", "--lambda-max", "0.6", "--points", "3", "--exclusion", "0"]
        assert main(critical + ["--jobs", "2"]) == 3
        assert [len(lam) for lam, *_ in calls] == [3, 1, 1, 1]


class TestFiniteOkRows:
    """An `ok` row is finite, a ratio over H = 0 is nan without a warning,
    and frequencies whose lambda_c or squares leave the doubles are refused."""

    # the chain's FI and H underflowed to 0.0 here
    VANISHING_QFI = ["--omega", "1.57e-17", "--omega0", "1.21e97", "--n-atoms", "2490", "--lambda", "4.3e-217"]

    @pytest.mark.parametrize("command", ["fi-photon", "fi-homodyne"])
    def test_ratio_over_a_vanishing_qfi_is_nan(self, capsys, monkeypatch, command):
        # fi-photon ended in a ZeroDivisionError traceback where H was 0.0, and
        # fi-homodyne printed ratio nan as ok with a RuntimeWarning from its
        # division; no accepted model gives H = 0.0 now, so the QFI is set to 0
        monkeypatch.setattr(cli, "qfi_from_jet", lambda jet: [np.zeros(jet.cov.shape[:-2])] * 3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run(capsys, [command, "--lambda", "0.3"])
        header, row = (line.split(",") for line in out.strip().split("\n"))
        cells = dict(zip(header, row))
        assert code == 3
        assert (cells["H"], cells["ratio"], cells["status"]) == ("0", "nan", cli.NONFINITE)
        assert float(cells["FI"]) > 0.0
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("command", ["fi-photon", "fi-homodyne"])
    def test_qfi_that_underflowed_reads_its_small_coupling_limit(self, capsys, command):
        # H = 4 / (omega + omega0)^2 to first order in lam
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run(capsys, [command, *self.VANISHING_QFI])
        header, row = (line.split(",") for line in out.strip().split("\n"))
        cells = dict(zip(header, row))
        assert (code, cells["status"]) == (0, "ok")
        assert float(cells["H"]) == pytest.approx(4.0 / (1.57e-17 + 1.21e97) ** 2, rel=1e-15)
        assert [str(w.message) for w in caught] == []

    def test_frequencies_whose_critical_coupling_overflows_are_a_config_error(self, capsys):
        # lambda_c = sqrt(omega omega0) / 2 was inf, and H = nan printed as ok
        code = main(["qfi", "--omega", "1e200", "--omega0", "1e200", "--lambda", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert f"[{dicke._FREQ_MIN!r}, {dicke._FREQ_MAX!r}]" in captured.err

    @pytest.mark.parametrize(
        "argv, n_atoms, column",
        [
            # at the largest accepted N the displacement term overflows
            (["qfi", "--lambda", "1"], sys.float_info.max / 2.0, "H"),
            # the coherent part gamma^2 overflows
            (["photon", "--lambda", "1e10"], 1e300, "coherent"),
        ],
    )
    def test_a_row_past_the_doubles_is_not_ok(self, capsys, tmp_path, argv, n_atoms, column):
        # both printed inf with status ok and exit 0
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"n_atoms": n_atoms}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run(capsys, [*argv, "--config", str(path)])
        assert [str(w.message) for w in caught] == []
        header, row = (line.split(",") for line in out.strip().split("\n")[:2])
        cells = dict(zip(header, row))
        assert code == 3
        assert (cells[column], cells["status"]) == ("inf", cli.NONFINITE)

    def test_each_point_gets_its_own_status_and_ratio(self):
        # one superradiant point past the doubles between two finite ones, and
        # per-angle columns: each value maps to its own coupling
        cfg = dict(cli._DEFAULTS, n_atoms=sys.float_info.max / 2.0, phi=[0.0, 1.0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            (fi, h, ratio), statuses = cli._sweep_columns("fi-homodyne", [0.3, 1.0, 0.4], cfg)
        assert [str(w.message) for w in caught] == []
        assert statuses == ["ok", cli.NONFINITE, "ok"]
        assert h[1] == math.inf and all(map(math.isfinite, fi[:2] + fi[4:] + h[::2] + ratio[:2] + ratio[4:]))
        assert cli._finite_statuses([[1.0, 2.0], [1e308, 1e308, 3.0, 4.0]], 2) == ["ok", "ok"]
        assert cli._finite_statuses([[1.0, 2.0], [1.0, 1.0, math.nan, 4.0]], 2) == ["ok", cli.NONFINITE]
        # nan over H = 0 whatever the FI, and a plain quotient elsewhere
        ratio = cli._ratio(np.array([1.0, 0.0, 1.0, 1e300]), np.array([0.0, 0.0, 4.0, 1e-300]))
        assert np.array_equal(ratio, [math.nan, math.nan, 0.25, math.inf], equal_nan=True)


@st.composite
def _accepted_models(draw):
    """(command, omega, omega0, n_atoms, lam) anywhere in the accepted domain:
    frequencies log-uniform over the band, N log-uniform up to half the
    largest double, and lam = 0 or log-uniform from 1e-300 lambda_c up to the
    coupling bound, with either side of lambda_c drawn often."""
    command = draw(st.sampled_from(["entanglement", "qfi", "fi-homodyne", "photon", "fi-photon"]))
    band = st.floats(math.log(dicke._FREQ_MIN), math.log(dicke._FREQ_MAX))
    omega, omega0 = (min(max(math.exp(draw(band)), dicke._FREQ_MIN), dicke._FREQ_MAX) for _ in range(2))
    n_atoms = int(min(math.exp(draw(st.floats(0.0, math.log(sys.float_info.max / 2.0)))), sys.float_info.max / 2.0))
    lam_c = math.sqrt(omega * omega0) / 2.0
    bound = lam_c / math.sqrt(sys.float_info.min * max(1.0, omega) * max(1.0, omega0))
    ratio = draw(st.one_of(
        st.just(0.0),
        st.floats(math.log(1e-300), math.log(bound / lam_c)).map(math.exp),
        st.floats(-8.0, 1.0).map(lambda e: 1.0 + math.copysign(10.0 ** -abs(e), e)),
    ))
    return command, omega, omega0, n_atoms, min(lam_c * ratio, bound)


def _photon_count(omega: float, omega0: float, n_atoms: int, lam: float) -> float:
    """<n> of the radiation mode, or 0 where the ground stage refuses the coupling."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            mean, cov = dicke.ground_moments([lam], omega, omega0, n_atoms)
            return 0.5 * float(cov[0, 0, 0] + cov[0, 1, 1] + mean[0, 0] * mean[0, 0] - 1.0)
    except dicke.CriticalPointSingularity:
        return 0.0


class TestAcceptedDomain:
    """Over the whole accepted domain no sweep raises, and an `ok` row is
    finite and keeps the signs of what it prints."""

    # columns that are nonnegative in every ok row
    NONNEGATIVE = {"E_N", "H", "FI", "n_s", "thermal", "coherent", "total", "ratio", "quadratic_term", "displacement_term"}

    @given(_accepted_models())
    # H printed -3.8e-73 as ok, where the displacement term 4 N / omega^2 is 2.9e-25
    @example(("qfi", 8.048807980736873e148, 3.118559808777612e-55, int(4.656e272), 4.222102817699426e100))
    @settings(max_examples=300, deadline=None)
    def test_ok_rows_are_finite_and_nonnegative(self, case):
        command, omega, omega0, n_atoms, lam = case
        if command == "fi-photon":
            # a photon series costs its <n> terms; past PN_MAX_TERMS it is refused at once
            mean_n = _photon_count(omega, omega0, n_atoms, lam)
            assume(not 2000.0 < mean_n < measurements.PN_MAX_TERMS)
        cfg = dict(cli._DEFAULTS, omega=omega, omega0=omega0, n_atoms=n_atoms, phi=[0.0, 1.0])
        values, [status] = cli._sweep_columns(command, [lam], cfg)
        if status != "ok":
            return
        for name, column in zip(cli._built_columns(command), values):
            assert all(math.isfinite(value) for value in column), name
            if name in self.NONNEGATIVE:
                assert min(column) >= 0.0, (name, column)


class TestErrorTaxonomy:
    """Only numerical-domain failures become statuses; other faults propagate."""

    def test_row_builder_fault_propagates(self, capsys, monkeypatch):
        def broken(lam, cfg):
            raise ValueError("fault in a row builder")

        monkeypatch.setitem(cli._COMMANDS, "qfi", cli._COMMANDS["qfi"]._replace(build=broken))
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

    @pytest.mark.parametrize("command", ["qfi", "fi-homodyne"])
    @pytest.mark.parametrize("omega,omega0", [(1.0, 1.0), (1.0, 2.0), (4.0, 4.0)])
    def test_coupling_and_atom_number_edges(self, capsys, tmp_path, omega, omega0, command):
        # past these edges the rows printed nan or inf as ok: at --lambda 1e160
        # k = (lambda_c / lam)^2 left the normal doubles, at omega = omega0 = 4
        # the upper normal-mode frequency overflowed from lambda_c 2^511 on, and
        # with N = 1.7e308 sqrt(2N) overflowed; the largest accepted values
        # print finite rows
        lam_c = math.sqrt(omega * omega0) / 2.0
        lam_edge = lam_c / math.sqrt(sys.float_info.min * max(1.0, omega) * max(1.0, omega0))
        n_edge = sys.float_info.max / 2.0
        for lam, n_atoms, accepted in [
            (lam_edge, 100, True),
            (math.nextafter(lam_edge, math.inf), 100, False),
            (0.5 * lam_c, n_edge, True),
            (0.5 * lam_c, math.nextafter(n_edge, math.inf), False),
        ]:
            path = tmp_path / "model.json"
            path.write_text(json.dumps({"omega": omega, "omega0": omega0, "n_atoms": n_atoms, "lambda": lam}))
            code, out = run(capsys, [command, "--config", str(path)])
            if not accepted:
                assert (code, out) == (2, "")
                continue
            assert code == 0
            [row] = [line.split(",") for line in out.strip().split("\n")[1:]]
            assert row[-1] == "ok" and all(math.isfinite(float(cell)) for cell in row[:-1])

    @pytest.mark.parametrize(
        "config",
        ['{"omega": null}', '{"lambda": "0.3"}', '{"n_atoms": true}', '{"lambda": 1' + "0" * 400 + "}"],
    )
    def test_model_value_that_is_no_number_is_a_config_error(self, capsys, tmp_path, config):
        path = tmp_path / "sweep.json"
        path.write_text(config)
        code, out = run(capsys, ["qfi", "--config", str(path)])
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "config",
        [
            '{"points": "5"}',
            '{"points": 5.5}',
            '{"jobs": 2.5}',
            '{"jobs": true}',
            '{"exclusion": "0.1"}',
            '{"phi": 0.5}',
            '{"out": true}',
        ],
    )
    def test_config_value_of_the_wrong_type_is_a_config_error(self, capsys, tmp_path, config):
        # these died with a TypeError, ran as if jobs were 1, or (out = true)
        # wrote the CSV to file descriptor 1 and closed it
        path = tmp_path / "sweep.json"
        path.write_text(config)
        code, out = run(capsys, ["qfi", "--config", str(path)])
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("argv", [["qfi", "--lambda", "0.3"], ["photon", "--lambda", "0.3"], ["wigner", "--lambda", "0.3"]])
    def test_unopenable_out_is_a_config_error(self, capsys, monkeypatch, tmp_path, argv):
        # these ran the whole sweep, then stopped with a FileNotFoundError traceback
        # and exit 1; now nothing is computed before the check
        monkeypatch.setattr(cli, "_sweep_columns", None)
        monkeypatch.setattr(cli, "reduced_radiation_state", None)
        code = main(argv + ["--out", str(tmp_path / "missing" / "table.csv")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.startswith("error: cannot write ")

    def test_unopenable_pn_out_is_a_config_error(self, capsys, tmp_path):
        # the photon table was written, then opening its p(n) table raised
        (tmp_path / "photon_pn.csv").mkdir()
        code = main(["photon", "--lambda", "0.3", "--out", str(tmp_path / "photon.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot write ")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["photon_pn.csv"]

    def test_out_fifo_gets_the_whole_table(self, capsys, monkeypatch, tmp_path):
        # a probe open and close of --out before the sweep sent EOF to the
        # fifo's reader, and the write after it then blocked with no reader;
        # the slowed sweep gives the reader time to see that EOF
        compute = cli._sweep_columns
        monkeypatch.setattr(cli, "_sweep_columns", lambda *args: (time.sleep(0.5), compute(*args))[1])
        fifo = tmp_path / "table.csv"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        writer = threading.Thread(target=lambda: received.append(main(["qfi", "--points", "5", "--out", str(fifo)])), daemon=True)
        writer.start()
        writer.join(timeout=30)
        reader.join(timeout=30)
        if writer.is_alive() or reader.is_alive():
            # release the blocked open so that the threads can end
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            pytest.fail("writing the table to a fifo blocked")
        text = next(r for r in received if isinstance(r, str))
        assert EXIT_OK in received
        assert text.startswith("lambda,H,") and text.count("\n") == 6

    def test_dangling_symlink_out_creates_nothing_before_the_run(self, capsys, tmp_path):
        # a probe open created the symlink's target, and a run that failed
        # afterwards left it there, empty
        link = tmp_path / "table.csv"
        link.symlink_to(tmp_path / "target.csv")
        assert main(["wigner", "--out", str(link)]) == 2  # wigner needs --lambda
        assert not (tmp_path / "target.csv").exists()
        assert main(["qfi", "--points", "5", "--out", str(link)]) == EXIT_OK
        assert (tmp_path / "target.csv").read_text().startswith("lambda,H,")

    def test_unwritable_existing_out_is_a_config_error(self, capsys, monkeypatch, tmp_path):
        out = tmp_path / "table.csv"
        out.write_text("kept\n")
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        assert main(["qfi", "--points", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}\n"
        assert out.read_text() == "kept\n"

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


def test_small_sweeps_start_no_pool(tmp_path):
    # no subcommand loads a process pool, at any --jobs
    src = str(Path(dicke_metrology.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    runs = [argv + ["--jobs", jobs] for argv in TestDeterminism.RUNS for jobs in ("1", "2", "4")]
    code = (
        "import sys\n"
        "from dicke_metrology.cli import main\n"
        f"for argv in {runs!r}:\n"
        f"    assert main(argv + ['--out', {str(tmp_path / 'out.csv')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _src_env() -> dict:
    src = str(Path(dicke_metrology.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_parser_built_once_per_process(tmp_path):
    # not at import, which setup time would pay; then once for every later call
    out = str(tmp_path / "out.csv")
    code = (
        "from dicke_metrology import cli\n"
        "built = [cli._build_parser.cache_info().misses]\n"
        "for argv in (['qfi', '--lambda', '0.3'], ['fi-photon', '--lambda', '0.3'], ['qfi', '--lambda', '0.4']):\n"
        f"    assert cli.main(argv + ['--out', {out!r}]) == 0\n"
        "    built.append(cli._build_parser.cache_info().misses)\n"
        "print(built)"
    )
    result = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[0, 1, 1, 1]"


_CALLS = """
import contextlib, io, json, sys
from dicke_metrology.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_calls_in_one_process_match_fresh_interpreters(tmp_path):
    # the shared parser carries nothing from one call to the next
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"lambda": 0.25, "n_atoms": 16, "format": "json"}))
    qfi = ["qfi", "--lambda-min", "0.1", "--lambda-max", "0.9", "--points", "7"]
    calls = [
        qfi,
        ["fi-homodyne", "--lambda", "0.3", "--phi", "0,0.7"],
        ["qfi", "--config", str(config)],
        ["qfi", "--lambda", "0.3", "--format", "xml"],
        qfi,
    ]

    def results(argvs):
        run = subprocess.run(
            [sys.executable, "-c", _CALLS, json.dumps(argvs)], env=_src_env(), capture_output=True, text=True, check=True
        )
        return json.loads(run.stdout)

    sequence = results(calls)
    assert [code for code, _, _ in sequence] == [0, 0, 0, 2, 0]
    assert sequence == [results([argv])[0] for argv in calls]


# documented entry points that nothing else in the package has to call: the
# scalar API of the README, its batch moments, the console script, the SLD and
# power-law fit that carry criteria 1 and 11, the chain that criterion 9
# checks, the partial trace, which README lists and the tests take the
# atomic mode with, now that the radiation mode is read from the record, and
# the full symplectic spectrum, which README lists now that E_N and the
# `entanglement` rows read the partial transpose alone
ENTRY_POINTS = {
    "cli.main",
    "dicke.DickeParams",
    "dicke.ground_moments",
    "dicke.moment_jet",
    "dicke.ground_state",
    "dicke.reduced_radiation_state",
    "dicke.symplectic_chain",
    "estimation.fit_power_law",
    "estimation.qfi",
    "estimation.sld_coefficients",
    "estimation.sld_coefficients_f1_frame",
    "gaussian.log_negativity",
    "gaussian.partial_trace",
    "gaussian.symplectic_spectrum",
    "measurements.HomodyneSetting",
    "measurements.Target",
    "measurements.fi_homodyne",
    "measurements.fi_photon_counting",
    "measurements.mean_photon_decomposition",
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


# the one default that no caller in the package overrides: the command line,
# which the console script leaves to sys.argv
UNSET_DEFAULTS = {("cli.main", "argv")}


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

    def test_values_past_the_doubles_print_as_null(self, capsys, tmp_path):
        # the nonfinite row printed the bare token Infinity, which JSON has not,
        # and so did wigner's header where derive's eps_minus overflows
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"n_atoms": sys.float_info.max / 2.0}))
        code, out = run(capsys, ["qfi", "--lambda", "1", "--format", "json", "--config", str(path)])

        def refuse(token):
            raise ValueError(f"{token} is no JSON value")

        [row] = json.loads(out, parse_constant=refuse)["rows"]
        assert code == 3
        assert row[1] is None and row[-1] == cli.NONFINITE
        extra = {"derived": {"eps_minus": math.inf, "phase": "normal"}, "state": {"cov": [[-math.inf, math.nan]]}}
        doc = json.loads(cli._render_json(("x",), [([1.0], 1), (["ok"], 1)], extra), parse_constant=refuse)
        assert doc["derived"] == {"eps_minus": None, "phase": "normal"} and doc["state"] == {"cov": [[None, None]]}

    def test_roundtrip_value(self, capsys):
        code, out = run(capsys, ["qfi", "--lambda", "0.3", "--format", "json"])
        data = json.loads(out)
        assert code == 0
        assert data["rows"][0][1] == pytest.approx(3.3203125, rel=1e-8)

    def test_csv_and_json_print_the_same_doubles(self, capsys):
        # CSV prints 17 significant digits (0.10000000000000001), JSON the
        # shortest text that reads back as the same double (0.1)
        argv = ["fi-photon", "--lambda-min", "0.1", "--lambda-max", "0.9", "--points", "9"]
        _, text = run(capsys, argv)
        _, doc = run(capsys, argv + ["--format", "json"])
        rows = json.loads(doc)["rows"]
        assert [[float(cell) for cell in line.split(",")[:-1]] for line in text.split("\n")[1:-1]] == [
            row[:-1] for row in rows
        ]
        assert text.split("\n")[1].startswith("0.10000000000000001,")
        assert "\n      0.1,\n" in doc

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

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_grid_needs_two_points_per_axis(self, capsys, points):
        # --points 0 fell back to 41 points per axis, and --points 1 printed
        # one row at the corner of the grid
        code, out = run(capsys, ["wigner", "--lambda", "0.7", "--points", points])
        assert code == 2
        assert out == ""

    def test_grid_covers_displaced_peak(self, capsys):
        code, out = run(capsys, ["wigner", "--lambda", "0.7", "--points", "9"])
        assert code == 0
        lines = out.strip().split("\n")[1:]
        assert len(lines) == 81
        best = max(lines, key=lambda line: float(line.split(",")[2]))
        # peak sits near the displaced mean, far from the origin
        assert float(best.split(",")[0]) > 5

    def test_rows_past_the_doubles_are_nonfinite(self, capsys, tmp_path):
        # sqrt(2N) alpha passes the doubles: every row printed nan or inf as ok,
        # with exit 0 and numpy warnings on stderr
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"n_atoms": 5.4e237, "omega": 1.945e-126, "omega0": 1.906e66}))
        code = main(["wigner", "--lambda", "2.72e89", "--points", "3", "--config", str(path)])
        out, err = capsys.readouterr()
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert (code, err) == (3, "")
        assert [row[-1] for row in rows] == [cli.NONFINITE] * 9

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


class TestPerRowReference:
    """Every subcommand prints the bytes of the former row path (tests/oracles.py):
    a list per row with its status appended, a failed point padded with NaN,
    the entanglement and photon rows from a GaussianState per coupling, and
    the Wigner grid point by point."""

    GRIDS = [
        ["--lambda", "0"],
        ["--lambda-min", "0.05", "--lambda-max", "0.95", "--points", "19"],
        ["--omega0", "2", "--lambda-min", "0.01", "--lambda-max", "2", "--points", "25"],
        ["--n-atoms", "1", "--lambda-min", "0.01", "--lambda-max", "2", "--points", "25"],
        ["--n-atoms", "10000", "--lambda-min", "0.01", "--lambda-max", "2", "--points", "25"],
        # a grid, not --lambda: the photon p(n) table would sum ~2.5e5 terms
        ["--lambda-min", "49", "--lambda-max", "50", "--points", "2"],
        ["--lambda", "0.7"],
        # through lambda_c: the critical row reads singular and the others ok
        ["--lambda-min", "0.4", "--lambda-max", "0.5", "--points", "3", "--exclusion", "0"],
        ["--lambda-min", "0.4", "--lambda-max", "0.6", "--points", "21", "--exclusion", "0"],
    ]

    @staticmethod
    def check(tmp_path, builder, argv, fmt):
        # written to a file: photon --lambda also writes its p(n) table
        out = tmp_path / f"table.{fmt}"
        code = main(argv + ["--format", fmt, "--out", str(out)])
        cfg = cli._load_config(cli._build_parser().parse_args(argv))
        columns = cli._COMMANDS[argv[0]].columns
        rows = sweep_rows(builder, len(columns), cli._lambda_grid(cfg), cfg)
        assert out.read_text() == (render_csv if fmt == "csv" else render_json)(columns, rows)
        assert code == (EXIT_OK if all(row[-1] == "ok" for row in rows) else 3)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize(
        "command, builder",
        [
            ("entanglement", entanglement_rows_per_state),
            ("photon", photon_rows_per_state),
            ("qfi", qfi_rows),
            ("fi-homodyne", fi_homodyne_rows),
            ("fi-photon", fi_photon_rows),
        ],
    )
    def test_rows(self, tmp_path, command, builder, grid, fmt):
        self.check(tmp_path, builder, [command, *grid], fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("target", ["radiation", "atoms"])
    def test_homodyne_angles(self, tmp_path, target, grid, fmt):
        argv = ["fi-homodyne", *grid, "--phi", "0,0.7853981633974483,2.5", "--target", target]
        self.check(tmp_path, fi_homodyne_rows, argv, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "lam, n_atoms, omega0", [(0.0, 100, 1.0), (0.3, 100, 1.0), (0.7, 100, 1.0), (2.5, 100, 1.0), (0.3, 1, 2.0), (50.0, 10_000, 1.0)]
    )
    def test_wigner(self, capsys, lam, n_atoms, omega0, fmt):
        argv = ["wigner", "--lambda", repr(lam), "--n-atoms", str(n_atoms), "--omega0", repr(omega0), "--points", "41"]
        code, out = run(capsys, argv + ["--format", fmt])
        params = dicke_metrology.DickeParams(lam=lam, n_atoms=n_atoms, omega0=omega0)
        state, rows = wigner_rows_per_point(params, 41)
        columns = cli._COMMANDS["wigner"].columns
        if fmt == "csv":
            expected = render_csv(columns, rows)
        else:
            doc = {"columns": [*columns, "status"], "rows": rows}
            doc.update(derived=derive(params), state=state_to_dict(state))
            expected = json.dumps(doc, indent=2) + "\n"
        assert code == 0
        assert out == expected


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

    def test_pn_file_beside_a_dotted_directory(self, tmp_path):
        # "t.d/photon" named its p(n) table "t_pn.d/photon" and exited 2
        (tmp_path / "t.d").mkdir()
        assert main(["photon", "--lambda", "0.7", "--out", str(tmp_path / "t.d" / "photon")]) == EXIT_OK
        assert sorted(path.name for path in (tmp_path / "t.d").iterdir()) == ["photon", "photon_pn"]

    def test_pn_file_of_a_relative_path(self, tmp_path, monkeypatch):
        # "./photon" named its p(n) table "_pn./photon"
        monkeypatch.chdir(tmp_path)
        assert main(["photon", "--lambda", "0.7", "--out", "./photon"]) == EXIT_OK
        assert sorted(path.name for path in tmp_path.iterdir()) == ["photon", "photon_pn"]
        assert (tmp_path / "photon_pn").read_text().startswith("n,p,status\n0,")

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
