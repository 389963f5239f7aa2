"""Sweep front end writing ground-state metrology tables as CSV or JSON.

Six subcommands cover the standard figures: entanglement and QFI sweeps,
a Wigner grid of the radiation mode, homodyne and photon-counting Fisher
information ratios, and the photon-number statistics.  Output is fully
deterministic: identical configuration produces byte-identical files, rows
stay in grid order, and a float prints at 17 significant digits in CSV and
as the shortest repr that reads back as the same double in JSON.  Rows that
hit the critical window or a non-converged series are emitted with a status
flag instead of being dropped, and so are rows whose values pass the doubles.

A sweep travels as columns from the moment jet to the output: one vectorised
pass over the grid returns its builder's columns and one status per coupling,
and the renderers format each distinct value once, so a fi-homodyne coupling
and its QFI are printed once for all its --phi angles.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from .dicke import DickeParams, _checked_couplings, _critical_coupling, _ground, _Ground, _jet, derive
from .dicke import reduced_radiation_state
from .errors import DickeMetrologyError, NonConvergedSeries
from .estimation import qfi_from_jet
from .gaussian import _log_negativity, _ppt_d_minus, state_to_dict, wigner_at
from .measurements import (
    HomodyneSetting,
    Target,
    _radiation_decompositions,
    fi_homodyne_from_jet,
    fi_photon_counting_from_jet,
    photon_distribution,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
# the status of a row that raised no domain error but holds an inf or nan value
NONFINITE = "nonfinite"

# Every setting once, by its config key: (default, flag type or choices, help).
# Its flag is "--" plus the key with dashes and stores its value under the key;
# a set flag overrides the config file, and the choices bound both.
_OPTIONS = {
    "omega": (1.0, float, "radiation frequency"),
    "omega0": (1.0, float, "atomic level splitting"),
    "n_atoms": (100, int, "atom number N"),
    "lambda": (None, float, "single coupling instead of a grid"),
    "lambda_min": (0.01, float, None),
    "lambda_max": (1.0, float, None),
    "points": (100, int, "grid points (per axis for wigner)"),
    "exclusion": (1e-3, float, "half-width of the skipped window at lambda_c"),
    "phi": ([0.0], str, "comma-separated quadrature angles (fi-homodyne)"),
    "target": ("radiation", ("radiation", "atoms"), "homodyne subsystem"),
    "format": ("csv", ("csv", "json"), None),
    "out": (None, str, "output path (default stdout)"),
    "jobs": (1, int, "accepted and ignored: every sweep runs once, vectorised, in this process"),
}
_DEFAULTS = {key: default for key, (default, _, _) in _OPTIONS.items()}


# numerical-domain failures that become a non-ok status; any other exception
# is a fault of the program and propagates with its traceback
_DOMAIN_ERRORS = (DickeMetrologyError, np.linalg.LinAlgError)


def _status(exc: Exception) -> str:
    """The row status of a numerical-domain failure."""
    return "nonconverged" if isinstance(exc, NonConvergedSeries) else "singular"


class ConfigError(Exception):
    pass


def _params(cfg: dict, lam: float) -> DickeParams:
    return DickeParams(lam=lam, omega=cfg["omega"], omega0=cfg["omega0"], n_atoms=cfg["n_atoms"])


# A builder maps the ground stage of the grid to the columns of its table
# after lambda and phi, in order; the moment layers run once, vectorised over
# its couplings.  A column holds one value per coupling, or, if its command
# lists it under per_angle, one per (coupling, --phi angle), coupling-major.


def _entanglement(ground: _Ground, cfg: dict) -> list[list]:
    ppt_d_minus = _ppt_d_minus(ground.cov)
    return [_log_negativity(ppt_d_minus).tolist(), ppt_d_minus.tolist()]


def _qfi(ground: _Ground, cfg: dict) -> list[list]:
    return [column.tolist() for column in qfi_from_jet(_jet(ground))]


def _fi_homodyne(ground: _Ground, cfg: dict) -> list[list]:
    jet = _jet(ground)
    target = Target(cfg["target"])
    h = qfi_from_jet(jet)[0]
    fi = np.stack([fi_homodyne_from_jet(jet, HomodyneSetting(phi=phi, target=target)) for phi in cfg["phi"]], axis=-1)
    return [fi.ravel().tolist(), h.tolist(), _ratio(fi, h[:, None]).ravel().tolist()]


def _photon(ground: _Ground, cfg: dict) -> list[list]:
    return _radiation_decompositions(ground.mean, ground.cov)


def _fi_photon(ground: _Ground, cfg: dict) -> list[list]:
    jet = _jet(ground)
    fis, n_maxes = (list(column) for column in zip(*fi_photon_counting_from_jet(jet)))
    h = qfi_from_jet(jet)[0]
    return [fis, h.tolist(), _ratio(np.array(fis), h).tolist(), n_maxes]


def _ratio(fi: np.ndarray, h: np.ndarray) -> np.ndarray:
    """FI / H, the ratio column of both FI commands: nan where H == 0, and no
    floating-point warning (an inf or nan quotient makes its row non-finite)."""
    with np.errstate(all="ignore"):
        return np.where(h == 0.0, math.nan, fi / h)


class _Command(NamedTuple):
    columns: tuple[str, ...]
    build: Callable[[_Ground, dict], list[list]] | None  # None: a wigner grid, not a coupling sweep
    help: str
    # the columns whose value changes from one --phi angle to the next within
    # a coupling's rows; the others print one value per coupling on each
    per_angle: tuple[str, ...] = ()


_COMMANDS = {
    "entanglement": _Command(("lambda", "E_N", "d_tilde_minus"), _entanglement,
                             "log-negativity between radiation and atoms over a coupling grid"),
    "qfi": _Command(("lambda", "H", "quadratic_term", "displacement_term"), _qfi,
                    "quantum Fisher information and its two contributions"),
    "wigner": _Command(("x", "p", "W"), None,
                       "Wigner function of the reduced radiation mode on an x/p grid"),
    "fi-homodyne": _Command(("lambda", "phi", "FI", "H", "ratio"), _fi_homodyne,
                            "homodyne Fisher information and its ratio to the QFI", ("phi", "FI", "ratio")),
    "photon": _Command(("lambda", "n_s", "thermal", "coherent", "total"), _photon,
                       "mean-photon decomposition; with --lambda also the p(n) table"),
    "fi-photon": _Command(("lambda", "FI", "H", "ratio", "n_max"), _fi_photon,
                          "photon-counting Fisher information and its ratio to the QFI"),
}


def _built_columns(command: str) -> list[str]:
    """The names of the columns that the command's builder returns, in order."""
    return [name for name in _COMMANDS[command].columns if name not in ("lambda", "phi")]


def _sweep_columns(command: str, lams: list[float], cfg: dict) -> tuple[list[list], list[str]]:
    """Grid points -> the command's builder columns and one status per point.

    The grid runs once, vectorised; a domain error anywhere in it sends each
    of its points through the builder again on its own, so every point gets
    the status it has alone and a failed point NaN values; one-point and
    whole-grid evaluations give the same bits.  A point that raised nothing
    but has a value past the doubles (inf or nan) keeps its values and gets
    the status NONFINITE: an `ok` row is finite.
    """
    model = cfg["omega"], cfg["omega0"], cfg["n_atoms"]
    try:
        # an overflow leaves an inf or nan value, which its status reports
        with np.errstate(over="ignore", invalid="ignore"):
            ground = _ground(_checked_couplings(lams, *model), *model)
            values = _COMMANDS[command].build(ground, cfg)
    except _DOMAIN_ERRORS as exc:
        status = _status(exc)
    else:
        return values, _finite_statuses(values, len(lams))
    if len(lams) > 1:
        return _joined([_sweep_columns(command, [lam], cfg) for lam in lams])
    angles = len(cfg["phi"])
    per_angle = _COMMANDS[command].per_angle
    return [[math.nan] * (angles if name in per_angle else 1) for name in _built_columns(command)], [status]


def _finite_statuses(values: list[list], points: int) -> list[str]:
    """"ok" for each of the points whose values are all finite, NONFINITE for the others."""
    # a column with a finite sum holds no inf or nan: the usual case in one pass
    if all(math.isfinite(sum(column)) for column in values):
        return ["ok"] * points
    statuses = ["ok"] * points
    for column in values:
        per_point = len(column) // points
        for i, value in enumerate(column):
            if not math.isfinite(value):
                statuses[i // per_point] = NONFINITE
    return statuses


def _joined(parts: list[tuple[list[list], list[str]]]) -> tuple[list[list], list[str]]:
    """`_sweep_columns` results of consecutive grid points as the result of their union."""
    columns = [list(itertools.chain.from_iterable(column)) for column in zip(*(values for values, _ in parts))]
    return columns, [status for _, statuses in parts for status in statuses]


def _sweep_table(
    command: str, grid: list[float], cfg: dict, values: list[list], statuses: list[str]
) -> list[tuple[list, int]]:
    """The columns of a sweep's table (see `_filled`): each coupling, its
    values and its status fill one row per --phi angle, or one row if the
    command has none, and the angles repeat for every coupling."""
    spec = _COMMANDS[command]
    angles = len(cfg["phi"]) if spec.per_angle else 1
    given = {"lambda": grid, "phi": cfg["phi"], **dict(zip(_built_columns(command), values))}
    columns = [(given[name], 1 if name in spec.per_angle else angles) for name in spec.columns]
    return columns + [(statuses, angles)]


def _lambda_grid(cfg: dict) -> list[float]:
    if cfg["lambda"] is not None:
        return [float(cfg["lambda"])]
    if cfg["points"] < 2:
        raise ConfigError("points must be >= 2 for a sweep")
    if not cfg["lambda_min"] < cfg["lambda_max"]:
        raise ConfigError("lambda-min must be below lambda-max")
    lam_c = _critical_coupling(cfg["omega"], cfg["omega0"])
    grid = np.linspace(cfg["lambda_min"], cfg["lambda_max"], cfg["points"])
    kept = [x for x in grid.tolist() if abs(x - lam_c) >= cfg["exclusion"]]
    if not kept:
        raise ConfigError("exclusion window removed every grid point")
    return kept


# A table travels as columns, each a (values, repeat) pair, one per column
# name and a last one for the status: each value fills `repeat` consecutive
# rows, and a column whose values fill fewer rows than the table has repeats
# whole, e.g. the --phi angles of fi-homodyne for every coupling.


def _filled(values: list, repeat: int, rows: int) -> list:
    """A column's values row by row, for a table of `rows` rows."""
    if repeat > 1:
        values = list(itertools.chain.from_iterable(zip(*[values] * repeat)))
    return values if len(values) == rows else values * (rows // len(values))


def _render_csv(names: tuple[str, ...], columns: list[tuple[list, int]]) -> str:
    # "%.17g" prints a double as format(v, ".17g") does, and an int below 2**53
    # (n_max, n <= PN_MAX_TERMS) as str(n) does; a value that fills several
    # rows is formatted once, and the line template then takes its text
    rows = max(len(values) * repeat for values, repeat in columns)
    template, cells = [], []
    for values, repeat in columns[:-1]:
        if repeat == 1 and len(values) == rows:
            template.append("%.17g")
        else:
            template.append("%s")
            values = ["%.17g" % value for value in values]
        cells.append(_filled(values, repeat, rows))
    cells.append(_filled(*columns[-1], rows))
    line = ",".join(template + ["%s"])
    return "\n".join([",".join(names + ("status",)), *map(line.__mod__, zip(*cells))]) + "\n"


def _json_value(value):
    """value, with each float that JSON has no number for (nan, inf, -inf) in it as None."""
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _render_json(names: tuple[str, ...], columns: list[tuple[list, int]], extra: dict | None = None) -> str:
    rows = max(len(values) * repeat for values, repeat in columns)
    cells = [_filled(values, repeat, rows) for values, repeat in columns]
    doc = {"columns": list(names) + ["status"], "rows": list(zip(*cells)), **(extra or {})}
    return json.dumps(_json_value(doc), indent=2) + "\n"


def _write(
    cfg: dict, names: tuple[str, ...], columns: list[tuple[list, int]], out: str | None, extra: dict | None = None
) -> None:
    """The table in the configured format, written to the path out, or to stdout."""
    text = _render_csv(names, columns) if cfg["format"] == "csv" else _render_json(names, columns, extra)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


def _require_writable(paths: list[str | None]) -> None:
    """Raise ConfigError unless each output path can be written, opening nothing:
    a probe open and close would send EOF to the reader of a fifo."""
    for path in (p for p in paths if p is not None):
        target = os.path.realpath(path)  # what a dangling symlink would create
        where = target if os.path.exists(target) else os.path.dirname(target)
        if os.path.isdir(target) or not os.access(where, os.W_OK):
            raise ConfigError(f"cannot write {path}")


def _pn_out_path(out: str | None) -> str | None:
    if out is None:
        return None
    root, ext = os.path.splitext(out)  # the extension of the file name, not of a directory
    return f"{root}_pn{ext}"


def _load_config(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        unknown = set(loaded) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    cfg.update({key: value for key, value in vars(args).items() if key in _OPTIONS and value is not None})
    if args.phi is not None:
        try:
            cfg["phi"] = [float(tok) for tok in args.phi.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --phi list: {args.phi!r}") from exc
    for key, (_, kind, _) in _OPTIONS.items():
        if isinstance(kind, tuple) and cfg[key] not in kind:
            raise ConfigError(f"{key} must be {' or '.join(kind)}, got {cfg[key]!r}")
    couplings = ["lambda_min", "lambda_max"] + ["lambda"] * (cfg["lambda"] is not None)
    for key in ["omega", "omega0", "n_atoms"] + couplings:
        if isinstance(cfg[key], bool) or not isinstance(cfg[key], (int, float)):
            raise ConfigError(f"{key.replace('_', '-')} must be a number, got {cfg[key]!r}")
    try:
        # the model's own domain rules: finite nonnegative couplings, finite
        # positive frequencies and a positive integer atom number
        _checked_couplings([cfg[key] for key in couplings], cfg["omega"], cfg["omega0"], cfg["n_atoms"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cfg["n_atoms"] = int(cfg["n_atoms"])
    if not isinstance(cfg["phi"], list) or not all(_finite(phi) for phi in cfg["phi"]):
        raise ConfigError(f"phi must be a list of finite angles, got {cfg['phi']!r}")
    if not cfg["phi"]:  # from the config file or from --phi
        raise ConfigError("empty --phi list")
    for key in ("points", "jobs"):
        if isinstance(cfg[key], bool) or not isinstance(cfg[key], int):
            raise ConfigError(f"{key} must be an integer, got {cfg[key]!r}")
    if cfg["points"] < 0:
        raise ConfigError("points must be nonnegative")
    if cfg["jobs"] < 1:
        raise ConfigError("jobs must be >= 1")
    if not _finite(cfg["exclusion"]) or cfg["exclusion"] < 0:
        raise ConfigError(f"exclusion must be a finite nonnegative number, got {cfg['exclusion']!r}")
    if cfg["out"] is not None and not isinstance(cfg["out"], str):
        raise ConfigError(f"out must be a path or null, got {cfg['out']!r}")
    return cfg


def _finite(value) -> bool:
    try:
        return not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an int too large for a double
        return False


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every later one."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON file with the keys the flags below override")
    for key, (_, kind, text) in _OPTIONS.items():
        checked = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
        shared.add_argument("--" + key.replace("_", "-"), dest=key, help=text, **checked)
    parser = argparse.ArgumentParser(
        prog="dicke-metrology",
        description="Ground-state metrology sweeps across the superradiant transition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub.add_parser(name, help=command.help, parents=[shared])
    return parser


def _run_wigner(cfg: dict) -> int:
    if cfg["lambda"] is None:
        raise ConfigError("wigner needs --lambda")
    if cfg["points"] < 2:
        raise ConfigError("points must be >= 2 for a wigner grid")
    params = _params(cfg, float(cfg["lambda"]))
    # as in a sweep, an overflow leaves an inf or nan value, which its row's status reports
    with np.errstate(over="ignore", invalid="ignore"):
        state = reduced_radiation_state(params)
        # mean +- 6 sd along x and along p, then every (x, p) pair, x outer
        sds = np.sqrt(np.diag(state.cov))
        axes = [np.linspace(m - 6 * sd, m + 6 * sd, cfg["points"]) for m, sd in zip(state.mean, sds)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        xs, ps = (axis.tolist() for axis in axes)
        columns = [(xs, len(ps)), (ps, 1), (wigner_at(state, grid).tolist(), 1)]
        extra = None
        if cfg["format"] == "json":
            extra = {"derived": derive(params), "state": state_to_dict(state)}
    rows = len(grid)
    statuses = _finite_statuses([_filled(*column, rows) for column in columns], rows)
    _write(cfg, _COMMANDS["wigner"].columns, columns + [(statuses, 1)], cfg["out"], extra)
    return EXIT_OK if all(status == "ok" for status in statuses) else EXIT_NUMERICAL


def _run_photon_pn(cfg: dict, lam: float) -> int:
    try:
        probs = photon_distribution(reduced_radiation_state(_params(cfg, lam))).probs.tolist()
        columns = [(list(range(len(probs))), 1), (probs, 1), (["ok"], 1)]
        code = EXIT_OK
    except _DOMAIN_ERRORS as exc:
        columns = [([0], 1), ([math.nan], 1), ([_status(exc)], 1)]
        code = EXIT_NUMERICAL
    _write(cfg, ("n", "p"), columns, _pn_out_path(cfg["out"]))
    return code


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if cfg["jobs"] > 1:
            print("note: jobs is ignored; the sweep runs in this process", file=sys.stderr)
        pn_table = args.command == "photon" and cfg["lambda"] is not None
        # before any work, so that an unopenable path does not end a finished sweep
        _require_writable([cfg["out"], _pn_out_path(cfg["out"]) if pn_table else None])
        if args.command == "wigner":
            return _run_wigner(cfg)
        grid = _lambda_grid(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    values, statuses = _sweep_columns(args.command, grid, cfg)
    table = _sweep_table(args.command, grid, cfg, values, statuses)
    _write(cfg, _COMMANDS[args.command].columns, table, cfg["out"])
    code = EXIT_OK if all(status == "ok" for status in statuses) else EXIT_NUMERICAL
    if pn_table:
        code = max(code, _run_photon_pn(cfg, float(cfg["lambda"])))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
