"""Sweep front end writing ground-state metrology tables as CSV or JSON.

Six subcommands cover the standard figures: entanglement and QFI sweeps,
a Wigner grid of the radiation mode, homodyne and photon-counting Fisher
information ratios, and the photon-number statistics.  Output is fully
deterministic: identical configuration produces byte-identical files, rows
stay in grid order regardless of --jobs, and a float prints at 17
significant digits in CSV and as the shortest repr that reads back as the
same double in JSON.  Rows that hit the critical window or a non-converged
series are emitted with a status flag instead of being dropped.

A sweep travels as columns from the moment jet to the output: each chunk of
the grid returns its builder's columns and one status per coupling, and the
renderers format each distinct value once, so a fi-homodyne coupling and
its QFI are printed once for all its --phi angles.
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

from .dicke import _RAD, DELTA_MIN, DickeParams, _checked_couplings, _critical_coupling, _ground, _Ground, _jet, derive
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
    photon_number_moments,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

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
    "jobs": (1, int, "at most this many worker processes, and no more than the CPUs this process may run on, "
             "one contiguous chunk of the grid each; a sweep runs in this process unless a pool saves more "
             "estimated work than its workers' start-up"),
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


def _grid_ground(lams: list[float], cfg: dict) -> _Ground:
    model = cfg["omega"], cfg["omega0"], cfg["n_atoms"]
    return _ground(_checked_couplings(lams, *model), *model)


# A builder maps the ground stage of a contiguous chunk of the grid to the
# columns of its table after lambda and phi, in order; the moment layers run
# once per chunk, vectorised over its couplings.  A column holds one value per
# coupling, or, if its command lists it under per_angle, one per (coupling,
# --phi angle), coupling-major.


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
    return [fi.ravel().tolist(), h.tolist(), (fi / h[:, None]).ravel().tolist()]


def _photon(ground: _Ground, cfg: dict) -> list[list]:
    return _radiation_decompositions(ground.mean, ground.cov)


def _fi_photon(ground: _Ground, cfg: dict) -> list[list]:
    jet = _jet(ground)
    fis, n_maxes = (list(column) for column in zip(*fi_photon_counting_from_jet(jet)))
    hs = qfi_from_jet(jet)[0].tolist()
    return [fis, hs, [fi / h for fi, h in zip(fis, hs)], n_maxes]


class _Command(NamedTuple):
    columns: tuple[str, ...]
    build: Callable[[_Ground, dict], list[list]] | None  # None: a wigner grid, not a coupling sweep
    # the estimated chunk work per coupling in microseconds (see `_row_costs`)
    row_us: float | None
    help: str
    # the columns whose value changes from one --phi angle to the next within
    # a coupling's rows; the others print one value per coupling on each
    per_angle: tuple[str, ...] = ()


_COMMANDS = {
    "entanglement": _Command(("lambda", "E_N", "d_tilde_minus"), _entanglement, 17.0,
                             "log-negativity between radiation and atoms over a coupling grid"),
    "qfi": _Command(("lambda", "H", "quadratic_term", "displacement_term"), _qfi, 5.0,
                    "quantum Fisher information and its two contributions"),
    "wigner": _Command(("x", "p", "W"), None, None,
                       "Wigner function of the reduced radiation mode on an x/p grid"),
    "fi-homodyne": _Command(("lambda", "phi", "FI", "H", "ratio"), _fi_homodyne, 5.0,
                            "homodyne Fisher information and its ratio to the QFI", ("phi", "FI", "ratio")),
    "photon": _Command(("lambda", "n_s", "thermal", "coherent", "total"), _photon, 13.0,
                       "mean-photon decomposition; with --lambda also the p(n) table"),
    "fi-photon": _Command(("lambda", "FI", "H", "ratio", "n_max"), _fi_photon, 56.0,
                          "photon-counting Fisher information and its ratio to the QFI"),
}


def _built_columns(command: str) -> list[str]:
    """The names of the columns that the command's builder returns, in order."""
    return [name for name in _COMMANDS[command].columns if name not in ("lambda", "phi")]


def _compute_chunk(task: tuple[str, list[float], dict], ground: _Ground | None = None) -> tuple[list[list], list[str]]:
    """A contiguous chunk of grid points -> its builder's columns and one status per point.

    ground is the chunk's ground stage if the caller has it already.  A domain
    error anywhere in the chunk sends each of its points through the builder
    again on its own, so every point gets the status it has alone and a
    failed point NaN values; one-point and whole-chunk evaluations give the
    same bits.
    """
    command, lams, cfg = task
    try:
        if ground is None:
            ground = _grid_ground(lams, cfg)
        return _COMMANDS[command].build(ground, cfg), ["ok"] * len(lams)
    except _DOMAIN_ERRORS as exc:
        status = _status(exc)
    if len(lams) > 1:
        return _joined([_compute_chunk((command, [lam], cfg)) for lam in lams])
    angles = len(cfg["phi"])
    per_angle = _COMMANDS[command].per_angle
    return [[math.nan] * (angles if name in per_angle else 1) for name in _built_columns(command)], [status]


def _joined(parts: list[tuple[list[list], list[str]]]) -> tuple[list[list], list[str]]:
    """`_compute_chunk` results of consecutive chunks as the result of their union."""
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


# A row's estimated cost in microseconds, as tools/row_costs.py prints it, is
# the work a worker takes off this process (`_compute_chunk`); parsing and
# rendering stay here, and with them the row that each --phi angle adds to a
# fi-homodyne coupling.  A row costs its command's row_us, its share of the
# chunk's stacked moments.  The fi-photon row_us also holds a fixed setup that
# costs about as much as 80 series terms, and each row adds its photon series
# and derivative filter at _TERM_US per term over about <n> + _SERIES_SDS sd(n)
# terms.  The per-term and fixed costs were scaled from the previous
# calibration by measured ratios (see the README).
_TERM_US = 0.7
_SERIES_SDS = 10.0
# what each worker process adds to a sweep's wall time (starting it, pickling
# its chunk and its columns, shutting it down, and for the vectorised rows the two
# workers' contention): tools/row_costs.py measured 8 to 81 ms on a shared
# 2-core x86-64 box, highest for 20000 qfi rows; 30 ms keeps the pool off
# every sweep on which it measured the pool losing
_WORKER_START_US = 30_000.0


def _row_costs(command: str, grid: list[float], ground: _Ground | None) -> list[float]:
    """Estimated cost of each row in microseconds, known before any series runs.

    Each row costs its command's row_us.  Given the grid's ground stage,
    which `_gate_costs` takes for fi-photon alone, a row adds its photon
    series, weighed by the <n> and sd(n) of the radiation mode.
    """
    price = _COMMANDS[command].row_us
    if ground is None:
        return [price] * len(grid)
    mean_n, var_n = photon_number_moments(ground.mean[:, _RAD], ground.cov[:, _RAD, _RAD])
    return (price + _TERM_US * (mean_n + _SERIES_SDS * np.sqrt(np.maximum(var_n, 0.0)))).tolist()


def _gate_costs(command: str, grid: list[float], cfg: dict) -> tuple[list[float], _Ground | None]:
    """The row costs that the --jobs gate weighs a sweep by, and the grid's
    ground stage if the costs read one that covers the whole grid.

    fi-photon rows are weighed by the ground stage of the couplings outside
    the window dicke.DELTA_MIN around lambda_c; a row inside it is refused
    before any series runs and costs row_us alone.
    """
    costs = _row_costs(command, grid, None)
    if command != "fi-photon":
        return costs, None
    lam_c = _critical_coupling(cfg["omega"], cfg["omega0"])
    # the rows that `_normal_modes` does not refuse, by its own test
    kept = [i for i, lam in enumerate(grid) if abs(lam - lam_c) > DELTA_MIN]
    if not kept:
        return costs, None
    lams = [grid[i] for i in kept]
    ground = _grid_ground(lams, cfg)
    for i, cost in zip(kept, _row_costs(command, lams, ground)):
        costs[i] = cost
    return costs, ground if len(kept) == len(grid) else None


def _chunk_count(jobs: int, costs: list[float]) -> int:
    """How many chunks to run, at most jobs: the count whose pool saves the most
    beyond its workers' start-up, or 1 (this process, no pool) if none saves any.

    A pool of k workers saves the estimated work outside its largest
    contiguous chunk and costs k start-ups.
    """
    total = math.fsum(costs)
    best, best_gain = 1, 0.0
    for count in range(2, min(jobs, len(costs)) + 1):
        if total - count * _WORKER_START_US <= best_gain:
            break  # no pool of this many workers or more can gain more
        largest = max(math.fsum(chunk) for chunk in _contiguous_chunks(costs, count, costs))
        gain = total - largest - count * _WORKER_START_US
        if gain > best_gain:
            best, best_gain = count, gain
    return best


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _planned_chunks(command: str, grid: list[float], cfg: dict) -> tuple[list[list[float]], _Ground | None]:
    """The chunks a sweep runs in, one per worker process if more than one,
    and the grid's ground stage if the gate computed one that covers the grid.

    At most --jobs chunks, and no more than the CPUs this process may run on:
    the work outside the largest chunk is saved only if each chunk has a CPU
    of its own.
    """
    jobs = min(cfg["jobs"], _usable_cpus())
    if jobs == 1:  # one job is one chunk, whatever the rows cost
        return [grid], None
    costs, ground = _gate_costs(command, grid, cfg)
    return _contiguous_chunks(grid, _chunk_count(jobs, costs), costs), ground


def _contiguous_chunks(grid: list[float], count: int, costs: list[float]) -> list[list[float]]:
    """Split the grid into min(count, len(grid)) contiguous chunks of near-equal cost.

    Each chunk is the shortest run of points whose cost reaches an equal
    share of the cost still left, except that the last two split where the
    larger of them costs least, so they differ by at most one point's cost;
    with equal costs the first len(grid) % count chunks hold one point more
    than the others.
    """
    count = min(count, len(grid))
    chunks, lo, left = [], 0, math.fsum(costs)
    for k in range(count, 1, -1):
        hi, spent = lo + 1, costs[lo]
        while hi < len(grid) - k + 1 and spent < left / k:
            spent += costs[hi]
            hi += 1
        if k == 2 and hi - lo > 1 and left - spent + costs[hi - 1] < spent:
            # its last point makes this chunk the larger by more than that point's cost
            hi, spent = hi - 1, spent - costs[hi - 1]
        chunks.append(grid[lo:hi])
        lo, left = hi, left - spent
    return chunks + [grid[lo:]]


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


def _json_cell(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _render_json(names: tuple[str, ...], columns: list[tuple[list, int]], extra: dict | None = None) -> str:
    rows = max(len(values) * repeat for values, repeat in columns)
    cells = [_filled([_json_cell(value) for value in values], repeat, rows) for values, repeat in columns]
    doc = {"columns": list(names) + ["status"], "rows": list(zip(*cells))}
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2) + "\n"


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
    state = reduced_radiation_state(params)
    # mean +- 6 sd along x and along p, then every (x, p) pair, x outer
    sds = np.sqrt(np.diag(state.cov))
    axes = [np.linspace(m - 6 * sd, m + 6 * sd, cfg["points"]) for m, sd in zip(state.mean, sds)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    xs, ps = (axis.tolist() for axis in axes)
    columns = [(xs, len(ps)), (ps, 1), (wigner_at(state, grid).tolist(), 1), (["ok"], 1)]
    extra = None
    if cfg["format"] == "json":
        extra = {"derived": derive(params), "state": state_to_dict(state)}
    _write(cfg, _COMMANDS["wigner"].columns, columns, cfg["out"], extra)
    return EXIT_OK


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
    chunks, ground = _planned_chunks(args.command, grid, cfg)
    tasks = [(args.command, chunk, cfg) for chunk in chunks]
    if len(tasks) > 1:
        # imported here: loading the pool takes ~25 ms and ~2 MB that one chunk does not need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            parts = list(pool.map(_compute_chunk, tasks))
    else:
        parts = [_compute_chunk(tasks[0], ground)]
    values, statuses = _joined(parts)
    table = _sweep_table(args.command, grid, cfg, values, statuses)
    _write(cfg, _COMMANDS[args.command].columns, table, cfg["out"])
    code = EXIT_OK if all(status == "ok" for status in statuses) else EXIT_NUMERICAL
    if pn_table:
        code = max(code, _run_photon_pn(cfg, float(cfg["lambda"])))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
