"""Sweep front end writing ground-state metrology tables as CSV or JSON.

Six subcommands cover the standard figures: entanglement and QFI sweeps,
a Wigner grid of the radiation mode, homodyne and photon-counting Fisher
information ratios, and the photon-number statistics.  Output is fully
deterministic: identical configuration produces byte-identical files, rows
stay in grid order regardless of --jobs, and floats are printed with 17
significant digits.  Rows that hit the critical window or a non-converged
series are emitted with a status flag instead of being dropped.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from .dicke import RADIATION_MODE, DickeParams, MomentJet, _checked_couplings, derive, ground_moments
from .dicke import moment_jet, reduced_radiation_state
from .errors import DickeMetrologyError, NonConvergedSeries
from .estimation import qfi_from_jet
from .gaussian import state_to_dict, symplectic_spectrum, wigner_at
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
    "jobs": (1, int, "at most this many worker processes, one contiguous chunk of the grid each; a sweep runs "
             "in this process unless a pool saves more estimated work than its workers' start-up"),
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


def _jet(lams: list[float], cfg: dict) -> MomentJet:
    return moment_jet(lams, cfg["omega"], cfg["omega0"], cfg["n_atoms"])


def _moments(lams: list[float], cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    return ground_moments(lams, cfg["omega"], cfg["omega0"], cfg["n_atoms"])


# Row builders map a contiguous chunk of the grid to its rows, in grid order;
# the moment layers run once per chunk, vectorised over its couplings.


def _rows_entanglement(lams: list[float], cfg: dict) -> list[list]:
    spec = symplectic_spectrum(_moments(lams, cfg)[1])
    return [list(row) for row in zip(lams, spec.log_negativity.tolist(), spec.ppt_d_minus.tolist())]


def _rows_qfi(lams: list[float], cfg: dict) -> list[list]:
    columns = (column.tolist() for column in qfi_from_jet(_jet(lams, cfg)))
    return [list(row) for row in zip(lams, *columns)]


def _rows_fi_homodyne(lams: list[float], cfg: dict) -> list[list]:
    jet = _jet(lams, cfg)
    target = Target(cfg["target"])
    fis = [fi_homodyne_from_jet(jet, HomodyneSetting(phi=phi, target=target)).tolist() for phi in cfg["phi"]]
    return [
        [lam, phi, fi, h, fi / h]
        for lam, h, *row in zip(lams, qfi_from_jet(jet)[0].tolist(), *fis)
        for phi, fi in zip(cfg["phi"], row)
    ]


def _rows_photon(lams: list[float], cfg: dict) -> list[list]:
    return [
        [lam, d.n_s, d.thermal, d.coherent, d.total]
        for lam, d in zip(lams, _radiation_decompositions(*_moments(lams, cfg)))
    ]


def _rows_fi_photon(lams: list[float], cfg: dict) -> list[list]:
    jet = _jet(lams, cfg)
    return [
        [lam, fi, h, fi / h, n_max]
        for lam, h, (fi, n_max) in zip(lams, qfi_from_jet(jet)[0].tolist(), fi_photon_counting_from_jet(jet))
    ]


class _Command(NamedTuple):
    columns: tuple[str, ...]
    rows: Callable[[list[float], dict], list[list]] | None  # None: a wigner grid, not a coupling sweep
    help: str


_COMMANDS = {
    "entanglement": _Command(("lambda", "E_N", "d_tilde_minus"), _rows_entanglement,
                             "log-negativity between radiation and atoms over a coupling grid"),
    "qfi": _Command(("lambda", "H", "quadratic_term", "displacement_term"), _rows_qfi,
                    "quantum Fisher information and its two contributions"),
    "wigner": _Command(("x", "p", "W"), None,
                       "Wigner function of the reduced radiation mode on an x/p grid"),
    "fi-homodyne": _Command(("lambda", "phi", "FI", "H", "ratio"), _rows_fi_homodyne,
                            "homodyne Fisher information and its ratio to the QFI"),
    "photon": _Command(("lambda", "n_s", "thermal", "coherent", "total"), _rows_photon,
                       "mean-photon decomposition; with --lambda also the p(n) table"),
    "fi-photon": _Command(("lambda", "FI", "H", "ratio", "n_max"), _rows_fi_photon,
                          "photon-counting Fisher information and its ratio to the QFI"),
}


def _compute_chunk(task: tuple[str, list[float], dict]) -> list[list]:
    """A contiguous chunk of grid points -> finished rows with status.

    A domain error anywhere in the chunk sends each of its points through the
    builder again on its own, so every point gets the status it has alone;
    one-point and whole-chunk evaluations give the same bits.
    """
    command, lams, cfg = task
    try:
        return [row + ["ok"] for row in _COMMANDS[command].rows(lams, cfg)]
    except _DOMAIN_ERRORS as exc:
        status = _status(exc)
    if len(lams) > 1:
        return [row for lam in lams for row in _compute_chunk((command, [lam], cfg))]
    lam = lams[0]
    pad = [math.nan] * (len(_COMMANDS[command].columns) - 1)
    if command == "fi-homodyne":
        return [[lam, phi] + pad[1:] + [status] for phi in cfg["phi"]]
    return [[lam] + pad + [status]]


# Estimated cost of one row in microseconds, as tools/row_costs.py prints it:
# the work a worker takes off this process (`_compute_chunk`; parsing and CSV
# rendering stay here).  Each row costs its share of the chunk's stacked
# moments, plus one FI per --phi angle for fi-homodyne; a fi-photon row runs a
# photon series and its derivative filter over about <n> + 10 sd(n) terms,
# after a share of the vectorised layers and a fixed setup that cost about as
# much as 50 terms (the two scaled from the previous calibration by measured
# ratios, see the README).
_ROW_US = {"entanglement": 17.0, "qfi": 5.0, "fi-homodyne": 5.0, "photon": 13.0}
_ANGLE_US = 0.7
_TERM_US = 1.1
_ROW_TERMS = 50.0
_SERIES_SDS = 10.0
# what each worker process adds to a sweep's wall time (starting it, pickling
# its chunk and rows, shutting it down, and for the vectorised rows the two
# workers' contention): tools/row_costs.py measured 8 to 81 ms on a shared
# 2-core x86-64 box, highest for 20000 qfi rows; 30 ms keeps the pool off
# every sweep on which it measured the pool losing
_WORKER_START_US = 30_000.0


def _row_costs(command: str, grid: list[float], cfg: dict) -> list[float]:
    """Estimated cost of each row in microseconds, known before any series runs.

    fi-photon rows weigh their photon series, from the <n> and sd(n) of the
    radiation mode; the rows of every other command weigh the same.
    """
    if command == "fi-homodyne":
        return [_ROW_US[command] + _ANGLE_US * len(cfg["phi"])] * len(grid)
    if command != "fi-photon":
        return [_ROW_US[command]] * len(grid)
    try:
        mean, cov = _moments(grid, cfg)
    except _DOMAIN_ERRORS:
        # a grid that holds the critical coupling: equal weights, far below
        # any series, so the sweep runs in this process
        return [1.0] * len(grid)
    mode = slice(2 * RADIATION_MODE, 2 * RADIATION_MODE + 2)
    mean_n, var_n = photon_number_moments(mean[:, mode], cov[:, mode, mode])
    return (_TERM_US * (_ROW_TERMS + mean_n + _SERIES_SDS * np.sqrt(np.maximum(var_n, 0.0)))).tolist()


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
    lam_c = math.sqrt(cfg["omega"] * cfg["omega0"]) / 2.0
    grid = np.linspace(cfg["lambda_min"], cfg["lambda_max"], cfg["points"])
    kept = [x for x in grid.tolist() if abs(x - lam_c) >= cfg["exclusion"]]
    if not kept:
        raise ConfigError("exclusion window removed every grid point")
    return kept


def _render_csv(columns: tuple[str, ...], rows: list[list]) -> str:
    # one template a row: "%.17g" prints a double as format(v, ".17g") does,
    # and an int below 2**53 (n_max, n <= PN_MAX_TERMS) as str(n) does
    template = ",".join(["%.17g"] * len(columns) + ["%s"])
    lines = [",".join(columns + ("status",))]
    lines.extend(template % tuple(row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_cell(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _render_json(columns: tuple[str, ...], rows: list[list], extra: dict | None = None) -> str:
    doc = {"columns": list(columns) + ["status"], "rows": [[_json_cell(v) for v in row] for row in rows]}
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2) + "\n"


def _write(cfg: dict, columns: tuple[str, ...], rows: list[list], out: str | None, extra: dict | None = None) -> None:
    """The table in the configured format, written to the path out, or to stdout."""
    text = _render_csv(columns, rows) if cfg["format"] == "csv" else _render_json(columns, rows, extra)
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
    root, dot, ext = out.rpartition(".")
    return f"{root}_pn{dot}{ext}" if dot else f"{out}_pn"


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
        if not cfg["phi"]:
            raise ConfigError("empty --phi list")
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
    rows = [[x, p, w, "ok"] for (x, p), w in zip(grid.tolist(), wigner_at(state, grid).tolist())]
    extra = None
    if cfg["format"] == "json":
        extra = {"derived": derive(params), "state": state_to_dict(state)}
    _write(cfg, _COMMANDS["wigner"].columns, rows, cfg["out"], extra)
    return EXIT_OK


def _run_photon_pn(cfg: dict, lam: float) -> int:
    try:
        dist = photon_distribution(reduced_radiation_state(_params(cfg, lam)))
        rows = [[int(n), float(p), "ok"] for n, p in enumerate(dist.probs)]
        code = EXIT_OK
    except _DOMAIN_ERRORS as exc:
        rows = [[0, math.nan, _status(exc)]]
        code = EXIT_NUMERICAL
    _write(cfg, ("n", "p"), rows, _pn_out_path(cfg["out"]))
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
    chunks = [grid]
    if cfg["jobs"] > 1:  # one job is one chunk, whatever the rows cost
        costs = _row_costs(args.command, grid, cfg)
        chunks = _contiguous_chunks(grid, _chunk_count(cfg["jobs"], costs), costs)
    tasks = [(args.command, chunk, cfg) for chunk in chunks]
    if len(tasks) > 1:
        # imported here: loading the pool takes ~25 ms and ~2 MB that one chunk does not need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            parts = list(pool.map(_compute_chunk, tasks))
    else:
        parts = [_compute_chunk(tasks[0])]
    rows = [row for part in parts for row in part]
    _write(cfg, _COMMANDS[args.command].columns, rows, cfg["out"])
    code = EXIT_OK if all(row[-1] == "ok" for row in rows) else EXIT_NUMERICAL
    if pn_table:
        code = max(code, _run_photon_pn(cfg, float(cfg["lambda"])))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
