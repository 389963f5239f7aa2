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
import json
import math
import sys

import numpy as np

from .dicke import RADIATION_MODE, DickeParams, MomentJet, derive, derived_to_dict, ground_moments, moment_jet
from .dicke import reduced_radiation_state
from .errors import DickeMetrologyError, NonConvergedSeries
from .estimation import qfi_from_jet
from .gaussian import GaussianState, log_negativity, partial_trace, state_to_dict, symplectic_spectrum, wigner_at
from .measurements import (
    HomodyneSetting,
    Target,
    fi_homodyne_from_jet,
    fi_photon_counting_from_jet,
    mean_photon_decomposition,
    photon_distribution,
    photon_number_moments,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_DEFAULTS = {
    "omega": 1.0,
    "omega0": 1.0,
    "n_atoms": 100,
    "lambda": None,
    "lambda_min": 0.01,
    "lambda_max": 1.0,
    "points": 100,
    "exclusion": 1e-3,
    "phi": [0.0],
    "target": "radiation",
    "format": "csv",
    "out": None,
    "jobs": 1,
}

_COLUMNS = {
    "entanglement": ("lambda", "E_N", "d_tilde_minus"),
    "qfi": ("lambda", "H", "quadratic_term", "displacement_term"),
    "fi-homodyne": ("lambda", "phi", "FI", "H", "ratio"),
    "photon": ("lambda", "n_s", "thermal", "coherent", "total"),
    "fi-photon": ("lambda", "FI", "H", "ratio", "n_max"),
    "wigner": ("x", "p", "W"),
}


# numerical-domain failures that become a non-ok status; any other exception
# is a fault of the program and propagates with its traceback
_DOMAIN_ERRORS = (DickeMetrologyError, np.linalg.LinAlgError)


class ConfigError(Exception):
    pass


def _params(cfg: dict, lam: float) -> DickeParams:
    return DickeParams(lam=lam, omega=cfg["omega"], omega0=cfg["omega0"], n_atoms=cfg["n_atoms"])


def _jet(lams: list[float], cfg: dict) -> MomentJet:
    return moment_jet(lams, cfg["omega"], cfg["omega0"], cfg["n_atoms"])


def _states(lams: list[float], cfg: dict) -> list[GaussianState]:
    mean, cov = ground_moments(lams, cfg["omega"], cfg["omega0"], cfg["n_atoms"])
    return [GaussianState(m, c) for m, c in zip(mean, cov)]


# Row builders map a contiguous chunk of the grid to its rows, in grid order;
# the moment layers run once per chunk, vectorised over its couplings.


def _rows_entanglement(lams: list[float], cfg: dict) -> list[list]:
    rows = []
    for lam, st in zip(lams, _states(lams, cfg)):
        spec = symplectic_spectrum(st.cov)
        rows.append([lam, log_negativity(st.cov), spec.ppt_d_minus])
    return rows


def _rows_qfi(lams: list[float], cfg: dict) -> list[list]:
    return [
        [lam, res.qfi, res.quadratic_term, res.displacement_term]
        for lam, res in zip(lams, qfi_from_jet(_jet(lams, cfg)))
    ]


def _rows_fi_homodyne(lams: list[float], cfg: dict) -> list[list]:
    jet = _jet(lams, cfg)
    hs = [res.qfi for res in qfi_from_jet(jet)]
    target = Target(cfg["target"])
    fis = [fi_homodyne_from_jet(jet, HomodyneSetting(phi=phi, target=target)).tolist() for phi in cfg["phi"]]
    return [
        [lam, phi, fi[i], h, fi[i] / h]
        for i, (lam, h) in enumerate(zip(lams, hs))
        for phi, fi in zip(cfg["phi"], fis)
    ]


def _rows_photon(lams: list[float], cfg: dict) -> list[list]:
    rows = []
    for lam, st in zip(lams, _states(lams, cfg)):
        d = mean_photon_decomposition(partial_trace(st, [RADIATION_MODE]))
        rows.append([lam, d.n_s, d.thermal, d.coherent, d.total])
    return rows


def _rows_fi_photon(lams: list[float], cfg: dict) -> list[list]:
    jet = _jet(lams, cfg)
    rows = []
    for i, (lam, res) in enumerate(zip(lams, qfi_from_jet(jet))):
        fi, n_max = fi_photon_counting_from_jet(jet, i)
        rows.append([lam, fi, res.qfi, fi / res.qfi, n_max])
    return rows


_ROW_BUILDERS = {
    "entanglement": _rows_entanglement,
    "qfi": _rows_qfi,
    "fi-homodyne": _rows_fi_homodyne,
    "photon": _rows_photon,
    "fi-photon": _rows_fi_photon,
}


def _compute_chunk(task: tuple[str, list[float], dict]) -> list[list]:
    """A contiguous chunk of grid points -> finished rows with status.

    A domain error anywhere in the chunk sends each of its points through the
    builder again on its own, so every point gets the status it has alone;
    one-point and whole-chunk evaluations give the same bits.
    """
    command, lams, cfg = task
    try:
        return [row + ["ok"] for row in _ROW_BUILDERS[command](lams, cfg)]
    except NonConvergedSeries:
        status = "nonconverged"
    except _DOMAIN_ERRORS:
        status = "singular"
    if len(lams) > 1:
        return [row for lam in lams for row in _compute_chunk((command, [lam], cfg))]
    lam = lams[0]
    pad = [math.nan] * (len(_COLUMNS[command]) - 1)
    if command == "fi-homodyne":
        return [[lam, phi] + pad[1:] + [status] for phi in cfg["phi"]]
    return [[lam] + pad + [status]]


# a fi-photon row sums a photon series of about <n> + 10 sd(n) terms, after a
# share of the chunk's vectorised layers that costs about as much as 100 terms
_ROW_TERMS = 100.0
_SERIES_SDS = 10.0


def _row_costs(command: str, grid: list[float], cfg: dict) -> list[float]:
    """Estimated cost of each row, known before any series runs.

    fi-photon rows weigh their photon series, from the <n> and sd(n) of the
    radiation mode; every other row weighs the same.
    """
    if command != "fi-photon":
        return [1.0] * len(grid)
    try:
        mean, cov = ground_moments(grid, cfg["omega"], cfg["omega0"], cfg["n_atoms"])
    except _DOMAIN_ERRORS:
        return [1.0] * len(grid)
    mode = slice(2 * RADIATION_MODE, 2 * RADIATION_MODE + 2)
    mean_n, var_n = photon_number_moments(mean[:, mode], cov[:, mode, mode])
    return (_ROW_TERMS + mean_n + _SERIES_SDS * np.sqrt(np.maximum(var_n, 0.0))).tolist()


def _contiguous_chunks(grid: list[float], count: int, costs: list[float]) -> list[list[float]]:
    """Split the grid into min(count, len(grid)) contiguous chunks of near-equal cost.

    Each chunk is the shortest run of points whose cost reaches an equal
    share of the cost still left; with equal costs the first len(grid) % count
    chunks hold one point more than the others.
    """
    count = min(count, len(grid))
    chunks, lo, left = [], 0, math.fsum(costs)
    for k in range(count, 1, -1):
        hi, spent = lo + 1, costs[lo]
        while hi < len(grid) - k + 1 and spent < left / k:
            spent += costs[hi]
            hi += 1
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
    kept = [float(x) for x in grid if abs(x - lam_c) >= cfg["exclusion"]]
    if not kept:
        raise ConfigError("exclusion window removed every grid point")
    return kept


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.17g}"


def _render_csv(columns: tuple[str, ...], rows: list[list]) -> str:
    lines = [",".join(columns + ("status",))]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_cell(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, np.integer):
        return int(value)
    return value


def _render_json(columns: tuple[str, ...], rows: list[list], extra: dict | None = None) -> str:
    doc = {"columns": list(columns) + ["status"], "rows": [[_json_cell(v) for v in row] for row in rows]}
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2) + "\n"


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


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
    overrides = {
        "omega": args.omega,
        "omega0": args.omega0,
        "n_atoms": args.n_atoms,
        "lambda": args.lam,
        "lambda_min": args.lambda_min,
        "lambda_max": args.lambda_max,
        "points": args.points,
        "exclusion": args.exclusion,
        "format": args.format,
        "out": args.out,
        "jobs": args.jobs,
        "target": args.target,
    }
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    if args.phi is not None:
        try:
            cfg["phi"] = [float(tok) for tok in args.phi.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --phi list: {args.phi!r}") from exc
        if not cfg["phi"]:
            raise ConfigError("empty --phi list")
    if cfg["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {cfg['format']!r}")
    if cfg["target"] not in ("radiation", "atoms"):
        raise ConfigError(f"target must be radiation or atoms, got {cfg['target']!r}")
    for key in ("omega", "omega0", "lambda", "lambda_min", "lambda_max"):
        if cfg[key] is not None and not _finite(cfg[key]):
            raise ConfigError(f"{key.replace('_', '-')} must be a finite number, got {cfg[key]!r}")
    if not all(_finite(phi) for phi in cfg["phi"]):
        raise ConfigError(f"phi must hold finite angles, got {cfg['phi']!r}")
    n_atoms = cfg["n_atoms"]
    if not (_finite(n_atoms) and (isinstance(n_atoms, int) or n_atoms.is_integer())):
        raise ConfigError(f"n-atoms must be a finite integer, got {n_atoms!r}")
    cfg["n_atoms"] = int(n_atoms)
    if not (cfg["omega"] > 0 and cfg["omega0"] > 0 and cfg["n_atoms"] >= 1):
        raise ConfigError("omega and omega0 must be positive and n-atoms at least 1")
    if not (cfg["lambda_min"] >= 0 and (cfg["lambda"] is None or cfg["lambda"] >= 0)):
        raise ConfigError("lambda and lambda-min must be nonnegative")
    if cfg["points"] < 0:
        raise ConfigError("points must be nonnegative")
    if cfg["jobs"] < 1:
        raise ConfigError("jobs must be >= 1")
    if cfg["exclusion"] < 0:
        raise ConfigError("exclusion must be nonnegative")
    return cfg


def _finite(value) -> bool:
    try:
        return not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an int too large for a double
        return False


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicke-metrology",
        description="Ground-state metrology sweeps across the superradiant transition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("entanglement", "log-negativity between radiation and atoms over a coupling grid"),
        ("qfi", "quantum Fisher information and its two contributions"),
        ("wigner", "Wigner function of the reduced radiation mode on an x/p grid"),
        ("fi-homodyne", "homodyne Fisher information and its ratio to the QFI"),
        ("photon", "mean-photon decomposition; with --lambda also the p(n) table"),
        ("fi-photon", "photon-counting Fisher information and its ratio to the QFI"),
    ):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", help="JSON file with the keys the flags below override")
        sp.add_argument("--omega", type=float, help="radiation frequency")
        sp.add_argument("--omega0", type=float, help="atomic level splitting")
        sp.add_argument("--n-atoms", type=int, help="atom number N")
        sp.add_argument("--lambda", dest="lam", type=float, help="single coupling instead of a grid")
        sp.add_argument("--lambda-min", type=float)
        sp.add_argument("--lambda-max", type=float)
        sp.add_argument("--points", type=int, help="grid points (per axis for wigner)")
        sp.add_argument("--exclusion", type=float, help="half-width of the skipped window at lambda_c")
        sp.add_argument("--phi", help="comma-separated quadrature angles (fi-homodyne)")
        sp.add_argument("--target", choices=("radiation", "atoms"), help="homodyne subsystem")
        sp.add_argument("--format", choices=("csv", "json"))
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--jobs", type=int, help="parallel workers, one contiguous chunk of the grid each")
    return parser


def _run_wigner(cfg: dict) -> int:
    if cfg["lambda"] is None:
        raise ConfigError("wigner needs --lambda")
    points = cfg["points"] if cfg["points"] else 41
    params = _params(cfg, float(cfg["lambda"]))
    state = reduced_radiation_state(params)
    sx, sp = math.sqrt(state.cov[0, 0]), math.sqrt(state.cov[1, 1])
    xs = np.linspace(state.mean[0] - 6 * sx, state.mean[0] + 6 * sx, points)
    ps = np.linspace(state.mean[1] - 6 * sp, state.mean[1] + 6 * sp, points)
    rows = [[float(x), float(p), wigner_at(state, np.array([x, p])), "ok"] for x in xs for p in ps]
    if cfg["format"] == "csv":
        text = _render_csv(_COLUMNS["wigner"], rows)
    else:
        extra = {
            "derived": derived_to_dict(derive(params)),
            "state": state_to_dict(state),
        }
        text = _render_json(_COLUMNS["wigner"], rows, extra)
    _write(text, cfg["out"])
    return EXIT_OK


def _run_photon_pn(cfg: dict, lam: float) -> int:
    try:
        dist = photon_distribution(reduced_radiation_state(_params(cfg, lam)))
        rows = [[int(n), float(p), "ok"] for n, p in enumerate(dist.probs)]
        code = EXIT_OK
    except NonConvergedSeries:
        rows = [[0, math.nan, "nonconverged"]]
        code = EXIT_NUMERICAL
    except _DOMAIN_ERRORS:
        rows = [[0, math.nan, "singular"]]
        code = EXIT_NUMERICAL
    columns = ("n", "p")
    text = _render_csv(columns, rows) if cfg["format"] == "csv" else _render_json(columns, rows)
    _write(text, _pn_out_path(cfg["out"]))
    return code


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "wigner":
            return _run_wigner(cfg)
        grid = _lambda_grid(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    chunks = _contiguous_chunks(grid, cfg["jobs"], _row_costs(args.command, grid, cfg))
    tasks = [(args.command, chunk, cfg) for chunk in chunks]
    if len(tasks) > 1:
        # imported here: loading the pool takes ~25 ms and ~2 MB that one chunk does not need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            parts = list(pool.map(_compute_chunk, tasks))
    else:
        parts = [_compute_chunk(tasks[0])]
    rows = [row for part in parts for row in part]
    columns = _COLUMNS[args.command]
    text = _render_csv(columns, rows) if cfg["format"] == "csv" else _render_json(columns, rows)
    _write(text, cfg["out"])
    code = EXIT_OK if all(row[-1] == "ok" for row in rows) else EXIT_NUMERICAL
    if args.command == "photon" and cfg["lambda"] is not None:
        pn_code = _run_photon_pn(cfg, float(cfg["lambda"]))
        code = max(code, pn_code)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
