"""Measure the cost model behind the `--jobs` gate of `dicke_metrology.cli`.

    python tools/row_costs.py [--repeat 9]

Prints, for the machine it runs on:

1. microseconds per row of each command's chunk work (`cli._compute_chunk`,
   median of --repeat runs over two grid sizes), the work a worker process
   takes off this one; parsing and CSV rendering stay in this process and
   are not counted;
2. the fi-homodyne split into a per-coupling and a per-angle part, fitted
   over 1, 2, 4 and 8 angles;
3. the fi-photon cost per estimated series term and the fixed terms per row,
   fitted in relative error over sweeps whose series hold 100 to 10^4 terms,
   so that the short sweeps, which carry the fixed part, weigh as much as
   the long ones;
4. the forced-pool break-even: sweeps timed through `cli.main` in one chunk
   and with a 2-worker pool forced (`cli._WORKER_START_US` set to 0), the
   work the pool saves by the estimate (the total minus its largest chunk),
   and the overhead per worker that makes the two times agree,
   (pool - one chunk + saved) / 2.

Compare the printed values with `cli._ROW_US`, `cli._ANGLE_US`,
`cli._TERM_US`, `cli._ROW_TERMS` and `cli._WORKER_START_US`, and the last
column of part 4 with the chunk count a run would get.
"""
from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dicke_metrology import cli  # noqa: E402


def _median_s(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _sweep_cfg(**keys) -> dict:
    return dict(cli._DEFAULTS, **keys)


def _chunk_us(command: str, cfg: dict, repeat: int) -> tuple[float, int]:
    """Median in-process time of the whole grid as one chunk, in us, and its couplings."""
    grid = cli._lambda_grid(cfg)
    task = (command, grid, cfg)
    _, statuses = cli._compute_chunk(task)  # warm-up
    if set(statuses) != {"ok"}:
        # such a chunk ran again one point at a time: not the cost of its rows
        raise SystemExit(f"{command} over {grid[0]}..{grid[-1]}: statuses {sorted(set(statuses))}")
    return 1e6 * _median_s(lambda: cli._compute_chunk(task), repeat), len(grid)


def row_costs(repeat: int) -> None:
    print("1. in-process us per coupling (cli._compute_chunk, whole grid in one chunk)")
    sizes = {"qfi": (200, 2000), "fi-homodyne": (200, 2000), "photon": (200, 1000), "entanglement": (200, 1000)}
    for command, points in sizes.items():
        per_row = []
        for n in points:
            us, rows = _chunk_us(command, _sweep_cfg(points=n), repeat)
            per_row.append(us / rows)
        cells = "  ".join(f"{n} points: {us:6.2f}" for n, us in zip(points, per_row))
        print(f"   {command:13s} {cells}   cli._ROW_US = {cli._ROW_US[command]}")

    print("2. fi-homodyne us per coupling against --phi angles (1000 points)")
    angles = [1, 2, 4, 8]
    per_row = []
    for k in angles:
        us, rows = _chunk_us("fi-homodyne", _sweep_cfg(points=1000, phi=[0.1 * i for i in range(k)]), repeat)
        per_row.append(us / rows)
    slope, intercept = np.polyfit(angles, per_row, 1)
    print("   " + "  ".join(f"{k} angles: {us:6.2f}" for k, us in zip(angles, per_row)))
    print(f"   fit: {intercept:.2f} + {slope:.2f} per angle   "
          f"(cli._ROW_US = {cli._ROW_US['fi-homodyne']}, cli._ANGLE_US = {cli._ANGLE_US})")

    print("3. fi-photon us against estimated series terms, <n> + 10 sd(n) per row")
    sweeps = [
        (100, 0.05, 0.45), (100, 0.55, 1.0), (1000, 0.05, 0.45),
        (1000, 0.55, 1.0), (10_000, 0.05, 0.45), (10_000, 0.55, 1.0),
    ]
    rows_terms, times = [], []
    for n_atoms, lo, hi in sweeps:
        cfg = _sweep_cfg(n_atoms=n_atoms, lambda_min=lo, lambda_max=hi, points=40)
        grid = cli._lambda_grid(cfg)
        # the series part of each row's estimate, without the fixed terms
        terms = sum(c / cli._TERM_US - cli._ROW_TERMS for c in cli._row_costs("fi-photon", grid, cfg))
        us, rows = _chunk_us("fi-photon", cfg, repeat)
        rows_terms.append((rows, terms))
        times.append(us)
        print(f"   N={n_atoms:<6d} {lo}-{hi}: {us / 1e3:7.1f} ms for {rows} rows, {terms:9.0f} terms,"
              f" {us / (terms + rows * cli._ROW_TERMS):5.2f} us per estimated term")
    # us = TERM_US * terms + TERM_US * ROW_TERMS * rows, least squares in
    # relative error: in microseconds the N=10^4 sweeps would set the fit
    design = np.array([[terms, rows] for rows, terms in rows_terms]) / np.array(times)[:, None]
    (term_us, row_us), *_ = np.linalg.lstsq(design, np.ones(len(times)), rcond=None)
    print(f"   fit: {term_us:.2f} us per term, {row_us / term_us:.0f} terms per row   "
          f"(cli._TERM_US = {cli._TERM_US}, cli._ROW_TERMS = {cli._ROW_TERMS})")


def break_even(repeat: int) -> None:
    print("4. forced-pool break-even, cli.main, median of alternating runs (ms)")
    print("   sweep                                    work  saved  1 chunk  2-pool  per worker  gate at --jobs 2")
    photon = ["fi-photon", "--lambda-min", "0.55", "--lambda-max", "1.0", "--n-atoms"]
    sweeps = [
        ("qfi", ["qfi", "--lambda-min", "0.01", "--lambda-max", "1.0", "--points", "200"]),
        ("qfi", ["qfi", "--lambda-min", "0.01", "--lambda-max", "1.0", "--points", "2000"]),
        ("qfi", ["qfi", "--lambda-min", "0.01", "--lambda-max", "1.0", "--points", "20000"]),
        ("fi-photon N=100", photon + ["100", "--points", "40"]),
        ("fi-photon N=1000", photon + ["1000", "--points", "40"]),
        ("fi-photon N=1000", photon + ["1000", "--points", "80"]),
        ("fi-photon N=3000", photon + ["3000", "--points", "40"]),
        ("fi-photon N=10^4", photon + ["10000", "--points", "8"]),
        ("fi-photon N=10^4", photon + ["10000", "--points", "14"]),
        ("fi-photon N=10^4", photon + ["10000", "--points", "40"]),
        ("entanglement", ["entanglement", "--lambda-min", "0.01", "--lambda-max", "1.0", "--points", "200"]),
    ]
    start_us = cli._WORKER_START_US
    overheads = []
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "out.csv")
        for label, argv in sweeps:
            cfg = cli._load_config(cli._build_parser().parse_args(argv))
            grid = cli._lambda_grid(cfg)
            costs = cli._row_costs(argv[0], grid, cfg)
            total = sum(costs)
            saved = total - max(sum(c) for c in cli._contiguous_chunks(costs, 2, costs))
            gate = cli._chunk_count(2, costs)
            one, pool = [], []
            try:
                for i in range(repeat):
                    for forced in ((False, True) if i % 2 else (True, False)):
                        cli._WORKER_START_US = 0.0 if forced else start_us
                        t0 = time.perf_counter()
                        cli.main(argv + ["--jobs", "2" if forced else "1", "--out", out])
                        (pool if forced else one).append(time.perf_counter() - t0)
            finally:
                cli._WORKER_START_US = start_us
            t_one, t_pool = 1e3 * statistics.median(one), 1e3 * statistics.median(pool)
            overhead = (t_pool - t_one + saved / 1e3) / 2
            overheads.append(overhead)
            print(f"   {label + f', {len(grid)} points':40s} {total / 1e3:5.0f}  {saved / 1e3:5.0f}"
                  f"  {t_one:7.0f}  {t_pool:6.0f}  {overhead:10.1f}  {gate}")
    print(f"   per-worker overhead: median {statistics.median(overheads):.1f} ms, "
          f"range {min(overheads):.1f} to {max(overheads):.1f}   (cli._WORKER_START_US = {start_us / 1e3:.0f} ms)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=9, help="timed runs per measurement (default 9)")
    args = parser.parse_args()
    row_costs(args.repeat)
    break_even(args.repeat)


if __name__ == "__main__":
    main()
