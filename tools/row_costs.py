"""Measure the cost model behind the `--jobs` gate of `dicke_metrology.cli`.

    python tools/row_costs.py [--repeat 9]

Prints the number of CPUs it may run on, then, for that machine:

1. microseconds per row of each command's chunk work (`cli._compute_chunk`,
   median of --repeat runs over two grid sizes), the work a worker process
   takes off this one; parsing and rendering stay in this process and are
   not counted;
2. the fi-photon cost per estimated series term and per row, fitted in
   relative error over sweeps whose series hold 100 to 10^4 terms, so that
   the short sweeps, which carry the per-row part, weigh as much as the
   long ones;
3. the forced-pool break-even: sweeps timed through `cli.main` in one chunk
   and with a 2-worker pool forced (`cli._WORKER_START_US` set to 0), the
   work the pool saves by the estimate (the total minus its largest chunk),
   and the overhead per worker that makes the two times agree,
   (pool - one chunk + saved) / 2.  `cli.main` plans no more workers than
   there are CPUs, so on one CPU there is no pool to force and part 3 is
   skipped.

Compare the printed values with each command's `row_us` in `cli._COMMANDS`,
with `cli._TERM_US` and `cli._WORKER_START_US`, and the last column of
part 3 with the chunk count a run would get.
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


def _gate_costs(command: str, grid: list[float], cfg: dict) -> list[float]:
    """The row costs that `cli.main` prices a sweep with at --jobs > 1."""
    return cli._gate_costs(command, grid, cfg)[0]


def row_costs(repeat: int) -> None:
    print("1. in-process us per coupling (cli._compute_chunk, whole grid in one chunk)")
    sizes = {"qfi": (200, 2000), "fi-homodyne": (200, 2000), "photon": (200, 1000), "entanglement": (200, 1000)}
    for command, points in sizes.items():
        per_row = []
        for n in points:
            us, rows = _chunk_us(command, _sweep_cfg(points=n), repeat)
            per_row.append(us / rows)
        cells = "  ".join(f"{n} points: {us:6.2f}" for n, us in zip(points, per_row))
        print(f"   {command:13s} {cells}   row_us = {cli._COMMANDS[command].row_us}")

    print("2. fi-photon us against estimated series terms, <n> + 10 sd(n) per row")
    price = cli._COMMANDS["fi-photon"].row_us
    sweeps = [
        (100, 0.05, 0.45), (100, 0.55, 1.0), (1000, 0.05, 0.45),
        (1000, 0.55, 1.0), (10_000, 0.05, 0.45), (10_000, 0.55, 1.0),
    ]
    rows_terms, times = [], []
    for n_atoms, lo, hi in sweeps:
        cfg = _sweep_cfg(n_atoms=n_atoms, lambda_min=lo, lambda_max=hi, points=40)
        costs = _gate_costs("fi-photon", cli._lambda_grid(cfg), cfg)
        # the series part of each row's estimate, without the row price
        terms = sum(c - price for c in costs) / cli._TERM_US
        us, rows = _chunk_us("fi-photon", cfg, repeat)
        rows_terms.append((rows, terms))
        times.append(us)
        print(f"   N={n_atoms:<6d} {lo}-{hi}: {us / 1e3:7.1f} ms for {rows} rows, {terms:9.0f} terms,"
              f" {cli._TERM_US * us / sum(costs):5.2f} us per estimated term")
    # us = TERM_US * terms + row_us * rows, least squares in relative error:
    # in microseconds the N=10^4 sweeps would set the fit
    design = np.array([[terms, rows] for rows, terms in rows_terms]) / np.array(times)[:, None]
    (term_us, row_us), *_ = np.linalg.lstsq(design, np.ones(len(times)), rcond=None)
    print(f"   fit: {term_us:.2f} us per term, {row_us:.0f} us per row   "
          f"(cli._TERM_US = {cli._TERM_US}, fi-photon row_us = {price})")


def break_even(repeat: int) -> None:
    if cli._usable_cpus() < 2:
        print("3. forced-pool break-even: skipped, one CPU runs every sweep in one chunk")
        return
    print("3. forced-pool break-even, cli.main, median of alternating runs (ms)")
    print("   sweep                                    work  saved  1 chunk  2-pool  per worker  gate at --jobs 2")
    photon = ["fi-photon", "--lambda-min", "0.55", "--lambda-max", "1.0", "--n-atoms"]
    span = ["--lambda-min", "0.01", "--lambda-max", "1.0", "--points"]
    angles = ",".join(repr(0.1 * i) for i in range(16))
    sweeps = [
        ("qfi", ["qfi", *span, "200"]),
        ("qfi", ["qfi", *span, "2000"]),
        ("qfi", ["qfi", *span, "20000"]),
        ("fi-photon N=100", photon + ["100", "--points", "40"]),
        ("fi-photon N=1000", photon + ["1000", "--points", "40"]),
        ("fi-photon N=1000", photon + ["1000", "--points", "80"]),
        ("fi-photon N=3000", photon + ["3000", "--points", "40"]),
        ("fi-photon N=10^4", photon + ["10000", "--points", "8"]),
        ("fi-photon N=10^4", photon + ["10000", "--points", "14"]),
        ("fi-photon N=10^4", photon + ["10000", "--points", "40"]),
        ("entanglement", ["entanglement", *span, "200"]),
        ("entanglement", ["entanglement", *span, "5000"]),
        ("entanglement", ["entanglement", *span, "20000"]),
        ("photon", ["photon", *span, "20000"]),
        ("fi-homodyne, 16 angles", ["fi-homodyne", *span, "20000", "--phi", angles]),
    ]
    start_us = cli._WORKER_START_US
    overheads = []
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "out.csv")
        for label, argv in sweeps:
            cfg = cli._load_config(cli._build_parser().parse_args(argv))
            grid = cli._lambda_grid(cfg)
            costs = _gate_costs(argv[0], grid, cfg)
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
    print(f"CPUs this process may run on: {cli._usable_cpus()}")
    row_costs(args.repeat)
    break_even(args.repeat)


if __name__ == "__main__":
    main()
