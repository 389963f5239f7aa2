"""The benchmark workloads: seeded inputs, the operation each input drives
through the package's public API, and the check every output must pass.

Inputs are jittered within fixed bins.  The jitter takes one of JITTER_STEPS
positions per bin, chosen by the seed, so that every input the benchmark can
generate has a stored reference value (see make_reference.py).

The benchmark calls only DickeParams, ground_state, reduced_radiation_state,
log_negativity, qfi, fi_homodyne, HomodyneSetting, Target, photon_distribution,
mean_photon_decomposition and cli.main, and it looks each one up on its module
at call time, so that the traced run sees its wrappers.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import pairwise
from pathlib import Path
from typing import Callable, NamedTuple

import dicke_metrology as dm
import dicke_metrology.cli as dm_cli

from . import checks

JITTER_STEPS = 4
PHIS = (0.0, 1.0471975511965976)  # 0 and pi/3
RESONANT = (1.0, 1.0)
OFF_RESONANT = (1.0, 2.0)


class Point(NamedTuple):
    omega: float
    omega0: float
    n_atoms: int
    lam: float

    @property
    def key(self) -> str:
        return f"{self.omega!r}|{self.omega0!r}|{self.n_atoms}|{self.lam!r}"

    @property
    def lambda_c(self) -> float:
        return math.sqrt(self.omega * self.omega0) / 2.0

    def params(self):
        return dm.DickeParams(lam=self.lam, omega=self.omega, omega0=self.omega0, n_atoms=self.n_atoms)


@dataclass(frozen=True)
class Bin:
    """A coupling range, sampled log-uniformly at JITTER_STEPS positions.

    kind "below"/"above": lam = lambda_c (1 -/+ x); "times": lam = lambda_c x;
    "abs": lam = x.  x runs from lo to hi.
    """

    kind: str
    lo: float
    hi: float

    def coupling(self, lambda_c: float, step: int) -> float:
        x = self.lo * (self.hi / self.lo) ** ((step + 0.5) / JITTER_STEPS)
        if self.kind == "below":
            return lambda_c * (1.0 - x)
        if self.kind == "above":
            return lambda_c * (1.0 + x)
        if self.kind == "times":
            return lambda_c * x
        return x


@dataclass(frozen=True)
class Cell:
    omega: float
    omega0: float
    n_atoms: int
    bin: Bin

    def point(self, step: int) -> Point:
        lc = math.sqrt(self.omega * self.omega0) / 2.0
        return Point(self.omega, self.omega0, self.n_atoms, self.bin.coupling(lc, step))


@dataclass
class Operation:
    """One closed-loop request: run() does the timed work, check() returns a
    failure reason for a wrong output or None."""

    label: str
    points: int
    run: Callable[[], object]
    check: Callable[[object], str | None]
    tag: str = ""
    parallel: bool = False


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _offset_bins(kind: str, edges: tuple[float, ...]) -> list[Bin]:
    return [Bin(kind, lo, hi) for lo, hi in pairwise(edges)]


# A photon series costs O(n_max^2) and n_max grows fast with the coupling, so
# wide bins would let the seed move a pass's cost by tens of percent.  Photon
# bins are 2% wide around fixed centres instead.
PHOTON_BIN_RATIO = 1.02


def _narrow_bins(kind: str, centres: tuple[float, ...]) -> list[Bin]:
    half = math.sqrt(PHOTON_BIN_RATIO)
    return [Bin(kind, c / half, c * half) for c in centres]


# ---------------------------------------------------------------- point workloads


@dataclass(frozen=True)
class PointWorkload:
    """A workload of independent couplings, one operation per coupling."""

    name: str
    deadline_s: float
    columns: tuple[str, ...]
    cells: tuple[Cell, ...]
    compute: Callable[[Point], object]
    row: Callable[[object], list[float]]
    check: Callable[[Point, object, list[float] | None], str | None]
    first_call: str

    def points(self, seed: int) -> list[Point]:
        rng = _rng(self.name, seed)
        return [cell.point(rng.randrange(JITTER_STEPS)) for cell in self.cells]

    def lattice(self) -> list[Point]:
        return [cell.point(step) for cell in self.cells for step in range(JITTER_STEPS)]

    def operations(self, seed: int, reference: dict, out_dir: Path) -> list[Operation]:
        table = reference.get(self.name, {})
        return [self._operation(p, table.get(p.key)) for p in self.points(seed)]

    def _operation(self, point: Point, ref: list[float] | None) -> Operation:
        return Operation(
            label=f"N={point.n_atoms} w={point.omega:g} w0={point.omega0:g} lam={point.lam!r}",
            points=1,
            run=lambda: self.compute(point),
            check=lambda out: self.check(point, out, ref),
        )


def _gaussian_compute(point: Point) -> list[float]:
    p = point.params()
    e_n = dm.log_negativity(dm.ground_state(p).cov)
    res = dm.qfi(p)
    fis = [
        dm.fi_homodyne(p, dm.HomodyneSetting(phi=phi, target=target))
        for target in (dm.Target.RADIATION, dm.Target.ATOMS)
        for phi in PHIS
    ]
    return [e_n, res.qfi, res.quadratic_term, res.displacement_term, *fis]


def _gaussian_check(point: Point, out: list[float], ref: list[float] | None) -> str | None:
    e_n, h, quad, disp, *fis = out
    return checks.first_failure(
        checks.qfi_limits(point, h),
        *(checks.fi_below_qfi(f"FI_homodyne[{i}]", fi, h) for i, fi in enumerate(fis)),
        checks.against_reference(
            GAUSSIAN_COLUMNS, out, ref, floors=(checks.E_N_FLOOR,) + (checks.FI_FLOOR * h,) * 7
        ),
    )


GAUSSIAN_COLUMNS = ("E_N", "H", "quadratic_term", "displacement_term",
                    "FI_rad_phi0", "FI_rad_phi1", "FI_atoms_phi0", "FI_atoms_phi1")

_GAUSSIAN_OFFSETS = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 0.9)
_GAUSSIAN_BINS = (
    _offset_bins("below", _GAUSSIAN_OFFSETS)
    + _offset_bins("above", _GAUSSIAN_OFFSETS)
    + [Bin("times", 0.005, 0.02), Bin("abs", 4.5, 5.5), Bin("abs", 45.0, 55.0)]
)

GAUSSIAN_SWEEP = PointWorkload(
    name="gaussian_sweep",
    deadline_s=2.0,
    columns=GAUSSIAN_COLUMNS,
    cells=tuple(
        Cell(w, w0, n, b)
        for w, w0 in (RESONANT, OFF_RESONANT)
        for n in (1, 100, 10_000)
        for b in _GAUSSIAN_BINS
    ),
    compute=_gaussian_compute,
    row=lambda out: list(out),
    check=_gaussian_check,
    first_call=(
        "p = dm.DickeParams(lam=0.3)\n"
        "dm.log_negativity(dm.ground_state(p).cov)\n"
        "dm.qfi(p)\n"
        "dm.fi_homodyne(p, dm.HomodyneSetting(phi=0.0))\n"
    ),
)


def _photon_tables_compute(point: Point):
    state = dm.reduced_radiation_state(point.params())
    dist = dm.photon_distribution(state)
    return dist.probs, dist.tail_mass, dm.mean_photon_decomposition(state).total


def _photon_tables_row(out) -> list[float]:
    probs, _tail, total = out
    peak = int(probs.argmax())
    return [total, checks.series_mean(probs), probs[0], probs[1], probs[2], float(peak), probs[peak]]


def _photon_tables_check(point: Point, out, ref: list[float] | None) -> str | None:
    probs, tail, total = out
    failure = checks.photon_invariants(probs, tail, total)
    if failure or ref is None:
        return failure or checks.NO_REFERENCE
    peak = int(ref[5])
    if peak >= len(probs):
        return f"series stops at n={len(probs) - 1}, below the reference peak n={peak}"
    got = [total, checks.series_mean(probs), probs[0], probs[1], probs[2], ref[5], probs[peak]]
    return checks.against_reference(PHOTON_TABLES_COLUMNS, got, ref, floors=(checks.P_FLOOR,) * 7)


PHOTON_TABLES_COLUMNS = ("total", "series_mean", "p0", "p1", "p2", "n_peak", "p_peak")

PHOTON_TABLES = PointWorkload(
    name="photon_tables",
    deadline_s=5.0,
    columns=PHOTON_TABLES_COLUMNS,
    cells=tuple(
        Cell(*RESONANT, n, b)
        for n, below, above in (
            (100, (1e-4, 3e-4, 1e-3), (1e-4, 1e-3, 0.4, 1.0)),
            (1000, (1e-4,), (1e-3, 1e-2, 0.1, 0.2, 0.4)),
            (10_000, (1e-4,), (1e-3, 3e-3, 1e-2)),
        )
        for b in _narrow_bins("below", below) + _narrow_bins("above", above)
    ),
    compute=_photon_tables_compute,
    row=_photon_tables_row,
    check=_photon_tables_check,
    first_call=(
        "s = dm.reduced_radiation_state(dm.DickeParams(lam=0.3))\n"
        "dm.photon_distribution(s)\n"
        "dm.mean_photon_decomposition(s)\n"
    ),
)

# Known defects at the parent commit of this benchmark.  They run once per
# photon_tables run, outside the timed loop, under the same deadline; their
# outcomes are reported apart from the timed operations.
KNOWN_DEFECTS = (
    Point(*RESONANT, 1000, 1.0),  # r00 underflows: math domain error
    Point(*RESONANT, 10_000, 0.7),  # r00 underflows: math domain error
    Point(*RESONANT, 2000, 0.7),  # O(n^2) series runs ~420 s, then NonConvergedSeries
)


def defect_probes() -> list[Operation]:
    return [
        Operation(
            label=f"known defect N={p.n_atoms} lam={p.lam:g}",
            points=1,
            run=lambda p=p: _photon_tables_compute(p),
            check=lambda out: checks.photon_invariants(*out),
        )
        for p in KNOWN_DEFECTS
    ]


# ---------------------------------------------------------------- CLI workload


@dataclass(frozen=True)
class Sweep:
    """A CLI sweep whose coupling range shifts by up to `jitter` with the seed."""

    command: str
    lambda_min: float
    lambda_max: float
    jitter: float
    points: int
    extra: tuple[str, ...] = ()

    def argv(self, step: int, jobs: int, out: Path) -> list[str]:
        shift = self.jitter * (step + 0.5) / JITTER_STEPS
        lo, hi = self.lambda_min + shift, self.lambda_max + shift
        return [
            self.command, "--lambda-min", repr(lo), "--lambda-max", repr(hi),
            "--points", str(self.points), *self.extra, "--jobs", str(jobs), "--out", str(out),
        ]


CLI_SWEEPS_SPEC = (
    Sweep("qfi", 0.01, 1.0, 0.01, 200),
    Sweep("fi-homodyne", 0.01, 1.0, 0.01, 200, ("--phi", ",".join(repr(p) for p in PHIS))),
    # exclusion 0.015 = 3e-2 lambda_c: closer in, the package's central
    # difference for dp/dlam is off by up to 5e-6 relative, more than the
    # reference tolerance
    Sweep("fi-photon", 0.35, 0.65, 0.004, 20, ("--exclusion", "0.015")),
)

# numeric CSV columns stored in the reference, per command
CLI_REFERENCE_COLUMNS = {
    "qfi": ("lambda", "H", "quadratic_term", "displacement_term"),
    "fi-homodyne": ("lambda", "FI", "H"),
    "fi-photon": ("lambda", "FI", "H"),
}


def parse_cli_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def cli_reference_rows(command: str, text: str) -> list[list[float]]:
    header, rows = parse_cli_csv(text)
    idx = [header.index(c) for c in CLI_REFERENCE_COLUMNS[command]]
    return [[float(r[i]) for i in idx] for r in rows]


def _cli_check(command: str, rc: int, text: str, ref: list[list[float]] | None) -> str | None:
    if rc != 0:
        return f"cli.main returned exit code {rc}"
    header, rows = parse_cli_csv(text)
    bad = [r for r in rows if r[-1] != "ok"]
    if bad:
        return f"{len(bad)} rows with status {bad[0][-1]!r}, first at lambda={bad[0][0]}"
    if ref is None:
        return checks.NO_REFERENCE
    got = cli_reference_rows(command, text)
    if len(got) != len(ref):
        return f"{len(got)} rows, reference has {len(ref)}"
    columns = CLI_REFERENCE_COLUMNS[command]
    for values, ref_row in zip(got, ref):
        h = values[columns.index("H")]
        floors = [0.0] * len(columns)
        if "FI" in columns:
            floors[columns.index("FI")] = checks.FI_FLOOR * h
            failure = checks.fi_below_qfi(f"FI at lambda={values[0]!r}", values[columns.index("FI")], h)
            if failure:
                return failure
        failure = checks.against_reference(columns, values, ref_row, floors=floors)
        if failure:
            return f"lambda={values[0]!r}: {failure}"
    return None


@dataclass(frozen=True)
class CliWorkload:
    """Whole CLI sweeps in process, each at --jobs 1 and then --jobs 2."""

    name: str
    deadline_s: float
    sweeps: tuple[Sweep, ...]
    first_call: str

    def step(self, seed: int) -> int:
        return _rng(self.name, seed).randrange(JITTER_STEPS)

    @staticmethod
    def ref_key(sweep: Sweep, step: int) -> str:
        return f"{sweep.command}|{step}"

    def operations(self, seed: int, reference: dict, out_dir: Path) -> list[Operation]:
        step = self.step(seed)
        table = reference.get(self.name, {})
        ops = []
        for sweep in self.sweeps:
            ref = table.get(self.ref_key(sweep, step))
            serial: dict[str, str] = {}
            for jobs in (1, 2):
                out = out_dir / f"{sweep.command}-jobs{jobs}.csv"
                ops.append(Operation(
                    label=f"cli {sweep.command} jobs={jobs}",
                    points=sweep.points,
                    run=lambda argv=sweep.argv(step, jobs, out), out=out: _run_cli(argv, out),
                    check=lambda res, cmd=sweep.command, ref=ref, jobs=jobs, serial=serial: _cli_jobs_check(
                        cmd, res, ref, jobs, serial
                    ),
                    tag=f"jobs{jobs}",
                    parallel=jobs > 1,
                ))
        return ops


def _run_cli(argv: list[str], out: Path) -> tuple[int, str]:
    rc = dm_cli.main(argv)
    return rc, out.read_text(encoding="ascii")


def _cli_jobs_check(command: str, res: tuple[int, str], ref, jobs: int, serial: dict) -> str | None:
    rc, text = res
    failure = _cli_check(command, rc, text, ref)
    if failure:
        return failure
    if jobs == 1:
        serial["text"] = text
    elif "text" in serial and serial.pop("text") != text:
        return "--jobs 2 output differs from --jobs 1 output"
    return None


CLI_SWEEPS = CliWorkload(
    name="cli_sweeps",
    deadline_s=60.0,
    sweeps=CLI_SWEEPS_SPEC,
    first_call="cli.main(['qfi', '--lambda', '0.3'])\n",
)

WORKLOADS = {w.name: w for w in (GAUSSIAN_SWEEP, PHOTON_TABLES, CLI_SWEEPS)}
