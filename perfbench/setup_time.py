"""Set-up cost, measured in fresh interpreters apart from the timed loop.

setup_s is the wall time for a new interpreter to import dicke_metrology.cli
and finish the workload's first call.  The setup.* breakdown comes from
`python -X importtime`.  Each child is waited for; one unmeasured run first
lets the bytecode cache fill, which users do not pay on every run.  The
calibration kernel (calibrate.py) is timed before, between and after the
children, so that the harness can scale set-up time to the reference host.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
import time

from . import calibrate

PRELUDE = "import dicke_metrology.cli as cli\nimport dicke_metrology as dm\n"
CHILD_TIMEOUT_S = 120
# kernel runs after each child and before the first; one run alone varies
# by 2x, so the harness scales by the mean of them all
KERNEL_REPS = 4
PACKAGE = "dicke_metrology"
PACKAGE_METRIC = "setup.import_package_ms"
# importtime prefix -> metric; a dependency imported from inside another one
# (scipy imports numpy.testing) counts for the outer one
DEPENDENCIES = {"numpy": "setup.import_numpy_ms", "scipy": "setup.import_scipy_ms"}


def _run_child(args: list[str], env: dict) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *args],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return proc


def setup_seconds(first_call: str, env: dict, samples: int) -> tuple[list[float], list[float]]:
    """Wall times of `samples` children, and the calibration kernel times
    taken before, between and after them."""
    code = PRELUDE + first_call
    _run_child(["-c", code], env)
    calibrate.kernel()
    kernel_s = [calibrate.time_kernel() for _ in range(KERNEL_REPS)]
    walls = []
    for _ in range(samples):
        t0 = time.perf_counter()
        _run_child(["-c", code], env)
        walls.append(time.perf_counter() - t0)
        kernel_s += [calibrate.time_kernel() for _ in range(KERNEL_REPS)]
    return walls, kernel_s


def parse_importtime(text: str) -> dict[str, float]:
    """Milliseconds per setup.* metric from `python -X importtime` output.

    The package metric is the cumulative time of the outermost
    dicke_metrology import, dependencies included; each dependency metric
    sums its outermost imports that no other dependency made.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self_us, cumulative, name = line[len("import time:"):].split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # header line
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    totals = dict.fromkeys([PACKAGE_METRIC, *DEPENDENCIES.values()], 0.0)
    ancestors: list[tuple[int, str]] = []
    # importtime prints children before their parent; reversed, parents come first
    for depth, name, cumulative_us in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        outer = [a for _, a in ancestors]
        if _under(name, PACKAGE) and not any(_under(a, PACKAGE) for a in outer):
            totals[PACKAGE_METRIC] += cumulative_us / 1000.0
        for dep, metric in DEPENDENCIES.items():
            if _under(name, dep) and not any(_under(a, d) for a in outer for d in DEPENDENCIES):
                totals[metric] += cumulative_us / 1000.0
        ancestors.append((depth, name))
    return totals


def _under(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def import_breakdown(env: dict, samples: int) -> dict[str, float]:
    """Median over `samples` fresh interpreters, keyed by setup.* metric."""
    _run_child(["-c", PRELUDE], env)
    runs = [parse_importtime(_run_child(["-X", "importtime", "-c", PRELUDE], env).stderr) for _ in range(samples)]
    return {metric: statistics.median(r[metric] for r in runs) for metric in runs[0]}
