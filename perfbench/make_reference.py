"""Write reference.json: the stored output of every input the workloads can generate.

    python3 perfbench/make_reference.py

It runs each workload's computation on every lattice position of every bin
(and every CLI sweep shift at --jobs 1), checks the physics invariants, and
stores the values rounded to 10 significant digits, far inside checks.RTOL.
Regenerate only when the inputs change, never to absorb a changed result.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, workloads  # noqa: E402


def _round(value: float) -> float:
    return float(f"{value:.10g}")


def point_values(wl: workloads.PointWorkload) -> dict:
    table = {}
    for point in wl.lattice():
        out = wl.compute(point)
        failure = wl.check(point, out, None)
        if failure != checks.NO_REFERENCE:
            raise SystemExit(f"{wl.name} {point}: {failure}")
        table[point.key] = [_round(v) for v in wl.row(out)]
    return table


def cli_values(wl: workloads.CliWorkload) -> dict:
    table = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp) / "out.csv"
        for sweep in wl.sweeps:
            for step in range(workloads.JITTER_STEPS):
                rc, text = workloads._run_cli(sweep.argv(step, 1, out), out)
                failure = workloads._cli_check(sweep.command, rc, text, None)
                if failure != checks.NO_REFERENCE:
                    raise SystemExit(f"{wl.name} {sweep.command} step {step}: {failure}")
                rows = workloads.cli_reference_rows(sweep.command, text)
                table[wl.ref_key(sweep, step)] = [[_round(v) for v in row] for row in rows]
    return table


def main() -> None:
    values = {}
    for wl in workloads.WORKLOADS.values():
        values[wl.name] = cli_values(wl) if isinstance(wl, workloads.CliWorkload) else point_values(wl)
        print(f"{wl.name}: {len(values[wl.name])} entries", file=sys.stderr)
    doc = {
        "about": "Outputs of dicke_metrology for every benchmark input; see make_reference.py.",
        "columns": {
            workloads.GAUSSIAN_SWEEP.name: workloads.GAUSSIAN_COLUMNS,
            workloads.PHOTON_TABLES.name: workloads.PHOTON_TABLES_COLUMNS,
            workloads.CLI_SWEEPS.name: workloads.CLI_REFERENCE_COLUMNS,
        },
        "values": values,
    }
    text = json.dumps(doc, separators=(",", ":"))
    # one entry per line keeps diffs readable
    text = text.replace('],"', '],\n"')
    checks.REFERENCE_PATH.write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
