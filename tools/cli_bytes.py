"""One digest over the bytes of a fixed set of `dicke-metrology` command lines.

    python tools/cli_bytes.py [--write]

Runs each command line below through `cli.main` in this process and prints
one sha256 digest over every run's argv, exit code, stdout, stderr and the
files it wrote, in a fixed order.  Two commits that print the same digest
give each of these runs the same bytes.  Below it comes one digest per run,
so two commits whose totals differ show which runs moved.

The same runs, line by line, are the expected data of
tests/test_cli_runs.py, kept in tests/cli_runs.json.  A change that moves
output on purpose rewrites that file with --write, and its diff then shows
each moved line.

The runs cover all six subcommands in CSV and JSON at --jobs 1 and 2, grids
through lambda_c at --exclusion 0 (singular rows), a nonconverged fi-photon
row (N = 1000, lambda = 30), a mixed fi-photon grid, a config file, photon
--lambda --out with its _pn table, wigner --format json at lambda = 0 on
resonance, a few config errors, both FI commands at a coupling of 4.3e-217
(where H is 2.7e-194), frequencies past their band, rows whose values pass
the doubles (qfi, photon and wigner), and a qfi grid below a lambda_c of
5e-11.
Each run writes into a fresh temporary directory, whose path reads as <tmp>
in the hashed argv, output and file names.  A warning is hashed after
stderr as its category and message.  The whole run takes a few seconds.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dicke_metrology import cli  # noqa: E402

EXPECTED = Path(__file__).resolve().parent.parent / "tests" / "cli_runs.json"
TMP = "<tmp>"
# the subcommands' base command lines, each run in both formats at both --jobs
SUBCOMMANDS = [
    ["entanglement", "--points", "40"],
    ["qfi", "--points", "40"],
    ["wigner", "--lambda", "0.7", "--points", "9"],
    ["fi-homodyne", "--points", "20", "--phi", "0,0.5,1.5707963267948966"],
    ["photon", "--points", "40"],
    ["fi-photon", "--points", "12"],
]
VANISHING_QFI = ["--omega", "1.57e-17", "--omega0", "1.21e97", "--n-atoms", "2490", "--lambda", "4.3e-217"]
THROUGH_LAMBDA_C = ["--lambda-min", "0.4", "--lambda-max", "0.6", "--points", "21", "--exclusion", "0"]
EXTRA = [
    *([command, *THROUGH_LAMBDA_C] for command in ("entanglement", "qfi", "fi-homodyne", "photon", "fi-photon")),
    ["fi-photon", "--n-atoms", "1000", "--lambda", "30"],
    ["fi-photon", "--n-atoms", "1000", "--lambda-min", "0.3", "--lambda-max", "30", "--points", "3"],
    ["fi-homodyne", "--target", "atoms", "--omega0", "2", "--points", "15", "--phi", "0.3"],
    ["qfi", "--config", f"{TMP}/model.json"],
    ["photon", "--lambda", "0.7", "--out", f"{TMP}/photon.csv"],
    ["photon", "--lambda", "0.7", "--format", "json", "--out", f"{TMP}/photon.json"],
    ["wigner", "--lambda", "0", "--format", "json", "--points", "5"],
    ["qfi", "--lambda", "0.5"],
    ["qfi", "--lambda", "inf"],
    ["qfi", "--points", "1"],
    ["wigner"],
    # H = 4 / (omega + omega0)^2 = 2.7e-194, which the symplectic chain lost to 0.0
    *([command, *VANISHING_QFI] for command in ("fi-photon", "fi-homodyne")),
    ["qfi", "--omega", "1e200", "--omega0", "1e200", "--lambda", "1"],
    # rows past the doubles: H and the coherent part are inf
    ["qfi", "--lambda", "1", "--config", f"{TMP}/largest_n.json"],
    ["photon", "--lambda", "1e10", "--config", f"{TMP}/huge_n.json"],
    # lambda_c = 5e-11: a critical window of an absolute 1e-8 would refuse every row
    ["qfi", "--omega", "1e-10", "--omega0", "1e-10", "--lambda-min", "1e-12", "--lambda-max", "4e-11", "--points", "3",
     "--exclusion", "0"],
    # sqrt(2N) alpha passes the doubles: every wigner row is nan or inf
    ["wigner", "--lambda", "2.72e89", "--points", "3", "--config", f"{TMP}/wigner_past_the_doubles.json"],
]
# the config files that a run may read from <tmp>
CONFIG = {
    "model.json": {"omega0": 2.0, "n_atoms": 1000, "lambda_min": 0.1, "lambda_max": 2.0, "points": 25},
    "largest_n.json": {"n_atoms": sys.float_info.max / 2.0},
    "huge_n.json": {"n_atoms": 1e300},
    "wigner_past_the_doubles.json": {"n_atoms": 5.4e237, "omega": 1.945e-126, "omega0": 1.906e66},
}


def command_lines() -> list[list[str]]:
    lines = [[*base, "--format", fmt, "--jobs", jobs] for base in SUBCOMMANDS for fmt in ("csv", "json") for jobs in "12"]
    return lines + EXTRA


def run(argv: list[str]) -> list[str]:
    """The argv, exit code, stdout, stderr and each written file (name and
    text, by name) of one in-process run, with <tmp> for its directory."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in CONFIG.items():
            Path(tmp, name).write_text(json.dumps(doc))
        before = set(Path(tmp).iterdir())
        out, err = io.StringIO(), io.StringIO()
        # a fresh warnings registry, so a warning shows as in a fresh process
        with warnings.catch_warnings(record=True) as warned, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main([arg.replace(TMP, tmp) for arg in argv])
        written = sorted(set(Path(tmp).iterdir()) - before)
        # a warning by its category and message, without the source path and
        # line that it names, which move with the checkout and with edits
        err.writelines(f"{w.category.__name__}: {w.message}\n" for w in warned)
        parts = [" ".join(argv), str(code), out.getvalue(), err.getvalue()]
        for path in written:
            parts += [path.name, path.read_text(encoding="ascii")]
        return [part.replace(tmp, TMP) for part in parts]


def record(parts: list[str]) -> dict:
    """The parts of one run as the expected data keeps them, each text as its
    list of lines, so that a diff of the file shows each moved line."""
    argv, code, out, err, *files = parts
    return {
        "argv": argv,
        "exit": int(code),
        "stdout": out.split("\n"),
        "stderr": err.split("\n"),
        "files": {name: text.split("\n") for name, text in zip(files[::2], files[1::2])},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true", help=f"also write every run to {EXPECTED.name}")
    args = parser.parse_args()
    digest = hashlib.sha256()
    lines, records = [], []
    for argv in command_lines():
        one = hashlib.sha256()
        parts = run(argv)
        records.append(record(parts))
        for part in map(str.encode, parts):
            # length-prefixed, so that no two runs' parts can shift into each other
            for h in (digest, one):
                h.update(len(part).to_bytes(8, "little"))
                h.update(part)
        lines.append(f"{one.hexdigest()}  {' '.join(argv)}")
    print(f"sha256 {digest.hexdigest()}  {len(lines)} runs")
    print("\n".join(lines))
    if args.write:
        EXPECTED.write_text(json.dumps(records, indent=1) + "\n", encoding="ascii")


if __name__ == "__main__":
    main()
