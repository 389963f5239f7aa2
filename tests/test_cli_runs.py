"""The fixed command lines of tools/cli_bytes.py against their checked-in output.

tests/cli_runs.json holds each run's exit code, stdout, stderr and written
files.  A fresh run must match it line by line: every token that is not a
number exactly (headers, statuses, nan, inf, messages), an integer (an exit
code, n_max, an index) exactly, and a number with a point or an exponent to
RTOL relative.  A change that moves output on purpose rewrites the file with
`python tools/cli_bytes.py --write`; the failure report below names every
moved line.
"""
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import cli_bytes  # noqa: E402

# Two forms of the same moments, a 4 x 4 symplectic chain and two 2 x 2
# blocks, moved these runs' values by at most 4.4e-12 relative in the photon
# and fi-photon rows near the vacuum, whose subtractions magnify rounding, and
# by 1.7e-14 in the others; so a float within 1e-9 differs by rounding alone,
# as on another machine's libm, and one past it by a change of formula
RTOL = 1e-9
NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
# the most moved lines a failure lists
SHOWN = 40


def _moved(expected: str, got: str) -> bool:
    """Whether two lines differ by more than the float tolerance."""
    if NUMBER.sub("#", expected) != NUMBER.sub("#", got):
        return True
    for a, b in zip(NUMBER.findall(expected), NUMBER.findall(got)):
        if a == b:
            continue
        if not any(c in a + b for c in ".eE"):
            return True  # two integers
        x, y = float(a), float(b)
        if not abs(x - y) <= RTOL * max(abs(x), abs(y)):
            return True
    return False


def _moved_lines(want: dict, have: dict) -> list[str]:
    """`argv [part line i]: expected -> got` for each line of one run that moved."""
    where = want["argv"]
    if want["exit"] != have["exit"]:
        return [f"{where} [exit]: {want['exit']} -> {have['exit']}"]
    texts = [("stdout", want["stdout"], have["stdout"]), ("stderr", want["stderr"], have["stderr"])]
    if set(want["files"]) != set(have["files"]):
        return [f"{where} [files]: {sorted(want['files'])} -> {sorted(have['files'])}"]
    texts += [(name, want["files"][name], have["files"][name]) for name in sorted(want["files"])]
    moved = []
    for part, old, new in texts:
        if len(old) != len(new):
            moved.append(f"{where} [{part}]: {len(old)} lines -> {len(new)}")
            continue
        moved += [f"{where} [{part} line {i}]: {a!r} -> {b!r}" for i, (a, b) in enumerate(zip(old, new)) if _moved(a, b)]
    return moved


def test_tolerance_reads_numbers_by_kind():
    assert not _moved("0.5,1.0000000000000002,ok", "0.5,1,ok")
    assert _moved("0.5,1.001,ok", "0.5,1,ok")
    assert _moved("0.5,41,ok", "0.5,42,ok")  # n_max
    assert _moved("0.5,nan,singular", "0.5,0.25,ok")
    assert not _moved("1e-300,x", "1.0000000001e-300,x")


def test_runs_match_the_checked_in_output():
    expected = json.loads((ROOT / "tests" / "cli_runs.json").read_text(encoding="ascii"))
    lines = cli_bytes.command_lines()
    assert [run["argv"] for run in expected] == [" ".join(argv) for argv in lines]
    moved = []
    for want, argv in zip(expected, lines):
        moved += _moved_lines(want, cli_bytes.record(cli_bytes.run(argv)))
    shown = "\n".join(moved[:SHOWN] + [f"... and {len(moved) - SHOWN} more"] * (len(moved) > SHOWN))
    assert not moved, f"{len(moved)} lines moved:\n{shown}"
