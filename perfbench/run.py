"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload gaussian_sweep --seed 1 --seconds 35 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.  The
package is imported from src/ next to this directory; without it the run
stops with exit code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# pinned before numpy loads, here and in every child interpreter
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("gaussian_sweep", "photon_tables", "cli_sweeps"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dicke_metrology" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'dicke_metrology'}", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path[:0] = [str(SRC), str(ROOT)]
    import dicke_metrology

    if not Path(dicke_metrology.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {dicke_metrology.__file__}, not the package under {SRC}", file=sys.stderr)
        return 2
    from perfbench import harness

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
