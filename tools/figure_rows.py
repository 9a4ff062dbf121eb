"""Time the optimization figure recipes of a checkout and print their rows.

    python3 tools/figure_rows.py --root ../parent > parent_rows.json
    python3 tools/figure_rows.py > change_rows.json

Imports fasris from `<root>/src` (default: this working tree), pins BLAS to
one thread, runs `sweep.run_figure` for fig3, fig5, fig6 and fig7 into a
temporary directory, and prints one JSON object: the checkout's git
revision (null outside a git checkout), the trial count, the total wall
time and, per recipe, its wall time and every `de_*` row of its CSV. The
`de_*` rows are deterministic equivalents, so they do not depend on
`--trials`. perfbench does not run these recipes; run this script on
both sides of a change on one host to compare them.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

TREE = Path(__file__).resolve().parent.parent
FIGURES = ("fig3", "fig5", "fig6", "fig7")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=TREE,
                        help="checkout to import fasris from")
    parser.add_argument("--trials", type=int, default=20)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    from fasris import sweep

    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=root, capture_output=True,
                             text=True).stdout.strip()
    except OSError:     # no git binary
        rev = ""
    figures = {}
    with tempfile.TemporaryDirectory() as out:
        for name in FIGURES:
            t0 = time.perf_counter()
            paths = sweep.run_figure(name, out, trials=args.trials)
            wall = time.perf_counter() - t0
            with open(paths["csv"], newline="") as fh:
                rows = [{"scenario_id": r["scenario_id"],
                         "axis_value": float(r["axis_value"]),
                         "method": r["method"], "esr": float(r["esr"])}
                        for r in csv.DictReader(fh)
                        if r["method"].startswith("de_")]
            figures[name] = {"wall_s": wall, "rows": rows}
    print(json.dumps({"rev": rev or None, "trials": args.trials,
                      "wall_s": sum(f["wall_s"] for f in figures.values()),
                      "figures": figures}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
