"""Time the figure recipes of a checkout and print their rows.

    python3 tools/figure_rows.py --root ../parent > parent_rows.json
    python3 tools/figure_rows.py > change_rows.json
    python3 tools/figure_rows.py --diff parent_rows.json change_rows.json

Imports fasris from `<root>/src` (default: this working tree), pins BLAS to
one thread, runs `sweep.run_figure` for fig1, fig2, fig3, fig4, fig5, fig6
and fig7 into a temporary directory, and prints one JSON object: the
checkout's git revision (null outside a git checkout), the trial count, the
total wall time and, per recipe, its wall time and every row of its CSV.
The optimization recipes (fig3, fig5-fig7) write `de_joint` and
`de_uniform` rows; the accuracy and precoder recipes (fig1, fig2, fig4)
write a `de` and an `mc` row per precoder, kept as `de_<precoder>` and
`mc_<precoder>`. The `de_*` rows are deterministic equivalents, so they do
not depend on `--trials`; the `mc_*` rows are Monte-Carlo means over
`--trials` trials at the recipes' fixed seed. perfbench does not run these
recipes; run this script on both sides of a change on one host to compare
them.

`--diff PARENT.json` prints, instead of the JSON object, one tab-separated
line (scenario, axis value, method, parent ESR, change ESR) for every row
whose ESR differs from the parent's by more than 1e-6, a row on one side
only included ("-" for the missing ESR). The change's rows come from the
optional positional file, or else from running the recipes.
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
FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7")
DIFF_TOL = 1e-6


def moved_rows(parent: dict, change: dict, tol: float = DIFF_TOL) -> list:
    """(scenario, axis value, method, parent ESR, change ESR) of every row
    of two `run_recipes` outputs whose ESRs differ by more than tol; None
    stands for a row that one side lacks."""
    def esrs(rows):
        return {(r["scenario_id"], r["axis_value"], r["method"]): r["esr"]
                for fig in rows["figures"].values() for r in fig["rows"]}
    old, new = esrs(parent), esrs(change)
    return [(*key, old.get(key), new.get(key))
            for key in dict.fromkeys([*old, *new])
            if key not in old or key not in new
            or abs(new[key] - old[key]) > tol]


def run_recipes(root: Path, trials: int) -> dict:
    """The JSON object of the module docstring for the checkout at root."""
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
            paths = sweep.run_figure(name, out, trials=trials)
            wall = time.perf_counter() - t0
            with open(paths["csv"], newline="") as fh:
                rows = [{"scenario_id": r["scenario_id"],
                         "axis_value": float(r["axis_value"]),
                         "method": (r["method"] if "_" in r["method"] else
                                    f"{r['method']}_{r['precoder']}"),
                         "esr": float(r["esr"])}
                        for r in csv.DictReader(fh)]
            figures[name] = {"wall_s": wall, "rows": rows}
    return {"rev": rev or None, "trials": trials,
            "wall_s": sum(f["wall_s"] for f in figures.values()),
            "figures": figures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=TREE,
                        help="checkout to import fasris from")
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--diff", type=Path, metavar="PARENT.json",
                        help="print the rows that moved from this file's")
    parser.add_argument("change", type=Path, nargs="?",
                        metavar="CHANGE.json",
                        help="with --diff, rows to read instead of running")
    args = parser.parse_args(argv)
    if args.change and not args.diff:
        parser.error("CHANGE.json needs --diff")
    change = (json.loads(args.change.read_text()) if args.change
              else run_recipes(args.root.resolve(), args.trials))
    if not args.diff:
        print(json.dumps(change))
        return 0
    for row in moved_rows(json.loads(args.diff.read_text()), change):
        print("\t".join("-" if v is None else str(v) for v in row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
