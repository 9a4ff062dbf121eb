"""Time a change against its parent with perfbench, in alternating pairs.

    python3 tools/bench_pairs.py --parent ../parent --out BENCH_x.json \
        --pairs design=1-10 --pairs evaluate=1-3 --seconds 30 \
        --description "what the change is"

Runs the unchanged `perfbench/run.py --trace 0` once in the parent
checkout (a copy of the parent commit made with `git clone` or
`git archive`) and once in this working tree for every (workload, seed),
one pair after the other; within each workload the side that runs first
alternates from pair to pair, starting with the parent. Writes a BENCH
file with `description`, `parent`, `analysis` (per workload and
end-to-end metric of BENCHMARK.json: median, q1, q3 and n of each side,
`change_over_parent_median`, `change_better_pairs`, `pairs`, `claim_met`
and, where the change's median is worse than the parent's by more than
half the metric's `bound`, `flag`: "near bound", or "over bound" past the
bound itself; each flag is also printed to stderr) and `runs` (each run's
summary line without its per-operation time lists, and its result line).
`claim_met` is the rule a claimed gain must meet: the change is better in
at least nine tenths of all pairs (a tie counts for neither side), and its
median is better than the parent's by more than the parent's q3 - q1.
`--append` adds the runs to those already in `--out` and analyses them
all, keeping the file's other keys; with no `--pairs` it only analyses.
Exits 1 when a run fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

TREE = Path(__file__).resolve().parent.parent
TIME_LISTS = ("op_wall_s", "op_norm_s", "setup_wall_s")


def seeds(spec: str) -> list[int]:
    """'1-3,7' -> [1, 2, 3, 7]."""
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(root: Path, side: str, workload: str, seed: int,
        seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = [json.loads(line) for line in done.stdout.splitlines()
             if line.startswith("{")]
    record = {"side": side, "workload": workload, "seed": seed}
    if done.returncode or len(lines) < 2 or "correct" not in lines[-1]:
        return {**record, "error": done.stderr[-2000:]}
    summary = {k: v for k, v in lines[-2].items() if k not in TIME_LISTS}
    if not summary.get("errors"):
        summary.pop("errors", None)
    return {**record, "summary": summary, "result": lines[-1]}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def analyse(runs: list[dict], better: dict, bounds: dict) -> dict:
    """Per workload and metric, both sides' quartiles, the pair counts and
    the bound flag; better[metric] is -1 where lower is better, else 1, and
    bounds[metric] the relative worsening BENCHMARK.json allows."""
    analysis = {}
    ok = [r for r in runs if "result" in r]
    for workload in dict.fromkeys(r["workload"] for r in ok):
        by_seed = {}
        for r in ok:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = \
                    r["result"]["metrics"]
        pairs = [v for v in by_seed.values() if len(v) == 2]
        if not pairs:
            continue
        analysis[workload] = {}
        for metric, sign in better.items():
            parent = [p["parent"][metric]["value"] for p in pairs]
            change = [p["change"][metric]["value"] for p in pairs]
            a, b = quartiles(parent), quartiles(change)
            ratio = b["median"] / a["median"]
            wins = sum(bool(sign * (c - p) > 0) for p, c in zip(parent, change))
            row = analysis[workload][metric] = {
                "parent": a, "change": b, "change_over_parent_median": ratio,
                "change_better_pairs": wins, "pairs": len(pairs),
                "claim_met": bool(10 * wins >= 9 * len(pairs) and sign * (
                    b["median"] - a["median"]) > a["q3"] - a["q1"])}
            worse_by = sign * (1.0 - ratio)
            if worse_by > bounds[metric] / 2:
                row["flag"] = ("over bound" if worse_by > bounds[metric]
                               else "near bound")
                print(f"{workload} {metric}: median {worse_by:+.1%} worse "
                      f"than the parent, {row['flag']} "
                      f"({bounds[metric]:.0%})", file=sys.stderr)
    return analysis


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", action="append", default=[],
                        metavar="WORKLOAD=SEEDS", help="e.g. design=1-10")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--description", default="")
    parser.add_argument("--parent-rev", help="default: git HEAD of --parent")
    parser.add_argument("--append", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((TREE / "BENCHMARK.json").read_text())
    better = {m["name"]: -1 if m["better"] == "lower" else 1
              for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    old = json.loads(args.out.read_text()) if args.append else {}
    rev = args.parent_rev or old.get("parent") or subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=args.parent,
        capture_output=True, text=True).stdout.strip() or None
    sides = {"parent": args.parent.resolve(), "change": TREE}
    runs = list(old.get("runs", []))
    for item in args.pairs:
        workload, _, spec_seeds = item.partition("=")
        for i, seed in enumerate(seeds(spec_seeds)):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                runs.append(run(sides[side], side, workload, seed,
                                args.seconds))
                print(json.dumps(runs[-1].get("result", runs[-1])),
                      file=sys.stderr, flush=True)
    bench = {**old,
             "description": args.description or old.get("description", ""),
             "parent": rev, "analysis": analyse(runs, better, bounds),
             "runs": runs}
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    bad = [r for r in runs if "result" not in r or not r["result"]["correct"]
           or r["result"]["failed"]]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
