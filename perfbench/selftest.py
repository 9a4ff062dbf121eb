#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py [workload ...]

From the root of a checkout, for each workload (all by default): a short
untraced run must emit exactly the end-to-end metrics of BENCHMARK.json with
their units, two traced runs at one seed must emit exactly the per-layer
metrics with identical counts, and every run must be correct with no failed
operation. Finally the command must fail, without a result, in a directory
holding only BENCHMARK.json and the benchmark's files. Takes a few minutes,
mostly the design workload.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = "1"


def run(spec, workload, seed, trace, cwd=ROOT):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out
    assert out["correct"] is True, proc.stderr
    assert out["failed"] == 0 and out["attempted"] >= 1, out
    return out["metrics"]


def check_names(metrics, declared, label):
    units = {m["name"]: m["unit"] for m in declared}
    assert set(metrics) == set(units), \
        f"{label}: missing {set(units) - set(metrics)}, " \
        f"extra {set(metrics) - set(units)}"
    for name, entry in metrics.items():
        assert entry["unit"] == units[name], (label, name, entry)
        assert isinstance(entry["value"], (int, float)), (label, name, entry)


def main(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = argv or [w["name"] for w in spec["workloads"]]
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for workload in names:
        e2e = result(run(spec, workload, 11, 0))
        check_names(e2e, spec["end_to_end"], f"{workload} trace 0")
        assert all(entry["value"] > 0 for entry in e2e.values()), e2e
        first = result(run(spec, workload, 12, 1))
        second = result(run(spec, workload, 12, 1))
        check_names(first, spec["per_layer"], f"{workload} trace 1")
        differ = [c for c in counts
                  if first[c]["value"] != second[c]["value"]]
        assert not differ, f"{workload}: counts differ between runs: {differ}"
        print(f"ok  {workload}", flush=True)

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(spec, names[0], 1, 0, cwd=bare)
        assert proc.returncode != 0, "bare directory run exited 0"
        assert '"metrics"' not in proc.stdout, "bare directory run printed a result"
    print("ok  bare directory fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
