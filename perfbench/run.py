#!/usr/bin/env python3
"""fasris benchmark: one workload, one seed, a fixed measuring window.

    python3 perfbench/run.py --workload design --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
BLAS is pinned to one thread before numpy loads. The run sets up its inputs
several times (the median is `setup_s`), then repeats the workload's
operation until the window is spent (the median is `op_norm_ms`), checks
every output against the values in `golden.json`, and prints one JSON
object as its last line. Every time is scaled to a reference host speed by
`pace.py`; the raw wall times are in the line before.

With `--trace 0` the metrics are the end-to-end ones of `BENCHMARK.json`.
With `--trace 1` operations alternate between untraced and traced (call
sites wrapped by `tracer.py`); the per-layer metrics are per traced
operation, and `tracing.overhead_*` is the traced minus the untraced median.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPS = 3        # at least this many set-ups,
SETUP_MIN_S = 1.0     # and at least this long in total


def load_library():
    """Import fasris from this checkout's src/, or exit without a result."""
    package = SRC / "fasris"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no fasris package under {SRC}")
    sys.path.insert(0, str(SRC))
    import fasris
    if Path(fasris.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported fasris from {fasris.__file__}, "
                 f"expected {package}")


def environment():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": len(os.sched_getaffinity(0))}


def measure(workload, inputs, seconds, pace, tracer=None):
    """Repeat the operation until `seconds` have passed.

    Returns the untraced and traced operations' spans and all outcomes.
    With a tracer, odd-numbered operations run traced, and at least one
    operation of each kind runs.
    """
    untraced, traced, outcomes = [], [], []
    start = time.perf_counter()
    k = 0
    while True:
        on = tracer is not None and k % 2 == 1
        with tracer.installed() if on else contextlib.nullcontext():
            with pace.span(traced if on else untraced):
                outcomes.append(workload.op(inputs, k))
        k += 1
        if time.perf_counter() - start >= seconds and \
                (tracer is None or traced):
            return untraced, traced, outcomes


def layer_metrics(workload, inputs, tracer, pace, untraced, traced):
    """Per traced operation; seconds and rates at the reference host speed."""
    from tracer import LAYER_METRICS
    n = len(traced)
    values = {key: tracer.totals.get(key, 0.0) / n for key in LAYER_METRICS}
    if hasattr(workload, "two_thread_rate"):
        values["montecarlo.mc_2threads.trials_per_s"] = \
            workload.two_thread_rate(inputs)
    for key, (unit, _) in LAYER_METRICS.items():
        if unit == "s":
            values[key] *= pace.scale
        elif unit == "1/s":
            values[key] /= pace.scale
    base = statistics.median(map(pace.normalized, untraced))
    values["tracing.overhead_s"] = \
        statistics.median(map(pace.normalized, traced)) - base
    values["tracing.overhead_pct"] = 100.0 * values["tracing.overhead_s"] / base
    return {key: {"value": values[key], "unit": LAYER_METRICS[key][0]}
            for key in LAYER_METRICS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_library()
    from pace import Pace
    from tracer import Tracer
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    golden = json.loads((HERE / "golden.json").read_text())
    print(json.dumps({"environment": environment()}), flush=True)

    tracer = Tracer() if args.trace else None
    with Pace() as pace:
        setups = []
        while len(setups) < SETUP_REPS or \
                sum(s.seconds for s in setups) < SETUP_MIN_S:
            with pace.span(setups):
                inputs = workload.setup(args.seed)
        untraced, traced, outcomes = measure(workload, inputs, args.seconds,
                                             pace, tracer)
    if args.trace:
        metrics = layer_metrics(workload, inputs, tracer, pace, untraced,
                                traced)
    else:
        metrics = {
            "op_norm_ms": {"value": 1e3 * statistics.median(
                map(pace.normalized, untraced)), "unit": "ms"},
            "setup_s": {"value": statistics.median(
                map(pace.normalized, setups)), "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
        }
    errors = workload.check(inputs, outcomes, golden)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "operations": len(untraced) + len(traced),
                      "host_scale": pace.scale,
                      "pace_samples": len(pace.samples),
                      "op_wall_s": sorted(s.seconds for s in untraced),
                      "op_norm_s": sorted(map(pace.normalized, untraced)),
                      "setup_wall_s": sorted(s.seconds for s in setups),
                      "summary": workload.summary(inputs, outcomes),
                      "errors": errors}), flush=True)
    for message in errors:
        print(f"perfbench: {message}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
