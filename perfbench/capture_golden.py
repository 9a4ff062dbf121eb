#!/usr/bin/env python3
"""Capture the reference outputs that the benchmark checks against.

    python3 perfbench/capture_golden.py

Run on the commit whose outputs are the reference; it writes
`perfbench/golden.json` (about two minutes on one core). The Monte-Carlo
references use many more trials than a benchmark run, so a run is checked
against them within a few combined standard errors.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import subprocess  # noqa: E402

from run import HERE, load_library  # noqa: E402

MC_REF_TRIALS = 20000
MC_REF_SEED = 7
PROBE_REF_TRIALS = 400


def main():
    load_library()
    import numpy as np
    from fasris import montecarlo, optimize
    from workloads import (Evaluate, Design, mc_canary, mc_scenario,
                           probe_canary, probe_first_order, probe_scenario)

    inp = Design().setup(0)
    _, _, _, rep, _ = optimize.joint_optimize(inp["scenario"], inp["M"],
                                              phi0=inp["phi0"], T_iter=1,
                                              precoder="rzf")
    evaluate = Evaluate().op(Evaluate().setup(0), 0).values

    sc, z = mc_scenario()
    mc = {}
    for kind in ("rzf", "zf"):
        est = montecarlo.empirical_esr(sc, None, None, kind, MC_REF_TRIALS,
                                       MC_REF_SEED,
                                       z=z if kind == "rzf" else None)
        mc[kind] = {"mean": est.mean, "stderr": est.stderr,
                    "trials": est.trials}
    mc["canary"] = mc_canary(sc, z)

    sc, z = probe_scenario()
    single = np.array([probe_first_order(montecarlo.resolvent_probe(
        sc, None, None, z, 1, 1000 + i)) for i in range(PROBE_REF_TRIALS)])
    probe = {"trials": PROBE_REF_TRIALS, "mean": single.mean(0).tolist(),
             "sd": single.std(0, ddof=1).tolist(),
             "canary": probe_canary(sc, z).tolist()}

    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True,
                            cwd=HERE).stdout.strip()
    golden = {"captured_at": commit or "unknown",
              "design": {"esr": rep.esr}, "evaluate": evaluate,
              "montecarlo": mc, "probe": probe}
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
