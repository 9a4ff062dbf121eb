"""The benchmark workloads: inputs from a seed, one operation, output checks.

Each workload is a closed loop with one caller. `setup(seed)` builds the
inputs, `op(inputs, k)` runs the k-th operation and returns an `Outcome`, and
`check(inputs, outcomes, golden)` compares the outputs with the values
captured by `capture_golden.py` on the parent commit and returns a list of
failure messages (empty when everything matches).

A `ConvergenceError`, `FeasibilityError` or `NumericalError` from the
library counts as one failed item and never aborts the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from fasris import db2lin, montecarlo, optimize
from fasris.fixed_point import ConvergenceError, FeasibilityError
from fasris.rates import NumericalError
from fasris.scenarios import (fig1_scenario, fig2_scenario, fig3_scenario,
                              uniform_selection)

LIBRARY_ERRORS = (ConvergenceError, FeasibilityError, NumericalError)

SNRS_DB = (60.0, 70.0, 80.0, 90.0, 100.0)
SNR_DB = 80.0           # design, Monte-Carlo and probe scenarios
MC_M = 24
MC_BLOCK = 100          # trials per precoder per simulate operation
PROBE_M = 32
PROBE_BLOCK = 4         # probe trials per simulate operation
CANARY_SEED = 20250306
MC_CANARY_TRIALS = 16
# Per-quantity tolerance for pooled Monte-Carlo figures, in standard errors.
MC_SIGMAS = 5.0
PROBE_SIGMAS = 6.0
EVAL_RTOL = 1e-6
CANARY_RTOL = 1e-9
DESIGN_ESR_SLACK = 2e-3  # a design may land at most 0.2% below the capture


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    values: dict = field(default_factory=dict)
    seconds: dict = field(default_factory=dict)   # wall time per part


def _timed(out, part, fn, *args, **kwargs):
    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        out.seconds[part] = out.seconds.get(part, 0.0) \
            + time.perf_counter() - t0


def _rates(outcomes, items):
    """Items per second of each part over all operations of a run."""
    rates = {}
    for part, per_op in items.items():
        spent = sum(o.seconds.get(part, 0.0) for o in outcomes)
        rates[f"{part}_per_s"] = per_op * len(outcomes) / spent if spent else None
    return rates


def block_seed(seed: int, k: int) -> int:
    """Substream key of the k-th Monte-Carlo block of a run."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1,
                                                                np.uint64)[0])


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# design: the two-timescale joint optimization on the fig3 scenario
# ---------------------------------------------------------------------------

class Design:
    def setup(self, seed):
        sc, M = fig3_scenario(SNR_DB)
        # A common phase rotation: C(Phi) depends on phase differences only,
        # so every seed runs the same design path. Independent per-element
        # phases change the work per design by up to 3x between seeds.
        theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi)
        return {"scenario": sc, "M": M, "phi0": np.full(sc.dims.L, theta)}

    def op(self, inp, k):
        try:
            s, z, phases, rep, _ = optimize.joint_optimize(
                inp["scenario"], inp["M"], phi0=inp["phi0"], T_iter=1,
                precoder="rzf")
        except LIBRARY_ERRORS:
            return Outcome(1, 1)
        return Outcome(1, 0, {"s": s, "z": z, "phi": phases.phi,
                              "esr": rep.esr})

    def check(self, inp, outcomes, golden):
        errors = []
        ref = golden["design"]["esr"]
        for o in outcomes:
            if not o.values:
                continue
            v = o.values
            if int(v["s"].sum()) != inp["M"] or not np.isfinite(v["esr"]):
                errors.append("design: selection or ESR malformed")
            elif v["esr"] < ref * (1.0 - DESIGN_ESR_SLACK):
                errors.append(f"design: ESR {v['esr']:.6f} below capture "
                              f"{ref:.6f}")
        last = next((o.values for o in reversed(outcomes) if o.values), None)
        if last is not None:
            again = optimize.deterministic_esr(inp["scenario"], last["s"],
                                               last["phi"], "rzf", last["z"])
            if _rel(again.esr, last["esr"]) > EVAL_RTOL:
                errors.append("design: reported ESR does not re-evaluate")
        return errors

    def summary(self, inp, outcomes):
        esr = [o.values["esr"] for o in outcomes if o.values]
        return {"design_esr": esr[0] if esr else None}


# ---------------------------------------------------------------------------
# evaluate: cold deterministic ESR over the published grids
# ---------------------------------------------------------------------------

def evaluation_points():
    """(key, scenario, selection, precoder) for the 56 evaluation points.

    Points that differ only in SNR share one scenario's correlation matrices.
    """
    fig1 = {M: fig1_scenario(M, SNR_DB) for M in (16, 20, 24)}
    fig3, M3 = fig3_scenario(SNR_DB)
    uniform = uniform_selection(M3, fig3.dims.M_tot)
    cases = []
    for snr in SNRS_DB:
        sigma2 = db2lin(-snr)
        for M, sc in fig1.items():
            cases.append((f"fig1_M{M}_{snr:g}dB", replace(sc, sigma2=sigma2),
                          None))
        cases.append((f"fig3_uniform_{snr:g}dB",
                      replace(fig3, sigma2=sigma2), uniform))
    for case in (1, 2):
        for scale in (1, 2, 3, 4):
            cases.append((f"fig2_case{case}_x{scale}",
                          fig2_scenario(case, scale), None))
    return [(f"{key}_{prec}", sc, sel, prec)
            for key, sc, sel in cases for prec in ("rzf", "zf")]


class Evaluate:
    def setup(self, seed):
        rng = np.random.default_rng(seed)
        points = evaluation_points()
        order = rng.permutation(len(points))
        return {"points": [points[i] for i in order]}

    def op(self, inp, k):
        out = Outcome()
        for key, sc, s, prec in inp["points"]:
            out.attempted += 1
            regime = "eval_common" if s is not None else "eval_uncommon"
            try:
                out.values[key] = _timed(out, regime,
                                         optimize.deterministic_esr, sc, s,
                                         None, prec).esr
            except LIBRARY_ERRORS:
                out.failed += 1
        return out

    def check(self, inp, outcomes, golden):
        errors = []
        ref = golden["evaluate"]
        for o in outcomes:
            for key, esr in o.values.items():
                if _rel(esr, ref[key]) > EVAL_RTOL:
                    errors.append(f"evaluate: {key} ESR {esr!r} != capture "
                                  f"{ref[key]!r}")
        return errors[:10]

    def summary(self, inp, outcomes):
        common = sum(s is not None for _, _, s, _ in inp["points"])
        return _rates(outcomes, {"eval_common": common,
                                 "eval_uncommon": len(inp["points"]) - common})


# ---------------------------------------------------------------------------
# simulate: the Monte-Carlo oracle and the resolvent probe
# ---------------------------------------------------------------------------

def mc_scenario():
    sc = fig1_scenario(MC_M, SNR_DB)
    return sc, sc.dims.K * sc.sigma2 / MC_M


def probe_scenario():
    sc = fig1_scenario(PROBE_M, SNR_DB)
    return sc, sc.dims.K * sc.sigma2 / PROBE_M


def mc_canary(sc, z):
    return {kind: montecarlo.empirical_esr(sc, None, None, kind,
                                           MC_CANARY_TRIALS, CANARY_SEED,
                                           z=z if kind == "rzf" else None).mean
            for kind in ("rzf", "zf")}


def probe_first_order(pr):
    return np.concatenate([[pr.delta_hat], pr.omega_hat, pr.mu_hat])


def probe_canary(sc, z):
    return probe_first_order(montecarlo.resolvent_probe(sc, None, None, z, 1,
                                                        CANARY_SEED))


class Simulate:
    def setup(self, seed):
        sc, z = mc_scenario()
        probe_sc, probe_z = probe_scenario()
        return {"scenario": sc, "z": z, "probe_scenario": probe_sc,
                "probe_z": probe_z, "seed": seed}

    def _mc(self, inp, out, seed, threads=1):
        for kind in ("rzf", "zf"):
            out.attempted += 1
            try:
                est = _timed(out, "mc_trials", montecarlo.empirical_esr,
                             inp["scenario"], None, None, kind, MC_BLOCK, seed,
                             z=inp["z"] if kind == "rzf" else None,
                             threads=threads)
            except LIBRARY_ERRORS:
                out.failed += 1
                continue
            out.values[kind] = (est.mean, est.stderr)

    def op(self, inp, k):
        out = Outcome()
        seed = block_seed(inp["seed"], k)
        self._mc(inp, out, seed)
        out.attempted += 1
        try:
            pr = _timed(out, "probe_trials", montecarlo.resolvent_probe,
                        inp["probe_scenario"], None, None, inp["probe_z"],
                        PROBE_BLOCK, seed)
        except LIBRARY_ERRORS:
            out.failed += 1
            return out
        out.values["probe"] = probe_first_order(pr)
        return out

    def two_thread_rate(self, inp):
        """Monte-Carlo trials per second with `threads=2`, one block."""
        out = Outcome()
        self._mc(inp, out, block_seed(inp["seed"], 2 ** 32), threads=2)
        return 2 * MC_BLOCK / out.seconds["mc_trials"]

    def check(self, inp, outcomes, golden):
        errors = []
        ref = golden["montecarlo"]
        for kind in ("rzf", "zf"):
            blocks = [o.values[kind] for o in outcomes if kind in o.values]
            if not blocks:
                continue
            mean = float(np.mean([b[0] for b in blocks]))
            se = float(np.sqrt(np.sum([b[1] ** 2 for b in blocks]))
                       / len(blocks))
            tol = MC_SIGMAS * np.hypot(se, ref[kind]["stderr"])
            if abs(mean - ref[kind]["mean"]) > tol:
                errors.append(f"simulate: {kind} mean {mean:.5f} outside "
                              f"{ref[kind]['mean']:.5f} +- {tol:.5f}")
        for kind, value in mc_canary(inp["scenario"], inp["z"]).items():
            if _rel(value, ref["canary"][kind]) > CANARY_RTOL:
                errors.append(f"simulate: {kind} canary {value!r} != "
                              f"capture {ref['canary'][kind]!r}")

        ref = golden["probe"]
        blocks = [o.values["probe"] for o in outcomes if "probe" in o.values]
        if blocks:
            n = PROBE_BLOCK * len(blocks)
            tol = PROBE_SIGMAS * np.asarray(ref["sd"]) \
                * np.sqrt(1.0 / n + 1.0 / ref["trials"])
            bad = np.flatnonzero(np.abs(np.mean(blocks, axis=0)
                                        - np.asarray(ref["mean"])) > tol)
            if bad.size:
                errors.append(f"simulate: probe first-order entries "
                              f"{bad.tolist()} outside {PROBE_SIGMAS:g} "
                              f"sigma of capture")
        canary = probe_canary(inp["probe_scenario"], inp["probe_z"])
        if np.max(np.abs(canary - ref["canary"])
                  / np.abs(ref["canary"])) > CANARY_RTOL:
            errors.append("simulate: probe canary differs from capture")
        return errors

    def summary(self, inp, outcomes):
        def mean(key):
            vals = [o.values[key] for o in outcomes if key in o.values]
            return np.mean(vals, axis=0).tolist() if vals else None
        return {"mc_rzf_esr": mean("rzf"), "mc_zf_esr": mean("zf"),
                **_rates(outcomes, {"mc_trials": 2 * MC_BLOCK,
                                    "probe_trials": PROBE_BLOCK})}


WORKLOADS = {"design": Design(), "evaluate": Evaluate(),
             "simulate": Simulate()}
