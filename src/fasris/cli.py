"""Command-line front end.

Subcommands: evaluate, montecarlo, optimize, sweep, validate, figure.
Global flags: --config, --seed, --out-dir, --timing. All outputs derive
from the configured seed only; runtimes are recorded only with --timing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import (load_config, phases_from_config, scenario_from_config,
                     selection_from_config)
from .montecarlo import empirical_esr
from .optimize import (alternating_optimization, deterministic_esr,
                       fw_port_selection, joint_optimize,
                       search_regularization)
from .sweep import (CSV_HEADER, UsageError, format_row, run_experiment,
                    run_figure, validate, write_csv)


def _load(args) -> dict:
    if not args.config:
        raise UsageError("this command needs --config")
    return load_config(args.config)


def _problem(args):
    """(cfg, scenario, selection, phases, seed) of --config; --seed wins."""
    cfg = _load(args)
    scenario = scenario_from_config(cfg)
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    return (cfg, scenario, selection_from_config(cfg, scenario),
            phases_from_config(cfg, scenario.dims.L), seed)


def cmd_evaluate(args) -> int:
    cfg, scenario, s, phi, _ = _problem(args)
    rows = []
    for precoder in args.precoder or cfg.get("precoders", ["rzf"]):
        rep = deterministic_esr(scenario, s, phi, precoder)
        rows.append(format_row(scenario.name, "single", 0.0, precoder, "de",
                               rep.esr))
        print(f"{precoder}: ESR = {rep.esr:.6f} bit/s/Hz "
              f"(per-user SINR {np.array2string(rep.sinr, precision=3)})")
    out = Path(args.out_dir) / "evaluate.csv"
    write_csv(out, rows)
    print(f"wrote {out}")
    return 0


def cmd_montecarlo(args) -> int:
    cfg, scenario, s, phi, seed = _problem(args)
    trials = (int(cfg.get("trials", 2000)) if args.trials is None
              else args.trials)
    z = scenario.default_z(s)             # only RZF reads it
    est = empirical_esr(scenario, s, phi, args.precoder, trials, seed, z)
    snr_db = -10.0 * np.log10(scenario.sigma2)
    out = Path(args.out) if args.out else Path(args.out_dir) / "results.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="\n") as fh:
        fh.write("scenario_id,snr_db,precoder,trials,esr_mean,esr_stderr\n")
        fh.write(f"{scenario.name},{snr_db:.12g},{args.precoder},{trials},"
                 f"{est.mean:.12g},{est.stderr:.12g}\n")
    print(f"{args.precoder}: ESR = {est.mean:.6f} +- {est.ci95:.6f} "
          f"({trials} trials); wrote {out}")
    return 0


def _cell(value) -> str:
    """One trace CSV cell; empty where the record lacks the key."""
    if value is None:
        return ""
    if isinstance(value, list):
        return " ".join(map(str, value))
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def cmd_optimize(args) -> int:
    if args.mode == "zsearch" and args.precoder != "rzf":
        raise UsageError("--mode zsearch searches the RZF regularizer; "
                         f"precoder {args.precoder!r} has none")
    _, scenario, s0, phi0, seed = _problem(args)
    M = scenario.dims.M
    phi0 = np.zeros(scenario.dims.L) if phi0 is None else phi0
    rzf = args.precoder == "rzf"    # ZF has no regularizer

    if args.mode == "joint":
        s, z, phases, rep, trace = joint_optimize(
            scenario, M, phi0, T_iter=args.iterations, precoder=args.precoder)
        phi = phases.phi
    elif args.mode == "ports":
        s = fw_port_selection(scenario, phi0, M)
        z = scenario.default_z(s) if rzf else None
        phi = phi0
        rep = deterministic_esr(scenario, s, phi, args.precoder, z)
        trace = None
    elif args.mode == "phases":
        s = s0
        z, phases, esr, trace = alternating_optimization(
            scenario, s, phi0, precoder=args.precoder)
        phi = phases.phi
        rep = deterministic_esr(scenario, s, phi, args.precoder, z)
    elif args.mode == "zsearch":
        s = s0
        phi = phi0
        z = search_regularization(scenario, s, phi)
        rep = deterministic_esr(scenario, s, phi, "rzf", z)
        trace = None
    else:
        raise UsageError(f"unknown mode {args.mode!r}")

    confirmation = empirical_esr(scenario, s, phi, args.precoder, args.trials,
                                 seed, z)
    solution = {
        "mode": args.mode,
        "precoder": args.precoder,
        "selected_ports": (np.flatnonzero(s).tolist() if s is not None
                           else list(range(M))),
        "phi": list(np.round(np.asarray(phi, dtype=float), 12)),
        "z": float(z) if z is not None else None,
        "esr_deterministic": rep.esr,
        "esr_monte_carlo": {"mean": confirmation.mean,
                            "stderr": confirmation.stderr,
                            "trials": confirmation.trials,
                            "seed": seed},
    }
    out = Path(args.out) if args.out else Path(args.out_dir) / "solution.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(solution, indent=2) + "\n")
    if args.trace and trace is not None:
        tp = Path(args.trace)
        tp.parent.mkdir(parents=True, exist_ok=True)
        with open(tp, "w", newline="\n") as fh:
            fh.write(",".join(trace.COLUMNS) + "\n")
            for r in trace.records:
                fh.write(",".join(_cell(r.get(k)) for k in trace.COLUMNS)
                         + "\n")
        print(f"wrote trace {tp}")
    print(f"ESR (deterministic) = {rep.esr:.6f}; "
          f"MC confirmation = {confirmation.mean:.6f} "
          f"+- {confirmation.ci95:.6f}; wrote {out}")
    return 0


def cmd_sweep(args) -> int:
    out = run_experiment(_load(args), args.out_dir, seed=args.seed,
                         timing=args.timing)
    print(f"wrote {out['csv']} and {out['svg']} ({out['rows']} rows)")
    return 0


def cmd_validate(args) -> int:
    cfg = load_config(args.config) if args.config else None
    checks = validate(cfg, trials=800 if args.trials is None else args.trials,
                      seed=args.seed if args.seed is not None else 7)
    width = max(len(c["name"]) for c in checks)
    failures = 0
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        failures += not c["passed"]
        print(f"{c['name']:<{width}}  {status}  measured={c['measured']:.3e} "
              f"tol={c['tolerance']:.3e}  {c['detail']}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0


def cmd_figure(args) -> int:
    out = run_figure(args.name, args.out_dir,
                     trials=2000 if args.trials is None else args.trials,
                     seed=args.seed if args.seed is not None else 0,
                     timing=args.timing)
    print(f"wrote {out['csv']} and {out['svg']} ({out['rows']} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fasris",
        description="Deterministic-equivalent rates and two-timescale "
                    "optimization for FAS-RIS downlinks")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default="out")
    p.add_argument("--timing", action="store_true",
                   help="record wall-clock runtimes in CSV output "
                        "(breaks byte-identity across runs)")
    sub = p.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evaluate", help="deterministic ESR for a config")
    ev.add_argument("--precoder", action="append",
                    choices=["rzf", "zf"], default=None)
    ev.set_defaults(func=cmd_evaluate)

    mc = sub.add_parser("montecarlo", help="Monte-Carlo ESR estimate")
    mc.add_argument("--trials", type=int, default=None)
    mc.add_argument("--precoder", choices=["rzf", "zf", "mrt"], default="rzf")
    mc.add_argument("--out", default=None)
    mc.set_defaults(func=cmd_montecarlo)

    op = sub.add_parser("optimize", help="two-timescale optimization")
    op.add_argument("--mode", choices=["joint", "phases", "ports", "zsearch"],
                    default="joint")
    op.add_argument("--precoder", choices=["rzf", "zf"], default="rzf")
    op.add_argument("--iterations", type=int, default=3,
                    help="outer iterations of the joint loop")
    op.add_argument("--trials", type=int, default=2000,
                    help="Monte-Carlo confirmation trials")
    op.add_argument("--trace", default=None)
    op.add_argument("--out", default=None)
    op.set_defaults(func=cmd_optimize)

    sw = sub.add_parser("sweep", help="config-driven SNR sweep")
    sw.set_defaults(func=cmd_sweep)

    va = sub.add_parser("validate", help="run the invariant suite")
    va.add_argument("--trials", type=int, default=None)
    va.set_defaults(func=cmd_validate)

    fg = sub.add_parser("figure", help="reproduce a named figure")
    fg.add_argument("name")
    fg.add_argument("--trials", type=int, default=None)
    fg.set_defaults(func=cmd_figure)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:                      # structured diagnostic
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
