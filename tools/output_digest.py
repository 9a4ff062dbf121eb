"""Print raw-byte SHA-256 digests of a checkout's numerical outputs.

    python3 tools/output_digest.py --root ../parent > parent_digest.json
    python3 tools/output_digest.py --values change.npz > change_digest.json
    python3 tools/output_digest.py --compare parent.npz change.npz

Imports fasris from `<root>/src` (default: this working tree) and the
benchmark's workloads from `<root>/perfbench`, pins BLAS to one thread and
prints one JSON object: the checkout's git revision (null outside a git
checkout), the wall time and one SHA-256 per group over the raw bytes of
that group's outputs. Equal digests mean bit-identical outputs; a
refactor that claims to keep every number can show it by running this
script on both sides of the change on one host. The shared random cases
are built here from `random_correlation` and `CorrelationSet`, not by
`random_scenario`, so both sides hash the same data. Groups:

- design: `joint_optimize` on fig3 (80 dB, T_iter=1, RZF) with the common
  phase rotation of perfbench's design setup, seeds 1-3: selection, z,
  phases, ESR and the trace objectives;
- ports.<case>: `RelaxedZfObjective.gradient` at three iterates and the
  `fw_port_selection` result, one group per case: fig3, a shared random
  set with F_tot != R_tot (F!=R), one with F_tot = R_tot (F=R) and a
  per-user random scenario (per-user);
- phases.<case>: RZF and ZF phase gradients through `_phase_objective` on
  fig3, on the two shared random cases and on a per-user one;
- evaluate: `deterministic_esr` SINRs, RZF and ZF, on fig1, fig2 and fig3;
- zprofile: `z_search_profile` grid, values and z_star on fig3 (80 dB,
  uniform ports) and on a per-user random scenario;
- simulate: `empirical_esr` (RZF, ZF, MRT) on fig1 M=24 and RZF on fig1
  M=8 (K > M), one multi-case `montecarlo._empirical_esrs` call (RZF, ZF
  and MRT at two sigma^2 values on fig1 M=24), so that every branch of
  the Monte-Carlo block rates is digested, and `resolvent_probe` on fig1;
  a checkout without `_empirical_esrs` gives the same numbers from one
  `empirical_esr` per case;
- setup: every `CorrelationSet` matrix of the scenarios of perfbench's
  `evaluation_points()` (each set once), `fig1_scenario(32, 80)`, fig3 at
  W = 1, 1.5, 2, 2.5, 3, fig6 at K = 4, 8, 12, 16 and fig8;
- validate: the name and measured value of each `sweep.validate(trials=200)`
  check, among them the back-substitution residual, the finite-difference
  gaps and the probe gaps of `ups_I` and `Lambda_kl`.

A change that moves outputs at solver tolerance shows by how much:
`--values PATH` also writes every group's values to an `.npz` file, and
`--compare PARENT.npz CHANGE.npz` prints, per group, the largest relative
difference of its numeric values (max |change - parent| / max |parent|,
value by value; a value that changed shape, or a name that changed, counts
as inf) and whether its port selections are equal.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

TREE = Path(__file__).resolve().parent.parent


class Selection(np.ndarray):
    """A port selection: `--compare` tests it for equality, not closeness."""


def selection(s) -> Selection:
    return np.asarray(s).view(Selection)


def digest(values) -> str:
    """SHA-256 over the raw bytes of each value (None hashes as b"none")."""
    h = hashlib.sha256()
    for v in values:
        h.update(b"none" if v is None else np.asarray(v).tobytes())
    return h.hexdigest()


def design():
    from fasris.optimize import joint_optimize
    from fasris.scenarios import fig3_scenario
    sc, M = fig3_scenario(80.0)
    for seed in (1, 2, 3):
        theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi)
        s, z, phases, rep, trace = joint_optimize(
            sc, M, phi0=np.full(sc.dims.L, theta), T_iter=1, precoder="rzf")
        yield from (selection(s), z, phases.phi, rep.esr, trace.objectives())


def shared_scenario(seed, M, K, L, M_tot=None, F_is_R=False):
    """A shared random scenario: R_tot, C_L, F_tot and C_R drawn by
    `random_correlation` in that order, then u, t and p; with F_is_R,
    F_tot is a copy of R_tot instead of its draw."""
    from fasris.channel import CorrelationSet, Dimensions, Scenario
    from fasris.scenarios import random_correlation
    rng = np.random.default_rng(seed)
    n = M_tot or M
    R_tot, C_L, F_tot, C_R = (random_correlation(m, rng) for m in (n, L, n, L))
    corr = CorrelationSet(R_tot=R_tot, F_tot=R_tot.copy() if F_is_R else F_tot,
                          C_L=C_L, C_R=C_R)
    return Scenario(dims=Dimensions(M=M, K=K, L=L, M_tot=M_tot),
                    correlations=corr, u=rng.uniform(0.5, 1.5, K),
                    t=rng.uniform(0.3, 0.9, K), p=rng.uniform(0.5, 2.0, K),
                    sigma2=0.3)


def port_case(case):
    """(scenario, M, phi) of one `ports` case."""
    from fasris.scenarios import fig3_scenario, random_scenario
    if case == "fig3":
        sc, M = fig3_scenario(80.0)
        return sc, M, np.zeros(sc.dims.L)
    seed = {"F!=R": 11, "per-user": 12, "F=R": 13}[case]
    sc = (random_scenario(np.random.default_rng(seed), "uncommon", 6, 3, 5,
                          M_tot=10) if case == "per-user"
          else shared_scenario(seed, 6, 3, 5, 10, case == "F=R"))
    return sc, 6, np.random.default_rng(seed).uniform(0, 2 * np.pi, 5)


def ports(case):
    from fasris.optimize import RelaxedZfObjective, fw_port_selection
    from fasris.scenarios import uniform_selection
    sc, M, phi = port_case(case)
    M_tot = sc.correlations.R_tot.shape[0]
    obj = RelaxedZfObjective(sc, phi, M)
    rng = np.random.default_rng(M_tot)
    for s in (np.full(M_tot, M / M_tot), rng.uniform(0.1, 0.9, M_tot),
              uniform_selection(M, M_tot)):
        yield from obj.gradient(s)
    yield selection(fw_port_selection(sc, phi, M))


def phases(case):
    from fasris.fixed_point import DEFAULT_SETTINGS
    from fasris.optimize import _phase_objective
    from fasris.scenarios import fig3_scenario, random_scenario, uniform_selection
    s = None
    if case == "fig3":
        sc, M = fig3_scenario(80.0)
        s = uniform_selection(M, sc.dims.M_tot)
    elif case == "per-user":
        sc = random_scenario(np.random.default_rng(22), "uncommon", 10, 3, 6)
    else:
        sc = shared_scenario(21 if case == "F!=R" else 23, 10, 3, 6,
                             F_is_R=case == "F=R")
    phi = np.random.default_rng(sc.dims.L).uniform(0, 2 * np.pi, sc.dims.L)
    for kind in ("rzf", "zf"):
        yield from _phase_objective(sc, s, kind, None, DEFAULT_SETTINGS)[1](phi)


def evaluate():
    from fasris import db2lin
    from fasris.optimize import deterministic_esr
    from fasris.scenarios import (fig1_scenario, fig2_scenario, fig3_scenario,
                                  uniform_selection)
    fig3, M = fig3_scenario(80.0)
    points = [(fig1_scenario(m, 80.0), None) for m in (16, 20, 24)]
    points += [(fig2_scenario(case, scale), None)
               for case, scale in ((1, 1), (2, 1), (1, 2))]
    points += [(replace(fig3, sigma2=db2lin(-snr)),
                uniform_selection(M, fig3.dims.M_tot)) for snr in (60, 80, 100)]
    for sc, s in points:
        for kind in ("rzf", "zf"):
            yield deterministic_esr(sc, s, None, kind).sinr


def zprofile():
    from fasris.optimize import z_search_profile
    from fasris.scenarios import fig3_scenario, random_scenario, uniform_selection
    fig3, M = fig3_scenario(80.0)
    for sc, s in ((fig3, uniform_selection(M, fig3.dims.M_tot)),
                  (random_scenario(np.random.default_rng(9), "uncommon", 12, 4,
                                   8, sigma2=0.4), None)):
        z_star, grid, vals, _ = z_search_profile(sc, s, None)
        yield from (grid, vals, z_star)


def esr_cases(sc, cases, trials, seed):
    """One estimate per (kind, sigma2, z) case of `sc`, on shared draws."""
    from fasris import montecarlo
    if hasattr(montecarlo, "_empirical_esrs"):
        return montecarlo._empirical_esrs(sc, None, None, cases, trials, seed)
    return [montecarlo.empirical_esr(replace(sc, sigma2=sigma2), None, None,
                                     kind, trials, seed, z)
            for kind, sigma2, z in cases]


def simulate():
    from fasris.montecarlo import empirical_esr, resolvent_probe
    from fasris.scenarios import fig1_scenario
    sc = fig1_scenario(24, 80.0)
    z = sc.dims.K * sc.sigma2 / 24
    for kind in ("rzf", "zf", "mrt"):
        est = empirical_esr(sc, None, None, kind, 32, 7,
                            z=z if kind == "rzf" else None)
        yield from (est.mean, est.stderr)
    wide = fig1_scenario(8, 80.0)           # K = 12 > M = 8
    est = empirical_esr(wide, None, None, "rzf", 32, 7, wide.default_z())
    yield from (est.mean, est.stderr)
    cases = [(kind, c * sc.sigma2, c * z if kind == "rzf" else None)
             for c in (1.0, 100.0) for kind in ("rzf", "zf", "mrt")]
    for est in esr_cases(sc, cases, 32, 9):
        yield from (est.mean, est.stderr)
    pr = resolvent_probe(fig1_scenario(16, 80.0), None, None, z, 2, 7)
    yield from (pr.delta_hat, pr.omega_hat, pr.mu_hat, pr.ups_I_hat,
                pr.lambda_hat)


def setup():
    from workloads import evaluation_points
    from fasris.scenarios import (fig1_scenario, fig3_scenario, fig6_scenario,
                                  fig8_scenario)
    sets = {id(sc.correlations): sc.correlations
            for _, sc, _, _ in evaluation_points()}
    scenarios = [fig1_scenario(32, 80.0)]
    scenarios += [fig3_scenario(80.0, W=W)[0] for W in (1, 1.5, 2, 2.5, 3)]
    scenarios += [fig6_scenario(K, 80.0)[0] for K in (4, 8, 12, 16)]
    scenarios += [fig8_scenario(80.0)[0]]
    for corr in [*sets.values(), *(sc.correlations for sc in scenarios)]:
        yield from (corr.R_tot, *corr.f_tot_list(1), corr.C_L,
                    *corr.c_r_list(1))


def validate():
    from fasris import sweep
    for check in sweep.validate(trials=200):
        yield from (check["name"], check["measured"])


CASES = ("fig3", "F!=R", "F=R", "per-user")
GROUPS = {"design": design,
          **{f"ports.{case}": partial(ports, case) for case in CASES},
          **{f"phases.{case}": partial(phases, case) for case in CASES},
          "evaluate": evaluate, "zprofile": zprofile, "simulate": simulate,
          "setup": setup, "validate": validate}


def arrays(name, values) -> dict:
    """The values of group `name` as npz entries "name/i", a selection's as
    "name/i/selection"; None is stored as the string "none"."""
    return {f"{name}/{i}" + ("/selection" if isinstance(v, Selection) else ""):
            np.asarray("none" if v is None else v)
            for i, v in enumerate(values)}


def rel_diff(a, b) -> float:
    """max |a - b| / max |b| of two numeric values; 0 or inf otherwise."""
    if a.shape != b.shape or a.dtype.kind != b.dtype.kind:
        return np.inf
    if a.dtype.kind not in "fc":
        return 0.0 if np.array_equal(a, b) else np.inf
    scale = np.abs(b).max(initial=0.0)
    gap = np.abs(a - b).max(initial=0.0)
    return float(gap / scale) if scale else (0.0 if gap == 0 else np.inf)


def compare(parent: dict, change: dict) -> dict:
    """Per group of the two npz dicts: `max_rel` over its values and
    `selections_match` (None when the group holds no selection)."""
    out = {}
    for key in dict.fromkeys([*parent, *change]):
        group = out.setdefault(key.split("/")[0], {"max_rel": 0.0,
                                                   "selections_match": None})
        if key not in parent or key not in change:
            group["max_rel"] = np.inf
        elif key.endswith("/selection"):
            group["selections_match"] = (group["selections_match"] is not False
                                         and np.array_equal(parent[key],
                                                            change[key]))
        else:
            group["max_rel"] = max(group["max_rel"],
                                   rel_diff(change[key], parent[key]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=TREE,
                        help="checkout to import fasris and perfbench from")
    parser.add_argument("--values", type=Path,
                        help="also write every group's values to this .npz")
    parser.add_argument("--compare", type=Path, nargs=2,
                        metavar=("PARENT", "CHANGE"),
                        help="compare two --values files instead")
    args = parser.parse_args(argv)
    if args.compare:
        parent, change = (dict(np.load(path)) for path in args.compare)
        print(json.dumps(compare(parent, change)))
        return 0
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=root, capture_output=True,
                             text=True).stdout.strip()
    except OSError:     # no git binary
        rev = ""
    t0 = time.perf_counter()
    values = {name: list(fn()) for name, fn in GROUPS.items()}
    groups = {name: digest(v) for name, v in values.items()}
    if args.values:
        np.savez(args.values, **{k: v for name, vs in values.items()
                                 for k, v in arrays(name, vs).items()})
    print(json.dumps({"rev": rev or None,
                      "wall_s": time.perf_counter() - t0, "groups": groups}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
