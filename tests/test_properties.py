"""Property tests: invariances that the deterministic equivalents satisfy exactly.

Relabelling the users permutes every per-user output and leaves the phase
gradient alone. Scaling every gain, the noise power and the regularizer by one
constant leaves every RZF SINR unchanged. Shared correlations fed to the
per-user solvers give the SINRs of the shared-correlation solvers. The solves
are tight, so the tolerance only has to absorb roundoff. The fixed point is
unique, so a solve warm-started elsewhere lands where a cold solve does.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from fasris import (SolverSettings, esr_gradient_phases_uncommon,
                    sinr_rzf_common, sinr_rzf_uncommon, sinr_zf_common,
                    sinr_zf_uncommon, solve_rzf_common, solve_rzf_uncommon,
                    solve_zf_common, solve_zf_uncommon)
from fasris.fixed_point import DEFAULT_SETTINGS
from fasris.optimize import _evaluate, _stats
from fasris.scenarios import random_scenario

TIGHT = SolverSettings(tol=1e-12, max_iter=30000)
M, K, L = 8, 3, 6
TOL = 1e-9
EXAMPLES = settings(max_examples=20, deadline=None)

seeds = st.integers(0, 2 ** 32 - 1)
perms = st.permutations(range(K)).map(list)
scales = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)


def rel(a, b) -> float:
    return float(np.max(np.abs(a - b) / np.abs(b)))


def scenario(seed: int, mode: str):
    sc = random_scenario(np.random.default_rng(seed), mode, M=M, K=K, L=L)
    return sc, K * sc.sigma2 / M


def rzf_uncommon(F_list, R, C_list, p, z, sigma2):
    sol = solve_rzf_uncommon(F_list, R, C_list, z, TIGHT)
    return sinr_rzf_uncommon(sol, F_list, R, C_list, p, sigma2)


def rzf_common(F, R, C, u, t, p, z, sigma2):
    sol = solve_rzf_common(F, R, C, u, t, z, TIGHT)
    return sinr_rzf_common(sol, F, R, C, u, t, p, sigma2)[0].sinr


@EXAMPLES
@given(seeds, perms)
def test_user_permutation_uncommon(seed, perm):
    sc, z = scenario(seed, "uncommon")
    F_list, R, C_list, p = sc.stats_uncommon()
    sinr = rzf_uncommon(F_list, R, C_list, p, z, sc.sigma2)[0].sinr
    permuted = rzf_uncommon([F_list[k] for k in perm], R,
                            [C_list[k] for k in perm], p[perm], z,
                            sc.sigma2)[0].sinr
    assert rel(permuted, sinr[perm]) < TOL


@EXAMPLES
@given(seeds, perms)
def test_user_permutation_common(seed, perm):
    sc, z = scenario(seed, "common")
    F, R, C, u, t, p = sc.stats_common()
    sinr = rzf_common(F, R, C, u, t, p, z, sc.sigma2)
    permuted = rzf_common(F, R, C, u[perm], t[perm], p[perm], z, sc.sigma2)
    assert rel(permuted, sinr[perm]) < TOL


@EXAMPLES
@given(seeds, perms)
def test_phase_gradient_ignores_user_order(seed, perm):
    sc, z = scenario(seed, "uncommon")
    phi = np.random.default_rng([seed, 1]).uniform(0.0, 2.0 * np.pi, L)
    F_list, R, C_list, p = sc.stats_uncommon(phi=phi)
    C_R = sc.correlations.c_r_list(K)

    def gradient(order):
        Fo, Co = [F_list[k] for k in order], [C_list[k] for k in order]
        _, so = rzf_uncommon(Fo, R, Co, p[order], z, sc.sigma2)
        return esr_gradient_phases_uncommon(
            so, Co, sc.correlations.C_L, [C_R[k] for k in order],
            sc.t[order], phi, p[order], sc.sigma2)

    g = gradient(list(range(K)))
    assert np.max(np.abs(gradient(perm) - g)) < TOL * np.max(np.abs(g))


@EXAMPLES
@given(seeds, scales)
def test_gain_noise_regularizer_scaling(seed, c):
    # (u, t, sigma2, z) -> c (u, t, sigma2, z) scales the channel covariance,
    # the noise and the regularizer alike
    sc, z = scenario(seed, "uncommon")
    scaled = replace(sc, u=c * sc.u, t=c * sc.t, sigma2=c * sc.sigma2)
    base = rzf_uncommon(*sc.stats_uncommon(), z, sc.sigma2)[0].sinr
    out = rzf_uncommon(*scaled.stats_uncommon(), c * z, scaled.sigma2)[0].sinr
    assert rel(out, base) < TOL

    sc, z = scenario(seed, "common")
    scaled = replace(sc, u=c * sc.u, t=c * sc.t, sigma2=c * sc.sigma2)
    base = rzf_common(*sc.stats_common(), z, sc.sigma2)
    out = rzf_common(*scaled.stats_common(), c * z, scaled.sigma2)
    assert rel(out, base) < TOL


@EXAMPLES
@given(seeds)
def test_shared_correlations_through_per_user_solvers(seed):
    sc, z = scenario(seed, "common")
    F, R, C, u, t, p = sc.stats_common()
    F_list, R_u, C_list, _ = sc.stats_uncommon()
    shared = rzf_common(F, R, C, u, t, p, z, sc.sigma2)
    per_user = rzf_uncommon(F_list, R_u, C_list, p, z, sc.sigma2)[0].sinr
    assert rel(per_user, shared) < TOL

    shared = sinr_zf_common(solve_zf_common(F, R, C, u, t, TIGHT), u, t, p,
                            sc.sigma2).sinr
    per_user = sinr_zf_uncommon(solve_zf_uncommon(F_list, R_u, C_list, TIGHT),
                                p, sc.sigma2).sinr
    assert rel(per_user, shared) < TOL


@EXAMPLES
@given(seeds, st.sampled_from(["common", "uncommon"]))
def test_warm_start_reaches_the_cold_fixed_point(seed, mode):
    # the optimizer's warm starts, at its own tolerance: start at phases
    # phi_b from the fixed point at phi_a
    sc, z = scenario(seed, mode)
    phi_a, phi_b = np.random.default_rng([seed, 2]).uniform(0.0, 2.0 * np.pi,
                                                            (2, L))
    stats_a, shared = _stats(sc, None, phi_a)
    stats_b, _ = _stats(sc, None, phi_b)
    assert shared == (mode == "common")
    for precoder in ("rzf", "zf"):
        def solve(stats, x0=None):
            return _evaluate(stats, shared, precoder, z, sc.sigma2,
                             DEFAULT_SETTINGS, x0=x0)
        x0 = solve(stats_a)[2].x0
        cold, _, cold_sol = solve(stats_b)
        warm, _, warm_sol = solve(stats_b, x0)
        assert cold_sol.path == "cold" and warm_sol.path == "warm"
        assert rel(warm.esr, cold.esr) < TOL
