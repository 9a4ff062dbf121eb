"""Property tests: invariances that the deterministic equivalents satisfy exactly.

Relabelling the users permutes every per-user output and leaves the phase
gradient alone. Scaling every gain, the noise power and the regularizer by one
constant leaves every RZF SINR unchanged. Shared correlations fed to the
per-user solvers give the SINRs of the shared-correlation solvers. The solves
are tight, so the tolerance only has to absorb roundoff. The fixed point is
unique, so a solve warm-started elsewhere lands where a cold solve does,
and Anderson mixing (per-user) and Newton steps (shared) land where damped
Picard does; the Newton Jacobian matches central differences of the map.
Rotating the BS side by one unitary and the RIS side by another leaves every
fixed-point scalar unchanged. With F = R, one step of the shared map read off
eigenvalues equals the step by explicit inverses and matrix traces.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from fasris import (SolverSettings, esr_gradient_phases_uncommon,
                    sinr_rzf_common, sinr_rzf_uncommon, sinr_zf,
                    solve_rzf_common, solve_rzf_uncommon,
                    solve_zf_common, solve_zf_uncommon)
from fasris.fixed_point import (DEFAULT_SETTINGS, _CommonMap, _picard,
                                _spectra, _UncommonMap)
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
    return sinr_rzf_uncommon(sol, p, sigma2)


def rzf_common(R, C, u, t, p, z, sigma2):
    sol = solve_rzf_common(R, C, u, t, z, TIGHT)
    return sinr_rzf_common(sol, p, sigma2)[0].sinr


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
    R, C, u, t, p = sc.stats_common()
    sinr = rzf_common(R, C, u, t, p, z, sc.sigma2)
    permuted = rzf_common(R, C, u[perm], t[perm], p[perm], z, sc.sigma2)
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
            so, sc.correlations.C_L, [C_R[k] for k in order], sc.t[order],
            phi, sc.sigma2)

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
    R, C, u, t, p = sc.stats_common()
    F_list, R_u, C_list, _ = sc.stats_uncommon()
    shared = rzf_common(R, C, u, t, p, z, sc.sigma2)
    per_user = rzf_uncommon(F_list, R_u, C_list, p, z, sc.sigma2)[0].sinr
    assert rel(per_user, shared) < TOL

    shared = sinr_zf(solve_zf_common(R, C, u, t, TIGHT), p, sc.sigma2).sinr
    per_user = sinr_zf(solve_zf_uncommon(F_list, R_u, C_list, TIGHT), p,
                       sc.sigma2).sinr
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


class _PlainUncommonMap(_UncommonMap):
    mixer = None      # damped Picard, the reference for Anderson mixing


def state(sol) -> np.ndarray:
    return np.concatenate([np.ravel(v) for v in sol.x0.values()])


@EXAMPLES
@given(seeds, st.sampled_from([1e-4, 0.3, 1.0, None]))
def test_anderson_matches_damped_picard(seed, z):
    # z None is ZF
    sc, _ = scenario(seed, "uncommon")
    F_list, R, C_list, _ = sc.stats_uncommon()
    if z is None:
        mixed = solve_zf_uncommon(F_list, R, C_list, TIGHT)
        plain = _picard(_PlainUncommonMap(F_list, R, C_list, 1.0, 0.0, None),
                        None, TIGHT)
    else:
        mixed = solve_rzf_uncommon(F_list, R, C_list, z, TIGHT)
        plain = _picard(_PlainUncommonMap(F_list, R, C_list, z, 1.0, None),
                        None, TIGHT)
    assert mixed.mixer != "off" and plain.mixer == "off"
    assert rel(state(mixed), state(plain)) < TOL


class _PlainCommonMap(_CommonMap):
    mixer = None      # damped Picard, also for RZF


@EXAMPLES
@given(seeds, st.sampled_from([1e-4, 0.3, 1.0]))
def test_shared_anderson_matches_damped_picard(seed, z):
    sc, _ = scenario(seed, "common")
    R, C, u, t, _ = sc.stats_common()
    mixed = solve_rzf_common(R, C, u, t, z, TIGHT)
    plain = _picard(_PlainCommonMap(R, C, u, t, z, 1.0, None,
                                    _spectra(R, C)), None, TIGHT)
    assert mixed.mixer != "off" and plain.mixer == "off"
    assert rel(state(mixed), state(plain)) < TOL


def shared_stats(seed, cascaded):
    """A random shared scenario's stats; t = 0 cuts the cascaded link."""
    sc, _ = scenario(seed, "common")
    R, C, u, t, _ = sc.stats_common()
    return R, C, u, t if cascaded else np.zeros_like(t)


@EXAMPLES
@given(seeds, st.sampled_from([1e-4, 0.3, 1.0]), st.booleans())
def test_shared_newton_matches_damped_picard(seed, z, cascaded):
    R, C, u, t = shared_stats(seed, cascaded)
    newton = solve_rzf_common(R, C, u, t, z, TIGHT)
    plain = _picard(_PlainCommonMap(R, C, u, t, z, 1.0, None,
                                    _spectra(R, C)), None, TIGHT)
    assert newton.mixer == "newton" and plain.mixer == "off"
    # omega and omega_bar are exactly 0 without a cascaded link
    assert np.all(np.abs(state(newton) - state(plain))
                  <= TOL * np.abs(state(plain)))


@EXAMPLES
@given(seeds, st.sampled_from([1e-4, 0.3, 1.0]), st.booleans())
def test_shared_jacobian_matches_central_differences(seed, z, cascaded):
    # the map reads x through a = L kappa_bar / M, b = L omega omega_bar /
    # (M delta) and omega_bar: scaling kappa_bar moves log a alone, omega
    # log b alone, and delta with omega_bar log omega_bar alone
    R, C, u, t = shared_stats(seed, cascaded)
    system = _CommonMap(R, C, u, t, z, 1.0, None, _spectra(R, C))
    x = np.exp(np.random.default_rng([seed, 3]).uniform(-1.0, 1.0, 4))
    x[[1, 3]] *= cascaded
    system(x)
    J = system.jacobian()
    h = 1e-6
    for col, moved in enumerate([[2], [1], [0, 3]][:J.shape[1]]):
        up, down = x.copy(), x.copy()
        up[moved] *= np.exp(h)
        down[moved] *= np.exp(-h)
        fd = (system(up) - system(down)) / (2.0 * h)
        assert np.max(np.abs(J[:, col] - fd)) < 1e-6 * np.max(np.abs(fd))


def unitary(n: int, rng) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


@EXAMPLES
@given(seeds, st.sampled_from(["common", "uncommon"]))
def test_unitary_rotation_leaves_fixed_point(seed, mode):
    # F_k, R -> U_M F_k U_M^H and C_k -> U_L C_k U_L^H
    sc, z = scenario(seed, mode)
    rng = np.random.default_rng([seed, 3])
    U_M, U_L = unitary(M, rng), unitary(L, rng)

    def rot(A, U):
        return U @ A @ U.conj().T

    if mode == "common":
        R, C, u, t, _ = sc.stats_common()
        inputs = [(R, C, u, t), (rot(R, U_M), rot(C, U_L), u, t)]
        solvers = [lambda *a: solve_rzf_common(*a, z, TIGHT),
                   lambda *a: solve_zf_common(*a, TIGHT)]
    else:
        F_list, R, C_list, _ = sc.stats_uncommon()
        inputs = [(F_list, R, C_list),
                  ([rot(F, U_M) for F in F_list], rot(R, U_M),
                   [rot(C, U_L) for C in C_list])]
        solvers = [lambda *a: solve_rzf_uncommon(*a, z, TIGHT),
                   lambda *a: solve_zf_uncommon(*a, TIGHT)]
    for solve in solvers:
        base, turned = (solve(*args) for args in inputs)
        assert rel(state(turned), state(base)) < TOL


def explicit_common_map(R, C, u, t, z, shift, x):
    """One shared map step by explicit inverses and matrix traces; the
    direct link shares R."""
    delta, omega, kappa_bar, omega_bar = x
    M, L = R.shape[0], C.shape[0]
    Psi_R = np.linalg.inv(z * np.eye(M) + (L * kappa_bar / M) * R
                          + (L * omega * omega_bar / (M * delta)) * R)
    d = np.real(np.trace(R @ Psi_R)) / M    # delta, and kappa: F = R
    Psi_C = np.linalg.inv(np.eye(L) / d + omega_bar * C)
    o = np.real(np.trace(C @ Psi_C)) / L
    psi_T = 1.0 / (shift + o * t + d * u)
    return np.array([d, o, np.sum(u * psi_T) / L, np.sum(t * psi_T) / L])


@EXAMPLES
@given(seeds, st.sampled_from([1e-9, 1e-4, 0.3, None]))
def test_spectral_map_matches_explicit_inverses(seed, z):
    # one evaluation of the shared map reads every trace off the
    # eigenvalues of R and C; z None is ZF
    sc, _ = scenario(seed, "common")
    R, C, u, t, _ = sc.stats_common()
    z, shift = (1.0, 0.0) if z is None else (z, 1.0)
    x = np.exp(np.random.default_rng([seed, 4]).uniform(-2.0, 2.0, 4))
    system = _CommonMap(R, C, u, t, z, shift, None, _spectra(R, C))
    assert rel(system(x), explicit_common_map(R, C, u, t, z, shift, x)) \
        < 1e-12
