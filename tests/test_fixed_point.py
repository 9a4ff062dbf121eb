"""Fixed-point solvers: degenerations, limits, uniqueness, closed forms."""

import numpy as np
import pytest

from fasris import fixed_point
from fasris import (ConvergenceError, FeasibilityError, SolverSettings,
                    backsubstitution_residual, solve_iid_zf, solve_rzf_common,
                    solve_rzf_uncommon, solve_zf_common, solve_zf_uncommon)
from fasris.scenarios import random_correlation, random_scenario
from conftest import rel_err, single_hop_mu

TIGHT = SolverSettings(tol=1e-12, max_iter=30000)


class TestRzfUncommon:
    def test_single_hop_degeneration(self, rng):
        # t_k = 0 for every user: omega = 0 and mu matches a standalone
        # single-hop solver
        M, K, L = 12, 4, 6
        F_list = [random_correlation(M, rng) for _ in range(K)]
        R = random_correlation(M, rng)
        C_list = [np.zeros((L, L)) for _ in range(K)]
        z = 0.3
        sol = solve_rzf_uncommon(F_list, R, C_list, z, TIGHT)
        assert np.all(sol.omega == 0)
        oracle = single_hop_mu(F_list, z, M)
        assert np.max(np.abs(sol.mu - oracle) / oracle) < 1e-9

    def test_two_hop_degeneration(self, rng):
        # u_k = 0 (F_k = 0): mu_k = omega_k identically
        M, K, L = 12, 4, 6
        F_list = [np.zeros((M, M)) for _ in range(K)]
        R = random_correlation(M, rng)
        C_list = [0.5 * random_correlation(L, rng) for _ in range(K)]
        sol = solve_rzf_uncommon(F_list, R, C_list, 0.3, TIGHT)
        assert np.allclose(sol.mu, sol.omega, rtol=1e-12)

    def test_backsubstitution(self, small_uncommon):
        F_list, R, C_list, _ = small_uncommon.stats_uncommon()
        sol = solve_rzf_uncommon(F_list, R, C_list, 0.2)
        res = backsubstitution_residual(sol, F_list=F_list, R=R, C_list=C_list)
        assert res <= 10 * 1e-10

    def test_init_independence(self, small_uncommon):
        F_list, R, C_list, _ = small_uncommon.stats_uncommon()
        a = solve_rzf_uncommon(F_list, R, C_list, 0.2)
        b = solve_rzf_uncommon(F_list, R, C_list, 0.2,
                               SolverSettings(init=10.0))
        assert abs(a.delta - b.delta) / a.delta < 1e-8
        assert np.max(np.abs(a.mu - b.mu) / a.mu) < 1e-8

    def test_mu_decreasing_in_z(self, small_uncommon):
        F_list, R, C_list, _ = small_uncommon.stats_uncommon()
        mus = []
        for z in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0):
            mus.append(solve_rzf_uncommon(F_list, R, C_list, z, TIGHT).mu)
        for lo, hi in zip(mus[1:], mus[:-1]):
            assert np.all(lo < hi)

    def test_rejects_bad_z(self, small_uncommon):
        F_list, R, C_list, _ = small_uncommon.stats_uncommon()
        with pytest.raises(ValueError):
            solve_rzf_uncommon(F_list, R, C_list, 0.0)


class TestZfUncommon:
    def test_small_z_limit(self, small_uncommon):
        F_list, R, C_list, _ = small_uncommon.stats_uncommon()
        zf = solve_zf_uncommon(F_list, R, C_list, TIGHT)
        rzf = solve_rzf_uncommon(F_list, R, C_list, 1e-8, TIGHT)
        assert np.max(np.abs(1e-8 * rzf.mu - zf.mu) / zf.mu) < 1e-4

    def test_symmetry(self, rng):
        # identity correlations and equal gains: all mu equal
        M, K, L = 10, 4, 8
        F_list = [np.eye(M) for _ in range(K)]
        C_list = [0.5 * np.eye(L) for _ in range(K)]
        sol = solve_zf_uncommon(F_list, np.eye(M), C_list, TIGHT)
        assert np.ptp(sol.mu) < 1e-10 * sol.mu[0]

    def test_feasibility(self, rng):
        M, K, L = 4, 6, 8
        F_list = [random_correlation(M, rng) for _ in range(K)]
        C_list = [random_correlation(L, rng) for _ in range(K)]
        with pytest.raises(FeasibilityError):
            solve_zf_uncommon(F_list, random_correlation(M, rng), C_list)


class TestCommon:
    def test_matches_uncommon_specialization(self, small_common):
        sc = small_common
        z = 0.25
        F, R, C, u, t, p = sc.stats_common()
        com = solve_rzf_common(F, R, C, u, t, z, TIGHT)
        F_list, R2, C_list, _ = sc.stats_uncommon()
        unc = solve_rzf_uncommon(F_list, R2, C_list, z, TIGHT)
        assert abs(com.delta - unc.delta) / unc.delta < 1e-8
        assert np.max(np.abs(com.mu_k(u, t) - unc.mu) / unc.mu) < 1e-8
        assert np.max(np.abs(t * com.omega - unc.omega) / unc.omega) < 1e-8

    def test_t_zero_single_hop(self, rng):
        M, K, L = 12, 4, 6
        F = random_correlation(M, rng)
        R = random_correlation(M, rng)
        C = random_correlation(L, rng)
        u = rng.uniform(0.5, 1.5, K)
        sol = solve_rzf_common(F, R, C, u, np.zeros(K), 0.3, TIGHT)
        assert sol.omega_bar == 0.0
        oracle = single_hop_mu([uk * F for uk in u], 0.3, M)
        assert np.max(np.abs(sol.mu_k(u, np.zeros(K)) - oracle) / oracle) < 1e-9

    def test_iid_reduction_zf(self, rng):
        # identity correlations, equal gains: u kappa + t omega equals
        # the closed form (1 - c1) beta
        M, K, L = 16, 6, 10
        u, t = 1.2, 0.4
        sol = solve_zf_common(np.eye(M), np.eye(M), np.eye(L),
                              np.full(K, u), np.full(K, t), TIGHT)
        iid = solve_iid_zf(u, t, K / M, K / L)
        got = u * sol.kappa + t * sol.omega
        assert abs(got - iid.mu) / iid.mu < 1e-8

    def test_zf_t_zero(self, rng):
        M, K = 12, 4
        u = 0.8
        sol = solve_zf_common(np.eye(M), np.eye(M), np.eye(6),
                              np.full(K, u), np.zeros(K), TIGHT)
        # single-hop ZF: u kappa = (1 - c1) u
        assert abs(u * sol.kappa - (1 - K / M) * u) < 1e-10

    def test_common_zf_matches_uncommon(self, small_common):
        sc = small_common
        F, R, C, u, t, p = sc.stats_common()
        com = solve_zf_common(F, R, C, u, t, TIGHT)
        F_list, R2, C_list, _ = sc.stats_uncommon()
        unc = solve_zf_uncommon(F_list, R2, C_list, TIGHT)
        assert np.max(np.abs(com.mu_k(u, t) - unc.mu) / unc.mu) < 1e-8

    def test_backsubstitution_common(self, small_common):
        # F_tot = R_tot sends the shared map down its eigenvalue path; the
        # residual evaluates the trace formulas on explicit inverses
        corr = small_common.correlations
        for F_tot in (corr.F_tot, corr.R_tot.copy()):
            corr.F_tot = F_tot
            F, R, C, u, t, p = small_common.stats_common()
            sol = solve_rzf_common(F, R, C, u, t, 0.3)
            res = backsubstitution_residual(sol, F=F, R=R, C=C, u=u, t=t)
            assert res <= 10 * 1e-10
            solz = solve_zf_common(F, R, C, u, t)
            res = backsubstitution_residual(solz, F=F, R=R, C=C, u=u, t=t)
            assert res <= 10 * 1e-10


@pytest.fixture(params=["common", "uncommon"])
def rzf_at_03(request):
    """RZF solve at z = 0.3 on the small scenario of each regime."""
    sc = request.getfixturevalue(f"small_{request.param}")
    if request.param == "common":
        F, R, C, u, t, _ = sc.stats_common()
        return lambda settings, x0=None: solve_rzf_common(
            F, R, C, u, t, 0.3, settings, x0=x0)
    F_list, R, C_list, _ = sc.stats_uncommon()
    return lambda settings, x0=None: solve_rzf_uncommon(
        F_list, R, C_list, 0.3, settings, x0=x0)


class TestSolvePath:
    def test_cold_and_warm(self, rzf_at_03):
        cold = rzf_at_03(SolverSettings())
        assert cold.path == "cold"
        warm = rzf_at_03(SolverSettings(), x0=cold.x0)
        assert warm.path == "warm" and warm.iterations <= 2
        assert rel_err(warm.delta, cold.delta) < 1e-9

    def test_continuation_fallback(self, rzf_at_03, monkeypatch):
        # one iteration short of the cold solve: the direct attempt stalls,
        # while every warm-started continuation step converges within budget
        cold = rzf_at_03(SolverSettings())
        calls = []
        for cls in (fixed_point._CommonMap, fixed_point._UncommonMap):
            def counted(self, x, _call=cls.__call__):
                calls.append(None)
                return _call(self, x)
            monkeypatch.setattr(cls, "__call__", counted)
        sol = rzf_at_03(SolverSettings(max_iter=cold.iterations - 1))
        assert sol.path == "continuation"
        # every map evaluation counts: the failed attempt and all 13 steps
        assert sol.iterations == len(calls) > cold.iterations
        monkeypatch.undo()
        ref = rzf_at_03(TIGHT)
        for name, value in ref.x0.items():
            assert rel_err(sol.x0[name], value) < 1e-8, name

    def test_continuation_failure_carries_residual(self, small_common):
        F, R, C, u, t, _ = small_common.stats_common()
        with pytest.raises(ConvergenceError) as err:
            solve_rzf_common(F, R, C, u, t, 0.3, SolverSettings(max_iter=1))
        assert np.isfinite(err.value.residual) and err.value.residual > 0

    def test_zf_paths(self, small_common):
        F, R, C, u, t, _ = small_common.stats_common()
        cold = solve_zf_common(F, R, C, u, t)
        assert cold.path == "cold"
        warm = solve_zf_common(F, R, C, u, t, x0=cold.x0)
        assert warm.path == "warm" and warm.iterations <= 2

    @pytest.mark.parametrize("regime", ["common", "uncommon"])
    @pytest.mark.parametrize("precoder", ["rzf", "zf"])
    def test_one_solution_type_per_regime(self, request, regime, precoder):
        # RZF and ZF share a regime's solution type; z is None for ZF
        from fasris.optimize import _evaluate
        sc = request.getfixturevalue(f"small_{regime}")
        shared = regime == "common"
        stats = sc.stats_common() if shared else sc.stats_uncommon()
        z = 0.3 if precoder == "rzf" else None
        rep, _, sol = _evaluate(stats, shared, precoder, z, sc.sigma2,
                                SolverSettings())
        assert type(sol) is (fixed_point.CommonSolution if shared
                             else fixed_point.UncommonSolution)
        assert sol.z == z
        assert tuple(sol.x0) == (
            ("delta", "kappa", "omega", "kappa_bar", "omega_bar") if shared
            else ("delta", "mu", "omega"))
        warm = _evaluate(stats, shared, precoder, z, sc.sigma2,
                         SolverSettings(), x0=sol.x0)[2]
        assert warm.path == "warm" and warm.z == z
        assert ("z" in rep.digest) == (precoder == "rzf")
        assert rep.digest.get("z") == z


class TestAnderson:
    def test_rzf_and_per_user_solves_mix_and_shared_zf_does_not(
            self, small_uncommon, small_common):
        sol = solve_rzf_uncommon(*small_uncommon.stats_uncommon()[:3], 0.3)
        assert sol.anderson == "converged" and sol.halvings == 0
        sol = solve_zf_uncommon(*small_uncommon.stats_uncommon()[:3])
        assert sol.anderson == "converged" and sol.halvings == 0
        F, R, C, u, t, _ = small_common.stats_common()
        sol = solve_rzf_common(F, R, C, u, t, 0.3)
        assert sol.anderson == "converged" and sol.halvings == 0
        sol = solve_zf_common(F, R, C, u, t)
        assert sol.anderson == "off"

    def test_nonpositive_state_falls_back_to_picard(self, small_uncommon,
                                                    monkeypatch):
        F_list, R, C_list, _ = small_uncommon.stats_uncommon()
        ref = solve_rzf_uncommon(F_list, R, C_list, 0.3, TIGHT)
        calls = []

        def corrupted(self, x, _call=fixed_point._UncommonMap.__call__):
            calls.append(None)
            new = _call(self, x)
            if len(calls) == 3:
                new[self.K + 1:] *= -1.0        # a nonpositive mu
            return new

        monkeypatch.setattr(fixed_point._UncommonMap, "__call__", corrupted)
        sol = solve_rzf_uncommon(F_list, R, C_list, 0.3, TIGHT)
        assert sol.path == "cold" and sol.anderson == "fallback"
        assert sol.iterations == len(calls)
        for name, value in ref.x0.items():
            assert rel_err(sol.x0[name], value) < 1e-9, name


class TestSpectralMap:
    def test_one_spectrum_each_and_no_inverse_per_evaluation(
            self, small_common, monkeypatch):
        corr = small_common.correlations
        corr.F_tot = corr.R_tot.copy()
        F, R, C, u, t, _ = small_common.stats_common()
        cold = solve_rzf_common(F, R, C, u, t, 0.3)
        spectra, evaluations, inverses_in_map = [], [], []

        def eigvalsh(A, _eigvalsh=np.linalg.eigvalsh):
            spectra.append(A)
            return _eigvalsh(A)

        def inv(A, _inv=np.linalg.inv):
            if evaluations and evaluations[-1] == "open":
                inverses_in_map.append(None)
            return _inv(A)

        def evaluation(self, x, _call=fixed_point._CommonMap.__call__):
            evaluations.append("open")
            new = _call(self, x)
            evaluations[-1] = "done"
            return new

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        monkeypatch.setattr(np.linalg, "inv", inv)
        monkeypatch.setattr(fixed_point._CommonMap, "__call__", evaluation)
        solves = [
            lambda: solve_rzf_common(F, R, C, u, t, 0.3),
            lambda: solve_rzf_common(F, R, C, u, t, 0.3, SolverSettings(
                max_iter=cold.iterations - 1)),
            lambda: solve_zf_common(F, R, C, u, t)]
        for solve, path in zip(solves, ["cold", "continuation", "cold"]):
            spectra.clear()
            evaluations.clear()
            assert solve().path == path
            assert len(spectra) == 2 and spectra[0] is R and spectra[1] is C
            assert evaluations and not inverses_in_map


class TestIid:
    def test_t_zero(self):
        assert solve_iid_zf(0.9, 0.0, 0.5, 0.5).beta_val == pytest.approx(0.9)

    def test_u_zero(self):
        # alpha = t^2 (1-c2)^2, beta = t (1-c2)
        assert solve_iid_zf(0.0, 1.0, 0.5, 0.5).beta_val == pytest.approx(0.5)

    def test_reference_value_against_iteration(self):
        # independent oracle: damped iteration of the scaled i.i.d. system
        u, t, c1, c2 = 1.0, 0.5, 0.4, 0.6
        delta = omega = mu = 1.0
        for _ in range(200000):
            dn = 1.0 / (1.0 + c1 * t * omega / (mu * delta) + c1 * u / mu)
            on = 1.0 / (1.0 / dn + c2 * t / mu)
            mn = t * on + u * dn
            if max(abs(dn - delta), abs(on - omega), abs(mn - mu)) < 1e-15:
                break
            delta += 0.5 * (dn - delta)
            omega += 0.5 * (on - omega)
            mu += 0.5 * (mn - mu)
        sol = solve_iid_zf(u, t, c1, c2)
        assert abs(sol.mu - mu) < 1e-12
        assert sol.beta_val == pytest.approx(1.4124, abs=5e-5)

    def test_large_ris_limit(self):
        sol = solve_iid_zf(1.0, 0.5, 0.5, 0.0)
        assert sol.beta_val == pytest.approx(1.5)

    def test_feasibility(self):
        with pytest.raises(FeasibilityError):
            solve_iid_zf(1.0, 0.5, 1.0, 0.5)


class TestDegenerationLattice:
    def test_uncommon_common_iid_chain(self, rng):
        # uncommon specialized twice lands on the i.i.d. closed form
        M, K, L = 16, 6, 12
        u, t = 1.1, 0.6
        F_list = [u * np.eye(M) for _ in range(K)]
        C_list = [t * np.eye(L) for _ in range(K)]
        unc = solve_zf_uncommon(F_list, np.eye(M), C_list, TIGHT)
        iid = solve_iid_zf(u, t, K / M, K / L)
        assert np.max(np.abs(unc.mu - iid.mu) / iid.mu) < 1e-8
