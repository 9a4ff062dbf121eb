"""Two-timescale optimizer: FW selection, phase ascent, z search, AO, joint."""

from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from fasris import fixed_point
from fasris import (OptimizerSettings, PhaseShifts, SolverSettings,
                    alternating_optimization, deterministic_esr,
                    fw_linear_oracle, fw_port_selection,
                    gradient_ascent_phases, joint_optimize,
                    search_regularization, z_search_profile)
from fasris.fixed_point import _spectra, solve_rzf_common, solve_zf_common
from fasris.gradients import esr_gradient_ports_zf_common
from fasris.optimize import (ALPHA0, BACKTRACK_C, LBFGS_MEMORY,
                             Z_BRACKET_POINTS, Z_GRID_POINTS, Z_SLOPE_TOL,
                             OptimizationTrace, RelaxedZfObjective,
                             _lbfgs_direction, _WarmRzfEsr)
from fasris.rates import second_order_common
from fasris.scenarios import (fig3_scenario, fig6_scenario,
                              random_correlation, random_scenario,
                              uniform_selection)

FAST = OptimizerSettings(solver=SolverSettings(tol=1e-10, max_iter=4000),
                         fw_max_iter=120, ascent_max_iter=60)


class TestContainers:
    def test_phase_shifts_unit_modulus(self):
        ph = PhaseShifts(np.array([0.1, 7.0, -1.0]))
        assert np.allclose(np.abs(np.diag(ph.Phi)), 1.0)
        assert np.all((ph.phi >= 0) & (ph.phi < 2 * np.pi))


class TestLinearOracle:
    def test_example(self):
        assert np.array_equal(fw_linear_oracle(np.array([3.0, 1.0, 2.0]), 2),
                              np.array([1.0, 0.0, 1.0]))

    def test_tie_break_lowest_index(self):
        s = fw_linear_oracle(np.ones(5), 2)
        assert np.array_equal(s, np.array([1.0, 1.0, 0.0, 0.0, 0.0]))

    def test_brute_force_vertex_optimality(self, rng):
        # over {0 <= s <= 1, sum s <= M} with nonnegative gradients (the ZF
        # port-gradient regime) the maximizer is a binary top-M vertex
        for _ in range(10):
            n, M = 9, 4
            g = rng.uniform(0.0, 1.0, n)
            best, best_val = None, -np.inf
            for m in range(M + 1):
                for idx in combinations(range(n), m):
                    val = g[list(idx)].sum()
                    if val > best_val:
                        best_val = val
                        best = idx
            s = fw_linear_oracle(g, M)
            assert s @ g == pytest.approx(best_val, rel=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            fw_linear_oracle(np.array([1.0, np.nan]), 1)


def toy_scenario(seed=0, M_tot=10, M=3, K=2, L=5):
    rng = np.random.default_rng(seed)
    return random_scenario(rng, "common", M=M, K=K, L=L, M_tot=M_tot,
                           sigma2=0.3), M


class TestFwPortSelection:
    def test_full_selection_shortcut(self):
        sc, _ = toy_scenario()
        s = fw_port_selection(sc, None, sc.correlations.R_tot.shape[0], FAST)
        assert np.all(s == 1.0)

    def test_toy_scale_near_exhaustive(self):
        sc, M = toy_scenario(seed=3)
        M_tot = sc.correlations.R_tot.shape[0]
        s_fw = fw_port_selection(sc, None, M, FAST)
        assert int(s_fw.sum()) == M

        def zf_esr(s):
            return deterministic_esr(sc, s, None, "zf").esr

        best = -np.inf
        for idx in combinations(range(M_tot), M):
            s = np.zeros(M_tot)
            s[list(idx)] = 1.0
            best = max(best, zf_esr(s))
        assert zf_esr(s_fw) >= 0.97 * best

    def test_beats_uniform_spread(self):
        from fasris.scenarios import uniform_selection
        sc, M = toy_scenario(seed=5, M_tot=16, M=5, K=3, L=6)
        s_fw = fw_port_selection(sc, None, M, FAST)
        s_uni = uniform_selection(M, 16)
        fw_val = deterministic_esr(sc, s_fw, None, "zf").esr
        uni_val = deterministic_esr(sc, s_uni, None, "zf").esr
        assert fw_val >= uni_val - 1e-9

    def test_shared_zf_solves_stay_damped(self, monkeypatch):
        # mirror-symmetric fig3 ports tie in the oracle to the last bit of
        # the ZF solve; mixing that solve moves the selection
        sc, M = fig3_scenario(80.0)
        solves = []

        def counted(system, x0, settings, _picard=fixed_point._picard):
            solves.append(_picard(system, x0, settings))
            return solves[-1]

        monkeypatch.setattr(fixed_point, "_picard", counted)
        s = fw_port_selection(sc, np.zeros(sc.dims.L), M)
        assert int(s.sum()) == M and solves
        assert all(sol.mixer == "off" for sol in solves)

    def test_iteration_cap_is_recorded(self):
        sc, M = toy_scenario()
        capped, converged = OptimizationTrace(), OptimizationTrace()
        s = fw_port_selection(sc, None, M, replace(FAST, fw_max_iter=1), capped)
        assert int(s.sum()) == M
        assert [r.get("stalled") for r in capped.records] == [True]
        fw_port_selection(sc, None, M, FAST, converged)
        assert len(converged.records) < FAST.fw_max_iter
        assert not any("stalled" in r for r in converged.records)

    def test_rounding_rule(self):
        s = fw_linear_oracle(np.array([0.2, 0.9, 0.5, 0.9, 0.1]), 2)
        assert np.array_equal(s, np.array([0.0, 1.0, 0.0, 1.0, 0.0]))


class TestGradientAscent:
    def test_zero_gradient_start_returns_input(self, rng):
        # diagonal C_R with identity C_L: the rate ignores the phases
        sc = random_scenario(rng, "common", M=10, K=3, L=6, sigma2=0.3)
        sc = replace(sc, correlations=replace(
            sc.correlations, C_L=np.eye(6),
            C_R=np.diag(rng.uniform(0.5, 1.5, 6))))
        phi0 = rng.uniform(0, 2 * np.pi, 6)
        z = 0.15
        phases, esr, stalled = gradient_ascent_phases(sc, None, z, phi0, FAST)
        assert np.allclose(phases.phi, phi0)
        assert not stalled

    def test_monotone_and_stationary(self):
        rng = np.random.default_rng(12)
        sc = random_scenario(rng, "common", M=10, K=3, L=6, sigma2=0.3)
        phi0 = rng.uniform(0, 2 * np.pi, 6)
        z = 0.15
        start = deterministic_esr(sc, None, phi0, "rzf", z).esr
        trace = OptimizationTrace()
        opt = OptimizerSettings(ascent_tol=1e-9, ascent_max_iter=400)
        phases, esr, stalled = gradient_ascent_phases(sc, None, z, phi0, opt,
                                                      trace=trace)
        objs = trace.objectives()
        assert np.all(np.diff(objs) >= -1e-12)
        assert esr >= start
        # stationarity at the returned point
        from fasris.gradients import esr_gradient_phases_common
        R, C, u, t, p = sc.stats_common(phi=phases.phi)
        from fasris import solve_rzf_common, sinr_rzf_common
        sol = solve_rzf_common(R, C, u, t, z)
        _, so = sinr_rzf_common(sol, p, sc.sigma2)
        g = esr_gradient_phases_common(so, sc.correlations.C_L,
                                       sc.correlations.C_R, phases.phi,
                                       sc.sigma2)
        assert np.linalg.norm(g) <= 1e-4 * sc.dims.L

    def test_returned_objective_matches_reevaluation(self):
        rng = np.random.default_rng(4)
        sc = random_scenario(rng, "common", M=10, K=3, L=6, sigma2=0.3)
        phi0 = rng.uniform(0, 2 * np.pi, 6)
        phases, esr, _ = gradient_ascent_phases(sc, None, 0.15, phi0, FAST)
        fresh = deterministic_esr(sc, None, phases.phi, "rzf", 0.15).esr
        assert esr == pytest.approx(fresh, abs=1e-10)

    def test_unreachable_armijo_stalls(self):
        rng = np.random.default_rng(4)
        sc = random_scenario(rng, "common", M=10, K=3, L=6, sigma2=0.3)
        phi0 = rng.uniform(0, 2 * np.pi, 6)
        opt = replace(FAST, armijo_beta=1e6)
        trace = OptimizationTrace()
        phases, esr, stalled = gradient_ascent_phases(sc, None, 0.15, phi0,
                                                      opt, trace=trace)
        assert stalled and not trace.records
        assert np.array_equal(phases.phi, phi0)
        fresh = deterministic_esr(sc, None, phi0, "rzf", 0.15,
                                  FAST.solver).esr
        assert esr == pytest.approx(fresh, abs=1e-10)


def random_spd(rng, n):
    B = rng.standard_normal((n, n))
    return B @ B.T + n * np.eye(n)


class TestLbfgsDirection:
    def test_without_pairs_is_the_first_steepest_step(self, rng):
        g = rng.standard_normal(6)
        d = _lbfgs_direction(g, [])
        assert np.array_equal(d, ALPHA0 * g / np.linalg.norm(g))

    def test_newest_secant_equation(self, rng):
        # -ESR = x A x / 2: a move s changes the ESR gradient by -A s
        A = random_spd(rng, 4)
        pairs = [(s, A @ s) for s in rng.standard_normal((3, 4))]
        s_last, y_last = pairs[-1]
        assert np.allclose(_lbfgs_direction(y_last, pairs), s_last,
                           rtol=0, atol=1e-12)

    def test_conjugate_pairs_give_the_newton_step(self, rng):
        A = random_spd(rng, 4)
        # A-conjugate moves: A-orthonormalize random vectors
        S = np.linalg.cholesky(A).T
        Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        moves = np.linalg.solve(S, Q)
        pairs = [(s, A @ s) for s in moves.T]
        g = rng.standard_normal(4)
        assert np.allclose(_lbfgs_direction(g, pairs), np.linalg.solve(A, g),
                           rtol=0, atol=1e-12)

    def test_pairs_without_curvature_are_not_stored(self, monkeypatch):
        # ESR = -sum cos(phi) is convex for |phi| < pi/2: the first moves
        # from phi = 0.3 give s.y < 0, later ones near phi = pi s.y > 0
        from fasris import optimize

        def objective(scenario, s, precoder, z, settings):
            return (lambda phi: -np.cos(phi).sum(),
                    lambda phi: (-np.cos(phi).sum(), np.sin(phi)))

        seen, directions = [], []

        def recorded(grad, pairs):
            seen.append([float(s @ y) for s, y in pairs])
            directions.append(_lbfgs_direction(grad, pairs))
            return directions[-1]

        monkeypatch.setattr(optimize, "_phase_objective", objective)
        monkeypatch.setattr(optimize, "_lbfgs_direction", recorded)
        sc = random_scenario(np.random.default_rng(4), "common", M=10, K=3,
                             L=6, sigma2=0.3)
        trace = OptimizationTrace()
        gradient_ascent_phases(sc, None, 0.15, np.full(6, 0.3), trace=trace)
        assert seen[0] == seen[1] == []
        assert all(0 < len(sy) <= LBFGS_MEMORY for sy in seen[4:])
        assert all(v > 0 for sy in seen for v in sy)
        # each record's step is the length of the accepted move
        records = trace.records
        assert len(directions) in (len(records), len(records) + 1)
        for r, d in zip(records, directions):
            assert r["step"] == pytest.approx(
                BACKTRACK_C ** r["halvings"] * np.linalg.norm(d), rel=1e-12)


def test_fig6_k12_ascent_converges():
    # the relative-change stop of 1e-5 quit this row at 63.583
    sc, M = fig6_scenario(12, 80.0)
    assert joint_optimize(sc, M, T_iter=1)[3].esr >= 64.28


def test_design_op_line_search_and_rzf_solve_counts(monkeypatch):
    # the benchmark's design op on seed 1; 86 line-search evaluations and
    # 225 shared-RZF solves under normalized steepest ascent
    from fasris import optimize
    evals, solves = [], []
    objective, picard = optimize._phase_objective, fixed_point._picard

    def counted_objective(*args, **kw):
        value, value_grad = objective(*args, **kw)

        def counted(phi):
            evals.append(None)
            return value(phi)
        return counted, value_grad

    def counted_picard(system, x0, settings):
        solves.append(system.name)
        return picard(system, x0, settings)

    monkeypatch.setattr(optimize, "_phase_objective", counted_objective)
    monkeypatch.setattr(fixed_point, "_picard", counted_picard)
    sc, M = fig3_scenario(80.0)
    theta = np.random.default_rng(1).uniform(0.0, 2.0 * np.pi)
    joint_optimize(sc, M, phi0=np.full(sc.dims.L, theta), T_iter=1)
    assert len(evals) <= 60
    assert solves.count("common RZF") <= 160


def test_design_op_solves_each_point_once(monkeypatch):
    # the benchmark's design op on seed 1; before the gradient reused the
    # line search's solve and the stats their spectra, 37 of its 39 phase
    # gradients solved again, and it made 310 eigvalsh calls and 138
    # shared-RZF solves
    from fasris import optimize
    solves, eigvalsh_calls, resolved = [], [], []
    objective, picard = optimize._phase_objective, fixed_point._picard
    eigvalsh = np.linalg.eigvalsh

    def counted_objective(*args, **kw):
        value, value_grad = objective(*args, **kw)
        calls = []

        def counted(phi):
            before = len(solves)
            result = value_grad(phi)
            if calls:                   # every gradient after the first
                resolved.append(len(solves) - before)
            calls.append(None)
            return result
        return value, counted

    def counted_picard(system, x0, settings):
        solves.append(system.name)
        return picard(system, x0, settings)

    def counted_eigvalsh(*args, **kw):
        eigvalsh_calls.append(None)
        return eigvalsh(*args, **kw)

    sc, M = fig3_scenario(80.0)
    theta = np.random.default_rng(1).uniform(0.0, 2.0 * np.pi)
    monkeypatch.setattr(optimize, "_phase_objective", counted_objective)
    monkeypatch.setattr(fixed_point, "_picard", counted_picard)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    joint_optimize(sc, M, phi0=np.full(sc.dims.L, theta), T_iter=1)
    assert resolved and not any(resolved)
    assert len(eigvalsh_calls) <= 100
    assert solves.count("common RZF") <= 110


def test_shared_roots_and_spectra_are_bit_identical():
    # fig3 at the first Frank-Wolfe iterate: a solve on copies of the
    # embedded matrices, a copied root and spectra handed to the solvers give
    # the bytes of the solve the objective made and of spectra the solver takes
    sc, M = fig3_scenario(80.0)
    obj = RelaxedZfObjective(sc, np.zeros(sc.dims.L), M)
    M_tot = len(obj.R_root)
    _, sol = obj.solve(np.full(M_tot, M / M_tot))
    m, p = sol.system, sc.p
    R, C, u, t = m.R, m.C, m.u, m.t
    copy = solve_zf_common(R.copy(), C.copy(), u.copy(), t.copy(), m_norm=M)
    assert esr_gradient_ports_zf_common(sol, obj.R_root, p,
                                        sc.sigma2).tobytes() \
        == esr_gradient_ports_zf_common(copy, obj.R_root.copy(), p,
                                        sc.sigma2).tobytes()
    shared, copied = (second_order_common(s, p) for s in (sol, copy))
    assert shared.Pi_com.tobytes() == copied.Pi_com.tobytes()
    assert all(np.asarray(shared.x[k]).tobytes()
               == np.asarray(copied.x[k]).tobytes() for k in shared.x)

    def raw(sol):
        return b"".join(np.asarray(v).tobytes() for v in (
            *sol.x0.values(), sol.psi_T, sol.psi, sol.psi_C, sol.iterations))

    spectra = _spectra(R, C)
    z = sc.dims.K * sc.sigma2 / M
    assert raw(solve_zf_common(R, C, u, t, m_norm=M)) \
        == raw(solve_zf_common(R, C, u, t, m_norm=M, spectra=spectra))
    assert raw(solve_rzf_common(R, C, u, t, z, m_norm=M)) \
        == raw(solve_rzf_common(R, C, u, t, z, m_norm=M, spectra=spectra))


@pytest.mark.parametrize("field, value", [
    ("fw_max_iter", 0), ("fw_max_iter", 2.5), ("fw_max_iter", True),
    ("ascent_max_iter", -1), ("ascent_max_iter", 3.0),
    ("ascent_max_iter", False), ("ascent_tol", 0.0), ("ascent_tol", 1.0),
    ("ascent_tol", np.nan), ("armijo_beta", 0.0), ("armijo_beta", -1e-4),
    ("armijo_beta", np.nan), ("armijo_beta", np.inf)])
def test_optimizer_settings_reject_invalid_values(field, value):
    with pytest.raises(ValueError):
        OptimizerSettings(**{field: value})


class TestMixedRegime:
    """Shared F_tot with per-user C_R: the data picks the per-user regime.

    F_tot = R_tot as in the optimization figures, so the diag(s) surrogate
    at a binary selection is unitarily equivalent to the submatrices.
    """

    M, M_TOT, L = 6, 10, 5

    def scenario(self):
        rng = np.random.default_rng(11)
        sc = random_scenario(rng, "common", M=self.M, K=3, L=self.L,
                             M_tot=self.M_TOT)
        C_R = [random_correlation(self.L, rng) for _ in range(3)]
        corr = replace(sc.correlations, F_tot=sc.correlations.R_tot.copy(),
                       C_R=C_R)
        sc = replace(sc, correlations=corr)
        return sc, rng.uniform(0, 2 * np.pi, self.L), \
            uniform_selection(self.M, self.M_TOT)

    def test_deterministic_esr_runs(self):
        sc, phi, s = self.scenario()
        assert not sc.correlations.shared
        for precoder in ("rzf", "zf"):
            rep = deterministic_esr(sc, s, phi, precoder)
            assert rep.regime == f"{precoder}/uncommon"
            assert np.isfinite(rep.esr) and rep.esr > 0

    def test_phase_ascent_reevaluates(self):
        sc, phi, s = self.scenario()
        opt = OptimizerSettings(ascent_max_iter=5)
        phases, esr, _ = gradient_ascent_phases(sc, s, None, phi, opt)
        fresh = deterministic_esr(sc, s, phases.phi, "rzf").esr
        assert esr == pytest.approx(fresh, rel=1e-12)
        assert esr >= deterministic_esr(sc, s, phi, "rzf").esr

    def test_relaxed_objective_matches_at_binary_selection(self):
        sc, phi, s = self.scenario()
        relaxed = RelaxedZfObjective(sc, phi, self.M).esr(s)
        assert relaxed == pytest.approx(
            deterministic_esr(sc, s, phi, "zf").esr, rel=1e-9)


class TestSharedDirectLinkOffR:
    """One F_tot != R_tot with one C_R: the per-user solvers, on K copies
    of the shared matrices."""

    M, M_TOT, K, L = 6, 10, 3, 5

    def scenario(self):
        rng = np.random.default_rng(11)
        sc = random_scenario(rng, "common", M=self.M, K=self.K, L=self.L,
                             M_tot=self.M_TOT)
        sc = replace(sc, correlations=replace(
            sc.correlations, F_tot=random_correlation(self.M_TOT, rng)))
        return sc, rng.uniform(0, 2 * np.pi, self.L), \
            uniform_selection(self.M, self.M_TOT)

    def test_deterministic_esr_equals_the_listed_set(self):
        from fasris import CorrelationSet
        sc, phi, s = self.scenario()
        corr = sc.correlations
        assert not corr.shared
        listed = replace(sc, correlations=CorrelationSet(
            R_tot=corr.R_tot, F_tot=[corr.F_tot] * self.K, C_L=corr.C_L,
            C_R=[corr.C_R] * self.K))
        for precoder in ("rzf", "zf"):
            rep = deterministic_esr(sc, s, phi, precoder)
            assert rep.regime == f"{precoder}/uncommon"
            assert rep.sinr.tobytes() == deterministic_esr(
                listed, s, phi, precoder).sinr.tobytes()

    def test_equal_users_keep_the_z_shortcut(self):
        sc, phi, s = self.scenario()
        sc = replace(sc, u=np.full(3, 1.0), t=np.full(3, 0.5), p=np.ones(3))
        assert sc.homogeneous
        assert search_regularization(sc, s, phi) == sc.default_z(s)

    def test_port_selection_and_phase_ascent_run(self):
        sc, phi, s = self.scenario()
        assert fw_port_selection(sc, phi, self.M, FAST).sum() == self.M
        opt = OptimizerSettings(ascent_max_iter=5)
        for precoder in ("rzf", "zf"):
            phases, esr, _ = gradient_ascent_phases(sc, s, None, phi, opt,
                                                    precoder)
            assert esr >= deterministic_esr(sc, s, phi, precoder).esr
            assert esr == pytest.approx(
                deterministic_esr(sc, s, phases.phi, precoder).esr, rel=1e-12)


@pytest.mark.parametrize("case", ["shared F = R", "shared F != R",
                                  "per-user"])
def test_relaxed_zf_surrogate_is_exact_at_a_binary_selection(case):
    # R^{1/2} diag(s) R^{1/2} at a binary s has the nonzero spectrum of the
    # selected submatrix, and diag(s) F_k diag(s) is that submatrix bordered
    # by zeros: the relaxed ZF ESR is the scored one in every regime
    if case == "shared F != R":
        sc, _, s = TestSharedDirectLinkOffR().scenario()
        phi = np.zeros(TestSharedDirectLinkOffR.L)
    else:
        mode = "common" if case == "shared F = R" else "uncommon"
        sc = random_scenario(np.random.default_rng(12), mode, 6, 3, 5,
                             M_tot=10)
        phi, s = (np.random.default_rng(12).uniform(0, 2 * np.pi, 5),
                  uniform_selection(6, 10))
    assert sc.correlations.shared == (case == "shared F = R")
    relaxed = RelaxedZfObjective(sc, phi, 6).esr(s)
    assert relaxed == pytest.approx(deterministic_esr(sc, s, phi, "zf").esr,
                                    rel=1e-9)


def test_zf_phase_ascent_on_fig1():
    # the per-user regime's ZF phase gradient drives the ascent
    from fasris.scenarios import fig1_scenario
    sc = fig1_scenario(24, 80.0)
    phi0 = np.zeros(sc.dims.L)
    start = deterministic_esr(sc, None, phi0, "zf").esr
    trace = OptimizationTrace()
    phases, esr, stalled = gradient_ascent_phases(sc, None, None, phi0,
                                                  precoder="zf", trace=trace)
    assert not stalled and len(trace.records) > 1
    assert esr > start + 0.1


class TestRegularizerSearch:
    def test_homogeneous_shortcut(self):
        rng = np.random.default_rng(2)
        sc = random_scenario(rng, "common", M=12, K=4, L=8, sigma2=0.4)
        sc = replace(sc, u=np.full(4, 1.0), t=np.full(4, 0.5),
                     p=np.full(4, 2.0))
        assert sc.homogeneous
        z = search_regularization(sc, None, None)
        assert z == pytest.approx(4 * 0.4 / 12, rel=1e-15)

    def test_search_not_below_center(self):
        rng = np.random.default_rng(9)
        sc = random_scenario(rng, "common", M=12, K=4, L=8, sigma2=0.4)
        assert not sc.homogeneous
        z_star = search_regularization(sc, None, None)
        z_center = 4 * 0.4 / 12
        best = deterministic_esr(sc, None, None, "rzf", z_star).esr
        center = deterministic_esr(sc, None, None, "rzf", z_center).esr
        assert best >= center - 1e-10

    def test_profile_shape(self):
        rng = np.random.default_rng(9)
        sc = random_scenario(rng, "common", M=12, K=4, L=8, sigma2=0.4)
        z_star, grid, vals, width = z_search_profile(sc, None, None)
        assert len(grid) == len(vals) == 41
        assert width > 0 and grid[0] < z_star < grid[-1]

    @pytest.mark.parametrize("case", ["fig3", "common", "uncommon"])
    def test_grid_is_one_batched_solve_of_cold_points(self, case,
                                                      monkeypatch):
        # fig3 at 80 dB with uniform ports; shared with F_tot != R_tot, which
        # takes the per-user solvers; per-user
        if case == "fig3":
            sc, M = fig3_scenario(80.0)
            s = uniform_selection(M, sc.dims.M_tot)
        else:
            rng = np.random.default_rng(9)
            sc, s = random_scenario(rng, case, M=12, K=4, L=8,
                                    sigma2=0.4), None
        if case == "common":
            sc = replace(sc, correlations=replace(
                sc.correlations, F_tot=random_correlation(12, rng)))
            assert not sc.correlations.shared
        batches, picard = [], fixed_point._picard

        def counted(system, x0, settings):
            batches.append(np.size(system.z))
            return picard(system, x0, settings)

        monkeypatch.setattr(fixed_point, "_picard", counted)
        _, grid, vals, _ = z_search_profile(sc, s, None)
        assert batches[0] == len(grid) and set(batches[1:]) == {1}
        cold = np.array([deterministic_esr(sc, s, None, "rzf", z).esr
                         for z in grid])
        assert np.max(np.abs(vals / cold - 1.0)) <= 1e-9
        assert np.argmax(vals) == np.argmax(cold)

    def test_bracket_around_incumbent(self):
        rng = np.random.default_rng(9)
        sc = random_scenario(rng, "common", M=12, K=4, L=8, sigma2=0.4)
        z_full = z_search_profile(sc, None, None)[0]
        z_inc = 1.1 * z_full
        z_star, grid, vals, _ = z_search_profile(sc, None, None,
                                                 incumbent=z_inc)
        assert len(grid) == len(vals) == 11 and grid[5] == z_inc
        assert np.allclose(np.diff(np.log10(grid)), 0.2, rtol=1e-12)
        assert z_star == pytest.approx(z_full, rel=1e-3)

    def test_bracket_edge_falls_back_to_full_grid(self):
        rng = np.random.default_rng(9)
        sc = random_scenario(rng, "common", M=12, K=4, L=8, sigma2=0.4)
        full = z_search_profile(sc, None, None)
        # two decades above the optimum the bracket's argmax is its low edge
        far = z_search_profile(sc, None, None, incumbent=100.0 * full[0])
        assert len(far[1]) == 41
        assert far[0] == full[0] and np.array_equal(far[2], full[2])

    @pytest.mark.parametrize("regime", ["common", "uncommon"])
    def test_refined_optimum_is_stationary(self, regime):
        rng = np.random.default_rng(9)
        sc = random_scenario(rng, regime, M=12, K=4, L=8, sigma2=0.4)
        z_star, grid, vals, width = z_search_profile(sc, None, None)
        esr, slope = _WarmRzfEsr(sc, None, None, SolverSettings())(
            z_star, slope=True)
        assert abs(slope) <= Z_SLOPE_TOL * esr
        assert esr >= vals.max() - 1e-12 * esr
        # the Newton estimate of the distance left, well inside a grid step
        assert 0.0 < width < 1e-3 * z_star

    def test_incumbent_start_sweeps_no_bracket(self):
        rng = np.random.default_rng(9)
        sc = random_scenario(rng, "common", M=12, K=4, L=8, sigma2=0.4)
        z_full = z_search_profile(sc, None, None)[0]
        report = {}
        z = search_regularization(sc, None, None, incumbent=1.01 * z_full,
                                  report=report)
        assert report["evals"] < Z_BRACKET_POINTS
        assert report["gradient_norm"] <= Z_SLOPE_TOL * deterministic_esr(
            sc, None, None, "rzf", z).esr
        assert z == pytest.approx(z_full, rel=1e-3)

    def test_far_incumbent_falls_back_to_full_grid(self):
        rng = np.random.default_rng(9)
        sc = random_scenario(rng, "common", M=12, K=4, L=8, sigma2=0.4)
        full = z_search_profile(sc, None, None)
        report = {}
        z = search_regularization(sc, None, None, incumbent=100.0 * full[0],
                                  report=report)
        assert z == full[0]
        assert report["evals"] > Z_GRID_POINTS + Z_BRACKET_POINTS


def test_design_op_makes_at_most_90_z_evaluations(monkeypatch):
    # the benchmark's design op; the z points the search's evaluator is
    # given are counted from outside (a grid is one call of many points),
    # and each ao record reports the points of its round
    from fasris import optimize
    points = []
    call = optimize._WarmRzfEsr.__call__

    def counted(self, z, *args, **kw):
        points.extend(np.atleast_1d(z))
        return call(self, z, *args, **kw)

    monkeypatch.setattr(optimize._WarmRzfEsr, "__call__", counted)
    sc, M = fig3_scenario(80.0)
    *_, trace = joint_optimize(sc, M, phi0=np.full(sc.dims.L, 2.0), T_iter=1)
    assert len(points) <= 90
    assert sum(r["evals"] for r in trace.records
               if r["stage"] == "ao") == len(points)


class TestAlternatingOptimization:
    def test_monotone_trace(self):
        rng = np.random.default_rng(14)
        sc = random_scenario(rng, "common", M=12, K=4, L=8, sigma2=0.4)
        phi0 = rng.uniform(0, 2 * np.pi, 8)
        z, phases, esr, trace = alternating_optimization(sc, None, phi0,
                                                         None, FAST)
        objs = [r["objective"] for r in trace.records if r["stage"] == "ao"]
        assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))
        assert z > 0

    def test_stationary_start_stops_fast(self, rng):
        sc = random_scenario(rng, "common", M=10, K=3, L=6, sigma2=0.3)
        sc = replace(sc, correlations=replace(
            sc.correlations, C_L=np.eye(6),
            C_R=np.diag(rng.uniform(0.5, 1.5, 6))),
                     u=np.full(3, 1.0), t=np.full(3, 0.5), p=np.ones(3))
        phi0 = np.zeros(6)
        z, phases, esr, trace = alternating_optimization(sc, None, phi0,
                                                         None, FAST)
        ao_iters = [r for r in trace.records if r["stage"] == "ao"]
        assert len(ao_iters) <= 2
        assert np.allclose(phases.phi, phi0)

    def test_zf_mode_skips_z(self, rng):
        sc = random_scenario(rng, "common", M=12, K=4, L=8, sigma2=0.4)
        phi0 = rng.uniform(0, 2 * np.pi, 8)
        z, phases, esr, trace = alternating_optimization(sc, None, phi0,
                                                         None, FAST,
                                                         precoder="zf")
        assert z is None
        fresh = deterministic_esr(sc, None, phases.phi, "zf").esr
        assert esr == pytest.approx(fresh, abs=1e-10)


class TestJointOptimize:
    def test_single_iteration_composition(self):
        sc, M = toy_scenario(seed=6, M_tot=12, M=5, K=3, L=6)
        opt = FAST
        phi0 = np.zeros(6)
        s, z, phases, rep, trace = joint_optimize(sc, M, phi0, T_iter=1,
                                                  opt=opt)
        # explicit Alg-1-then-Alg-3 composition
        s_ref = fw_port_selection(sc, phi0, M, opt)
        z_ref, ph_ref, esr_ref, _ = alternating_optimization(sc, s_ref, phi0,
                                                             None, opt)
        assert np.array_equal(s, s_ref)
        assert z == pytest.approx(z_ref)
        assert rep.esr == pytest.approx(esr_ref, rel=1e-12)

    def test_output_contracts(self):
        sc, M = toy_scenario(seed=7, M_tot=12, M=5, K=3, L=6)
        s, z, phases, rep, trace = joint_optimize(sc, M, T_iter=2, opt=FAST)
        assert set(np.unique(s)) <= {0.0, 1.0} and int(s.sum()) == M
        assert np.allclose(np.abs(np.diag(phases.Phi)), 1.0)
        assert z > 0
        joint_objs = [r["objective"] for r in trace.records
                      if r["stage"] == "joint"]
        assert rep.esr == pytest.approx(max(joint_objs), rel=1e-10)

    def test_rejects_bad_titer(self):
        sc, M = toy_scenario()
        with pytest.raises(ValueError):
            joint_optimize(sc, M, T_iter=0)


@pytest.mark.parametrize("K", [None, 4, 16], ids=["fig3", "fig6-K4", "fig6-K16"])
def test_de_tracks_monte_carlo_where_the_design_lands(K):
    # fig3 at 80 dB (K None) and fig6 at K users: at the joint design and at
    # uniform ports with AO, the DE is within criterion 1's 5% of a 400-trial
    # Monte-Carlo estimate, and the joint design's DE gain over uniform has
    # the sign of its Monte-Carlo gain
    from fasris.montecarlo import empirical_esr
    sc, M = fig3_scenario(80.0) if K is None else fig6_scenario(K, 80.0)
    s, z, phases, rep, _ = joint_optimize(sc, M, T_iter=1)
    s_uni = uniform_selection(M, sc.correlations.R_tot.shape[0])
    z_uni, phases_uni, esr_uni, _ = alternating_optimization(
        sc, s_uni, np.zeros(sc.dims.L))
    de, mc = (rep.esr, esr_uni), []
    for sel, zz, phi, esr in zip((s, s_uni), (z, z_uni),
                                 (phases.phi, phases_uni.phi), de):
        mc.append(empirical_esr(sc, sel, phi, "rzf", 400, 7, zz).mean)
        assert abs(esr - mc[-1]) / mc[-1] <= 0.05
    assert np.sign(de[0] - de[1]) == np.sign(mc[0] - mc[1])
