"""Two-timescale optimizer: FW selection, phase ascent, z search, AO, joint."""

from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from fasris import fixed_point
from fasris import (OptimizerSettings, PhaseShifts, PortSelection,
                    SolverSettings, alternating_optimization,
                    deterministic_esr, fw_linear_oracle, fw_port_selection,
                    gradient_ascent_phases, joint_optimize,
                    search_regularization, z_search_profile)
from fasris.channel import ConstraintError
from fasris.optimize import (OptimizationTrace, RelaxedZfObjective,
                             top_m_rounding)
from fasris.scenarios import (fig3_scenario, random_correlation,
                              random_scenario, uniform_selection)

FAST = OptimizerSettings(solver=SolverSettings(tol=1e-10, max_iter=4000),
                         fw_max_iter=120, ascent_max_iter=60)


class TestContainers:
    def test_binary_selection_validates(self):
        PortSelection(np.array([1, 0, 1, 0]), M=2)
        with pytest.raises(ConstraintError):
            PortSelection(np.array([1, 0, 1, 1]), M=2)
        with pytest.raises(ConstraintError):
            PortSelection(np.array([0.5, 0.5, 1, 0]), M=2)

    def test_relaxed_selection_validates(self):
        PortSelection(np.array([0.5, 0.5, 0.5, 0.5]), M=2, relaxed=True)
        with pytest.raises(ConstraintError):
            PortSelection(np.array([0.9, 0.9, 0.9, 0.9]), M=2, relaxed=True)

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
        assert all(sol.anderson == "off" for sol in solves)

    def test_rounding_rule(self):
        s = top_m_rounding(np.array([0.2, 0.9, 0.5, 0.9, 0.1]), 2)
        assert np.array_equal(s, np.array([0.0, 1.0, 0.0, 1.0, 0.0]))


class TestGradientAscent:
    def test_zero_gradient_start_returns_input(self, rng):
        # diagonal C_R with identity C_L: the rate ignores the phases
        sc = random_scenario(rng, "common", M=10, K=3, L=6, sigma2=0.3)
        sc.correlations.C_L = np.eye(6)
        sc.correlations.C_R = np.diag(rng.uniform(0.5, 1.5, 6))
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
        F, R, C, u, t, p = sc.stats_common(phi=phases.phi)
        from fasris import solve_rzf_common, sinr_rzf_common
        sol = solve_rzf_common(F, R, C, u, t, z)
        _, so = sinr_rzf_common(sol, F, R, C, u, t, p, sc.sigma2)
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


class TestRegularizerSearch:
    def test_homogeneous_shortcut(self):
        rng = np.random.default_rng(2)
        sc = random_scenario(rng, "common", M=12, K=4, L=8, sigma2=0.4)
        sc.u = np.full(4, 1.0)
        sc.t = np.full(4, 0.5)
        sc.p = np.full(4, 2.0)
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
        sc.correlations.C_L = np.eye(6)
        sc.correlations.C_R = np.diag(rng.uniform(0.5, 1.5, 6))
        sc.u = np.full(3, 1.0)
        sc.t = np.full(3, 0.5)
        sc.p = np.ones(3)
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
