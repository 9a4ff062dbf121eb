"""Fixed-point solvers: degenerations, limits, uniqueness, closed forms."""

from dataclasses import replace

import numpy as np
import pytest

from fasris import fixed_point
from fasris import (ConvergenceError, FeasibilityError, SolverSettings,
                    backsubstitution_residual, solve_iid_zf, solve_rzf_common,
                    solve_rzf_uncommon, solve_zf_common, solve_zf_uncommon)
from fasris.scenarios import random_correlation, random_scenario
from conftest import rel_err, single_hop_mu

TIGHT = SolverSettings(tol=1e-12, max_iter=30000)


@pytest.mark.parametrize("kw", [
    {"tol": 0.0}, {"tol": -1e-3}, {"tol": 1.0}, {"tol": np.inf},
    {"tol": np.nan}, {"max_iter": 0}, {"max_iter": 2.5}, {"max_iter": True},
    {"init": 0.0}, {"init": -1.0}, {"init": np.nan}, {"init": np.inf}],
    ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_settings_reject_invalid_values(kw):
    with pytest.raises(ValueError, match=next(iter(kw))):
        SolverSettings(**kw)


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


class Regime:
    """A scenario's solves in one correlation regime: RZF, ZF, the map class
    and the back-substitution residual."""

    def __init__(self, sc, regime, s=None):
        if regime == "common":
            R, C, u, t, _ = sc.stats_common(s)
            self.stats = dict(R=R, C=C, u=u, t=t)
            self.solvers = solve_rzf_common, solve_zf_common
            self.map = fixed_point._CommonMap
        else:
            F_list, R, C_list, _ = sc.stats_uncommon(s)
            self.stats = dict(F_list=F_list, R=R, C_list=C_list)
            self.solvers = solve_rzf_uncommon, solve_zf_uncommon
            self.map = fixed_point._UncommonMap

    def rzf(self, z, settings=fixed_point.DEFAULT_SETTINGS, x0=None):
        return self.solvers[0](*self.stats.values(), z, settings, x0=x0)

    def zf(self, settings=fixed_point.DEFAULT_SETTINGS):
        return self.solvers[1](*self.stats.values(), settings)

    def residual(self, sol):
        return backsubstitution_residual(sol, **self.stats)

    def maps(self, z, **stats):
        """The RZF map at z and the ZF map, on `stats` over the scenario's."""
        stats = {**self.stats, **stats}
        spectra = (fixed_point._spectra(stats["R"], stats["C"]),
                   ) if "C" in stats else ()
        return [self.map(*stats.values(), z_, shift, None, *spectra)
                for z_, shift in ((z, 1.0), (1.0, 0.0))]


REGIMES = ["common", "uncommon"]


@pytest.fixture(scope="module",
                params=["fig3", "fig1", "F=R", "F!=R", "uncommon"])
def cold_case(request):
    """fig3 with uniform ports at 80 dB, fig1 at M = 24 and 80 dB, and small
    random scenarios: shared (F = R), one shared F != R, which takes the
    per-user solvers, and per-user."""
    from fasris.scenarios import (fig1_scenario, fig3_scenario,
                                  uniform_selection)
    case = request.param
    if case == "fig3":
        sc, M = fig3_scenario(80.0)
        return Regime(sc, "common", uniform_selection(M, sc.dims.M_tot))
    if case == "fig1":
        return Regime(fig1_scenario(24, 80.0), "uncommon")
    rng = np.random.default_rng(20240817)
    if case == "uncommon":
        return Regime(random_scenario(rng, case, M=12, K=4, L=8, sigma2=0.4),
                      case)
    sc = random_scenario(rng, "common", M=14, K=5, L=10, sigma2=0.4)
    if case == "F=R":
        return Regime(sc, "common")
    sc = replace(sc, correlations=replace(
        sc.correlations, F_tot=random_correlation(14, rng)))
    assert not sc.correlations.shared
    return Regime(sc, "uncommon")


@pytest.fixture
def small_regimes(small_common, small_uncommon):
    """The small scenario of each regime."""
    return [Regime(small_common, "common"), Regime(small_uncommon, "uncommon")]


class TestZfSeed:
    """A cold RZF solve starts at `init` scaled to z (the traces / z, the
    shared _bar entries z), where the map runs as the ZF-type map does."""

    @pytest.mark.parametrize("regime, M", [
        pytest.param("uncommon", 16, id="16"),
        pytest.param("uncommon", 24, id="24"),
        pytest.param("common", 20, id="common")])
    def test_seeded_solve_matches_generic_start(self, regime, M, monkeypatch):
        from fasris.scenarios import (fig1_scenario, fig3_scenario,
                                      uniform_selection)
        if regime == "common":
            sc = fig3_scenario(100.0)[0]
            s = uniform_selection(M, sc.dims.M_tot)
        else:
            sc, s = fig1_scenario(M, 100.0), None
        solves = Regime(sc, regime, s)
        z = sc.default_z(s)
        calls = []

        def counted(self, x, _call=solves.map.__call__):
            calls.append(None)
            return _call(self, x)

        monkeypatch.setattr(solves.map, "__call__", counted)
        sol = solves.rzf(z)
        assert sol.path == "cold" and sol.mixer == (
            "newton" if regime == "common" else "anderson")
        assert sol.iterations == len(calls)
        monkeypatch.undo()
        # the unscaled generic start, passed explicitly, solved tightly
        generic = {name: np.ones_like(v) for name, v in sol.x0.items()}
        ref = solves.rzf(z, TIGHT, x0=generic)
        assert ref.path == "warm"
        for name, value in ref.x0.items():
            assert rel_err(sol.x0[name], value) < 1e-9, name

    @pytest.mark.parametrize("z", np.logspace(-12, 3, 16),
                             ids=lambda z: f"z={z:.0e}")
    def test_cold_solve_at_any_z(self, cold_case, z):
        sol = cold_case.rzf(z)
        assert sol.path == "cold" and sol.mixer != "fallback"
        assert sol.iterations <= 12
        assert cold_case.residual(sol) <= 1e-9

    def test_start_is_init_scaled_to_z(self, small_regimes):
        # RZF: init / z, init z for the shared _bar entries; ZF (z = 1): init
        init, z = 1.7, 3e-4
        for solves in small_regimes:
            rzf, zf = solves.maps(z)
            x = rzf.start(None, init)
            scale = np.full(len(x), 1.0 / z)
            if "C" in solves.stats:
                scale[2:] = z
            assert np.array_equal(x, init * scale)
            assert np.array_equal(zf.start(None, init), np.full(len(x), init))
            # omega stays 0 off a cascaded link
            key = "C" if "C" in solves.stats else "C_list"
            unlinked = {key: np.zeros_like(solves.stats[key])}
            for system in solves.maps(z, **unlinked):
                x = system.start(None, init)
                omega = x[1] if key == "C" else system.split(x)[1]
                assert np.all(omega == 0.0) and np.count_nonzero(x) == (
                    len(x) - np.size(omega))

    def test_nonpositive_z_raises_before_any_zf_solve(self, small_regimes,
                                                      monkeypatch):
        calls = []
        monkeypatch.setattr(fixed_point, "_picard",
                            lambda *a, **k: calls.append(None))
        for solves in small_regimes:
            for z in (0.0, -1e-9):
                with pytest.raises(ValueError):
                    solves.rzf(z)
        assert not calls

    def test_fewer_ports_than_users_start_cold(self, rng):
        for regime in REGIMES:
            sc = random_scenario(rng, regime, M=4, K=6, L=5, sigma2=0.4)
            solves = Regime(sc, regime)
            with pytest.raises(FeasibilityError):
                solves.zf()
            sol = solves.rzf(1e-5)
            assert sol.path == "cold"
            assert solves.residual(sol) <= 1e-9

    def test_fig7_row_solves_without_fallback(self, monkeypatch):
        # fig7's M=24, 90 dB row: the uniform selection's phase ascent
        # reaches z ~ 4e-10, where an unscaled start stalls; every solve of
        # the row must converge, every RZF solve under Newton
        from fasris.optimize import alternating_optimization, joint_optimize
        from fasris.scenarios import fig3_scenario, uniform_selection
        sc = fig3_scenario(90.0)[0]
        sc = replace(sc, dims=replace(sc.dims, M=24))
        outcomes = []

        def picard(system, x0, settings, _picard=fixed_point._picard):
            try:
                sol = _picard(system, x0, settings)
            except ConvergenceError as err:
                outcomes.append(err)
                raise
            if system.shift:
                outcomes.append(sol.mixer)
            return sol

        monkeypatch.setattr(fixed_point, "_picard", picard)
        joint_optimize(sc, 24, T_iter=1)
        alternating_optimization(sc, uniform_selection(24, sc.dims.M_tot),
                                 np.zeros(sc.dims.L))
        assert "newton" in outcomes
        assert set(outcomes) == {"newton"}


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
        R, C, u, t, p = sc.stats_common()
        com = solve_rzf_common(R, C, u, t, z, TIGHT)
        F_list, R2, C_list, _ = sc.stats_uncommon()
        unc = solve_rzf_uncommon(F_list, R2, C_list, z, TIGHT)
        assert abs(com.delta - unc.delta) / unc.delta < 1e-8
        assert np.max(np.abs(com.mu - unc.mu) / unc.mu) < 1e-9
        assert np.max(np.abs(t * com.omega - unc.omega) / unc.omega) < 1e-8

    def test_t_zero_single_hop(self, rng):
        M, K, L = 12, 4, 6
        R = random_correlation(M, rng)
        C = random_correlation(L, rng)
        u = rng.uniform(0.5, 1.5, K)
        sol = solve_rzf_common(R, C, u, np.zeros(K), 0.3, TIGHT)
        assert sol.omega_bar == 0.0
        oracle = single_hop_mu([uk * R for uk in u], 0.3, M)
        assert np.max(np.abs(sol.mu - oracle) / oracle) < 1e-9

    def test_iid_reduction_zf(self, rng):
        # identity correlations, equal gains: u delta + t omega (delta is
        # kappa: F = R) equals the closed form (1 - c1) beta
        M, K, L = 16, 6, 10
        u, t = 1.2, 0.4
        sol = solve_zf_common(np.eye(M), np.eye(L), np.full(K, u),
                              np.full(K, t), TIGHT)
        iid = solve_iid_zf(u, t, K / M, K / L)
        got = u * sol.delta + t * sol.omega
        assert abs(got - iid.mu) / iid.mu < 1e-8

    def test_zf_t_zero(self, rng):
        M, K = 12, 4
        u = 0.8
        sol = solve_zf_common(np.eye(M), np.eye(6), np.full(K, u),
                              np.zeros(K), TIGHT)
        # single-hop ZF: u delta = (1 - c1) u
        assert abs(u * sol.delta - (1 - K / M) * u) < 1e-10

    def test_common_zf_matches_uncommon(self, small_common):
        sc = small_common
        R, C, u, t, p = sc.stats_common()
        com = solve_zf_common(R, C, u, t, TIGHT)
        F_list, R2, C_list, _ = sc.stats_uncommon()
        unc = solve_zf_uncommon(F_list, R2, C_list, TIGHT)
        assert np.max(np.abs(com.mu - unc.mu) / unc.mu) < 1e-9

    @pytest.mark.parametrize("regime", ["common", "uncommon"])
    def test_backsubstitution_sees_other_matrices(self, request, regime):
        # the residual reads the caller's matrices, not the solution's map:
        # R scaled by 1.01 fails the check in both regimes
        sc = request.getfixturevalue(f"small_{regime}")
        if regime == "common":
            R, C, u, t, _ = sc.stats_common()
            sol = solve_rzf_common(R, C, u, t, 0.3)
            res = backsubstitution_residual(sol, R=1.01 * R, C=C, u=u, t=t)
        else:
            F_list, R, C_list, _ = sc.stats_uncommon()
            sol = solve_rzf_uncommon(F_list, R, C_list, 0.3)
            res = backsubstitution_residual(sol, R=1.01 * R, F_list=F_list,
                                            C_list=C_list)
        assert res > 1e-6

    def test_backsubstitution_common(self, small_common):
        # the shared map runs on eigenvalues; the residual evaluates the
        # trace formulas on explicit inverses
        R, C, u, t, p = small_common.stats_common()
        sol = solve_rzf_common(R, C, u, t, 0.3)
        assert backsubstitution_residual(sol, R=R, C=C, u=u, t=t) <= 10 * 1e-10
        solz = solve_zf_common(R, C, u, t)
        assert backsubstitution_residual(solz, R=R, C=C, u=u, t=t) <= 10 * 1e-10


@pytest.fixture(params=REGIMES)
def rzf_at_03(request):
    """RZF solve at z = 0.3 on the small scenario of each regime."""
    solves = Regime(request.getfixturevalue(f"small_{request.param}"),
                    request.param)
    return lambda settings, x0=None: solves.rzf(0.3, settings, x0)


class TestSolvePath:
    def test_cold_and_warm(self, rzf_at_03):
        cold = rzf_at_03(SolverSettings())
        assert cold.path == "cold"
        warm = rzf_at_03(SolverSettings(), x0=cold.x0)
        assert warm.path == "warm" and warm.iterations <= 2
        assert rel_err(warm.delta, cold.delta) < 1e-9

    def test_stalled_solve_raises_with_residual(self, small_regimes):
        for solves in small_regimes:
            with pytest.raises(ConvergenceError) as err:
                solves.rzf(0.3, SolverSettings(max_iter=1))
            assert np.isfinite(err.value.residual) and err.value.residual > 0

    def test_batch_rows_are_the_scalar_solves_and_stall_alike(
            self, small_regimes):
        z = np.array([0.03, 0.3, 3.0])
        for solves in small_regimes:
            batch = solves.rzf(z)
            assert np.array_equal(batch.z, z)
            for i, z_i in enumerate(z):
                for name, v in solves.rzf(z_i).x0.items():
                    assert rel_err(batch.x0[name][i], v) < 1e-9
            with pytest.raises(ConvergenceError) as err:
                solves.rzf(z, SolverSettings(max_iter=1))
            assert np.isfinite(err.value.residual) and err.value.residual > 0

    def test_zf_paths(self, small_common):
        R, C, u, t, _ = small_common.stats_common()
        cold = solve_zf_common(R, C, u, t)
        assert cold.path == "cold"
        warm = solve_zf_common(R, C, u, t, x0=cold.x0)
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
            ("delta", "omega", "kappa_bar", "omega_bar") if shared
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
        assert sol.mixer == "anderson" and sol.halvings == 0
        sol = solve_zf_uncommon(*small_uncommon.stats_uncommon()[:3])
        assert sol.mixer == "anderson" and sol.halvings == 0
        R, C, u, t, _ = small_common.stats_common()
        sol = solve_rzf_common(R, C, u, t, 0.3)
        assert sol.mixer == "newton" and sol.halvings == 0
        sol = solve_zf_common(R, C, u, t)
        assert sol.mixer == "off"

    @staticmethod
    def least_squares(A, f):
        """`_Anderson.lstsq` on A, held in the mixer's own ring."""
        mixer = fixed_point._Anderson(None)
        mixer.step(None, None, np.zeros(len(A)))    # allocates the rings
        mixer.dF[:, :A.shape[1]] = A
        return mixer.lstsq(mixer.dF[:, :A.shape[1]], f).copy()

    @pytest.mark.parametrize("n, m", [(9, 1), (9, 3), (25, 5), (3, 5)])
    def test_least_squares_is_lstsq_on_a_full_rank_ring(self, rng, n, m):
        # (3, 5): fewer rows than the ring has columns, the minimum-norm case
        A, f = rng.standard_normal((n, m)), rng.standard_normal(n)
        ref = np.linalg.lstsq(A, f, rcond=None)[0]
        assert np.abs(self.least_squares(A, f) - ref).max() \
            < 1e-12 * np.abs(ref).max()

    def test_least_squares_with_a_repeated_column_is_minimum_norm(self, rng):
        A, f = rng.standard_normal((9, 4)), rng.standard_normal(9)
        A[:, 3] = A[:, 1]
        ref = np.linalg.lstsq(A, f, rcond=None)[0]
        got = self.least_squares(A, f)
        assert got[1] == pytest.approx(got[3], rel=1e-12)
        assert np.abs(got - ref).max() < 1e-12 * np.abs(ref).max()

    def test_published_per_user_points_mix_to_the_end(self, monkeypatch):
        # fig1 M = 16/20/24 at 60-100 dB and fig2 cases 1-2 at x1-x4, RZF
        # and ZF: 46 cold per-user solves in 496 evaluations, none of them
        # handed to damped Picard
        from fasris.scenarios import fig1_scenario, fig2_scenario
        scenarios = [fig1_scenario(M, snr) for M in (16, 20, 24)
                     for snr in (60.0, 70.0, 80.0, 90.0, 100.0)]
        scenarios += [fig2_scenario(case, scale) for case in (1, 2)
                      for scale in (1, 2, 3, 4)]
        calls = TestCholeskyKernel.count_evaluations(monkeypatch)
        sols = []
        for sc in scenarios:
            F, R, C, _ = sc.stats_uncommon()
            sols += [solve_rzf_uncommon(F, R, C, sc.default_z()),
                     solve_zf_uncommon(F, R, C)]
        assert len(sols) == 46
        assert [sol.mixer for sol in sols] == ["anderson"] * 46
        assert sum(sol.iterations for sol in sols) == len(calls) <= 496

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
        assert sol.path == "cold" and sol.mixer == "fallback"
        assert sol.iterations == len(calls)
        for name, value in ref.x0.items():
            assert rel_err(sol.x0[name], value) < 1e-9, name


class TestNewton:
    def test_nonpositive_state_falls_back_to_picard(self, small_common,
                                                    monkeypatch):
        R, C, u, t, _ = small_common.stats_common()
        ref = solve_rzf_common(R, C, u, t, 0.3, TIGHT)
        calls = []

        def corrupted(self, x, _call=fixed_point._CommonMap.__call__):
            calls.append(None)
            new = _call(self, x)
            if len(calls) == 2:
                new[3] *= -1.0        # a nonpositive kappa_bar
            return new

        monkeypatch.setattr(fixed_point._CommonMap, "__call__", corrupted)
        sol = solve_rzf_common(R, C, u, t, 0.3, TIGHT)
        assert sol.path == "cold" and sol.mixer == "fallback"
        assert sol.iterations == len(calls) > 2
        for name, value in ref.x0.items():
            assert rel_err(sol.x0[name], value) < 1e-9, name

    @pytest.mark.parametrize("snr", [60.0, 80.0, 100.0])
    def test_warm_start_four_decades_up_in_z(self, snr):
        # a jump on the z-search grid: the warm start is the fixed point at
        # 1e4 z, orders of magnitude from the one at z
        from fasris.scenarios import fig3_scenario, uniform_selection
        sc, M = fig3_scenario(snr)
        s = uniform_selection(M, sc.dims.M_tot)
        R, C, u, t, _ = sc.stats_common(s)
        z = sc.default_z(s)
        far = solve_rzf_common(R, C, u, t, 1e4 * z).x0
        sol = solve_rzf_common(R, C, u, t, z, x0=far)
        ref = solve_rzf_common(R, C, u, t, z, TIGHT)
        assert sol.path == "warm" and sol.mixer == "newton"
        assert sol.iterations <= 12
        for name, value in ref.x0.items():
            assert rel_err(sol.x0[name], value) < 1e-9, name

    def test_design_makes_no_least_squares_call(self, small_uncommon,
                                                monkeypatch):
        # only per-user Anderson mixing solves least squares, by ?gelsy
        from fasris.optimize import joint_optimize
        from fasris.scenarios import fig3_scenario
        calls = []

        def lapack(dtype, names=("potrf", "potri"), _lapack=fixed_point._lapack):
            funcs = list(_lapack(dtype, names))
            if names[0] == "gelsy":
                funcs[0] = lambda *a, _gelsy=funcs[0], **k: \
                    calls.append(None) or _gelsy(*a, **k)
            return funcs

        monkeypatch.setattr(fixed_point, "_lapack", lapack)
        sc, M = fig3_scenario(80.0)
        joint_optimize(sc, M, T_iter=1)
        assert not calls
        solve_rzf_uncommon(*small_uncommon.stats_uncommon()[:3], 0.3)
        assert calls


class TestSpectralMap:
    def test_one_spectrum_each_and_no_inverse_per_evaluation(
            self, small_common, monkeypatch):
        R, C, u, t, _ = small_common.stats_common()
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
            lambda: solve_rzf_common(R, C, u, t, 0.3),
            lambda: solve_rzf_common(R, C, u, t, 1e-3),
            lambda: solve_zf_common(R, C, u, t)]
        for solve, path in zip(solves, ["cold", "cold", "cold"]):
            spectra.clear()
            evaluations.clear()
            assert solve().path == path
            assert len(spectra) == 2 and spectra[0] is R and spectra[1] is C
            assert evaluations and not inverses_in_map


    @staticmethod
    def _fig3():
        from fasris.scenarios import fig3_scenario, uniform_selection
        sc, M = fig3_scenario(80.0)
        return sc, uniform_selection(M, sc.dims.M_tot)

    def test_shared_rzf_esr_inverts_nothing(self, monkeypatch):
        from fasris.optimize import deterministic_esr
        sc, s = self._fig3()
        calls = []
        monkeypatch.setattr(np.linalg, "inv",
                            lambda A, _inv=np.linalg.inv: calls.append(A)
                            or _inv(A))
        assert deterministic_esr(sc, s, None, "rzf").esr > 0
        assert not calls

    def test_resolvents_inverted_once_on_first_read(self, monkeypatch):
        from fasris.channel import herm
        sc, s = self._fig3()
        R, C, u, t, _ = sc.stats_common(s)
        z = sc.default_z(s)
        sol = solve_rzf_common(R, C, u, t, z)
        M, L = sol.m_norm, C.shape[0]
        a = L * sol.kappa_bar / M
        b = L * sol.omega * sol.omega_bar / (M * sol.delta)
        eager = {"Psi_R": herm(np.linalg.inv(
                     z * np.eye(M) + a * R + b * R)),
                 "Psi_C": herm(np.linalg.inv(
                     np.eye(L) / sol.delta + sol.omega_bar * C))}
        calls = []
        monkeypatch.setattr(np.linalg, "inv",
                            lambda A, _inv=np.linalg.inv: calls.append(A)
                            or _inv(A))
        for n, name in enumerate(["Psi_R", "Psi_C"], start=1):
            first = getattr(sol, name)
            assert getattr(sol, name) is first and len(calls) == n
            assert first.tobytes() == eager[name].tobytes()

    def test_shared_rzf_esr_leaves_scipy_linalg_unloaded(self):
        # scipy.linalg costs about 6 MiB of resident memory on import
        import os
        import subprocess
        import sys
        import fasris
        code = ("import sys, fasris\n"
                "from fasris.scenarios import fig3_scenario, uniform_selection\n"
                "sc, M = fig3_scenario(80.0)\n"
                "s = uniform_selection(M, sc.dims.M_tot)\n"
                "assert fasris.deterministic_esr(sc, s, None, 'rzf').esr > 0\n"
                "assert 'scipy.linalg' not in sys.modules\n")
        src = os.path.dirname(os.path.dirname(fasris.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_design_leaves_scipy_linalg_unloaded_and_per_user_loads_it(self):
        # the import is paid where the per-user kernel runs, and only there
        import os
        import subprocess
        import sys
        import fasris
        code = ("import sys, fasris\n"
                "from fasris.optimize import joint_optimize\n"
                "from fasris.scenarios import fig1_scenario, fig3_scenario\n"
                "sc, M = fig3_scenario(80.0)\n"
                "joint_optimize(sc, M, T_iter=1)\n"
                "assert 'scipy.linalg' not in sys.modules\n"
                "sc = fig1_scenario(16, 80.0)\n"
                "assert fasris.deterministic_esr(sc, None, None, 'rzf').esr > 0\n"
                "assert 'scipy.linalg' in sys.modules\n")
        src = os.path.dirname(os.path.dirname(fasris.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("case", ["fig3", "F=R"])
    def test_spectral_tables_match_the_matrix_formulas(self, case):
        # the RZF tables and their derivatives, read off the eigenvalues,
        # against the same traces of the explicit inverses Psi_R and Psi_C
        from fasris.gradients import _common_along
        from fasris.rates import _common_tables, second_order_common
        if case == "fig3":
            sc, s = self._fig3()
        else:
            sc, s = random_scenario(np.random.default_rng(5), "common", M=10,
                                    K=4, L=7, sigma2=0.3), None
        R, C, u, t, p = sc.stats_common(s)
        sol = solve_rzf_common(R, C, u, t, sc.default_z(s))
        so = second_order_common(sol, p)
        M, L, delta = sol.m_norm, C.shape[0], sol.delta
        Psi = (sol.Psi_R, sol.Psi_C)
        P = (R @ Psi[0], C @ Psi[1])
        tables = _common_tables(P, (*P, *Psi), M, L, False)
        for name, value in tables.items():
            assert rel_err(so.x[name], value) < 1e-12, name
        along_U = (*so.solve_pi(np.array([0.0, 0.0, 1.0])), 0.0)
        for d_, k_, o_, dz in ((*(-so.x_I), 1.0), along_U):
            got = _common_along(so, d_, k_, o_, dz)
            kb_, ob_ = -(k_ * so.eta_UU + o_ * so.eta_TU), got["omega_bar"]
            ab = (L / M) * ((o_ * sol.omega_bar + sol.omega * ob_) / delta
                            - sol.omega * sol.omega_bar * d_ / delta ** 2
                            + kb_)        # dPsi_R^{-1} = dz I + ab R
            PsiR_ = -Psi[0] @ (dz * np.eye(len(R)) + ab * R) @ Psi[0]
            PsiC_ = Psi[1] @ (d_ / delta ** 2 * np.eye(L) - ob_ * C) @ Psi[1]
            P_ = (R @ PsiR_, C @ PsiC_)
            rest = _common_tables(P, (*P_, PsiR_, PsiC_), M, L, False)
            for name, value in _common_tables(P_, (*P, *Psi), M, L,
                                              False).items():
                ref = value + rest[name]
                scale = max(abs(ref), abs(tables[name]))
                assert abs(got[name] - ref) < 1e-12 * scale, name


class TestCholeskyKernel:
    """Per-user resolvents by LAPACK's Cholesky inverse (`_chol_inv`)."""

    @staticmethod
    def stacks(rng, dtype, M=9, K=4, L=7):
        F = np.stack([random_correlation(M, rng) for _ in range(K)])
        R = random_correlation(M, rng)
        C = np.stack([0.5 * random_correlation(L, rng) for _ in range(K)])
        if dtype is np.float64:    # the real part of a PSD matrix is PSD
            F, R, C = F.real.copy(), R.real.copy(), C.real.copy()
        return F, R, C

    @staticmethod
    def explicit_map(F, R, C, z, x):
        """The per-user RZF map by np.linalg.inv and full traces."""
        K, M, L = len(F), F.shape[-1], C.shape[-1]
        delta, omega, mu = x[..., 0], x[..., 1:K + 1], x[..., K + 1:]
        w_R, w_C = 1.0 / (M * (1.0 + mu)), 1.0 / (L * (1.0 + mu))
        Psi_R = np.linalg.inv(
            np.asarray(z)[..., None, None] * np.eye(M)
            + np.einsum("...k,kij->...ij", w_R, F)
            + (np.sum(w_R * omega, -1) / delta)[..., None, None] * R)
        delta_new = np.real(np.trace(R @ Psi_R, axis1=-2, axis2=-1)) / M
        Psi_C = np.linalg.inv(np.eye(L) / delta_new[..., None, None]
                              + np.einsum("...k,kij->...ij", w_C, C))
        tr = lambda A, P: np.real(np.trace(A @ P[..., None, :, :], axis1=-2,
                                           axis2=-1))
        omega_new = tr(C, Psi_C) / L
        mu_new = tr(F, Psi_R) / M + omega_new
        return np.concatenate((delta_new[..., None], omega_new, mu_new), -1)

    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    @pytest.mark.parametrize("z", [0.3, np.array([0.03, 0.3, 3.0])],
                             ids=["z", "batch"])
    def test_triangle_read_matches_the_explicit_traces(self, rng, dtype, z):
        F, R, C = self.stacks(rng, dtype)
        system = fixed_point._UncommonMap(F, R, C, z, 1.0, None)
        x = rng.uniform(0.5, 2.0, np.shape(z) + (2 * len(F) + 1,))
        assert system.FR_f.dtype == system.C_f.dtype == np.float64
        assert rel_err(system(x), self.explicit_map(F, R, C, z, x)) < 1e-12
        T = system.psi_r(*system.split(x))
        assert T.dtype == dtype and T.shape == np.shape(z) + R.shape

    @pytest.mark.parametrize("precoder", ["rzf", "zf"])
    def test_solution_resolvents_are_hermitian_and_the_inverses(
            self, small_uncommon, precoder):
        F, R, C, _ = small_uncommon.stats_uncommon()
        sol = (solve_rzf_uncommon(F, R, C, np.array([0.03, 0.3]))
               if precoder == "rzf" else solve_zf_uncommon(F, R, C))
        m = sol.system
        gain = m.shift + sol.mu
        w_R, w_C = 1.0 / (m.M * gain), 1.0 / (m.L * gain)
        delta = np.asarray(sol.delta)[..., None, None]
        ref = {"Psi_R": np.linalg.inv(
                   np.asarray(m.z)[..., None, None] * np.eye(m.M)
                   + np.einsum("...k,kij->...ij", w_R, F)
                   + np.sum(w_R * sol.omega, -1)[..., None, None] / delta * R),
               "Psi_C": np.linalg.inv(np.eye(m.L) / delta
                                      + np.einsum("...k,kij->...ij", w_C, C))}
        for name, inv in ref.items():
            P = getattr(sol, name)
            assert np.array_equal(P, P.conj().swapaxes(-1, -2)), name
            assert np.abs(P - inv).max() < 1e-12 * np.abs(inv).max(), name

    def test_per_user_evaluation_makes_no_inv_call(self, monkeypatch):
        from fasris.optimize import deterministic_esr
        from fasris.scenarios import fig1_scenario
        sc = fig1_scenario(16, 80.0)
        calls = []
        monkeypatch.setattr(np.linalg, "inv",
                            lambda A, _inv=np.linalg.inv: calls.append(A)
                            or _inv(A))
        for precoder in ("rzf", "zf"):
            rep = deterministic_esr(sc, None, None, precoder)
            assert rep.regime == f"{precoder}/uncommon" and rep.esr > 0
        sol = solve_rzf_uncommon(*sc.stats_uncommon()[:3], sc.default_z())
        assert sol.Psi_R.shape == (16, 16) and sol.Psi_C.shape == (32, 32)
        assert not calls

    @staticmethod
    def count_evaluations(monkeypatch):
        calls = []

        def counted(self, x, _call=fixed_point._UncommonMap.__call__):
            calls.append(None)
            return _call(self, x)

        monkeypatch.setattr(fixed_point._UncommonMap, "__call__", counted)
        return calls

    @pytest.mark.parametrize("precoder", ["rzf", "zf"])
    @pytest.mark.parametrize("bad", [
        "nan F", "nan R", "nan C", "not PSD F",
        pytest.param("inf F", marks=pytest.mark.filterwarnings(
            "ignore:invalid value:RuntimeWarning"))])    # inf * 0 in a trace
    def test_bad_data_raises_at_the_first_evaluation(
            self, small_uncommon, monkeypatch, precoder, bad):
        # a NaN passes OpenBLAS's potrf unreported; the map's output check
        # catches it, and potrf's pivot check a matrix that is not PD
        F, R, C, _ = small_uncommon.stats_uncommon()
        F, R, C = F.copy(), R.copy(), C.copy()
        value, name = bad.split(" ", 1)
        if value == "not":
            F[0] = -1e3 * np.eye(len(R))
        else:
            {"F": F[1], "R": R, "C": C[2]}[name][1, 2] = float(value)
        calls = self.count_evaluations(monkeypatch)
        with pytest.raises(ConvergenceError, match=(
                "not positive definite" if value == "not" else "non-finite")):
            if precoder == "rzf":
                solve_rzf_uncommon(F, R, C, 0.3)
            else:
                solve_zf_uncommon(F, R, C)
        assert len(calls) == 1


class TestDataDtype:
    """The resolvents take the dtype of their data."""

    def test_shared_psi_r_follows_r(self):
        from fasris.scenarios import fig3_scenario, uniform_selection
        sc, M = fig3_scenario(80.0)
        R, C, u, t, _ = sc.stats_common(uniform_selection(M, sc.dims.M_tot))
        assert R.dtype == np.float64 and C.dtype == np.complex128
        assert solve_zf_common(R, C, u, t).Psi_R.dtype == np.float64
        assert solve_zf_common(R.astype(complex), C, u,
                               t).Psi_R.dtype == np.complex128
        off = solve_zf_common(R, C, u, 0.0 * t)    # no cascaded link
        assert not off.system.cascaded and off.Psi_C.dtype == np.float64

    def test_uncommon_off_cascade_placeholder_is_real(self, rng):
        M, K, L = 8, 3, 5
        F = [random_correlation(M, rng) for _ in range(K)]
        sol = solve_rzf_uncommon(F, random_correlation(M, rng),
                                 np.zeros((K, L, L)), 0.3)
        assert not sol.system.cascaded and sol.Psi_C.dtype == np.float64

    @pytest.mark.parametrize("precoder", ["rzf", "zf"])
    def test_real_f_and_r_with_complex_c(self, rng, precoder):
        # the real part of a PSD matrix is PSD, so .real keeps F and R valid
        M, K, L = 10, 3, 6
        F = np.stack([random_correlation(M, rng).real for _ in range(K)])
        R = random_correlation(M, rng).real
        C = np.stack([0.5 * random_correlation(L, rng) for _ in range(K)])

        def solve(F, R, C):
            if precoder == "rzf":
                return solve_rzf_uncommon(F, R, C, 0.3, TIGHT)
            return solve_zf_uncommon(F, R, C, TIGHT)
        got, ref = solve(F, R, C), solve(F.astype(complex),
                                         R.astype(complex), C)
        assert got.Psi_R.dtype == np.float64
        assert got.Psi_C.dtype == np.complex128
        for name in ("delta", "mu", "omega"):
            assert rel_err(getattr(got, name), getattr(ref, name)) < 1e-9, name
        for name in ("Psi_R", "Psi_C"):
            a, b = getattr(got, name), getattr(ref, name)
            assert np.abs(a - b).max() < 1e-9 * np.abs(b).max(), name


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
