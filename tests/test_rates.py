"""Deterministic SINR/ESR evaluation and the second-order blocks."""

import numpy as np
import pytest

from fasris import (Dimensions, CorrelationSet, Scenario, SolverSettings,
                    esr_iid_mrt, esr_iid_zf, min_ports, solve_iid_zf,
                    solve_rzf_common, solve_rzf_uncommon, solve_zf_common,
                    solve_zf_uncommon, sinr_rzf_common, sinr_rzf_uncommon,
                    sinr_zf_common, sinr_zf_uncommon)
from fasris.rates import (NumericalError, _clip_psi, _solve_checked,
                          second_order_uncommon)
from fasris.scenarios import random_correlation, random_scenario

TIGHT = SolverSettings(tol=1e-12, max_iter=30000)


class TestRzfUncommonSinr:
    def test_single_user_no_interference(self, rng):
        M, L = 10, 6
        F_list = [random_correlation(M, rng)]
        R = random_correlation(M, rng)
        C_list = [0.5 * random_correlation(L, rng)]
        p = np.array([1.3])
        sigma2 = 0.4
        sol = solve_rzf_uncommon(F_list, R, C_list, 0.2, TIGHT)
        rep, so = sinr_rzf_uncommon(sol, F_list, R, C_list, p, sigma2)
        expected = p[0] * sol.mu[0] ** 2 / (sigma2 * (1 + sol.mu[0]) ** 2 * so.Cbar)
        assert rep.sinr[0] == pytest.approx(expected, rel=1e-12)
        assert rep.esr == pytest.approx(np.log2(1 + expected), rel=1e-12)

    def test_user_permutation_invariance(self, small_uncommon, rng):
        sc = small_uncommon
        F_list, R, C_list, p = sc.stats_uncommon()
        sol = solve_rzf_uncommon(F_list, R, C_list, 0.2, TIGHT)
        rep, _ = sinr_rzf_uncommon(sol, F_list, R, C_list, p, sc.sigma2)
        perm = rng.permutation(sc.dims.K)
        Fp = [F_list[i] for i in perm]
        Cp = [C_list[i] for i in perm]
        solp = solve_rzf_uncommon(Fp, R, Cp, 0.2, TIGHT)
        repp, _ = sinr_rzf_uncommon(solp, Fp, R, Cp, p[perm], sc.sigma2)
        assert np.max(np.abs(repp.sinr - rep.sinr[perm]) / rep.sinr[perm]) < 1e-9

    def test_sum_identity(self, small_uncommon):
        # exact consistency: sum_l Psi_kl / (L (1+mu_l)^2) = mu_k + z mu_k'
        sc = small_uncommon
        z = 0.2
        F_list, R, C_list, p = sc.stats_uncommon()
        sol = solve_rzf_uncommon(F_list, R, C_list, z, TIGHT)
        _, so = sinr_rzf_uncommon(sol, F_list, R, C_list, p, sc.sigma2)
        h = 1e-6 * z
        x0 = {"delta": sol.delta, "mu": sol.mu, "omega": sol.omega}
        mup = (solve_rzf_uncommon(F_list, R, C_list, z + h, TIGHT, x0=x0).mu
               - solve_rzf_uncommon(F_list, R, C_list, z - h, TIGHT, x0=x0).mu) \
            / (2 * h)
        L = sc.dims.L
        lhs = np.sum(so.Psi_kl / (L * (1 + sol.mu)[None, :] ** 2), axis=1)
        rhs = sol.mu + z * mup
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-6

    def test_cbar_identity(self, small_uncommon):
        # Cbar = -sum_m p_m mu_m' / (M (1+mu_m)^2), mu' by central differences
        sc = small_uncommon
        z = 0.2
        F_list, R, C_list, p = sc.stats_uncommon()
        sol = solve_rzf_uncommon(F_list, R, C_list, z, TIGHT)
        _, so = sinr_rzf_uncommon(sol, F_list, R, C_list, p, sc.sigma2)
        h = 1e-6 * z
        x0 = {"delta": sol.delta, "mu": sol.mu, "omega": sol.omega}
        mup = (solve_rzf_uncommon(F_list, R, C_list, z + h, TIGHT, x0=x0).mu
               - solve_rzf_uncommon(F_list, R, C_list, z - h, TIGHT, x0=x0).mu) \
            / (2 * h)
        ident = -np.sum(p * mup / (sol.m_norm * (1 + sol.mu) ** 2))
        assert abs(so.Cbar - ident) / abs(ident) < 1e-6


class TestZfSinr:
    def test_homogeneous_symmetry(self):
        M, K, L = 12, 4, 8
        F_list = [np.eye(M) for _ in range(K)]
        C_list = [0.5 * np.eye(L) for _ in range(K)]
        sol = solve_zf_uncommon(F_list, np.eye(M), C_list, TIGHT)
        rep = sinr_zf_uncommon(sol, np.ones(K), 0.3)
        expected = M * sol.mu[0] / (K * 0.3)
        assert np.allclose(rep.sinr, expected, rtol=1e-10)

    def test_matches_rzf_small_z(self, small_uncommon):
        sc = small_uncommon
        F_list, R, C_list, p = sc.stats_uncommon()
        zf = solve_zf_uncommon(F_list, R, C_list, TIGHT)
        rep_zf = sinr_zf_uncommon(zf, p, sc.sigma2)
        rzf = solve_rzf_uncommon(F_list, R, C_list, 1e-8, TIGHT)
        rep_rzf, _ = sinr_rzf_uncommon(rzf, F_list, R, C_list, p, sc.sigma2)
        assert abs(rep_zf.esr - rep_rzf.esr) / rep_zf.esr < 1e-3

    def test_identity_matches_iid_closed_form(self):
        M, K, L = 16, 6, 12
        u, t, sigma2 = 1.0, 0.5, 0.3
        sol = solve_zf_common(np.eye(M), np.eye(M), np.eye(L),
                              np.full(K, u), np.full(K, t), TIGHT)
        rep = sinr_zf_common(sol, np.full(K, u), np.full(K, t), np.ones(K),
                             sigma2)
        iid = solve_iid_zf(u, t, K / M, K / L)
        expected = (1 - K / M) * iid.beta_val / ((K / M) * sigma2)
        assert np.allclose(rep.sinr, expected, rtol=1e-8)


class TestCommonSinr:
    def test_matches_uncommon_specialization(self, small_common):
        sc = small_common
        z = 0.25
        F, R, C, u, t, p = sc.stats_common()
        com = solve_rzf_common(F, R, C, u, t, z, TIGHT)
        rep_c, _ = sinr_rzf_common(com, F, R, C, u, t, p, sc.sigma2)
        F_list, R2, C_list, _ = sc.stats_uncommon()
        unc = solve_rzf_uncommon(F_list, R2, C_list, z, TIGHT)
        rep_u, _ = sinr_rzf_uncommon(unc, F_list, R2, C_list, p, sc.sigma2)
        assert np.max(np.abs(rep_c.sinr - rep_u.sinr) / rep_u.sinr) < 1e-6
        assert abs(rep_c.esr - rep_u.esr) / rep_u.esr < 1e-6

    def test_single_user(self, rng):
        M, L = 10, 6
        F = random_correlation(M, rng)
        R = random_correlation(M, rng)
        C = random_correlation(L, rng)
        u, t = np.array([1.0]), np.array([0.5])
        sol = solve_rzf_common(F, R, C, u, t, 0.2, TIGHT)
        rep, so = sinr_rzf_common(sol, F, R, C, u, t, np.ones(1), 0.4)
        mu = sol.mu_k(u, t)[0]
        expected = mu ** 2 / (0.4 * (1 + mu) ** 2 * so.Cbar)
        assert rep.sinr[0] == pytest.approx(expected, rel=1e-12)

    def test_zf_t_zero_single_hop_rate(self):
        M, K, L = 12, 4, 8
        u, sigma2 = 0.9, 0.5
        sol = solve_zf_common(np.eye(M), np.eye(M), np.eye(L),
                              np.full(K, u), np.zeros(K), TIGHT)
        rep = sinr_zf_common(sol, np.full(K, u), np.zeros(K), np.ones(K),
                             sigma2)
        c1 = K / M
        expected = K * np.log2(1 + (1 - c1) * u / (c1 * sigma2))
        assert rep.esr == pytest.approx(expected, rel=1e-9)


class TestOrderings:
    def test_rzf_beats_zf(self, rng):
        for seed in range(4):
            sc = random_scenario(np.random.default_rng(seed), "uncommon",
                                 M=14, K=5, L=8, sigma2=0.4)
            F_list, R, C_list, p = sc.stats_uncommon()
            z = sc.dims.K * sc.sigma2 / sc.dims.M
            rzf = solve_rzf_uncommon(F_list, R, C_list, z, TIGHT)
            rep_rzf, _ = sinr_rzf_uncommon(rzf, F_list, R, C_list, p, sc.sigma2)
            zf = solve_zf_uncommon(F_list, R, C_list, TIGHT)
            rep_zf = sinr_zf_uncommon(zf, p, sc.sigma2)
            assert rep_rzf.esr >= rep_zf.esr >= 0.0


class TestIidForms:
    def test_esr_iid_zf_vanishes_at_full_load(self):
        esr = esr_iid_zf(1.0, 0.5, 1.0 - 1e-9, 0.5, 0.3, 8).esr
        assert esr == pytest.approx(0.0, abs=1e-6)

    def test_esr_iid_zf_t_zero(self):
        K, c1, u, sigma2 = 8, 0.5, 1.0, 0.1
        esr = esr_iid_zf(u, 0.0, c1, 0.5, sigma2, K).esr
        assert esr == pytest.approx(K * np.log2(1 + (1 - c1) * u / (c1 * sigma2)),
                                    rel=1e-12)

    def test_esr_iid_zf_composition(self):
        u, t, c1, c2, sigma2, K = 1.0, 0.5, 0.5, 0.6, 0.1, 8
        beta = solve_iid_zf(u, t, c1, c2).beta_val
        expected = 8 * np.log2(1 + 0.5 * beta / 0.05)
        assert esr_iid_zf(u, t, c1, c2, sigma2, K).esr == pytest.approx(
            expected, rel=1e-12)

    def test_mrt_single_user_grows_with_snr(self):
        esrs = [esr_iid_mrt(1.0, 0.5, 16, 1, 8, s2).esr
                for s2 in (1.0, 0.1, 0.01)]
        assert esrs[0] < esrs[1] < esrs[2]

    def test_mrt_high_snr_limit(self):
        u, t, M, K, L = 1.0, 0.5, 16, 6, 8
        limit = K * np.log2(1 + (t + u) ** 2 * M
                            / ((K - 1) * t * (u + t)
                               + (K - 1) * t * (t * L / M ** 2 + u * L / M) * M / L))
        esr = esr_iid_mrt(u, t, M, K, L, 1e-12).esr
        assert esr == pytest.approx(limit, rel=1e-6)

    def test_mrt_below_zf_at_high_snr(self):
        # homogeneous-gain variant of the precoder-comparison setting
        from fasris.scenarios import direct_gain, ris_leg_gain
        u, t = direct_gain(22.9), ris_leg_gain(20.0)
        M, K, L = 20, 8, 32
        sigma2 = 10.0 ** -8.0
        mrt = esr_iid_mrt(u, t, M, K, L, sigma2).esr
        zf = esr_iid_zf(u, t, K / M, K / L, sigma2, K).esr
        assert mrt < zf

    def test_mrt_saturation_flag(self):
        rep = esr_iid_mrt(1.0, 0.5, 16, 6, 8, 1e-9)
        assert rep.digest["saturated"]


class TestMinPorts:
    def test_zero_target(self):
        assert min_ports(0.0, 8, 1.0, 0.5, 0.5, 0.1) == 8

    def test_inversion(self):
        K, u, t, c2, sigma2 = 8, 1.0, 0.4, 0.5, 0.2
        for target in (4.0, 12.0, 30.0):
            m_star = min_ports(target, K, u, t, c2, sigma2)
            assert esr_iid_zf(u, t, K / m_star, c2, sigma2, K).esr >= target - 1e-9
            if m_star - 1 > K:
                below = esr_iid_zf(u, t, K / (m_star - 1), c2, sigma2, K).esr
                assert below < target + 1e-9

    def test_ris_reduces_required_ports(self):
        K, u, c2, sigma2, target = 8, 1.0, 0.5, 0.2, 20.0
        with_ris = min_ports(target, K, u, 0.5, c2, sigma2)
        without = min_ports(target, K, u, 0.0, c2, sigma2)
        assert with_ris <= without


class TestSecondOrderEdges:
    def test_single_hop_r_zero(self, rng):
        # R = 0 kills the cascade; the second-order engine must not divide
        # by the vanishing delta
        M, K, L = 10, 3, 6
        F_list = [random_correlation(M, rng) for _ in range(K)]
        C_list = [0.4 * random_correlation(L, rng) for _ in range(K)]
        R = np.zeros((M, M))
        p = np.ones(K)
        sol = solve_rzf_uncommon(F_list, R, C_list, 0.3, TIGHT)
        assert sol.delta == 0.0
        rep, so = sinr_rzf_uncommon(sol, F_list, R, C_list, p, 0.4)
        assert np.all(np.isfinite(rep.sinr))
        from conftest import single_hop_mu
        oracle_mu = single_hop_mu(F_list, 0.3, M)
        assert np.max(np.abs(sol.mu - oracle_mu) / oracle_mu) < 1e-9

    def test_psi_negativity_guard(self, small_uncommon):
        sc = small_uncommon
        F_list, R, C_list, p = sc.stats_uncommon()
        sol = solve_rzf_uncommon(F_list, R, C_list, 0.2, TIGHT)
        so = second_order_uncommon(F_list, R, C_list, p, sol)
        assert so.Psi_kl.min() >= 0.0


class TestNumericalGuards:
    def test_clip_psi_raises_on_significant_negativity(self):
        Psi = np.array([[2.0, 0.5], [-1e-3, 1.0]])
        with pytest.raises(NumericalError, match="negativity"):
            _clip_psi(Psi)

    def test_clip_psi_zeroes_roundoff_negatives(self):
        Psi = np.array([[2.0, 0.5], [-1e-12, 1.0]])
        out = _clip_psi(Psi)
        assert np.array_equal(out, [[2.0, 0.5], [0.0, 1.0]])

    def test_singular_block_raises(self):
        with pytest.raises(NumericalError, match="Pi block is ill-conditioned"):
            _solve_checked(np.ones((2, 2)), np.ones(2), "Pi")


class TestReferenceScenarioProperties:
    def test_fig1_zf_below_rzf_at_low_snr(self):
        from fasris.scenarios import fig1_scenario
        from fasris import (solve_zf_uncommon, sinr_zf_uncommon)
        sc = fig1_scenario(24, 60.0)
        z = sc.dims.K * sc.sigma2 / 24
        F_list, R, C_list, p = sc.stats_uncommon()
        rzf = solve_rzf_uncommon(F_list, R, C_list, z)
        rep_rzf, _ = sinr_rzf_uncommon(rzf, F_list, R, C_list, p, sc.sigma2)
        zf = solve_zf_uncommon(F_list, R, C_list)
        rep_zf = sinr_zf_uncommon(zf, p, sc.sigma2)
        assert rep_zf.esr < rep_rzf.esr

    def test_accuracy_improves_with_system_size(self):
        # DE error against MC shrinks when (M, K, L) are doubled at fixed
        # ratios, from the (8,6,16) base point
        from fasris.scenarios import fig2_scenario
        from fasris import empirical_esr
        from fasris.optimize import deterministic_esr
        errs = []
        for scale in (1, 2):
            sc = fig2_scenario(1, scale, 80.0)
            z = sc.dims.K * sc.sigma2 / sc.dims.M
            rep = deterministic_esr(sc, None, None, "rzf", z)
            est = empirical_esr(sc, None, None, "rzf", 4000, 64, z)
            errs.append(abs(rep.esr - est.mean) / est.mean)
        assert errs[1] < errs[0]

    def test_rate_report_record(self, small_uncommon):
        sc = small_uncommon
        F_list, R, C_list, p = sc.stats_uncommon()
        sol = solve_rzf_uncommon(F_list, R, C_list, 0.2)
        rep, _ = sinr_rzf_uncommon(sol, F_list, R, C_list, p, sc.sigma2)
        rec = rep.to_record()
        assert rec.startswith("regime=rzf/uncommon esr=")
        assert "sinr=[" in rec and "z=0.2" in rec
        row = rep.csv_row()
        assert row["esr"] == rep.esr and "sinr_0" in row


def _per_user_case(case):
    """Per-user scenario and its RZF second-order blocks for one loop case:
    a cascaded link, no cascaded link (t = 0), no RIS path (R = 0), or
    K = 9 users, where sums over users change their summation order."""
    rng = np.random.default_rng(41)
    K = 9 if case == "K9" else 4
    sc = random_scenario(rng, "uncommon", M=12, K=K, L=8, sigma2=0.4)
    if case == "t0":
        sc.t = np.zeros(K)
    if case == "R0":
        sc.correlations.R_tot = np.zeros_like(sc.correlations.R_tot)
    F, R, C, p = sc.stats_uncommon(phi=rng.uniform(0, 2 * np.pi, 8))
    sol = solve_rzf_uncommon(F, R, C, 0.2, TIGHT)
    return second_order_uncommon(F, R, C, p, sol)


def _loop_interference_blocks(so):
    """(W, Psi_kl, Lambda_kl) with the interference RHS built one user
    column at a time, as the oracle of the whole-array expression."""
    sol = so.sol
    K, M, L = len(so.F), sol.m_norm, so.D.shape[1]
    mu, omega, delta = sol.mu, sol.omega, sol.delta
    one_mu = 1.0 + mu
    B_rhs = np.zeros((K + 1, K))
    for l in range(K):
        e_om = -so.Xi[:, l] / (L * one_mu[l])
        e_om[l] += omega[l]
        S_l = np.sum(e_om / (M * delta * one_mu)) if delta > 0 else 0.0
        b = np.empty(K + 1)
        b[:K] = e_om - so.chi_FF[:, l] / (M * one_mu[l]) - so.chi_FR * S_l
        b[l] += mu[l] - omega[l]
        b[K] = -so.chi_FR[l] / (M * one_mu[l]) - so.chi_RR * S_l
        B_rhs[:, l] = b
    W = _solve_checked(so.Pi, B_rhs, "Pi")
    W_adj = W[:K, :].copy()
    W_adj[np.diag_indices(K)] -= mu
    Psi_kl = -L * one_mu[None, :] ** 2 * W_adj
    Lambda_kl = Psi_kl - (L / M) * so.ups_F[:K, :].T
    return W, _clip_psi(Psi_kl), Lambda_kl


@pytest.mark.parametrize("case", ["cascaded", "t0", "R0", "K9"])
def test_interference_rhs_matches_per_user_loop(case):
    so = _per_user_case(case)
    assert (so.sol.delta == 0.0) == (case == "R0")
    assert np.all(so.sol.omega == 0.0) == (case in ("t0", "R0"))
    for got, ref in zip((so.W, so.Psi_kl, so.Lambda_kl),
                        _loop_interference_blocks(so)):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
