"""Monte-Carlo oracle: precoders, instantaneous SINR, ESR estimation."""

import tracemalloc

import numpy as np
import pytest
from conftest import rel_err

from fasris import (Dimensions, CorrelationSet, Scenario, build_precoder,
                    empirical_esr, instantaneous_sinr, montecarlo,
                    resolvent_probe, solve_rzf_uncommon, sinr_rzf_uncommon)
from fasris.channel import ChannelSampler
from fasris.fixed_point import FeasibilityError
from fasris.scenarios import (fig1_scenario, random_correlation,
                              random_scenario, uniform_selection)


def rand_H(rng, M, K):
    return (rng.standard_normal((M, K)) + 1j * rng.standard_normal((M, K))) \
        / np.sqrt(2 * M)


class TestBuildPrecoder:
    @pytest.mark.parametrize("kind,z", [("rzf", 0.1), ("zf", None),
                                        ("mrt", None)])
    def test_unit_power(self, rng, kind, z):
        H = rand_H(rng, 12, 5)
        p = rng.uniform(0.5, 2.0, 5)
        G = build_precoder(H, kind, p, z)
        power = np.real(np.einsum("mk,k,mk->", G.conj(), p, G))
        assert abs(power - 1.0) < 1e-12

    def test_zf_nulls_interference(self, rng):
        H = rand_H(rng, 12, 5)
        G = build_precoder(H, "zf", np.ones(5))
        A = H.conj().T @ G
        off = A - np.diag(np.diag(A))
        assert np.abs(off).max() < 1e-10 * np.abs(np.diag(A)).min()

    def test_mrt_single_user(self, rng):
        h = rand_H(rng, 8, 1)
        p = np.array([2.0])
        G = build_precoder(h, "mrt", p)
        expected = h / (np.sqrt(p[0]) * np.linalg.norm(h))
        assert np.allclose(G, expected, atol=1e-14)

    def test_rzf_approaches_zf(self, rng):
        # column-space angle between RZF at tiny z and ZF
        H = rand_H(rng, 12, 4)
        G_rzf = build_precoder(H, "rzf", np.ones(4), 1e-10)
        G_zf = build_precoder(H, "zf", np.ones(4))
        for k in range(4):
            a = G_rzf[:, k] / np.linalg.norm(G_rzf[:, k])
            b = G_zf[:, k] / np.linalg.norm(G_zf[:, k])
            angle = np.arccos(min(1.0, abs(np.vdot(a, b))))
            assert angle < 1e-4

    @pytest.mark.parametrize("M,K", [(24, 12), (8, 12)])
    def test_rzf_matches_svd_form_at_tiny_z(self, rng, M, K):
        # H (H^H H + z I)^{-1} = U diag(s / (s^2 + z)) V^H; at z = 1e-9 only
        # the smaller Gram's solve keeps the columns to 1e-12
        H = rand_H(rng, M, K)
        p, z = rng.uniform(0.5, 2.0, K), 1e-9
        U, sv, Vh = np.linalg.svd(H, full_matrices=False)
        ref = (U * (sv / (sv ** 2 + z))) @ Vh
        ref /= np.sqrt(np.real(np.einsum("mk,k,mk->", ref.conj(), p, ref)))
        G = build_precoder(H, "rzf", p, z)
        assert np.abs(G - ref).max() < 1e-12 * np.abs(ref).max()

    def test_zf_rank_check(self, rng):
        H = rand_H(rng, 8, 3)
        H[:, 2] = H[:, 1]          # rank deficient
        with pytest.raises(FeasibilityError):
            build_precoder(H, "zf", np.ones(3))
        with pytest.raises(FeasibilityError):
            build_precoder(rand_H(rng, 3, 5), "zf", np.ones(5))


def with_sigma_ratio(rng, M, K, ratio):
    """H = U diag(s) V^H, s falling from 1 to sigma_min / sigma_max = ratio."""
    U = np.linalg.qr(rand_H(rng, M, K))[0]
    V = np.linalg.qr(rand_H(rng, K, K))[0]
    return (U * np.geomspace(1.0, ratio, K)) @ V.conj().T


@pytest.fixture
def svd_calls(monkeypatch):
    """A list that gains one entry per np.linalg.svd call in the test."""
    calls = []

    def counted(A, *args, _svd=np.linalg.svd, **kw):
        calls.append(None)
        return _svd(A, *args, **kw)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


class TestZfRankCertificate:
    """ZF takes (sigma_max / sigma_min)^2 <= ||H||_F^2 ||(H^H H)^{-1}||_F as
    its rank certificate and runs the exact SVD test only where the bound
    exceeds 1 / RANK_TOL."""

    def test_below_rank_tol_raises(self, rng):
        H = np.stack([rand_H(rng, 10, 4), with_sigma_ratio(rng, 10, 4, 1e-11)])
        with pytest.raises(FeasibilityError, match="rank deficient"):
            build_precoder(H, "zf", np.ones(4))

    def test_uncertified_block_passes_the_exact_test(self, rng, svd_calls):
        H = with_sigma_ratio(rng, 10, 4, 1e-7)
        p = rng.uniform(0.5, 2.0, 4)
        G = build_precoder(H, "zf", p)
        assert len(svd_calls) == 1
        Hs = H[None]            # the stacked arithmetic of the parent code
        G0 = Hs @ np.linalg.inv(np.swapaxes(Hs.conj(), -1, -2) @ Hs)
        power = np.real(np.einsum("tmk,k,tmk->t", G0.conj(), p, G0))
        assert np.array_equal(G, (G0 / np.sqrt(power)[:, None, None])[0])

    def test_exactly_singular_gram_is_infeasible(self, rng):
        H = np.stack([rand_H(rng, 8, 3), np.zeros((8, 3), dtype=complex)])
        H[1, 0, 0], H[1, 1:3, 1] = 1.0, [1.0, 1j]
        H[1, :, 2] = H[1, :, 1]                 # Gram with an exact 0 pivot
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(np.swapaxes(H.conj(), -1, -2) @ H)
        with pytest.raises(FeasibilityError, match="rank deficient"):
            build_precoder(H, "zf", np.ones(3))

    def test_fig1_block_makes_no_svd(self, svd_calls):
        H = ChannelSampler(fig1_scenario(24, 80)).draw(range(16), 5).H
        build_precoder(H, "zf", np.ones(12))
        assert svd_calls == []


class TestInstantaneousSinr:
    def test_single_user(self, rng):
        H = rand_H(rng, 8, 1)
        G = build_precoder(H, "mrt", np.ones(1))
        p, sigma2 = np.array([1.5]), 0.3
        gam = instantaneous_sinr(H, G, p, sigma2)
        expected = p[0] * abs(H[:, 0].conj() @ G[:, 0]) ** 2 / sigma2
        assert gam[0] == pytest.approx(expected, rel=1e-12)

    def test_zf_interference_negligible(self, rng):
        H = rand_H(rng, 12, 5)
        G = build_precoder(H, "zf", np.ones(5))
        A = np.abs(H.conj().T @ G) ** 2
        signal = np.diag(A)
        interference = A.sum(axis=1) - signal
        assert np.all(interference <= 1e-16 * signal)

    def test_triple_loop_oracle(self, rng):
        H = rand_H(rng, 10, 4)
        G = build_precoder(H, "rzf", np.ones(4), 0.05)
        p = rng.uniform(0.5, 2.0, 4)
        sigma2 = 0.2
        gam = instantaneous_sinr(H, G, p, sigma2)
        for k in range(4):
            sig = p[k] * abs(sum(H[m, k].conjugate() * G[m, k]
                                 for m in range(10))) ** 2
            interf = 0.0
            for i in range(4):
                if i != k:
                    interf += p[i] * abs(sum(H[m, k].conjugate() * G[m, i]
                                             for m in range(10))) ** 2
            assert gam[k] == pytest.approx(sig / (interf + sigma2), rel=1e-12)

    def test_power_scale_invariance(self, rng):
        # the precoder renormalizes with P, so scaling all p_k by c leaves
        # every instantaneous SINR unchanged: only power ratios matter
        H = rand_H(rng, 10, 4)
        p = rng.uniform(0.5, 2.0, 4)
        sigma2, c = 0.2, 3.7
        for kind, z in (("rzf", 0.05), ("zf", None), ("mrt", None)):
            G1 = build_precoder(H, kind, p, z)
            G2 = build_precoder(H, kind, c * p, z)
            g1 = instantaneous_sinr(H, G1, p, sigma2)
            g2 = instantaneous_sinr(H, G2, c * p, sigma2)
            assert np.allclose(g1, g2, rtol=1e-12)
        # joint (P, sigma^2) scaling shifts ZF SINRs by exactly 1/c instead
        Gz = build_precoder(H, "zf", p)
        Gzc = build_precoder(H, "zf", c * p)
        gz = instantaneous_sinr(H, Gz, p, sigma2)
        gzc = instantaneous_sinr(H, Gzc, c * p, c * sigma2)
        assert np.allclose(gzc, gz / c, rtol=1e-12)


class TestEmpiricalEsr:
    def test_zero_gains(self, rng):
        M, K, L = 8, 3, 6
        corr = CorrelationSet(R_tot=random_correlation(M, rng),
                              F_tot=[random_correlation(M, rng) for _ in range(K)],
                              C_L=random_correlation(L, rng),
                              C_R=[random_correlation(L, rng) for _ in range(K)])
        sc = Scenario(dims=Dimensions(M=M, K=K, L=L), correlations=corr,
                      u=np.zeros(K), t=np.zeros(K), p=np.ones(K), sigma2=0.5)
        est = empirical_esr(sc, None, None, "mrt", 16, 3)
        assert est.mean == 0.0

    def test_thread_determinism(self, small_uncommon):
        z = 0.2
        e1 = empirical_esr(small_uncommon, None, None, "rzf", 48, 5, z,
                           threads=1)
        e3 = empirical_esr(small_uncommon, None, None, "rzf", 48, 5, z,
                           threads=3)
        assert e1.mean == e3.mean and e1.stderr == e3.stderr

    def test_ci_shrinks_with_trials(self, small_uncommon):
        z = 0.2
        e1 = empirical_esr(small_uncommon, None, None, "rzf", 250, 5, z)
        e4 = empirical_esr(small_uncommon, None, None, "rzf", 1000, 5, z)
        ratio = e4.ci95 / e1.ci95
        assert 0.3 < ratio < 0.75        # ~0.5 with stochastic slack

    def test_needs_two_trials(self, small_uncommon):
        with pytest.raises(ValueError):
            empirical_esr(small_uncommon, None, None, "rzf", 1, 5, 0.2)


class TestConventionCalibration:
    """Pins the factor-M relation between the unit-trace precoder convention
    and the per-antenna convention the deterministic equivalents use.

    With tr(G P G^H) = 1 the instantaneous SINRs match the deterministic
    formulas only after the noise is rescaled by 1/M; empirical_esr applies
    the equivalent sqrt(M) precoder scaling. Both facts are asserted so a
    convention drift cannot pass silently.
    """

    def test_factor_m_between_conventions(self, small_uncommon):
        sc = small_uncommon
        z = sc.dims.K * sc.sigma2 / sc.dims.M
        F_list, R, C_list, p = sc.stats_uncommon()
        sol = solve_rzf_uncommon(F_list, R, C_list, z)
        rep, _ = sinr_rzf_uncommon(sol, p, sc.sigma2)

        from fasris.channel import ChannelSampler
        sampler = ChannelSampler(sc, None, None)
        M = sc.dims.M
        trials = 1500
        esr_unit, esr_antenna = 0.0, 0.0
        for trial in range(trials):
            H = sampler.draw([trial], 17).H[0]
            G = build_precoder(H, "rzf", p, z)
            gam_unit = instantaneous_sinr(H, G, p, sc.sigma2)
            gam_ant = instantaneous_sinr(H, np.sqrt(M) * G, p, sc.sigma2)
            esr_unit += np.log2(1 + gam_unit).sum()
            esr_antenna += np.log2(1 + gam_ant).sum()
        esr_unit /= trials
        esr_antenna /= trials

        # per-antenna convention reproduces the deterministic equivalent
        assert abs(esr_antenna - rep.esr) / rep.esr < 0.05
        # unit-trace convention matches the DE evaluated at noise M sigma^2
        rep_scaled, _ = sinr_rzf_uncommon(sol, p, M * sc.sigma2)
        assert abs(esr_unit - rep_scaled.esr) / rep_scaled.esr < 0.05
        # and the two conventions genuinely differ
        assert abs(esr_unit - rep.esr) / rep.esr > 0.15

    def test_empirical_esr_uses_per_antenna_convention(self, small_uncommon):
        sc = small_uncommon
        z = sc.dims.K * sc.sigma2 / sc.dims.M
        F_list, R, C_list, p = sc.stats_uncommon()
        sol = solve_rzf_uncommon(F_list, R, C_list, z)
        rep, _ = sinr_rzf_uncommon(sol, p, sc.sigma2)
        est = empirical_esr(sc, None, None, "rzf", 1500, 17, z)
        assert abs(est.mean - rep.esr) / rep.esr < 0.05


class TestResolventProbe:
    def test_identity_large_z(self, rng):
        M, K, L = 8, 3, 6
        corr = CorrelationSet(R_tot=np.eye(M),
                              F_tot=[np.eye(M)] * K, C_L=np.eye(L),
                              C_R=[np.eye(L)] * K)
        sc = Scenario(dims=Dimensions(M=M, K=K, L=L), correlations=corr,
                      u=np.full(K, 0.1), t=np.full(K, 0.1), p=np.ones(K),
                      sigma2=0.5)
        z = 1e6
        pr = resolvent_probe(sc, None, None, z, trials=16, seed=2)
        # Q -> I/z, so (1/M) tr(R Q) -> 1/z
        assert abs(pr.delta_hat - 1.0 / z) < 1e-3 / z

    @pytest.mark.filterwarnings("error")
    def test_needs_a_trial(self, small_uncommon):
        # no draw and no division by a zero trial count
        with pytest.raises(ValueError, match="at least 1 trial"):
            resolvent_probe(small_uncommon, None, None, 0.2, trials=0, seed=9)

    def test_first_order_against_solver(self, small_uncommon):
        sc = small_uncommon
        z = 0.2
        F_list, R, C_list, p = sc.stats_uncommon()
        sol = solve_rzf_uncommon(F_list, R, C_list, z)
        pr = resolvent_probe(sc, None, None, z, trials=800, seed=9)
        assert abs(pr.delta_hat - sol.delta) / sol.delta < 0.03
        assert np.max(np.abs(pr.omega_hat - sol.omega)
                      / np.maximum(sol.omega, 1e-6)) < 0.05


class TestBatchedTrials:
    """Trials run as (T, ...) stacks; no result may depend on the stacking."""

    @pytest.mark.parametrize("kind,z", [("rzf", 0.2), ("zf", None),
                                        ("mrt", None)])
    def test_rates_independent_of_block_size(self, small_uncommon,
                                             monkeypatch, kind, z):
        sc, trials = small_uncommon, 23
        rates = []
        for block in (1, 7, trials):
            monkeypatch.setattr(montecarlo, "_BLOCK", block)
            sampler = ChannelSampler(sc, None, None)
            rates.append(montecarlo._trial_rates(
                sampler, sc.p, [(kind, sc.sigma2, z)], 11, trials))
        assert np.array_equal(rates[0], rates[1])
        assert np.array_equal(rates[0], rates[2])

    def test_stacked_draw_matches_single_draws(self, small_uncommon, rng):
        sampler = ChannelSampler(small_uncommon, None,
                                 rng.uniform(0, 2 * np.pi, 8))
        stack = sampler.draw(range(5), 4)
        for t in range(5):
            one = sampler.draw([t], 4)
            for name in ("H", "X", "W", "Y"):
                assert np.array_equal(getattr(stack, name)[t],
                                      getattr(one, name)[0])

    @pytest.mark.parametrize("kind,z", [("rzf", 0.1), ("zf", None),
                                        ("mrt", None)])
    def test_stacked_precoder_and_sinr_equal_per_trial(self, rng, kind, z):
        H = np.stack([rand_H(rng, 12, 5) for _ in range(6)])
        p = rng.uniform(0.5, 2.0, 5)
        G = build_precoder(H, kind, p, z)
        gam = instantaneous_sinr(H, G, p, 0.3)
        assert G.shape == H.shape and gam.shape == (6, 5)
        for t in range(6):
            G_t = build_precoder(H[t], kind, p, z)
            assert np.array_equal(G[t], G_t)
            assert np.array_equal(gam[t], instantaneous_sinr(H[t], G_t, p,
                                                             0.3))

    def test_one_rank_deficient_trial_fails_the_block(self, rng):
        H = np.stack([rand_H(rng, 8, 3) for _ in range(5)])
        H[3, :, 2] = H[3, :, 0]
        with pytest.raises(FeasibilityError, match="rank deficient"):
            build_precoder(H, "zf", np.ones(3))
        build_precoder(np.delete(H, 3, axis=0), "zf", np.ones(3))


def reference_rates(H, kind, p, sigma2, z=None):
    """Sum rates from the explicit precoder at tr(G P G^H) = M."""
    G = build_precoder(H, kind, p, z)
    gam = instantaneous_sinr(H, np.sqrt(H.shape[-2]) * G, p, sigma2)
    return np.log2(1.0 + gam).sum(axis=-1)


def block_rates(H, kind, p, sigma2s, z=None):
    Gram = np.swapaxes(H.conj(), -1, -2) @ H
    return montecarlo._block_rates(H, Gram, kind, z, p, sigma2s)


class TestBlockRates:
    """Rates read off the Gram against the explicit precoder and SINRs."""

    @pytest.mark.parametrize("kind,M,K,z", [
        ("rzf", 12, 5, 0.1), ("rzf", 12, 5, 1e-7), ("rzf", 12, 12, 0.05),
        ("rzf", 6, 9, 0.1), ("rzf", 6, 9, 1e-7), ("zf", 12, 5, None),
        ("zf", 12, 12, None), ("mrt", 12, 5, None), ("mrt", 6, 9, None)])
    def test_match_explicit_precoder(self, rng, kind, M, K, z):
        # at sigma^2 well below |h_k^H g_k|^2 the interference, a row sum
        # less the signal, keeps fewer digits on either side
        H = np.stack([rand_H(rng, M, K) for _ in range(7)])
        p, sigma2s = rng.uniform(0.5, 2.0, K), [1e-3, 0.03, 0.4]
        got = block_rates(H, kind, p, sigma2s, z)
        for got_s, sigma2 in zip(got, sigma2s):
            ref = reference_rates(H, kind, p, sigma2, z)
            assert np.abs(got_s - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("kind", ["rzf", "zf", "mrt"])
    def test_fig1_block(self, kind):
        sc = fig1_scenario(24, 80)
        H = ChannelSampler(sc).draw(range(16), 5).H
        z = sc.default_z() if kind == "rzf" else None
        got = block_rates(H, kind, sc.p, [sc.sigma2], z)[0]
        ref = reference_rates(H, kind, sc.p, sc.sigma2, z)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("kind,M,K,z", [("rzf", 8, 3, 0.2),
                                            ("rzf", 3, 5, 0.2),
                                            ("mrt", 8, 3, None)])
    def test_zero_channels(self, rng, kind, M, K, z):
        # trial 1 has no channel at all, trial 2 none to user 0
        H = np.stack([rand_H(rng, M, K) for _ in range(4)])
        H[1] = 0.0
        H[2, :, 0] = 0.0
        p = rng.uniform(0.5, 2.0, K)
        got = block_rates(H, kind, p, [0.3], z)[0]
        ref = reference_rates(H, kind, p, 0.3, z)
        assert got[1] == ref[1] == 0.0
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_zf_keeps_its_errors(self, rng):
        H = np.stack([rand_H(rng, 10, 4), with_sigma_ratio(rng, 10, 4, 1e-11)])
        with pytest.raises(FeasibilityError, match="rank deficient"):
            block_rates(H, "zf", np.ones(4), [0.3])
        with pytest.raises(FeasibilityError, match="M=3 < K=5"):
            block_rates(rand_H(rng, 3, 5)[None], "zf", np.ones(5), [0.3])

    def test_many_cases_equal_one_call_each(self, small_uncommon):
        sc = small_uncommon
        cases = [("rzf", 0.4, 0.2), ("zf", 0.4, None), ("mrt", 0.05, None),
                 ("rzf", 0.05, 0.01), ("zf", 0.05, None), ("rzf", 0.4, 0.01),
                 ("mrt", 0.4, None)]
        sampler = ChannelSampler(sc)
        together = montecarlo._trial_rates(sampler, sc.p, cases, 4, 37)
        for case, rates in zip(cases, together):
            alone = montecarlo._trial_rates(sampler, sc.p, [case], 4, 37)
            assert np.array_equal(rates, alone[0])


def _probe_oracle(scenario, phi, z, trials, seed, s=None):
    """Per-trial einsum evaluation of every probe trace (reference)."""
    sampler = ChannelSampler(scenario, s, phi)
    M, K, L = sampler.M, sampler.K, sampler.L
    R = scenario.select_R(s)
    F_stack = np.stack([Fh @ Fh.conj().T for Fh in sampler.F_half])
    delta, omega, mu = 0.0, np.zeros(K), np.zeros(K)
    ups, lam = np.zeros(K), np.zeros((K, K))
    sample = sampler.draw(range(trials), seed)
    for trial in range(trials):
        H = sample.H[trial]
        Q = np.linalg.inv(z * np.eye(M) + H @ H.conj().T)
        # Z_k = R^{1/2} X C_k^{+/2}, (K, M, L)
        Z = np.stack([sampler.R_half @ sample.X[trial] @ Ck
                      for Ck in sampler.C_half])
        delta += np.real(np.trace(R @ Q)) / M
        QZ = np.einsum("mn,knl->kml", Q, Z)
        omega_t = np.real(np.einsum("kml,kml->k", Z.conj(), QZ)) / L
        omega += omega_t
        mu += np.real(np.einsum("kij,ji->k", F_stack, Q)) / M + omega_t
        Q2 = Q @ Q
        Q2Z = np.einsum("mn,knl->kml", Q2, Z)
        ups += np.real(np.einsum("kml,kml->k", Z.conj(), Q2Z)) / L \
            + np.real(np.einsum("kij,ji->k", F_stack, Q2)) / M
        # lambda[k,l] = (1/L)tr(Z_k Z_k^H Q Z_l Z_l^H Q)
        #             + (1/M)tr(Z_k Z_k^H Q F_l Q)
        S = np.einsum("kma,lmb->klab", Z.conj(), QZ)
        lam += np.real(np.einsum("klab,lkba->kl", S, S)) / L
        for l in range(K):
            FQZ = np.einsum("ij,kjl->kil", F_stack[l], QZ)
            lam[:, l] += np.real(np.einsum("kml,kml->k", QZ.conj(), FQZ)) / M
    return [v / trials for v in (delta, omega, mu, ups, lam)]


class TestProbeAgainstEinsumOracle:
    @pytest.mark.parametrize("trials", [1, 5, 19])
    def test_every_trace_matches(self, small_uncommon, rng, trials):
        phi = rng.uniform(0, 2 * np.pi, 8)
        pr = resolvent_probe(small_uncommon, None, phi, 0.2, trials, 13)
        got = [pr.delta_hat, pr.omega_hat, pr.mu_hat, pr.ups_I_hat,
               pr.lambda_hat]
        for g, ref in zip(got, _probe_oracle(small_uncommon, phi, 0.2,
                                             trials, 13)):
            assert rel_err(g, ref) < 1e-12

    def test_shared_regime(self, small_common):
        pr = resolvent_probe(small_common, None, None, 0.05, 3, 2)
        ref = _probe_oracle(small_common, None, 0.05, 3, 2)
        assert rel_err(pr.lambda_hat, ref[4]) < 1e-12
        assert rel_err(pr.ups_I_hat, ref[3]) < 1e-12

    # the probe's traces run on L x L Grams: L > M, L < M and a port
    # selection (M of M_tot ports) each against the M x M oracle
    @pytest.mark.parametrize("M,K,L,M_tot", [(5, 3, 11, None),
                                             (13, 4, 6, None),
                                             (6, 3, 9, 14)])
    def test_shapes_and_selection(self, rng, M, K, L, M_tot):
        sc = random_scenario(rng, "uncommon", M, K, L, M_tot=M_tot)
        s = None if M_tot is None else uniform_selection(M, M_tot)
        phi = rng.uniform(0, 2 * np.pi, L)
        pr = resolvent_probe(sc, s, phi, 0.3, 21, 4)
        got = [pr.delta_hat, pr.omega_hat, pr.mu_hat, pr.ups_I_hat,
               pr.lambda_hat]
        for g, ref in zip(got, _probe_oracle(sc, phi, 0.3, 21, 4, s)):
            assert rel_err(g, ref) < 1e-12


def test_probe_memory_peak():
    # 40 trials of fig1 at M = L = 32 stay within 6 MiB, where one
    # (T, K, M, M) stack of a 16-trial block alone takes 3 MiB, and within
    # 0.25 MiB of one 16-trial block: a block is freed before the next draw.
    # A 1-trial probe first fills the scenario's square-root cache and the
    # lazy imports of the first draw, which later calls do not allocate
    # again.
    sc = fig1_scenario(32, 80)
    resolvent_probe(sc, None, None, sc.default_z(), trials=1, seed=3)
    peaks = {}
    for trials in (16, 40):
        tracemalloc.start()
        try:
            resolvent_probe(sc, None, None, sc.default_z(), trials=trials,
                            seed=3)
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[40] <= 6 * 2 ** 20
    assert peaks[40] <= peaks[16] + 2 ** 18
