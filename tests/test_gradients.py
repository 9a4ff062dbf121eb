"""Analytic ESR derivatives against central finite differences."""

import numpy as np
import pytest

from fasris import (SolverSettings, esr_gradient_phases_common,
                    esr_gradient_phases_uncommon,
                    esr_gradient_phases_zf_common,
                    esr_gradient_ports_zf_common,
                    esr_gradient_ports_zf_uncommon, fd_gradient, gradient_G_l,
                    phase_perturbation, solve_rzf_common, solve_rzf_uncommon,
                    solve_zf_common, solve_zf_uncommon, sinr_rzf_common,
                    sinr_rzf_uncommon, sinr_zf_common, sinr_zf_uncommon)
from fasris.channel import herm, phase_matrix, psd_sqrt
from fasris.gradients import _diag3
from fasris.scenarios import random_correlation, random_scenario

TIGHT = SolverSettings(tol=1e-13, max_iter=40000)
H_FD = 1e-5
TOL = 1e-3


def fd_tolerance_check(analytic, fd):
    floor = 1e-3 * max(np.abs(fd).max(), 1e-12)
    return float(np.max(np.abs(analytic - fd) / np.maximum(np.abs(fd), floor)))


class TestGl:
    def test_hermitian(self, rng):
        phi = rng.uniform(0, 2 * np.pi, 6)
        for l in range(6):
            G = gradient_G_l(phi, l)
            assert np.allclose(G, G.conj().T)
            assert G[l, l] == 0.0

    def test_equal_phases_entries(self):
        phi = np.full(5, 0.7)
        G = gradient_G_l(phi, 2)
        assert np.allclose(G[2, [0, 1, 3, 4]], 1j)
        assert np.allclose(G[[0, 1, 3, 4], 2], -1j)

    def test_fd_of_phase_conjugation(self, rng):
        # A_l reproduces d(C_L^{1/2} Phi C_R Phi^H C_L^{1/2})/dphi_l
        L = 6
        C_L = random_correlation(L, rng)
        C_R = random_correlation(L, rng)
        CLroot = psd_sqrt(C_L)
        phi = rng.uniform(0, 2 * np.pi, L)

        def C_of(ph):
            Phi = phase_matrix(ph, L)
            return herm(CLroot @ Phi @ C_R @ Phi.conj().T @ CLroot)

        h = 1e-6
        for l in range(L):
            e = np.zeros(L)
            e[l] = h
            fd = (C_of(phi + e) - C_of(phi - e)) / (2 * h)
            A = phase_perturbation(CLroot, C_R, phi, l)
            assert np.abs(A - fd).max() < 1e-7


def build_common(rng, M=12, K=4, L=8):
    sc = random_scenario(rng, "common", M=M, K=K, L=L, sigma2=0.3)
    corr = sc.correlations
    CLroot = psd_sqrt(corr.C_L)
    z = sc.dims.K * sc.sigma2 / sc.dims.M
    phi0 = rng.uniform(0, 2 * np.pi, L)

    def esr(phi):
        Phi = phase_matrix(phi, L)
        C = herm(CLroot @ Phi @ corr.C_R @ Phi.conj().T @ CLroot)
        sol = solve_rzf_common(corr.F_tot, corr.R_tot, C, sc.u, sc.t, z, TIGHT)
        return sinr_rzf_common(sol, corr.F_tot, corr.R_tot, C, sc.u, sc.t,
                               sc.p, sc.sigma2)[0].esr

    Phi0 = phase_matrix(phi0, L)
    C0 = herm(CLroot @ Phi0 @ corr.C_R @ Phi0.conj().T @ CLroot)
    sol = solve_rzf_common(corr.F_tot, corr.R_tot, C0, sc.u, sc.t, z, TIGHT)
    _, so = sinr_rzf_common(sol, corr.F_tot, corr.R_tot, C0, sc.u, sc.t,
                            sc.p, sc.sigma2)
    g = esr_gradient_phases_common(so, corr.C_L, corr.C_R, phi0, sc.sigma2)
    return sc, phi0, esr, g


class TestPhaseGradientCommon:
    def test_matches_fd(self):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            sc, phi0, esr, g = build_common(rng)
            dev = fd_tolerance_check(g, fd_gradient(esr, phi0, H_FD))
            assert dev < TOL, f"seed {seed}: deviation {dev}"

    def test_zero_gradient_when_phase_invariant(self, rng):
        # diagonal C_R with identity C_L: Phi cancels inside C
        sc = random_scenario(rng, "common", M=10, K=3, L=6, sigma2=0.3)
        corr = sc.correlations
        C_L = np.eye(6)
        C_R = np.diag(rng.uniform(0.5, 1.5, 6))
        phi = rng.uniform(0, 2 * np.pi, 6)
        C = C_R.astype(complex)
        z = 0.15
        sol = solve_rzf_common(corr.F_tot, corr.R_tot, C, sc.u, sc.t, z, TIGHT)
        _, so = sinr_rzf_common(sol, corr.F_tot, corr.R_tot, C, sc.u, sc.t,
                                sc.p, sc.sigma2)
        g = esr_gradient_phases_common(so, C_L, C_R, phi, sc.sigma2)
        assert np.allclose(g, 0.0, atol=1e-15)

    def test_global_phase_invariance(self, rng):
        # adding a constant to every angle leaves C, the ESR and the
        # gradient unchanged; consequently the gradient sums to zero
        sc, phi0, esr, g = build_common(np.random.default_rng(5))
        corr = sc.correlations
        CLroot = psd_sqrt(corr.C_L)
        shift = 0.613
        z = sc.dims.K * sc.sigma2 / sc.dims.M
        Phi1 = phase_matrix(phi0 + shift, sc.dims.L)
        C1 = herm(CLroot @ Phi1 @ corr.C_R @ Phi1.conj().T @ CLroot)
        sol = solve_rzf_common(corr.F_tot, corr.R_tot, C1, sc.u, sc.t, z, TIGHT)
        _, so = sinr_rzf_common(sol, corr.F_tot, corr.R_tot, C1, sc.u, sc.t,
                                sc.p, sc.sigma2)
        g1 = esr_gradient_phases_common(so, corr.C_L, corr.C_R, phi0 + shift,
                                        sc.sigma2)
        assert np.allclose(g1, g, atol=1e-9 * max(1.0, np.abs(g).max()))
        assert abs(np.sum(g)) < 1e-9 * np.abs(g).max()

    def test_zero_for_vanishing_cascade(self, rng):
        sc = random_scenario(rng, "common", M=10, K=3, L=6, sigma2=0.3)
        sc.t = np.zeros(3)
        corr = sc.correlations
        F, R, C, u, t, p = sc.stats_common(phi=np.zeros(6))
        sol = solve_rzf_common(F, R, C, u, t, 0.15, TIGHT)
        _, so = sinr_rzf_common(sol, F, R, C, u, t, p, sc.sigma2)
        g = esr_gradient_phases_common(so, corr.C_L, corr.C_R, np.zeros(6),
                                       sc.sigma2)
        assert np.all(g == 0.0)


class TestPhaseGradientUncommon:
    def _setup(self, seed, M=10, K=3, L=6):
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, "uncommon", M=M, K=K, L=L, sigma2=0.3)
        corr = sc.correlations
        z = sc.dims.K * sc.sigma2 / sc.dims.M
        phi0 = rng.uniform(0, 2 * np.pi, L)

        def esr(phi):
            F_list, R, C_list, p = sc.stats_uncommon(phi=phi)
            sol = solve_rzf_uncommon(F_list, R, C_list, z, TIGHT)
            return sinr_rzf_uncommon(sol, F_list, R, C_list, p, sc.sigma2)[0].esr

        F_list, R, C_list, p = sc.stats_uncommon(phi=phi0)
        sol = solve_rzf_uncommon(F_list, R, C_list, z, TIGHT)
        _, so = sinr_rzf_uncommon(sol, F_list, R, C_list, p, sc.sigma2)
        g = esr_gradient_phases_uncommon(so, C_list, corr.C_L,
                                         corr.c_r_list(K), sc.t, phi0, p,
                                         sc.sigma2)
        return sc, phi0, esr, g

    def test_matches_fd(self):
        for seed in (3, 4):
            sc, phi0, esr, g = self._setup(seed)
            dev = fd_tolerance_check(g, fd_gradient(esr, phi0, H_FD))
            assert dev < TOL, f"seed {seed}: deviation {dev}"

    def test_degenerates_to_common(self, rng):
        # F_k = u_k F, C_{R,k} = C_R: the per-user gradient equals the
        # shared-correlation gradient
        M, K, L = 12, 4, 8
        sc = random_scenario(rng, "common", M=M, K=K, L=L, sigma2=0.3)
        corr = sc.correlations
        z = K * sc.sigma2 / M
        phi0 = rng.uniform(0, 2 * np.pi, L)

        F, R, C, u, t, p = sc.stats_common(phi=phi0)
        sol_c = solve_rzf_common(F, R, C, u, t, z, TIGHT)
        _, so_c = sinr_rzf_common(sol_c, F, R, C, u, t, p, sc.sigma2)
        g_c = esr_gradient_phases_common(so_c, corr.C_L, corr.C_R, phi0,
                                         sc.sigma2)

        F_list, R2, C_list, _ = sc.stats_uncommon(phi=phi0)
        sol_u = solve_rzf_uncommon(F_list, R2, C_list, z, TIGHT)
        _, so_u = sinr_rzf_uncommon(sol_u, F_list, R2, C_list, p, sc.sigma2)
        g_u = esr_gradient_phases_uncommon(so_u, C_list, corr.C_L,
                                           corr.c_r_list(K), sc.t, phi0, p,
                                           sc.sigma2)
        assert np.max(np.abs(g_u - g_c)) < 1e-6 * max(1.0, np.abs(g_c).max())

    def test_zero_for_vanishing_cascade(self, rng):
        sc = random_scenario(rng, "uncommon", M=10, K=3, L=6, sigma2=0.3)
        sc.t = np.zeros(3)
        corr = sc.correlations
        F_list, R, C_list, p = sc.stats_uncommon(phi=np.zeros(6))
        sol = solve_rzf_uncommon(F_list, R, C_list, 0.15, TIGHT)
        _, so = sinr_rzf_uncommon(sol, F_list, R, C_list, p, sc.sigma2)
        g = esr_gradient_phases_uncommon(so, C_list, corr.C_L,
                                         corr.c_r_list(3), sc.t, np.zeros(6),
                                         p, sc.sigma2)
        assert np.all(g == 0.0)


class TestPhaseGradientZf:
    def test_matches_fd(self, rng):
        M, K, L = 12, 4, 8
        sc = random_scenario(rng, "common", M=M, K=K, L=L, sigma2=0.3)
        corr = sc.correlations
        CLroot = psd_sqrt(corr.C_L)
        phi0 = rng.uniform(0, 2 * np.pi, L)

        def esr(phi):
            Phi = phase_matrix(phi, L)
            C = herm(CLroot @ Phi @ corr.C_R @ Phi.conj().T @ CLroot)
            sol = solve_zf_common(corr.F_tot, corr.R_tot, C, sc.u, sc.t, TIGHT)
            return sinr_zf_common(sol, sc.u, sc.t, sc.p, sc.sigma2).esr

        Phi0 = phase_matrix(phi0, L)
        C0 = herm(CLroot @ Phi0 @ corr.C_R @ Phi0.conj().T @ CLroot)
        sol = solve_zf_common(corr.F_tot, corr.R_tot, C0, sc.u, sc.t, TIGHT)
        g = esr_gradient_phases_zf_common(sol, corr.F_tot, corr.R_tot,
                                          corr.C_L, corr.C_R, phi0, sc.u,
                                          sc.t, sc.p, sc.sigma2)
        dev = fd_tolerance_check(g, fd_gradient(esr, phi0, H_FD))
        assert dev < TOL


def emb(root, s):
    return herm((root * s[None, :]) @ root)


class TestPortGradients:
    def test_common_matches_fd(self, rng):
        M_tot, M, K, L = 14, 7, 3, 6
        sc = random_scenario(rng, "common", M=M, K=K, L=L, M_tot=M_tot,
                             sigma2=0.3)
        corr = sc.correlations
        Rh, Fh = psd_sqrt(corr.R_tot), psd_sqrt(corr.F_tot)
        C = corr.C_L.copy()
        s0 = rng.uniform(0.3, 0.9, M_tot)

        def esr(s):
            sol = solve_zf_common(emb(Fh, s), emb(Rh, s), C, sc.u, sc.t,
                                  TIGHT, m_norm=M)
            return sinr_zf_common(sol, sc.u, sc.t, sc.p, sc.sigma2).esr

        sol = solve_zf_common(emb(Fh, s0), emb(Rh, s0), C, sc.u, sc.t, TIGHT,
                              m_norm=M)
        g = esr_gradient_ports_zf_common(sol, Rh, Fh, emb(Rh, s0),
                                         emb(Fh, s0), C, sc.u, sc.t, sc.p,
                                         sc.sigma2)
        dev = fd_tolerance_check(g, fd_gradient(esr, s0, H_FD))
        assert dev < TOL

    def test_uncommon_matches_fd(self, rng):
        M_tot, M, K, L = 12, 6, 3, 6
        sc = random_scenario(rng, "uncommon", M=M, K=K, L=L, M_tot=M_tot,
                             sigma2=0.3)
        corr = sc.correlations
        Rh = psd_sqrt(corr.R_tot)
        F_roots = [np.sqrt(sc.u[k]) * psd_sqrt(corr.F_tot[k])
                   for k in range(K)]
        C_list = [sc.t[k] * corr.C_R[k] for k in range(K)]
        s0 = rng.uniform(0.3, 0.9, M_tot)

        def esr(s):
            F_embs = [emb(Fr, s) for Fr in F_roots]
            sol = solve_zf_uncommon(F_embs, emb(Rh, s), C_list, TIGHT,
                                    m_norm=M)
            return sinr_zf_uncommon(sol, sc.p, sc.sigma2).esr

        F_emb0 = [emb(Fr, s0) for Fr in F_roots]
        sol = solve_zf_uncommon(F_emb0, emb(Rh, s0), C_list, TIGHT, m_norm=M)
        g = esr_gradient_ports_zf_uncommon(sol, Rh, F_roots, emb(Rh, s0),
                                           F_emb0, C_list, sc.p, sc.sigma2)
        dev = fd_tolerance_check(g, fd_gradient(esr, s0, H_FD))
        assert dev < TOL

    def test_symmetric_ports_constant_gradient(self):
        # exchangeable ports: R_tot = a I + b 11^T makes every port
        # statistically identical, so the gradient is constant at uniform s
        M_tot, M, K, L = 10, 5, 3, 6
        rng = np.random.default_rng(8)
        R_tot = 0.6 * np.eye(M_tot) + 0.4 * np.ones((M_tot, M_tot))
        C = random_correlation(L, rng)
        u = rng.uniform(0.5, 1.5, K)
        t = rng.uniform(0.3, 0.9, K)
        p = np.ones(K)
        Rh = psd_sqrt(R_tot)
        s0 = np.full(M_tot, M / M_tot)
        sol = solve_zf_common(emb(Rh, s0), emb(Rh, s0), C, u, t, TIGHT,
                              m_norm=M)
        g = esr_gradient_ports_zf_common(sol, Rh, Rh, emb(Rh, s0),
                                         emb(Rh, s0), C, u, t, p, 0.3)
        assert np.ptp(g) < 1e-10 * abs(g).max()

    def test_diag3_matches_einsum(self, rng):
        n = 100
        root, mid = (rng.standard_normal((2, n, n))
                     + 1j * rng.standard_normal((2, n, n)))
        ref = np.real(np.einsum("ij,jk,ki->i", root, mid, root))
        assert np.max(np.abs(_diag3(root, mid) - ref)) \
            < 1e-12 * np.max(np.abs(ref))

    def test_gradient_nonnegative_homogeneous(self, rng):
        # more port weight never hurts the ZF rate of a homogeneous scenario
        M_tot, M, K, L = 12, 6, 3, 6
        sc = random_scenario(rng, "common", M=M, K=K, L=L, M_tot=M_tot,
                             sigma2=0.3)
        corr = sc.correlations
        Rh, Fh = psd_sqrt(corr.R_tot), psd_sqrt(corr.F_tot)
        C = corr.C_L.copy()
        for _ in range(3):
            s0 = rng.uniform(0.3, 0.9, M_tot)
            sol = solve_zf_common(emb(Fh, s0), emb(Rh, s0), C, sc.u, sc.t,
                                  TIGHT, m_norm=M)
            g = esr_gradient_ports_zf_common(sol, Rh, Fh, emb(Rh, s0),
                                             emb(Fh, s0), C, sc.u, sc.t,
                                             sc.p, sc.sigma2)
            assert np.all(g >= -1e-10)


@pytest.mark.parametrize("regime,precoder", [("common", "rzf"),
                                             ("uncommon", "rzf"),
                                             ("common", "zf")])
def test_phase_gradients_take_no_new_root(rng, eigh_calls, regime,
                                          precoder):
    # the optimizer's phase objective passes CorrelationSet.root, so after
    # the first evaluation no gradient takes the C_L square root again
    from fasris.optimize import _phase_objective
    sc = random_scenario(rng, regime, M=10, K=3, L=6, sigma2=0.3)
    z = sc.default_z() if precoder == "rzf" else None
    _, value_grad = _phase_objective(sc, None, precoder, z, SolverSettings())
    phi = rng.uniform(0, 2 * np.pi, 6)
    value_grad(phi)
    eigh_calls.clear()
    value_grad(phi + 0.1)
    assert not eigh_calls


# ---------------------------------------------------------------------------
# the shared phase gradients against their per-l loops
# ---------------------------------------------------------------------------

def _tr2(A, B):
    return float(np.real(np.sum(A * B.T)))


def _loop_sinr_chain(gam, Dk, p, mu, mu_, Psi_kl, Psi_kl_, Cbar, Cbar_,
                     sigma2, L):
    one_mu = 1.0 + mu
    W = Psi_kl_ / (L * one_mu[None, :] ** 2) \
        - 2.0 * Psi_kl * mu_[None, :] / (L * one_mu[None, :] ** 3)
    interf_ = W @ p - np.diag(W) * p
    Dk_ = interf_ + sigma2 * (2.0 * one_mu * mu_ * Cbar + one_mu ** 2 * Cbar_)
    gam_ = p * (2.0 * mu * mu_ * Dk - mu ** 2 * Dk_) / Dk ** 2
    return float(np.sum(gam_ / (1.0 + gam)) / np.log(2.0))


def _loop_phases_common(so, C_L, C_R, phi, sigma2):
    """The shared RZF phase gradient as one pass per RIS element."""
    from fasris.rates import _checked, rzf_sinr
    sol = so.sol
    u, t, p = so.u, so.t, so.p
    F, R, C = so.F, so.R, so.C
    M = sol.m_norm
    L = C.shape[0]
    delta, omega, omega_bar = sol.delta, sol.omega, sol.omega_bar
    Psi_R, Psi_C, psi_T = sol.Psi_R, sol.Psi_C, sol.psi_T
    CL_root = psd_sqrt(C_L, "C_L")
    mu = sol.mu_k(u, t)
    gam, Dk = rzf_sinr(so.Psi_kl, so.Cbar, mu, p, sigma2, L)
    RP = R @ Psi_R
    FP = F @ Psi_R
    CP = C @ Psi_C
    PCC = Psi_C @ CP
    Psi_C2 = Psi_C @ Psi_C
    a = L * omega * omega_bar / (M * delta ** 2)
    tt = np.outer(t, t)
    tu = np.outer(t, u)
    uu = np.outer(u, u)
    solve_pi = _checked(so.Pi_com, "Pi_com")

    grad = np.zeros(len(phi))
    for l in range(len(phi)):
        A_l = phase_perturbation(CL_root, C_R, phi, l)
        U_Al = _tr2(A_l, Psi_C) / L - omega_bar * _tr2(A_l, PCC) / L
        d_, k_, o_ = solve_pi(np.array([0.0, 0.0, U_Al]))
        kb_ = -(k_ * so.eta_UU + o_ * so.eta_TU)
        ob_ = -(k_ * so.eta_TU + o_ * so.eta_TT)
        dPsiR_inv = (L / M) * ((o_ * omega_bar + omega * ob_) / delta
                               - omega * omega_bar * d_ / delta ** 2) * R \
            + (L / M) * kb_ * F
        PsiR_ = -Psi_R @ dPsiR_inv @ Psi_R
        dPsiC_inv = (-d_ / delta ** 2) * np.eye(L) + ob_ * C + omega_bar * A_l
        PsiC_ = -Psi_C @ dPsiC_inv @ Psi_C
        psiT_ = -(o_ * t + k_ * u) * psi_T ** 2
        RP_ = R @ PsiR_
        FP_ = F @ PsiR_
        chi_RR_ = (_tr2(RP_, RP) + _tr2(RP, RP_)) / M
        chi_RF_ = (_tr2(RP_, FP) + _tr2(RP, FP_)) / M
        chi_FF_ = (_tr2(FP_, FP) + _tr2(FP, FP_)) / M
        chi_RI_ = (_tr2(RP_, Psi_R) + _tr2(RP, PsiR_)) / M
        chi_FI_ = (_tr2(FP_, Psi_R) + _tr2(FP, PsiR_)) / M

        def eta_(a_vec, b_vec):
            return 2.0 * float(np.sum(a_vec * b_vec * psi_T * psiT_)) / L

        eta_TT_, eta_TU_, eta_UU_ = eta_(t, t), eta_(t, u), eta_(u, u)
        eta_PT_, eta_PU_ = eta_(p, t), eta_(p, u)
        CP_ = A_l @ Psi_C + C @ PsiC_
        Xi_ = 2.0 * _tr2(CP_, CP) / L
        Xi_I_ = (_tr2(A_l, Psi_C2) + 2.0 * _tr2(CP, PsiC_)) / L
        Delta_ = -Xi_ * so.eta_TT - so.Xi * eta_TT_
        a_ = (L / (M * delta ** 2)) * (o_ * omega_bar + omega * ob_) \
            - 2.0 * a * d_ / delta
        w_omega = omega_bar - omega * so.eta_TT
        w_omega_ = ob_ - o_ * so.eta_TT - omega * eta_TT_

        def ups_(chi_RA, chi_FA, chi_RA_, chi_FA_):
            return (L / M) * ((o_ / delta - omega * d_ / delta ** 2)
                              * chi_RA * so.eta_TU
                              + (omega / delta) * (chi_RA_ * so.eta_TU
                                                   + chi_RA * eta_TU_)) \
                + (L / M) * (chi_FA_ * so.eta_UU + chi_FA * eta_UU_)

        def lam_(chi_RA, chi_FA, chi_RA_, chi_FA_):
            return (L / M) * (chi_FA_ * so.eta_TU + chi_FA * eta_TU_) \
                - (L / M) * (-d_ / delta ** 2 * chi_RA * w_omega
                             + chi_RA_ * w_omega / delta
                             + chi_RA * w_omega_ / delta)

        Pi_ = np.array([
            [-(a_ * so.chi_RR + a * chi_RR_),
             -ups_(so.chi_RR, so.chi_RF, chi_RR_, chi_RF_),
             -lam_(so.chi_RR, so.chi_RF, chi_RR_, chi_RF_)],
            [-(a_ * so.chi_RF + a * chi_RF_),
             -ups_(so.chi_RF, so.chi_FF, chi_RF_, chi_FF_),
             -lam_(so.chi_RF, so.chi_FF, chi_RF_, chi_FF_)],
            [-(Xi_I_ / delta ** 2 - 2.0 * so.Xi_I * d_ / delta ** 3),
             -(Xi_ * so.eta_TU + so.Xi * eta_TU_),
             -(Xi_ * so.eta_TT + so.Xi * eta_TT_)],
        ])
        x_R_ = solve_pi(np.array([chi_RR_, chi_RF_, 0.0]) - Pi_ @ so.x_R)
        x_F_ = solve_pi(np.array([chi_RF_, chi_FF_, 0.0]) - Pi_ @ so.x_F)
        x_I_ = solve_pi(np.array([chi_RI_, chi_FI_, 0.0]) - Pi_ @ so.x_I)
        lam_zz_ = ((Xi_ + (L / M) * (Xi_ * so.eta_TU * so.x_F[2]
                                     + so.Xi * eta_TU_ * so.x_F[2]
                                     + so.Xi * so.eta_TU * x_F_[2])
                    + (L / M) * (Xi_I_ * so.x_R[2] / delta ** 2
                                 + so.Xi_I * x_R_[2] / delta ** 2
                                 - 2.0 * so.Xi_I * so.x_R[2] * d_ / delta ** 3))
                   - so.lam_zz * Delta_) / so.Delta
        Psi_kl_ = tt * lam_zz_ + (L / M) * (tu.T + tu) * x_F_[2] \
            + (L / M) * uu * x_F_[1]
        Cbar_ = (L / M) * (eta_PT_ * so.x_I[2] + so.eta_PT * x_I_[2]
                           + eta_PU_ * so.x_I[1] + so.eta_PU * x_I_[1])
        mu_ = t * o_ + u * k_
        grad[l] = _loop_sinr_chain(gam, Dk, p, mu, mu_, so.Psi_kl, Psi_kl_,
                                   so.Cbar, Cbar_, sigma2, L)
    return grad


def _loop_phases_zf_common(sol, F, R, C_L, C_R, phi, u, t, p, sigma2):
    """The shared ZF phase gradient with one trace pair per RIS element."""
    from fasris.gradients import _zf_chain
    from fasris.rates import _solve_checked, common_pi
    L = len(phi)
    CL_root = psd_sqrt(C_L, "C_L")
    Phi = phase_matrix(phi, L)
    C = herm(CL_root @ Phi @ C_R @ Phi.conj().T @ CL_root)
    Pi = common_pi(F, R, C, u, t, sol).Pi_com
    Psi_C = sol.Psi_C
    PCC = Psi_C @ (C @ Psi_C)
    U = np.empty(L)
    for l in range(L):
        A_l = phase_perturbation(CL_root, C_R, phi, l)
        U[l] = (_tr2(A_l, Psi_C) - sol.omega_bar * _tr2(A_l, PCC)) / L
    _, k_, o_ = _solve_checked(Pi, np.array([0.0, 0.0, 1.0]), "Pi_com(zf)")
    return _zf_chain(p, sol.mu_k(u, t), np.outer(u * k_ + t * o_, U),
                     sol.m_norm, sigma2)


def _shared_case(case):
    """(scenario, selection, phases) of one shared-regime oracle case."""
    from fasris.scenarios import fig3_scenario
    rng = np.random.default_rng(31)
    if case == "fig3":
        sc, M = fig3_scenario(80.0)
        s = np.zeros(sc.correlations.R_tot.shape[0])
        s[rng.choice(len(s), M, replace=False)] = 1.0
        return sc, s, rng.uniform(0, 2 * np.pi, sc.dims.L)
    sc = random_scenario(rng, "common", M=10, K=4, L=7, sigma2=0.3)
    if case == "F=R":
        sc.correlations.F_tot = sc.correlations.R_tot.copy()
    return sc, None, rng.uniform(0, 2 * np.pi, 7)


class TestPhaseGradientsAgainstLoopOracle:
    @pytest.mark.parametrize("case", ["fig3", "F=R", "F!=R"])
    def test_rzf(self, case):
        from fasris.optimize import _evaluate, _stats
        sc, s, phi = _shared_case(case)
        stats, shared = _stats(sc, s, phi)
        assert shared and np.array_equal(stats[0], stats[1]) == (case != "F!=R")
        _, so, _ = _evaluate(stats, shared, "rzf", sc.default_z(s), sc.sigma2,
                             SolverSettings())
        corr = sc.correlations
        g = esr_gradient_phases_common(so, corr.C_L, corr.C_R, phi, sc.sigma2)
        ref = _loop_phases_common(so, corr.C_L, corr.C_R, phi, sc.sigma2)
        assert np.abs(g - ref).max() < 1e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("case", ["fig3", "F=R", "F!=R"])
    def test_zf(self, case):
        sc, s, phi = _shared_case(case)
        F, R, C, u, t, p = sc.stats_common(s, phi)
        sol = solve_zf_common(F, R, C, u, t)
        corr = sc.correlations
        args = (sol, F, R, corr.C_L, corr.C_R, phi, u, t, p, sc.sigma2)
        g = esr_gradient_phases_zf_common(*args)
        ref = _loop_phases_zf_common(*args)
        assert np.abs(g - ref).max() < 1e-10 * np.abs(ref).max()


def _loop_interference_rhs_prime(so, mu_, d_, om_, Xi_, chi_FF_, chi_FR_,
                                 chi_RR_, M, L):
    """Derivative of the interference RHS, one user column at a time."""
    sol = so.sol
    K = len(so.F)
    mu, omega, delta = sol.mu, sol.omega, sol.delta
    one_mu = 1.0 + mu
    B_ = np.zeros((K + 1, K))
    for l in range(K):
        e_om = -so.Xi[:, l] / (L * one_mu[l])
        e_om[l] += omega[l]
        e_om_ = -Xi_[:, l] / (L * one_mu[l]) \
            + so.Xi[:, l] * mu_[l] / (L * one_mu[l] ** 2)
        e_om_[l] += om_[l]
        S_l = np.sum(e_om / (M * delta * one_mu))
        S_l_ = np.sum(e_om_ / (M * delta * one_mu)
                      + e_om * (-d_ / (M * delta ** 2 * one_mu)
                                - mu_ / (M * delta * one_mu ** 2)))
        B_[:K, l] = e_om_ - chi_FF_[:, l] / (M * one_mu[l]) \
            + so.chi_FF[:, l] * mu_[l] / (M * one_mu[l] ** 2) \
            - (chi_FR_ * S_l + so.chi_FR * S_l_)
        B_[l, l] += mu_[l] - om_[l]
        B_[K, l] = -chi_FR_[l] / (M * one_mu[l]) \
            + so.chi_FR[l] * mu_[l] / (M * one_mu[l] ** 2) \
            - (chi_RR_ * S_l + so.chi_RR * S_l_)
    return B_


@pytest.mark.parametrize("case", ["cascaded", "t0", "K9"])
def test_interference_rhs_prime_matches_per_user_loop(case):
    from fasris.gradients import _uncommon_interference_rhs_prime
    from fasris.rates import second_order_uncommon
    rng = np.random.default_rng(43)
    K = 9 if case == "K9" else 4
    sc = random_scenario(rng, "uncommon", M=12, K=K, L=8, sigma2=0.4)
    if case == "t0":
        sc.t = np.zeros(K)
    F, R, C, p = sc.stats_uncommon(phi=rng.uniform(0, 2 * np.pi, 8))
    so = second_order_uncommon(F, R, C, p, solve_rzf_uncommon(F, R, C, 0.2))
    # arbitrary directions: the RHS derivative is linear in them
    args = (rng.normal(size=K), rng.normal(), rng.normal(size=K),
            rng.normal(size=(K, K)), rng.normal(size=(K, K)),
            rng.normal(size=K), rng.normal(), so.sol.m_norm, 8)
    got = _uncommon_interference_rhs_prime(so, *args)
    ref = _loop_interference_rhs_prime(so, *args)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_phase_perturbation_of_a_stack_is_the_stack_of_perturbations(rng):
    L, K = 7, 3
    CL_root = psd_sqrt(random_correlation(L, rng))
    C_R = np.stack([random_correlation(L, rng) for _ in range(K)])
    phi = rng.uniform(0, 2 * np.pi, L)
    for l in (0, 3, L - 1):
        got = phase_perturbation(CL_root, C_R, phi, l)
        ref = np.stack([phase_perturbation(CL_root, CR, phi, l) for CR in C_R])
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
