"""Analytic derivatives of the deterministic ESR.

Phase-shift gradients for the RZF rate (shared and per-user correlation)
and the ZF rate, plus port-selection gradients of the ZF rate through the
relaxed diag(s) embedding. The scalar sensitivities come from implicit
differentiation of the fixed-point systems (the same Pi / Pi_com matrices
used by the interference blocks); the rest is chain rule through the
second-order terms. Every path is pinned to central finite differences of
the full rate evaluation in the test suite, which is the arbiter whenever
a printed formula and the chain rule disagree.

Rates are in bits, so every gradient carries a 1/ln(2).
"""

from __future__ import annotations

import numpy as np

from .channel import herm, phase_matrix, psd_sqrt
from .fixed_point import ZfCommonSolution, ZfUncommonSolution
from .rates import (SecondOrderCommon, SecondOrderUncommon, _checked,
                    _solve_checked, common_pi, rzf_sinr, uncommon_pi)

LN2 = np.log(2.0)


# ---------------------------------------------------------------------------
# phase-shift perturbation matrices
# ---------------------------------------------------------------------------

def gradient_G_l(phi: np.ndarray, l: int) -> np.ndarray:
    """Entry-wise phase derivative pattern of Phi C Phi^H at angle l.

    Row l holds j e^{j(phi_l - phi_q)}, column l holds -j e^{j(phi_p - phi_l)},
    the diagonal (where the two cases collide) is 0. Hermitian.
    """
    L = len(phi)
    G = np.zeros((L, L), dtype=complex)
    G[l, :] = 1j * np.exp(1j * (phi[l] - phi))
    G[:, l] = -1j * np.exp(1j * (phi - phi[l]))
    G[l, l] = 0.0
    return G


def phase_perturbation(CL_root: np.ndarray, C_R: np.ndarray, phi: np.ndarray,
                       l: int) -> np.ndarray:
    """dC/dphi_l for C = C_L^{1/2} Phi C_R Phi^H C_L^{1/2}.

    Equals C_L^{1/2} (G_l o C_R) C_L^{1/2} with o the entry-wise product;
    G_l o C_R is supported on row/column l only, so the result is the
    Hermitian rank-<=2 matrix w s^T + (w s^T)^H.
    """
    b = 1j * np.exp(1j * (phi[l] - phi)) * C_R[l, :]
    b[l] = 0.0
    w = CL_root[:, l]
    s = CL_root.T @ b
    ws = np.outer(w, s)
    return ws + ws.conj().T


def _tr2(A: np.ndarray, B: np.ndarray) -> float:
    """Re tr(A B) via a flat dot; A, B square."""
    return float(np.real(np.sum(A * B.T)))


def _phase_traces(CL_root: np.ndarray, C_R: np.ndarray, phi: np.ndarray,
                  Xs: list[np.ndarray]) -> np.ndarray:
    """tr(A_l X) for every l and every Hermitian X in Xs, (len(Xs), L).

    A_l = dC/dphi_l = w_l s_l^T + h.c. (`phase_perturbation`): w_l is column
    l of C_L^{1/2} and s_l^T row l of B C_L^{1/2}, with B[l, q] =
    j e^{j(phi_l - phi_q)} C_R[l, q] off the diagonal. So tr(A_l X) =
    2 Re(s_l^T X w_l), and one product per X gives every l.
    """
    B = 1j * np.exp(1j * (phi[:, None] - phi[None, :])) * C_R
    np.fill_diagonal(B, 0.0)
    return 2.0 * np.real(np.sum(((B @ CL_root) @ np.asarray(Xs))
                                * CL_root.T, axis=-1))


# ---------------------------------------------------------------------------
# shared-correlation phase gradient (RZF)
# ---------------------------------------------------------------------------

def esr_gradient_phases_common(so: SecondOrderCommon, C_L: np.ndarray,
                               C_R: np.ndarray, phi: np.ndarray,
                               sigma2: float, root=psd_sqrt) -> np.ndarray:
    """d ESR_RZF / d phi_l, shared-correlation regime (bits); `root` takes
    C_L^{1/2}, as in effective_ris_correlation.

    Every l at once: tr(A_l X) comes from `_phase_traces`, dPsi_R^{-1} =
    alpha_l R + beta_l F makes the chi derivatives linear in (alpha_l,
    beta_l), and each Pi_com solve takes one column per l.
    """
    sol = so.sol
    u, t, p = so.u, so.t, so.p
    F, R, C = so.F, so.R, so.C
    M = sol.m_norm
    L = C.shape[0]
    delta, omega, omega_bar = sol.delta, sol.omega, sol.omega_bar
    Psi_R, Psi_C, psi_T = sol.Psi_R, sol.Psi_C, sol.psi_T

    if delta == 0.0 or omega_bar == 0.0:
        return np.zeros(len(phi))          # no cascaded link: rate ignores Phi

    mu = sol.mu_k(u, t)
    gam, Dk = rzf_sinr(so.Psi_kl, so.Cbar, mu, p, sigma2, L)
    a = L * omega * omega_bar / (M * delta ** 2)
    tt = np.outer(t, t)
    tu = np.outer(t, u)
    uu = np.outer(u, u)
    solve_pi = _checked(so.Pi_com, "Pi_com")
    zero = np.zeros(len(phi))

    # Psi_C and C commute, so every product of them is Hermitian; with
    # dPsi_C = (d_/delta^2) Psi_C^2 - ob_ PCC - omega_bar Psi_C A_l Psi_C,
    # the A_l terms of d omega, dXi and dXi_I are traces against A_l
    CP = C @ Psi_C
    PCC = Psi_C @ CP                        # Psi_C C Psi_C
    Psi_C2 = Psi_C @ Psi_C
    CPC = CP @ C                            # C Psi_C C
    U_A, Xi_A, Xi_I_A = _phase_traces(root(C_L, "C_L"), C_R, phi, [
        Psi_C - omega_bar * PCC, PCC - omega_bar * (PCC @ CP),
        Psi_C2 - 2.0 * omega_bar * (PCC @ Psi_C)]) / L
    d_, k_, o_ = solve_pi(np.array([zero, zero, U_A]))
    kb_ = -(k_ * so.eta_UU + o_ * so.eta_TU)
    ob_ = -(k_ * so.eta_TU + o_ * so.eta_TT)

    # d/dphi tr(X Psi_R Y Psi_R)/M for X, Y in (R, F, I), with dPsi_R =
    # -(alpha Psi_R R Psi_R + beta Psi_R F Psi_R); T[a, b, c] = Re tr(P_a P_b P_c)
    alpha = (L / M) * ((o_ * omega_bar + omega * ob_) / delta
                       - omega * omega_bar * d_ / delta ** 2)
    beta = (L / M) * kb_
    P = np.stack([R @ Psi_R, F @ Psi_R, Psi_R])
    T = np.real(np.einsum("abij,cji->abc", P[:, None] @ P[None], P))

    def chi_(x, y):
        return -(alpha * (T[x, 0, y] + T[x, y, 0])
                 + beta * (T[x, 1, y] + T[x, y, 1])) / M

    chi_RR_, chi_RF_, chi_FF_ = chi_(0, 0), chi_(0, 1), chi_(1, 1)
    chi_RI_, chi_FI_ = chi_(0, 2), chi_(1, 2)

    psiT_ = -(np.outer(o_, t) + np.outer(k_, u)) * psi_T ** 2

    def eta_(a_vec, b_vec):
        return 2.0 * psiT_ @ (a_vec * b_vec * psi_T) / L

    eta_TT_, eta_TU_, eta_UU_ = eta_(t, t), eta_(t, u), eta_(u, u)
    eta_PT_, eta_PU_ = eta_(p, t), eta_(p, u)

    Xi_ = 2.0 * (Xi_A + (d_ / delta ** 2 * _tr2(Psi_C2, CPC)
                         - ob_ * _tr2(PCC, CPC)) / L)
    Xi_I_ = Xi_I_A + 2.0 * (d_ / delta ** 2 * _tr2(Psi_C2, CP)
                            - ob_ * _tr2(PCC, CP)) / L
    Delta_ = -Xi_ * so.eta_TT - so.Xi * eta_TT_

    # entry-wise derivative of Pi_com
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

    Pi_ = np.moveaxis(np.array([
        [-(a_ * so.chi_RR + a * chi_RR_),
         -ups_(so.chi_RR, so.chi_RF, chi_RR_, chi_RF_),
         -lam_(so.chi_RR, so.chi_RF, chi_RR_, chi_RF_)],
        [-(a_ * so.chi_RF + a * chi_RF_),
         -ups_(so.chi_RF, so.chi_FF, chi_RF_, chi_FF_),
         -lam_(so.chi_RF, so.chi_FF, chi_RF_, chi_FF_)],
        [-(Xi_I_ / delta ** 2 - 2.0 * so.Xi_I * d_ / delta ** 3),
         -(Xi_ * so.eta_TU + so.Xi * eta_TU_),
         -(Xi_ * so.eta_TT + so.Xi * eta_TT_)],
    ]), -1, 0)                              # (L, 3, 3)

    x_R_ = solve_pi(np.array([chi_RR_, chi_RF_, zero]) - (Pi_ @ so.x_R).T)
    x_F_ = solve_pi(np.array([chi_RF_, chi_FF_, zero]) - (Pi_ @ so.x_F).T)
    x_I_ = solve_pi(np.array([chi_RI_, chi_FI_, zero]) - (Pi_ @ so.x_I).T)

    lam_zz_ = ((Xi_ + (L / M) * (Xi_ * so.eta_TU * so.x_F[2]
                                 + so.Xi * eta_TU_ * so.x_F[2]
                                 + so.Xi * so.eta_TU * x_F_[2])
                + (L / M) * (Xi_I_ * so.x_R[2] / delta ** 2
                             + so.Xi_I * x_R_[2] / delta ** 2
                             - 2.0 * so.Xi_I * so.x_R[2] * d_ / delta ** 3))
               - so.lam_zz * Delta_) / so.Delta
    Psi_kl_ = tt * lam_zz_[:, None, None] \
        + (L / M) * (tu.T + tu) * x_F_[2][:, None, None] \
        + (L / M) * uu * x_F_[1][:, None, None]
    Cbar_ = (L / M) * (eta_PT_ * so.x_I[2] + so.eta_PT * x_I_[2]
                       + eta_PU_ * so.x_I[1] + so.eta_PU * x_I_[1])

    mu_ = np.outer(o_, t) + np.outer(k_, u)
    return _sinr_chain(gam, Dk, p, mu, mu_, so.Psi_kl, Psi_kl_,
                       so.Cbar, Cbar_, sigma2, L)


def _sinr_chain(gam, Dk, p, mu, mu_, Psi_kl, Psi_kl_, Cbar, Cbar_, sigma2, L):
    """Quotient rule through gamma_k = p_k mu_k^2 / D_k, summed into dESR
    (bits); mu_, Psi_kl_, Cbar_ and the result may lead with an axis of l."""
    one_mu = 1.0 + mu
    W = Psi_kl_ / (L * one_mu ** 2) \
        - 2.0 * Psi_kl * mu_[..., None, :] / (L * one_mu ** 3)
    interf_ = W @ p - np.diagonal(W, axis1=-2, axis2=-1) * p
    Dk_ = interf_ + sigma2 * (2.0 * one_mu * mu_ * Cbar
                              + one_mu ** 2 * np.asarray(Cbar_)[..., None])
    gam_ = p * (2.0 * mu * mu_ * Dk - mu ** 2 * Dk_) / Dk ** 2
    return np.sum(gam_ / (1.0 + gam), axis=-1) / LN2


# ---------------------------------------------------------------------------
# per-user-correlation phase gradient (RZF)
# ---------------------------------------------------------------------------

def esr_gradient_phases_uncommon(so: SecondOrderUncommon,
                                 C_list: list[np.ndarray], C_L: np.ndarray,
                                 C_R_list: list[np.ndarray], t: np.ndarray,
                                 phi: np.ndarray, p: np.ndarray,
                                 sigma2: float, root=psd_sqrt) -> np.ndarray:
    """d ESR_RZF / d phi_l, per-user-correlation regime (bits)."""
    sol = so.sol
    F_list, R = so.F_list, so.R
    K = len(F_list)
    M = sol.m_norm
    L = C_L.shape[0]
    mu, omega, delta = sol.mu, sol.omega, sol.delta
    Psi_R, Psi_C = sol.Psi_R, sol.Psi_C
    t = np.asarray(t, dtype=float)
    p = np.asarray(p, dtype=float)

    if delta == 0.0 or np.all(t == 0.0):
        return np.zeros(len(phi))

    CL_root = root(C_L, "C_L")
    one_mu = 1.0 + mu
    one_mu2 = one_mu ** 2
    gam, Dk = rzf_sinr(so.Psi_kl, so.Cbar, mu, p, sigma2, L)

    # l-independent pieces
    E, ER, D = so.E, so.ER, so.D                       # F_k Psi_R, R Psi_R, C_k Psi_C
    P2 = np.einsum("ij,kjl->kil", Psi_C, D)            # Psi_C C_k Psi_C
    Psi_C2 = Psi_C @ Psi_C
    dinv = 1.0 / delta
    dinv2 = dinv * dinv
    solve_pi = _checked(so.Pi, "Pi")

    grad = np.zeros(len(phi))
    for l in range(len(phi)):
        A = np.stack([t[k] * phase_perturbation(CL_root, C_R_list[k], phi, l)
                      for k in range(K)])               # dC_k/dphi_l

        # explicit part of each omega_m
        trAP = np.real(np.einsum("kij,ji->k", A, Psi_C)) / L
        trP2A = np.real(np.einsum("mij,kji->mk", P2, A)) / L   # tr(A_k Psi_C C_m Psi_C)/L
        e_om = trAP - np.sum(trP2A / one_mu[None, :], axis=1) / L
        S = float(np.sum(e_om / (M * delta * one_mu)))

        n = np.empty(K + 1)
        n[:K] = e_om - so.chi_FR * S
        n[K] = -so.chi_RR * S
        w_sol = solve_pi(n)
        mu_, d_ = w_sol[:K], w_sol[K]

        om_ = e_om + so.Xi_I * d_ * dinv2 + (so.Xi / (L * one_mu2[None, :])) @ mu_

        dPsiR_inv = np.einsum("k,kij->ij", -mu_ / (M * one_mu2), np.stack(F_list))
        coefR = np.sum(om_ / (delta * one_mu) - omega * d_ / (delta ** 2 * one_mu)
                       - omega * mu_ / (delta * one_mu2)) / M
        dPsiR_inv = dPsiR_inv + coefR * R
        PsiR_ = -Psi_R @ dPsiR_inv @ Psi_R

        dPsiC_inv = (-d_ * dinv2) * np.eye(L) \
            + np.einsum("k,kij->ij", 1.0 / (L * one_mu), A) \
            - np.einsum("k,kij->ij", mu_ / (L * one_mu2), np.stack(C_list))
        PsiC_ = -Psi_C @ dPsiC_inv @ Psi_C

        E_ = np.einsum("kij,jl->kil", np.stack(F_list), PsiR_)
        ER_ = R @ PsiR_
        chi_FF_ = np.real(np.einsum("kij,lji->kl", E_, E)
                          + np.einsum("kij,lji->kl", E, E_)) / M
        chi_FR_ = np.real(np.einsum("kij,ji->k", E_, ER)
                          + np.einsum("kij,ji->k", E, ER_)) / M
        chi_RR_ = 2.0 * np.real(np.einsum("ij,ji->", ER_, ER)) / M
        chi_FI_ = np.real(np.einsum("kij,ji->k", E_, Psi_R)
                          + np.einsum("kij,ji->k", E, PsiR_)) / M
        chi_RI_ = float(np.real(np.einsum("ij,ji->", ER_, Psi_R)
                                + np.einsum("ij,ji->", ER, PsiR_)) / M)

        D_ = np.einsum("kij,jl->kil", A, Psi_C) \
            + np.einsum("kij,jl->kil", np.stack(C_list), PsiC_)
        Xi_ = np.real(np.einsum("kij,lji->kl", D_, D)
                      + np.einsum("kij,lji->kl", D, D_)) / L
        Xi_I_ = np.real(np.einsum("kij,ji->k", D_, Psi_C)
                        + np.einsum("kij,ji->k", D, PsiC_)) / L

        Pi_ = _uncommon_pi_prime(so, mu_, d_, om_, chi_FF_, chi_FR_, chi_RR_,
                                 Xi_, Xi_I_, M, L)

        ups_I_ = solve_pi(np.concatenate([chi_FI_, [chi_RI_]]) - Pi_ @ so.ups_I)
        Cbar_ = float(np.sum(p * (ups_I_[:K] / one_mu2
                                  - 2.0 * so.ups_I[:K] * mu_ / one_mu ** 3)) / M)

        B_ = _uncommon_interference_rhs_prime(so, mu_, d_, om_, Xi_, Xi_I_,
                                        chi_FF_, chi_FR_, chi_RR_, M, L)
        W_ = solve_pi(B_ - Pi_ @ so.W)
        W_adj = so.W[:K, :].copy()
        W_adj[np.diag_indices(K)] -= mu
        W_adj_ = W_[:K, :].copy()
        W_adj_[np.diag_indices(K)] -= mu_
        Psi_kl_ = -L * (2.0 * one_mu * mu_)[None, :] * W_adj \
            - L * one_mu2[None, :] * W_adj_

        grad[l] = _sinr_chain(gam, Dk, p, mu, mu_, so.Psi_kl, Psi_kl_,
                              so.Cbar, Cbar_, sigma2, L)
    return grad


def _uncommon_pi_prime(so, mu_, d_, om_, chi_FF_, chi_FR_, chi_RR_, Xi_, Xi_I_,
                       M, L):
    sol = so.sol
    K = len(so.F_list)
    mu, omega, delta = sol.mu, sol.omega, sol.delta
    one_mu = 1.0 + mu
    one_mu2 = one_mu ** 2
    c = 1.0 / one_mu2
    c_ = -2.0 * mu_ / one_mu ** 3
    dinv2 = 1.0 / delta ** 2
    dinv2_ = -2.0 * d_ / delta ** 3

    Pi_ = np.zeros((K + 1, K + 1))
    core = so.Xi_I[None, :] * dinv2 * so.chi_FR[:, None] + so.chi_FF
    core_ = (Xi_I_[None, :] * dinv2 + so.Xi_I[None, :] * dinv2_) \
        * so.chi_FR[:, None] + so.Xi_I[None, :] * dinv2 * chi_FR_[:, None] + chi_FF_
    Pi_[:K, :K] = -(Xi_ * c[None, :] + so.Xi * c_[None, :]) / L \
        - (core_ * c[None, :] + core * c_[None, :]) / M
    coreR = so.Xi_I * dinv2 * so.chi_RR + so.chi_FR
    coreR_ = (Xi_I_ * dinv2 + so.Xi_I * dinv2_) * so.chi_RR \
        + so.Xi_I * dinv2 * chi_RR_ + chi_FR_
    Pi_[K, :K] = -(coreR_ * c + coreR * c_) / M

    wI = (omega - so.Xi_I / delta) / (M * delta ** 2 * one_mu)
    wI_ = (om_ - Xi_I_ / delta + so.Xi_I * d_ / delta ** 2) \
        / (M * delta ** 2 * one_mu) \
        + (omega - so.Xi_I / delta) * (-2.0 * d_ / (M * delta ** 3 * one_mu)
                                       - mu_ / (M * delta ** 2 * one_mu2))
    sw, sw_ = np.sum(wI), np.sum(wI_)
    Pi_[:K, K] = -Xi_I_ * dinv2 - so.Xi_I * dinv2_ \
        - (sw_ * so.chi_FR + sw * chi_FR_)
    Pi_[K, K] = -(sw_ * so.chi_RR + sw * chi_RR_)
    return Pi_


def _uncommon_interference_rhs_prime(so, mu_, d_, om_, Xi_, Xi_I_, chi_FF_, chi_FR_,
                               chi_RR_, M, L):
    sol = so.sol
    K = len(so.F_list)
    mu, omega, delta = sol.mu, sol.omega, sol.delta
    one_mu = 1.0 + mu
    B_ = np.zeros((K + 1, K))
    for l in range(K):
        e_om = -so.Xi[:, l] / (L * one_mu[l])
        e_om[l] += omega[l]
        e_om_ = -Xi_[:, l] / (L * one_mu[l]) + so.Xi[:, l] * mu_[l] / (L * one_mu[l] ** 2)
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


# ---------------------------------------------------------------------------
# ZF gradients: the Pi systems of rates.py at the ZF point
# ---------------------------------------------------------------------------

def _zf_chain(p, mu, mu_d, M, sigma2) -> np.ndarray:
    """Quotient rule through gamma_k = p_k / (sigma^2 sum_l p_l / (M mu_l)),
    summed into dESR (bits); column i of mu_d holds d mu / d x_i."""
    SS = float(np.sum(p / (M * mu)))
    gam = p / (sigma2 * SS)
    SS_d = -np.einsum("k,ki->i", p / (M * mu ** 2), mu_d)
    gam_d = -np.outer(gam / SS, SS_d)
    return np.einsum("ki,k->i", gam_d, 1.0 / (1.0 + gam)) / LN2


def esr_gradient_phases_zf_common(sol: ZfCommonSolution, F, R, C_L, C_R,
                                  phi, u, t, p, sigma2,
                                  root=psd_sqrt) -> np.ndarray:
    """d ESR_ZF / d phi_l, shared correlation (bits)."""
    u = np.asarray(u, dtype=float)
    t = np.asarray(t, dtype=float)
    p = np.asarray(p, dtype=float)
    L = len(phi)
    if sol.delta_u == 0.0 or sol.omega_bar_u == 0.0 or np.all(t == 0.0):
        return np.zeros(L)
    CL_root = root(C_L, "C_L")
    Phi = phase_matrix(phi, L)
    C = herm(CL_root @ Phi @ C_R @ Phi.conj().T @ CL_root)
    Pi = common_pi(F, R, C, u, t, sol).Pi_com
    Psi_C = sol.Psi_C
    PCC = Psi_C @ (C @ Psi_C)
    U = _phase_traces(CL_root, C_R, phi,            # explicit d omega_u / d phi_l
                      [Psi_C - sol.omega_bar_u * PCC])[0] / L
    # every phase enters through the same RHS direction [0, 0, 1]
    _, k_, o_ = _solve_checked(Pi, np.array([0.0, 0.0, 1.0]), "Pi_com(zf)")
    return _zf_chain(p, sol.mu_k(u, t), np.outer(u * k_ + t * o_, U),
                     sol.m_norm, sigma2)


# ---------------------------------------------------------------------------
# port-selection gradients (ZF, relaxed diag(s) embedding)
# ---------------------------------------------------------------------------

def _diag3(root, mid) -> np.ndarray:
    """Real diagonal of root mid root."""
    return np.real(np.einsum("ij,jk,ki->i", root, mid, root))


def _port_rows(roots, embs, K_R, F_roots, cF, R_root, cR, M) -> np.ndarray:
    """d/ds_i of tr(A(s) K_R)/M at fixed scalars, one row per A(s) = emb =
    root diag(s) root. cF_m and cR are the coefficients of F_m(s) and R(s)
    in K_R^{-1}, divided by M."""
    rows = []
    for root, emb in zip(roots, embs):
        mid = K_R @ emb @ K_R
        row = np.real(np.einsum("ij,ji->i", root @ K_R, root)) / M
        for c, F_root in zip(cF, F_roots):
            row = row - c * _diag3(F_root, mid)
        rows.append(row - cR * _diag3(R_root, mid))
    return np.array(rows)


def esr_gradient_ports_zf_common(sol: ZfCommonSolution, R_root, F_root,
                                 R_emb, F_emb, C, u, t, p, sigma2) -> np.ndarray:
    """d ESR_ZF / d s_i through R(s) = R^{1/2} diag(s) R^{1/2} (and F alike).

    sol must be the ZF solution on the embedded matrices with m_norm = M
    (the RF-chain count). Returns the full-length gradient over ports.
    """
    u = np.asarray(u, dtype=float)
    t = np.asarray(t, dtype=float)
    p = np.asarray(p, dtype=float)
    M = sol.m_norm
    L = C.shape[0]
    Psi = sol.Psi_R
    kappa_bar, omega, omega_bar, delta = (sol.kappa_bar_u, sol.omega_u,
                                          sol.omega_bar_u, sol.delta_u)
    Pi = common_pi(F_emb, R_emb, C, u, t, sol).Pi_com

    cW = L * omega * omega_bar / (M * delta) if delta > 0 else 0.0
    B = _port_rows([R_root, F_root], [R_emb, F_emb], Psi, [F_root],
                   [L * kappa_bar / M ** 2], R_root, cW / M, M)
    B = np.vstack([B, np.zeros(B.shape[1])])    # C has no port dependence
    V = _solve_checked(Pi, B, "Pi_com(zf)")
    mu_i = u[:, None] * V[1][None, :] + t[:, None] * V[2][None, :]   # (K, M_tot)
    return _zf_chain(p, sol.mu_k(u, t), mu_i, M, sigma2)


def esr_gradient_ports_zf_uncommon(sol: ZfUncommonSolution, R_root,
                                   F_roots: list[np.ndarray], R_emb,
                                   F_emb_list: list[np.ndarray],
                                   C_list: list[np.ndarray], p,
                                   sigma2) -> np.ndarray:
    """Per-user-correlation version of the ZF port gradient."""
    K = len(F_emb_list)
    M = sol.m_norm
    mu, omega, delta = sol.mu_u, sol.omega_u, sol.delta_u
    K_R = sol.K_R
    p = np.asarray(p, dtype=float)
    Pi = uncommon_pi(F_emb_list, R_emb, C_list, K_R, sol.K_C, delta, omega,
                     mu, 0.0, M).Pi

    # coefficients of the embedded-matrix terms inside K_R^{-1}
    cF = 1.0 / (M * mu)
    cR = float(np.sum(omega / (M * delta * mu))) if delta > 0 else 0.0
    B = _port_rows([*F_roots, R_root], [*F_emb_list, R_emb], K_R, F_roots,
                   cF / M, R_root, cR / M, M)      # rows ordered as in Pi

    V = _solve_checked(Pi, B, "Pi(zf)")
    return _zf_chain(p, mu, V[:K, :], M, sigma2)


# ---------------------------------------------------------------------------
# finite-difference oracles
# ---------------------------------------------------------------------------

def fd_gradient(fun, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g
