"""Analytic derivatives of the deterministic ESR.

Phase-shift gradients for the RZF and the ZF rate (shared and per-user
correlation), the RZF rate's derivative in the regularizer z, and
port-selection gradients of the ZF rate through the relaxed diag(s)
embedding. What needs matrices is written here by hand:
implicit differentiation of the fixed point (one solve with the Pi / Pi_com
of rates.py) and the derivatives of the trace tables. Everything after the
tables is the rates.py formula itself, differentiated by complex step. Every
path is pinned to central finite differences of the full rate evaluation in
the test suite.

Rates are in bits, so every gradient carries a 1/ln(2).
"""

from __future__ import annotations

import numpy as np

from .channel import effective_ris_correlation, psd_sqrt
from .fixed_point import CommonSolution, UncommonSolution
from .rates import (SecondOrderCommon, SecondOrderUncommon, _common_tables,
                    _uncommon_tables, common_system, second_order_common,
                    second_order_uncommon, uncommon_system)

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
    Hermitian rank-<=2 matrix w s^T + (w s^T)^H. A (K, L, L) stack of C_R
    gives the (K, L, L) stack of derivatives.
    """
    b = 1j * np.exp(1j * (phi[l] - phi)) * C_R[..., l, :]
    b[..., l] = 0.0
    ws = CL_root[:, l, None] * (b @ CL_root)[..., None, :]    # w s^T
    return ws + np.swapaxes(ws.conj(), -1, -2)


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
# complex-step derivatives of the table-level formulas
# ---------------------------------------------------------------------------

def complex_step(f, x: dict, dx: dict) -> np.ndarray:
    """Derivatives Im f(x + i h dx) / h of f at x, one per direction of dx.

    x maps names to real values, dx some of those names to directions with
    one leading batch axis; f gets x with those entries perturbed and
    batched, the others unchanged. Exact to roundoff, with no step-size
    cancellation, for f analytic in x (Squire & Trapp, SIAM Review 40(1),
    1998); h is set per direction so that |h dx| <= 1e-20 |x| where x != 0.
    """
    n = len(next(iter(dx.values())))
    v = np.abs(np.concatenate([np.ravel(x[name]) for name in dx]))
    dv = np.abs(np.concatenate([np.reshape(d, (n, -1)) for d in dx.values()], axis=1))
    live = v != 0
    h = 1e-20 / np.maximum(np.max(dv[:, live] / v[live], axis=1, initial=0.0), 1e-20)
    fx = f({**x, **{name: x[name] + 1j * h.reshape(n, *[1] * np.ndim(x[name])) * d
                    for name, d in dx.items()}})
    return np.imag(fx) / h.reshape(n, *[1] * (fx.ndim - 1))


def _esr_along(system, x: dict, dx: dict, *args) -> np.ndarray:
    """d ESR (bits) along each direction of dx, the SINR from system(x, *args)."""
    return complex_step(lambda y: np.sum(np.log1p(system(y, *args)["sinr"]),
                                         axis=-1) / LN2, x, dx)


# ---------------------------------------------------------------------------
# shared-correlation phase gradient (RZF)
# ---------------------------------------------------------------------------

def _common_along(so: SecondOrderCommon, d_, k_, o_, dz: float) -> dict:
    """Derivatives of the shared state and trace tables when the fixed point
    moves by (d_, k_, o_) in (delta, kappa, omega), the Pi_com response, and
    dPsi_R^{-1} gains dz I (dz is 1 along z, 0 along a phase). `so` is an
    RZF system, whose factors are eigenvalues: they are differentiated as
    eigenvalues."""
    sol = so.sol
    M, L = sol.m_norm, so.C.shape[0]
    delta, omega, omega_bar = sol.delta, sol.omega, sol.omega_bar
    P, (Psi_R, Psi_C) = so.P, so.Psi
    kb_ = -(k_ * so.eta_UU + o_ * so.eta_TU)
    ob_ = -(k_ * so.eta_TU + o_ * so.eta_TT)
    alpha = (L / M) * ((o_ * omega_bar + omega * ob_) / delta
                       - omega * omega_bar * d_ / delta ** 2) if delta else 0.0
    beta = (L / M) * kb_              # dPsi_R^{-1} = dz I + (alpha + beta) R
    PsiR_ = -Psi_R ** 2 * (dz + (alpha + beta) * sol.lam)
    PsiC_ = (Psi_C ** 2 * (d_ / delta ** 2 - ob_ * sol.g) if delta
             else 0.0 * Psi_C)              # no RIS path: Psi_C = 0
    P_ = (sol.lam * PsiR_, sol.g * PsiC_)
    tables_ = _common_tables(P_, (*P, Psi_R, Psi_C), M, L, True)
    rest = _common_tables(P, (*P_, PsiR_, PsiC_), M, L, True)
    return {"delta": d_, "kappa": k_, "omega": o_, "omega_bar": ob_,
            **{name: v + rest[name] for name, v in tables_.items()}}


def esr_gradient_phases_common(so: SecondOrderCommon, C_L: np.ndarray,
                               C_R: np.ndarray, phi: np.ndarray,
                               sigma2: float, root=psd_sqrt) -> np.ndarray:
    """d ESR_RZF / d phi_l, shared-correlation regime (bits); `root` takes
    C_L^{1/2}, as in effective_ris_correlation.

    Every phase enters through three traces tr(A_l X) against A_l =
    dC/dphi_l: U_A drives the fixed point through one Pi_com solve, Xi_A
    and Xi_I_A move the tables Xi and Xi_I. The ESR's derivatives along
    those three directions come from one complex-step evaluation of
    `common_system`; contracted with the three X, they leave one trace per
    l, which `_phase_traces` reads for every l at once.
    """
    C, Psi_C, omega_bar = so.C, so.sol.Psi_C, so.sol.omega_bar
    M, L = so.sol.m_norm, C.shape[0]

    if so.sol.delta == 0.0 or omega_bar == 0.0:
        return np.zeros(len(phi))          # no cascaded link: rate ignores Phi

    # Psi_C and C commute, so every product of them is Hermitian; with
    # dPsi_C = (d_/delta^2) Psi_C^2 - ob_ PCC - omega_bar Psi_C A_l Psi_C,
    # the A_l terms of d omega, dXi and dXi_I are traces against A_l
    CP = C @ Psi_C
    PCC = Psi_C @ CP                        # Psi_C C Psi_C
    X = (Psi_C - omega_bar * PCC, PCC - omega_bar * (PCC @ CP),
         Psi_C @ Psi_C - 2.0 * omega_bar * (PCC @ Psi_C))   # U_A, Xi_A, Xi_I_A

    # along U_A = 1 the fixed point moves by one Pi_com solve
    along_U = _common_along(so, *so.solve_pi(np.array([0.0, 0.0, 1.0])), 0.0)
    dx = {name: np.array([v, 0.0, 0.0]) for name, v in along_U.items()}
    dx["Xi"][1] = 2.0                       # d Xi = 2 tr(A_l Psi_C C Psi_C)/L
    dx["Xi_I"][2] = 1.0
    c = _esr_along(common_system, so.x, dx, so.u, so.t, M, L, 1.0, so.p, sigma2)
    return _phase_traces(root(C_L, "C_L"), C_R, phi,
                         [c[0] * X[0] + c[1] * X[1] + c[2] * X[2]])[0] / L


# ---------------------------------------------------------------------------
# per-user-correlation phase gradient (RZF)
# ---------------------------------------------------------------------------

def _uncommon_along(so: SecondOrderUncommon, C: np.ndarray, mu_, d_, e_om,
                    dz: float, A: np.ndarray) -> dict:
    """`_common_along` per user: (mu, delta) move by (mu_, d_), the Pi
    response; e_om, dz I and the stack A are the explicit parts of d omega,
    dPsi_R^{-1} and dC_k. C is the stack of C_k."""
    sol = so.sol
    F, R = so.F, so.R
    M, L = sol.m_norm, C.shape[-1]
    mu, omega, delta = sol.mu, sol.omega, sol.delta
    Psi_R, Psi_C = sol.Psi_R, sol.Psi_C
    x = so.x
    one_mu = 1.0 + mu
    one_mu2 = one_mu ** 2
    dinv2 = 1.0 / delta ** 2 if delta else 0.0
    om_ = e_om + x["Xi_I"] * d_ * dinv2 + (x["Xi"] / (L * one_mu2[None, :])) @ mu_

    coefR = (np.sum(om_ / (delta * one_mu) - omega * d_ / (delta ** 2 * one_mu)
                    - omega * mu_ / (delta * one_mu2)) / M if delta else 0.0)
    dPsiR_inv = dz * np.eye(len(R)) + coefR * R \
        - np.einsum("k,kij->ij", mu_ / (M * one_mu2), F)
    PsiR_ = -Psi_R @ dPsiR_inv @ Psi_R

    dPsiC_inv = (-d_ * dinv2) * np.eye(L) \
        + np.einsum("k,kij->ij", 1.0 / (L * one_mu), A) \
        - np.einsum("k,kij->ij", mu_ / (L * one_mu2), C)
    PsiC_ = -Psi_C @ dPsiC_inv @ Psi_C

    first_ = (F @ PsiR_, R @ PsiR_, A @ Psi_C + C @ PsiC_)
    tables_ = _uncommon_tables(first_, (so.E, so.ER, so.D, Psi_R, Psi_C), M)
    rest = _uncommon_tables((so.E, so.ER, so.D), (*first_, PsiR_, PsiC_), M)
    return {"delta": d_, "mu": mu_, "omega": om_,
            **{name: v + rest[name] for name, v in tables_.items()}}


def esr_gradient_phases_uncommon(so: SecondOrderUncommon,
                                 C_list: np.ndarray, C_L: np.ndarray,
                                 C_R_list: np.ndarray, t: np.ndarray,
                                 phi: np.ndarray, p: np.ndarray,
                                 sigma2: float, root=psd_sqrt) -> np.ndarray:
    """d ESR_RZF / d phi_l, per-user-correlation regime (bits). C_list and
    C_R_list are the (K, L, L) stacks of C_k and C_{R,k} (lists work too).

    Per element l, one Pi solve moves the fixed point and the trace tables
    follow from dPsi_R and dPsi_C; the ESR's derivatives along all L
    directions then come from one complex-step evaluation of
    `uncommon_system`.
    """
    M, L = so.sol.m_norm, C_L.shape[0]
    mu, delta, Psi_C = so.sol.mu, so.sol.delta, so.sol.Psi_C
    t = np.asarray(t, dtype=float)
    p = np.asarray(p, dtype=float)

    if delta == 0.0 or np.all(t == 0.0):
        return np.zeros(len(phi))

    C, C_R = np.asarray(C_list), np.asarray(C_R_list)
    CL_root = root(C_L, "C_L")
    one_mu = 1.0 + mu
    x = so.x
    P2 = np.einsum("ij,kjl->kil", Psi_C, so.D)         # Psi_C C_k Psi_C

    rows = []
    for l in range(len(phi)):
        # dC_k/dphi_l
        A = t[:, None, None] * phase_perturbation(CL_root, C_R, phi, l)

        # explicit part of each omega_m
        trAP = np.real(np.einsum("kij,ji->k", A, Psi_C)) / L
        trP2A = np.real(np.einsum("mij,kji->mk", P2, A)) / L   # tr(A_k Psi_C C_m Psi_C)/L
        e_om = trAP - np.sum(trP2A / one_mu[None, :], axis=1) / L
        S = float(np.sum(e_om / (M * delta * one_mu)))

        w_sol = so.solve_pi(np.concatenate([e_om - x["chi_FR"] * S,
                                            [-x["chi_RR"] * S]]))
        rows.append(_uncommon_along(so, C, w_sol[:-1], w_sol[-1], e_om, 0.0, A))
    dx = {name: np.array([row[name] for row in rows]) for name in rows[0]}
    return _esr_along(uncommon_system, x, dx, M, L, 1.0, p, sigma2)


def esr_gradient_z(so: SecondOrderCommon | SecondOrderUncommon,
                   C: np.ndarray, p: np.ndarray, sigma2: float) -> float:
    """d ESR_RZF / d z (bits) in either regime; C is C, or the stack of C_k.

    dPsi_R^{-1}/dz = I, so the fixed point moves by -x_I (shared) or -ups_I
    (per-user), Pi solves that `second_order_*` already hold; the tables
    follow, and one complex-step evaluation of the regime's system carries
    them to the ESR."""
    M, L = so.sol.m_norm, C.shape[-1]
    p = np.asarray(p, dtype=float)
    if isinstance(so, SecondOrderCommon):
        along = _common_along(so, *(-so.x_I), 1.0)
        system, args = common_system, (so.u, so.t, M, L, 1.0, p, sigma2)
    else:
        K = len(so.F)
        along = _uncommon_along(so, C, -so.ups_I[:K], -so.ups_I[K], 0.0, 1.0,
                                0.0 * C)
        system, args = uncommon_system, (M, L, 1.0, p, sigma2)
    dx = {name: np.asarray(v)[None] for name, v in along.items()}
    return float(_esr_along(system, so.x, dx, *args)[0])


# ---------------------------------------------------------------------------
# ZF gradients: the second-order systems of rates.py at the ZF point
# ---------------------------------------------------------------------------

def _zf_chain(p, mu, mu_d, M, sigma2) -> np.ndarray:
    """Quotient rule through gamma_k = p_k / (sigma^2 sum_l p_l / (M mu_l)),
    summed into dESR (bits); column i of mu_d holds d mu / d x_i."""
    SS = float(np.sum(p / (M * mu)))
    gam = p / (sigma2 * SS)
    SS_d = -np.einsum("k,ki->i", p / (M * mu ** 2), mu_d)
    gam_d = -np.outer(gam / SS, SS_d)
    return np.einsum("ki,k->i", gam_d, 1.0 / (1.0 + gam)) / LN2


def esr_gradient_phases_zf_common(sol: CommonSolution, R, C_L, C_R,
                                  phi, u, t, p, sigma2,
                                  root=psd_sqrt) -> np.ndarray:
    """d ESR_ZF / d phi_l, shared correlation (bits)."""
    u = np.asarray(u, dtype=float)
    t = np.asarray(t, dtype=float)
    p = np.asarray(p, dtype=float)
    L = len(phi)
    if sol.delta == 0.0 or sol.omega_bar == 0.0 or np.all(t == 0.0):
        return np.zeros(L)
    # the C that stats_common hands the solver, bit for bit
    C = effective_ris_correlation(C_L, phi, C_R, 1.0, root)[1]
    so = second_order_common(R, C, u, t, p, sol)
    Psi_C = sol.Psi_C
    PCC = Psi_C @ so.P[1]
    U = _phase_traces(root(C_L, "C_L"), C_R, phi,   # explicit d omega / d phi_l
                      [Psi_C - sol.omega_bar * PCC])[0] / L
    # every phase enters through the same RHS direction [0, 0, 1]
    _, k_, o_ = so.solve_pi(np.array([0.0, 0.0, 1.0]))
    return _zf_chain(p, sol.mu_k(u, t), np.outer(u * k_ + t * o_, U),
                     sol.m_norm, sigma2)


def esr_gradient_phases_zf_uncommon(so: SecondOrderUncommon, C_L, C_R_list,
                                    t, phi, p, sigma2,
                                    root=psd_sqrt) -> np.ndarray:
    """d ESR_ZF / d phi_l, per-user correlation (bits); so is the ZF
    `second_order_uncommon`. Per user k, `_phase_traces` against Psi_C and
    every Psi_C C_m Psi_C gives the explicit d omega_m along dC_k/dphi_l
    for all l; one Pi solve with L right-hand sides gives every d mu."""
    sol = so.sol
    M, L, mu, delta = sol.m_norm, C_L.shape[0], sol.mu, sol.delta
    t = np.asarray(t, dtype=float)
    if delta == 0.0 or np.all(t == 0.0):
        return np.zeros(len(phi))
    CL_root, Psi_C = root(C_L, "C_L"), sol.Psi_C
    Xs = np.concatenate([Psi_C[None], Psi_C @ so.D])    # Psi_C, Psi_C C_m Psi_C
    T = np.stack([t_k * _phase_traces(CL_root, C_R, phi, Xs)
                  for t_k, C_R in zip(t, C_R_list)]) / L    # (K, K+1, L)
    e_om = T[:, 0] - np.einsum("k,kml->ml", 1.0 / (L * mu), T[:, 1:])
    S = np.sum(e_om / (M * delta * mu[:, None]), axis=0)
    V = so.solve_pi(np.vstack([e_om - so.x["chi_FR"][:, None] * S,
                               -so.x["chi_RR"] * S]))
    return _zf_chain(np.asarray(p, dtype=float), mu, V[:-1], M, sigma2)


# ---------------------------------------------------------------------------
# port-selection gradients (ZF, relaxed diag(s) embedding)
# ---------------------------------------------------------------------------

def _diag3(root, mid) -> np.ndarray:
    """Real diagonal of root mid root."""
    return np.real(np.sum((root @ mid) * root.T, axis=1))


def _port_rows(roots, embs, Psi, F_roots, cF, R_root, cR, M) -> np.ndarray:
    """d/ds_i of tr(A(s) Psi)/M at fixed scalars, one row per A(s) = emb =
    root diag(s) root. cF_m and cR are the coefficients of F_m(s) and R(s)
    in Psi^{-1}, divided by M. Repeated (`is`) roots and embs are reused."""
    rows = []
    for i, (root, emb) in enumerate(zip(roots, embs)):
        if i and root is roots[i - 1] and emb is embs[i - 1]:
            rows.append(rows[-1])
            continue
        mid = Psi @ emb @ Psi
        d_R = _diag3(R_root, mid)
        row = np.real(np.einsum("ij,ji->i", root @ Psi, root)) / M
        for c, F_root in zip(cF, F_roots):
            row = row - c * (d_R if F_root is R_root else _diag3(F_root, mid))
        rows.append(row - cR * d_R)
    return np.array(rows)


def esr_gradient_ports_zf_common(sol: CommonSolution, R_root, R_emb, C, u,
                                 t, p, sigma2) -> np.ndarray:
    """d ESR_ZF / d s_i through R(s) = R^{1/2} diag(s) R^{1/2}, which the
    direct link shares (F = R).

    sol must be the ZF solution on the embedded matrix with m_norm = M
    (the RF-chain count). Returns the full-length gradient over ports.
    """
    u = np.asarray(u, dtype=float)
    t = np.asarray(t, dtype=float)
    p = np.asarray(p, dtype=float)
    M, L, delta = sol.m_norm, C.shape[0], sol.delta
    so = second_order_common(R_emb, C, u, t, p, sol)

    cW = L * sol.omega * sol.omega_bar / (M * delta) if delta > 0 else 0.0
    B = _port_rows([R_root, R_root], [R_emb, R_emb], sol.Psi_R, [R_root],
                   [L * sol.kappa_bar / M ** 2], R_root, cW / M, M)
    B = np.vstack([B, np.zeros(B.shape[1])])    # C has no port dependence
    V = so.solve_pi(B)
    mu_i = u[:, None] * V[1][None, :] + t[:, None] * V[2][None, :]   # (K, M_tot)
    return _zf_chain(p, sol.mu_k(u, t), mu_i, M, sigma2)


def esr_gradient_ports_zf_uncommon(sol: UncommonSolution, R_root,
                                   F_roots: list[np.ndarray], R_emb,
                                   F_emb_list: list[np.ndarray],
                                   C_list: list[np.ndarray], p,
                                   sigma2) -> np.ndarray:
    """Per-user-correlation version of the ZF port gradient."""
    K = len(F_emb_list)
    M = sol.m_norm
    mu, omega, delta = sol.mu, sol.omega, sol.delta
    Psi = sol.Psi_R
    p = np.asarray(p, dtype=float)
    so = second_order_uncommon(F_emb_list, R_emb, C_list, p, sol)

    # coefficients of the embedded-matrix terms inside Psi_R^{-1}
    cF = 1.0 / (M * mu)
    cR = float(np.sum(omega / (M * delta * mu))) if delta > 0 else 0.0
    B = _port_rows([*F_roots, R_root], [*F_emb_list, R_emb], Psi, F_roots,
                   cF / M, R_root, cR / M, M)      # rows ordered as in Pi

    V = so.solve_pi(B)
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
