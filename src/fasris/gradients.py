"""Analytic derivatives of the deterministic ESR, in bits (a 1/ln 2 each).

One gradient per regime serves RZF and ZF: the phase gradient in either
regime and the per-user port gradient; d ESR / d z serves RZF. The shared
regime keeps a ZF port gradient through R^{1/2} diag(s) R^{1/2}. What
needs matrices is written here by hand: implicit differentiation of the
fixed point (one solve with the Pi / Pi_com of rates.py) and the
derivatives of the trace tables. Everything after the tables is the
rates.py formula itself, differentiated by complex step. The shared
gradients run forward, along a few directions; the per-user ones run in
reverse, through one adjoint whose pullbacks give d ESR / d C_k, d F_k,
d R and d z. Every path is pinned to central finite differences of the
full rate evaluation in the test suite.
"""

from __future__ import annotations

import numpy as np

from .channel import herm, psd_sqrt
from .fixed_point import CommonSolution
from .rates import (SecondOrderCommon, SecondOrderUncommon, _common_tables,
                    _interference_rhs, _pair_traces, _tr, _uncommon_pi,
                    _uncommon_tail, common_system, second_order_common,
                    zf_sinr)

LN2 = np.log(2.0)


# ---------------------------------------------------------------------------
# phase-shift perturbation matrices
# ---------------------------------------------------------------------------

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
    """tr(A_l X) for every l and every Hermitian X in Xs, (len(Xs), L); a
    (K, L, L) stack of C_R pairs C_{R,k} with Xs[k].

    A_l = dC/dphi_l = w_l s_l^T + h.c. (`phase_perturbation`): w_l is column
    l of C_L^{1/2} and s_l^T row l of B C_L^{1/2}, with B[l, q] =
    j e^{j(phi_l - phi_q)} C_R[l, q] off the diagonal. So tr(A_l X) =
    2 Re(s_l^T X w_l), and one product per X gives every l.
    """
    B = 1j * np.exp(1j * (phi[:, None] - phi[None, :])) * C_R
    B[..., np.arange(len(phi)), np.arange(len(phi))] = 0.0
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
    1998); h is set per direction so that |h dx| <= 1e-20 |x| where x != 0,
    and is 1e-20 along a direction that moves no nonzero entry of x.
    """
    n = len(next(iter(dx.values())))
    v = np.abs(np.concatenate([np.ravel(x[name]) for name in dx]))
    dv = np.abs(np.concatenate([np.reshape(d, (n, -1)) for d in dx.values()], axis=1))
    live = v != 0
    m = np.max(dv[:, live] / v[live], axis=1, initial=0.0)
    h = np.where(m > 0.0, 1e-20 / np.maximum(m, 1e-20), 1e-20)
    fx = f({**x, **{name: x[name] + 1j * h.reshape(n, *[1] * np.ndim(x[name])) * d
                    for name, d in dx.items()}})
    return np.imag(fx) / h.reshape(n, *[1] * (fx.ndim - 1))


def _esr(sinr: np.ndarray) -> np.ndarray:
    """ESR (bits) of the SINRs on the last axis."""
    return np.sum(np.log1p(sinr), axis=-1) / LN2


def _esr_along(system, x: dict, dx: dict, *args) -> np.ndarray:
    """d ESR (bits) along each direction of dx, the SINR from system(x, *args)."""
    return complex_step(lambda y: _esr(system(y, *args)["sinr"]), x, dx)


# ---------------------------------------------------------------------------
# shared correlation: the phase gradient (RZF and ZF), the ZF quotient rule
# ---------------------------------------------------------------------------

def _common_along(so: SecondOrderCommon, d_, k_, o_, dz: float) -> dict:
    """Derivatives of the shared state and trace tables when the fixed point
    moves by (d_, k_, o_) in (delta, kappa, omega), the Pi_com response, and
    dPsi_R^{-1} gains dz I (dz is 1 along z, 0 along a phase). `so` is an
    RZF system, whose factors are eigenvalues: they are differentiated as
    eigenvalues."""
    sol = so.sol
    M, L = sol.m_norm, sol.system.L
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


def _zf_chain(p, mu, mu_d, M, sigma2) -> np.ndarray:
    """Quotient rule through gamma_k = p_k / (sigma^2 sum_l p_l / (M mu_l)),
    summed into dESR (bits); column i of mu_d holds d mu / d x_i."""
    SS = float(np.sum(p / (M * mu)))
    gam = p / (sigma2 * SS)
    SS_d = -np.einsum("k,ki->i", p / (M * mu ** 2), mu_d)
    gam_d = -np.outer(gam / SS, SS_d)
    return np.einsum("ki,k->i", gam_d, 1.0 / (1.0 + gam)) / LN2


def esr_gradient_phases_common(so: SecondOrderCommon, C_L: np.ndarray,
                               C_R: np.ndarray, phi: np.ndarray,
                               sigma2: float, root=psd_sqrt) -> np.ndarray:
    """d ESR / d phi_l, shared-correlation regime (bits), RZF or ZF as the
    solution of so; `root` takes C_L^{1/2}, as in effective_ris_correlation.

    Every phase enters through three traces tr(A_l X) against A_l =
    dC/dphi_l: U_A drives the fixed point through one Pi_com solve, Xi_A
    and Xi_I_A move the tables Xi and Xi_I. The ZF rate reads mu alone, so
    U_A only, through `_zf_chain`. For RZF the ESR's derivatives along the
    three directions come from one complex-step evaluation of
    `common_system`; contracted with the three X, they leave one trace per
    l. `_phase_traces` reads every l at once.
    """
    m, Psi_C, omega_bar = so.sol.system, so.sol.Psi_C, so.sol.omega_bar
    C, M, L = m.C, so.sol.m_norm, m.L

    if so.sol.delta == 0.0 or omega_bar == 0.0:
        return np.zeros(len(phi))          # no cascaded link: rate ignores Phi

    # Psi_C and C commute, so every product of them is Hermitian; with
    # dPsi_C = (d_/delta^2) Psi_C^2 - ob_ PCC - omega_bar Psi_C A_l Psi_C,
    # the A_l terms of d omega, dXi and dXi_I are traces against A_l
    CP = C @ Psi_C
    PCC = Psi_C @ CP                        # Psi_C C Psi_C
    if so.sol.z is None:                    # ZF: d mu = (u k_ + t o_) U_A
        U = _phase_traces(root(C_L, "C_L"), C_R, phi,
                          [Psi_C - omega_bar * PCC])[0] / L
        _, k_, o_ = so.solve_pi(np.array([0.0, 0.0, 1.0]))
        return _zf_chain(so.p, so.sol.mu, np.outer(m.u * k_ + m.t * o_, U),
                         M, sigma2)
    X = (Psi_C - omega_bar * PCC, PCC - omega_bar * (PCC @ CP),
         Psi_C @ Psi_C - 2.0 * omega_bar * (PCC @ Psi_C))   # U_A, Xi_A, Xi_I_A

    # along U_A = 1 the fixed point moves by one Pi_com solve
    along_U = _common_along(so, *so.solve_pi(np.array([0.0, 0.0, 1.0])), 0.0)
    dx = {name: np.array([v, 0.0, 0.0]) for name, v in along_U.items()}
    dx["Xi"][1] = 2.0                       # d Xi = 2 tr(A_l Psi_C C Psi_C)/L
    dx["Xi_I"][2] = 1.0
    c = _esr_along(common_system, so.x, dx, m.u, m.t, M, L, 1.0, so.p, sigma2)
    return _phase_traces(root(C_L, "C_L"), C_R, phi,
                         [c[0] * X[0] + c[1] * X[1] + c[2] * X[2]])[0] / L


# ---------------------------------------------------------------------------
# per-user correlation: one adjoint for the phase, port and z gradients
# ---------------------------------------------------------------------------

def _entrywise(f, x: dict) -> dict:
    """d f / d x_e for every entry e of x, shaped like x: `complex_step`
    along the unit direction of each entry, one batch row per entry. A zero
    delta, which only a missing RIS path gives, stays fixed: f is not
    analytic there, nor does delta move."""
    names = [k for k in x if k != "delta" or x[k]]
    sizes = [np.size(x[k]) for k in names]
    cuts = np.cumsum(sizes)[:-1]
    units = np.split(np.eye(sum(sizes)), cuts, axis=1)
    dx = {k: U.reshape(-1, *np.shape(x[k])) for k, U in zip(names, units)}
    d = dict(zip(names, np.split(complex_step(f, x, dx), cuts)))
    return {k: d[k].reshape(np.shape(x[k])) if k in d else 0.0 for k in x}


def _esr_partials(so: SecondOrderUncommon, sigma2: float) -> dict:
    """d ESR / d x (bits) for every entry of so.x, at the solution's precoder.

    ZF: `zf_sinr` of mu. RZF: the `_uncommon_tail` of mu, W = Pi^{-1} B_W
    and ups_I = Pi^{-1} chi(I_M), whose partials in (W, ups_I) take one Pi^T
    solve with K + 1 right-hand sides back to the solve-free assembly."""
    sol, x, p = so.sol, so.x, so.p
    M, L, K = sol.m_norm, sol.system.L, len(sol.mu)
    if sol.z is None:
        return {k: 0.0 * v for k, v in x.items()} | _entrywise(
            lambda y: _esr(zf_sinr(y["mu"], p, sigma2, M)), {"mu": sol.mu})
    V = np.column_stack([so.W, so.ups_I])     # Pi V = [B_W, chi(I_M)]
    g = _entrywise(lambda y: _esr(_uncommon_tail(y["mu"], y["V"][..., :K],
                                                 y["V"][..., K], M, L, p,
                                                 sigma2)["sinr"]),
                   {"mu": sol.mu, "V": V})
    lam = so.solve_pi(g["V"], T=True)
    lam_V = lam @ V.T             # d V = Pi^{-1} (d [B_W, chi(I_M)] - d Pi V)

    def assembly(y):    # the last column, chi(I_M), has the partials lam[:, K]
        return (np.sum(lam[:, :K] * _interference_rhs(y, M, L), axis=(-2, -1))
                - np.sum(lam_V * _uncommon_pi(y, M, L, 1.0), axis=(-2, -1)))
    c = _entrywise(assembly, x) | {"chi_FI": lam[:K, K], "chi_RI": lam[K, K]}
    c["mu"] = c["mu"] + g["mu"]
    return c


def _uncommon_adjoint(so: SecondOrderUncommon, c: dict):
    """From c = d ESR / d x (`_esr_partials`), the Hermitian pullbacks
    (H, d ESR / d z, G): d ESR = sum_k Re tr(dC_k H[k]) + sum_k Re tr(dF_k
    G[k]) + Re tr(dR G[K]) + dz d ESR / d z, on the matrices of
    `so.sol.system`. H stacks the K users; G() builds the stack of G_F,k
    of the K users, then G_R, in the order of Pi's rows, only for the port
    gradient that reads it.

    The tables pull back onto Re tr(X dPsi_R) + Re tr(X_C dPsi_C) and
    explicit dC_k, dF_k, dR terms, each sum over users one GEMM; dPsi =
    -Psi dPsi^{-1} Psi leaves -Re tr(Y dPsi^{-1}), Y = Psi X Psi. The fixed
    point (Pi in (d mu, d delta), d omega eliminated) takes one Pi^T solve
    (Giles & Pierce, Flow Turbul. Combust. 65, 2000), whose lam weighs the
    explicit terms of the mu and delta equations: tr(dF_k Psi_R)/M, tr(dR
    Psi_R)/M and, through Psi_R, the lam part of Y. dz, dF_k and dR enter
    Psi_R^{-1} as dz I, dF_k / (M gain_k) and (omega . w) dR."""
    sol, x, m = so.sol, so.x, so.sol.system
    F, R, C, M, L, K = m.F, m.R, m.C, sol.m_norm, m.L, m.K
    mu, omega, Psi_R, Psi_C = sol.mu, sol.omega, sol.Psi_R, sol.Psi_C
    gain = mu + (0.0 if sol.z is None else 1.0)          # shift + mu_k
    dinv = 1.0 / sol.delta if sol.delta else 0.0
    w = dinv / (M * gain)           # weight of omega_k R in Psi_R^{-1}

    def wsum(a, S):                 # sum_k a_k S_k
        return np.tensordot(a, S, 1)
    X_R = np.tensordot(so.E, wsum(c["chi_FF"], F), ((0, 2), (0, 1))) \
        + (wsum(c["chi_FR"], F) + c["chi_RR"] * R) @ Psi_R @ R \
        + (wsum(c["chi_FI"], F) + c["chi_RI"] * R) @ Psi_R
    X_C = np.tensordot(so.D, wsum(c["Xi"], C), ((0, 2), (0, 1))) \
        + wsum(c["Xi_I"], C) @ Psi_C
    Y_R, Y_C = (P @ (X + X.conj().T) @ P / n
                for P, X, n in ((Psi_R, X_R, M), (Psi_C, X_C, L)))
    yF, yC = _pair_traces(F, Y_R[None])[:, 0], _pair_traces(C, Y_C[None])[:, 0]
    yR = _tr(R, Y_R, 1)

    # -Re tr(Y_R dPsi_R^{-1}) - Re tr(Y_C dPsi_C^{-1}) in (d delta, d omega,
    # d mu); d omega = e_om + Xi_I d delta / delta^2 + Xi d mu / (L gain^2)
    g_om = c["omega"] - yR * w
    g_mu = c["mu"] + yR * omega * w / gain \
        + (yF / M + (yC + g_om @ x["Xi"]) / L) / gain ** 2
    g_d = c["delta"] + yR * dinv * (omega @ w) \
        + dinv ** 2 * (np.trace(Y_C).real + g_om @ x["Xi_I"])
    lam = so.solve_pi(np.append(g_mu, g_d), T=True)
    # the Pi right-hand side of an explicit e_om is [e_om - chi_FR S,
    # -chi_RR S], S = sum_m w_m e_om_m
    a = g_om + lam[:K] - (lam[:K] @ x["chi_FR"] + lam[K] * x["chi_RR"]) * w
    Y = Y_R + Psi_R @ (wsum(lam[:K], F) + lam[K] * R) @ Psi_R / M
    dz = -np.trace(Y).real

    # G: explicit dF_k (dR) in the tables, Psi_R S Psi_R / M with S the
    # factors beside F_k (R) in them, weighted by the table partials
    def G():
        I = np.eye(len(R))
        S = np.concatenate([wsum(c["chi_FF"] + c["chi_FF"].T, F)
                            + np.multiply.outer(c["chi_FR"], R)
                            + np.multiply.outer(c["chi_FI"], I),
                            (wsum(c["chi_FR"], F) + 2.0 * c["chi_RR"] * R
                             + c["chi_RI"] * I)[None]])
        y = np.append(1.0 / (M * gain), omega @ w)[:, None, None]  # in Psi_R^-1
        return herm((Psi_R @ S @ Psi_R + lam[:, None, None] * Psi_R) / M - y * Y)

    # e_om_m = tr(dC_m Psi_C)/L - sum_k tr(dC_k Psi_C C_m Psi_C)/(L^2 gain_k)
    N = wsum(c["Xi"] + c["Xi"].T, C) + c["Xi_I"][:, None, None] * np.eye(L) \
        - wsum(a, C)[None] / (L * gain[:, None, None])
    H = (Psi_C @ N @ Psi_C + a[:, None, None] * Psi_C
         - Y_C / gain[:, None, None]) / L
    return H, float(dz), G


def esr_gradient_phases_uncommon(so: SecondOrderUncommon, C_L: np.ndarray,
                                 C_R_list: np.ndarray, t: np.ndarray,
                                 phi: np.ndarray, sigma2: float,
                                 root=psd_sqrt) -> np.ndarray:
    """d ESR / d phi_l, per-user-correlation regime (bits), RZF or ZF as the
    solution of so. C_R_list is the (K, L, L) stack of C_{R,k} (a list works
    too). dC_k / d phi_l = t_k A_l(C_{R,k}), so with the H_k of
    `_uncommon_adjoint`, `_phase_traces` reads every l at once."""
    H = _uncommon_adjoint(so, _esr_partials(so, sigma2))[0]
    return t @ _phase_traces(root(C_L, "C_L"), np.asarray(C_R_list), phi, H)


def esr_gradient_z(so: SecondOrderCommon | SecondOrderUncommon,
                   sigma2: float) -> float:
    """d ESR_RZF / d z (bits) in either regime.

    Per-user: the z output of `_uncommon_adjoint`. Shared: dPsi_R^{-1}/dz =
    I moves the fixed point by -x_I, which `second_order_common` holds; one
    complex-step evaluation of `common_system` carries it to the ESR."""
    if isinstance(so, SecondOrderUncommon):
        return _uncommon_adjoint(so, _esr_partials(so, sigma2))[1]
    m = so.sol.system
    along = _common_along(so, *(-so.x_I), 1.0)
    dx = {name: np.asarray(v)[None] for name, v in along.items()}
    return float(_esr_along(common_system, so.x, dx, m.u, m.t, so.sol.m_norm,
                            m.L, 1.0, so.p, sigma2)[0])


# ---------------------------------------------------------------------------
# port-selection gradients (ZF shared, relaxed embeddings; per-user adjoint)
# ---------------------------------------------------------------------------

def _diag3(root, mid) -> np.ndarray:
    """Real diagonal of root mid root."""
    return np.real(np.sum((root @ mid) * root.T, axis=1))


def esr_gradient_ports_zf_common(sol: CommonSolution, R_root, p,
                                 sigma2) -> np.ndarray:
    """d ESR_ZF / d s_i through R(s) = R^{1/2} diag(s) R^{1/2}, which the
    direct link shares (F = R).

    sol must be the ZF solution on the embedded matrix R(s) with m_norm = M
    (the RF-chain count). Both Pi_com rows of R(s), delta's and kappa's,
    are d/ds_i tr(R(s) Psi_R)/M at fixed scalars: the explicit diagonal of
    R^{1/2} Psi_R R^{1/2} less the R(s) terms of Psi_R^{-1}. Returns the
    full-length gradient over ports.
    """
    m, M, delta, Psi = sol.system, sol.m_norm, sol.delta, sol.Psi_R
    so = second_order_common(sol, p)

    cW = m.L * sol.omega * sol.omega_bar / (M * delta) if delta > 0 else 0.0
    d_R = _diag3(R_root, Psi @ m.R @ Psi)
    row = np.real(np.einsum("ij,ji->i", R_root @ Psi, R_root)) / M
    row = row - (m.L * sol.kappa_bar / M ** 2) * d_R - (cW / M) * d_R
    V = so.solve_pi(np.array([row, row, np.zeros(len(row))]))  # C has no s
    mu_i = m.u[:, None] * V[1][None, :] + m.t[:, None] * V[2][None, :]  # (K, M_tot)
    return _zf_chain(so.p, sol.mu, mu_i, M, sigma2)


def esr_gradient_ports_uncommon(so: SecondOrderUncommon, F_list, R,
                                s: np.ndarray, sigma2: float) -> np.ndarray:
    """d ESR / d s_i, per-user regime (bits), RZF or ZF as the solution of
    so, through F_k(s) = diag(s) F_k diag(s) and R(s) = diag(s) R diag(s):
    F_list and R at full size, so solved on the embedded stacks.

    With the pullbacks G of `_uncommon_adjoint`, d ESR = sum_A Re tr(dA(s)
    G_A) over the stack A = F_1..F_K, R, and d/ds_i Re tr(A(s) G) = 2 Re sum_j A_ij
    s_j G_ji for Hermitian A and G.
    """
    G = _uncommon_adjoint(so, _esr_partials(so, sigma2))[2]()
    A = np.concatenate([np.asarray(F_list), np.asarray(R)[None]])
    return 2.0 * np.real(np.sum((A * s) * np.swapaxes(G, -1, -2), axis=(0, 2)))


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
