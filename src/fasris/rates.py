"""Deterministic SINR and ergodic-sum-rate evaluation.

Turns fixed-point solutions into per-user SINRs for RZF/ZF in both
correlation regimes, including the second-order interference/normalization
blocks (Psi_{k,l}, Cbar, the Pi and Delta linear systems). Also the i.i.d.
closed forms for ZF and MRT and the minimum-port count.

Each regime's second-order system is built in one place, from a solution
and the powers p: the matrices are those the solution was solved on, which
its map (`sol.system`) holds. The matrix work ends at the trace tables
(shared RZF: sums over the eigenvalues of R and C, the direct link sharing
R); `common_system` and `uncommon_system` map the fixed-point state and the
tables (a dict x) through Pi_com / Pi, the solved blocks, Psi_{k,l} and
Cbar to the SINR. Both are analytic in every entry of x, which may lead
with one batch axis, so the RZF phase gradients differentiate them by
complex step: no entry passes through abs, a real part or a comparison.
The one test, delta == 0, holds only without a RIS path, where every
1/delta term multiplies a zero. `second_order_common` and
`second_order_uncommon` call them on real input, for RZF and ZF alike: a ZF
solution gets Pi at its own point, where 1 + mu becomes mu, and no solved
blocks; a batch of z carries its axis to the SINRs and the ESR. One
`sinr_zf` serves both regimes: it reads only the solution's mu.
`SecondOrderUncommon.W` keeps the solved interference system whose rows
give Psi_{k,l}, and `SecondOrderCommon.lam_zz` the limit of
(1/L)tr(Z Z^H Q Z Z^H Q).

Rates are in bits (log2). The noise term of every RZF SINR is
sigma^2 (1+mu_k)^2 Cbar with Cbar the per-antenna-power normalization limit
(precoders scaled so tr(G P G^H) = M); the Monte-Carlo oracle applies the
same convention, and a calibration test pins the factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .fixed_point import CommonSolution, UncommonSolution, solve_iid_zf

COND_LIMIT = 1e12
PSI_CLIP = 1e-8


class NumericalError(RuntimeError):
    """A second-order linear system (Pi / Delta block) is near singular."""


@dataclass
class RateReport:
    sinr: np.ndarray
    rates: np.ndarray
    esr: float               # one per row, an array, under a batch of z
    regime: str
    digest: dict = field(default_factory=dict)


def _report(sinr: np.ndarray, regime: str, digest: dict | None = None,
            sol=None) -> RateReport:
    """Rates and ESR; a fixed-point `sol` gives the digest of its solve."""
    if sol is not None:
        head = {"z": sol.z} if sol.z is not None else {}    # RZF only
        digest = {**head, "regime": regime, "residual": sol.residual}
    sinr = np.asarray(sinr, dtype=float)
    if (sinr < 0).any():
        raise NumericalError(f"negative SINR in {regime}: {sinr.min():.3e}")
    rates = np.log2(1.0 + sinr)
    esr = rates.sum(axis=-1)
    return RateReport(sinr=sinr, rates=rates, esr=esr if esr.ndim else float(esr),
                      regime=regime, digest=digest)


def _checked(A: np.ndarray, block: str):
    """Equilibrate A, or a stack of them, and check the conditioning once;
    returns solve(B).

    The Pi blocks mix units (powers of delta), so rows/columns are first
    equilibrated by their max moduli; the condition limit applies to the
    scaled matrix, which reflects actual solvability rather than scaling.
    The scaling is real and cancels in the solution, so a complex-step
    perturbation of A passes through. Every right-hand side is then solved
    with the same scaled matrix, or its transpose (T): a B with as many
    axes as A holds matrices, one with an axis fewer holds vectors.
    """
    r = np.abs(A).max(axis=-1)
    r[r == 0] = 1.0
    As = A / r[..., :, None]
    c = np.abs(As).max(axis=-2)
    c[c == 0] = 1.0
    As = As / c[..., None, :]
    cond = np.max(np.linalg.cond(As))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise NumericalError(f"{block} block is ill-conditioned "
                             f"(equilibrated cond={cond:.3e})")

    def solve(B: np.ndarray, T: bool = False) -> np.ndarray:
        B = np.asarray(B)
        S, r_, c_ = (As.swapaxes(-1, -2), c, r) if T else (As, r, c)
        if B.ndim == As.ndim:
            return np.linalg.solve(S, B / r_[..., :, None]) / c_[..., :, None]
        return np.linalg.solve(S, (B / r_)[..., None])[..., 0] / c_
    return solve


# ---------------------------------------------------------------------------
# the per-user SINR formulas, shared by both regimes and the gradients
# ---------------------------------------------------------------------------

def rzf_sinr(Psi_kl: np.ndarray, Cbar, mu: np.ndarray, p, sigma2: float,
             L: int) -> tuple[np.ndarray, np.ndarray]:
    """RZF SINR gamma_k = p_k mu_k^2 / D_k and its denominator D_k; Psi_kl,
    Cbar and mu may lead with one batch axis."""
    one_mu2 = (1.0 + mu) ** 2
    interf = (Psi_kl / (L * one_mu2[..., None, :])) @ p \
        - np.diagonal(Psi_kl, axis1=-2, axis2=-1) * p / (L * one_mu2)
    Dk = interf + sigma2 * one_mu2 * np.asarray(Cbar)[..., None]
    return p * mu ** 2 / Dk, Dk


def zf_sinr(mu: np.ndarray, p, sigma2: float, M: int) -> np.ndarray:
    """ZF SINR gamma_k = p_k / (sigma^2 sum_l p_l / (M mu_l)), per row of mu."""
    return p / (sigma2 * np.sum(p / (M * mu), axis=-1, keepdims=True))


def _clip_psi(Psi_kl: np.ndarray) -> np.ndarray:
    """Clip roundoff-level negatives of Psi_kl to 0; raise on significant ones.
    Each matrix of a stack is measured against its own scale."""
    scale = np.maximum(np.abs(Psi_kl).max(axis=(-2, -1)), 1e-300)
    worst = np.min(Psi_kl.min(axis=(-2, -1)) / scale)
    if worst < -PSI_CLIP:
        raise NumericalError(f"Psi_kl has significant negativity "
                             f"({worst:.3e} of its scale)")
    return np.clip(Psi_kl, 0.0, None)


def _batch_first(A: np.ndarray) -> np.ndarray:
    """The (n, n, ...) array A as (..., n, n)."""
    return A.T.swapaxes(-1, -2)


def _tr(A: np.ndarray, B: np.ndarray, n: int, diag: bool = False):
    """Re tr(A B) / n over the last axes; diag: vectors for diagonal ones."""
    return np.einsum("...i,...i->..." if diag else "...ij,...ji->...",
                     A, B).real / n


# ---------------------------------------------------------------------------
# second-order terms, per-user correlation (uncommon)
# ---------------------------------------------------------------------------

def _pair_traces(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Re tr(A_k B_l) for (..., K, n, n) and (..., J, n, n) stacks: (..., K, J).
    As tr(A B) = vec(A) . vec(B^T), that is one GEMM."""
    n = A.shape[-1]
    A_flat = A.reshape(A.shape[:-2] + (n * n,))
    Bt_flat = np.swapaxes(B, -1, -2).reshape(B.shape[:-2] + (n * n,))
    return np.real(A_flat @ np.swapaxes(Bt_flat, -1, -2))


def _uncommon_tables(E, ER, D, Psi_R, Psi_C, M: int) -> dict:
    """The per-user trace tables Re tr(X Y)/M (or /L) of E, the stack
    F_k Psi_R, ER = R Psi_R and D, the stack C_k Psi_C, with each other and
    with Psi_R or Psi_C; each stacked table is one `_pair_traces`."""
    L = D.shape[-1]

    def tr(X, Y, n):    # Re tr(X_k Y) / n for one matrix Y
        return _pair_traces(X, Y[..., None, :, :])[..., 0] / n
    return {"chi_FF": _pair_traces(E, E) / M, "chi_FR": tr(E, ER, M),
            "chi_RR": _tr(ER, ER, M), "chi_FI": tr(E, Psi_R, M),
            "chi_RI": _tr(ER, Psi_R, M), "Xi": _pair_traces(D, D) / L,
            "Xi_I": tr(D, Psi_C, L)}


def _interference_rhs(x: dict, M: int, L: int) -> np.ndarray:
    """Right-hand side of the Pi system whose solution W gives Psi_{k,l}.

    Psi_{k,l}/L is the limit of tr(E_k Q E_l Q) with E_l = F_l/M + Z_l Z_l^H/L
    the conditional covariance of user l. It equals -(1+mu_l)^2 times the
    implicit derivative of mu_k when user l's covariances (F_l, C_l) are
    scaled by (1+eps): the same Pi system with the explicit-dependence RHS.
    Column l of the RHS: e_om[:, l], the explicit part of each omega_m, and
    S_l, which enters through the omega R / delta term of Psi_R^{-1}. x is
    as in `uncommon_system`.
    """
    delta = np.asarray(x["delta"])[..., None, None]
    mu, omega, chi_FR = x["mu"], x["omega"], x["chi_FR"]
    eye = np.eye(mu.shape[-1])
    one_mu = 1.0 + mu
    e_om = omega[..., None] * eye - x["Xi"] / (L * one_mu[..., None, :])
    S = (np.sum(e_om / (M * delta * one_mu[..., :, None]), axis=-2)
         if delta.any() else np.zeros_like(mu))
    return np.concatenate([
        e_om - x["chi_FF"] / (M * one_mu[..., None, :])
        - chi_FR[..., :, None] * S[..., None, :]
        + (mu - omega)[..., None] * eye,                 # tr(F_l Psi_R)/M
        (-chi_FR / (M * one_mu)
         - np.asarray(x["chi_RR"])[..., None] * S)[..., None, :]], axis=-2)


def _uncommon_pi(x: dict, M: int, L: int, shift: float) -> np.ndarray:
    """Pi of the per-user system, shift + mu_k in place of 1 + mu_k (1 for
    RZF, 0 for ZF)."""
    delta = np.asarray(x["delta"])[..., None]
    mu, omega, Xi, Xi_I = x["mu"], x["omega"], x["Xi"], x["Xi_I"]
    chi_FF, chi_FR = x["chi_FF"], x["chi_FR"]
    chi_RR = np.asarray(x["chi_RR"])[..., None]
    K = mu.shape[-1]
    ris = delta.any()
    dinv = 1.0 / delta if ris else np.zeros_like(delta)
    dinv2 = dinv * dinv

    # Pi rows 1..K / row K+1, and the Gamma(R, .) column
    gain2 = (shift + mu) ** 2
    wI = ((omega - Xi_I * dinv) / (M * delta ** 2 * (shift + mu)) if ris
          else np.zeros_like(mu))
    sw = np.sum(wI, axis=-1, keepdims=True)
    Pi = np.zeros((*mu.shape[:-1], K + 1, K + 1),
                  dtype=np.result_type(*x.values()))
    Pi[..., :K, :K] = np.eye(K) - Xi / (L * gain2[..., None, :]) \
        - (Xi_I[..., None, :] * dinv2[..., None] * chi_FR[..., :, None]
           + chi_FF) / (M * gain2[..., None, :])
    Pi[..., K, :K] = -(Xi_I * dinv2 * chi_RR + chi_FR) / (M * gain2)
    Pi[..., :K, K] = -Xi_I * dinv2 - sw * chi_FR
    Pi[..., K, K] = (1.0 - sw * chi_RR)[..., 0]
    return Pi


def _uncommon_tail(mu: np.ndarray, W: np.ndarray, ups_I: np.ndarray, M: int,
                   L: int, p, sigma2=None) -> dict:
    """Psi_kl (unclipped) and Cbar from the solved W and ups_I; given sigma2,
    the RZF SINR as `sinr`."""
    K = mu.shape[-1]
    # diagonal: scaling user l also scales its own test covariance, which
    # contributes +mu_l to d mu_l / d eps on top of the resolvent response
    one_mu2 = (1.0 + mu) ** 2
    Psi_kl = -L * one_mu2[..., None, :] * (W[..., :K, :] - mu[..., None] * np.eye(K))
    Cbar = np.sum(p * ups_I[..., :K] / (M * one_mu2), axis=-1)
    out = {"Psi_kl": Psi_kl, "Cbar": Cbar}
    if sigma2 is not None:
        out["sinr"] = rzf_sinr(Psi_kl, Cbar, mu, p, sigma2, L)[0]
    return out


def uncommon_system(x: dict, M: int, L: int, shift: float = 1.0, p=None,
                    sigma2=None) -> dict:
    """The per-user system from its fixed-point state and trace tables.

    x holds delta, mu, omega and the tables of `_uncommon_tables`. Returns
    `_uncommon_pi` and `solve_pi`, the checked Pi solve; given p, also RZF's
    solved blocks ups_I, ups_F, W and their `_uncommon_tail` (given sigma2
    too, the SINR). The gradients differentiate the tail apart.
    """
    Pi = _uncommon_pi(x, M, L, shift)
    solve_pi = _checked(Pi, "Pi")
    if p is None:
        return {"Pi": Pi, "solve_pi": solve_pi}

    # chi vectors for I and every F_k: column l of ups_F = Pi^{-1} chi(F_l)
    ups_I = solve_pi(np.concatenate([x["chi_FI"], np.asarray(x["chi_RI"])[..., None]],
                                    axis=-1))
    ups_F = solve_pi(np.concatenate([x["chi_FF"], x["chi_FR"][..., None, :]],
                                    axis=-2))
    W = solve_pi(_interference_rhs(x, M, L))
    return {"Pi": Pi, "ups_I": ups_I, "ups_F": ups_F, "W": W,
            "solve_pi": solve_pi,
            **_uncommon_tail(x["mu"], W, ups_I, M, L, p, sigma2)}


@dataclass
class SecondOrderUncommon:
    """Second-order system at a per-user-correlation fixed point, on the
    matrices of `sol.system`, for the powers p.

    x holds the fixed-point state and the trace tables of E (the stack
    F_k Psi_R), ER = R Psi_R and D (the stack C_k Psi_C). Pi is taken at
    the solution's own point (1 + mu_k for RZF, mu_k for ZF) and solve_pi
    solves with it, checked. An RZF solution also gets the solved blocks,
    which the resolvent probes and the phase gradient reuse: ups_I is the
    limit of (1/L)tr(Z_k Z_k^H Q Q) + (1/M)tr(F_k Q Q), k = 1..K, with that
    of (1/M)tr(R Q Q) last.
    """

    sol: UncommonSolution
    p: np.ndarray
    x: dict                  # delta, mu, omega and the tables: chi_FF, Xi (K,K),
                             # chi_FR, chi_FI, Xi_I (K,), chi_RR, chi_RI
    E: np.ndarray
    D: np.ndarray
    Pi: np.ndarray           # (K+1,K+1)
    solve_pi: Callable = field(repr=False)
    ups_I: np.ndarray | None = None      # Pi^{-1} chi(I_M), length K+1
    ups_F: np.ndarray | None = None      # (K+1,K), column k = Pi^{-1} chi(F_k)
    W: np.ndarray | None = None          # (K+1,K), column l = Pi^{-1} (user-l scaling RHS)
    Lambda_kl: np.ndarray | None = None  # (K,K) bilinear cascaded-trace limits
    Psi_kl: np.ndarray | None = None     # (K,K)
    Cbar: float | None = None


def second_order_uncommon(sol: UncommonSolution, p) -> SecondOrderUncommon:
    """Second-order system at a per-user fixed point, RZF or ZF, on the
    matrices it was solved on. A ZF sol stops at Pi; an RZF sol also gets
    the solved blocks."""
    m, M, p = sol.system, sol.m_norm, np.asarray(p, dtype=float)
    Psi_R, Psi_C = sol.Psi_R, sol.Psi_C
    E, ER = m.F @ Psi_R[..., None, :, :], m.R @ Psi_R
    D = m.C @ Psi_C[..., None, :, :]
    x = {**sol.x0, **_uncommon_tables(E, ER, D, Psi_R, Psi_C, M)}
    rzf = sol.z is not None
    out = uncommon_system(x, M, m.L, 1.0 if rzf else 0.0, p if rzf else None)
    if "Psi_kl" in out:
        # strip (L/M) Ups_l(F_k)
        out["Lambda_kl"] = out["Psi_kl"] - (m.L / M) * np.swapaxes(
            out["ups_F"][..., :m.K, :], -1, -2)
        out["Psi_kl"] = _clip_psi(out["Psi_kl"])
    return SecondOrderUncommon(sol=sol, p=p, x=x, E=E, D=D, **out)


def sinr_rzf_uncommon(sol: UncommonSolution, p, sigma2: float):
    """Per-user RZF SINR and ESR, per-user-correlation regime."""
    so = second_order_uncommon(sol, p)
    sinr, _ = rzf_sinr(so.Psi_kl, so.Cbar, sol.mu, so.p, sigma2, sol.system.L)
    return _report(sinr, "rzf/uncommon", sol=sol), so


# ---------------------------------------------------------------------------
# second-order terms, shared correlation (common)
# ---------------------------------------------------------------------------

def _common_tables(first, second, M: int, L: int, diag: bool) -> dict:
    """The shared trace tables Re tr(X Y)/M (or /L), X from first =
    (RP, CP) and Y from second = (RP, CP, Psi_R, Psi_C), with RP = R Psi_R
    and CP = C Psi_C, or with diag their eigenvalues; bilinear in the two,
    so `gradients._common_along` takes their derivative as the sum of two
    calls. F = R, so the F tables of the per-user regime are chi_RR and
    chi_RI here."""
    RP, CP = first
    RP2, CP2, Psi_R, Psi_C = second
    tr = partial(_tr, diag=diag)
    return {"chi_RR": tr(RP, RP2, M), "chi_RI": tr(RP, Psi_R, M),
            "Xi": tr(CP, CP2, L), "Xi_I": tr(CP, Psi_C, L)}


def common_system(x: dict, u, t, M: int, L: int, shift: float = 1.0, p=None,
                  sigma2=None) -> dict:
    """The shared system from its fixed-point state and trace tables.

    x holds delta, kappa, omega, omega_bar and the tables of
    `_common_tables`. Returns the eta traces, Pi_com and `solve_pi`, the
    checked Pi_com solve; 1 + mu versus mu (shift 1 or 0) enters only
    through psi_T, so a ZF state gives its own Pi_com. Given p, also the
    solved x_R, x_F, x_I, Delta, lam_zz, Psi_kl (unclipped) and Cbar of
    RZF; given sigma2 too, the RZF SINR as `sinr`.
    """
    delta, omega, omega_bar = x["delta"], x["omega"], x["omega_bar"]
    chi_RR, chi_RI, Xi, Xi_I = x["chi_RR"], x["chi_RI"], x["Xi"], x["Xi_I"]
    om, ka = np.asarray(omega)[..., None], np.asarray(x["kappa"])[..., None]
    ris = np.asarray(delta).any()
    dinv = 1.0 / delta if ris else 0.0
    dinv2 = dinv * dinv

    psi2 = (1.0 / (shift + om * t + ka * u)) ** 2       # psi_T^2

    def eta(a, b):
        return np.sum(a * b * psi2, axis=-1) / L

    eta_TT, eta_TU, eta_UU = eta(t, t), eta(t, u), eta(u, u)

    ups = (L * omega * dinv / M) * chi_RR * eta_TU + (L / M) * chi_RR * eta_UU
    lam = (L / M) * chi_RR * eta_TU - (L * dinv / M) * chi_RR \
        * (omega_bar - omega * eta_TT)
    a = (L * omega * omega_bar / (M * delta ** 2)) if ris else 0.0
    Pi_com = _batch_first(np.array([
        [1.0 - a * chi_RR, -ups, -lam],
        [-a * chi_RR, 1.0 - ups, -lam],
        [-Xi_I * dinv2, -Xi * eta_TU, 1.0 - Xi * eta_TT]]))
    solve_pi = _checked(Pi_com, "Pi_com")
    out = {"eta_TT": eta_TT, "eta_TU": eta_TU, "eta_UU": eta_UU,
           "Pi_com": Pi_com, "solve_pi": solve_pi}
    if p is None:
        return out

    zero = 0.0 * chi_RR
    X = solve_pi(_batch_first(np.array([
        [chi_RR, chi_RR, chi_RI], [chi_RR, chi_RR, chi_RI],
        [zero, zero, zero]])))
    x_R, x_F, x_I = X[..., 0], X[..., 1], X[..., 2]
    Delta = 1.0 - Xi * eta_TT
    lam_zz = (Xi + (L / M) * Xi * eta_TU * x_F[..., 2]
              + (L / M) * Xi_I * dinv2 * x_R[..., 2]) / Delta
    tt, tu, uu = np.outer(t, t), np.outer(t, u), np.outer(u, u)   # tu[k,l] = t_k u_l
    Psi_kl = tt * np.asarray(lam_zz)[..., None, None] \
        + (L / M) * (tu.T + tu) * x_F[..., 2, None, None] \
        + (L / M) * uu * x_F[..., 1, None, None]
    eta_PT, eta_PU = eta(p, t), eta(p, u)
    Cbar = (L / M) * (eta_PT * x_I[..., 2] + eta_PU * x_I[..., 1])
    out.update(eta_PT=eta_PT, eta_PU=eta_PU, Delta=Delta, x_R=x_R, x_F=x_F,
               x_I=x_I, lam_zz=lam_zz, Psi_kl=Psi_kl, Cbar=Cbar)
    if sigma2 is not None:
        out["sinr"] = rzf_sinr(Psi_kl, Cbar, t * om + u * ka, p, sigma2, L)[0]
    return out


@dataclass
class SecondOrderCommon:
    """Second-order system at a shared-correlation fixed point, on the
    matrices of `sol.system`, for the powers p.

    P = (R Psi_R, C Psi_C) and Psi = (Psi_R, Psi_C) are the factors the
    trace tables in x came from: their eigenvalues for an RZF solution, the
    matrices for a ZF one. Pi_com is taken at the solution's own point
    (1 + mu for RZF, mu for ZF) and solve_pi solves with it, checked. An
    RZF solution also gets the solved blocks.
    """

    sol: CommonSolution
    p: np.ndarray
    P: tuple
    Psi: tuple
    x: dict                  # fixed-point state and the tables chi_*, Xi, Xi_I
    eta_TT: float
    eta_TU: float
    eta_UU: float
    Pi_com: np.ndarray       # (3,3)
    solve_pi: Callable = field(repr=False)
    eta_PT: float | None = None
    eta_PU: float | None = None
    Delta: float | None = None
    x_R: np.ndarray | None = None    # Pi_com^{-1} [chi_RR, chi_RR, 0]
    x_F: np.ndarray | None = None
    x_I: np.ndarray | None = None
    lam_zz: float | None = None      # limit of (1/L)tr(Z Z^H Q Z Z^H Q)
    Psi_kl: np.ndarray | None = None  # (K,K)
    Cbar: float | None = None


def second_order_common(sol: CommonSolution, p) -> SecondOrderCommon:
    """Second-order system at a shared fixed point, RZF or ZF, on the
    matrices it was solved on.

    RZF reads the tables off the eigenvalues (chi_RR = sum lam^2 psi^2 / M
    and so on); ZF keeps the matrices, whose products Frank-Wolfe's
    mirror-port ties follow to the last bit. x carries kappa, equal to
    delta, so Pi_com keeps its 3x3 layout. A ZF sol stops at Pi_com; an RZF
    sol also gets the solved blocks.
    """
    m, M, p = sol.system, sol.m_norm, np.asarray(p, dtype=float)
    rzf = sol.z is not None
    if rzf:
        P, Psi = (sol.lam * sol.psi, sol.g * sol.psi_C), (sol.psi, sol.psi_C)
    else:
        P, Psi = (m.R @ sol.Psi_R, m.C @ sol.Psi_C), (sol.Psi_R, sol.Psi_C)
    x = {**sol.x0, "kappa": sol.delta,
         **_common_tables(P, (*P, *Psi), M, m.L, rzf)}
    out = common_system(x, m.u, m.t, M, m.L, 1.0 if rzf else 0.0,
                        p if rzf else None)
    if "Psi_kl" in out:
        out["Psi_kl"] = _clip_psi(out["Psi_kl"])
    return SecondOrderCommon(sol=sol, p=p, P=P, Psi=Psi, x=x, **out)


def sinr_rzf_common(sol: CommonSolution, p, sigma2: float):
    """Per-user RZF SINR and ESR, shared-correlation regime."""
    so = second_order_common(sol, p)
    sinr, _ = rzf_sinr(so.Psi_kl, so.Cbar, sol.mu, so.p, sigma2, sol.system.L)
    return _report(sinr, "rzf/common", sol=sol), so


def sinr_zf(sol: CommonSolution | UncommonSolution, p,
            sigma2: float) -> RateReport:
    """ZF SINR and ESR in either regime: gamma_k = p_k / (sigma^2 sum_l
    p_l / (M mu_l))."""
    sinr = zf_sinr(sol.mu, np.asarray(p, dtype=float), sigma2, sol.m_norm)
    regime = "common" if isinstance(sol, CommonSolution) else "uncommon"
    return _report(sinr, f"zf/{regime}", sol=sol)


# ---------------------------------------------------------------------------
# i.i.d. closed forms
# ---------------------------------------------------------------------------

def esr_iid_zf(u: float, t: float, c1: float, c2: float, sigma2: float,
               K: int) -> RateReport:
    """ESR over i.i.d. channels with ZF: K log2(1 + (1-c1) beta / (c1 sigma^2))."""
    sol = solve_iid_zf(u, t, c1, c2)
    gamma = (1.0 - c1) * sol.beta_val / (c1 * sigma2)
    sinr = np.full(K, gamma)
    return _report(sinr, "zf/iid", {"beta": sol.beta_val, "alpha": sol.alpha_val})


def esr_iid_mrt(u: float, t: float, M: int, K: int, L: int,
                sigma2: float) -> RateReport:
    """Approximate ESR over i.i.d. channels with MRT; saturates at high SNR.

    gamma = (t+u)^2 / ((K-1) t (u+t)/M + (K-1) t (t L/M^2 + u L/M)/L
            + K sigma^2 (t+u)/M)
    """
    if u < 0 or t < 0 or min(M, K, L) < 1 or sigma2 <= 0:
        raise ValueError("inputs must be positive")
    denom = ((K - 1) * t * (u + t) / M
             + (K - 1) * t * (t * L / M ** 2 + u * L / M) / L
             + K * sigma2 * (t + u) / M)
    gamma = (t + u) ** 2 / denom
    interference = denom - K * sigma2 * (t + u) / M
    saturated = bool(interference > 10.0 * K * sigma2 * (t + u) / M)
    sinr = np.full(K, gamma)
    return _report(sinr, "mrt/iid", {"saturated": saturated})


def min_ports(R_target: float, K: int, u: float, t: float, c2: float,
              sigma2: float) -> int:
    """Smallest integer port count achieving R_target bits over i.i.d. ZF."""
    if R_target < 0:
        raise ValueError("target rate must be nonnegative")
    beta = solve_iid_zf(u, t, 0.5, c2).beta_val   # beta does not depend on c1
    m_star = K * (sigma2 * (2.0 ** (R_target / K) - 1.0) / beta + 1.0)
    return int(np.ceil(m_star - 1e-12))
