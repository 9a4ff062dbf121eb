"""Deterministic SINR and ergodic-sum-rate evaluation.

Turns fixed-point solutions into per-user SINRs for RZF/ZF in both
correlation regimes, including the second-order interference/normalization
blocks (Psi_{k,l}, Cbar, the Pi and Delta linear systems). Also the i.i.d.
closed forms for ZF and MRT and the minimum-port count.

Each regime's second-order system is built in one place: `common_pi` gives
the trace tables and the 3x3 Pi_com of the shared regime, `uncommon_pi` the
trace tables and the (K+1)x(K+1) Pi of the per-user regime. The ZF
gradients reuse both at the ZF point, where 1 + mu becomes mu.
`SecondOrderUncommon.W` keeps the solved interference system whose rows give
Psi_{k,l}, and `SecondOrderCommon.lam_zz` the limit of
(1/L)tr(Z Z^H Q Z Z^H Q).

Rates are in bits (log2). The noise term of every RZF SINR is
sigma^2 (1+mu_k)^2 Cbar with Cbar the per-antenna-power normalization limit
(precoders scaled so tr(G P G^H) = M); the Monte-Carlo oracle applies the
same convention, and a calibration test pins the factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    esr: float
    regime: str
    digest: dict = field(default_factory=dict)

    def csv_row(self) -> dict:
        return {"regime": self.regime, "esr": self.esr,
                **{f"sinr_{k}": s for k, s in enumerate(self.sinr)}}

    def to_record(self) -> str:
        """Structured single-line text record (regime, SINRs, ESR, digest)."""
        sinrs = " ".join(f"{v:.10g}" for v in self.sinr)
        dig = ";".join(f"{k}={v}" for k, v in sorted(self.digest.items()))
        return f"regime={self.regime} esr={self.esr:.10g} sinr=[{sinrs}] {dig}"


def _report(sinr: np.ndarray, regime: str, digest: dict | None,
            sol=None) -> RateReport:
    """Rates and ESR; a fixed-point `sol` leads the digest with its solve."""
    if sol is not None:
        head = {"z": sol.z} if sol.z is not None else {}    # RZF only
        digest = {**head, "regime": regime, "residual": sol.residual,
                  **(digest or {})}
    sinr = np.asarray(sinr, dtype=float)
    if (sinr < 0).any():
        raise NumericalError(f"negative SINR in {regime}: {sinr.min():.3e}")
    rates = np.log2(1.0 + sinr)
    return RateReport(sinr=sinr, rates=rates, esr=float(rates.sum()),
                      regime=regime, digest=digest)


def _checked(A: np.ndarray, block: str):
    """Equilibrate A and check its conditioning once; returns solve(B).

    The Pi blocks mix units (powers of delta), so rows/columns are first
    equilibrated by their max moduli; the condition limit applies to the
    scaled matrix, which reflects actual solvability rather than scaling.
    Every right-hand side is then solved with the same scaled matrix.
    """
    r = np.abs(A).max(axis=1)
    r[r == 0] = 1.0
    As = A / r[:, None]
    c = np.abs(As).max(axis=0)
    c[c == 0] = 1.0
    As = As / c[None, :]
    cond = np.linalg.cond(As)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise NumericalError(f"{block} block is ill-conditioned "
                             f"(equilibrated cond={cond:.3e})")

    def solve(B: np.ndarray) -> np.ndarray:
        B = np.asarray(B)
        if B.ndim == 2:
            return np.linalg.solve(As, B / r[:, None]) / c[:, None]
        return np.linalg.solve(As, B / r) / c
    return solve


def _solve_checked(A: np.ndarray, B: np.ndarray, block: str) -> np.ndarray:
    """Dense solve with the conditioning guard of `_checked`, for one B."""
    return _checked(A, block)(B)


# ---------------------------------------------------------------------------
# the per-user SINR formulas, shared by both regimes and the gradients
# ---------------------------------------------------------------------------

def rzf_sinr(Psi_kl: np.ndarray, Cbar: float, mu: np.ndarray, p, sigma2: float,
             L: int) -> tuple[np.ndarray, np.ndarray]:
    """RZF SINR gamma_k = p_k mu_k^2 / D_k and its denominator D_k."""
    one_mu2 = (1.0 + mu) ** 2
    interf = (Psi_kl / (L * one_mu2[None, :])) @ p - np.diag(Psi_kl) * p / (L * one_mu2)
    Dk = interf + sigma2 * one_mu2 * Cbar
    return p * mu ** 2 / Dk, Dk


def zf_sinr(mu: np.ndarray, p, sigma2: float, M: int) -> np.ndarray:
    """ZF SINR gamma_k = p_k / (sigma^2 sum_l p_l / (M mu_l))."""
    return p / (sigma2 * np.sum(p / (M * mu)))


def _clip_psi(Psi_kl: np.ndarray) -> np.ndarray:
    """Clip roundoff-level negatives of Psi_kl to 0; raise on significant ones."""
    scale = max(np.abs(Psi_kl).max(), 1e-300)
    if Psi_kl.min() < -PSI_CLIP * scale:
        raise NumericalError(f"Psi_kl has significant negativity "
                             f"({Psi_kl.min():.3e} vs scale {scale:.3e})")
    return np.clip(Psi_kl, 0.0, None)


# ---------------------------------------------------------------------------
# second-order terms, per-user correlation (uncommon)
# ---------------------------------------------------------------------------

@dataclass
class UncommonPi:
    """Trace tables and the (K+1)x(K+1) Pi of the per-user-correlation system."""

    E: np.ndarray            # stack F_k Psi_R
    ER: np.ndarray           # R Psi_R
    D: np.ndarray            # stack C_k Psi_C
    chi_FF: np.ndarray       # (K,K)
    chi_FR: np.ndarray       # (K,)
    chi_RR: float
    chi_FI: np.ndarray
    chi_RI: float
    Xi: np.ndarray           # (K,K)
    Xi_I: np.ndarray         # (K,)
    Pi: np.ndarray           # (K+1,K+1)


def uncommon_pi(F_list: np.ndarray, R: np.ndarray, C_list: np.ndarray,
                Psi_R: np.ndarray, Psi_C: np.ndarray, delta: float,
                omega: np.ndarray, mu: np.ndarray, shift: float,
                M: int) -> UncommonPi:
    """Pi at a per-user fixed point, with shift + mu_k in place of 1 + mu_k.

    F_list and C_list are the (K, M, M) and (K, L, L) stacks of F_k and C_k
    (lists work too). RZF passes its solution's fields and shift 1; ZF
    passes its own, the underlined limits, and shift 0.
    """
    E = np.asarray(F_list) @ Psi_R                       # (K, M, M)
    ER = R @ Psi_R
    D = np.asarray(C_list) @ Psi_C                       # (K, L, L)
    K, L = len(E), D.shape[1]
    dinv = 0.0 if delta == 0 else 1.0 / delta
    dinv2 = dinv * dinv

    chi_FF = np.real(np.einsum("kij,lji->kl", E, E)) / M
    chi_FR = np.real(np.einsum("kij,ji->k", E, ER)) / M
    chi_RR = float(np.real(np.einsum("ij,ji->", ER, ER)) / M)
    chi_FI = np.real(np.einsum("kij,ji->k", E, Psi_R)) / M
    chi_RI = float(np.real(np.einsum("ij,ji->", ER, Psi_R)) / M)

    Xi = np.real(np.einsum("kij,lji->kl", D, D)) / L
    Xi_I = np.real(np.einsum("kij,ji->k", D, Psi_C)) / L

    # Pi rows 1..K / row K+1, and the Gamma(R, .) column
    gain2 = (shift + mu) ** 2
    wI = (omega - Xi_I * dinv) / (M * delta ** 2 * (shift + mu)) if delta > 0 \
        else np.zeros(K)
    Pi = np.zeros((K + 1, K + 1))
    Pi[:K, :K] = np.eye(K) - Xi / (L * gain2[None, :]) \
        - (Xi_I[None, :] * dinv2 * chi_FR[:, None] + chi_FF) / (M * gain2[None, :])
    Pi[K, :K] = -(Xi_I * dinv2 * chi_RR + chi_FR) / (M * gain2)
    Pi[:K, K] = -Xi_I * dinv2 - np.sum(wI) * chi_FR
    Pi[K, K] = 1.0 - np.sum(wI) * chi_RR
    return UncommonPi(E=E, ER=ER, D=D, chi_FF=chi_FF, chi_FR=chi_FR,
                      chi_RR=chi_RR, chi_FI=chi_FI, chi_RI=chi_RI, Xi=Xi,
                      Xi_I=Xi_I, Pi=Pi)


@dataclass
class SecondOrderUncommon(UncommonPi):
    """Interference blocks of the per-user-correlation RZF equivalent.

    Keeps the trace tables and solved Pi systems so the resolvent
    probes and the phase-gradient chain can reuse them. ups_I is the limit
    of (1/L)tr(Z_k Z_k^H Q Q) + (1/M)tr(F_k Q Q), k = 1..K, with that of
    (1/M)tr(R Q Q) last.
    """

    sol: UncommonSolution
    F: np.ndarray            # (K,M,M) stack of F_k
    R: np.ndarray
    ups_I: np.ndarray        # Pi^{-1} chi(I_M), length K+1
    ups_F: np.ndarray        # (K+1,K), column k = Pi^{-1} chi(F_k)
    W: np.ndarray            # (K+1,K), column l = Pi^{-1} (user-l scaling RHS)
    Lambda_kl: np.ndarray    # (K,K) bilinear cascaded-trace limits
    Psi_kl: np.ndarray       # (K,K)
    Cbar: float


def second_order_uncommon(F_list: np.ndarray, R: np.ndarray,
                          C_list: np.ndarray, p: np.ndarray,
                          sol: UncommonSolution) -> SecondOrderUncommon:
    """Second-order blocks at an RZF fixed point; F_list and C_list are the
    (K, M, M) and (K, L, L) stacks of F_k and C_k (lists work too)."""
    F = np.asarray(F_list)
    M = sol.m_norm
    mu, omega, delta = sol.mu, sol.omega, sol.delta
    pi = uncommon_pi(F, R, C_list, sol.Psi_R, sol.Psi_C, delta, omega, mu,
                     1.0, M)
    K, L = len(F), pi.D.shape[1]
    one_mu2 = (1.0 + mu) ** 2

    # chi vectors for I and every F_k
    chi_I = np.concatenate([pi.chi_FI, [pi.chi_RI]])
    chi_F = np.vstack([pi.chi_FF, pi.chi_FR[None, :]])   # (K+1, K): column l = chi(F_l)
    solve_pi = _checked(pi.Pi, "Pi")
    ups_I = solve_pi(chi_I)
    ups_F = solve_pi(chi_F)

    # Psi_{k,l}/L is the limit of tr(E_k Q E_l Q) with E_l = F_l/M + Z_l Z_l^H/L
    # the conditional covariance of user l. It equals -(1+mu_l)^2 times the
    # implicit derivative of mu_k when user l's covariances (F_l, C_l) are
    # scaled by (1+eps): the same Pi system with the explicit-dependence RHS.
    # Column l of the RHS: e_om[:, l], the explicit part of each omega_m, and
    # S_l, which enters through the omega R / delta term of Psi_R^{-1}
    one_mu = 1.0 + mu
    e_om = np.diag(omega) - pi.Xi / (L * one_mu[None, :])
    S = (np.sum(e_om / (M * delta * one_mu[:, None]), axis=0) if delta > 0
         else np.zeros(K))
    B_rhs = np.vstack([e_om - pi.chi_FF / (M * one_mu[None, :])
                       - np.outer(pi.chi_FR, S)
                       + np.diag(mu - omega),            # tr(F_l Psi_R)/M
                       -pi.chi_FR / (M * one_mu) - pi.chi_RR * S])
    W = solve_pi(B_rhs)
    # diagonal: scaling user l also scales its own test covariance, which
    # contributes +mu_l to d mu_l / d eps on top of the resolvent response
    Psi_kl = -L * one_mu2[None, :] * (W[:K] - np.diag(mu))
    Lambda_kl = Psi_kl - (L / M) * ups_F[:K, :].T        # strip (L/M) Ups_l(F_k)
    Psi_kl = _clip_psi(Psi_kl)

    Cbar = float(np.sum(p * ups_I[:K] / (M * one_mu2)))

    return SecondOrderUncommon(**vars(pi), sol=sol, F=F, R=R, ups_I=ups_I,
                               ups_F=ups_F, W=W, Lambda_kl=Lambda_kl,
                               Psi_kl=Psi_kl, Cbar=Cbar)


def sinr_rzf_uncommon(sol: UncommonSolution, F_list, R, C_list,
                      p: np.ndarray, sigma2: float,
                      so: SecondOrderUncommon | None = None,
                      digest: dict | None = None):
    """Per-user RZF SINR and ESR, per-user-correlation regime."""
    if so is None:
        so = second_order_uncommon(F_list, R, C_list, p, sol)
    sinr, _ = rzf_sinr(so.Psi_kl, so.Cbar, sol.mu, p, sigma2, so.D.shape[1])
    return _report(sinr, "rzf/uncommon", digest, sol), so


def sinr_zf_uncommon(sol: UncommonSolution, p: np.ndarray, sigma2: float,
                     digest: dict | None = None) -> RateReport:
    """ZF SINR: gamma_k = p_k / (sigma^2 sum_l p_l / (M mu_l))."""
    sinr = zf_sinr(sol.mu, p, sigma2, sol.m_norm)
    return _report(sinr, "zf/uncommon", digest, sol)


# ---------------------------------------------------------------------------
# second-order terms, shared correlation (common)
# ---------------------------------------------------------------------------

@dataclass
class CommonPi:
    """Trace tables and the 3x3 Pi_com of the shared-correlation system."""

    chi_RR: float
    chi_RF: float
    chi_FF: float
    chi_RI: float
    chi_FI: float
    eta_TT: float
    eta_TU: float
    eta_UU: float
    Xi: float
    Xi_I: float
    Pi_com: np.ndarray       # (3,3)


def common_pi(F, R, C, u, t, sol) -> CommonPi:
    """Pi_com at a shared-correlation fixed point, RZF or ZF.

    A ZF solution (the underlined scalars) gives its own Pi_com; 1 + mu
    versus mu enters only through sol.psi_T.
    """
    M = sol.m_norm
    L = C.shape[0]
    delta, omega, omega_bar = sol.delta, sol.omega, sol.omega_bar
    Psi_R, Psi_C, psi_T = sol.Psi_R, sol.Psi_C, sol.psi_T
    dinv = 0.0 if delta == 0 else 1.0 / delta
    dinv2 = dinv * dinv

    RP = R @ Psi_R
    FP = F @ Psi_R
    CP = C @ Psi_C
    chi_RR = float(np.real(np.einsum("ij,ji->", RP, RP)) / M)
    chi_RF = float(np.real(np.einsum("ij,ji->", RP, FP)) / M)
    chi_FF = float(np.real(np.einsum("ij,ji->", FP, FP)) / M)
    chi_RI = float(np.real(np.einsum("ij,ji->", RP, Psi_R)) / M)
    chi_FI = float(np.real(np.einsum("ij,ji->", FP, Psi_R)) / M)

    psi2 = psi_T ** 2
    eta_TT = float(np.sum(t * t * psi2) / L)
    eta_TU = float(np.sum(t * u * psi2) / L)
    eta_UU = float(np.sum(u * u * psi2) / L)

    Xi = float(np.real(np.einsum("ij,ji->", CP, CP)) / L)
    Xi_I = float(np.real(np.einsum("ij,ji->", CP, Psi_C)) / L)

    def ups(chi_RA, chi_FA):
        return (L * omega * dinv / M) * chi_RA * eta_TU + (L / M) * chi_FA * eta_UU

    def lam(chi_RA, chi_FA):
        return (L / M) * chi_FA * eta_TU - (L * dinv / M) * chi_RA \
            * (omega_bar - omega * eta_TT)

    a = (L * omega * omega_bar / (M * delta ** 2)) if delta > 0 else 0.0
    Pi_com = np.array([
        [1.0 - a * chi_RR, -ups(chi_RR, chi_RF), -lam(chi_RR, chi_RF)],
        [-a * chi_RF, 1.0 - ups(chi_RF, chi_FF), -lam(chi_RF, chi_FF)],
        [-Xi_I * dinv2, -Xi * eta_TU, 1.0 - Xi * eta_TT],
    ])
    return CommonPi(chi_RR=chi_RR, chi_RF=chi_RF, chi_FF=chi_FF, chi_RI=chi_RI,
                    chi_FI=chi_FI, eta_TT=eta_TT, eta_TU=eta_TU, eta_UU=eta_UU,
                    Xi=Xi, Xi_I=Xi_I, Pi_com=Pi_com)


@dataclass
class SecondOrderCommon(CommonPi):
    sol: CommonSolution
    F: np.ndarray
    R: np.ndarray
    C: np.ndarray
    u: np.ndarray
    t: np.ndarray
    p: np.ndarray
    eta_PT: float
    eta_PU: float
    Delta: float
    x_R: np.ndarray          # Pi_com^{-1} [chi(R,R), chi(F,R), 0]
    x_F: np.ndarray
    x_I: np.ndarray
    lam_zz: float            # limit of (1/L)tr(Z Z^H Q Z Z^H Q)
    Psi_kl: np.ndarray       # (K,K)
    Cbar: float


def second_order_common(F, R, C, u, t, p, sol: CommonSolution) -> SecondOrderCommon:
    M = sol.m_norm
    L = C.shape[0]
    u = np.asarray(u, dtype=float)
    t = np.asarray(t, dtype=float)
    p = np.asarray(p, dtype=float)
    pi = common_pi(F, R, C, u, t, sol)
    Xi, Xi_I = pi.Xi, pi.Xi_I
    dinv = 0.0 if sol.delta == 0 else 1.0 / sol.delta
    dinv2 = dinv * dinv

    psi2 = sol.psi_T ** 2
    eta_PT = float(np.sum(p * t * psi2) / L)
    eta_PU = float(np.sum(p * u * psi2) / L)
    Delta = 1.0 - Xi * pi.eta_TT

    solve_pi = _checked(pi.Pi_com, "Pi_com")
    x_R = solve_pi(np.array([pi.chi_RR, pi.chi_RF, 0.0]))
    x_F = solve_pi(np.array([pi.chi_RF, pi.chi_FF, 0.0]))
    x_I = solve_pi(np.array([pi.chi_RI, pi.chi_FI, 0.0]))

    tt = np.outer(t, t)
    tu = np.outer(t, u)       # tu[k,l] = t_k u_l
    uu = np.outer(u, u)
    lam_zz = (Xi + (L / M) * Xi * pi.eta_TU * x_F[2] + (L / M) * Xi_I * dinv2 * x_R[2]) / Delta
    Psi_kl = tt * lam_zz + (L / M) * (tu.T + tu) * x_F[2] + (L / M) * uu * x_F[1]
    Psi_kl = _clip_psi(Psi_kl)

    Cbar = (L / M) * (eta_PT * x_I[2] + eta_PU * x_I[1])

    return SecondOrderCommon(**vars(pi), sol=sol, F=F, R=R, C=C, u=u, t=t, p=p,
                             eta_PT=eta_PT, eta_PU=eta_PU, Delta=Delta,
                             x_R=x_R, x_F=x_F, x_I=x_I, lam_zz=float(lam_zz),
                             Psi_kl=Psi_kl, Cbar=float(Cbar))


def sinr_rzf_common(sol: CommonSolution, F, R, C, u, t, p, sigma2,
                    so: SecondOrderCommon | None = None,
                    digest: dict | None = None):
    """Per-user RZF SINR and ESR, shared-correlation regime."""
    if so is None:
        so = second_order_common(F, R, C, u, t, p, sol)
    mu = sol.mu_k(np.asarray(u, float), np.asarray(t, float))
    sinr, _ = rzf_sinr(so.Psi_kl, so.Cbar, mu, np.asarray(p, dtype=float),
                       sigma2, C.shape[0])
    return _report(sinr, "rzf/common", digest, sol), so


def sinr_zf_common(sol: CommonSolution, u, t, p, sigma2,
                   digest: dict | None = None) -> RateReport:
    """ZF SINR, shared correlation: gamma_k = p_k / (sigma^2 sum_l p_l/(M mu_l))."""
    mu = sol.mu_k(np.asarray(u, float), np.asarray(t, float))
    sinr = zf_sinr(mu, np.asarray(p, dtype=float), sigma2, sol.m_norm)
    return _report(sinr, "zf/common", digest, sol)


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
