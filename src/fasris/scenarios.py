"""Reference scenarios: the published evaluation setups and random factories.

Distance/gain bookkeeping follows the simulation settings: reference path
loss -20 dB at 1 m, exponents 2.1 (BS-RIS, RIS-user) and 3.2 (BS-user),
BS-RIS distance 5 m, and BS-user distances from the cosine rule with a 150
degree angle between the BS-RIS and RIS-user links.
"""

from __future__ import annotations

import numpy as np

from .channel import (CorrelationSet, Dimensions, PathLossParams,
                      PlanarFasGeometry, RisAngularProfile, Scenario, db2lin,
                      fas_correlation_matrix, herm, path_loss,
                      ris_correlation_matrices)

REF_GAIN = db2lin(-20.0)          # -20 dB at 1 m
EXP_BS_RIS = 2.1
EXP_RIS_USER = 2.1
EXP_BS_USER = 3.2
D_BS_RIS = 5.0
LINK_ANGLE_DEG = 150.0


def bs_user_distance(d_ris_user: float, d_bs_ris: float = D_BS_RIS) -> float:
    """Cosine-rule BS-user distance for the bent BS-RIS-user geometry."""
    ang = np.deg2rad(LINK_ANGLE_DEG)
    return float(np.sqrt(d_bs_ris ** 2 + d_ris_user ** 2
                         - 2.0 * np.cos(ang) * d_bs_ris * d_ris_user))


def direct_gain(d_bs_user: float) -> float:
    return path_loss(PathLossParams(REF_GAIN, EXP_BS_USER, d_bs_user))


def cascaded_gain(d_ris_user: float, d_bs_ris: float = D_BS_RIS) -> float:
    """Two-hop product path loss BS-RIS times RIS-user."""
    return path_loss(PathLossParams(REF_GAIN, EXP_BS_RIS, d_bs_ris)) \
        * path_loss(PathLossParams(REF_GAIN, EXP_RIS_USER, d_ris_user))


def ris_leg_gain(d_ris_user: float) -> float:
    return path_loss(PathLossParams(REF_GAIN, EXP_RIS_USER, d_ris_user))


# ---------------------------------------------------------------------------
# published evaluation scenarios
# ---------------------------------------------------------------------------

def fig1_scenario(M: int, sigma2_inv_db: float, K: int = 12,
                  L: int = 32) -> Scenario:
    """Per-user-correlation ESR-accuracy setup (M in {16, 20, 24})."""
    d_ris = np.array([20.0 + (i // 2) for i in range(K)])
    d_bs = np.array([bs_user_distance(d) for d in d_ris])
    u = np.array([direct_gain(d) for d in d_bs])
    t = np.array([cascaded_gain(d) for d in d_ris])
    # F_1..F_K, C_R,1..C_R,K, C_L and R in one batched quadrature
    mats = ris_correlation_matrices(
        [RisAngularProfile(0.5, 10.0 + 2.0 * i, 30.0, M) for i in range(K)]
        + [RisAngularProfile(0.5, 5.0 + 10.0 * i, 30.0, L) for i in range(K)]
        + [RisAngularProfile(0.5, 5.0, 30.0, L),
           RisAngularProfile(0.5, 10.0, 5.0, M)])
    F_list, CR_list, (C_L, R) = mats[:K], mats[K:2 * K], mats[2 * K:]
    corr = CorrelationSet(R_tot=R, F_tot=F_list, C_L=C_L, C_R=CR_list)
    return Scenario(dims=Dimensions(M=M, K=K, L=L), correlations=corr,
                    u=u, t=t, p=np.ones(K), sigma2=db2lin(-sigma2_inv_db),
                    name=f"fig1_M{M}")


def fig2_scenario(case: int, scale: int, sigma2_inv_db: float = 80.0) -> Scenario:
    """Size-scaling setup: (M,K,L) = scale x (8,6,16) or scale x (12,6,16)."""
    base = (8, 6, 16) if case == 1 else (12, 6, 16)
    M, K, L = (scale * b for b in base)
    return fig1_scenario(M, sigma2_inv_db, K=K, L=L)


def fig3_scenario(sigma2_inv_db: float, K: int = 8, L: int = 32,
                  W: float = 2.0, N: int = 10) -> tuple[Scenario, int]:
    """Optimization setup: planar FAS with M_tot = N^2 ports, M = 20 selected.

    The per-user large-scale gains use the single-hop leg path losses
    (U from the BS-user leg, T from the RIS-user leg) as in the published
    optimization experiments. Returns (scenario, M).
    """
    M = 20
    geom = PlanarFasGeometry(W_x=W, W_y=W, N_x=N, N_y=N)
    R_tot = fas_correlation_matrix(geom)
    C_L, C_R = ris_correlation_matrices([RisAngularProfile(0.5, 60.0, 5.0, L),
                                         RisAngularProfile(0.5, 30.0, 5.0, L)])
    d_ris = np.array([20.0 + (k // 4) for k in range(K)])
    d_bs = np.array([bs_user_distance(d) for d in d_ris])
    t = np.array([ris_leg_gain(d) for d in d_ris])
    u = np.array([direct_gain(d) for d in d_bs])
    p = np.array([(k // 2) + 1.0 for k in range(K)])
    corr = CorrelationSet(R_tot=R_tot, F_tot=R_tot.copy(), C_L=C_L, C_R=C_R)
    sc = Scenario(dims=Dimensions(M=M, K=K, L=L, M_tot=N * N),
                  correlations=corr, u=u, t=t, p=p,
                  sigma2=db2lin(-sigma2_inv_db), name=f"fig3_K{K}")
    return sc, M


def fig6_scenario(K: int, sigma2_inv_db: float, L: int = 32) -> tuple[Scenario, int]:
    """User-count sweep: homogeneous gains from the first-user distances."""
    sc, M = fig3_scenario(sigma2_inv_db, K=K, L=L)
    t1 = ris_leg_gain(20.0)
    u1 = direct_gain(22.9)
    sc.u = np.full(K, u1)
    sc.t = np.full(K, t1)
    sc.p = np.ones(K)
    sc.name = f"fig6_K{K}"
    return sc, M


def fig8_scenario(sigma2_inv_db: float) -> tuple[Scenario, int]:
    """Homogeneous regularizer-search setup (M = 20, L = 32, K = 24)."""
    sc, M = fig6_scenario(24, sigma2_inv_db)
    sc.name = "fig8"
    return sc, M


def uniform_selection(M: int, M_tot: int) -> np.ndarray:
    """Index-uniform baseline: ports 1 + (m-1) floor(M_tot/(M-1)), m = 1..M."""
    if M == 1:
        s = np.zeros(M_tot)
        s[0] = 1.0
        return s
    step = M_tot // (M - 1)
    idx = np.array([(m - 1) * step for m in range(1, M + 1)])
    idx = np.minimum(idx, M_tot - 1)
    s = np.zeros(M_tot)
    s[np.unique(idx)] = 1.0
    # collisions from the floor can only happen for tiny M_tot; backfill
    i = 0
    while s.sum() < M:
        if s[i] == 0:
            s[i] = 1.0
        i += 1
    return s


# ---------------------------------------------------------------------------
# randomized factories (tests, gradient oracles)
# ---------------------------------------------------------------------------

def random_correlation(n: int, rng: np.random.Generator,
                       identity_mix: float = 0.3) -> np.ndarray:
    """Random Hermitian PSD with trace n and a conditioning floor; exactly
    Hermitian, as the per-user kernel, which reads one triangle, needs."""
    W = (rng.standard_normal((n, 2 * n))
         + 1j * rng.standard_normal((n, 2 * n))) / np.sqrt(2.0)
    A = W @ W.conj().T / (2 * n)
    A = (1.0 - identity_mix) * A + identity_mix * np.eye(n)
    return herm(A * (n / np.real(np.trace(A))))


def random_scenario(rng: np.random.Generator, mode: str, M: int, K: int,
                    L: int, M_tot: int | None = None,
                    sigma2: float = 0.3) -> Scenario:
    """O(1)-scale random scenario; gains in [0.3, 1.5], powers in [0.5, 2].

    mode "uncommon" draws per-user F_tot and C_R lists, "common"/"iid" one
    C_R and F_tot = R_tot, as the shared-correlation figures have.
    """
    if mode not in ("common", "uncommon", "iid"):
        raise ValueError(f"unknown correlation mode {mode!r}")
    n = M_tot if M_tot is not None else M
    R_tot = random_correlation(n, rng)
    C_L = random_correlation(L, rng)
    if mode == "uncommon":
        F_tot = [random_correlation(n, rng) for _ in range(K)]
        C_R = [random_correlation(L, rng) for _ in range(K)]
    else:
        F_tot = R_tot.copy()
        C_R = random_correlation(L, rng)
    corr = CorrelationSet(R_tot=R_tot, F_tot=F_tot, C_L=C_L, C_R=C_R)
    return Scenario(dims=Dimensions(M=M, K=K, L=L, M_tot=M_tot),
                    correlations=corr,
                    u=rng.uniform(0.5, 1.5, K),
                    t=rng.uniform(0.3, 0.9, K),
                    p=rng.uniform(0.5, 2.0, K),
                    sigma2=sigma2, name=f"random_{mode}")
