"""Exact-sample Monte-Carlo oracle: precoders, instantaneous SINR, ESR.

Per realization this builds the RZF/ZF/MRT precoder, normalizes it, and
evaluates the instantaneous SINRs. Precoders returned by build_precoder are
unit-trace (tr(G P G^H) = 1). The ESR estimator then rescales to the
per-antenna convention tr(G P G^H) = M, which is the normalization the
deterministic equivalents are written in; test_montecarlo pins the exact
factor-M relation between the two conventions so it cannot drift silently.

Trials run batched: each draws from a counter-based RNG substream keyed by
(seed, trial index), and a block's channels, precoders and SINRs are
(T, ...) stacks, so per-trial rates are bit-identical however trials are
blocked. A block's draw re-keys one Philox per trial instead of building a
generator per trial (`channel.trial_rng` defines the stream). RZF solves
its regularized Gram on the users' side (K x K) when K <= M. `threads` is
accepted for compatibility and parallelizes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSampler, Scenario
from .fixed_point import FeasibilityError
from .rates import _pair_traces

RANK_TOL = 1e-10
_BLOCK = 16         # trials per stacked block; bounds the stacks' memory


@dataclass(frozen=True)
class EsrEstimate:
    mean: float
    stderr: float
    ci95: float
    trials: int
    seed: int


@dataclass
class ResolventProbe:
    """Monte-Carlo averages of the resolvent trace functionals.

    first-order: delta_hat ~ (1/M)tr(R Q), omega_hat_k ~ (1/L)tr(Z_k Z_k^H Q),
    mu_hat_k adds (1/M)tr(F_k Q). second-order: ups_I_hat_k for K = I_M and
    the bilinear lambda_hat[k,l].
    """

    z: float
    trials: int
    delta_hat: float
    omega_hat: np.ndarray
    mu_hat: np.ndarray
    ups_I_hat: np.ndarray
    lambda_hat: np.ndarray


def _herm_t(A: np.ndarray) -> np.ndarray:     # conjugate transpose, stacked
    return np.swapaxes(A.conj(), -1, -2)


def build_precoder(H: np.ndarray, kind: str, p: np.ndarray,
                   z: float | None = None) -> np.ndarray:
    """Linear precoder scaled so tr(G P G^H) = 1.

    rzf: H (H^H H + z I_K)^{-1} = (H H^H + z I_M)^{-1} H, solved on the
    smaller Gram: K x K when K <= M, else M x M (each side's form is the
    accurate one there); zf: H (H^H H)^{-1}; mrt: H. H is one (M, K)
    channel or a (T, M, K) stack of them; each trial is scaled on its own.
    """
    Hs = H[None] if H.ndim == 2 else H
    M, K = Hs.shape[-2:]
    p = np.asarray(p, dtype=float)
    if kind == "rzf":
        if z is None or z <= 0:
            raise ValueError("rzf needs a positive regularization z")
        if K <= M:      # H A^{-1} = (A^{-1} H^H)^H for the Hermitian A
            Hh = _herm_t(Hs)
            G0 = _herm_t(np.linalg.solve(Hh @ Hs + z * np.eye(K), Hh))
        else:
            G0 = np.linalg.solve(Hs @ _herm_t(Hs) + z * np.eye(M), Hs)
    elif kind == "zf":
        if M < K:
            raise FeasibilityError(f"ZF infeasible: M={M} < K={K}")
        sv = np.linalg.svd(Hs, compute_uv=False)
        bad = np.flatnonzero(sv[:, -1] < RANK_TOL * sv[:, 0])
        if bad.size:
            t = bad[0]
            raise FeasibilityError(
                f"ZF infeasible: H numerically rank deficient "
                f"(sigma_min/sigma_max = {sv[t, -1] / sv[t, 0]:.3e})")
        G0 = Hs @ np.linalg.inv(_herm_t(Hs) @ Hs)
    elif kind == "mrt":
        G0 = Hs.copy()
    else:
        raise ValueError(f"unknown precoder kind {kind!r}")
    power = np.real(np.einsum("tmk,k,tmk->t", G0.conj(), p, G0))
    # a zero channel keeps G0: its SINRs are zero for any scaling
    G = G0 / np.sqrt(np.where(power == 0.0, 1.0, power))[:, None, None]
    return G[0] if H.ndim == 2 else G


def instantaneous_sinr(H: np.ndarray, G: np.ndarray, p: np.ndarray,
                       sigma2: float) -> np.ndarray:
    """gamma_k = p_k |h_k^H g_k|^2 / (sum_{i != k} p_i |h_k^H g_i|^2 + sigma^2).

    H and G are (M, K) or (T, M, K) stacks; the SINRs are (K,) or (T, K).
    """
    A = _herm_t(H) @ G                      # A[..., k, i] = h_k^H g_i
    powers = np.asarray(p, dtype=float) * np.abs(A) ** 2
    signal = np.diagonal(powers, axis1=-2, axis2=-1).copy()
    interference = powers.sum(axis=-1) - signal
    return signal / (interference + sigma2)


def _blocks(trials: int, block: int | None = None):
    """(lo, hi) trial ranges of at most `block` (default _BLOCK) trials."""
    block = block or _BLOCK
    return ((lo, min(lo + block, trials)) for lo in range(0, trials, block))


def _trial_rates(sampler: ChannelSampler, p, sigma2, kind, z, seed,
                 trials, block: int | None = None) -> np.ndarray:
    """Sum rate of every trial, computed block by block on stacks."""
    m_scale = np.sqrt(sampler.M)
    rates = np.empty(trials)
    for lo, hi in _blocks(trials, block):
        H = sampler.draw(range(lo, hi), seed).H
        G = build_precoder(H, kind, p, z)
        gam = instantaneous_sinr(H, m_scale * G, p, sigma2)
        rates[lo:hi] = np.log2(1.0 + gam).sum(axis=-1)
    return rates


def empirical_esr(scenario: Scenario, s: np.ndarray | None,
                  phi: np.ndarray | None, kind: str, trials: int, seed: int,
                  z: float | None = None, threads: int = 1) -> EsrEstimate:
    """Monte-Carlo ESR estimate with standard error.

    The per-antenna power convention (tr(G P G^H) = M) matches the
    deterministic equivalents; it is applied by scaling the unit-trace
    precoder by sqrt(M) before the SINR evaluation. Trials run batched (see
    the module notes); `threads` is accepted for compatibility only.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard error")
    sampler = ChannelSampler(scenario, s, phi)
    rates = _trial_rates(sampler, scenario.p, scenario.sigma2, kind, z, seed,
                         trials)
    mean = float(np.add.reduce(rates) / trials)
    var = float(np.add.reduce((rates - mean) ** 2) / (trials - 1))
    stderr = np.sqrt(var / trials)
    return EsrEstimate(mean=mean, stderr=stderr, ci95=1.96 * stderr,
                       trials=trials, seed=seed)


def resolvent_probe(scenario: Scenario, s: np.ndarray | None,
                    phi: np.ndarray | None, z: float, trials: int,
                    seed: int) -> ResolventProbe:
    """Monte-Carlo estimates of the first/second-order resolvent traces.

    Q = (z I + H H^H)^{-1}; Z_k is the cascaded factor R^{1/2} X C_k^{+/2}.
    Used to validate the fixed-point solutions (first order) and the
    Pi/Delta interference blocks (second order, bilinear traces).
    With B_k = Z_k Z_k^H = (R^{1/2} X) C_k (R^{1/2} X)^H, U_k = Q B_k and
    V_k = U_k Q: omega_k = tr U_k / L, ups_I_k = tr V_k / L + tr(F_k Q^2) / M
    and lambda[k,l] = tr(U_k U_l) / L + tr(V_k F_l) / M. Terms linear in Q,
    Q^2 or V_k are summed over trials before their traces are taken.
    """
    if trials < 1:
        raise ValueError("resolvent probe needs at least 1 trial")
    if z <= 0:
        raise ValueError("resolvent probe needs z > 0")
    sampler = ChannelSampler(scenario, s, phi)
    M, K, L = sampler.M, sampler.K, sampler.L
    # gain-weighted direct covariances F_k = u_k F_{c,k} and cascaded Grams
    F = sampler.F_half @ _herm_t(sampler.F_half)
    C = sampler.C_half @ _herm_t(sampler.C_half)

    Q_sums = np.zeros((2, M, M), dtype=complex)     # sums of Q and Q^2
    V_sum = np.zeros((K, M, M), dtype=complex)
    omega_acc, upsZ_acc, lam_acc = np.zeros(K), np.zeros(K), np.zeros((K, K))
    for lo, hi in _blocks(trials):
        sample = sampler.draw(range(lo, hi), seed)
        Q = np.linalg.inv(z * np.eye(M) + sample.H @ _herm_t(sample.H))
        RX = (sampler.R_half @ sample.X)[:, None]       # (T, 1, M, L)
        U = Q[:, None] @ (RX @ C @ _herm_t(RX))         # (T, K, M, M)
        V = U @ Q[:, None]
        omega_acc += np.einsum("tkii->k", U).real
        upsZ_acc += np.einsum("tkii->k", V).real
        lam_acc += _pair_traces(U, U).sum(axis=0)
        Q_sums += [Q.sum(axis=0), (Q @ Q).sum(axis=0)]
        V_sum += V.sum(axis=0)
    omega = omega_acc / (trials * L)
    trF, trF2 = _pair_traces(F, Q_sums).T / (trials * M)
    tr_RQ = np.real(np.vdot(scenario.select_R(s), Q_sums[0]))
    return ResolventProbe(
        z=z, trials=trials, delta_hat=float(tr_RQ) / (trials * M),
        omega_hat=omega, mu_hat=trF + omega,
        ups_I_hat=upsZ_acc / (trials * L) + trF2,
        lambda_hat=(lam_acc / L + _pair_traces(V_sum, F) / M) / trials)
