"""Exact-sample Monte-Carlo oracle: precoders, instantaneous SINR, ESR.

The ESR estimator reads every trial's rates off the users' K x K Gram
H^H H: with the precoder H X, H^H (H X) = Gram X and ||H x_k||^2 =
(X Gram X)_kk, so each trial takes one K x K inverse X and no M x K
precoder. RZF takes X = (Gram + z I)^{-1}, where Gram X = I - z X; ZF takes
the Gram inverse its rank certificate checks; MRT reads everything off the
Gram. RZF with K > M, where Gram + z I is singular up to z, forms its
precoder on the antennas' side. `build_precoder` (unit-trace, tr(G P G^H)
= 1) and `instantaneous_sinr` form the precoder and SINRs explicitly; they
are the reference the block rates are tested against. The ESR estimator
uses the per-antenna convention tr(G P G^H) = M, which is the
normalization the deterministic equivalents are written in;
test_montecarlo pins the exact factor-M relation between the two
conventions so it cannot drift silently.

Trials run batched: each draws from a counter-based RNG substream keyed by
(seed, trial index), and a block's channels, Grams and SINRs are (T, ...)
stacks, so per-trial rates are bit-identical however trials are blocked. A
block's draw re-keys one Philox per trial instead of building a generator
per trial (`channel.trial_rng` defines the stream). One call evaluates
several (precoder, sigma^2, z) cases on each drawn block, so cases that
differ in sigma^2 or precoder share their draws. ZF takes an SVD only for
a block its Gram inverse leaves uncertified; the resolvent probe works on
L x L Grams. `threads` is accepted and parallelizes nothing.
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


def _zf_inverse(H: np.ndarray, Gram: np.ndarray) -> np.ndarray:
    """(H^H H)^{-1} of every trial of a (T, M, K) stack, given its Gram.

    Full rank is certified by (sigma_max/sigma_min)^2 <= ||H||_F^2
    ||(H^H H)^{-1}||_F <= 1/RANK_TOL, or else by an SVD: FeasibilityError
    where sigma_min/sigma_max < RANK_TOL, or where M < K.
    """
    M, K = H.shape[-2:]
    if M < K:
        raise FeasibilityError(f"ZF infeasible: M={M} < K={K}")
    try:
        Ginv = np.linalg.inv(Gram)
    except np.linalg.LinAlgError:       # exactly singular: the SVD decides
        Ginv = None
    if Ginv is None or not np.all(np.linalg.norm(H, axis=(1, 2)) ** 2
                                  * np.linalg.norm(Ginv, axis=(1, 2))
                                  <= 1.0 / RANK_TOL):
        sv = np.linalg.svd(H, compute_uv=False)
        bad = np.flatnonzero(sv[:, -1] < RANK_TOL * sv[:, 0])
        if bad.size:
            t = bad[0]
            raise FeasibilityError(
                f"ZF infeasible: H numerically rank deficient "
                f"(sigma_min/sigma_max = {sv[t, -1] / sv[t, 0]:.3e})")
    return np.linalg.inv(Gram) if Ginv is None else Ginv


def _rzf_antenna_side(H: np.ndarray, z: float) -> np.ndarray:
    """H (H^H H + z I_K)^{-1} = (H H^H + z I_M)^{-1} H, solved on the
    antennas' side: the accurate form where K > M."""
    return np.linalg.solve(H @ _herm_t(H) + z * np.eye(H.shape[-2]), H)


def _check_rzf(z: float | None) -> None:
    if z is None or z <= 0:
        raise ValueError("rzf needs a positive regularization z")


def build_precoder(H: np.ndarray, kind: str, p: np.ndarray,
                   z: float | None = None) -> np.ndarray:
    """Linear precoder scaled so tr(G P G^H) = 1.

    rzf: H (H^H H + z I_K)^{-1} = (H H^H + z I_M)^{-1} H, solved on the
    smaller Gram: K x K when K <= M, else M x M (each side's form is the
    accurate one there); zf: H (H^H H)^{-1}, full rank certified as in
    `_zf_inverse`; mrt: H. H is one (M, K) channel or a (T, M, K) stack of
    them; each trial is scaled on its own.
    """
    Hs = H[None] if H.ndim == 2 else H
    M, K = Hs.shape[-2:]
    p = np.asarray(p, dtype=float)
    if kind == "rzf":
        _check_rzf(z)
        if K <= M:      # H A^{-1} = (A^{-1} H^H)^H for the Hermitian A
            Hh = _herm_t(Hs)
            G0 = _herm_t(np.linalg.solve(Hh @ Hs + z * np.eye(K), Hh))
        else:
            G0 = _rzf_antenna_side(Hs, z)
    elif kind == "zf":
        G0 = Hs @ _zf_inverse(Hs, _herm_t(Hs) @ Hs)
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


def _block_rates(H: np.ndarray, Gram: np.ndarray, kind: str,
                 z: float | None, p: np.ndarray,
                 sigma2s: tuple[float, ...]) -> np.ndarray:
    """Sum rates (S, T) of a (T, M, K) block at each of the S noise powers
    sigma2s, for the precoder H X at tr(G P G^H) = M, from Gram = H^H H.

    With B = H^H (H X) and the power P = sum_k p_k ||H x_k||^2,
    gamma_k = p_k |B_kk|^2 / (sum_{i != k} p_i |B_ki|^2 + sigma^2 P / M):
    the SINRs of `instantaneous_sinr` at sqrt(M / P) H X. rzf (K <= M):
    X = (Gram + z I)^{-1}, B = I - z X, ||H x_k||^2 = X_kk - z sum_j
    |X_kj|^2, where a user without a channel (Gram_kk = 0) gets a zero row
    of B and no power, as from its explicit precoder; zf: B = I and
    ||H x_k||^2 = X_kk; mrt: B = Gram. A trial without power keeps P = 1
    (its SINRs are zero)."""
    M, K = H.shape[-2:]
    if kind == "rzf" and K <= M:
        _check_rzf(z)
        X = np.linalg.inv(Gram + z * np.eye(K))
        B = np.eye(K) - z * X
        norms = np.diagonal(X, axis1=-2, axis2=-1).real \
            - z * (np.abs(X) ** 2).sum(axis=-1)
        no_channel = np.diagonal(Gram, axis1=-2, axis2=-1).real == 0.0
        if no_channel.any():
            B = np.where(no_channel[..., None], 0.0, B)
            norms = np.where(no_channel, 0.0, norms)
    elif kind == "rzf":
        _check_rzf(z)
        G0 = _rzf_antenna_side(H, z)
        B = _herm_t(H) @ G0
        norms = np.einsum("tmk,tmk->tk", G0.conj(), G0).real
    elif kind == "zf":
        B = None
        norms = np.diagonal(_zf_inverse(H, Gram), axis1=-2, axis2=-1).real
    elif kind == "mrt":
        B = Gram
        norms = np.diagonal(Gram, axis1=-2, axis2=-1).real
    else:
        raise ValueError(f"unknown precoder kind {kind!r}")
    power = (p * norms).sum(axis=-1)
    noise = np.where(power == 0.0, 1.0, power)[:, None] / M
    if B is None:                           # zero forcing: no interference
        signal, interference = np.broadcast_to(p, norms.shape), 0.0
    else:
        powers = p * np.abs(B) ** 2
        signal = np.diagonal(powers, axis1=-2, axis2=-1)
        interference = powers.sum(axis=-1) - signal
    sigma2s = np.asarray(sigma2s, dtype=float)[:, None, None]
    gam = signal / (interference + sigma2s * noise)
    return np.log2(1.0 + gam).sum(axis=-1)


def _blocks(trials: int, block: int | None = None):
    """(lo, hi) trial ranges of at most `block` (default _BLOCK) trials."""
    block = block or _BLOCK
    return ((lo, min(lo + block, trials)) for lo in range(0, trials, block))


def _trial_rates(sampler: ChannelSampler, p, cases, seed, trials,
                 block: int | None = None) -> np.ndarray:
    """Sum rate of every trial for each (kind, sigma2, z) case, as a
    (len(cases), trials) array, computed block by block on stacks: each
    block is drawn once and its Gram formed once for every case, and the
    cases of one precoder (one kind and z) share its inverse."""
    groups: dict[tuple, list] = {}
    for i, (kind, sigma2, z) in enumerate(cases):
        key = (kind, z if kind == "rzf" else None)
        groups.setdefault(key, []).append((i, sigma2))
    p = np.asarray(p, dtype=float)
    rates = np.empty((len(cases), trials))
    for lo, hi in _blocks(trials, block):
        H = sampler.draw(range(lo, hi), seed).H
        Gram = _herm_t(H) @ H
        for (kind, z), members in groups.items():
            rows, sigma2s = zip(*members)
            rates[list(rows), lo:hi] = _block_rates(H, Gram, kind, z, p,
                                                    sigma2s)
    return rates


def _estimate(rates: np.ndarray, seed: int) -> EsrEstimate:
    """Mean, standard error and 95% half-width of per-trial sum rates."""
    trials = len(rates)
    mean = float(np.add.reduce(rates) / trials)
    var = float(np.add.reduce((rates - mean) ** 2) / (trials - 1))
    stderr = np.sqrt(var / trials)
    return EsrEstimate(mean=mean, stderr=stderr, ci95=1.96 * stderr,
                       trials=trials, seed=seed)


def _empirical_esrs(scenario: Scenario, s: np.ndarray | None,
                    phi: np.ndarray | None, cases, trials: int,
                    seed: int) -> list[EsrEstimate]:
    """One `EsrEstimate` per (kind, sigma2, z) case, all on the same draws
    of `scenario` (whose own sigma2 is not used); each equals the
    `empirical_esr` of the scenario at that sigma2, bit for bit."""
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard error")
    sampler = ChannelSampler(scenario, s, phi)
    return [_estimate(rates, seed) for rates in
            _trial_rates(sampler, scenario.p, cases, seed, trials)]


def empirical_esr(scenario: Scenario, s: np.ndarray | None,
                  phi: np.ndarray | None, kind: str, trials: int, seed: int,
                  z: float | None = None, threads: int = 1) -> EsrEstimate:
    """Monte-Carlo ESR estimate with standard error.

    The per-antenna power convention (tr(G P G^H) = M) matches the
    deterministic equivalents. Trials run batched (see the module notes);
    `threads` is accepted for compatibility only.
    """
    return _empirical_esrs(scenario, s, phi, [(kind, scenario.sigma2, z)],
                           trials, seed)[0]


def resolvent_probe(scenario: Scenario, s: np.ndarray | None,
                    phi: np.ndarray | None, z: float, trials: int,
                    seed: int) -> ResolventProbe:
    """Monte-Carlo estimates of the first/second-order resolvent traces.

    Q = (z I + H H^H)^{-1}; Z_k is the cascaded factor R^{1/2} X C_k^{+/2}.
    Used to validate the fixed-point solutions (first order) and the
    Pi/Delta interference blocks (second order, bilinear traces).
    With A = Q R^{1/2} X and the L x L Grams D = (R^{1/2} X)^H A, E = A^H A:
    omega_k = tr(C_k D) / L, ups_I_k = tr(C_k E) / L + tr(F_k Q^2) / M and
    lambda[k,l] = tr(C_k D C_l D) / L + tr(C_k A^H F_l A) / M. Q, Q^2, D, E
    and A^H F_l A are summed over trials before their traces are taken; the
    pairs tr(P_k P_l) of P = C D are taken per trial, on (K, L, L) stacks.
    """
    if trials < 1:
        raise ValueError("resolvent probe needs at least 1 trial")
    if z <= 0:
        raise ValueError("resolvent probe needs z > 0")
    sampler = ChannelSampler(scenario, s, phi)
    M, K, L = sampler.M, sampler.K, sampler.L
    # gain-weighted direct covariances F_k = u_k F_{c,k} and cascaded Grams
    F, R, C, _ = scenario.stats_uncommon(s, phi)

    Q_sums = np.zeros((2, M, M), dtype=complex)     # sums of Q and Q^2
    DE_sums = np.zeros((2, L, L), dtype=complex)    # sums of D and E
    G = np.zeros((K, L, L), dtype=complex)          # sums of A^H F_l A
    lam_acc = np.zeros((K, K))
    C_rows, F_rows = C.reshape(-1, L), F.reshape(-1, M)
    for lo, hi in _blocks(trials):
        sample = sampler.draw(range(lo, hi), seed)
        Q = np.linalg.inv(z * np.eye(M) + sample.H @ _herm_t(sample.H))
        RX = sampler.R_half @ sample.X
        A = Q @ RX                                      # (T, M, L)
        D = _herm_t(RX) @ A                             # (T, L, L)
        for A_t, D_t in zip(A, D):
            P = (C_rows @ D_t).reshape(K, L, L)         # P_k = C_k D
            lam_acc += _pair_traces(P, P)
            G += _herm_t(A_t) @ (F_rows @ A_t).reshape(K, M, L)
        DE_sums += [D.sum(axis=0), np.tensordot(A.conj(), A, ([0, 1], [0, 1]))]
        Q_sums += [Q.sum(axis=0), (Q @ Q).sum(axis=0)]
        del sample, Q, RX, A, D, A_t, D_t, P    # free before the next draw
    omega, upsZ = _pair_traces(C, DE_sums).T / (trials * L)
    trF, trF2 = _pair_traces(F, Q_sums).T / (trials * M)
    tr_RQ = np.real(np.vdot(R, Q_sums[0]))
    return ResolventProbe(
        z=z, trials=trials, delta_hat=float(tr_RQ) / (trials * M),
        omega_hat=omega, mu_hat=trF + omega, ups_I_hat=upsZ + trF2,
        lambda_hat=(lam_acc / L + _pair_traces(C, G) / M) / trials)
