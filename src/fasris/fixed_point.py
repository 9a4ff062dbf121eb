"""Fixed-point systems behind the deterministic SINR equivalents.

Four solvers (RZF/ZF x per-user/shared correlation) plus the i.i.d. closed
form. One driver, `_picard`, runs a damped Picard iteration over a flat float
state, with the damping factor halved whenever the residual oscillates; a map
may ask for Anderson mixing first (every map but the shared ZF one does).
Each correlation regime supplies one map, evaluated in Gauss-Seidel order
(delta first, then the RIS-side traces, then the per-user scalars) and
parameterized by (z, shift): RZF is (z, 1) and ZF is the same map with
z -> 1 and 1 + mu -> mu, i.e. (1, 0). Each regime returns one solution type,
`UncommonSolution` or `CommonSolution`, whose `z` is None for ZF: its fields
are then the paper's underlined (scaled z -> 0) quantities. Solutions carry
the auxiliary inverse matrices needed by the second-order interference terms
downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .channel import herm

EPS = 1e-12
LOG_STEP = np.log(1e6)    # largest Anderson move past the Picard image, in log


class ConvergenceError(RuntimeError):
    def __init__(self, msg: str, residual: float):
        super().__init__(f"{msg} (residual {residual:.3e})")
        self.residual = residual


class FeasibilityError(ValueError):
    """System outside the solver's validity region (e.g. M < K for ZF)."""


@dataclass(frozen=True)
class SolverSettings:
    tol: float = 1e-10
    max_iter: int = 2000
    init: float = 1.0

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")


DEFAULT_SETTINGS = SolverSettings()


def _rel_change(new: np.ndarray, old: np.ndarray) -> float:
    return float(np.max(np.abs(new - old) / np.maximum(np.abs(new), EPS)))


# ---------------------------------------------------------------------------
# solution containers
# ---------------------------------------------------------------------------

@dataclass(kw_only=True)
class _Solution:
    """How the solve got there. `path` is "cold" (generic initial values),
    "warm" (the caller's x0) or "continuation" (z-continuation); `iterations`
    counts map evaluations and `halvings` damping halvings; `anderson` is
    "off", "converged" or "fallback" (a safeguard handed the solve to damped
    Picard). A continued solve reports `halvings` and `anderson` of its last
    step.
    """

    residual: float
    iterations: int
    m_norm: int
    path: str
    halvings: int
    anderson: str
    _state: ClassVar[tuple] = ()    # the fixed-point fields, in warm-start order

    @property
    def x0(self) -> dict:
        """Warm-start dict that reproduces the returned state."""
        return {name: getattr(self, name) for name in self._state}


@dataclass
class UncommonSolution(_Solution):
    z: float | None            # None for ZF
    delta: float
    mu: np.ndarray
    omega: np.ndarray
    Psi_R: np.ndarray
    Psi_C: np.ndarray
    _state = ("delta", "mu", "omega")


@dataclass
class CommonSolution(_Solution):
    z: float | None            # None for ZF
    delta: float
    kappa: float
    omega: float
    kappa_bar: float
    omega_bar: float
    Psi_R: np.ndarray
    Psi_C: np.ndarray
    psi_T: np.ndarray          # diagonal of (shift I + omega T + kappa U)^{-1}
    _state = ("delta", "kappa", "omega", "kappa_bar", "omega_bar")

    def mu_k(self, u: np.ndarray, t: np.ndarray) -> np.ndarray:
        return t * self.omega + u * self.kappa


@dataclass(frozen=True)
class IidSolution:
    u: float
    t: float
    c1: float
    c2: float
    alpha_val: float
    beta_val: float

    @property
    def mu(self) -> float:
        return (1.0 - self.c1) * self.beta_val


# ---------------------------------------------------------------------------
# the driver and the continuation wrapper
# ---------------------------------------------------------------------------

class _Anderson:
    """Anderson mixing (Walker & Ni 2011) of the log of the state.

    Entries that the first map output leaves at exactly zero (omega without
    a cascaded link) are structural: they stay zero and out of the log
    state. Called with each map output and its residual, it returns the next
    state, or None when a safeguard trips: a non-finite or nonpositive
    output, a mixed step more than LOG_STEP past the Picard image, or
    `depth` evaluations without a new best residual.
    """

    def __init__(self, depth: int):
        self.depth, self.live, self.y = depth, None, None
        self.gs, self.fs, self.best, self.stale = [], [], np.inf, 0

    def __call__(self, new, residual):
        if self.live is None:
            self.live = new != 0.0
        self.stale = 0 if residual < self.best else self.stale + 1
        self.best = min(self.best, residual)
        if self.stale >= self.depth or not (np.isfinite(new).all()
                                            and (new[self.live] > 0.0).all()):
            return None
        g = y = np.log(new[self.live])
        if self.y is not None:
            self.gs = [*self.gs[-self.depth:], g]
            self.fs = [*self.fs[-self.depth:], g - self.y]
            if len(self.fs) > 1:
                gamma = np.linalg.lstsq(np.diff(self.fs, axis=0).T,
                                        self.fs[-1], rcond=None)[0]
                y = g - np.diff(self.gs, axis=0).T @ gamma
        if not (np.abs(y - g) <= LOG_STEP).all():
            return None
        self.y = y
        x = np.zeros_like(new)
        x[self.live] = np.exp(y)
        return x


def _picard(system, x0: dict | None, settings: SolverSettings):
    """Damped Picard iteration of `system` from `x0` (or `settings.init`).

    The residual is the max relative change over the whole state. Adaptive
    damping halves the step (from 1 down to 1/256) when the residual grows
    or when the change in delta flips sign three times running. A map with
    `anderson` > 0 is mixed by `_Anderson` of that depth instead until a
    safeguard trips; damped Picard then goes on from the last mixed state,
    within the same `max_iter` budget.
    """
    x = system.start(x0, settings.init)
    mixer = _Anderson(system.anderson) if system.anderson else None
    anderson = "converged" if mixer else "off"
    d = 1.0
    residual, prev, prev_sign, flips, halvings = np.inf, np.inf, 0, 0, 0
    for it in range(1, settings.max_iter + 1):
        new = system(x)
        residual = _rel_change(new, x)
        if mixer and residual >= settings.tol:
            mixed = mixer(new, residual)
            if mixed is None:
                mixer, anderson = None, "fallback"
            else:
                x = mixed
            continue
        sign = int(np.sign(new[0] - x[0]))
        x = x + d * (new - x)
        flips = flips + 1 if sign != 0 and sign == -prev_sign else 0
        if (residual > prev or flips >= 3) and d > 1.0 / 256.0:
            d *= 0.5
            flips = 0
            halvings += 1
        prev = residual
        prev_sign = sign if sign != 0 else prev_sign
        if residual < settings.tol:
            return system.solution(x, residual=residual, iterations=it,
                                   path="warm" if x0 else "cold",
                                   halvings=halvings, anderson=anderson)
    raise ConvergenceError(f"{system.name} fixed point did not converge",
                           residual)


def _continued(map_at, z: float, x0: dict | None, settings: SolverSettings):
    """Solve the RZF map `map_at(z)`; on a stall, continue geometrically in z.

    Very small z (deep in the ZF limit) makes the Picard map oscillate from
    generic initial values; walking down from 1e6 z with warm starts keeps
    every step inside the contraction basin. Each step may use `max_iter`
    map evaluations plus those the earlier steps left unused, so a step that
    converges within `max_iter` runs exactly as it would alone. A continued
    solution's `iterations` counts every map evaluation: the failed direct
    attempt plus all continuation steps.
    """
    if z <= 0:
        raise ValueError("regularization z must be positive")
    try:
        return _picard(map_at(z), x0, settings)
    except ConvergenceError:
        total = settings.max_iter       # _picard raises only after all of them
    sol, spare = None, 0
    for zz in z * np.logspace(6, 0, 13):
        sol = _picard(map_at(zz), None if sol is None else sol.x0,
                      replace(settings, max_iter=settings.max_iter + spare))
        spare += settings.max_iter - sol.iterations
        total += sol.iterations
    sol.path, sol.iterations = "continuation", total
    return sol


# ---------------------------------------------------------------------------
# regime maps: per-user and shared correlation
# ---------------------------------------------------------------------------

class _Map:
    """One regime's map at (z, shift): RZF is (z, 1), ZF is (1, 0).

    `start(x0, init)` gives the flat initial state, calling the map gives the
    next state, and `finish(x)` the solution fields that the state fixes.
    Under shift 0 the map also runs the ZF feasibility checks.
    """

    anderson = 0    # depth of Anderson mixing in _picard; 0 is damped Picard

    def __init__(self, R, K, L, z, shift, m_norm):
        self.R, self.K, self.L, self.z, self.shift = R, K, L, z, shift
        self.M = R.shape[0] if m_norm is None else m_norm
        if shift == 0.0 and self.M < K:
            raise FeasibilityError(f"ZF needs M >= K (got M={self.M}, K={K})")
        self.I_M = np.eye(R.shape[0])
        self.I_L = np.eye(L)
        self.name = self.regime + ("RZF" if shift else "ZF")

    def solution(self, x, **how):
        return self.sol(self.z if self.shift else None, *self.finish(x),
                        m_norm=self.M, **how)


class _UncommonMap(_Map):
    """State [delta, omega_1..K, mu_1..K] of the per-user-correlation system.

    F_k and C_k come stacked, so Psi_R and Psi_C are weighted sums over the
    stacks. The stacks are also kept transposed and flattened, since
    tr(A Psi) = vec(A^T) . vec(Psi): every trace of a map evaluation is one
    matrix-vector product, O(K M^2) instead of K matrix products.
    """

    regime = ""
    anderson = 5
    sol = UncommonSolution

    def __init__(self, F, R, C, z, shift, m_norm):
        self.F = np.asarray(F, dtype=complex)           # (K, M, M)
        self.C = np.asarray(C, dtype=complex)           # (K, L, L)
        super().__init__(R, len(self.F), self.C.shape[1], z, shift, m_norm)
        self.cascaded = bool(np.any(R)) and bool(np.any(self.C))
        # rows vec(R^T), vec(F_1^T), ..., vec(F_K^T) and vec(C_k^T)
        RF = np.concatenate(([R], self.F))
        self.RF_T = RF.transpose(0, 2, 1).reshape(self.K + 1, -1)
        self.C_T = self.C.transpose(0, 2, 1).reshape(self.K, -1)

    def start(self, x0, init):
        x0 = x0 or {}
        K = self.K
        mu = np.array(x0.get("mu", np.full(K, init)), dtype=float)
        omega = (np.array(x0.get("omega", np.full(K, init)), dtype=float)
                 if self.cascaded else np.zeros(K))
        return np.concatenate(([x0.get("delta", init)], omega, mu))

    def split(self, x):
        return x[0], x[1:self.K + 1], x[self.K + 1:]

    def psi_r(self, delta, omega, mu):
        w = 1.0 / (self.M * (self.shift + mu))
        A = self.z * self.I_M + np.tensordot(w, self.F, 1)
        if self.cascaded:
            A += (w @ omega / delta) * self.R
        return np.linalg.inv(A)

    def psi_c(self, delta, mu):
        w = 1.0 / (self.L * (self.shift + mu))
        return np.linalg.inv(self.I_L / delta + np.tensordot(w, self.C, 1))

    def __call__(self, x):
        delta, omega, mu = self.split(x)
        Psi_R = self.psi_r(delta, omega, mu)
        traces = np.real(self.RF_T @ Psi_R.reshape(-1)) / self.M
        delta_new = traces[0]
        if self.cascaded:
            Psi_C = self.psi_c(delta_new, mu)
            omega_new = np.real(self.C_T @ Psi_C.reshape(-1)) / self.L
        else:
            omega_new = np.zeros(self.K)
        mu_new = traces[1:] + omega_new
        if self.shift == 0.0 and (mu_new <= 0).any():
            raise FeasibilityError("ZF system produced a nonpositive mu; "
                                   "a user has no usable link")
        return np.concatenate(([delta_new], omega_new, mu_new))

    def finish(self, x):
        delta, omega, mu = self.split(x)
        Psi_R = self.psi_r(delta, omega, mu)
        if self.cascaded:
            Psi_C = self.psi_c(delta, mu)
        else:
            # harmless placeholder: with no cascaded link Psi_C never enters rates
            Psi_C = (delta * self.I_L.astype(complex) if delta > 0
                     else np.zeros((self.L, self.L), complex))
        return delta, mu, omega, herm(Psi_R), herm(Psi_C)


class _CommonMap(_Map):
    """State [delta, kappa, omega, kappa_bar, omega_bar] of the shared system.

    tr(C Psi_C) is a sum over the eigenvalues g of C; when F equals R,
    delta = kappa is a sum over the eigenvalues lam of R, else the R side
    solves for Psi_R. `spectra` = (lam or None, g) comes from `_spectra`,
    once per solve. `finish` inverts explicitly, for the second-order blocks.
    """

    regime = "common "
    sol = CommonSolution

    def __init__(self, F, R, C, u, t, z, shift, m_norm, spectra):
        super().__init__(R, len(u), C.shape[0], z, shift, m_norm)
        self.F, self.C = F, C
        self.lam, self.g = spectra
        self.u = np.asarray(u, dtype=float)
        self.t = np.asarray(t, dtype=float)
        self.cascaded = bool(np.any(R) and np.any(C)
                             and not np.all(self.t == 0.0))

    @property
    def anderson(self):
        # ZF stays damped: Frank-Wolfe port selection reads only the ZF solve,
        # and mirror-symmetric ports tie there to the last bit
        return 5 if self.shift else 0

    def start(self, x0, init):
        x0 = x0 or {}
        cascaded = self.cascaded
        return np.array([x0.get("delta", init), x0.get("kappa", init),
                         x0.get("omega", init) if cascaded else 0.0,
                         x0.get("kappa_bar", init if cascaded else 0.0),
                         x0.get("omega_bar", init) if cascaded else 0.0],
                        dtype=float)

    def r_coefs(self, delta, omega, kappa_bar, omega_bar):
        """(a, b) with Psi_R^{-1} = z I + a F + b R."""
        M, L = self.M, self.L
        b = (L * omega * omega_bar / (M * delta)
             if self.cascaded and omega * omega_bar != 0.0 else 0.0)
        return L * kappa_bar / M, b

    def psi_r_inv(self, a, b):
        A = self.z * self.I_M.astype(complex) + a * self.F
        return A + b * self.R if b else A

    def user_gain(self, kappa, omega):
        """shift + omega t + kappa u: 1 + mu_k for RZF, mu_k for ZF."""
        return self.shift + omega * self.t + kappa * self.u

    def __call__(self, x):
        delta, kappa, omega, kappa_bar, omega_bar = x
        M, L = self.M, self.L
        a, b = self.r_coefs(delta, omega, kappa_bar, omega_bar)
        if self.lam is not None:
            lam = self.lam
            delta_new = kappa_new = float(np.sum(lam / (self.z + (a + b) * lam))) / M
        else:
            Psi_R = np.linalg.solve(self.psi_r_inv(a, b), self.I_M)
            delta_new = float(np.real(np.sum(self.R * Psi_R.T))) / M
            kappa_new = float(np.real(np.sum(self.F * Psi_R.T))) / M
        if self.cascaded:
            g = self.g
            omega_new = float(np.sum(g / (1.0 / delta_new + omega_bar * g))) / L
        else:
            omega_new = 0.0
        gain = self.user_gain(kappa_new, omega_new)
        if self.shift == 0.0 and (gain <= 0).any():
            raise FeasibilityError("ZF system produced a nonpositive user gain")
        psi_T = 1.0 / gain
        kappa_bar_new = float(np.sum(self.u * psi_T) / L)
        omega_bar_new = float(np.sum(self.t * psi_T) / L)
        return np.array([delta_new, kappa_new, omega_new, kappa_bar_new,
                         omega_bar_new])

    def finish(self, x):
        delta, kappa, omega, kappa_bar, omega_bar = x
        Psi_R = np.linalg.inv(self.psi_r_inv(*self.r_coefs(
            delta, omega, kappa_bar, omega_bar)))
        Psi_C = (np.linalg.inv(self.I_L / delta + omega_bar * self.C)
                 if self.cascaded else delta * self.I_L.astype(complex))
        return (*x, herm(Psi_R), herm(Psi_C),
                1.0 / self.user_gain(kappa, omega))


# ---------------------------------------------------------------------------
# public solvers
# ---------------------------------------------------------------------------

def solve_rzf_uncommon(F_list: list[np.ndarray], R: np.ndarray,
                       C_list: list[np.ndarray], z: float,
                       settings: SolverSettings = DEFAULT_SETTINGS,
                       m_norm: int | None = None,
                       x0: dict | None = None) -> UncommonSolution:
    """Per-user-correlation RZF system for (delta, omega_k, mu_k).

        delta   = tr(R Psi_R) / M
        omega_k = tr(C_k Psi_C) / L
        mu_k    = tr(F_k Psi_R) / M + omega_k
        Psi_R = (z I + sum_k [F_k + omega_k R / delta] / (M (1+mu_k)))^{-1}
        Psi_C = (I/delta + sum_k C_k / (L (1+mu_k)))^{-1}

    F_k and C_k, stacked or listed, carry the per-user link gains. m_norm
    overrides the trace normalization M for full-size selection surrogates.
    Degenerate links (R = 0 or every C_k = 0) are branch-detected so no
    0/0 ratio is ever formed. A stalled direct solve falls back to
    z-continuation (`path == "continuation"`).
    """
    return _continued(lambda zz: _UncommonMap(F_list, R, C_list, zz, 1.0, m_norm),
                      z, x0, settings)


def solve_zf_uncommon(F_list: list[np.ndarray], R: np.ndarray,
                      C_list: list[np.ndarray],
                      settings: SolverSettings = DEFAULT_SETTINGS,
                      m_norm: int | None = None,
                      x0: dict | None = None) -> UncommonSolution:
    """Per-user-correlation ZF system (the z->0 scaled limit, solved directly).

        delta = tr(R Psi_R) / M,  omega_k = tr(C_k Psi_C) / L,
        mu_k  = omega_k + tr(F_k Psi_R) / M
        Psi_R = (I + sum_k [omega_k R / delta + F_k] / (M mu_k))^{-1}
        Psi_C = (I/delta + sum_k C_k / (L mu_k))^{-1}

    Every field is the underlined limit of its RZF twin; `z` is None.
    """
    return _picard(_UncommonMap(F_list, R, C_list, 1.0, 0.0, m_norm), x0,
                   settings)


def _spectra(F, R, C):
    """Eigenvalues of R (None unless F equals R) and of C, for `_CommonMap`."""
    return (np.linalg.eigvalsh(R) if np.array_equal(F, R) else None,
            np.linalg.eigvalsh(C))


def solve_rzf_common(F: np.ndarray, R: np.ndarray, C: np.ndarray,
                     u: np.ndarray, t: np.ndarray, z: float,
                     settings: SolverSettings = DEFAULT_SETTINGS,
                     m_norm: int | None = None,
                     x0: dict | None = None) -> CommonSolution:
    """Shared-correlation RZF quintuple (delta, kappa, omega, kappa_bar, omega_bar).

        delta = tr(R Psi_R)/M, kappa = tr(F Psi_R)/M, omega = tr(C Psi_C)/L,
        kappa_bar = tr(U Psi_T)/L, omega_bar = tr(T Psi_T)/L
        Psi_R = (z I + (L omega omega_bar / (M delta)) R + (L kappa_bar / M) F)^{-1}
        Psi_C = (I/delta + omega_bar C)^{-1}
        Psi_T = (I_K + omega T + kappa U)^{-1}

    F and C are correlation matrices (unit-scale); the gains live in u, t.
    A stalled direct solve falls back to z-continuation.
    """
    spectra = _spectra(F, R, C)
    return _continued(lambda zz: _CommonMap(F, R, C, u, t, zz, 1.0, m_norm,
                                            spectra), z, x0, settings)


def solve_zf_common(F: np.ndarray, R: np.ndarray, C: np.ndarray,
                    u: np.ndarray, t: np.ndarray,
                    settings: SolverSettings = DEFAULT_SETTINGS,
                    m_norm: int | None = None,
                    x0: dict | None = None) -> CommonSolution:
    """Shared-correlation ZF quintuple (underlined z->0 limits, solved directly).

        Psi_R = (I + (L kappa_bar / M) F + (L omega omega_bar / (M delta)) R)^{-1}
        Psi_C = (I/delta + omega_bar C)^{-1}
        Psi_T = (kappa U + omega T)^{-1}

    The traces are those of `solve_rzf_common`; `z` is None.
    """
    return _picard(_CommonMap(F, R, C, u, t, 1.0, 0.0, m_norm,
                              _spectra(F, R, C)), x0, settings)


# ---------------------------------------------------------------------------
# i.i.d. closed form
# ---------------------------------------------------------------------------

def solve_iid_zf(u: float, t: float, c1: float, c2: float) -> IidSolution:
    """Closed-form ZF solution over i.i.d. channels.

        alpha = c2^2 t^2 - 2 c2 t^2 + t^2 + 2 t u c2 + 2 t u + u^2
        beta  = (u + t - t c2 + sqrt(alpha)) / 2
        mu    = (1 - c1) beta

    c2 = 0 gives beta = u + t, the large-RIS limit.
    """
    if c1 >= 1.0:
        raise FeasibilityError(f"needs c1 = K/M < 1 (got {c1})")
    if c1 <= 0 or c2 < 0:
        raise ValueError("c1 must be positive and c2 nonnegative")
    alpha = (c2 ** 2) * t ** 2 - 2.0 * c2 * t ** 2 + t ** 2 \
        + 2.0 * t * u * c2 + 2.0 * t * u + u ** 2
    beta = 0.5 * (u + t - t * c2 + np.sqrt(alpha))
    return IidSolution(u=u, t=t, c1=c1, c2=c2, alpha_val=float(alpha),
                       beta_val=float(beta))


# ---------------------------------------------------------------------------
# residual checks
# ---------------------------------------------------------------------------

def backsubstitution_residual(sol, F=None, R=None, C=None, u=None, t=None,
                              F_list=None, C_list=None) -> float:
    """One extra step of the fixed-point equations at the returned solution;
    max relative change. The shared regime evaluates the trace formulas of
    `solve_rzf_common` on the solution's explicit-inverse Psi_R, Psi_C and
    psi_T, not through the eigenvalue shortcut that produced the solution.
    """
    if isinstance(sol, UncommonSolution):
        z, shift = (1.0, 0.0) if sol.z is None else (sol.z, 1.0)
        system = _UncommonMap(F_list, R, C_list, z, shift, sol.m_norm)
        x = system.start(sol.x0, DEFAULT_SETTINGS.init)
        return _rel_change(system(x), x)
    if not isinstance(sol, CommonSolution):
        raise TypeError(f"unknown solution type {type(sol)}")
    M, L = sol.m_norm, C.shape[0]
    # omega is 0 where every t is; with R or C zero, C or the placeholder
    # Psi_C (delta I, delta = 0) makes the trace 0
    new = np.array([np.real(np.sum(R * sol.Psi_R.T)) / M,
                    np.real(np.sum(F * sol.Psi_R.T)) / M,
                    np.real(np.sum(C * sol.Psi_C.T)) / L if np.any(t) else 0.0,
                    np.sum(u * sol.psi_T) / L, np.sum(t * sol.psi_T) / L])
    return _rel_change(new, np.array(list(sol.x0.values())))
