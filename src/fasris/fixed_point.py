"""Fixed-point systems behind the deterministic SINR equivalents.

Four solvers (RZF/ZF x per-user/shared correlation) plus the i.i.d. closed
form. One driver, `_picard`, runs a damped Picard iteration over a flat float
state, with the damping factor halved whenever the residual oscillates. Each
correlation regime supplies one map, evaluated in Gauss-Seidel order (delta
first, then the RIS-side traces, then the per-user scalars) and parameterized
by (z, shift): RZF is (z, 1) and ZF is the same map with z -> 1 and
1 + mu -> mu, i.e. (1, 0). The returned solutions carry the auxiliary inverse
matrices needed by the second-order interference terms downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import herm

EPS = 1e-12


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
    damping: float = 1.0
    init: float = 1.0

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")


DEFAULT_SETTINGS = SolverSettings()


def _rel_change(new: np.ndarray, old: np.ndarray) -> float:
    return float(np.max(np.abs(new - old) / np.maximum(np.abs(new), EPS)))


# ---------------------------------------------------------------------------
# solution containers
# ---------------------------------------------------------------------------

class _Solution:
    """`path` records how the solve got there: "cold" (generic initial
    values), "warm" (the caller's x0) or "continuation" (z-continuation)."""

    _state: tuple = ()    # the fixed-point fields, in warm-start order

    @property
    def x0(self) -> dict:
        """Warm-start dict that reproduces the returned state."""
        return {name.removesuffix("_u"): getattr(self, name)
                for name in self._state}


@dataclass
class RzfUncommonSolution(_Solution):
    z: float
    delta: float
    mu: np.ndarray
    omega: np.ndarray
    Psi_R: np.ndarray
    Psi_C: np.ndarray
    residual: float
    iterations: int
    m_norm: int
    path: str
    _state = ("delta", "mu", "omega")


@dataclass
class ZfUncommonSolution(_Solution):
    delta_u: float
    mu_u: np.ndarray
    omega_u: np.ndarray
    K_R: np.ndarray
    K_C: np.ndarray
    residual: float
    iterations: int
    m_norm: int
    path: str
    _state = ("delta_u", "mu_u", "omega_u")


@dataclass
class RzfCommonSolution(_Solution):
    z: float
    delta: float
    kappa: float
    omega: float
    kappa_bar: float
    omega_bar: float
    Psi_R: np.ndarray
    Psi_C: np.ndarray
    psi_T: np.ndarray          # diagonal of Psi_T = (I + omega T + kappa U)^{-1}
    residual: float
    iterations: int
    m_norm: int
    path: str
    _state = ("delta", "kappa", "omega", "kappa_bar", "omega_bar")

    def mu_k(self, u: np.ndarray, t: np.ndarray) -> np.ndarray:
        return t * self.omega + u * self.kappa


@dataclass
class ZfCommonSolution(_Solution):
    delta_u: float
    kappa_u: float
    omega_u: float
    kappa_bar_u: float
    omega_bar_u: float
    Psi_R: np.ndarray
    Psi_C: np.ndarray
    psi_T: np.ndarray          # diagonal of (kappa_u U + omega_u T)^{-1}
    residual: float
    iterations: int
    m_norm: int
    path: str
    _state = ("delta_u", "kappa_u", "omega_u", "kappa_bar_u", "omega_bar_u")

    def mu_k(self, u: np.ndarray, t: np.ndarray) -> np.ndarray:
        return u * self.kappa_u + t * self.omega_u


@dataclass(frozen=True)
class IidSolution:
    u: float
    t: float
    c1: float
    c2: float
    alpha_val: float
    beta_val: float

    @property
    def mu_u(self) -> float:
        return (1.0 - self.c1) * self.beta_val


# ---------------------------------------------------------------------------
# the driver and the continuation wrapper
# ---------------------------------------------------------------------------

def _picard(system, x0: dict | None, settings: SolverSettings):
    """Damped Picard iteration of `system` from `x0` (or `settings.init`).

    The residual is the max relative change over the whole state. Adaptive
    damping halves the step (down to 1/256) when the residual grows or when
    the change in delta flips sign three times running.
    """
    x = system.start(x0, settings.init)
    d = settings.damping
    residual, prev, prev_sign, flips = np.inf, np.inf, 0, 0
    for it in range(1, settings.max_iter + 1):
        new = system(x)
        residual = _rel_change(new, x)
        sign = int(np.sign(new[0] - x[0]))
        x = x + d * (new - x)
        flips = flips + 1 if sign != 0 and sign == -prev_sign else 0
        if (residual > prev or flips >= 3) and d > 1.0 / 256.0:
            d *= 0.5
            flips = 0
        prev = residual
        prev_sign = sign if sign != 0 else prev_sign
        if residual < settings.tol:
            return system.solution(x, residual, it, "warm" if x0 else "cold")
    raise ConvergenceError(f"{system.name} fixed point did not converge",
                           residual)


def _continued(map_at, z: float, x0: dict | None, settings: SolverSettings):
    """Solve the RZF map `map_at(z)`; on a stall, continue geometrically in z.

    Very small z (deep in the ZF limit) makes the Picard map oscillate from
    generic initial values; walking down from 1e6 z with warm starts keeps
    every step inside the contraction basin. A continued solution's
    `iterations` counts every map evaluation: the failed direct attempt plus
    all continuation steps.
    """
    if z <= 0:
        raise ValueError("regularization z must be positive")
    try:
        return _picard(map_at(z), x0, settings)
    except ConvergenceError:
        total = settings.max_iter       # _picard raises only after all of them
    sol = None
    for zz in z * np.logspace(6, 0, 13):
        sol = _picard(map_at(zz), None if sol is None else sol.x0, settings)
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

    def __init__(self, R, K, L, z, shift, m_norm):
        self.R, self.K, self.L, self.z, self.shift = R, K, L, z, shift
        self.M = R.shape[0] if m_norm is None else m_norm
        if shift == 0.0 and self.M < K:
            raise FeasibilityError(f"ZF needs M >= K (got M={self.M}, K={K})")
        self.I_M = np.eye(R.shape[0])
        self.I_L = np.eye(L)
        self.name = self.regime + ("RZF" if shift else "ZF")

    def solution(self, x, residual, iterations, path):
        # the ZF fields are the RZF fields without the leading z
        fields = (*self.finish(x), residual, iterations, self.M, path)
        return self.zf(*fields) if self.shift == 0.0 else self.rzf(self.z, *fields)


class _UncommonMap(_Map):
    """State [delta, omega_1..K, mu_1..K] of the per-user-correlation system."""

    regime = ""
    rzf, zf = RzfUncommonSolution, ZfUncommonSolution

    def __init__(self, F_list, R, C_list, z, shift, m_norm):
        super().__init__(R, len(F_list), C_list[0].shape[0], z, shift, m_norm)
        self.F_list, self.C_list = F_list, C_list
        self.cascaded = bool(np.any(R)) and any(np.any(C) for C in C_list)

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
        M, R = self.M, self.R
        A = self.z * self.I_M.astype(complex)
        for k in range(self.K):
            A += self.F_list[k] / (M * (self.shift + mu[k]))
            if self.cascaded and omega[k] != 0.0:
                A += (omega[k] / (M * delta * (self.shift + mu[k]))) * R
        return np.linalg.inv(A)

    def psi_c(self, delta, mu):
        L = self.L
        A = self.I_L / delta + sum(self.C_list[k] / (L * (self.shift + mu[k]))
                                   for k in range(self.K))
        return np.linalg.inv(A)

    def __call__(self, x):
        delta, omega, mu = self.split(x)
        M, L, K = self.M, self.L, self.K
        Psi_R = self.psi_r(delta, omega, mu)
        delta_new = np.real(np.trace(self.R @ Psi_R)) / M
        if self.cascaded:
            Psi_C = self.psi_c(delta_new, mu)
            omega_new = np.array([np.real(np.trace(self.C_list[k] @ Psi_C)) / L
                                  for k in range(K)])
        else:
            omega_new = np.zeros(K)
        mu_new = np.array([np.real(np.trace(self.F_list[k] @ Psi_R)) / M
                           for k in range(K)]) + omega_new
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
    """State [delta, kappa, omega, kappa_bar, omega_bar] of the shared system."""

    regime = "common "
    rzf, zf = RzfCommonSolution, ZfCommonSolution

    def __init__(self, F, R, C, u, t, z, shift, m_norm):
        super().__init__(R, len(u), C.shape[0], z, shift, m_norm)
        self.F, self.C = F, C
        self.u = np.asarray(u, dtype=float)
        self.t = np.asarray(t, dtype=float)
        self.cascaded = bool(np.any(R) and np.any(C)
                             and not np.all(self.t == 0.0))

    def start(self, x0, init):
        x0 = x0 or {}
        cascaded = self.cascaded
        return np.array([x0.get("delta", init), x0.get("kappa", init),
                         x0.get("omega", init) if cascaded else 0.0,
                         x0.get("kappa_bar", init if cascaded else 0.0),
                         x0.get("omega_bar", init) if cascaded else 0.0],
                        dtype=float)

    def psi_r(self, delta, omega, kappa_bar, omega_bar):
        M, L = self.M, self.L
        A = self.z * self.I_M.astype(complex) + (L * kappa_bar / M) * self.F
        if self.cascaded and omega * omega_bar != 0.0:
            A += (L * omega * omega_bar / (M * delta)) * self.R
        return np.linalg.inv(A)

    def psi_c(self, delta, omega_bar):
        return np.linalg.inv(self.I_L / delta + omega_bar * self.C)

    def user_gain(self, kappa, omega):
        """shift + omega t + kappa u: 1 + mu_k for RZF, mu_k for ZF."""
        return self.shift + omega * self.t + kappa * self.u

    def __call__(self, x):
        delta, kappa, omega, kappa_bar, omega_bar = x
        M, L = self.M, self.L
        Psi_R = self.psi_r(delta, omega, kappa_bar, omega_bar)
        delta_new = np.real(np.trace(self.R @ Psi_R)) / M
        kappa_new = np.real(np.trace(self.F @ Psi_R)) / M
        if self.cascaded:
            Psi_C = self.psi_c(delta_new, omega_bar)
            omega_new = np.real(np.trace(self.C @ Psi_C)) / L
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
        Psi_R = self.psi_r(delta, omega, kappa_bar, omega_bar)
        Psi_C = (self.psi_c(delta, omega_bar) if self.cascaded
                 else delta * self.I_L.astype(complex))
        return (*x, herm(Psi_R), herm(Psi_C),
                1.0 / self.user_gain(kappa, omega))


# ---------------------------------------------------------------------------
# public solvers
# ---------------------------------------------------------------------------

def solve_rzf_uncommon(F_list: list[np.ndarray], R: np.ndarray,
                       C_list: list[np.ndarray], z: float,
                       settings: SolverSettings = DEFAULT_SETTINGS,
                       m_norm: int | None = None,
                       x0: dict | None = None) -> RzfUncommonSolution:
    """Per-user-correlation RZF system for (delta, omega_k, mu_k).

        delta   = tr(R Psi_R) / M
        omega_k = tr(C_k Psi_C) / L
        mu_k    = tr(F_k Psi_R) / M + omega_k
        Psi_R = (z I + sum_k [F_k + omega_k R / delta] / (M (1+mu_k)))^{-1}
        Psi_C = (I/delta + sum_k C_k / (L (1+mu_k)))^{-1}

    F_k and C_k carry the per-user link gains. m_norm overrides the trace
    normalization M when the matrices are full-size selection surrogates.
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
                      x0: dict | None = None) -> ZfUncommonSolution:
    """Per-user-correlation ZF system (the z->0 scaled limit, solved directly).

        delta_u = tr(R K_R) / M,  omega_u_k = tr(C_k K_C) / L,
        mu_u_k  = omega_u_k + tr(F_k K_R) / M
        K_R = (I + sum_k [omega_u_k R / delta_u + F_k] / (M mu_u_k))^{-1}
        K_C = (I/delta_u + sum_k C_k / (L mu_u_k))^{-1}
    """
    return _picard(_UncommonMap(F_list, R, C_list, 1.0, 0.0, m_norm), x0,
                   settings)


def solve_rzf_common(F: np.ndarray, R: np.ndarray, C: np.ndarray,
                     u: np.ndarray, t: np.ndarray, z: float,
                     settings: SolverSettings = DEFAULT_SETTINGS,
                     m_norm: int | None = None,
                     x0: dict | None = None) -> RzfCommonSolution:
    """Shared-correlation RZF quintuple (delta, kappa, omega, kappa_bar, omega_bar).

        delta = tr(R Psi_R)/M, kappa = tr(F Psi_R)/M, omega = tr(C Psi_C)/L,
        kappa_bar = tr(U Psi_T)/L, omega_bar = tr(T Psi_T)/L
        Psi_R = (z I + (L omega omega_bar / (M delta)) R + (L kappa_bar / M) F)^{-1}
        Psi_C = (I/delta + omega_bar C)^{-1}
        Psi_T = (I_K + omega T + kappa U)^{-1}

    F and C are correlation matrices (unit-scale); the gains live in u, t.
    A stalled direct solve falls back to z-continuation.
    """
    return _continued(lambda zz: _CommonMap(F, R, C, u, t, zz, 1.0, m_norm),
                      z, x0, settings)


def solve_zf_common(F: np.ndarray, R: np.ndarray, C: np.ndarray,
                    u: np.ndarray, t: np.ndarray,
                    settings: SolverSettings = DEFAULT_SETTINGS,
                    m_norm: int | None = None,
                    x0: dict | None = None) -> ZfCommonSolution:
    """Shared-correlation ZF quintuple (underlined z->0 limits, solved directly).

        Psi_R = (I + (L kappa_bar_u / M) F + (L omega_u omega_bar_u / (M delta_u)) R)^{-1}
        Psi_C = (I/delta_u + omega_bar_u C)^{-1}
        Psi_T = (kappa_u U + omega_u T)^{-1}
    """
    return _picard(_CommonMap(F, R, C, u, t, 1.0, 0.0, m_norm), x0, settings)


# ---------------------------------------------------------------------------
# i.i.d. closed form
# ---------------------------------------------------------------------------

def solve_iid_zf(u: float, t: float, c1: float, c2: float) -> IidSolution:
    """Closed-form ZF solution over i.i.d. channels.

        alpha = c2^2 t^2 - 2 c2 t^2 + t^2 + 2 t u c2 + 2 t u + u^2
        beta  = (u + t - t c2 + sqrt(alpha)) / 2
        mu_u  = (1 - c1) beta

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
                              F_list=None, C_list=None, z=None) -> float:
    """One extra map step at the returned solution; max relative change."""
    rzf = isinstance(sol, (RzfUncommonSolution, RzfCommonSolution))
    z, shift = (sol.z, 1.0) if rzf else (1.0, 0.0)
    if isinstance(sol, (RzfUncommonSolution, ZfUncommonSolution)):
        system = _UncommonMap(F_list, R, C_list, z, shift, sol.m_norm)
    elif isinstance(sol, (RzfCommonSolution, ZfCommonSolution)):
        system = _CommonMap(F, R, C, u, t, z, shift, sol.m_norm)
    else:
        raise TypeError(f"unknown solution type {type(sol)}")
    x = system.start(sol.x0, DEFAULT_SETTINGS.init)
    return _rel_change(system(x), x)
