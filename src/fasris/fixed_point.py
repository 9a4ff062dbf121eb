"""Fixed-point systems behind the deterministic SINR equivalents.

Four solvers (RZF/ZF x per-user/shared correlation) plus the i.i.d. closed
form. The shared regime is one C_R and F_tot = R_tot, whose map runs on the
spectra of R and C; any other set takes the per-user solvers. Each
correlation regime supplies one map, evaluated in Gauss-Seidel order
(delta, then the RIS-side traces, then the per-user scalars) at (z, shift):
RZF is (z, 1) and ZF the same map at (1, 0). One driver, `_picard`, runs
damped Picard after the map's mixer (shared RZF: Newton; per-user:
Anderson; shared ZF: none), cold from `init` scaled to z (see `_Map`). A ZF
solution has `z` None and holds the paper's underlined (scaled z -> 0)
quantities. Every solution keeps its map, `system`, whose matrices (F, R,
C; shared: R, C, u, t) the rates and gradients read, and builds the
inverses that the second-order terms need on first read, at the dtype of
their data: the real FAS R gives a real Psi_R. An RZF `z` may be a 1-D
batch: the state then leads with its axis, `_picard` runs the rows as one
product system and every field carries it.

Every per-user inverse, in the map and in `UncommonSolution`, is one
kernel, `_chol_inv`: LAPACK's Cholesky inverse (potrf + potri, about n^3
flops against 8/3 n^3 for an LU inverse) at the matrix's dtype. It keeps
one triangle, its diagonal halved, so that Re tr(X Psi) of a Hermitian X
is twice a real dot product of float views; the map reads its traces so,
and only the solution mirrors the triangle to the full Psi_R and Psi_C. A
bad pivot, or a map output that is not finite (OpenBLAS's potrf reports
no NaN pivot), raises ConvergenceError at that evaluation. scipy.linalg
costs about 28 MiB of resident memory, so the bindings load on the first
per-user inverse; the shared regime never loads them.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import ClassVar

import numpy as np

from .channel import herm

EPS = 1e-12
LOG_STEP = np.log(1e6)    # largest mixed move past the Picard image, in log
DEPTH = 5                 # Anderson depth; unimproved steps before a fallback
NEWTON_STEP = 2.0         # largest Newton move of each log (a, b, omega_bar)


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
        if not (0.0 < self.tol < 1.0 and 0.0 < self.init < np.inf
                and isinstance(self.max_iter, (int, np.integer))
                and not isinstance(self.max_iter, bool) and self.max_iter >= 1):
            raise ValueError(f"{self} needs a finite 0 < tol < 1, an integer "
                             f"max_iter >= 1 and a finite init > 0")


DEFAULT_SETTINGS = SolverSettings()


def _rel_change(new: np.ndarray, old: np.ndarray) -> float:
    return float((np.abs(new - old) / np.maximum(np.abs(new), EPS)).max())


def _row(v, k: int = 1):
    """v, a value per row of a batch, with k unit axes to broadcast over."""
    return v[(...,) + (None,) * k] if isinstance(v, np.ndarray) else v


def _floats(A: np.ndarray, lead: int) -> np.ndarray:
    """A's entries as a (lead..., n) float view (a copy if not contiguous);
    the dot product of two such views of Hermitian X and Y is Re tr(X Y)."""
    A = np.ascontiguousarray(A)
    return A.view(A.real.dtype).reshape(A.shape[:lead] + (-1,))


@cache
def _lapack(dtype):
    """LAPACK (potrf, potri) at dtype, imported on first use."""
    from scipy.linalg.lapack import get_lapack_funcs
    return get_lapack_funcs(("potrf", "potri"), dtype=dtype)


def _chol_inv(A: np.ndarray) -> np.ndarray:
    """A^{-1} of each Hermitian positive-definite matrix of the C-order
    stack A, in place, as its lower triangle with the diagonal halved and
    zeros above: for a Hermitian X, Re tr(X A^{-1}) is twice the dot product
    of the float views of X and of the returned A. Only the lower triangle
    of A is read. LAPACK takes the C-order memory as A^T = conj(A), factors
    its upper triangle and returns conj(A^{-1}) the same way.
    """
    potrf, potri = _lapack(A.dtype)
    for a in A.reshape((-1,) + A.shape[-2:]):
        c, info = potrf(a.T, clean=1, overwrite_a=1)
        if info == 0:
            info = potri(c, overwrite_c=1)[1]
        if info:
            raise ConvergenceError(f"a per-user resolvent is not positive "
                                   f"definite (pivot {info})", np.nan)
    A.reshape(A.shape[:-2] + (-1,))[..., ::A.shape[-1] + 1] *= 0.5
    return A


def _mirror(T: np.ndarray) -> np.ndarray:
    """The exactly Hermitian matrix of a `_chol_inv` triangle."""
    return T + T.conj().swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# solution containers
# ---------------------------------------------------------------------------

@dataclass(kw_only=True)
class _Solution:
    """How the solve got there. `path` is "cold" (`init`, scaled to z, see
    `_Map`) or "warm" (the caller's x0); `iterations` counts map evaluations,
    `halvings` damping halvings and `mixer` "off", "anderson", "newton" or
    "fallback" (a safeguard handed the solve to damped Picard).
    """

    residual: float
    iterations: int
    m_norm: int
    path: str
    halvings: int
    mixer: str
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
    system: _UncommonMap = field(repr=False)
    _state = ("delta", "mu", "omega")

    @cached_property
    def Psi_R(self) -> np.ndarray:
        return _mirror(self.system.psi_r(self.delta, self.omega, self.mu))

    @cached_property
    def Psi_C(self) -> np.ndarray:    # delta I, unused, if not cascaded
        m = self.system
        return (_mirror(m.psi_c(self.delta, self.mu)) if m.cascaded
                else _row(self.delta, 2) * m.I_L)


@dataclass
class CommonSolution(_Solution):
    """Spectra of R and C and those of Psi_R and Psi_C; the explicit
    inverses Psi_R and Psi_C are built on first read, each at the dtype of
    its data (a real R, as the FAS correlation is, gives a real Psi_R)."""

    z: float | None            # None for ZF
    delta: float               # also kappa: the direct link shares R
    omega: float
    kappa_bar: float
    omega_bar: float
    psi_T: np.ndarray          # diagonal of (shift I + omega T + delta U)^{-1}
    lam: np.ndarray            # eigenvalues of R
    g: np.ndarray              # eigenvalues of C
    psi: np.ndarray            # 1 / (z + (a + b) lam)
    psi_C: np.ndarray          # 1 / (1/delta + omega_bar g); delta off-cascade
    system: _CommonMap = field(repr=False)
    _state = ("delta", "omega", "kappa_bar", "omega_bar")

    @property
    def mu(self) -> np.ndarray:
        m = self.system
        return m.t * _row(self.omega) + m.u * _row(self.delta)

    @cached_property
    def Psi_R(self) -> np.ndarray:
        m = self.system
        return herm(np.linalg.inv(m.psi_r_inv(*m.r_coefs(
            self.delta, self.omega, self.kappa_bar, self.omega_bar))))

    @cached_property
    def Psi_C(self) -> np.ndarray:    # delta I, unused, if not cascaded
        m = self.system
        delta = _row(self.delta, 2)
        return (herm(np.linalg.inv(m.I_L / delta + _row(self.omega_bar, 2) * m.C))
                if m.cascaded else delta * m.I_L)


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
# the driver
# ---------------------------------------------------------------------------

class _Mixer:
    """The next state of `_picard` from the map's input x, output and
    residual, mixed in log without the entries that the first output leaves
    at 0 in every row (omega off a cascaded link); None when a safeguard
    trips: a non-finite or nonpositive output, a failed step, one more than
    LOG_STEP past the Picard image, or DEPTH evaluations with no new best."""

    def __init__(self, system):
        self.system, self.live, self.best, self.stale = system, None, np.inf, 0

    def __call__(self, x, new, residual):
        if self.live is None:    # a slice, when it can be, indexes by a view
            self.live = slice(None) if new.all() else (new != 0.0).all(
                axis=tuple(range(new.ndim - 1)))
        self.stale = 0 if residual < self.best else self.stale + 1
        self.best = min(self.best, residual)
        if self.stale >= DEPTH or not (np.isfinite(new).all()
                                       and (new[..., self.live] > 0.0).all()):
            return None
        g = np.log(new[..., self.live])
        with suppress(np.linalg.LinAlgError):    # a singular Newton system
            y = self.step(x, new, g)
            if (np.abs(y - g) <= LOG_STEP).all():
                x = np.zeros_like(new)
                x[..., self.live] = np.exp(y)
                return x
        return None


class _Anderson(_Mixer):
    """Anderson mixing (Walker & Ni 2011) of depth DEPTH, on the flat state."""

    name, n, y, gf = "anderson", 0, None, None

    def step(self, x, new, g):
        shape = g.shape
        y = g = g.reshape(-1)
        if self.y is None:    # D: a ring of the last DEPTH changes of (g, f)
            self.D = np.empty((2, len(g), DEPTH))
        else:
            gf = np.stack([g, g - self.y])
            if self.gf is not None:
                self.D[..., self.n % DEPTH] = gf - self.gf
                self.n += 1
                dG, dF = self.D[..., :min(self.n, DEPTH)]
                y = g - dG @ np.linalg.lstsq(dF, gf[1], rcond=None)[0]
            self.gf = gf
        self.y = y
        return y.reshape(shape)


class _Newton(_Mixer):
    """Newton steps for the shared map, which reads x only through
    r = (a, b, omega_bar), log r = B log x. With A = d log new / d log r
    (`_CommonMap.jacobian`), Woodbury reduces the Newton system to
    (I - B A) dr = B (log new - log x); the step is log new + A dr, dr
    scaled to at most NEWTON_STEP in each row of a batch."""

    name = "newton"
    B = np.array([[0, 0, 1, 0], [-1, 1, 0, 1], [0, 0, 0, 1]], float)

    def step(self, x, new, g):
        A = self.system.jacobian()[..., self.live, :] / new[..., self.live, None]
        B = self.B[:A.shape[-1], self.live]
        dr = np.linalg.solve(np.eye(len(B)) - B @ A, np.matvec(
            B, g - np.log(x[..., self.live]))[..., None])[..., 0]
        cap = NEWTON_STEP / np.maximum(NEWTON_STEP, np.abs(dr).max(-1))
        return g + np.matvec(A, dr) * _row(cap)


def _picard(system, x0: dict | None, settings: SolverSettings):
    """Damped Picard iteration of `system` from `x0` (or `settings.init`).

    The residual is the max relative change over the whole state, every row
    of a batch included. Damping halves the step (down to 1/256) when the
    residual grows or, three times running, the change in some row's delta
    flips sign. The map's `mixer` class, if any, takes the steps until a
    safeguard trips; damped Picard goes on from there within the same
    `max_iter` budget.
    """
    x = system.start(x0, settings.init)
    mixer = system.mixer(system) if system.mixer else None
    how = mixer.name if mixer else "off"
    d = 1.0
    residual, prev, prev_sign, flips, halvings = np.inf, np.inf, 0, 0, 0
    for it in range(1, settings.max_iter + 1):
        new = system(x)
        residual = _rel_change(new, x)
        if mixer and residual >= settings.tol:
            mixed = mixer(x, new, residual)
            if mixed is None:
                mixer, how = None, "fallback"
            else:
                x = mixed
            continue
        step = new - x
        sign = np.sign(step.T[0])    # of each row's change in delta
        x = x + d * step
        flips = flips + 1 if np.count_nonzero(sign * prev_sign < 0) else 0
        if (residual > prev or flips >= 3) and d > 1.0 / 256.0:
            d *= 0.5
            flips = 0
            halvings += 1
        prev = residual
        prev_sign = sign + (sign == 0) * prev_sign
        if residual < settings.tol:
            return system.solution(x, residual=residual, iterations=it,
                                   path="warm" if x0 else "cold",
                                   halvings=halvings, mixer=how)
    raise ConvergenceError(f"{system.name} fixed point did not converge",
                           residual)


# ---------------------------------------------------------------------------
# regime maps: per-user and shared correlation
# ---------------------------------------------------------------------------

class _Map:
    """One regime's map at (z, shift): RZF is (z, 1), ZF is (1, 0).

    `start(x0, init)` gives the flat initial state, calling the map the next
    state and `finish(x)` the solution fields that the state fixes; under
    shift 0 the map also runs the ZF feasibility checks. With delta, omega,
    mu divided by z and kappa_bar, omega_bar times z, the map at
    (z, 1) is the map at (1, z), and `_picard` is blind to that scaling: so
    `start` fills what x0 leaves out with init / z (init z for the _bar
    entries), and a cold RZF solve runs as a ZF-type one does, at any z.
    """

    mixer = None    # the _Mixer of _picard; None is damped Picard

    def __init__(self, R, K, L, z, shift, m_norm):
        if not np.all(z > 0):
            raise ValueError("regularization z must be positive")
        self.R, self.K, self.L, self.z, self.shift = R, K, L, z, shift
        self.M = R.shape[0] if m_norm is None else m_norm
        if shift == 0.0 and self.M < K:
            raise FeasibilityError(f"ZF needs M >= K (got M={self.M}, K={K})")
        self.name = self.regime + ("RZF" if shift else "ZF")

    I_M = cached_property(lambda self: np.eye(self.R.shape[0]))
    I_L = cached_property(lambda self: np.eye(self.L))    # both on first read

    def solution(self, x, **how):
        return self.sol(self.z if self.shift else None, *self.finish(x),
                        m_norm=self.M, **how)


class _UncommonMap(_Map):
    """State [delta, omega_1..K, mu_1..K] of the per-user-correlation system.

    F_k and C_k come stacked at the dtype of Psi_R and Psi_C, so Psi_R^{-1}
    and Psi_C^{-1} are weighted sums over the flat stacks, and the traces of
    a map evaluation are matrix-vector products of their float views
    (`_floats`) with the `_chol_inv` triangles, O(K M^2) instead of K
    matrix products.
    """

    regime = ""
    mixer = _Anderson
    sol = UncommonSolution

    def __init__(self, F, R, C, z, shift, m_norm):
        self.F = np.asarray(F)           # (K, M, M), each stack at its dtype
        self.C = np.asarray(C)           # (K, L, L)
        super().__init__(R, len(self.F), self.C.shape[1], z, shift, m_norm)
        self.cascaded = bool(np.any(R)) and bool(np.any(self.C))
        dtype_R = np.result_type(self.F, R, float)    # of Psi_R
        self.F_flat = np.ascontiguousarray(self.F, dtype_R).reshape(self.K, -1)
        self.C_flat = np.ascontiguousarray(
            self.C, np.result_type(self.C, float)).reshape(self.K, -1)
        self.F_f, self.C_f = _floats(self.F_flat, 1), _floats(self.C_flat, 1)
        self.R_f = _floats(np.asarray(R, dtype_R), 0)

    def start(self, x0, init):
        x0, full = x0 or {}, np.full(np.shape(self.z) + (self.K,), init / _row(self.z))
        x = np.concatenate((np.asarray(x0.get("delta", full[..., 0]))[..., None],
                            x0.get("omega", full), x0.get("mu", full)),
                           axis=-1).astype(float)
        x[..., 1:self.K + 1] *= self.cascaded    # omega is 0 off a cascaded link
        return x

    def split(self, x):
        return x.T[0], x[..., 1:self.K + 1], x[..., self.K + 1:]

    def psi_r(self, delta, omega, mu):
        """The `_chol_inv` triangle of Psi_R."""
        w = 1.0 / (self.M * (self.shift + mu))
        A = _row(self.z, 2) * self.I_M \
            + (w @ self.F_flat).reshape(w.shape[:-1] + self.R.shape)
        if self.cascaded:
            A += _row(np.vecdot(w, omega) / delta, 2) * self.R
        return _chol_inv(A)

    def psi_c(self, delta, mu):
        """The `_chol_inv` triangle of Psi_C."""
        w = 1.0 / (self.L * (self.shift + mu))
        wC = (w @ self.C_flat).reshape(w.shape[:-1] + self.I_L.shape)
        return _chol_inv(self.I_L / _row(delta, 2) + wC)

    def __call__(self, x):
        delta, omega, mu = self.split(x)
        lead = np.ndim(delta)
        P = _floats(self.psi_r(delta, omega, mu), lead)
        delta_new = 2.0 * (P @ self.R_f) / self.M
        if self.cascaded:
            Q = _floats(self.psi_c(delta_new, mu), lead)
            omega_new = 2.0 * np.matvec(self.C_f, Q) / self.L
        else:
            omega_new = np.zeros_like(mu)
        mu_new = 2.0 * np.matvec(self.F_f, P) / self.M + omega_new
        new = np.concatenate((np.asarray(delta_new)[..., None], omega_new,
                              mu_new), axis=-1)
        if not np.isfinite(new).all():
            raise ConvergenceError(f"per-user {self.name} map gave a "
                                   f"non-finite state", np.nan)
        if self.shift == 0.0 and (mu_new <= 0).any():
            raise FeasibilityError("ZF system produced a nonpositive mu; "
                                   "a user has no usable link")
        return new

    def finish(self, x):
        delta, omega, mu = self.split(x)
        return delta, mu, omega, self


class _CommonMap(_Map):
    """State [delta, omega, kappa_bar, omega_bar] of the shared system.

    The direct link shares R (F = R), so delta, which is also kappa, is a
    sum over the eigenvalues lam of R and tr(C Psi_C) one over the
    eigenvalues g of C.
    `spectra` = (lam, g) comes from `_spectra`, once per solve; an
    evaluation keeps its terms in `last` for `jacobian`. `finish` keeps the
    spectra, those of Psi_R and Psi_C and the map itself.
    """

    regime = "common "
    sol = CommonSolution

    def __init__(self, R, C, u, t, z, shift, m_norm, spectra):
        super().__init__(R, len(u), C.shape[0], z, shift, m_norm)
        self.C = C
        self.lam, self.g = spectra
        self.u = np.asarray(u, dtype=float)
        self.t = np.asarray(t, dtype=float)
        self.cascaded = bool(np.any(R) and np.any(C)
                             and not np.all(self.t == 0.0))
        self.ut = np.stack((self.u, self.t))

    @property
    def mixer(self):    # ZF stays damped: Frank-Wolfe ties fall to its last bit
        return _Newton if self.shift else None

    def start(self, x0, init):
        x0, z = x0 or {}, self.z
        x = np.array([x0.get(k, init * z if k.endswith("_bar") else init / z)
                      for k in self.sol._state], float).T
        x.T[1] *= self.cascaded    # omega is 0 off a cascaded link
        return x

    def r_coefs(self, delta, omega, kappa_bar, omega_bar):
        """(a, b), Psi_R^{-1} = z I + (a + b) R; b is 0 off a cascaded link."""
        M, L = self.M, self.L
        a = L * kappa_bar / M
        return a, (L * omega * omega_bar / (M * delta) if self.cascaded
                   else 0.0 * a)

    def psi_r_inv(self, a, b):
        # at R's dtype, so the real FAS R gives a real Psi_R; a R + b R, not
        # (a + b) R, since Frank-Wolfe's mirror-port ties follow its last bit
        A = _row(self.z, 2) * self.I_M + _row(a, 2) * self.R
        return A + _row(b, 2) * self.R if self.cascaded else A

    def user_gain(self, delta, omega):
        """shift + omega t + delta u: 1 + mu_k for RZF, mu_k for ZF."""
        return self.shift + _row(omega) * self.t + _row(delta) * self.u

    def __call__(self, x):
        delta, omega, kappa_bar, omega_bar = x.T
        M, L = self.M, self.L
        a, b = self.r_coefs(delta, omega, kappa_bar, omega_bar)
        P = self.lam / (_row(self.z) + _row(a + b) * self.lam)    # lam psi
        delta_new = P.sum(-1) / M
        if self.cascaded:
            den = 1.0 / _row(delta_new) + _row(omega_bar) * self.g    # 1 / psi_C
            q = self.g / den
            omega_new = q.sum(-1) / L
        else:
            omega_new, den, q = 0.0 * delta_new, None, None
        gain = self.user_gain(delta_new, omega_new)
        if self.shift == 0.0 and (gain <= 0).any():
            raise FeasibilityError("ZF system produced a nonpositive user gain")
        psi_T = 1.0 / gain
        self.last = (a, b, omega_bar, P, delta_new, den, q, psi_T)  # jacobian
        kappa_bar_new = (self.u * psi_T).sum(-1) / L
        omega_bar_new = (self.t * psi_T).sum(-1) / L
        return np.array([delta_new, omega_new, kappa_bar_new, omega_bar_new]).T

    def jacobian(self):
        """d self(x) / d log (a, b, omega_bar) at the last x evaluated, b and
        omega_bar on a cascaded link; chained from -tr(X Psi_R Y Psi_R)."""
        a, b, w, P, delta, den, q, psi_T = self.last
        J = np.zeros((4, 3) + np.shape(a))    # batch axis last, to broadcast
        J[0, :2] = -np.vecdot(P, P) / self.M * np.array([a, b])    # P = lam psi
        if self.cascaded:    # q = g psi_C, den = 1 / psi_C
            J[1] = (q / den).sum(-1) / (self.L * delta ** 2) * J[0]
            J[1, 2] = -np.vecdot(q, q) * w / self.L
        J = J.T.swapaxes(-1, -2)    # batch axis first, for the row products
        J[..., 2:, :] = (self.ut * psi_T[..., None, :] ** 2) @ self.ut.T \
            @ J[..., :2, :] * (-1.0 / self.L)
        return J[..., :3 if self.cascaded else 1]

    def finish(self, x):
        delta, omega, kappa_bar, omega_bar = x.T
        a, b = self.r_coefs(delta, omega, kappa_bar, omega_bar)
        psi = 1.0 / (_row(self.z) + _row(a + b) * self.lam)
        # off a cascaded link 1 / (1/delta + omega_bar g) is delta (0 if no R)
        psi_C = (1.0 / (1.0 / _row(delta) + _row(omega_bar) * self.g)
                 if self.cascaded else _row(delta) + 0.0 * self.g)
        return (*x.T, 1.0 / self.user_gain(delta, omega), self.lam, self.g, psi,
                psi_C, self)


# ---------------------------------------------------------------------------
# public solvers
# ---------------------------------------------------------------------------

def solve_rzf_uncommon(F_list: list[np.ndarray], R: np.ndarray,
                       C_list: list[np.ndarray], z: float | np.ndarray,
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
    0/0 ratio is ever formed. A cold solve starts at `settings.init` / z.
    """
    return _picard(_UncommonMap(F_list, R, C_list, z, 1.0, m_norm), x0,
                   settings)


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


def _spectra(R, C, lam=None):
    """Eigenvalues of R (`lam` if given) and of C."""
    return np.linalg.eigvalsh(R) if lam is None else lam, np.linalg.eigvalsh(C)


def solve_rzf_common(R: np.ndarray, C: np.ndarray, u: np.ndarray,
                     t: np.ndarray, z: float | np.ndarray,
                     settings: SolverSettings = DEFAULT_SETTINGS,
                     m_norm: int | None = None, x0: dict | None = None,
                     spectra: tuple | None = None) -> CommonSolution:
    """Shared-correlation RZF state (delta, omega, kappa_bar, omega_bar).

        delta = tr(R Psi_R)/M, omega = tr(C Psi_C)/L,
        kappa_bar = tr(U Psi_T)/L, omega_bar = tr(T Psi_T)/L
        Psi_R = (z I + (L omega omega_bar / (M delta)) R + (L kappa_bar / M) R)^{-1}
        Psi_C = (I/delta + omega_bar C)^{-1}
        Psi_T = (I_K + omega T + delta U)^{-1}

    The direct link shares the BS correlation R (F_tot = R_tot), so the
    paper's kappa is delta; any other direct-link correlation takes the
    per-user solvers. R and C are correlation matrices (unit-scale); the
    gains live in u, t. A cold solve starts at `settings.init` scaled to z
    (see `_Map`). `spectra`, if given, is `_spectra(R, C)` from a caller
    that holds them.
    """
    return _picard(_CommonMap(R, C, u, t, z, 1.0, m_norm,
                              spectra or _spectra(R, C)), x0, settings)


def solve_zf_common(R: np.ndarray, C: np.ndarray, u: np.ndarray,
                    t: np.ndarray, settings: SolverSettings = DEFAULT_SETTINGS,
                    m_norm: int | None = None, x0: dict | None = None,
                    spectra: tuple | None = None) -> CommonSolution:
    """Shared-correlation ZF state (underlined z->0 limits, solved directly).

        Psi_R = (I + (L kappa_bar / M) R + (L omega omega_bar / (M delta)) R)^{-1}
        Psi_C = (I/delta + omega_bar C)^{-1}
        Psi_T = (delta U + omega T)^{-1}

    The traces and `spectra` are those of `solve_rzf_common`; `z` is None.
    """
    return _picard(_CommonMap(R, C, u, t, 1.0, 0.0, m_norm,
                              spectra or _spectra(R, C)), x0, settings)


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

def backsubstitution_residual(sol, R=None, C=None, u=None, t=None,
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
                    np.real(np.sum(C * sol.Psi_C.T)) / L if np.any(t) else 0.0,
                    np.sum(u * sol.psi_T) / L, np.sum(t * sol.psi_T) / L])
    return _rel_change(new, np.array(list(sol.x0.values())))
