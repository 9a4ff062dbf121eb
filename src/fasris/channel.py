"""Scenario construction and correlated Rayleigh channel sampling.

Builds the statistical description of a fluid-antenna (FAS) + RIS downlink:
spatial correlation matrices for the port grid and the RIS array, path-loss
gains, and the per-user channel covariances. Also draws channel realizations
for the Monte-Carlo oracle, with counter-based per-trial RNG substreams so
a trial's sample does not depend on how trials are stacked.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

PSD_TOL = 1e-10


class DegenerateGridError(ValueError):
    """Port grid has a single row/column along an axis with nonzero aperture."""


class PrecisionError(RuntimeError):
    """Numerical quadrature failed to reach the requested tolerance."""


class ConstraintError(ValueError):
    """A selection vector violates its cardinality/range constraint."""


class DomainError(ValueError):
    """Matrix input outside the admissible set (e.g. not PSD)."""


# ---------------------------------------------------------------------------
# basic converters
# ---------------------------------------------------------------------------

def db2lin(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def herm(A: np.ndarray) -> np.ndarray:
    """Symmetrize to kill roundoff skew; input must already be near-Hermitian.
    A stack (..., n, n) is symmetrized matrix by matrix."""
    return 0.5 * (A + np.swapaxes(A.conj(), -1, -2))


def check_psd(A: np.ndarray, name: str = "matrix", tol: float = PSD_TOL) -> np.ndarray:
    """Validate Hermitian PSD up to roundoff; clip tiny negative eigenvalues.

    A non-finite entry, or an eigenvalue below -tol max(1, |lam_max|), raises
    DomainError; higher negative ones are clipped to zero as roundoff. A finite
    Cholesky factor of A - tol max(1, tr A) I certifies lam_min >= tol max(1,
    tr A), far above roundoff: A is returned, as that test would, without eigh.
    """
    A = np.asarray(A)
    if not np.isfinite(A).all():    # tr A = inf would make the shift inf * 0
        raise DomainError(f"{name} has non-finite entries")
    A = herm(A)
    shift = tol * max(1.0, np.trace(A).real) * np.eye(len(A))
    with suppress(np.linalg.LinAlgError):
        if np.isfinite(np.linalg.cholesky(A - shift)).all():
            return A
    w, V = np.linalg.eigh(A)
    if not w.min() >= -tol * max(1.0, abs(w.max())):
        raise DomainError(
            f"{name} is not PSD: min eigenvalue {w.min():.3e} "
            f"(max {w.max():.3e}, tolerance {tol:.0e})"
        )
    if w.min() < 0.0:
        w = np.clip(w, 0.0, None)
        A = herm((V * w) @ V.conj().T)
    return A


def psd_sqrt(A: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Principal (Hermitian) square root via eigendecomposition.

    Keeps A^{1/2} Hermitian, which the correlation algebra relies on.
    """
    A = herm(np.asarray(A))
    w, V = np.linalg.eigh(A)
    if not w.min() >= -PSD_TOL * max(1.0, abs(w.max())):    # NaN fails too
        raise DomainError(f"cannot take square root of non-PSD {name}: "
                          f"min eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    return herm((V * np.sqrt(w)) @ V.conj().T)


def _read_only(A: np.ndarray) -> np.ndarray:
    A.flags.writeable = False
    return A


def _same_bytes(A, B: np.ndarray) -> bool:
    A = np.asarray(A)
    return (A.dtype, A.shape, A.tobytes()) == (B.dtype, B.shape, B.tobytes())


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dimensions:
    """System size: M selected ports / RF chains, K users, L RIS elements."""

    M: int
    K: int
    L: int
    M_tot: int | None = None

    def __post_init__(self):
        if self.M < 1 or self.K < 1 or self.L < 1:
            raise ValueError("M, K, L must all be >= 1")
        if self.M_tot is not None and self.M > self.M_tot:
            raise ValueError(f"M={self.M} exceeds M_tot={self.M_tot}")


@dataclass(frozen=True)
class PlanarFasGeometry:
    """Planar port grid: aperture W_x x W_y wavelengths, N_x x N_y ports.

    Ports are indexed top to bottom within a column, then left to right
    across columns.
    """

    W_x: float
    W_y: float
    N_x: int
    N_y: int

    def __post_init__(self):
        if self.W_x <= 0 or self.W_y <= 0:
            raise ValueError("apertures W_x, W_y must be positive")
        if self.N_x < 1 or self.N_y < 1:
            raise ValueError("N_x, N_y must be >= 1")

    @property
    def M_tot(self) -> int:
        return self.N_x * self.N_y

    def port_coordinates(self) -> np.ndarray:
        """(M_tot, 2) integer grid coordinates (col, row), column-major order."""
        cols, rows = np.meshgrid(np.arange(self.N_x), np.arange(self.N_y),
                                 indexing="ij")
        return np.stack([cols.ravel(), rows.ravel()], axis=1)


@dataclass(frozen=True)
class RisAngularProfile:
    """Linear-array angular profile: spacing d_c (wavelengths), mean angle
    alpha and RMS spread beta in degrees."""

    d_c: float
    alpha: float
    beta: float
    L: int

    def __post_init__(self):
        if self.d_c <= 0:
            raise ValueError("element spacing d_c must be positive")
        if self.beta <= 0:
            raise ValueError("angle spread beta must be positive")
        if self.L < 1:
            raise ValueError("L must be >= 1")


@dataclass(frozen=True)
class PathLossParams:
    """Power-law path loss: gain = C / d^exponent, all linear scale."""

    ref_gain: float
    exponent: float
    distance: float

    def __post_init__(self):
        if self.distance <= 0:
            raise ValueError("distance must be positive")
        if self.exponent <= 0:
            raise ValueError("path-loss exponent must be positive")
        if self.ref_gain <= 0:
            raise ValueError("reference gain must be positive")


@dataclass(frozen=True)
class CorrelationSet:
    """Correlation matrices of a scenario, checked once and read-only.

    F_tot (direct link) and C_R (RIS transmit side) are either one matrix
    shared by every user or a per-user list, stored as a tuple; R_tot is the
    BS-side correlation toward the RIS, C_L the RIS receive side. The data
    alone decides the correlation regime, see `shared`. Each field stores
    its `check_psd` result as a read-only array; an F_tot with the bytes of
    the input R_tot shares R_tot's checked array. A variant is a new set
    from `dataclasses.replace`, which checks every matrix again.
    """

    R_tot: np.ndarray
    F_tot: np.ndarray | tuple[np.ndarray, ...]
    C_L: np.ndarray
    C_R: np.ndarray | tuple[np.ndarray, ...]
    _roots: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    _stack: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        R_input = np.asarray(self.R_tot)
        for name in ("R_tot", "F_tot", "C_L", "C_R"):
            A = getattr(self, name)
            if isinstance(A, (list, tuple)):
                A = tuple(_read_only(check_psd(Ak, f"{name}[{k}]"))
                          for k, Ak in enumerate(A))
            elif name == "F_tot" and _same_bytes(A, R_input):
                A = self.R_tot
            else:
                A = _read_only(check_psd(A, name))
            object.__setattr__(self, name, A)

    @property
    def shared(self) -> bool:
        """True for one C_R and one F_tot equal to R_tot: the shared solvers
        apply. Any other set takes the per-user ones (K copies of a matrix)."""
        return (not isinstance(self.F_tot, tuple)
                and not isinstance(self.C_R, tuple)
                and np.array_equal(self.F_tot, self.R_tot))

    def root(self, A: np.ndarray, name: str = "matrix") -> np.ndarray:
        """psd_sqrt(A) of one of this set's matrices, computed once.

        The set holds its matrices, read-only, as long as it lives, so a
        matrix's id names it for the cache's lifetime.
        """
        hit = self._roots.get(id(A))
        if hit is None:
            hit = self._roots[id(A)] = _read_only(psd_sqrt(A, name))
        return hit

    def cascaded_stack(self, phi, t: np.ndarray) -> np.ndarray:
        """The read-only (K, L, L) stack of C_k at (phi, t_k); the set keeps
        the last one, keyed by the bytes of phi and t (its matrices never
        change)."""
        key = (None if phi is None else np.asarray(phi, float).tobytes(),
               t.tobytes())
        if self._stack.get("key") != key:
            C = np.stack([effective_ris_correlation(self.C_L, phi, CR, t[k],
                                                    self.root)[1]
                          for k, CR in enumerate(self.c_r_list(len(t)))])
            self._stack.update(key=key, C=_read_only(C))
        return self._stack["C"]

    def f_tot_list(self, K: int) -> list[np.ndarray]:
        return list(self.F_tot) if isinstance(self.F_tot, tuple) else [self.F_tot] * K

    def c_r_list(self, K: int) -> list[np.ndarray]:
        return list(self.C_R) if isinstance(self.C_R, tuple) else [self.C_R] * K


@dataclass(frozen=True)
class Scenario:
    """Single source of truth for one problem instance, checked once.

    Gains u (direct) and t (cascaded) are linear per-user scalars; p is the
    per-user transmit power; sigma2 the linear noise power. u, t and p are
    stored as read-only float copies. Correlation matrices live at full port
    resolution (M_tot, else M) and must match `dims`; `stats_*` helpers
    produce the selected-port inputs the solvers consume. A variant is a new
    scenario from `dataclasses.replace`, which checks it again and shares
    the correlation set.
    """

    dims: Dimensions
    correlations: CorrelationSet
    u: np.ndarray
    t: np.ndarray
    p: np.ndarray
    sigma2: float
    name: str = "scenario"

    def __post_init__(self):
        K = self.dims.K
        for name in ("u", "t", "p"):
            object.__setattr__(self, name, _read_only(
                np.array(getattr(self, name), dtype=float).reshape(K)))
        if (self.u < 0).any() or (self.t < 0).any():
            raise ValueError("link gains must be nonnegative")
        if (self.p <= 0).any():
            raise ValueError("transmit powers must be positive")
        if self.sigma2 <= 0:
            raise ValueError("noise power must be positive")
        n, L = self.dims.M_tot or self.dims.M, self.dims.L
        for name, size in (("R_tot", n), ("F_tot", n), ("C_L", L), ("C_R", L)):
            A = getattr(self.correlations, name)
            if isinstance(A, tuple) and len(A) != K:
                raise ValueError(f"{name} has {len(A)} entries for K={K}")
            if any(Ak.shape != (size, size)
                   for Ak in (A if isinstance(A, tuple) else (A,))):
                raise ValueError(f"{name} must be {size} x {size}: {self.dims}")

    @property
    def homogeneous(self) -> bool:
        """True iff every user shares gains, power and correlation matrices."""
        same_scalars = (np.ptp(self.u) == 0.0 and np.ptp(self.t) == 0.0
                        and np.ptp(self.p) == 0.0)
        corr = self.correlations    # one F_tot and C_R, equal to R_tot or not
        return bool(same_scalars and not isinstance(corr.F_tot, tuple)
                    and not isinstance(corr.C_R, tuple))

    def default_z(self, s: np.ndarray | None = None) -> float:
        """The RZF regularizer K sigma^2 / M(s), M(s) the selected-port count.

        It is the optimal z for homogeneous users and the default elsewhere.
        """
        M = int(np.sum(s)) if s is not None else self.dims.M
        return self.dims.K * self.sigma2 / M

    # -- selected-port views -------------------------------------------------

    def select_R(self, s: np.ndarray | None = None) -> np.ndarray:
        if s is None:
            return self.correlations.R_tot
        return select_submatrix(self.correlations.R_tot, s)

    def stats_common(self, s: np.ndarray | None = None,
                     phi: np.ndarray | None = None):
        """(R, C, u, t, p) inputs for the shared-correlation solvers; the
        direct link shares R."""
        corr = self.correlations
        if not corr.shared:
            raise ValueError("scenario is not in the shared regime (F_tot = "
                             "R_tot, one C_R); use stats_uncommon")
        C = effective_ris_correlation(corr.C_L, phi, corr.C_R, 1.0,
                                      corr.root)[1]
        return self.select_R(s), C, self.u, self.t, self.p

    def stats_uncommon(self, s: np.ndarray | None = None,
                       phi: np.ndarray | None = None):
        """(F, R, C, p) for the per-user solvers: F is the (K, M, M) stack of
        u_k F_k and C the (K, L, L) stack of C_k, gains folded in; C is the
        set's cached, read-only `cascaded_stack`."""
        K, corr = self.dims.K, self.correlations
        R = self.select_R(s)
        F = np.stack([F if s is None else select_submatrix(F, s)
                      for F in corr.f_tot_list(K)])
        return (self.u[:, None, None] * F, R,
                corr.cascaded_stack(phi, self.t), self.p)


@dataclass
class ChannelSample:
    """Channel draw(s): H (..., M, K) plus the factors it was assembled from."""

    H: np.ndarray
    X: np.ndarray
    W: np.ndarray
    Y: np.ndarray


# ---------------------------------------------------------------------------
# correlation builders
# ---------------------------------------------------------------------------

def fas_correlation_matrix(geometry: PlanarFasGeometry) -> np.ndarray:
    """Port-grid correlation under 3-D rich scattering.

    [R]_{ij} = j0(2 pi sqrt((|xi-xj| W_x/(N_x-1))^2 + (|yi-yj| W_y/(N_y-1))^2))
    with j0 the spherical Bessel function of the first kind (sin x / x, 1 at
    x = 0) and (xi, yi) integer grid coordinates. Real symmetric PSD.
    """
    if geometry.N_x == 1 or geometry.N_y == 1:
        raise DegenerateGridError(
            "port spacing W/(N-1) is undefined for a single-row/column grid "
            f"(N_x={geometry.N_x}, N_y={geometry.N_y})")
    coords = geometry.port_coordinates().astype(float)
    dx = np.abs(coords[:, None, 0] - coords[None, :, 0]) * geometry.W_x / (geometry.N_x - 1)
    dy = np.abs(coords[:, None, 1] - coords[None, :, 1]) * geometry.W_y / (geometry.N_y - 1)
    arg = 2.0 * np.pi * np.hypot(dx, dy)
    R = np.divide(np.sin(arg), arg, out=np.ones_like(arg), where=arg != 0.0)
    return check_psd(R, "FAS correlation matrix", tol=1e-8)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _gauss_legendre_panels(n_panels: int):
    """Composite Gauss-Legendre nodes/weights on [-180, 180]: the order-16
    base rule, built once at import, mapped onto n_panels equal panels."""
    edges = np.linspace(-180.0, 180.0, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def ris_correlation_matrices(profiles: list[RisAngularProfile],
                             abs_tol: float = 1e-10) -> list[np.ndarray]:
    """RIS linear-array correlations with truncated-Gaussian angle profiles,
    one matrix per profile, in the order given.

    [C]_{mn} = int_{-180}^{180} (2 pi beta^2)^{-1/2}
               exp(j 2 pi d_c (m-n) sin(pi phi/180) - (phi-alpha)^2/(2 beta^2)) dphi

    evaluated by composite Gauss-Legendre quadrature with panel doubling until
    each profile meets the abs_tol target: two doublings agree and the
    diagonal matches the closed-form truncated-Gaussian mass (a spread too
    narrow for every node raises). The Gaussian is used exactly as truncated
    (not renormalized), so the diagonal is ~1 rather than exactly 1.
    The entry depends on m-n only, so one pass over offsets fills the
    Toeplitz matrix.

    The phase factors depend on (d_c, L) and the panel count only, so the
    profiles sharing (d_c, L) share one phase matrix per doubling level; each
    profile still takes its own matrix-vector product, so its matrix does
    not depend on what else is in the batch.
    """
    profiles = list(profiles)
    vals = [None] * len(profiles)      # each profile's latest quadrature
    groups: dict[tuple, list[int]] = {}
    for i, profile in enumerate(profiles):
        groups.setdefault((profile.d_c, profile.L), []).append(i)

    max_panels = 4096
    for (d_c, L), pending in groups.items():
        offsets = np.arange(L, dtype=float)      # values for m-n = 0..L-1
        n_panels = 16
        while pending:
            nodes, weights = _gauss_legendre_panels(n_panels)
            phase = np.exp(1j * 2.0 * np.pi * d_c
                           * offsets[:, None] * np.sin(np.pi * nodes / 180.0)[None, :])
            unconverged = []
            for i in pending:
                alpha, beta = profiles[i].alpha, profiles[i].beta
                norm = 1.0 / np.sqrt(2.0 * np.pi * beta ** 2)
                envelope = norm * np.exp(-(nodes - alpha) ** 2 / (2.0 * beta ** 2))
                cur = phase @ (weights * envelope)
                prev, vals[i] = vals[i], cur
                mass = 0.5 * (math.erf((180.0 - alpha) / (np.sqrt(2.0) * beta))
                              - math.erf((-180.0 - alpha) / (np.sqrt(2.0) * beta)))
                residual = (np.inf if prev is None else max(
                    np.abs(cur - prev).max(), abs(cur[0] - mass)))
                if residual < abs_tol:
                    continue
                if n_panels >= max_panels:
                    raise PrecisionError(
                        f"RIS correlation quadrature did not reach {abs_tol:.0e} "
                        f"with {n_panels} panels (residual {residual:.3e})")
                unconverged.append(i)
            pending = unconverged
            n_panels *= 2

    mats = []
    for v in vals:
        idx = np.arange(len(v))
        diff = idx[:, None] - idx[None, :]
        C = np.where(diff >= 0, v[np.abs(diff)], np.conj(v[np.abs(diff)]))
        mats.append(check_psd(C, "RIS correlation matrix", tol=1e-8))
    return mats


def ris_correlation_matrix(profile: RisAngularProfile,
                           abs_tol: float = 1e-10) -> np.ndarray:
    """One profile's matrix; see `ris_correlation_matrices`."""
    return ris_correlation_matrices([profile], abs_tol)[0]


def path_loss(params: PathLossParams) -> float:
    """Linear gain C / d^alpha."""
    return params.ref_gain / params.distance ** params.exponent


# ---------------------------------------------------------------------------
# port selection
# ---------------------------------------------------------------------------

def select_submatrix(A_tot: np.ndarray, s: np.ndarray, m: int | None = None) -> np.ndarray:
    """Rows/columns of A_tot at the selected (binary s) indices, order kept."""
    s = np.asarray(s)
    if not np.all((s == 0) | (s == 1)):
        raise ConstraintError("selection vector must be binary for submatrix extraction")
    if m is not None and int(s.sum()) != m:
        raise ConstraintError(f"selection has {int(s.sum())} ones, expected {m}")
    idx = np.flatnonzero(s)
    return A_tot[np.ix_(idx, idx)]


# ---------------------------------------------------------------------------
# RIS phase composition and channel sampling
# ---------------------------------------------------------------------------

def phase_matrix(phi: np.ndarray | None, L: int) -> np.ndarray:
    """Unit-modulus diagonal Phi = diag(exp(j phi)); phi=None means Phi = I."""
    if phi is None:
        return np.eye(L, dtype=complex)
    phi = np.asarray(phi, dtype=float).reshape(L)
    return np.diag(np.exp(1j * phi))


def effective_ris_correlation(C_L: np.ndarray, phi: np.ndarray | None,
                              C_R: np.ndarray, t: float, root=psd_sqrt):
    """Cascaded RIS correlation factor and its Gram matrix.

    Returns (C_half, C) with C_half = sqrt(t) C_L^{1/2} Phi C_R^{1/2} and
    C = C_half C_half^H. C is Hermitian PSD; when C_R is diagonal its trace
    is independent of the phase configuration. `root(A, name)` takes the
    square roots; `CorrelationSet.root` serves them from its cache.
    """
    if t < 0:
        raise DomainError("cascaded gain t must be nonnegative")
    L = C_L.shape[0]
    C_half = np.sqrt(t) * root(C_L, "C_L") @ phase_matrix(phi, L) @ root(C_R, "C_R")
    C = herm(C_half @ C_half.conj().T)
    return C_half, C


_U64 = 0xFFFFFFFFFFFFFFFF


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based substream: same draws for a trial regardless of order.

    The stream is Philox-4x64 keyed by (seed mod 2^64, trial), its counter
    at 0 and its output buffer empty. `ChannelSampler.draw` reproduces it
    bit for bit by setting the sampler's one Philox to that state for every
    trial.
    """
    key = np.array([seed & _U64, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class ChannelSampler:
    """Caches matrix square roots so repeated trials only draw Gaussians.

    h_k = sqrt(u_k) F_{c,k}^{1/2} w_k + sqrt(t_k) R^{1/2} X C_L^{1/2} Phi C_{R,k}^{1/2} y_k,
    with X, w_k entrywise CN(0, 1/M) and y_k entrywise CN(0, 1/L). A draw
    re-keys the sampler's one Philox for each trial, so one sampler draws in
    one thread at a time.
    """

    def __init__(self, scenario: Scenario, s: np.ndarray | None = None,
                 phi: np.ndarray | None = None):
        dims = scenario.dims
        self.M = int(np.sum(s)) if s is not None else dims.M
        self.K, self.L = dims.K, dims.L
        corr = scenario.correlations

        root = corr.root if s is None else psd_sqrt     # cached when unselected
        F_list = [F if s is None else select_submatrix(F, s)
                  for F in corr.f_tot_list(self.K)]
        self.R_half = root(scenario.select_R(s), "R")
        # gain-weighted direct-link factors sqrt(u_k) F_{c,k}^{1/2}, (K, M, M)
        self.F_half = np.stack([np.sqrt(scenario.u[k]) * root(F, f"F[{k}]")
                                for k, F in enumerate(F_list)])
        CL_half = corr.root(corr.C_L, "C_L")
        Phi = None if phi is None else phase_matrix(phi, self.L)

        # cascaded factors C_k^{+/2} = sqrt(t_k) C_L^{1/2} Phi C_{R,k}^{1/2}
        def cascaded(k, CR):
            A = np.sqrt(scenario.t[k]) * CL_half
            return (A if Phi is None else A @ Phi) @ corr.root(CR, f"C_R[{k}]")
        self.C_half = np.stack([cascaded(k, CR) for k, CR
                                in enumerate(corr.c_r_list(self.K))])
        # the one Philox that `draw` re-keys for every trial
        self._stream = np.random.Generator(np.random.Philox())

    def draw(self, trials, seed: int) -> ChannelSample:
        """The (T, ...) stack of the trials `trials` of `seed`, trial t from
        the stream trial_rng(seed, t). Each trial reads only its own stream,
        so no stack changes its channel: the sampler's one Generator is
        re-keyed for each trial through its `state` (key (seed, t), counter
        0, empty buffer), which skips the entropy-seeded SeedSequence that
        every Philox(key=) builds."""
        trials = list(trials)
        M, K, L = self.M, self.K, self.L
        # per trial: real then imaginary parts of X, then of W, then of Y
        g = np.empty((len(trials), 2 * (M * L + M * K + L * K)))
        gen = self._stream
        state = {"bit_generator": "Philox", "buffer": (0, 0, 0, 0),
                 "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        for i, t in enumerate(trials):
            state["state"] = {"counter": (0, 0, 0, 0), "key": (seed & _U64, t)}
            gen.bit_generator.state = state
            gen.standard_normal(out=g[i])
        X, W, Y = (np.empty((len(trials), rows, cols), dtype=complex)
                   for rows, cols in ((M, L), (M, K), (L, K)))
        at = 0
        for A, var in ((X, 1.0 / M), (W, 1.0 / M), (Y, 1.0 / L)):
            n, scale = A[0].size, np.sqrt(var / 2.0)
            for part in (A.real, A.imag):
                np.multiply(g[:, at:at + n].reshape(A.shape), scale, out=part)
                at += n
        # h_k = F_k^{1/2} w_k + R^{1/2} X (C_k^{+/2} y_k): batched per-user
        # matrix-vector products, then one (M, L) x (L, K) product per trial
        CY = (self.C_half @ Y.transpose(0, 2, 1)[..., None])[..., 0]
        FW = (self.F_half @ W.transpose(0, 2, 1)[..., None])[..., 0]
        H = FW.transpose(0, 2, 1) + self.R_half @ (X @ CY.transpose(0, 2, 1))
        return ChannelSample(H=H, X=X, W=W, Y=Y)
