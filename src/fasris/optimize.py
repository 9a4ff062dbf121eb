"""Two-timescale optimization: port selection, regularizer, phase shifts.

Frank-Wolfe over the relaxed port polytope (driven by the ZF rate through
the diag(s) embedding, with a top-M linear oracle and 2/(t+2) steps),
backtracking gradient ascent on the RIS phases, 1-D search for the RZF
regularizer with the homogeneous shortcut z = K sigma^2 / M, alternating
optimization of (z, Phi) at fixed selection, and the outer joint loop that
keeps the best recorded iterate. Searches warm-start each solve from the
previous fixed point; the ESRs that the phase ascent, the alternating
optimization and the joint loop return come from cold solves.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .channel import (ConstraintError, Scenario, effective_ris_correlation,
                      herm, phase_matrix)
from .fixed_point import (DEFAULT_SETTINGS, SolverSettings, solve_rzf_common,
                          solve_rzf_uncommon, solve_zf_common,
                          solve_zf_uncommon)
from .gradients import (esr_gradient_phases_common,
                        esr_gradient_phases_uncommon,
                        esr_gradient_phases_zf_common,
                        esr_gradient_ports_zf_common,
                        esr_gradient_ports_zf_uncommon)
from .rates import (RateReport, sinr_rzf_common, sinr_rzf_uncommon,
                    sinr_zf_common, sinr_zf_uncommon)


# ---------------------------------------------------------------------------
# decision-variable containers
# ---------------------------------------------------------------------------

@dataclass
class PortSelection:
    """Binary (exactly M ones) or relaxed (entries in [0,1], sum <= M)."""

    s: np.ndarray
    M: int
    relaxed: bool = False

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        if self.relaxed:
            if (self.s < 0).any() or (self.s > 1).any():
                raise ConstraintError("relaxed selection outside [0,1]")
            if self.s.sum() > self.M + 1e-9:
                raise ConstraintError("relaxed selection exceeds budget M")
        else:
            if not np.all((self.s == 0) | (self.s == 1)):
                raise ConstraintError("binary selection has fractional entries")
            if int(self.s.sum()) != self.M:
                raise ConstraintError(
                    f"selection has {int(self.s.sum())} ports, expected {self.M}")

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.s)


@dataclass
class PhaseShifts:
    """Angles in radians; the unit-modulus matrix is built from them only."""

    phi: np.ndarray

    def __post_init__(self):
        self.phi = np.mod(np.asarray(self.phi, dtype=float), 2.0 * np.pi)

    @property
    def Phi(self) -> np.ndarray:
        return phase_matrix(self.phi, len(self.phi))


@dataclass
class OptimizerSettings:
    solver: SolverSettings = DEFAULT_SETTINGS
    # Frank-Wolfe
    fw_tol: float = 1e-5
    fw_max_iter: int = 500
    # phase ascent (backtracking)
    alpha0: float = 1.0
    backtrack_c: float = 0.5
    armijo_beta: float = 1e-4
    max_halvings: int = 40
    ascent_tol: float = 1e-5
    ascent_max_iter: int = 200
    # regularizer search
    z_grid_points: int = 41
    z_span_decades: float = 4.0
    golden_rel_width: float = 1e-4
    # alternating optimization
    ao_tol: float = 1e-5
    ao_max_iter: int = 10


DEFAULT_OPT = OptimizerSettings()

# points of the z-search bracket around an incumbent, at the full grid's step
Z_BRACKET_POINTS = 11


@dataclass
class OptimizationTrace:
    """One record per optimizer iteration. Every record carries stage,
    iteration and objective; the other keys depend on the stage. COLUMNS
    lists every key a record may carry, in the order `--trace` writes them.
    """

    records: list[dict] = field(default_factory=list)
    COLUMNS = ("stage", "iteration", "objective", "step", "gradient_norm",
               "halvings", "evals", "z", "stalled", "s_indices", "gap")

    def add(self, **kw):
        unknown = kw.keys() - set(self.COLUMNS)
        if unknown:
            raise ValueError(f"trace keys without a column: {sorted(unknown)}")
        self.records.append(kw)

    def objectives(self) -> np.ndarray:
        return np.array([r["objective"] for r in self.records])


def _digest(arr) -> str:
    if arr is None:
        return "none"
    return hashlib.sha1(np.ascontiguousarray(arr).tobytes()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# deterministic ESR evaluation at scenario level
# ---------------------------------------------------------------------------

def _stats(scenario: Scenario, s, phi):
    """(solver inputs at (s, phi), shared) in the regime the data decides."""
    shared = scenario.correlations.shared
    if shared:
        return scenario.stats_common(s, phi), shared
    return scenario.stats_uncommon(s, phi), shared


def _evaluate(stats, shared, precoder, z, sigma2, settings, x0=None,
              m_norm=None, digest=None):
    """Solve one fixed point and turn it into SINRs: the only dispatch over
    the four solver/SINR pairs.

    `stats` is (F, R, C, u, t, p) when `shared`, else (F_list, R, C_list, p).
    Returns (report, so, sol); so holds the second-order blocks, None for ZF.
    """
    if precoder not in ("rzf", "zf"):
        raise ValueError(f"no deterministic equivalent for precoder {precoder!r}")
    if shared:
        F, R, C, u, t, p = stats
        if precoder == "rzf":
            sol = solve_rzf_common(F, R, C, u, t, z, settings, m_norm=m_norm,
                                   x0=x0)
            rep, so = sinr_rzf_common(sol, F, R, C, u, t, p, sigma2,
                                      digest=digest)
            return rep, so, sol
        sol = solve_zf_common(F, R, C, u, t, settings, m_norm=m_norm, x0=x0)
        return sinr_zf_common(sol, u, t, p, sigma2, digest=digest), None, sol
    F_list, R, C_list, p = stats
    if precoder == "rzf":
        sol = solve_rzf_uncommon(F_list, R, C_list, z, settings, m_norm=m_norm,
                                 x0=x0)
        rep, so = sinr_rzf_uncommon(sol, F_list, R, C_list, p, sigma2,
                                    digest=digest)
        return rep, so, sol
    sol = solve_zf_uncommon(F_list, R, C_list, settings, m_norm=m_norm, x0=x0)
    return sinr_zf_uncommon(sol, p, sigma2, digest=digest), None, sol


def deterministic_esr(scenario: Scenario, s: np.ndarray | None = None,
                      phi: np.ndarray | None = None, precoder: str = "rzf",
                      z: float | None = None,
                      settings: SolverSettings = DEFAULT_SETTINGS) -> RateReport:
    """Deterministic-equivalent RateReport for a binary selection.

    The correlation data picks the regime (`CorrelationSet.shared`): shared
    F_tot and C_R use the shared-correlation solvers, a per-user list of
    either uses the per-user ones. For RZF, z defaults to
    `scenario.default_z(s)` = K sigma^2 / M.
    """
    if precoder == "rzf" and z is None:
        z = scenario.default_z(s)
    stats, shared = _stats(scenario, s, phi)
    dig = {"s": _digest(s), "phi": _digest(phi)}
    return _evaluate(stats, shared, precoder, z, scenario.sigma2, settings,
                     digest=dig)[0]


# ---------------------------------------------------------------------------
# relaxed ZF objective over ports (Frank-Wolfe inner machinery)
# ---------------------------------------------------------------------------

class RelaxedZfObjective:
    """ZF rate and gradient on the diag(s)-embedded correlation surrogate.

    Caches the matrix square roots and warm-starts successive solves, since
    Frank-Wolfe evaluates along a slowly moving iterate.
    """

    def __init__(self, scenario: Scenario, phi: np.ndarray | None, M: int,
                 settings: SolverSettings = DEFAULT_SETTINGS):
        self.scenario = scenario
        self.M = M
        self.settings = settings
        corr = scenario.correlations
        self.shared = corr.shared
        self.R_root = corr.root(corr.R_tot, "R_tot")
        K = scenario.dims.K
        if self.shared:
            self.F_root = corr.root(corr.F_tot, "F_tot")
            _, self.C = effective_ris_correlation(corr.C_L, phi, corr.C_R, 1.0,
                                                  corr.root)
        else:
            # fold the per-user gain into the root so F_k(s) = u_k F_k-embedded
            self.F_roots = [np.sqrt(scenario.u[k])
                            * corr.root(corr.f_tot_list(K)[k], f"F_tot[{k}]")
                            for k in range(K)]
            self.C_list = [effective_ris_correlation(corr.C_L, phi,
                                                     corr.c_r_list(K)[k],
                                                     scenario.t[k], corr.root)[1]
                           for k in range(K)]
        self._x0 = None

    def _embed(self, root, s):
        return herm((root * np.asarray(s, float)[None, :]) @ root)

    def solve(self, s: np.ndarray):
        """(report, sol, stats) of the ZF solve on the embedded matrices."""
        sc = self.scenario
        R = self._embed(self.R_root, s)
        if self.shared:
            stats = (self._embed(self.F_root, s), R, self.C, sc.u, sc.t, sc.p)
        else:
            stats = ([self._embed(Fr, s) for Fr in self.F_roots], R,
                     self.C_list, sc.p)
        rep, _, sol = _evaluate(stats, self.shared, "zf", None, sc.sigma2,
                                self.settings, x0=self._x0, m_norm=self.M)
        self._x0 = sol.x0
        return rep, sol, stats

    def esr(self, s: np.ndarray) -> float:
        return self.solve(s)[0].esr

    def gradient(self, s: np.ndarray):
        # F and C are per-user lists outside the shared regime
        rep, sol, (F, R, C, *_) = self.solve(s)
        sc = self.scenario
        if self.shared:
            g = esr_gradient_ports_zf_common(sol, self.R_root, self.F_root, R,
                                             F, C, sc.u, sc.t, sc.p, sc.sigma2)
        else:
            g = esr_gradient_ports_zf_uncommon(sol, self.R_root, self.F_roots,
                                               R, F, C, sc.p, sc.sigma2)
        return rep.esr, g


def fw_linear_oracle(gradient: np.ndarray, M: int) -> np.ndarray:
    """Vertex of {0 <= s <= 1, sum s <= M} maximizing <s, gradient>.

    Ones at the M largest gradient components; ties broken by lowest index.
    """
    gradient = np.asarray(gradient, dtype=float)
    if not np.all(np.isfinite(gradient)):
        raise ValueError("gradient has non-finite entries")
    order = np.argsort(-gradient, kind="stable")
    s = np.zeros(len(gradient))
    s[order[:M]] = 1.0
    return s


def top_m_rounding(s: np.ndarray, M: int) -> np.ndarray:
    """Binary selection at the M largest entries of s (ties: lowest index)."""
    return fw_linear_oracle(np.asarray(s, dtype=float), M)


def fw_port_selection(scenario: Scenario, phi: np.ndarray | None, M: int,
                      opt: OptimizerSettings = DEFAULT_OPT,
                      trace: OptimizationTrace | None = None) -> np.ndarray:
    """Frank-Wolfe port selection on the relaxed ZF objective.

    s^(0) = (M/M_tot) 1; update s += 2/(t+2) (s_bar - s) with the top-M
    vertex s_bar; stops on relative objective change < fw_tol; returns the
    top-M binary rounding of the final iterate. Trace records carry the
    duality gap <s_bar - s, grad> (Jaggi 2013), nonnegative and zero only
    at a stationary point of the relaxation.
    """
    M_tot = scenario.correlations.R_tot.shape[0]
    if M > M_tot:
        raise ConstraintError(f"M={M} exceeds M_tot={M_tot}")
    if M == M_tot:
        return np.ones(M_tot)
    obj = RelaxedZfObjective(scenario, phi, M, opt.solver)
    s = np.full(M_tot, M / M_tot)
    prev = None
    for it in range(opt.fw_max_iter):
        esr, grad = obj.gradient(s)
        s_bar = fw_linear_oracle(grad, M)
        if trace is not None:
            trace.add(stage="fw", iteration=it, objective=esr,
                      step=2.0 / (it + 2.0), gap=float((s_bar - s) @ grad))
        if prev is not None and abs(esr - prev) < opt.fw_tol * abs(prev):
            break
        s = s + (2.0 / (it + 2.0)) * (s_bar - s)
        prev = esr
    return top_m_rounding(s, M)


# ---------------------------------------------------------------------------
# phase-shift gradient ascent
# ---------------------------------------------------------------------------

def _phase_objective(scenario: Scenario, s, precoder, z, settings):
    """Closure pair (esr(phi), esr_and_grad(phi)) for the selected scenario.

    Both closures share one warm start: each solve begins at the fixed point
    of the previous one, whichever closure made it. The fixed point is
    unique, so the start changes the iteration count, not the limit; results
    differ from cold solves only within the solver tolerance.
    """
    corr = scenario.correlations
    if precoder not in ("rzf", "zf"):
        raise ValueError(f"unsupported precoder {precoder!r}")
    if precoder == "zf" and not corr.shared:
        raise ValueError("ZF phase ascent is implemented for the "
                         "shared-correlation regime")
    if precoder == "rzf" and z is None:
        z = scenario.default_z(s)
    x0 = None

    def solve(phi):
        nonlocal x0
        stats, shared = _stats(scenario, s, phi)
        rep, so, sol = _evaluate(stats, shared, precoder, z, scenario.sigma2,
                                 settings, x0=x0)
        x0 = sol.x0
        return stats, rep, so, sol

    def value(phi):
        return solve(phi)[1].esr

    def value_grad(phi):
        stats, rep, so, sol = solve(phi)
        if precoder == "zf":
            F, R, _, u, t, p = stats
            g = esr_gradient_phases_zf_common(sol, F, R, corr.C_L, corr.C_R,
                                              phi, u, t, p, scenario.sigma2,
                                              root=corr.root)
        elif corr.shared:
            g = esr_gradient_phases_common(so, corr.C_L, corr.C_R, phi,
                                           scenario.sigma2, root=corr.root)
        else:
            _, _, C_list, p = stats
            g = esr_gradient_phases_uncommon(so, C_list, corr.C_L,
                                             corr.c_r_list(scenario.dims.K),
                                             scenario.t, phi, p,
                                             scenario.sigma2, root=corr.root)
        return rep.esr, g

    return value, value_grad


def gradient_ascent_phases(scenario: Scenario, s: np.ndarray | None, z: float | None,
                           phi0: np.ndarray, opt: OptimizerSettings = DEFAULT_OPT,
                           precoder: str = "rzf",
                           trace: OptimizationTrace | None = None):
    """Backtracking gradient ascent on the RIS phase angles.

    Accepted steps satisfy R(phi + a g) - R(phi) >= a beta ||grad|| with the
    normalized direction g, so the deterministic ESR never decreases. A
    failed line search (max halvings) returns the current iterate with
    stalled=True. The search solves warm (`_phase_objective`); the returned
    ESR is one cold `deterministic_esr` at the returned phases, so it does
    not depend on the path the search took.
    """
    value, value_grad = _phase_objective(scenario, s, precoder, z, opt.solver)
    phi = np.mod(np.asarray(phi0, dtype=float), 2.0 * np.pi)
    esr, grad = value_grad(phi)
    stalled = False
    for it in range(opt.ascent_max_iter):
        norm = float(np.linalg.norm(grad))
        if norm < 1e-14 * max(1.0, abs(esr)):
            break
        direction = grad / norm
        alpha = opt.alpha0
        halvings = 0
        while True:
            cand = np.mod(phi + alpha * direction, 2.0 * np.pi)
            esr_cand = value(cand)
            if esr_cand - esr >= alpha * opt.armijo_beta * norm:
                break
            alpha *= opt.backtrack_c
            halvings += 1
            if halvings > opt.max_halvings:
                stalled = True
                break
        if stalled:
            break
        phi = cand
        esr_prev = esr
        esr, grad = value_grad(phi)
        if trace is not None:
            trace.add(stage="phases", iteration=it, objective=esr,
                      step=alpha, gradient_norm=norm, halvings=halvings,
                      evals=halvings + 1)
        if abs(esr - esr_prev) < opt.ascent_tol * abs(esr_prev):
            break
    esr = deterministic_esr(scenario, s, phi, precoder, z, opt.solver).esr
    return PhaseShifts(phi), esr, stalled


# ---------------------------------------------------------------------------
# regularizer search
# ---------------------------------------------------------------------------

class _WarmRzfEsr:
    """ESR_RZF(z) with the previous fixed point reused as the next start."""

    def __init__(self, scenario: Scenario, s, phi, settings: SolverSettings):
        self.sigma2 = scenario.sigma2
        self.settings = settings
        self.stats, self.shared = _stats(scenario, s, phi)
        self._x0 = None

    def __call__(self, z: float) -> float:
        rep, _, sol = _evaluate(self.stats, self.shared, "rzf", z, self.sigma2,
                                self.settings, x0=self._x0)
        self._x0 = sol.x0
        return rep.esr


def z_search_profile(scenario: Scenario, s, phi,
                     opt: OptimizerSettings = DEFAULT_OPT,
                     incumbent: float | None = None):
    """Grid + golden-section profile of ESR_RZF over z. Returns
    (z_star, grid, values, golden_width).

    The grid spans z_span_decades either side of K sigma^2 / M in
    z_grid_points points. With an incumbent z, an 11-point bracket centred
    on it, at the same step, is swept instead; when its argmax lands on an
    edge of the bracket the full grid is searched as without an incumbent.
    """
    esr_of = _WarmRzfEsr(scenario, s, phi, opt.solver)
    if incumbent is None:
        grid = scenario.default_z(s) * np.logspace(
            -opt.z_span_decades, opt.z_span_decades, opt.z_grid_points)
    else:
        step = 2.0 * opt.z_span_decades / (opt.z_grid_points - 1)
        half = Z_BRACKET_POINTS // 2
        grid = incumbent * 10.0 ** (step * np.arange(-half, half + 1))
    # sweep from the best-conditioned (largest) z downward, warm-starting
    vals = np.empty(len(grid))
    for j in range(len(grid) - 1, -1, -1):
        vals[j] = esr_of(grid[j])
    i = int(np.argmax(vals))
    if incumbent is not None and i in (0, len(grid) - 1):
        return z_search_profile(scenario, s, phi, opt)
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = esr_of(c), esr_of(d)
    while (b - a) > opt.golden_rel_width * max(abs(c), abs(d)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = esr_of(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = esr_of(d)
    z_star = c if fc > fd else d
    return float(z_star), grid, vals, float(b - a)


def search_regularization(scenario: Scenario, s: np.ndarray | None,
                          phi: np.ndarray | None,
                          opt: OptimizerSettings = DEFAULT_OPT,
                          force_search: bool = False,
                          incumbent: float | None = None) -> float:
    """Best RZF regularizer. Homogeneous scenarios shortcut to K sigma^2 / M.

    `incumbent` narrows the search to a bracket around it
    (`z_search_profile`)."""
    if scenario.homogeneous and not force_search:
        return scenario.default_z(s)
    z_star, _, _, _ = z_search_profile(scenario, s, phi, opt, incumbent)
    return z_star


# ---------------------------------------------------------------------------
# alternating optimization and the joint loop
# ---------------------------------------------------------------------------

def alternating_optimization(scenario: Scenario, s: np.ndarray | None,
                             phi0: np.ndarray, z0: float | None = None,
                             opt: OptimizerSettings = DEFAULT_OPT,
                             precoder: str = "rzf",
                             trace: OptimizationTrace | None = None):
    """Alternate {z search; phase ascent} at fixed port selection.

    ESR is non-decreasing across outer iterations: the z update maximizes
    over a grid that includes the incumbent, and the ascent only accepts
    improving steps. ZF mode skips the z updates entirely.
    """
    trace = trace if trace is not None else OptimizationTrace()
    phi = np.mod(np.asarray(phi0, dtype=float), 2.0 * np.pi)
    z = z0
    esr_prev = None
    for it in range(opt.ao_max_iter):
        if precoder == "rzf":
            # from the second round on, bracket the search around z
            z_cand = search_regularization(scenario, s, phi, opt,
                                           incumbent=z if it else None)
            # keep the incumbent if the search (rarely) lands lower
            if z is not None:
                esr_of = _WarmRzfEsr(scenario, s, phi, opt.solver)
                esr_keep = esr_of(z)
                z = z_cand if esr_of(z_cand) >= esr_keep else z
            else:
                z = z_cand
        phases, esr, stalled = gradient_ascent_phases(scenario, s, z, phi,
                                                      opt, precoder, trace)
        phi = phases.phi
        trace.add(stage="ao", iteration=it, objective=esr, z=z,
                  stalled=stalled)
        if esr_prev is not None and abs(esr - esr_prev) < opt.ao_tol * abs(esr_prev):
            break
        esr_prev = esr
    return z, PhaseShifts(phi), esr, trace


def joint_optimize(scenario: Scenario, M: int, phi0: np.ndarray | None = None,
                   z0: float | None = None, T_iter: int = 3,
                   opt: OptimizerSettings = DEFAULT_OPT,
                   precoder: str = "rzf"):
    """Outer loop: port selection, then (z, Phi) optimization; best iterate wins.

    Returns (s, z, PhaseShifts, RateReport, trace).
    """
    if T_iter < 1:
        raise ValueError("T_iter must be >= 1")
    L = scenario.dims.L
    phi = np.zeros(L) if phi0 is None else np.mod(np.asarray(phi0, float),
                                                  2.0 * np.pi)
    z = z0
    trace = OptimizationTrace()
    best = None
    for t in range(1, T_iter + 1):
        s = fw_port_selection(scenario, phi, M, opt, trace)
        z_t, phases, esr, _ = alternating_optimization(scenario, s, phi, z,
                                                       opt, precoder, trace)
        trace.add(stage="joint", iteration=t, objective=esr,
                  z=z_t, s_indices=np.flatnonzero(s).tolist())
        if best is None or esr > best[0]:
            best = (esr, s, z_t, phases)
        phi, z = phases.phi, z_t
    esr, s, z, phases = best
    report = deterministic_esr(scenario, s, phases.phi, precoder, z, opt.solver)
    return s, z, phases, report, trace
