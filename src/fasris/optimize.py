"""Two-timescale optimization: port selection, regularizer, phase shifts.

Frank-Wolfe over the relaxed port polytope (driven by the ZF rate through
the relaxed embeddings, with a top-M linear oracle and 2/(t+2) steps),
backtracking gradient ascent on the RIS phases, 1-D search for the RZF
regularizer with the homogeneous shortcut z = K sigma^2 / M, alternating
optimization of (z, Phi) at fixed selection, and the outer joint loop that
keeps the best recorded iterate, each in both correlation regimes (the
phase ascent for RZF and ZF alike). Searches warm-start each solve from the
previous fixed point; the ESRs that the phase ascent, the alternating
optimization and the joint loop return come from cold solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ConstraintError, Scenario, herm, phase_matrix
from .fixed_point import (DEFAULT_SETTINGS, SolverSettings, _spectra,
                          solve_rzf_common, solve_rzf_uncommon,
                          solve_zf_common, solve_zf_uncommon)
from .gradients import (esr_gradient_phases_common,
                        esr_gradient_phases_uncommon,
                        esr_gradient_ports_uncommon,
                        esr_gradient_ports_zf_common, esr_gradient_z)
from .rates import (RateReport, second_order_common, second_order_uncommon,
                    sinr_rzf_common, sinr_rzf_uncommon, sinr_zf)


# ---------------------------------------------------------------------------
# decision-variable containers
# ---------------------------------------------------------------------------

@dataclass
class PhaseShifts:
    """Angles in radians; the unit-modulus matrix is built from them only."""

    phi: np.ndarray

    def __post_init__(self):
        self.phi = np.mod(np.asarray(self.phi, dtype=float), 2.0 * np.pi)

    @property
    def Phi(self) -> np.ndarray:
        return phase_matrix(self.phi, len(self.phi))


# Frank-Wolfe stops on this relative change of the relaxed ESR, or after
# FW_MAX_ITER iterations
FW_TOL = 1e-5
FW_MAX_ITER = 500
# phase ascent: Armijo sufficient-increase factor; stops on this relative
# ESR change, or after ASCENT_MAX_ITER steps
ARMIJO_BETA = 1e-4
ASCENT_TOL = 1e-7
ASCENT_MAX_ITER = 200
# phase ascent: first step, backtracking factor, most halvings per line search,
# (s, y) pairs kept by the L-BFGS direction
ALPHA0 = 1.0
LBFGS_MEMORY = 5
BACKTRACK_C = 0.5
MAX_HALVINGS = 40
# z-search: Z_GRID_POINTS over Z_SPAN_DECADES either side of K sigma^2 / M,
# secant steps on d ESR / d ln z (the first, without a curvature, Z_PROBE
# long) until it is at most Z_SLOPE_TOL relative to the ESR
Z_GRID_POINTS = 41
Z_SPAN_DECADES = 4.0
Z_STEP_DECADES = 2.0 * Z_SPAN_DECADES / (Z_GRID_POINTS - 1)
Z_SLOPE_TOL = 1e-6
Z_PROBE = 1e-2
# the most secant steps of one refinement
Z_REFINE_STEPS = 11
# alternating optimization stops on this relative ESR change or round count
AO_TOL = 1e-5
AO_MAX_ITER = 10


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
              m_norm=None, spectra=None):
    """Solve one fixed point and turn it into SINRs: the only dispatch over
    the four solver/SINR pairs.

    `stats` is (R, C, u, t, p) when `shared`, else (F_list, R, C_list, p);
    the solution keeps the matrices, so only p goes on to the SINR.
    Returns (report, so, sol); so holds the second-order blocks, None for ZF.
    """
    if precoder not in ("rzf", "zf"):
        raise ValueError(f"no deterministic equivalent for precoder {precoder!r}")
    *mats, p = stats
    if precoder == "zf":
        sol = (solve_zf_common(*mats, settings, m_norm, x0, spectra) if shared
               else solve_zf_uncommon(*mats, settings, m_norm=m_norm, x0=x0))
        return sinr_zf(sol, p, sigma2), None, sol
    if shared:
        sol = solve_rzf_common(*mats, z, settings, m_norm=m_norm, x0=x0,
                               spectra=spectra)
        rep, so = sinr_rzf_common(sol, p, sigma2)
    else:
        sol = solve_rzf_uncommon(*mats, z, settings, m_norm=m_norm, x0=x0)
        rep, so = sinr_rzf_uncommon(sol, p, sigma2)
    return rep, so, sol


def deterministic_esr(scenario: Scenario, s: np.ndarray | None = None,
                      phi: np.ndarray | None = None, precoder: str = "rzf",
                      z: float | None = None) -> RateReport:
    """Deterministic-equivalent RateReport for a binary selection.

    The correlation data picks the regime (`CorrelationSet.shared`): one
    C_R with F_tot = R_tot uses the shared-correlation solvers, any other
    set the per-user ones. For RZF, z defaults to
    `scenario.default_z(s)` = K sigma^2 / M.
    """
    if precoder == "rzf" and z is None:
        z = scenario.default_z(s)
    stats, shared = _stats(scenario, s, phi)
    return _evaluate(stats, shared, precoder, z, scenario.sigma2,
                     DEFAULT_SETTINGS)[0]


# ---------------------------------------------------------------------------
# relaxed ZF objective over ports (Frank-Wolfe inner machinery)
# ---------------------------------------------------------------------------

class RelaxedZfObjective:
    """ZF rate and gradient on an embedded correlation surrogate.

    Caches what does not move with the selection and warm-starts successive
    solves, since Frank-Wolfe evaluates along a slowly moving iterate. The
    shared regime embeds R alone (F = R) as R^{1/2} diag(s) R^{1/2}; per
    user, every F_k and R embed as diag(s) A diag(s), which at a binary s
    is the submatrix of the selected ports, bordered by zeros.
    """

    def __init__(self, scenario: Scenario, phi: np.ndarray | None, M: int,
                 settings: SolverSettings = DEFAULT_SETTINGS):
        self.scenario = scenario
        self.M = M
        self.settings = settings
        # the stats at full size: C, or the stack of C_k, does not depend on
        # the selection
        self.stats, self.shared = _stats(scenario, None, phi)
        if self.shared:
            corr = scenario.correlations
            self.R_root = corr.root(corr.R_tot, "R_tot")
        self._x0 = None

    def solve(self, s: np.ndarray):
        """(report, sol) of the ZF solve on the embedded matrices."""
        s = np.asarray(s, float)
        if self.shared:
            stats = (herm((self.R_root * s) @ self.R_root), *self.stats[1:])
        else:
            F, R, C, p = self.stats
            stats = (F * np.outer(s, s), R * np.outer(s, s), C, p)
        rep, _, sol = _evaluate(stats, self.shared, "zf", None,
                                self.scenario.sigma2, self.settings,
                                x0=self._x0, m_norm=self.M)
        self._x0 = sol.x0
        return rep, sol

    def esr(self, s: np.ndarray) -> float:
        return self.solve(s)[0].esr

    def gradient(self, s: np.ndarray):
        rep, sol = self.solve(s)
        sigma2, p = self.scenario.sigma2, self.scenario.p
        if self.shared:
            return rep.esr, esr_gradient_ports_zf_common(sol, self.R_root, p,
                                                         sigma2)
        F, R, *_ = self.stats
        return rep.esr, esr_gradient_ports_uncommon(
            second_order_uncommon(sol, p), F, R, np.asarray(s, float), sigma2)


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


def fw_port_selection(scenario: Scenario, phi: np.ndarray | None, M: int,
                      trace: OptimizationTrace | None = None) -> np.ndarray:
    """Frank-Wolfe port selection on the relaxed ZF objective.

    s^(0) = (M/M_tot) 1; update s += 2/(t+2) (s_bar - s) with the top-M
    vertex s_bar; stops on relative objective change < FW_TOL; returns the
    top-M binary rounding of the final iterate. Trace records carry the
    duality gap <s_bar - s, grad> (Jaggi 2013), nonnegative and zero only
    at a stationary point of the relaxation; a stop at FW_MAX_ITER
    marks the last record stalled=True.
    """
    M_tot = scenario.correlations.R_tot.shape[0]
    if M > M_tot:
        raise ConstraintError(f"M={M} exceeds M_tot={M_tot}")
    if M == M_tot:
        return np.ones(M_tot)
    obj = RelaxedZfObjective(scenario, phi, M)
    s = np.full(M_tot, M / M_tot)
    prev = None
    for it in range(FW_MAX_ITER):
        esr, grad = obj.gradient(s)
        s_bar = fw_linear_oracle(grad, M)
        if trace is not None:
            trace.add(stage="fw", iteration=it, objective=esr,
                      step=2.0 / (it + 2.0), gap=float((s_bar - s) @ grad))
        if prev is not None and abs(esr - prev) < FW_TOL * abs(prev):
            break
        s = s + (2.0 / (it + 2.0)) * (s_bar - s)
        prev = esr
    else:
        if trace is not None:
            trace.records[-1]["stalled"] = True
    return fw_linear_oracle(s, M)


# ---------------------------------------------------------------------------
# phase-shift gradient ascent
# ---------------------------------------------------------------------------

def _phase_objective(scenario: Scenario, s, precoder, z, settings):
    """Closure pair (esr(phi), esr_and_grad(phi)) for the selected scenario.

    Both closures share one warm start: each solve begins at the fixed point
    of the previous one, whichever closure made it. The fixed point is
    unique, so the start changes the iteration count, not the limit; results
    differ from cold solves only within the solver tolerance. A call at the
    latest solve's phases reuses it; R(s)'s eigenvalues are taken once.
    """
    corr = scenario.correlations
    if precoder not in ("rzf", "zf"):
        raise ValueError(f"unsupported precoder {precoder!r}")
    if precoder == "rzf" and z is None:
        z = scenario.default_z(s)
    shared = corr.shared
    x0 = lam = last = None

    def solve(phi):
        nonlocal x0, lam, last
        if last is None or not np.array_equal(phi, last[0]):
            stats = _stats(scenario, s, phi)[0]
            spectra = _spectra(*stats[:2], lam) if shared else None
            rep, so, sol = _evaluate(stats, shared, precoder, z, scenario.sigma2,
                                     settings, x0, spectra=spectra)
            x0, lam = sol.x0, spectra and spectra[0]
            last = np.array(phi), (rep, so, sol)
        return last[1]

    def value(phi):
        return solve(phi)[0].esr

    def value_grad(phi):
        rep, so, sol = solve(phi)
        # a ZF evaluation takes no second-order system
        if shared:
            g = esr_gradient_phases_common(
                so or second_order_common(sol, scenario.p), corr.C_L,
                corr.C_R, phi, scenario.sigma2, root=corr.root)
        else:
            g = esr_gradient_phases_uncommon(
                so or second_order_uncommon(sol, scenario.p), corr.C_L,
                corr.c_r_list(scenario.dims.K), scenario.t, phi,
                scenario.sigma2, root=corr.root)
        return rep.esr, g

    return value, value_grad


def _lbfgs_direction(grad: np.ndarray, pairs: list) -> np.ndarray:
    """Ascent direction H grad by the L-BFGS two-loop recursion on -ESR
    (Nocedal 1980), over the (s, y) pairs oldest first, each with s.y > 0;
    without pairs, ALPHA0 grad / ||grad||."""
    if not pairs:
        return ALPHA0 * grad / np.linalg.norm(grad)
    q = grad.copy()
    coef = []
    for s, y in reversed(pairs):
        coef.append(s @ q / (s @ y))
        q -= coef[-1] * y
    s, y = pairs[-1]
    r = (s @ y) / (y @ y) * q
    for (s, y), a in zip(pairs, reversed(coef)):
        r += (a - y @ r / (s @ y)) * s
    return r


def gradient_ascent_phases(scenario: Scenario, s: np.ndarray | None, z: float | None,
                           phi0: np.ndarray, precoder: str = "rzf",
                           trace: OptimizationTrace | None = None):
    """Backtracking quasi-Newton ascent on the RIS phase angles.

    Steps along `_lbfgs_direction` d over the last LBFGS_MEMORY pairs
    (s, y) = (accepted move before the mod-2pi wrap, minus the gradient
    change), kept when s.y > 0; if grad.d <= 0 it drops them and steps along
    the gradient. Accepted steps satisfy R(phi + a d) - R(phi) >= a beta
    grad.d, so the ESR never decreases; a failed line search (max halvings)
    returns the current iterate with stalled=True. The search solves warm
    (`_phase_objective`); the returned ESR is one cold `deterministic_esr`
    at the returned phases. Trace records carry `step` = ||a d||.
    """
    value, value_grad = _phase_objective(scenario, s, precoder, z,
                                         DEFAULT_SETTINGS)
    phi = np.mod(np.asarray(phi0, dtype=float), 2.0 * np.pi)
    esr, grad = value_grad(phi)
    pairs, stalled = [], False
    for it in range(ASCENT_MAX_ITER):
        norm = float(np.linalg.norm(grad))
        if norm < 1e-14 * max(1.0, abs(esr)):
            break
        direction = _lbfgs_direction(grad, pairs)
        if grad @ direction <= 0.0:      # not uphill: restart at the gradient
            pairs, direction = [], _lbfgs_direction(grad, [])
        slope = float(grad @ direction)
        alpha = 1.0
        halvings = 0
        while True:
            cand = np.mod(phi + alpha * direction, 2.0 * np.pi)
            esr_cand = value(cand)
            if esr_cand - esr >= alpha * ARMIJO_BETA * slope:
                break
            alpha *= BACKTRACK_C
            halvings += 1
            if halvings > MAX_HALVINGS:
                stalled = True
                break
        if stalled:
            break
        phi = cand
        esr_prev, grad_prev = esr, grad
        esr, grad = value_grad(phi)
        move, change = alpha * direction, grad_prev - grad
        if move @ change > 0.0:
            pairs = (pairs + [(move, change)])[-LBFGS_MEMORY:]
        if trace is not None:
            trace.add(stage="phases", iteration=it, objective=esr,
                      step=float(np.linalg.norm(move)), gradient_norm=norm,
                      halvings=halvings, evals=halvings + 1)
        if abs(esr - esr_prev) < ASCENT_TOL * abs(esr_prev):
            break
    esr = deterministic_esr(scenario, s, phi, precoder, z).esr
    return PhaseShifts(phi), esr, stalled


# ---------------------------------------------------------------------------
# regularizer search
# ---------------------------------------------------------------------------

class _WarmRzfEsr:
    """ESR_RZF(z), z a float or a 1-D batch for one batched solve, which
    starts cold (x0 None) or from the fixed point x0 at z0 moved to z along
    the z scaling of `_Map`: the _bar entries times z / z0, the rest times
    z0 / z. With `slope`, also d ESR / d ln z. `evals` counts z points."""

    def __init__(self, scenario: Scenario, s, phi, settings: SolverSettings):
        self.sigma2 = scenario.sigma2
        self.settings = settings
        self.stats, self.shared = _stats(scenario, s, phi)
        self.spectra = _spectra(*self.stats[:2]) if self.shared else None
        self.x0 = self.z0 = None
        self.evals = 0

    def __call__(self, z, slope: bool = False):
        self.evals += np.size(z)
        x0 = self.x0 and {k: v * (z / self.z0 if k.endswith("_bar")
                                  else self.z0 / z) for k, v in self.x0.items()}
        rep, so, sol = _evaluate(self.stats, self.shared, "rzf", z, self.sigma2,
                                 self.settings, x0, spectra=self.spectra)
        self.x0, self.z0 = sol.x0, z
        if not slope:
            return rep.esr
        return rep.esr, z * esr_gradient_z(so, self.sigma2)


def _refine(esr_of: _WarmRzfEsr, z: float, c: float | None, lo: float,
            hi: float):
    """Secant steps on g = d ESR / d ln z from z, each kept only if the ESR
    does not fall; c estimates d g / d ln z, None for a first probe of
    Z_PROBE uphill. Stops once |g| <= Z_SLOPE_TOL |ESR| or after
    Z_REFINE_STEPS steps, and gives up, inside False, when the curvature
    is not negative or a step would leave [lo, hi]. Returns (z, g, c, inside).
    """
    f, g = esr_of(z, slope=True)
    prev = None
    for _ in range(Z_REFINE_STEPS):
        if abs(g) <= Z_SLOPE_TOL * abs(f):
            break
        if prev is not None:
            c = (g - prev[1]) / np.log(z / prev[0])
        if c is not None and c >= 0.0:
            return z, g, c, False
        z_new = z * np.exp(np.sign(g) * Z_PROBE if c is None else -g / c)
        if not lo <= z_new <= hi:
            return z, g, c, False
        f_new, g_new = esr_of(z_new, slope=True)
        if f_new >= f:
            prev, (z, f, g) = (z, g), (z_new, f_new, g_new)
        else:
            prev = (z_new, g_new)      # a step that falls still sets the secant
    return z, g, c, True


def _profile(esr_of: _WarmRzfEsr, scenario: Scenario, s):
    """`z_search_profile` on esr_of; also returns the slope at z_star."""
    grid = scenario.default_z(s) * np.logspace(
        -Z_SPAN_DECADES, Z_SPAN_DECADES, Z_GRID_POINTS)
    # one batched solve, every row cold: the values do not depend on earlier
    # use; the secant steps then start from the argmax's fixed point
    esr_of.x0 = None
    vals = esr_of(grid)
    i = int(np.argmax(vals))
    esr_of.x0, esr_of.z0 = {k: v[i] for k, v in esr_of.x0.items()}, grid[i]
    j = min(max(i, 1), len(grid) - 2)      # parabola through three points
    c = (vals[j + 1] - 2.0 * vals[j] + vals[j - 1]) \
        / (Z_STEP_DECADES * np.log(10.0)) ** 2
    z, g, c, _ = _refine(esr_of, grid[i], c, grid[max(i - 1, 0)],
                         grid[min(i + 1, len(grid) - 1)])
    return float(z), grid, vals, float(z * abs(g / c)), g


def z_search_profile(scenario: Scenario, s, phi):
    """Grid profile of ESR_RZF over z, refined from its argmax by the slope
    d ESR / d ln z. Returns (z_star, grid, values, width).

    The grid spans Z_SPAN_DECADES either side of K sigma^2 / M in
    Z_GRID_POINTS points, swept in one batched solve. Secant steps
    (`_refine`) then start at the argmax, with the curvature of the parabola
    through it and its neighbours, and stay between those neighbours.
    width = z_star |g / c|, the Newton estimate of the distance from z_star
    to the stationary point (g the slope, c the curvature).
    """
    esr_of = _WarmRzfEsr(scenario, s, phi, DEFAULT_SETTINGS)
    return _profile(esr_of, scenario, s)[:4]


def search_regularization(scenario: Scenario, s: np.ndarray | None,
                          phi: np.ndarray | None,
                          incumbent: float | None = None,
                          report: dict | None = None) -> float:
    """Best RZF regularizer. Homogeneous scenarios shortcut to K sigma^2 / M.

    Without an incumbent, the refined grid profile (`z_search_profile`).
    With one, the secant steps start at the incumbent, so the ESR does not
    fall below its value there; the grid profile runs only when a step would
    leave one grid step. A `report` dict receives `evals`, the ESR
    evaluations, and `gradient_norm`, |d ESR / d ln z| at the result.
    """
    if scenario.homogeneous:
        return scenario.default_z(s)
    esr_of = _WarmRzfEsr(scenario, s, phi, DEFAULT_SETTINGS)
    inside = False
    if incumbent is not None:
        step = 10.0 ** Z_STEP_DECADES
        z, g, _, inside = _refine(esr_of, incumbent, None, incumbent / step,
                                  incumbent * step)
    if not inside:
        z, _, _, _, g = _profile(esr_of, scenario, s)
    if report is not None:
        report.update(evals=esr_of.evals, gradient_norm=abs(float(g)))
    return float(z)


# ---------------------------------------------------------------------------
# alternating optimization and the joint loop
# ---------------------------------------------------------------------------

def alternating_optimization(scenario: Scenario, s: np.ndarray | None,
                             phi0: np.ndarray, precoder: str = "rzf",
                             trace: OptimizationTrace | None = None):
    """Alternate {z search; phase ascent} at fixed port selection.

    ESR is non-decreasing across outer iterations: from the second round on
    the z search starts at the incumbent and keeps a step only if the ESR
    does not fall, and the ascent only accepts improving steps. ZF mode
    skips the z updates entirely and returns z = None. Each `ao` record
    carries the z search's `evals` and `gradient_norm` (|d ESR / d ln z| at
    the accepted z).
    """
    trace = trace if trace is not None else OptimizationTrace()
    phi = np.mod(np.asarray(phi0, dtype=float), 2.0 * np.pi)
    z = esr_prev = None
    for it in range(AO_MAX_ITER):
        search = {"evals": 0}
        if precoder == "rzf":
            # from the second round on, start the search at the incumbent
            z = search_regularization(scenario, s, phi, incumbent=z,
                                      report=search)
        phases, esr, stalled = gradient_ascent_phases(scenario, s, z, phi,
                                                      precoder, trace)
        phi = phases.phi
        trace.add(stage="ao", iteration=it, objective=esr, z=z,
                  stalled=stalled, **search)
        if esr_prev is not None and abs(esr - esr_prev) < AO_TOL * abs(esr_prev):
            break
        esr_prev = esr
    return z, PhaseShifts(phi), esr, trace


def joint_optimize(scenario: Scenario, M: int, phi0: np.ndarray | None = None,
                   T_iter: int = 3, precoder: str = "rzf"):
    """Outer loop: port selection, then (z, Phi) optimization; best iterate wins.

    Returns (s, z, PhaseShifts, RateReport, trace).
    """
    if T_iter < 1:
        raise ValueError("T_iter must be >= 1")
    L = scenario.dims.L
    phi = np.zeros(L) if phi0 is None else np.mod(np.asarray(phi0, float),
                                                  2.0 * np.pi)
    trace = OptimizationTrace()
    best = None
    for t in range(1, T_iter + 1):
        s = fw_port_selection(scenario, phi, M, trace)
        z, phases, esr, _ = alternating_optimization(scenario, s, phi,
                                                     precoder, trace)
        trace.add(stage="joint", iteration=t, objective=esr,
                  z=z, s_indices=np.flatnonzero(s).tolist())
        if best is None or esr > best[0]:
            best = (esr, s, z, phases)
        phi = phases.phi
    esr, s, z, phases = best
    report = deterministic_esr(scenario, s, phases.phi, precoder, z)
    return s, z, phases, report, trace
