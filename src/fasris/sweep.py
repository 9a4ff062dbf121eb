"""Experiment runner: sweeps, figure recipes, CSV/SVG output, validation.

CSV schema is fixed: scenario_id, axis_name, axis_value, precoder, method,
esr, stderr, runtime_ms. All randomness flows from the configured seed; the
runtime column stays empty unless timing is explicitly requested, so output
files are byte-identical for a fixed seed.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .channel import ChannelSampler
from .config import (phases_from_config, scenario_from_config,
                     selection_from_config)
from .fixed_point import (SolverSettings, backsubstitution_residual,
                          solve_iid_zf, solve_rzf_uncommon, solve_zf_uncommon)
from .gradients import fd_gradient
from .montecarlo import _trial_rates, empirical_esr, resolvent_probe
from .optimize import (RelaxedZfObjective, _WarmRzfEsr, _evaluate,
                       _phase_objective, alternating_optimization,
                       deterministic_esr, joint_optimize, z_search_profile)
from . import scenarios as sc_mod
from .svgplot import line_plot

CSV_HEADER = "scenario_id,axis_name,axis_value,precoder,method,esr,stderr,runtime_ms"


class UsageError(ValueError):
    pass


def format_row(scenario_id, axis_name, axis_value, precoder, method, esr,
               stderr=None, runtime_ms=None) -> str:
    se = "" if stderr is None else f"{stderr:.12g}"
    rt = "" if runtime_ms is None else f"{runtime_ms:.0f}"
    return (f"{scenario_id},{axis_name},{axis_value:.12g},{precoder},"
            f"{method},{esr:.12g},{se},{rt}")


def write_csv(path: Path, rows: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")


def _eval_point(scenario, s, phi, precoder, method, trials, seed, timing):
    t0 = time.perf_counter()
    z = scenario.default_z(s) if precoder == "rzf" else None
    if method == "de":
        rep = deterministic_esr(scenario, s, phi, precoder, z)
        esr, stderr = rep.esr, None
    else:
        est = empirical_esr(scenario, s, phi, precoder, trials, seed, z)
        esr, stderr = est.mean, est.stderr
    rt = (time.perf_counter() - t0) * 1e3 if timing else None
    return esr, stderr, rt


def _precoder_sweep(points, precoders, methods, trials, seed, timing):
    """Rows and one series per (precoder, method) over SNR points.

    points yield (snr_db, scenario, s, phi); MRT has no DE, so MC only.
    """
    rows, series = [], {}
    for snr_db, scenario, s, phi in points:
        for precoder in precoders:
            for method in methods:
                if precoder == "mrt" and method == "de":
                    continue
                esr, stderr, rt = _eval_point(scenario, s, phi, precoder,
                                              method, trials, seed, timing)
                rows.append(format_row(scenario.name, "snr_db", snr_db,
                                       precoder, method, esr, stderr, rt))
                xs, ys = series.setdefault((precoder, method), ([], []))
                xs.append(snr_db)
                ys.append(esr)
    return rows, [{"x": x, "y": y, "label": f"{p} ({m})", "dashed": m == "mc"}
                  for (p, m), (x, y) in sorted(series.items())]


def run_experiment(cfg: dict, out_dir: str | Path, seed: int | None = None,
                   timing: bool = False) -> dict:
    """Config-driven sweep. Writes one CSV and one SVG; returns their paths."""
    sweep = cfg.get("sweep")
    if not sweep or not sweep.get("values"):
        raise UsageError("config has no sweep values")
    values = list(sweep["values"])
    if sorted(values) != values:
        raise UsageError("sweep values must be sorted ascending")
    if sweep.get("axis", "snr_db") != "snr_db":
        raise UsageError("config-driven sweeps support axis 'snr_db'; "
                         "named figures cover the other axes")
    precoders = cfg.get("precoders", ["rzf"])
    methods = cfg.get("methods", ["de", "mc"])
    trials = int(cfg.get("trials", 2000))
    seed = int(cfg.get("seed", 0)) if seed is None else seed

    points = []
    for snr_db in values:
        cfg_point = dict(cfg)
        cfg_point["scenario"] = dict(cfg["scenario"])
        if "preset" in cfg_point["scenario"] and cfg_point["scenario"]["preset"]:
            pa = dict(cfg_point["scenario"].get("preset_args", {}))
            pa["sigma2_inv_db"] = snr_db
            cfg_point["scenario"]["preset_args"] = pa
        else:
            cfg_point["scenario"]["sigma2_inv_db"] = snr_db
        scenario = scenario_from_config(cfg_point)
        points.append((snr_db, scenario, selection_from_config(cfg, scenario),
                       phases_from_config(cfg, scenario.dims.L)))
    rows, series = _precoder_sweep(points, precoders, methods, trials, seed,
                                   timing)
    name = points[-1][1].name
    return _finish(out_dir, f"{name}_sweep", rows, series, "1/sigma^2 [dB]",
                   "ESR [bit/s/Hz]", name)


# ---------------------------------------------------------------------------
# figure recipes
# ---------------------------------------------------------------------------

def _de_vs_mc(out_dir: Path, name: str, groups, axis_name: str, trials: int,
              seed: int, timing: bool, xlabel: str,
              title: str) -> dict:
    """RZF analysis (DE) vs simulation (MC) at z = K sigma^2/M, all ports.

    Each (label, points) group, points yielding (x, scenario_id, scenario),
    gives a DE and an MC row per point and one series of each.
    """
    rows, series = [], []
    for label, points in groups:
        xs, de_y, mc_y = [], [], []
        for x, scenario_id, sc in points:
            for method, store in (("de", de_y), ("mc", mc_y)):
                esr, stderr, rt = _eval_point(sc, None, None, "rzf", method,
                                              trials, seed, timing)
                rows.append(format_row(scenario_id, axis_name, x, "rzf",
                                       method, esr, stderr, rt))
                store.append(esr)
            xs.append(x)
        series.append({"x": xs, "y": de_y, "label": f"{label} analysis"})
        series.append({"x": xs, "y": mc_y, "label": f"{label} simulation",
                       "dashed": True})
    return _finish(out_dir, name, rows, series, xlabel, "ESR [bit/s/Hz]",
                   title)


def figure_fig1(out_dir: Path, trials: int, seed: int, timing: bool,
                snrs=(60, 70, 80, 90, 100), Ms=(16, 20, 24)) -> dict:
    """ESR accuracy vs SNR for M in {16, 20, 24} (RZF, z = K sigma^2/M)."""
    def points(M):
        for snr in snrs:
            sc = sc_mod.fig1_scenario(M, snr)
            yield snr, sc.name, sc
    return _de_vs_mc(out_dir, "fig1", [(f"M={M}", points(M)) for M in Ms],
                     "snr_db", trials, seed, timing,
                     "1/sigma^2 [dB]", "ESR vs SNR, per-user correlation")


def figure_fig2(out_dir: Path, trials: int, seed: int, timing: bool,
                scales=(1, 2, 3, 4)) -> dict:
    """DE accuracy vs proportional system size, cases (8,6,16)/(12,6,16)."""
    def points(case):
        for scale in scales:
            yield scale, f"fig2_case{case}", sc_mod.fig2_scenario(case, scale)
    return _de_vs_mc(out_dir, "fig2",
                     [(f"case {case}", points(case)) for case in (1, 2)],
                     "scale", trials, seed, timing, "size multiple",
                     "DE accuracy vs system size")


def _joint_vs_uniform(out_dir: Path, name: str, points, axis_name: str,
                      xlabel: str, title: str) -> dict:
    """Joint design vs uniform selection + AO, two rows per (x, id, sc, M)."""
    rows, xs, opt_y, uni_y = [], [], [], []
    for x, scenario_id, sc, M in points:
        rep = joint_optimize(sc, M, T_iter=1)[3]
        s_uni = sc_mod.uniform_selection(M, sc.correlations.R_tot.shape[0])
        esr_u = alternating_optimization(sc, s_uni, np.zeros(sc.dims.L))[2]
        rows.append(format_row(scenario_id, axis_name, x, "rzf", "de_joint",
                               rep.esr))
        rows.append(format_row(scenario_id, axis_name, x, "rzf", "de_uniform",
                               esr_u))
        xs.append(x)
        opt_y.append(rep.esr)
        uni_y.append(esr_u)
    series = [{"x": xs, "y": opt_y, "label": "proposed selection"},
              {"x": xs, "y": uni_y, "label": "uniform selection",
               "dashed": True}]
    return _finish(out_dir, name, rows, series, xlabel, "ESR [bit/s/Hz]",
                   title)


def figure_fig3(out_dir: Path, trials: int, seed: int, timing: bool,
                snrs=(60, 70, 80, 90, 100)) -> dict:
    """Optimized port selection vs uniform baseline (RZF)."""
    def points():
        for snr in snrs:
            sc, M = sc_mod.fig3_scenario(snr)
            yield snr, sc.name, sc, M
    return _joint_vs_uniform(out_dir, "fig3", points(), "snr_db",
                             "1/sigma^2 [dB]",
                             "Optimization vs uniform selection")


def figure_fig4(out_dir: Path, trials: int, seed: int, timing: bool,
                snrs=(60, 70, 80, 90, 100)) -> dict:
    """RZF vs ZF vs MRT on the optimization scenario (uniform ports)."""
    def points():
        for snr in snrs:
            sc, M = sc_mod.fig3_scenario(snr)
            s = sc_mod.uniform_selection(M, sc.correlations.R_tot.shape[0])
            yield snr, sc, s, np.zeros(sc.dims.L)
    rows, series = _precoder_sweep(points(), ("rzf", "zf", "mrt"),
                                   ("de", "mc"), trials, seed, timing)
    return _finish(out_dir, "fig4", rows, series, "1/sigma^2 [dB]",
                   "ESR [bit/s/Hz]", "Precoder comparison")


def figure_fig5(out_dir: Path, trials: int, seed: int, timing: bool,
                Ws=(1.0, 1.5, 2.0, 2.5, 3.0)) -> dict:
    """Aperture sweep at fixed M_tot (80 dB, optimized selection)."""
    rows, xs, ys = [], [], []
    for Wap in Ws:
        sc, M = sc_mod.fig3_scenario(80.0, W=Wap)
        s_opt, z_opt, phases, rep, _ = joint_optimize(sc, M, T_iter=1)
        rows.append(format_row(f"fig5_W{Wap:g}", "W", Wap, "rzf", "de_joint",
                               rep.esr))
        xs.append(Wap)
        ys.append(rep.esr)
    series = [{"x": xs, "y": ys, "label": "optimized selection"}]
    return _finish(out_dir, "fig5", rows, series, "aperture W [wavelengths]",
                   "ESR [bit/s/Hz]", "Impact of array aperture")


def figure_fig6(out_dir: Path, trials: int, seed: int, timing: bool,
                Ks=(4, 8, 12, 16)) -> dict:
    """User-count sweep: joint optimization vs uniform+AO (80 dB)."""
    def points():
        for K in Ks:
            sc, M = sc_mod.fig6_scenario(K, 80.0)
            yield K, sc.name, sc, M
    return _joint_vs_uniform(out_dir, "fig6", points(), "K",
                             "number of users K", "Impact of user count")


def figure_fig7(out_dir: Path, trials: int, seed: int, timing: bool,
                Ms=(12, 16, 20, 24, 28)) -> dict:
    """Selected-port sweep at 90 dB: joint optimization vs uniform+AO."""
    def points():
        sc = sc_mod.fig3_scenario(90.0)[0]      # one set for every M
        for M in Ms:
            yield M, f"fig7_M{M}", replace(sc, dims=replace(sc.dims, M=M)), M
    return _joint_vs_uniform(out_dir, "fig7", points(), "M",
                             "selected ports M",
                             "Impact of selected-port count")


def figure_fig8(out_dir: Path, trials: int, seed: int, timing: bool) -> dict:
    """ESR vs z on a homogeneous scenario with the closed-form optimum marked."""
    sc, M = sc_mod.fig8_scenario(80.0)
    s = sc_mod.uniform_selection(M, sc.correlations.R_tot.shape[0])
    phi = np.zeros(sc.dims.L)
    z_star, grid, vals, width = z_search_profile(sc, s, phi)
    z_prop = sc.default_z(s)
    rows = [format_row(sc.name, "z", z, "rzf", "de", v)
            for z, v in zip(grid, vals)]
    series = [{"x": grid, "y": vals, "label": "ESR(z)", "markers": False}]
    out = _finish(out_dir, "fig8", rows, series, "regularization z",
                  "ESR [bit/s/Hz]", "Regularizer search, homogeneous users",
                  logx=True, vlines=[(z_prop, "closed form"),
                                     (z_star, "search")])
    out["z_star"] = z_star
    out["z_prop"] = z_prop
    return out


FIGURES = {"fig1": figure_fig1, "fig2": figure_fig2, "fig3": figure_fig3,
           "fig4": figure_fig4, "fig5": figure_fig5, "fig6": figure_fig6,
           "fig7": figure_fig7, "fig8": figure_fig8}


def _finish(out_dir: Path, name: str, rows, series, xlabel, ylabel, title,
            logx=False, vlines=()) -> dict:
    out_dir = Path(out_dir)
    csv_path = out_dir / f"{name}.csv"
    write_csv(csv_path, rows)
    svg_path = out_dir / f"{name}.svg"
    svg_path.write_text(line_plot(series, xlabel, ylabel, title, logx=logx,
                                  vlines=list(vlines)))
    return {"csv": csv_path, "svg": svg_path, "rows": len(rows)}


def run_figure(name: str, out_dir: str | Path, trials: int = 2000,
               seed: int = 0, timing: bool = False) -> dict:
    if name not in FIGURES:
        raise UsageError(f"unknown figure {name!r}; choose from "
                         f"{sorted(FIGURES)}")
    return FIGURES[name](Path(out_dir), trials, seed, timing)


# ---------------------------------------------------------------------------
# validation battery
# ---------------------------------------------------------------------------

def validate(cfg: dict | None = None, trials: int = 800, seed: int = 7,
             _tamper=None) -> list[dict]:
    """Run the invariant suite; returns one record per check.

    Each record: {name, passed, measured, tolerance, detail}. Failures are
    report content, not exceptions. `_tamper(name, so)` is a fault-injection
    hook used by tests to verify the probes catch corrupted blocks.
    """
    checks: list[dict] = []

    def record(name, measured, tol, detail=""):
        checks.append({"name": name, "passed": bool(measured <= tol),
                       "measured": float(measured), "tolerance": tol,
                       "detail": detail})

    if cfg is not None and cfg.get("scenario"):
        scenario = scenario_from_config(cfg)
    else:
        scenario = sc_mod.fig1_scenario(16, 80.0, K=6, L=16)

    # 1. correlation matrices PSD
    corr = scenario.correlations
    mats = [corr.R_tot, corr.C_L] + corr.f_tot_list(scenario.dims.K) \
        + corr.c_r_list(scenario.dims.K)
    min_eig = min(float(np.linalg.eigvalsh(A).min()) for A in mats)
    record("correlation_psd", max(-min_eig, 0.0), 1e-10,
           f"min eigenvalue {min_eig:.3e}")

    # 2. solver consistency on the scenario, solved by the per-user solvers
    stats = scenario.stats_uncommon()
    F_list, R, C_list, p = stats
    z = scenario.default_z()
    rep, so, sol = _evaluate(stats, False, "rzf", z, scenario.sigma2,
                             SolverSettings())
    res = backsubstitution_residual(sol, F_list=F_list, R=R, C_list=C_list)
    record("backsubstitution", res, 10 * 1e-10, "one extra sweep")

    sol_b = solve_rzf_uncommon(F_list, R, C_list, z,
                               SolverSettings(init=10.0))
    gap = max(abs(sol.delta - sol_b.delta) / sol.delta,    # in delta and mu
              float(np.max(np.abs(sol.mu - sol_b.mu) / sol.mu)))
    record("init_independence", gap, 1e-8, "init 1 vs 10")

    # 3. ZF as the z->0 limit; z is scaled to the channel-gain magnitude so
    # the limit is equally deep regardless of the scenario's absolute scale
    if scenario.dims.M >= scenario.dims.K:
        zf = solve_zf_uncommon(F_list, R, C_list)
        z_small = 1e-8 * float(np.mean(scenario.u) + np.mean(scenario.t))
        small = solve_rzf_uncommon(F_list, R, C_list, z_small,
                                   SolverSettings(tol=1e-12, max_iter=20000))
        dev = float(np.max(np.abs(z_small * small.mu - zf.mu) / zf.mu))
        record("zf_small_z_limit", dev, 1e-3,
               f"z mu(z) vs ZF mu at z={z_small:.1e}")

    # 4. iid closed form
    beta = solve_iid_zf(1.0, 0.5, 0.5, 0.6).beta_val
    mu_fp = _iid_fixed_point(1.0, 0.5, 0.5, 0.6)
    record("iid_closed_form", abs((1 - 0.5) * beta - mu_fp) / mu_fp, 1e-8,
           "closed form vs fixed-point iteration")

    # 5. FD spot checks of the optimizer's own objectives, solved tightly
    tight = SolverSettings(tol=1e-13, max_iter=30000)
    rng = np.random.default_rng(seed)
    sc_small = sc_mod.random_scenario(rng, "common", M=10, K=3, L=6)
    phi0 = rng.uniform(0, 2 * np.pi, 6)
    value, value_grad = _phase_objective(sc_small, None, "rzf", None, tight)
    record("fd_phase_gradient", _fd_deviation(value, value_grad(phi0)[1], phi0),
           1e-3, "analytic vs central differences")

    sc_ports = sc_mod.random_scenario(rng, "common", M=6, K=3, L=6, M_tot=12)
    s0 = rng.uniform(0.3, 0.9, 12)
    obj = RelaxedZfObjective(sc_ports, None, 6, tight)
    record("fd_port_gradient", _fd_deviation(obj.esr, obj.gradient(s0)[1], s0),
           1e-3, "analytic vs central differences")

    sc_user = sc_mod.random_scenario(rng, "uncommon", M=10, K=3, L=6)
    phi1 = rng.uniform(0, 2 * np.pi, 6)
    for precoder, tag in (("rzf", ""), ("zf", "_zf")):
        value, value_grad = _phase_objective(sc_user, None, precoder, None, tight)
        record(f"fd_phase_gradient{tag}_uncommon",
               _fd_deviation(value, value_grad(phi1)[1], phi1), 1e-3,
               f"per-user {precoder.upper()} analytic vs central differences")
    esr_z = _WarmRzfEsr(sc_user, None, phi1, tight)
    log_z = np.log([10.0 * sc_user.default_z()])     # a decade above K sigma^2/M
    slope = esr_z(np.exp(log_z[0]), slope=True)[1:]
    record("fd_z_derivative", _fd_deviation(lambda y: esr_z(np.exp(y[0])),
                                            np.array(slope), log_z),
           1e-3, "per-user d ESR / d ln z vs central differences")
    sc_user_ports = sc_mod.random_scenario(rng, "uncommon", M=6, K=3, L=6,
                                           M_tot=12)
    s1 = rng.uniform(0.3, 0.9, 12)
    obj = RelaxedZfObjective(sc_user_ports, None, 6, tight)
    record("fd_port_gradient_uncommon",
           _fd_deviation(obj.esr, obj.gradient(s1)[1], s1), 1e-3,
           "per-user analytic vs central differences")

    # 6. resolvent probes (first and second order)
    pr = resolvent_probe(scenario, None, None, z, trials, seed)
    if _tamper is not None:
        _tamper("pi_block", so)
    d1 = abs(pr.delta_hat - sol.delta) / sol.delta
    no_cascade = bool(np.all(scenario.t == 0.0))
    if no_cascade:
        record("probe_first_order", d1, 0.03,
               f"delta {d1:.3%}; cascaded omega probe skipped (t = 0)")
    else:
        d2 = float(np.max(np.abs(pr.omega_hat - sol.omega)
                          / np.maximum(sol.omega, 1e-6)))
        record("probe_first_order", max(d1, d2), 0.03,
               f"delta {d1:.3%}, omega {d2:.3%}")
    upsI = so.ups_I[:scenario.dims.K]
    dU = float(np.max(np.abs(pr.ups_I_hat - upsI) / np.abs(upsI)))
    record("probe_quadratic_traces", dU, 0.05, "trace of Q K Q functionals")
    if no_cascade:
        record("probe_bilinear_traces", 0.0, 0.05,
               "skipped: no cascaded link (t = 0), bilinear traces vanish")
    else:
        dL = float(np.max(np.abs(pr.lambda_hat - so.Lambda_kl)
                          / np.maximum(np.abs(so.Lambda_kl), 1e-9)))
        record("probe_bilinear_traces", dL, 0.05, "bilinear cascaded traces")

    # 7. DE vs MC smoke test
    est = empirical_esr(scenario, None, None, "rzf", trials, seed, z)
    record("de_vs_mc", abs(rep.esr - est.mean) / est.mean, 0.05,
           f"DE {rep.esr:.3f} vs MC {est.mean:.3f}")

    # 8. per-trial MC rates do not depend on how trials are stacked
    sampler = ChannelSampler(scenario, None, None)
    single, stacked = (_trial_rates(sampler, scenario.p, scenario.sigma2,
                                    "rzf", z, seed, 64, block)
                       for block in (1, None))
    record("mc_block_determinism", float(np.max(np.abs(single - stacked))),
           0.0, "per-trial rates bit-identical for blocks of 1 and the default")
    return checks


def _iid_fixed_point(u, t, c1, c2, iters=20000):
    """Independent oracle: damped iteration of the scaled i.i.d. ZF system."""
    delta = omega = mu = 1.0
    for _ in range(iters):
        delta_n = 1.0 / (1.0 + c1 * t * omega / (mu * delta) + c1 * u / mu)
        omega_n = 1.0 / (1.0 / delta_n + c2 * t / mu)
        mu_n = t * omega_n + u * delta_n
        if max(abs(delta_n - delta), abs(omega_n - omega), abs(mu_n - mu)) < 1e-14:
            delta, omega, mu = delta_n, omega_n, mu_n
            break
        delta = delta + 0.5 * (delta_n - delta)
        omega = omega + 0.5 * (omega_n - omega)
        mu = mu + 0.5 * (mu_n - mu)
    return mu


def _fd_deviation(fun, grad: np.ndarray, x: np.ndarray) -> float:
    """Largest relative deviation of `grad` from central differences of `fun`
    at x; entries below 1e-3 of the largest difference use that floor."""
    g_fd = fd_gradient(fun, x, 1e-5)
    floor = 1e-3 * max(np.abs(g_fd).max(), 1e-12)
    return float(np.max(np.abs(grad - g_fd) / np.maximum(np.abs(g_fd), floor)))
