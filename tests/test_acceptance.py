"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
measurements. Tolerances are fixed here and nowhere else.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from fasris import (SolverSettings, alternating_optimization,
                    deterministic_esr, empirical_esr, esr_iid_zf,
                    fw_port_selection, joint_optimize, resolvent_probe,
                    sinr_rzf_common, sinr_rzf_uncommon, sinr_zf,
                    solve_iid_zf, solve_rzf_common,
                    solve_rzf_uncommon, solve_zf_common, solve_zf_uncommon,
                    z_search_profile)
from fasris.gradients import (esr_gradient_phases_common,
                              esr_gradient_phases_uncommon,
                              esr_gradient_ports_zf_common)
from fasris.channel import herm, phase_matrix, psd_sqrt
from fasris.sweep import _fd_deviation
from fasris.scenarios import (fig1_scenario, fig2_scenario, fig3_scenario,
                              fig6_scenario, fig8_scenario, random_scenario,
                              uniform_selection)
from fasris import cli

TIGHT = SolverSettings(tol=1e-12, max_iter=30000)


def verdict(name: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_de_vs_mc_agreement():
    """RZF DE within 5% of Monte Carlo on the reference evaluation grid."""
    t0 = time.time()
    worst = 0.0
    for M in (16, 20, 24):
        for snr in (60, 70, 80, 90, 100):
            sc = fig1_scenario(M, snr)
            z = sc.dims.K * sc.sigma2 / M
            rep = deterministic_esr(sc, None, None, "rzf", z)
            est = empirical_esr(sc, None, None, "rzf", 2000, 101, z)
            worst = max(worst, abs(rep.esr - est.mean) / est.mean)
    elapsed = time.time() - t0
    verdict("criterion 1 (DE vs MC, 5%)", worst <= 0.05 and elapsed <= 300,
            f"worst relative error {worst:.3%} over 15 points, "
            f"{elapsed:.0f}s (budget 300s)")


def test_criterion_02_small_size_robustness():
    """DE within 8% of MC at (8,6,16) and (12,6,16), 80 dB."""
    worst = 0.0
    for case in (1, 2):
        sc = fig2_scenario(case, 1, 80.0)
        z = sc.dims.K * sc.sigma2 / sc.dims.M
        rep = deterministic_esr(sc, None, None, "rzf", z)
        est = empirical_esr(sc, None, None, "rzf", 2000, 202, z)
        worst = max(worst, abs(rep.esr - est.mean) / est.mean)
    verdict("criterion 2 (small sizes, 8%)", worst <= 0.08,
            f"worst relative error {worst:.3%}")


def test_criterion_03_degeneration_lattice():
    """Per-user -> shared -> i.i.d. specializations agree."""
    rng = np.random.default_rng(3)
    sc = random_scenario(rng, "common", M=16, K=5, L=10, sigma2=0.4)
    z = sc.dims.K * sc.sigma2 / sc.dims.M
    R, C, u, t, p = sc.stats_common()
    com = solve_rzf_common(R, C, u, t, z, TIGHT)
    rep_c, _ = sinr_rzf_common(com, p, sc.sigma2)
    F_list, R2, C_list, _ = sc.stats_uncommon()
    unc = solve_rzf_uncommon(F_list, R2, C_list, z, TIGHT)
    rep_u, _ = sinr_rzf_uncommon(unc, p, sc.sigma2)
    dev_a = float(np.max(np.abs(rep_c.sinr - rep_u.sinr) / rep_u.sinr))

    M, K, L = 16, 6, 12
    uu, tt, sigma2 = 1.1, 0.4, 0.3
    solz = solve_zf_common(np.eye(M), np.eye(L),
                           np.full(K, uu), np.full(K, tt), TIGHT)
    repz = sinr_zf(solz, np.ones(K), sigma2)
    closed = esr_iid_zf(uu, tt, K / M, K / L, sigma2, K)
    dev_b = abs(repz.esr - closed.esr) / closed.esr

    sol0 = solve_zf_common(np.eye(M), np.eye(L),
                           np.full(K, uu), np.zeros(K), TIGHT)
    rep0 = sinr_zf(sol0, np.ones(K), sigma2)
    c1 = K / M
    single_hop = K * np.log2(1 + (1 - c1) * uu / (c1 * sigma2))
    dev_c = abs(rep0.esr - single_hop) / single_hop

    ok = dev_a <= 1e-6 and dev_b <= 1e-8 and dev_c <= 1e-9
    verdict("criterion 3 (degeneration lattice)", ok,
            f"uncommon/common {dev_a:.2e} (tol 1e-6), identity/closed-form "
            f"{dev_b:.2e} (tol 1e-8), single-hop {dev_c:.2e}")


def test_criterion_04_zf_as_limit():
    """|ESR_ZF - ESR_RZF(z=1e-8)| / ESR_ZF <= 1e-3 on 10 random scenarios."""
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        K = int(rng.integers(3, 6))
        M = K + 2 + int(rng.integers(0, 5))
        sc = random_scenario(rng, "uncommon", M=M, K=K, L=8, sigma2=0.4)
        F_list, R, C_list, p = sc.stats_uncommon()
        zf = solve_zf_uncommon(F_list, R, C_list, TIGHT)
        rep_zf = sinr_zf(zf, p, sc.sigma2)
        rzf = solve_rzf_uncommon(F_list, R, C_list, 1e-8, TIGHT)
        rep_rzf, _ = sinr_rzf_uncommon(rzf, p, sc.sigma2)
        worst = max(worst, abs(rep_zf.esr - rep_rzf.esr) / rep_zf.esr)
    verdict("criterion 4 (ZF as z->0 limit)", worst <= 1e-3,
            f"worst relative gap {worst:.2e}")


def test_criterion_05_homogeneous_regularizer():
    """Grid argmax of ESR(z) within one grid step of K sigma^2/M for three
    different (selection, phases) pairs on the homogeneous scenario.

    The closed-form optimum is an asymptotic statement; at K = 24 the exact
    finite-size argmax carries an O(1/K) offset, so the band is one grid
    interval of the 41-point/8-decade search (0.2 decades), per the grid-step
    reading of the criterion.
    """
    sc, M = fig8_scenario(80.0)
    M_tot = sc.correlations.R_tot.shape[0]
    z_prop = sc.dims.K * sc.sigma2 / M
    rng = np.random.default_rng(55)
    step_decades = 2 * 4.0 / 40          # one grid interval, log10
    results = []
    pairs = [(uniform_selection(M, M_tot), np.zeros(sc.dims.L))]
    for _ in range(2):
        idx = rng.choice(M_tot, size=M, replace=False)
        s = np.zeros(M_tot)
        s[idx] = 1.0
        pairs.append((s, rng.uniform(0, 2 * np.pi, sc.dims.L)))
    for s, phi in pairs:
        z_star, grid, vals, width = z_search_profile(sc, s, phi)
        results.append(abs(np.log10(z_star / z_prop)))
    ok = all(r <= step_decades for r in results)
    verdict("criterion 5 (homogeneous optimal z)", ok,
            f"argmax offsets {[f'{r:.3f}' for r in results]} decades "
            f"(band {step_decades:.3f})")


def test_criterion_06_gradient_correctness():
    """Analytic phase/port gradients within 1e-3 of central differences
    across 20 randomized scenarios, under 2 minutes."""
    t0 = time.time()
    worst = 0.0
    tight = SolverSettings(tol=1e-13, max_iter=40000)

    for seed in range(7):                       # shared-correlation phases
        rng = np.random.default_rng(2000 + seed)
        sc = random_scenario(rng, "common", M=10, K=3, L=6, sigma2=0.3)
        corr = sc.correlations
        CLroot = psd_sqrt(corr.C_L)
        z = sc.dims.K * sc.sigma2 / sc.dims.M
        phi0 = rng.uniform(0, 2 * np.pi, 6)

        def esr(phi):
            Phi = phase_matrix(phi, 6)
            C = herm(CLroot @ Phi @ corr.C_R @ Phi.conj().T @ CLroot)
            sol = solve_rzf_common(corr.R_tot, C, sc.u, sc.t, z, tight)
            return sinr_rzf_common(sol, sc.p, sc.sigma2)[0].esr

        Phi0 = phase_matrix(phi0, 6)
        C0 = herm(CLroot @ Phi0 @ corr.C_R @ Phi0.conj().T @ CLroot)
        sol = solve_rzf_common(corr.R_tot, C0, sc.u, sc.t, z, tight)
        _, so = sinr_rzf_common(sol, sc.p, sc.sigma2)
        g = esr_gradient_phases_common(so, corr.C_L, corr.C_R, phi0,
                                       sc.sigma2)
        worst = max(worst, _fd_deviation(esr, g, phi0))

    for seed in range(7):                       # per-user-correlation phases
        rng = np.random.default_rng(3000 + seed)
        sc = random_scenario(rng, "uncommon", M=10, K=3, L=6, sigma2=0.3)
        corr = sc.correlations
        z = sc.dims.K * sc.sigma2 / sc.dims.M
        phi0 = rng.uniform(0, 2 * np.pi, 6)

        def esr(phi):
            F_list, R, C_list, p = sc.stats_uncommon(phi=phi)
            sol = solve_rzf_uncommon(F_list, R, C_list, z, tight)
            return sinr_rzf_uncommon(sol, p, sc.sigma2)[0].esr

        F_list, R, C_list, p = sc.stats_uncommon(phi=phi0)
        sol = solve_rzf_uncommon(F_list, R, C_list, z, tight)
        _, so = sinr_rzf_uncommon(sol, p, sc.sigma2)
        g = esr_gradient_phases_uncommon(so, corr.C_L, corr.c_r_list(3), sc.t,
                                         phi0, sc.sigma2)
        worst = max(worst, _fd_deviation(esr, g, phi0))

    for seed in range(6):                       # ZF port gradients
        rng = np.random.default_rng(4000 + seed)
        sc = random_scenario(rng, "common", M=6, K=3, L=6, M_tot=12,
                             sigma2=0.3)
        Rh = psd_sqrt(sc.correlations.R_tot)
        C = sc.correlations.C_L.copy()
        s0 = rng.uniform(0.3, 0.9, 12)

        def emb(root, s):
            return herm((root * s[None, :]) @ root)

        def esr_s(s):
            sol = solve_zf_common(emb(Rh, s), C, sc.u, sc.t, tight,
                                  m_norm=6)
            return sinr_zf(sol, sc.p, sc.sigma2).esr

        sol = solve_zf_common(emb(Rh, s0), C, sc.u, sc.t, tight, m_norm=6)
        g = esr_gradient_ports_zf_common(sol, Rh, sc.p, sc.sigma2)
        worst = max(worst, _fd_deviation(esr_s, g, s0))

    elapsed = time.time() - t0
    verdict("criterion 6 (gradient correctness)",
            worst <= 1e-3 and elapsed <= 120,
            f"worst FD deviation {worst:.2e} over 20 scenarios, "
            f"{elapsed:.0f}s (budget 120s)")


def test_criterion_07_optimizer_quality():
    """Joint optimization beats uniform+AO; the gain grows with K; FW is
    within 3% of the exhaustive optimum at toy scale."""
    sc, M = fig3_scenario(80.0)
    M_tot = sc.correlations.R_tot.shape[0]
    L = sc.dims.L
    s_j, z_j, ph_j, rep_j, _ = joint_optimize(sc, M, T_iter=1)
    z_u, ph_u, esr_u, _ = alternating_optimization(
        sc, uniform_selection(M, M_tot), np.zeros(L))
    beats_uniform = rep_j.esr >= esr_u

    ratios = {}
    for K in (4, 16):
        scK, MK = fig6_scenario(K, 80.0)
        sK, zK, phK, repK, _ = joint_optimize(scK, MK, T_iter=1)
        zKu, phKu, esrKu, _ = alternating_optimization(
            scK, uniform_selection(MK, M_tot), np.zeros(L))
        ratios[K] = repK.esr / esrKu
    trend = ratios[16] > ratios[4]

    rng = np.random.default_rng(77)
    toy = random_scenario(rng, "common", M=3, K=2, L=5, M_tot=10, sigma2=0.3)
    s_fw = fw_port_selection(toy, None, 3)
    best = -np.inf
    for idx in combinations(range(10), 3):
        s = np.zeros(10)
        s[list(idx)] = 1.0
        best = max(best, deterministic_esr(toy, s, None, "zf").esr)
    fw_val = deterministic_esr(toy, s_fw, None, "zf").esr
    near_optimal = fw_val >= 0.97 * best

    ok = beats_uniform and trend and near_optimal
    verdict("criterion 7 (optimizer quality)", ok,
            f"joint {rep_j.esr:.2f} vs uniform {esr_u:.2f}; "
            f"gain ratio K=16 {ratios[16]:.3f} vs K=4 {ratios[4]:.3f}; "
            f"toy FW {fw_val:.3f} vs exhaustive {best:.3f}")


def test_criterion_08_precoder_ordering():
    """RZF >= ZF at every SNR; MRT saturates while ZF keeps growing."""
    sc80, M = fig3_scenario(80.0)
    M_tot = sc80.correlations.R_tot.shape[0]
    s = uniform_selection(M, M_tot)
    phi = np.zeros(sc80.dims.L)

    ordering_ok = True
    for snr in (60, 70, 80, 90, 100):
        sc, _ = fig3_scenario(snr)
        rzf = deterministic_esr(sc, s, phi, "rzf").esr
        zf = deterministic_esr(sc, s, phi, "zf").esr
        ordering_ok = ordering_ok and (rzf >= zf >= 0)

    sc100, _ = fig3_scenario(100.0)
    mrt80 = empirical_esr(sc80, s, phi, "mrt", 2000, 808).mean
    mrt100 = empirical_esr(sc100, s, phi, "mrt", 2000, 808).mean
    zf80 = deterministic_esr(sc80, s, phi, "zf").esr
    zf100 = deterministic_esr(sc100, s, phi, "zf").esr
    mrt_flat = (mrt100 - mrt80) <= 0.05 * mrt80
    zf_grows = (zf100 - zf80) >= 0.30 * zf80
    ok = ordering_ok and mrt_flat and zf_grows
    verdict("criterion 8 (precoder ordering)", ok,
            f"RZF>=ZF at all SNRs: {ordering_ok}; MRT 80->100dB "
            f"{mrt80:.2f}->{mrt100:.2f} ({(mrt100 - mrt80) / mrt80:.1%}); "
            f"ZF {zf80:.2f}->{zf100:.2f} (+{(zf100 - zf80) / zf80:.0%})")


def test_criterion_09_resolvent_probes():
    """First-order traces within 3%, bilinear traces within 5% at M = 32."""
    sc = fig1_scenario(32, 80.0)
    z = sc.dims.K * sc.sigma2 / 32
    F_list, R, C_list, p = sc.stats_uncommon()
    sol = solve_rzf_uncommon(F_list, R, C_list, z, TIGHT)
    rep, so = sinr_rzf_uncommon(sol, p, sc.sigma2)
    pr = resolvent_probe(sc, None, None, z, 2000, 909)

    d_delta = abs(pr.delta_hat - sol.delta) / sol.delta
    d_omega = float(np.max(np.abs(pr.omega_hat - sol.omega)
                           / np.maximum(sol.omega, 1e-6)))
    d_mu = float(np.max(np.abs(pr.mu_hat - sol.mu) / sol.mu))
    first = max(d_delta, d_omega, d_mu)

    upsI = so.ups_I[:sc.dims.K]
    d_ups = float(np.max(np.abs(pr.ups_I_hat - upsI) / np.abs(upsI)))
    d_lam = float(np.max(np.abs(pr.lambda_hat - so.Lambda_kl)
                         / np.abs(so.Lambda_kl)))
    second = max(d_ups, d_lam)
    ok = first <= 0.03 and second <= 0.05
    verdict("criterion 9 (resolvent probes)", ok,
            f"first-order {first:.3%} (tol 3%), second-order {second:.3%} "
            f"(tol 5%)")


def test_criterion_10_cli_determinism(tmp_path):
    """Repeated fixed-seed CLI runs are byte-identical."""
    import json
    cfg = {
        "scenario": {"preset": "fig1",
                     "preset_args": {"M": 12, "K": 4, "L": 8,
                                     "sigma2_inv_db": 80.0}},
        "sweep": {"axis": "snr_db", "values": [70.0, 80.0]},
        "precoders": ["rzf"],
        "methods": ["de", "mc"],
        "trials": 128,
        "seed": 42,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for tag in ("t1", "t2"):
        rc = cli.main(["--config", str(cfg_path), "--out-dir",
                       str(tmp_path / tag), "sweep"])
        assert rc == 0
        outputs.append((tmp_path / tag / "fig1_M12_sweep.csv").read_bytes())
    sweep_same = outputs[0] == outputs[1]

    mc_outputs = []
    for tag in ("m1.csv", "m2.csv"):
        rc = cli.main(["--config", str(cfg_path),
                       "montecarlo", "--trials", "96",
                       "--out", str(tmp_path / tag)])
        assert rc == 0
        mc_outputs.append((tmp_path / tag).read_bytes())
    mc_same = mc_outputs[0] == mc_outputs[1]
    verdict("criterion 10 (CLI determinism)", sweep_same and mc_same,
            f"sweep byte-identical: {sweep_same}, "
            f"montecarlo byte-identical: {mc_same}")
