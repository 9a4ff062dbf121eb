"""Analytic RIS phase gradients and quasi-Newton ascent.

In the shared regime the phase shifts enter the ESR only through three
traces against dC/dphi_l. Along each, one small Pi_com solve moves the
fixed point and the trace tables move with it; the rate formula itself,
evaluated by complex step, carries both to the ESR. The demo checks the
analytic gradient against central finite differences, then climbs it:
the first step goes along the normalized gradient, later ones along the
L-BFGS direction built from the accepted moves and gradient changes, each
by a backtracking line search that never lets the ESR fall.
"""

import numpy as np

from fasris import (deterministic_esr, fd_gradient, gradient_ascent_phases,
                    sinr_rzf_common, solve_rzf_common)
from fasris.gradients import esr_gradient_phases_common
from fasris.channel import herm, phase_matrix, psd_sqrt
from fasris.optimize import OptimizationTrace
from fasris.scenarios import random_scenario

rng = np.random.default_rng(3)
sc = random_scenario(rng, "common", M=12, K=4, L=8, sigma2=0.3)
corr = sc.correlations
L = sc.dims.L
z = sc.dims.K * sc.sigma2 / sc.dims.M
phi0 = rng.uniform(0, 2 * np.pi, L)
CLroot = psd_sqrt(corr.C_L)


def esr_of(phi):
    Phi = phase_matrix(phi, L)
    C = herm(CLroot @ Phi @ corr.C_R @ Phi.conj().T @ CLroot)
    sol = solve_rzf_common(corr.R_tot, C, sc.u, sc.t, z)
    return sinr_rzf_common(sol, sc.p, sc.sigma2)[0].esr


Phi0 = phase_matrix(phi0, L)
C0 = herm(CLroot @ Phi0 @ corr.C_R @ Phi0.conj().T @ CLroot)
sol = solve_rzf_common(corr.R_tot, C0, sc.u, sc.t, z)
_, so = sinr_rzf_common(sol, sc.p, sc.sigma2)
g = esr_gradient_phases_common(so, corr.C_L, corr.C_R, phi0, sc.sigma2)
g_fd = fd_gradient(esr_of, phi0, 1e-5)
print("analytic gradient:", np.array2string(g, precision=5))
print("finite difference:", np.array2string(g_fd, precision=5))
print("max deviation:", np.abs(g - g_fd).max())
print("global-phase direction (sum of components):", g.sum())

trace = OptimizationTrace()
phases, esr, stalled = gradient_ascent_phases(sc, None, z, phi0, trace=trace)
print(f"\nascent: {esr_of(phi0):.4f} -> {esr:.4f} bit/s/Hz "
      f"in {len(trace.records)} accepted steps (stalled={stalled})")
print("objective trace:",
      np.array2string(trace.objectives(), precision=4))
print("step lengths:",
      np.array2string(np.array([r["step"] for r in trace.records]),
                      precision=3))
print("re-evaluated at the returned angles:",
      f"{deterministic_esr(sc, None, phases.phi, 'rzf', z).esr:.4f}")
