"""The degeneration lattice: per-user -> shared -> i.i.d. closed forms.

The per-user-correlation solver collapses onto the shared-correlation one
when every user shares the matrices (F_k = u_k R, C_k = t_k C), and the
shared solver collapses onto a one-line closed form when the correlations
are identities. The same closed form answers design questions directly:
how many ports buy a target rate, and how does MRT saturate.
"""

import numpy as np

from fasris import (esr_iid_mrt, esr_iid_zf, min_ports, sinr_rzf_common,
                    sinr_rzf_uncommon, sinr_zf, solve_iid_zf,
                    solve_rzf_common, solve_rzf_uncommon, solve_zf_common)
from fasris.scenarios import random_scenario

rng = np.random.default_rng(7)
sc = random_scenario(rng, "common", M=16, K=5, L=10, sigma2=0.4)
z = sc.dims.K * sc.sigma2 / sc.dims.M

R, C, u, t, p = sc.stats_common()
common = solve_rzf_common(R, C, u, t, z)
rep_c, _ = sinr_rzf_common(common, p, sc.sigma2)

F_list, R2, C_list, _ = sc.stats_uncommon()     # F_k = u_k R, C_k = t_k C
uncommon = solve_rzf_uncommon(F_list, R2, C_list, z)
rep_u, _ = sinr_rzf_uncommon(uncommon, p, sc.sigma2)

print("shared-correlation ESR:  ", rep_c.esr)
print("per-user solver, same data:", rep_u.esr)
print("agreement:", abs(rep_c.esr - rep_u.esr) / rep_u.esr)

# identity correlations: the four-scalar ZF system reduces to beta(u,t,c2)
M, K, L = 20, 8, 16
uu, tt, sigma2 = 1.0, 0.5, 0.2
sol = solve_zf_common(np.eye(M), np.eye(L), np.full(K, uu), np.full(K, tt))
rep_zf = sinr_zf(sol, np.ones(K), sigma2)
closed = esr_iid_zf(uu, tt, K / M, K / L, sigma2, K)
beta = solve_iid_zf(uu, tt, K / M, K / L).beta_val
print(f"\nidentity-correlation ZF ESR: {rep_zf.esr:.6f}")
print(f"closed form K log2(1 + (1-c1) beta/(c1 s2)): {closed.esr:.6f} "
      f"(beta = {beta:.4f})")

print("\nminimum selected ports for a target rate (i.i.d. ZF):")
for target in (10.0, 20.0, 40.0):
    with_ris = min_ports(target, K, uu, tt, K / L, sigma2)
    without = min_ports(target, K, uu, 0.0, K / L, sigma2)
    print(f"  target {target:>5.1f} bit/s/Hz: {with_ris:>3} ports with the "
          f"RIS, {without:>3} without")

print("\nMRT saturates while ZF keeps climbing (i.i.d. forms):")
for snr_db in (0, 10, 20, 30):
    s2 = 10 ** (-snr_db / 10)
    mrt = esr_iid_mrt(uu, tt, M, K, L, s2).esr
    zf = esr_iid_zf(uu, tt, K / M, K / L, s2, K).esr
    print(f"  1/sigma^2 = {snr_db:>2} dB: MRT {mrt:6.2f}, ZF {zf:6.2f}")
