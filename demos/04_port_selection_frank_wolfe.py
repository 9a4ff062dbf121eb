"""Frank-Wolfe port selection on the relaxed ZF objective.

The binary selection problem is relaxed to the polytope {0 <= s <= 1,
sum s <= M}; the ZF rate evaluated through the diag(s) correlation
embedding is the surrogate objective. Each Frank-Wolfe step just picks the
top-M gradient components, so iterations are cheap; the final iterate is
rounded back to a binary selection. At toy scale we can afford the
exhaustive optimum for reference.
"""

from itertools import combinations

import numpy as np

from fasris import deterministic_esr, fw_port_selection
from fasris.optimize import OptimizationTrace
from fasris.scenarios import random_scenario, uniform_selection

rng = np.random.default_rng(2)
M_tot, M = 12, 4
sc = random_scenario(rng, "common", M=M, K=3, L=6, M_tot=M_tot, sigma2=0.3)

trace = OptimizationTrace()
s_fw = fw_port_selection(sc, None, M, trace)
fw_iters = [r for r in trace.records if r["stage"] == "fw"]
print(f"Frank-Wolfe converged in {len(fw_iters)} iterations")
print("relaxed objective trace:",
      np.array2string(np.array([r['objective'] for r in fw_iters][:8]),
                      precision=4), "...")
print("selected ports:", np.flatnonzero(s_fw))


def zf_esr(s):
    return deterministic_esr(sc, s, None, "zf").esr


best_val, best_idx = -np.inf, None
for idx in combinations(range(M_tot), M):
    s = np.zeros(M_tot)
    s[list(idx)] = 1.0
    val = zf_esr(s)
    if val > best_val:
        best_val, best_idx = val, idx

s_uni = uniform_selection(M, M_tot)
print(f"\nZF ESR comparison over C({M_tot},{M}) = "
      f"{len(list(combinations(range(M_tot), M)))} selections:")
print(f"  Frank-Wolfe : {zf_esr(s_fw):.4f} bit/s/Hz")
print(f"  exhaustive  : {best_val:.4f} bit/s/Hz at ports {best_idx}")
print(f"  uniform     : {zf_esr(s_uni):.4f} bit/s/Hz")
print(f"  FW / best   : {zf_esr(s_fw) / best_val:.4f}")
print("\nnote: the relaxed objective is only asymptotically convex, so the")
print("single-start method can land a few percent below the exhaustive")
print("optimum on adversarial tiny instances; across random draws it is")
print("typically within 1-2%.")
