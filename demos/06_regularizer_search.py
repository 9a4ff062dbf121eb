"""When is the RZF regularizer search unnecessary?

For homogeneous users (equal gains, powers, shared correlations) the
rate-optimal regularizer is K sigma^2 / M, independent of the selection and
the phases. The demo profiles ESR(z) on the homogeneous reference scenario
for three different (selection, phases) pairs and marks the closed form.
`z_search_profile` returns the 41-point grid and its ESR values, which the
plot shows, the grid's argmax refined by secant steps on the analytic slope
dESR/dln z, and a width: z |g / c| with the slope g and the curvature c at
the refined argmax, the Newton estimate of how far the stationary point
still lies. The refined argmax sits within a grid step of the closed form
each time (the small offset is the finite-size O(1/K) remainder of the
asymptotic argument). Writes demo_regularizer.svg next to this script.
"""

from pathlib import Path

import numpy as np

from fasris import z_search_profile
from fasris.scenarios import fig8_scenario, uniform_selection
from fasris.svgplot import line_plot

scenario, M = fig8_scenario(80.0)
M_tot = scenario.correlations.R_tot.shape[0]
L = scenario.dims.L
z_closed = scenario.dims.K * scenario.sigma2 / M
print(f"homogeneous: {scenario.homogeneous}; closed-form z = {z_closed:.3e}")

rng = np.random.default_rng(9)
series = []
for label, s, phi in [
    ("uniform ports, zero phases", uniform_selection(M, M_tot), np.zeros(L)),
    ("random ports, random phases",
     np.isin(np.arange(M_tot), rng.choice(M_tot, M, replace=False)).astype(float),
     rng.uniform(0, 2 * np.pi, L)),
    ("first ports, random phases",
     np.concatenate([np.ones(M), np.zeros(M_tot - M)]),
     rng.uniform(0, 2 * np.pi, L)),
]:
    z_star, grid, vals, width = z_search_profile(scenario, s, phi)
    offset = abs(np.log10(z_star / z_closed))
    print(f"  {label:<30} argmax z = {z_star:.3e} "
          f"({offset:.3f} decades from the closed form, width {width:.1e})")
    series.append({"x": grid, "y": vals, "label": label, "markers": False})

svg = line_plot(series, "regularization z", "ESR [bit/s/Hz]",
                "ESR vs z, homogeneous users", logx=True,
                vlines=[(z_closed, "K sigma^2/M")])
out = Path(__file__).with_name("demo_regularizer.svg")
out.write_text(svg)
print(f"wrote {out}")
