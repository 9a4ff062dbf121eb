"""Per-layer counters and timers, wrapped around fasris call sites.

The wrappers live here, in the benchmark, and are patched onto the
attributes through which the library reaches each layer: `optimize` binds
the solvers, rate and gradient functions with `from ... import`, so they are
patched in `fasris.optimize`; sampling and scenario statistics are methods,
so they are patched on their classes. Nothing inside `src/fasris` changes.

Times are inclusive: a layer's seconds include the layers it calls.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

# Per-layer metrics the traced run emits: name -> (unit, better).
LAYER_METRICS = {}
for _solver in ("rzf_common", "zf_common", "rzf_uncommon", "zf_uncommon"):
    LAYER_METRICS[f"fixed_point.{_solver}.calls"] = ("count", "lower")
    LAYER_METRICS[f"fixed_point.{_solver}.s"] = ("s", "lower")
    LAYER_METRICS[f"fixed_point.{_solver}.iters"] = ("count", "lower")
LAYER_METRICS["fixed_point.rzf_common.warm_calls"] = ("count", "higher")
for _name in ("rates.sinr_rzf_common", "rates.sinr_rzf_uncommon",
              "gradients.phases_common", "gradients.ports_zf_common",
              "channel.stats", "channel.draw"):
    LAYER_METRICS[f"{_name}.calls"] = ("count", "lower")
    LAYER_METRICS[f"{_name}.s"] = ("s", "lower")
for _name in ("optimize.fw", "optimize.phase_ascent", "optimize.z_search",
              "montecarlo.precoder", "montecarlo.sinr", "montecarlo.probe"):
    LAYER_METRICS[f"{_name}.s"] = ("s", "lower")
for _name in ("optimize.fw.iters", "optimize.ao.iters",
              "optimize.line_search.evals", "optimize.line_search.stalled"):
    LAYER_METRICS[_name] = ("count", "lower")
LAYER_METRICS["montecarlo.mc_2threads.trials_per_s"] = ("1/s", "higher")
LAYER_METRICS["tracing.wrapped_calls"] = ("count", "lower")
LAYER_METRICS["tracing.overhead_s"] = ("s", "lower")
LAYER_METRICS["tracing.overhead_pct"] = ("%", "lower")


def _x0_given(args, kwargs) -> bool:
    # solve_rzf_common(F, R, C, u, t, z, settings, m_norm, x0)
    x0 = kwargs["x0"] if "x0" in kwargs else (args[8] if len(args) > 8 else None)
    return x0 is not None


class Tracer:
    """Counters keyed by metric name; `installed()` patches the call sites."""

    def __init__(self):
        self.totals = defaultdict(float)

    def _wrap(self, layer, fn, on_result=None, calls=True):
        totals = self.totals

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                totals[layer + ".s"] += time.perf_counter() - t0
                if calls:
                    totals[layer + ".calls"] += 1
            totals["tracing.wrapped_calls"] += 1
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _targets(self):
        """(owner, attribute, wrapper factory) for every traced call site."""
        from fasris import channel, montecarlo, optimize

        t = self.totals

        def solver(name, warm=False):
            def on_result(sol, args, kwargs):
                t[f"fixed_point.{name}.iters"] += sol.iterations
                if warm and _x0_given(args, kwargs):
                    t[f"fixed_point.{name}.warm_calls"] += 1
            return lambda fn: self._wrap(f"fixed_point.{name}", fn, on_result)

        def ascent_result(result, args, kwargs):
            t["optimize.line_search.stalled"] += int(bool(result[2]))

        def joint_result(result, args, kwargs):
            stages = [r["stage"] for r in result[4].records]
            t["optimize.fw.iters"] += stages.count("fw")
            t["optimize.ao.iters"] += stages.count("ao")

        def phase_objective(fn):
            def wrapper(*args, **kwargs):
                value, value_grad = fn(*args, **kwargs)

                def counted_value(phi):
                    t["optimize.line_search.evals"] += 1
                    t["tracing.wrapped_calls"] += 1
                    return value(phi)
                return counted_value, value_grad
            wrapper.__wrapped__ = fn
            return wrapper

        def timed(layer, on_result=None, calls=True):
            return lambda fn: self._wrap(layer, fn, on_result, calls)

        return [
            (optimize, "solve_rzf_common", solver("rzf_common", warm=True)),
            (optimize, "solve_zf_common", solver("zf_common")),
            (optimize, "solve_rzf_uncommon", solver("rzf_uncommon")),
            (optimize, "solve_zf_uncommon", solver("zf_uncommon")),
            (optimize, "sinr_rzf_common", timed("rates.sinr_rzf_common")),
            (optimize, "sinr_rzf_uncommon", timed("rates.sinr_rzf_uncommon")),
            (optimize, "esr_gradient_phases_common",
             timed("gradients.phases_common")),
            (optimize, "esr_gradient_ports_zf_common",
             timed("gradients.ports_zf_common")),
            (optimize, "fw_port_selection", timed("optimize.fw", calls=False)),
            (optimize, "gradient_ascent_phases",
             timed("optimize.phase_ascent", ascent_result, calls=False)),
            (optimize, "search_regularization",
             timed("optimize.z_search", calls=False)),
            (optimize, "_phase_objective", phase_objective),
            (optimize, "joint_optimize",
             timed("optimize.joint", joint_result, calls=False)),
            (channel.Scenario, "stats_common", timed("channel.stats")),
            (channel.Scenario, "stats_uncommon", timed("channel.stats")),
            (channel.ChannelSampler, "draw", timed("channel.draw")),
            (montecarlo, "build_precoder",
             timed("montecarlo.precoder", calls=False)),
            (montecarlo, "instantaneous_sinr",
             timed("montecarlo.sinr", calls=False)),
            (montecarlo, "resolvent_probe",
             timed("montecarlo.probe", calls=False)),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Patch every call site for the duration of the block."""
        saved = []
        try:
            for owner, attr, factory in self._targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, factory(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
