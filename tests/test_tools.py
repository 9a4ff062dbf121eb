"""The benchmark-pair analysis in tools/bench_pairs.py."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", TOOLS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_metrics_worse_than_half_their_bound_are_flagged(bench_pairs, capsys):
    # change / parent: op_norm_ms 1.30, setup_s 1.17, peak_rss_mib 0.90
    values = {"parent": (100.0, 1.0, 60.0), "change": (130.0, 1.17, 54.0)}
    names = ("op_norm_ms", "setup_s", "peak_rss_mib")
    runs = [{"side": side, "workload": "evaluate", "seed": seed,
             "result": {"metrics": {m: {"value": v * (1 + 0.01 * seed)}
                                    for m, v in zip(names, values[side])}}}
            for seed in (1, 2, 3) for side in values]
    better = dict.fromkeys(names, -1)
    bounds = {"op_norm_ms": 0.2, "setup_s": 0.25, "peak_rss_mib": 0.1}
    rows = bench_pairs.analyse(runs, better, bounds)["evaluate"]
    assert rows["op_norm_ms"]["flag"] == "over bound"
    assert rows["setup_s"]["flag"] == "near bound"
    assert "flag" not in rows["peak_rss_mib"]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert err[1].startswith("evaluate setup_s: median +17.0% worse")
