"""The benchmark-pair analysis in tools/bench_pairs.py, the row diff of
tools/figure_rows.py, the validate group of tools/output_digest.py and the
call sites that perfbench/tracer.py patches."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name, folder=TOOLS):
    spec = importlib.util.spec_from_file_location(name, folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench_pairs():
    return load_tool("bench_pairs")


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


@pytest.mark.parametrize("case, met", [
    ("all pairs, medians far apart", True),
    ("nine wins and a tie", True),
    ("eight wins", False),
    ("gap within the parent's spread", False)])
def test_claim_needs_nine_tenths_of_pairs_and_a_gap_past_the_spread(
        bench_pairs, case, met):
    # parent 101..110 ms: q3 - q1 = 4.5
    parent = {seed: 100.0 + seed for seed in range(1, 11)}
    change = {seed: value - 20.0 for seed, value in parent.items()}
    if case == "nine wins and a tie":
        change[1] = parent[1]
    elif case == "eight wins":
        change[1], change[2] = parent[1], parent[2] + 5.0
    elif case.startswith("gap"):
        change = {seed: value - 4.0 for seed, value in parent.items()}
    runs = [{"side": side, "workload": "evaluate", "seed": seed,
             "result": {"metrics": {"op_norm_ms": {"value": values[seed]}}}}
            for seed in parent
            for side, values in (("parent", parent), ("change", change))]
    row = bench_pairs.analyse(runs, {"op_norm_ms": -1},
                              {"op_norm_ms": 0.2})["evaluate"]["op_norm_ms"]
    assert row["claim_met"] is met
    assert row["change_better_pairs"] == {"nine wins and a tie": 9,
                                          "eight wins": 8}.get(case, 10)


def test_figure_rows_diff_prints_the_rows_that_moved(tmp_path, capsys,
                                                     monkeypatch):
    figure_rows = load_tool("figure_rows")

    def row_file(name, fig5, fig6, fig1=9.87):
        rows = {"fig1": [("fig1_M24", 80.0, "de_rzf", 10.01),
                         ("fig1_M24", 80.0, "mc_rzf", fig1)],
                "fig5": [("fig5_W3", 3.0, "de_joint", fig5)],
                "fig6": [("fig6_K4", 4.0, "de_joint", 45.2),
                         ("fig6_K4", 4.0, "de_uniform", fig6)]}
        path = tmp_path / name
        path.write_text(json.dumps({"figures": {
            fig: {"rows": [dict(zip(("scenario_id", "axis_value", "method",
                                     "esr"), r)) for r in rs]}
            for fig, rs in rows.items()}}))
        return str(path)

    def no_recipe(*args):
        raise AssertionError("the diff of two files runs no recipe")

    monkeypatch.setattr(figure_rows, "run_recipes", no_recipe)
    parent = row_file("parent.json", 55.6022, 44.339)
    # fig1 mc_rzf moves by 2e-3, fig5 by 4.3e-3, fig6 de_uniform by 5e-7:
    # fig1 and fig5 are printed
    change = row_file("change.json", 55.5979, 44.3390005, fig1=9.872)
    assert figure_rows.main(["--diff", parent, change]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "fig1_M24\t80.0\tmc_rzf\t9.87\t9.872",
        "fig5_W3\t3.0\tde_joint\t55.6022\t55.5979"]
    assert figure_rows.main(["--diff", parent, parent]) == 0
    assert capsys.readouterr().out == ""


def test_output_digest_hashes_each_validate_measurement(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)    # the tool pins them
    output_digest = load_tool("output_digest")
    from fasris import sweep
    calls = []

    def checks(**kw):
        calls.append(kw)
        return [{"name": "backsubstitution", "measured": 3e-13},
                {"name": "probe_bilinear_traces", "measured": 0.02}]
    monkeypatch.setattr(sweep, "validate", checks)
    values = list(output_digest.GROUPS["validate"]())
    assert calls == [{"trials": 200}]
    assert values == ["backsubstitution", 3e-13, "probe_bilinear_traces", 0.02]
    moved = output_digest.digest(["backsubstitution", 3e-13,
                                  "probe_bilinear_traces", 0.021])
    assert output_digest.digest(values) != moved


def test_output_digest_compares_value_files(tmp_path, capsys, monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)    # the tool pins them
    import numpy as np
    output_digest = load_tool("output_digest")
    pick = output_digest.selection

    def npz(name, esr, s, grad):
        path = tmp_path / name
        np.savez(path, **output_digest.arrays("design", [pick(s), esr, None]),
                 **output_digest.arrays("phases.x", ["check", grad]))
        return str(path)

    parent = npz("parent.npz", 2.0, [1.0, 0.0, 1.0], np.array([4.0, -1e-17]))
    change = npz("change.npz", 2.0 + 2e-10, [0.0, 1.0, 1.0],
                 np.array([4.0 - 4e-12, 3e-17]))
    assert output_digest.main(["--compare", parent, change]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["design"]["selections_match"] is False
    assert got["design"]["max_rel"] == pytest.approx(1e-10, rel=1e-6)
    assert got["phases.x"]["selections_match"] is None
    assert got["phases.x"]["max_rel"] == pytest.approx(1e-12, rel=1e-3)
    assert output_digest.main(["--compare", parent, parent]) == 0
    assert json.loads(capsys.readouterr().out)["design"] == {
        "max_rel": 0.0, "selections_match": True}


def test_perfbench_tracer_patches_and_restores_every_call_site():
    # only `perfbench/run.py --trace 1` installs the tracer: a renamed
    # function or a method moved off its class would break that run alone
    tracer = load_tool("tracer", TOOLS.parent / "perfbench").Tracer()
    sites = [(owner, attr) for owner, attr, _ in tracer._targets()]
    assert len(set(sites)) == len(sites) >= 19
    for owner, attr in sites:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
    originals = [owner.__dict__[attr] for owner, attr in sites]
    with tracer.installed():
        for (owner, attr), original in zip(sites, originals):
            assert owner.__dict__[attr].__wrapped__ is original
    for (owner, attr), original in zip(sites, originals):
        assert owner.__dict__[attr] is original
