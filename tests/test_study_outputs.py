"""The study verbs end to end: ``montecarlo``, ``tradeoff --baseline`` and
``sweep`` write JSON and CSV files whose bytes are pinned.

Stand-ins replace every solve, so each verb runs in well under a second:
the Monte-Carlo references are the checked-in ``perfbench/fixtures``
references of each condition (the rollouts and the trial evaluation run
for real), the trade-off's solves return costs and times computed from
their configs, and the sweep's drop replays return rows computed from
the references they are given.
"""

import csv
import hashlib
import json
import os
import pathlib
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest

from branchopt import bench, cli, config, pipeline
from branchopt import transcription as tr

import record

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "fixtures")

CARTPOLE = "experiment: {n_samples: 1, workers: 1, horizon: 2}\n"
ARM = "plant: {name: arm}\n"

def _trajectory(d):
    return tr.Trajectory(**{k: np.asarray(v, dtype=float)
                            for k, v in d.items()})


def _fixture(x_init):
    """The checked-in references of the condition that starts at
    ``x_init``."""
    for name in sorted(os.listdir(FIXTURES)):
        if name.startswith("refs_c"):
            with open(os.path.join(FIXTURES, name)) as fh:
                d = json.load(fh)
            if d["condition"] == list(x_init):
                return d
    raise KeyError(x_init)


def _solve_condition(args):
    _, x_init = args
    d = _fixture(x_init)
    return {"nominal": _trajectory(d["nominal"]),
            "robust_nominal": _trajectory(d["robust_nominal"]),
            "scheduling": tr.bundle_from_dict(d["scheduling"])}


def _solved(cost, wall_time, status="converged", **extra):
    return SimpleNamespace(solution=SimpleNamespace(
        objective_value=cost, wall_time=wall_time, status=status, **extra))


def _tradeoff_solves(mp):
    def offset(cfg):
        return float(np.sum(cfg.x_init))

    solves = {
        "sure": lambda cfg: _solved(
            10.0 + 0.1 * cfg.n_rejoin + 0.01 * offset(cfg), 0.5 * cfg.N),
        "tree": lambda cfg: _solved(
            9.5 + 0.01 * offset(cfg), 0.25 * cfg.N * cfg.n_branch_full / 10,
            status="max_iter"),
        "nominal": lambda cfg: _solved(
            9.0 + 0.01 * cfg.contact_node + 0.01 * offset(cfg), 0.1 * cfg.N),
    }
    mp.setattr(pipeline, "solve",
               lambda adapter, cfg, opts: solves[cfg.variant](cfg))


def _sweep_solves(mp):
    with open(os.path.join(FIXTURES, "refs_c0.json")) as fh:
        bundle = tr.bundle_from_dict(json.load(fh)["scheduling"])

    def solve(adapter, cfg, opts):
        assert cfg.variant == "sure"
        # its first stage's bundle, the nominal reference, is the same
        res = _solved(2.0 + cfg.N, 1.0, x=np.array([0.0, 1.75]))
        return SimpleNamespace(
            solution=res.solution, bundle=bundle, nominal=bundle,
            layout=SimpleNamespace(arrays={"vlim": [1]}))

    def replay(adapter, refs, gains, heights, dt_sim, progress=None):
        p = adapter.p
        rows, max_dv = [], {}
        for name, ref in refs.items():
            level = float(np.sum(ref.dts))
            for h0 in heights:
                caught = h0 <= p.p_ball0[1]
                rows.append({"reference": name, "h0": round(float(h0), 6),
                             "contact_time": 0.3 + h0 if caught else None,
                             "dv": level + h0 if caught else None})
            max_dv[name] = max(r["dv"] for r in rows
                               if r["reference"] == name and r["dv"])
        return rows, max_dv

    mp.setattr(pipeline, "solve", solve)
    mp.setattr(bench, "_replay_drops", replay)


VERBS = {
    "montecarlo": (CARTPOLE, [],
                   lambda mp: mp.setattr(bench, "_solve_condition",
                                         _solve_condition)),
    "tradeoff": (CARTPOLE, ["--baseline"], _tradeoff_solves),
    "sweep": (ARM, [], _sweep_solves),
}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run(verb, tmp_path, monkeypatch):
    """Run ``verb`` under its stand-ins; the paths of its JSON and CSV."""
    text, flags, stand_ins = VERBS[verb]
    config = tmp_path / "run.yaml"
    config.write_text(text)
    out, table = tmp_path / f"{verb}.json", tmp_path / f"{verb}.csv"
    stand_ins(monkeypatch)
    assert cli.main([verb, "--config", str(config), "--out", str(out),
                     "--csv", str(table), *flags]) == 0
    return out, table


def _read(out, table):
    with open(out) as fh, open(table, newline="") as ft:
        return json.load(fh), list(csv.DictReader(ft))


def study_outputs(verb, tmp_path, monkeypatch):
    """sha256 of the JSON and CSV files ``verb`` writes under its
    stand-ins."""
    out, table = _run(verb, tmp_path, monkeypatch)
    return {"json": _sha256(out), "csv": _sha256(table)}


def record_study_outputs():
    digests = {}
    for verb in sorted(VERBS):
        with (tempfile.TemporaryDirectory() as tmp,
              pytest.MonkeyPatch.context() as mp):
            digests[verb] = study_outputs(verb, pathlib.Path(tmp), mp)
    return {"study_outputs.json": digests}


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_study_verb_writes_the_recorded_files(verb, tmp_path, monkeypatch):
    assert (study_outputs(verb, tmp_path, monkeypatch)
            == record.load("study_outputs.json")[verb])


def test_tradeoff_csv_holds_the_tree_row_and_the_baseline(tmp_path,
                                                          monkeypatch):
    data, rows = _read(*_run("tradeoff", tmp_path, monkeypatch))
    assert [r["kind"] for r in rows] == ["sure"] * len(data["rows"]) + ["tree"]
    tree = data["tree"]
    assert rows[-1]["n_r"] == str(tree["n_r"])
    assert float(rows[-1]["cost"]) == tree["cost"]
    assert float(rows[-1]["wall_time"]) == tree["wall_time"]
    assert rows[-1]["statuses.0"] == tree["statuses"][0]
    assert {float(r["baseline_cost"]) for r in rows} == {data["baseline_cost"]}
    for i, status in enumerate(data["baseline_statuses"]):
        assert {r[f"baseline_statuses.{i}"] for r in rows} == {status}


def test_sweep_csv_holds_the_speed_limit_and_the_largest_speeds(tmp_path,
                                                               monkeypatch):
    data, rows = _read(*_run("sweep", tmp_path, monkeypatch))
    assert len(rows) == len(data["rows"])
    assert {float(r["v_lim"]) for r in rows} == {data["v_lim"]}
    for name, dv in data["max_dv"].items():
        assert {float(r[f"max_dv.{name}"]) for r in rows} == {dv}


@pytest.mark.parametrize("nominal, failed", [
    (None, "unbranched arm solve failed"),
    (SimpleNamespace(common=None), "branched arm solve failed")])
def test_sweep_names_the_stage_that_failed(monkeypatch, nominal, failed):
    # a staged solve whose first stage failed returns that stage, with no
    # nominal bundle
    monkeypatch.setattr(pipeline, "solve", lambda adapter, cfg, opts:
                        SimpleNamespace(solution=_solved(
                            1.0, 1.0, status="infeasible").solution,
                            nominal=nominal))
    run = config.RunConfig(plant={"name": "arm"})
    with pytest.raises(RuntimeError, match=rf"^{failed} \(infeasible\)"):
        bench.velocity_sweep(run)


def _tradeoff(tmp_path, n_r_values, capsys, *flags):
    """The table ``cli tradeoff`` writes, and what it printed to stdout
    and to stderr."""
    config = tmp_path / "run.yaml"
    config.write_text(
        f"experiment: {{workers: 1, n_r_values: {n_r_values}}}\n")
    out = tmp_path / "tradeoff.json"
    assert cli.main(["tradeoff", "--config", str(config),
                     "--out", str(out), *flags]) == 0
    with open(out) as fh:
        return json.load(fh), *capsys.readouterr()


def test_tradeoff_compares_the_n_r_7_row_with_the_tree(tmp_path, monkeypatch,
                                                       capsys):
    _tradeoff_solves(monkeypatch)
    table, printed, _ = _tradeoff(tmp_path, [12, 7], capsys)
    seven, tree = table["rows"][1], table["tree"]
    assert seven["n_r"] == 7
    assert table["n_r7_cost_pct"] == (100.0 * (seven["cost"] - tree["cost"])
                                      / tree["cost"])
    assert table["n_r7_time_ratio"] == seven["wall_time"] / tree["wall_time"]
    assert "N_r=7 vs tree" in printed


def test_tradeoff_without_n_r_7_leaves_the_comparison_out(tmp_path,
                                                         monkeypatch, capsys):
    _tradeoff_solves(monkeypatch)
    table, printed, _ = _tradeoff(tmp_path, [5, 9], capsys)
    assert [row["n_r"] for row in table["rows"]] == [5, 9]
    assert not {"n_r7_cost_pct", "n_r7_time_ratio"} & set(table)
    assert "N_r=7" not in printed


def test_tradeoff_baseline_shows_an_infeasible_solve_beside_its_cost(
        tmp_path, monkeypatch, capsys):
    # the exact-knowledge solve at contact node 19 ends infeasible at a
    # high cost; the mean takes it in, and the statuses say so
    _tradeoff_solves(monkeypatch)
    solve = pipeline.solve

    def one_infeasible(adapter, cfg, opts):
        if cfg.variant == "nominal" and cfg.contact_node == 19:
            return _solved(80.0, 1.0, status="infeasible")
        return solve(adapter, cfg, opts)

    monkeypatch.setattr(pipeline, "solve", one_infeasible)
    table, printed, progress = _tradeoff(tmp_path, [7], capsys, "--baseline")
    # cells run condition by condition, contact nodes 18 to 22 in each
    statuses = ["converged", "infeasible", "converged", "converged",
                "converged"]
    assert table["baseline_statuses"] == statuses * 4
    costs = [80.0 if node == 19 else
             9.0 + 0.01 * node + 0.01 * float(np.sum(x_init))
             for x_init in config.load_config(None).conditions
             for node in range(18, 23)]
    assert table["baseline_cost"] == float(np.mean(costs))
    line = next(ln for ln in printed.splitlines()
                if ln.startswith("baseline"))
    assert f"{table['baseline_cost']:.4f}" in line
    assert line.count("infeasible") == 4
    # each baseline cell's progress line names its contact node
    node_19 = "baseline node=19: cost 80.0000 (infeasible, 1s)"
    assert progress.splitlines().count(node_19) == 4
    assert "baseline n_r=" not in progress
