"""Run configuration loading and the command-line entry point."""

import csv
import json
import os

import pytest

from branchopt import cli, config


def _write(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    return str(path)


def test_defaults_without_a_file():
    run = config.load_config(None)
    assert run.plant_name == "cartpole"
    assert run.seed == 0
    assert len(run.conditions) == 4


def test_rejects_other_schema_version(tmp_path):
    with pytest.raises(ValueError, match="schema_version"):
        config.load_config(_write(tmp_path, "schema_version: 2\n"))


def test_rejects_non_mapping_section(tmp_path):
    with pytest.raises(ValueError, match="solver"):
        config.load_config(_write(tmp_path, "solver: [1, 2]\n"))


def test_overrides_replace_experiment_keys(tmp_path):
    path = _write(tmp_path, "experiment:\n  seed: 3\n  workers: 2\n")
    run = config.load_config(path, {"seed": 9, "workers": None})
    assert run.seed == 9
    assert run.workers == 2  # a None override leaves the file's value


@pytest.mark.parametrize("text, where, key", [
    ("plant:\n  nmae: arm\n", "plant", "nmae"),
    ("controller:\n  rr: 0.2\n", "controller", "rr"),
    ("experiment:\n  n_sample: 3\n", "experiment", "n_sample"),
    ("experiments:\n  n_samples: 3\n", "top-level", "experiments"),
], ids=["plant", "controller", "experiment", "top-level"])
def test_rejects_unknown_keys(tmp_path, text, where, key):
    with pytest.raises(ValueError, match=f"unknown {where} keys: .*{key}"):
        config.load_config(_write(tmp_path, text))


def test_run_config_rejects_unknown_section_keys():
    with pytest.raises(ValueError, match="n_sample"):
        config.RunConfig(experiment={"n_sample": 3})


def test_solver_opts_pass_yaml_keys_through(tmp_path):
    path = _write(tmp_path, "solver:\n  tol_eq: 1.0e-8\n  max_outer: 7\n")
    opts = config.solver_opts(config.load_config(path))
    assert opts.tol_eq == 1e-8
    assert opts.max_outer == 7
    assert opts.max_inner == 600


def test_rejects_removed_transcription_key(tmp_path):
    path = _write(tmp_path, "transcription:\n  d_bounds: [0.01, 0.1]\n")
    run = config.load_config(path)
    with pytest.raises(ValueError, match="d_bounds"):
        config.transcription_config(run, "sure", [0.0] * 4, [0.0] * 4)


def test_rejects_removed_solver_key(tmp_path):
    for key in ("verbose", "rho0"):
        path = _write(tmp_path, f"solver:\n  {key}: 1\n")
        with pytest.raises(ValueError, match=key):
            config.solver_opts(config.load_config(path))


def test_cli_gains_prints_gains(capsys):
    assert cli.main(["gains"]) == 0
    out = capsys.readouterr().out
    assert "k_p:" in out and "k_d:" in out


def test_cli_solve_takes_the_arm_boundary_from_the_catch_pose(tmp_path):
    path = _write(tmp_path, "plant: {name: arm}\n"
                  "transcription: {N: 12, contact_node: 6}\n"
                  "solver: {max_outer: 1, max_inner: 5}\n")
    out = tmp_path / "solution.json"
    cli.main(["solve", "--config", path, "--variant", "nominal",
              "--out", str(out)])
    with open(out) as fh:
        payload = json.load(fh)
    assert payload["plant"] == "arm"
    states = payload["bundle"]["common"]["states"]
    assert len(states) == 13 and {len(row) for row in states} == {6}


def test_cli_simulate_stops_a_falling_rollout(tmp_path, capsys):
    # the scheduling reference of condition 0 against a wall at -0.6 m
    # tips the pole over; the rollout stops instead of diverging
    refs = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "fixtures", "refs_c0.json")
    with open(refs) as fh:
        bundle = json.load(fh)["scheduling"]
    solution = tmp_path / "solution.json"
    solution.write_text(json.dumps({"plant": "cartpole", "bundle": bundle}))
    out = tmp_path / "trace.csv"
    assert cli.main(["simulate", "--solution", str(solution),
                     "--x-wall", "-0.6", "--out", str(out)]) == 0
    assert "termination: fell" in capsys.readouterr().err
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["t", "x0"]
    assert 1 < len(rows) - 1 < 10_000  # stopped well before the 10 s horizon


def test_cli_solve_writes_a_failed_nominal_stage_and_returns_1(tmp_path):
    # one outer iteration of one inner step leaves the unbranched stage of
    # this arm problem unconverged
    path = _write(tmp_path, "plant: {name: arm}\n"
                  "transcription: {N: 12, k_first: 5, k_last: 7, "
                  "n_rejoin: 2}\n"
                  "solver: {max_outer: 1, max_inner: 1}\n")
    out = tmp_path / "solution.json"
    assert cli.main(["solve", "--config", path, "--variant", "sure",
                     "--out", str(out)]) == 1
    with open(out) as fh:
        payload = json.load(fh)
    assert payload["status"] == "max_iter"
    assert payload["variant"] == "sure"
    assert payload["bundle"]["branches"] == []


def test_cli_simulate_robust_nominal_needs_branches(tmp_path):
    # an unbranched bundle, as a solve whose first stage failed writes it
    refs = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "fixtures", "refs_c0.json")
    with open(refs) as fh:
        bundle = json.load(fh)["scheduling"]
    bundle.update(branches=[], branch_nodes=[], rejoin_index=None)
    solution = tmp_path / "solution.json"
    solution.write_text(json.dumps({"plant": "cartpole", "bundle": bundle}))
    with pytest.raises(SystemExit, match="no branches"):
        cli.main(["simulate", "--solution", str(solution), "--reference",
                  "robust_nominal", "--out", str(tmp_path / "trace.csv")])
