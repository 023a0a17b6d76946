"""Run configuration loading and the command-line entry point."""

import argparse
import csv
import json
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from branchopt import cli, config, nlp, pipeline
from branchopt import transcription as tr


def _write(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    return str(path)


def _scheduling_bundle():
    """The checked-in scheduling bundle of condition 0, as a dict."""
    refs = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "fixtures", "refs_c0.json")
    with open(refs) as fh:
        return json.load(fh)["scheduling"]


def _save_solution(tmp_path, bundle):
    solution = tmp_path / "solution.json"
    solution.write_text(json.dumps({"plant": "cartpole", "bundle": bundle}))
    return str(solution)


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
    ("experiment:\n  sweep_d: 0.2\n", "experiment", "sweep_d"),
    ("plant:\n  params: {lenght: 1.0}\n", "plant.params", "lenght"),
    ("plant:\n  env: {x_wal: 1.0}\n", "plant.env", "x_wal"),
    ("plant:\n  name: arm\n  params: {mass: 1.0}\n", "plant.params", "mass"),
    ("plant:\n  name: arm\n  env: {x_wall: -0.5}\n", "plant.env", "x_wall"),
    ("transcription:\n  variant: tree\n", "transcription", "variant"),
    ("transcription:\n  x_init: [0, 0, 0, 0]\n", "transcription", "x_init"),
    ("transcription:\n  x_end: [0, 0, 0, 0]\n", "transcription", "x_end"),
], ids=["plant", "controller", "experiment", "top-level", "sweep_d",
        "cartpole-params", "cartpole-env", "arm-params", "arm-env",
        "variant", "x_init", "x_end"])
def test_rejects_unknown_keys(tmp_path, text, where, key):
    with pytest.raises(ValueError, match=f"unknown {where} keys: .*{key}"):
        config.load_config(_write(tmp_path, text))


def test_run_config_rejects_unknown_section_keys():
    with pytest.raises(ValueError, match="n_sample"):
        config.RunConfig(experiment={"n_sample": 3})


def test_schema_docstring_names_every_accepted_key():
    schema = yaml.safe_load(config.__doc__.split("::", 1)[1])
    run = config.RunConfig()
    accepted = {
        "plant": set(run.plant),
        "transcription": (set(tr.TranscriptionConfig.__dataclass_fields__)
                          - {"variant", "x_init", "x_end"}),
        "solver": set(nlp.SolverOpts.__dataclass_fields__),
        "controller": set(run.controller),
        "experiment": set(run.experiment),
    }
    assert set(schema) == {"schema_version", *accepted}
    for section, keys in accepted.items():
        assert set(schema[section]) == keys, section


def test_solver_opts_pass_yaml_keys_through(tmp_path):
    path = _write(tmp_path, "solver:\n  tol_eq: 1.0e-8\n  max_outer: 7\n")
    opts = config.solver_opts(config.load_config(path))
    assert opts.tol_eq == 1e-8
    assert opts.max_outer == 7
    assert opts.max_inner == 600


@pytest.mark.parametrize("key, text", [
    ("max_outer", "0"), ("max_inner", "0"), ("max_inner", "-5"),
    ("max_outer", "2.5"), ("tol_eq", "0.0"), ("tol_ineq", "-1.0e-6"),
    ("tol_stat", "-1.0"),
    # YAML reads 1e-6, with no dot, as a string
    ("tol_stat", "1e-6"),
    # and on, yes and true as True, which numbers.Integral accepts
    ("max_inner", "on"), ("max_outer", "yes"), ("tol_stat", "yes"),
    ("tol_eq", "true"),
])
def test_rejects_solver_values_that_break_a_solve(tmp_path, key, text):
    # max_outer 0 would return a solution with no KKT record
    path = _write(tmp_path, f"solver:\n  {key}: {text}\n")
    with pytest.raises(ValueError, match=key):
        config.load_config(path)
    with pytest.raises(ValueError, match=key):
        nlp.SolverOpts(**{key: yaml.safe_load(text)})


@pytest.mark.parametrize("text", ["0.0", "-1.0e-3", "1e-3", "on", "true"])
def test_rejects_a_time_step_floor_that_breaks_a_solve_at_load(tmp_path,
                                                               text):
    # dt_max 2 keeps True (1) from failing the dt_min <= dt_max test
    path = _write(tmp_path,
                  f"transcription:\n  dt_min: {text}\n  dt_max: 2.0\n")
    with pytest.raises(ValueError, match="dt_min must be a positive number"):
        config.load_config(path)


def test_rejects_removed_transcription_key(tmp_path):
    path = _write(tmp_path, "transcription:\n  d_bounds: [0.01, 0.1]\n")
    with pytest.raises(ValueError, match="d_bounds"):
        config.load_config(path)


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
    solution = _save_solution(tmp_path, _scheduling_bundle())
    out = tmp_path / "trace.csv"
    assert cli.main(["simulate", "--solution", solution,
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
    # the record of the unbranched stage it stopped at
    assert payload["iterations"] == 1
    assert payload["inner_iterations"] >= 1
    assert set(payload["kkt"]) == {"stationarity", "eq_viol", "ineq_viol",
                                   "comp_slackness"}
    assert payload["kkt"]["eq_viol"] > 1e-6


def test_cli_solve_writes_an_objective_stall_convergence_with_its_kkt(
        tmp_path, monkeypatch, capsys):
    # a "converged" accepted by the objective-stall rule, far from the
    # stationarity tolerance: the file and the summary line both show it
    kkt = nlp.KktResidual(stationarity=1.59, eq_viol=2e-7, ineq_viol=0.0,
                          comp_slackness=3e-9)
    solution = nlp.NlpSolution(
        x=np.zeros(3), multipliers_eq=np.zeros(0),
        multipliers_ineq=np.zeros(0), objective_value=14.5, kkt=kkt,
        iterations=9, inner_iterations=4321, wall_time=2.0,
        status="converged")
    bundle = tr.bundle_from_dict(_scheduling_bundle())
    monkeypatch.setattr(pipeline, "solve_sure", lambda adapter, cfg, opts:
                        SimpleNamespace(solution=solution, bundle=bundle))
    out = tmp_path / "solution.json"
    assert cli.main(["solve", "--out", str(out)]) == 0
    with open(out) as fh:
        payload = json.load(fh)
    assert payload["status"] == "converged"
    assert payload["kkt"] == {"stationarity": 1.59, "eq_viol": 2e-7,
                              "ineq_viol": 0.0, "comp_slackness": 3e-9}
    assert (payload["iterations"], payload["inner_iterations"]) == (9, 4321)
    assert "kkt(viol) 2.00e-07 kkt(stat) 1.59e+00" in capsys.readouterr().err


def test_cli_simulate_robust_nominal_needs_branches(tmp_path):
    # an unbranched bundle, as a solve whose first stage failed writes it
    bundle = _scheduling_bundle()
    bundle.update(branches=[], branch_nodes=[], rejoin_index=None)
    solution = _save_solution(tmp_path, bundle)
    with pytest.raises(SystemExit, match="no branches"):
        cli.main(["simulate", "--solution", solution, "--reference",
                  "robust_nominal", "--out", str(tmp_path / "trace.csv")])


@pytest.mark.parametrize("condition", ["-1", "4"])
def test_cli_solve_rejects_a_condition_out_of_range(tmp_path, condition):
    # the default config has 4 conditions; the small problem keeps a solve
    # short, should one start
    path = _write(tmp_path, "transcription: {N: 12, k_first: 5, k_last: 7, "
                  "n_rejoin: 2}\nsolver: {max_outer: 1, max_inner: 1}\n")
    out = tmp_path / "solution.json"
    with pytest.raises(SystemExit, match="0 to 3"):
        cli.main(["solve", "--config", path, "--condition", condition,
                  "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("condition", ["-1", "4"])
def test_cli_simulate_rejects_a_condition_out_of_range(tmp_path, condition):
    solution = _save_solution(tmp_path, _scheduling_bundle())
    out = tmp_path / "trace.csv"
    with pytest.raises(SystemExit, match="0 to 3"):
        cli.main(["simulate", "--solution", solution, "--condition",
                  condition, "--out", str(out)])
    assert not out.exists()


def test_cli_simulate_nominal_needs_an_unbranched_solution(tmp_path):
    # a branched bundle's common trajectory is planned contact-free over
    # the window, unlike the study's nominal reference
    out = tmp_path / "trace.csv"
    with pytest.raises(SystemExit, match="--variant nominal"):
        cli.main(["simulate", "--solution",
                  _save_solution(tmp_path, _scheduling_bundle()),
                  "--reference", "nominal", "--out", str(out)])
    assert not out.exists()


def test_cli_simulate_plays_an_unbranched_nominal(tmp_path):
    bundle = _scheduling_bundle()
    bundle.update(branches=[], branch_nodes=[], rejoin_index=None)
    out = tmp_path / "trace.csv"
    assert cli.main(["simulate", "--config",
                     _write(tmp_path, "experiment: {horizon: 0.1}\n"),
                     "--solution", _save_solution(tmp_path, bundle),
                     "--reference", "nominal", "--out", str(out)]) == 0
    with open(out) as fh:
        assert len(list(csv.reader(fh))) == 1 + 101


def _parser_flags():
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return {verb: {flag for action in sp._actions
                   for flag in action.option_strings
                   if flag.startswith("--") and flag != "--help"}
            for verb, sp in subparsers.choices.items()}


def test_cli_docstring_names_every_verbs_flags():
    documented = {m[1]: set(m[2].split()) for m in re.finditer(
        r"^  (\w+) +(--.*)$", cli.__doc__, re.MULTILINE)}
    assert documented == _parser_flags()

