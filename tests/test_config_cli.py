"""Run configuration loading and the command-line entry point."""

import argparse
import csv
import dataclasses
import json
import math
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from branchopt import bench, cli, config, nlp, pipeline
from branchopt import transcription as tr
from branchopt.plants import arm, cartpole


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
    assert run.experiment["seed"] == 0
    assert len(run.conditions) == 4


def test_rejects_other_schema_version(tmp_path):
    # version 1 read q_diag in another state order: its files fail at
    # load rather than run with other weights
    for version in (1, 3):
        with pytest.raises(ValueError, match="schema_version"):
            config.load_config(_write(tmp_path,
                                      f"schema_version: {version}\n"))


def test_rejects_non_mapping_section(tmp_path):
    with pytest.raises(ValueError, match="solver"):
        config.load_config(_write(tmp_path, "solver: [1, 2]\n"))


@pytest.mark.parametrize("text, kind", [("- solver\n- plant\n", "list"),
                                        ("3\n", "int")],
                         ids=["list", "scalar"])
def test_rejects_a_file_whose_top_level_is_not_a_mapping(tmp_path, text,
                                                         kind):
    # it used to fail with AttributeError on the list's or int's .get
    with pytest.raises(ValueError, match=f"top level must be a mapping, "
                                         f"not a {kind}"):
        config.load_config(_write(tmp_path, text))


def test_an_empty_file_is_all_defaults(tmp_path):
    assert (config.load_config(_write(tmp_path, ""))
            == config.load_config(None))


def test_overrides_replace_experiment_keys(tmp_path):
    path = _write(tmp_path, "experiment:\n  seed: 3\n  workers: 2\n")
    run = config.load_config(path, {"seed": 9, "workers": None})
    assert run.experiment["seed"] == 9
    # a None override leaves the file's value
    assert run.experiment["workers"] == 2


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
    # the nominal contact is the middle node of the branching window
    ("transcription:\n  contact_node: 20\n", "transcription",
     "contact_node"),
    # the arm's catch point is plant.params.catch_height on the drop line
    ("experiment:\n  catch_target: [0.0, 0.3]\n", "experiment",
     "catch_target"),
    # the wall, restitution and friction are plant.env's alone
    ("plant:\n  params: {mu: 0.5}\n", "plant.params", "mu"),
], ids=["plant", "controller", "experiment", "top-level", "sweep_d",
        "cartpole-params", "cartpole-env", "arm-params", "arm-env",
        "variant", "x_init", "x_end", "contact_node", "catch_target",
        "cartpole-params-mu"])
def test_rejects_unknown_keys(tmp_path, text, where, key):
    with pytest.raises(ValueError, match=f"unknown {where} keys: .*{key}"):
        config.load_config(_write(tmp_path, text))


def test_cartpole_params_take_the_env_values():
    # the benchmark harness reads the friction from the params, the
    # simulator from the env; a config sets each value once, in plant.env
    run = config.RunConfig(plant={"env": {"x_wall": -0.45, "mu": 0.5}})
    _, p, env = config.build_plant(run)
    assert p.mu == env.mu == 0.5
    assert (env.x_wall, env.e) == (-0.45, 0.8)
    assert not {"x_wall", "e"} & set(dataclasses.asdict(p))


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
    # every feasible iterate would report "converged"
    ("tol_stat", ".inf"),
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


@pytest.mark.parametrize("section, key, text", [
    ("experiment", "seed", "1.0"), ("experiment", "workers", "on"),
    ("experiment", "n_samples", "2.5"), ("experiment", "n_samples", "true"),
    ("experiment", "post_impact_budget", "40.0"),
    ("experiment", "sweep_heights", "5.5"),
    ("experiment", "n_r_values", "[7, 12.5]"),
    ("transcription", "N", "30.5"), ("transcription", "k_first", "18.0"),
    ("transcription", "k_last", "yes"), ("transcription", "n_rejoin", "7.0"),
    ("transcription", "n_branch_full", "true"),
])
def test_rejects_a_count_that_is_not_an_integer_at_load(tmp_path, section,
                                                        key, text):
    # n_samples 2.5 used to run 2 trials and true 1; N 30.5 failed inside
    # the layout with a TypeError
    path = _write(tmp_path, f"{section}:\n  {key}: {text}\n")
    with pytest.raises(ValueError, match=f"{key}.* must be an integer"):
        config.load_config(path)


def test_rejects_a_window_outside_the_horizon_at_load(tmp_path):
    path = _write(tmp_path, "transcription:\n  N: 20\n")
    with pytest.raises(ValueError, match="k_last < N"):
        config.load_config(path)


@pytest.mark.parametrize("text, overrides, key", [
    # CartPoleEnv's "need e in [0, 1]", in the first trial
    ("experiment: {e_range: [0.7, 1.2]}\n", None, "e_range"),
    # --seed -1, in sampling the trials
    ("", {"seed": -1}, "seed"),
    # a numpy shape error in the condition's reference solve
    ("experiment: {conditions: [[0.0, 3.14, 0.0]]}\n", None, "conditions"),
    # the tree variant, which only tradeoff and solve --variant tree build
    ("transcription: {n_branch_full: 0}\n", None, "n_branch_full"),
    # level_configuration's "target out of reach", in the sweep
    ("plant: {name: arm, params: {catch_height: 1.0}}\n", None,
     "catch_height"),
    # a division by zero in seeding the branches, after the nominal stage
    ("plant: {params: {dt_impact: 0.0}}\n", None, "dt_impact"),
], ids=["e_range", "seed", "conditions", "n_branch_full", "catch_height",
        "dt_impact"])
def test_rejects_at_load_a_setting_that_failed_after_the_solves(
        tmp_path, text, overrides, key):
    with pytest.raises(ValueError, match=key):
        config.load_config(_write(tmp_path, text), overrides)


# one bad value of each experiment key
BAD_EXPERIMENT = {
    "seed": -1, "workers": 2.5, "n_samples": 0, "horizon": 0.0,
    "dt_sim": -1e-3, "x_wall_range": [-0.3, -0.7], "e_range": [0.7, 1.2],
    "debounce_window": -0.01, "final_tol": [0.05, 0.05, 0.1],
    "conditions": [[0.0, 3.14, 0.0]], "n_r_values": [0, 4],
    "post_impact_budget": 0, "sweep_heights": 0, "sweep_half_range": -0.2,
}


def test_bad_experiment_values_name_every_key():
    assert set(BAD_EXPERIMENT) == set(config.RunConfig().experiment)


@pytest.mark.parametrize("key", sorted(BAD_EXPERIMENT))
def test_run_config_rejects_a_bad_value_of_each_experiment_key(key):
    with pytest.raises(ValueError, match=key):
        config.RunConfig(experiment={key: BAD_EXPERIMENT[key]})


# one bad value of each plant key: a bool, a NaN or an infinity that the
# plant dataclasses' range checks let through, or a negative cost weight
BAD_PLANT = {
    ("cartpole", "params", "m_c"): True, ("cartpole", "params", "m_p"): True,
    ("cartpole", "params", "l"): math.inf,
    ("cartpole", "params", "gravity"): math.nan,
    ("cartpole", "params", "w_cart"): True,
    ("cartpole", "params", "dt_impact"): True,
    ("cartpole", "env", "x_wall"): math.nan, ("cartpole", "env", "e"): True,
    ("cartpole", "env", "mu"): math.inf,
    ("arm", "params", "lengths"): [0.35, 0.35, math.nan],
    ("arm", "params", "masses"): [1.0, 1.0, True],
    ("arm", "params", "g"): math.nan,
    ("arm", "params", "p_ball0"): [0.0, math.inf],
    ("arm", "params", "v_ball0"): [0.0, math.nan],
    ("arm", "params", "r_ball"): math.inf, ("arm", "params", "eps"): True,
    ("arm", "params", "w_a"): -1.0, ("arm", "params", "level_angle"): True,
    ("arm", "params", "catch_height"): False,
}


def _fields(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_bad_plant_values_name_every_key():
    env = _fields(cartpole.CartPoleEnv)
    keys = {("cartpole", "params", k)
            for k in _fields(cartpole.CartPoleParams) - env}
    keys |= {("cartpole", "env", k) for k in env}
    keys |= {("arm", "params", k) for k in _fields(arm.ArmCatchParams)}
    assert set(BAD_PLANT) == keys


@pytest.mark.parametrize("plant, section, key", sorted(BAD_PLANT))
def test_run_config_rejects_a_bad_value_of_each_plant_key(plant, section,
                                                          key):
    value = BAD_PLANT[plant, section, key]
    with pytest.raises(ValueError, match=rf"\b{key}\b"):
        config.RunConfig(plant={"name": plant, section: {key: value}})


def test_rejects_removed_transcription_key(tmp_path):
    path = _write(tmp_path, "transcription:\n  d_bounds: [0.01, 0.1]\n")
    with pytest.raises(ValueError, match="d_bounds"):
        config.load_config(path)


def test_rejects_removed_solver_key(tmp_path):
    for key in ("verbose", "rho0"):
        path = _write(tmp_path, f"solver:\n  {key}: 1\n")
        with pytest.raises(ValueError, match=key):
            config.solver_opts(config.load_config(path))


def test_cli_gains_prints_gains(tmp_path, capsys):
    # K, one row per input: one for the cart-pole, three for the arm
    for plant, n_u in (("cartpole", 1), ("arm", 3)):
        path = _write(tmp_path, f"plant: {{name: {plant}}}\n")
        assert cli.main(["gains", "--config", path]) == 0
        out = capsys.readouterr().out
        run = config.load_config(path)
        gains = bench._controller_gains(run, config.build_plant(run)[0])
        lines = out.splitlines()
        assert len(lines) == n_u == len(gains.rows)
        for i, (line, row) in enumerate(zip(lines, gains.rows)):
            label, *values = line.split()
            assert label == f"K[{i}]:"
            assert [float(v) for v in values] == pytest.approx(row, rel=1e-5)


def test_cli_gains_rejects_a_bad_e_range_at_load(tmp_path, capsys):
    # gains never reads e_range; the config fails whole, whatever the verb
    path = _write(tmp_path, "experiment: {e_range: [0.7, 1.2]}\n")
    with pytest.raises(ValueError, match="e_range"):
        cli.main(["gains", "--config", path])
    assert capsys.readouterr().out == ""


def test_cli_solve_takes_the_arm_boundary_from_the_catch_pose(tmp_path):
    path = _write(tmp_path, "plant: {name: arm}\n"
                  "transcription: {N: 12, k_first: 6, k_last: 6}\n"
                  "solver: {max_outer: 1, max_inner: 5}\n")
    out = tmp_path / "solution.json"
    cli.main(["solve", "--config", path, "--variant", "nominal",
              "--out", str(out)])
    with open(out) as fh:
        payload = json.load(fh)
    assert payload["plant"] == "arm"
    states = payload["bundle"]["common"]["states"]
    assert len(states) == 13 and {len(row) for row in states} == {6}
    target = config.build_plant(config.load_config(path))[0].target
    assert states[0] == states[-1] == target.tolist()


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
    monkeypatch.setattr(pipeline, "solve", lambda adapter, cfg, opts:
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

