"""Every setting the studies and the CLI hand to the solver, the simulator
and the trial evaluation, fingerprinted so that moving a default from one
module to another fails here unless the value stays the same.

No solve or rollout runs: the pipeline solves, ``simulate`` and
``evaluate_trial`` are replaced by recorders.
"""

import dataclasses
import hashlib
import inspect
import json
import pathlib
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from branchopt import bench, cli, config, control, nlp, pipeline, simulation
from branchopt import transcription as tr
from branchopt.plants import cartpole

import record

CONFIGS = {
    "default": {},
    "arm": {"plant": {"name": "arm"}},
    "cartpole_overrides": {
        "plant": {"params": {"m_c": 0.35, "dt_impact": 2e-3},
                  "env": {"x_wall": -0.45, "mu": 0.5}},
        "transcription": {"N": 50, "k_first": 15, "k_last": 19,
                          "n_rejoin": 5, "n_branch_full": 30,
                          "d_fixed": 0.07, "dt_min": 2e-3, "dt_max": 6e-2},
        "solver": {"tol_eq": 1e-7, "max_outer": 30},
        "controller": {"q_diag": [5, 5, 1, 1], "r": 1},
        "experiment": {"seed": 3, "n_samples": 2, "horizon": 4,
                       "dt_sim": 2e-3, "x_wall_range": [-0.6, -0.4],
                       "e_range": [0.75, 0.85], "debounce_window": 0.1,
                       "final_tol": [0.1, 0.1, 0.2, 0.2],
                       "conditions": [[0.0, 3.2, 0.0, 5.0],
                                      [0.1, 3.3, -0.5, 4.0]],
                       "n_r_values": [5, 9], "post_impact_budget": 40},
    },
    "arm_overrides": {
        "plant": {"name": "arm", "params": {"r_ball": 0.04, "w_a": 0.02,
                                            "catch_height": 0.32}},
        "transcription": {"N": 36, "k_first": 15, "k_last": 21,
                          "n_rejoin": 6, "d_fixed": 0.1, "dt_max": 0.04},
        "solver": {"max_inner": 300},
        "controller": {"q_diag": [20, 20, 5, 1, 1, 0.5], "r": 0.2},
        "experiment": {"dt_sim": 5e-4, "sweep_heights": 5,
                       "sweep_half_range": 0.1},
    },
}

_FAKE = SimpleNamespace(
    solution=SimpleNamespace(
        status="converged", objective_value=1.0, wall_time=1.0,
        x=np.zeros(1), kkt=nlp.KktResidual(0.0, 0.0, 0.0, 0.0),
        iterations=1, inner_iterations=1),
    layout=SimpleNamespace(arrays={"vlim": [0]}),
    bundle=SimpleNamespace(common=None), nominal=SimpleNamespace(common=None))

_run_trial = bench._run_trial
_evaluate_trial = bench.evaluate_trial


def _plain(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if dataclasses.is_dataclass(v):
        return {f.name: getattr(v, f.name) for f in dataclasses.fields(v)}
    if isinstance(v, (np.integer, np.floating)):
        return v.item()
    raise TypeError(type(v))


def _transcription(cfg):
    fields = _plain(cfg)
    if cfg.variant == "nominal":
        del fields["d_fixed"]  # only the branched variants pin the guard
    return fields


def _gains(g):
    return {"K": np.array(g.rows).tobytes().hex()}


def _load(name, tmp_path):
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(CONFIGS[name]))
    return str(path), config.load_config(str(path))


def _recorders(mp, log):
    """Replace every solve and every study step that would run one."""
    def solve(adapter, cfg, opts):
        log.append([f"solve_{cfg.variant}", _transcription(cfg), opts])
        return _FAKE

    mp.setattr(pipeline, "solve", solve)
    mp.setattr(bench, "_pmap",
               lambda fn, items, workers: [fn(i) for i in items])
    mp.setattr(tr, "robust_nominal_branch", lambda bundle, dt_impact:
               log.append(["robust_nominal_branch", dt_impact]))
    mp.setattr(tr, "bundle_to_dict", lambda bundle: {})


def _cli_solve(mp, log, path, variants, out):
    _recorders(mp, log)
    for variant in variants:
        cli.main(["solve", "--config", path, "--variant", variant,
                  "--condition", "1", "--out", out])


def _capture(name, tmp_path):
    path, run = _load(name, tmp_path)
    out = str(tmp_path / "solution.json")
    sites = {}

    def site(key, fn):
        log = []
        with pytest.MonkeyPatch.context() as mp:
            fn(mp, log)
        sites[key] = log

    if run.plant_name == "arm":
        def sweep(mp, log):
            _recorders(mp, log)
            growth = bench._rk4_growth

            def rk4_growth(A, B, gains, dt_sim):
                log.append(["rk4_growth", A, B, _gains(gains), dt_sim])
                return growth(A, B, gains, dt_sim)

            def replay(adapter, refs, gains, heights, dt_sim,
                       progress=None):
                log.append(["replay_drops", adapter.p, sorted(refs),
                            _gains(gains), heights, dt_sim])
                return [], {}

            mp.setattr(bench, "_rk4_growth", rk4_growth)
            mp.setattr(bench, "_replay_drops", replay)
            bench.velocity_sweep(run)
        site("sweep", sweep)
        return sites

    def montecarlo(mp, log):
        _recorders(mp, log)

        def trial(args):
            _, spec, reference, gains = args
            log.append(["run_trial", spec, _gains(gains)])
            return {"spec": dataclasses.asdict(spec), "success": False}
        def sample_specs(seed, conditions, n_samples, x_wall_range, e_range):
            log.append(["sample_specs", seed, conditions, n_samples,
                        x_wall_range, e_range])
            return sample(seed, conditions, 1, x_wall_range, e_range)

        sample = bench._sample_specs
        mp.setattr(bench, "_sample_specs", sample_specs)
        mp.setattr(bench, "_run_trial", trial)
        bench.montecarlo(run)

    def run_trial(mp, log):
        def simulate(sys, controller, x0, env=None, **kw):
            log.append(["simulate", x0, env, kw["horizon"], kw["dt_sim"],
                        kw["stop_condition"].__name__])
            return "trace"

        def evaluate(*args, **kw):
            bound = inspect.signature(_evaluate_trial).bind(*args, **kw)
            bound.apply_defaults()
            a = bound.arguments
            # an x_end of None stands for X_END where it is a default
            x_end = bench.X_END if a.get("x_end") is None else a["x_end"]
            log.append(["evaluate_trial", a["spec"], a["tolerances"],
                        a["params"], x_end, a["debounce_window"]])
            return SimpleNamespace(to_dict=dict)

        mp.setattr(simulation, "simulate", simulate)
        mp.setattr(bench, "evaluate_trial", evaluate)
        spec = bench.TrialSpec(condition_id=1, reference="nominal",
                               x_wall=-0.55, e=0.85, seed=0, index=0)
        _run_trial((run, spec, None, None))

    def gains(mp, log):
        adapter, p, env = config.build_plant(run)
        log.append(["controller_gains",
                    _gains(bench._controller_gains(run, adapter))])
        log.append(["design_gains", _gains(control.design_gains(
            cartpole.make_system(p, env), cartpole.X_EQ))])

    site("montecarlo", montecarlo)
    site("run_trial", run_trial)
    site("tradeoff", lambda mp, log: (_recorders(mp, log),
                                      bench.tradeoff(run, True)))
    site("cli_solve", lambda mp, log: _cli_solve(
        mp, log, path, ("nominal", "sure", "tree"), out))
    site("gains", gains)
    return sites


def _json(records):
    return json.dumps(records, sort_keys=True, default=_plain)


def _digest(records):
    return hashlib.sha256(_json(records).encode()).hexdigest()


def fingerprint(name, tmp_path):
    return {key: _digest(records)
            for key, records in _capture(name, tmp_path).items()}


def record_settings_fingerprints():
    digests = {}
    for name in sorted(CONFIGS):
        with tempfile.TemporaryDirectory() as tmp:
            digests[name] = fingerprint(name, pathlib.Path(tmp))
    return {"settings_fingerprints.json": digests}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_settings_match_recorded_fingerprint(name, tmp_path):
    assert (fingerprint(name, tmp_path)
            == record.load("settings_fingerprints.json")[name])


def test_cli_solve_on_the_arm_builds_the_sweeps_configs(tmp_path):
    path, _ = _load("arm", tmp_path)
    sweep = [r for r in _capture("arm", tmp_path)["sweep"]
             if r[0].startswith("solve_")]
    cli_log = []
    with pytest.MonkeyPatch.context() as mp:
        _cli_solve(mp, cli_log, path, ("nominal", "sure"),
                   str(tmp_path / "solution.json"))
    assert [r[0] for r in sweep] == ["solve_sure"]
    nominal, sure = json.loads(_json(cli_log))
    assert [sure] == json.loads(_json(sweep))
    # the sweep's nominal reference is the first stage of its solve
    first_stage = {**sure[1], "variant": "nominal"}
    del first_stage["d_fixed"]
    assert nominal == ["solve_nominal", first_stage, sure[2]]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_the_nominal_variant_is_the_first_stage_of_the_branched_solve(
        name, tmp_path):
    # cli solve --variant nominal, the Monte-Carlo study's nominal
    # reference and the staged solves' first stage solve one problem
    _, run = _load(name, tmp_path)
    x_end = config.build_plant(run)[0].target
    x_init = run.conditions[0] if run.plant_name == "cartpole" else x_end
    nominal = config.transcription_config(run, "nominal", x_init, x_end)
    first_stage = pipeline.nominal_stage_config(
        config.transcription_config(run, "sure", x_init, x_end))
    assert _json(nominal) == _json(first_stage)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_the_hold_input_holds_the_target(name):
    # the gains are designed, and the solves end, at an equilibrium
    adapter, _, _ = config.build_plant(config.RunConfig(**CONFIGS[name]))
    drift = adapter.system().derivative(adapter.target, adapter.hold)
    assert np.max(np.abs(drift)) <= control.EQ_TOL
