"""Warm-start guesses the pipeline builds from an unbranched solution,
and the staged solves that use them."""

import numpy as np
import pytest

from branchopt import bench, config, nlp, pipeline
from branchopt import transcription as tr
from branchopt.plants.arm_ocp import ArmCatchOcp
from branchopt.plants.cartpole_ocp import CartPoleOcp

import record
from test_transcription import ARM_END, ARM_INIT, _cfg

# The size, 2-norm and index-weighted sum of the guess built from a fixed
# perturbation of the default unbranched guess, recorded so that a change
# in how the guesses are assembled fails here.
GUESS_CASES = [("cartpole", "sure"), ("cartpole", "tree"), ("arm", "sure"),
               ("arm", "tree")]


def warm_start_guess(plant, variant):
    if plant == "arm":
        adapter = ArmCatchOcp()
        cfg = _cfg(variant, x_init=ARM_INIT, x_end=ARM_END)
    else:
        adapter, cfg = CartPoleOcp(), _cfg(variant)
    nom_cfg = pipeline.nominal_stage_config(cfg)
    _, nom_layout = tr.build_nominal(adapter, nom_cfg)
    x = tr.default_initial_guess(adapter, nom_layout)
    x = x + 0.01 * np.random.default_rng(5).uniform(-1.0, 1.0, size=x.size)
    nominal = tr.extract_solution(nom_layout, x)
    _, layout = getattr(tr, f"build_{variant}")(adapter, cfg)
    guess_from = getattr(pipeline, f"{variant}_guess_from_nominal")
    g = guess_from(adapter, layout, nominal)
    return {"size": g.size, "norm": float(np.sqrt(g @ g)),
            "weighted_sum": float(g @ np.arange(1, g.size + 1))}


def record_warm_start_guesses():
    return {"warm_start_guesses.json": {
        "/".join(case): warm_start_guess(*case) for case in GUESS_CASES}}


@pytest.mark.parametrize("plant, variant", GUESS_CASES)
def test_guess_from_nominal_matches_recorded(plant, variant):
    assert (warm_start_guess(plant, variant)
            == record.load("warm_start_guesses.json")[f"{plant}/{variant}"])


# -- staged solves -------------------------------------------------------------

# an arm problem whose unbranched stage cannot converge in one outer
# iteration of one inner step
FAILING_ARM = {"N": 12, "k_first": 5, "k_last": 7, "n_rejoin": 2}
FAILING_OPTS = nlp.SolverOpts(max_outer=1, max_inner=1)

# the benchmark's cart-pole condition-0 solve, with tolerances every
# iterate meets, so each stage is accepted after one short outer iteration
LOOSE_OPTS = nlp.SolverOpts(tol_eq=1e9, tol_ineq=1e9, tol_stat=1e9,
                            max_outer=1, max_inner=5)
BENCH_CARTPOLE = {"N": 30, "dt_max": 0.1, "k_first": 9, "k_last": 11,
                  "n_rejoin": 4, "n_branch_full": 18}

BRANCHED = ["sure", "tree"]


class _Built(Exception):
    pass


def _no_build(*args, **kwargs):
    raise _Built


@pytest.mark.parametrize("variant", BRANCHED)
def test_failed_nominal_stage_is_returned_without_a_branched_build(
        monkeypatch, variant):
    run = config.RunConfig(plant={"name": "arm"}, transcription=FAILING_ARM)
    adapter, _, _ = config.build_plant(run)
    cfg = config.transcription_config(run, variant, adapter.target,
                                      adapter.target)
    monkeypatch.setattr(tr, "build_sure", _no_build)
    monkeypatch.setattr(tr, "build_tree", _no_build)
    res = pipeline.solve(adapter, cfg, FAILING_OPTS)
    assert res.solution.status == "max_iter"
    assert res.layout.cfg.variant == "nominal"
    assert res.nominal is None


def _bench_cartpole(variant):
    run = config.load_config(None)
    adapter, _, _ = config.build_plant(run)
    return adapter, config.transcription_config(
        run, variant, run.conditions[0], bench.X_END, **BENCH_CARTPOLE)


@pytest.mark.parametrize("variant", BRANCHED)
def test_branched_solve_starts_from_the_nominal_stage(variant):
    adapter, cfg = _bench_cartpole(variant)
    res = pipeline.solve(adapter, cfg, LOOSE_OPTS)
    nom = pipeline.solve(adapter, pipeline.nominal_stage_config(cfg),
                         LOOSE_OPTS)
    assert res.solution.status == nom.solution.status == "converged"
    assert res.layout.cfg.variant == variant
    assert (res.nominal.common.states.tobytes()
            == nom.bundle.common.states.tobytes())
    assert res.solution.wall_time >= nom.solution.wall_time


@pytest.mark.parametrize("variant", BRANCHED)
def test_branched_solve_counts_both_stages(monkeypatch, variant):
    stages = []
    solve_stage = nlp.solve

    def counted(*args, **kwargs):
        sol = solve_stage(*args, **kwargs)
        stages.append((sol.iterations, sol.inner_iterations, sol.wall_time))
        return sol

    monkeypatch.setattr(nlp, "solve", counted)
    s = pipeline.solve(*_bench_cartpole(variant), LOOSE_OPTS).solution
    (nom_outer, nom_inner, nom_time), (outer, inner, time) = stages
    assert s.iterations == outer + nom_outer
    assert s.inner_iterations == inner + nom_inner
    assert s.wall_time == time + nom_time
