"""What the benchmark uses of the program still exists.

``perfbench/tracing.py`` wraps program functions by attribute name, and
``perfbench/workloads.py`` builds its cases through the config, the
pipeline's solve signatures and the reference fixtures; a renamed or
deleted one would otherwise only fail in a benchmark run.  Each context
manager below looks up and restores every name it patches.
"""

import dataclasses
import inspect
import os
import sys

import numpy as np
import pytest

from branchopt import bench, config, nlp, pipeline, simulation
from branchopt import transcription as tr
from branchopt.plants import cartpole

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))

import record  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from test_transcription import (structure_case,  # noqa: E402
                                structure_fingerprint)


def test_solver_layers_patch_and_restore():
    solve = nlp.solve
    with tracing.solver_layers(tracing.Tracer()):
        assert nlp.solve is not solve
    assert nlp.solve is solve


def test_solver_layers_attribute_block_jacobians_and_factorizations():
    # the short N=30 nominal solve of test_nlp, traced: the replayed block
    # evaluations and the LM factorizations are still counted per layer.
    # Every inner evaluation replays at least one tape, each inside a
    # call of nlp.block_values_and_jac, so an AL path that replays
    # without that name has fewer block_jac spans than evaluations.
    # The nlp.factorize span wraps spla.factorized, which the LM method
    # calls only for a normal matrix whose pattern differs from the last
    # one; a trial on the kept pattern factors through nlp._natural_lu,
    # outside the span, so the span covers the misses alone
    run = config.load_config(None)
    adapter, _, _ = config.build_plant(run)
    cfg = pipeline.nominal_stage_config(config.transcription_config(
        run, "sure", run.conditions[0], bench.X_END, N=30, dt_max=0.1,
        k_first=9, k_last=11, n_rejoin=4, n_branch_full=18))
    problem, layout = tr.build_nominal(adapter, cfg)
    tracer = tracing.Tracer()
    with tracing.solver_layers(tracer):
        nlp.solve(problem, tr.default_initial_guess(adapter, layout),
                  nlp.SolverOpts(max_outer=1, max_inner=5))
    assert tracer.counts["nlp.nominal_inner_evals"] > 0
    assert (tracer.spans["nlp.block_jac"][0]
            >= tracer.counts["nlp.nominal_inner_evals"])
    assert tracer.spans["nlp.factorize"][0] > 0
    # restoration calls trf through the patched nlp.least_squares
    assert tracer.spans["nlp.trf"][0] > 0
    assert tracer.counts["nlp.trf_nfev"] > 0


def test_rollouts_replay_with_the_studys_gains():
    # the benchmark designs its gains with design_gains' defaults; at the
    # default config they are the Monte-Carlo study's, bit for bit
    setup = workloads.setup_rollouts(trials=[])
    run = config.load_config(None)
    gains = bench._controller_gains(run, config.build_plant(run)[0])
    assert (np.array(setup.gains.rows).tobytes()
            == np.array(gains.rows).tobytes())


def test_simulation_layers_patch_and_restore():
    simulate = simulation.simulate
    with tracing.simulation_layers(tracing.Tracer()):
        assert simulation.simulate is not simulate
    assert simulation.simulate is simulate


def test_simulation_layers_time_every_impulse():
    # the impact law calls the impulse through simulation.pgs_solve, so a
    # traced rollout has one contact2d.pgs span per contact event
    setup = workloads.setup_rollouts()
    tracer = tracing.Tracer()
    events = 0
    with tracing.simulation_layers(tracer):
        for trial in setup.trials[:8]:
            trace, _ = workloads.run_rollout(setup, trial)
            events += len(trace.contact_events)
    assert events > 0
    assert tracer.spans["contact2d.pgs"][0] == events


def test_traced_system_wraps_derivative_and_guard():
    tracer = tracing.Tracer()
    p = cartpole.CartPoleParams()
    env = cartpole.CartPoleEnv()
    sys_def = tracing.traced_system(tracer, cartpole.make_system(p, env))
    sys_def.guard(0.0, cartpole.X_EQ, env)
    sys_def.extras["fast_derivative"](tuple(cartpole.X_EQ), 0.0)
    assert tracer.spans["plants.cartpole.guard"][0] == 1
    assert tracer.spans["plants.cartpole.derivative"][0] == 1


def test_the_benchmarks_solve_names_are_the_studies_solve():
    # the benchmark times pipeline.solve_sure and solve_tree; the studies
    # and the CLI solve through pipeline.solve
    assert (pipeline.solve_nominal is pipeline.solve_sure
            is pipeline.solve_tree is pipeline.solve)


@pytest.mark.parametrize("kind", ["sure", "tree"])
def test_solve_cases_build_and_bind_to_the_pipeline(kind):
    case = workloads.setup_solve(kind)
    solver = getattr(pipeline, f"solve_{kind}")
    inspect.signature(solver).bind(case.adapter, case.cfg, case.opts)


def test_rollout_setup_reads_every_reference_fixture():
    setup = workloads.setup_rollouts()
    assert len(setup.refs) == 3 * len(setup.conditions)


def _fields(cfg):
    """A config's fields, its boundary states as lists, so that two
    configs compare by ==."""
    fields = dataclasses.asdict(cfg)
    for name in ("x_init", "x_end"):
        fields[name] = fields[name].tolist()
    return fields


@pytest.mark.parametrize("kind", ["sure", "tree"])
def test_solve_cases_are_the_recorded_bench_size_problems(kind):
    # a config change that moves the benchmark's problem fails here, not
    # only at the benchmark's gate
    case = workloads.setup_solve(kind)
    _, cfg = structure_case("cartpole", "bench", kind)
    assert _fields(case.cfg) == _fields(cfg)
    assert (structure_fingerprint(case.adapter, case.cfg)
            == record.load("structure_fingerprints.json")[
                f"cartpole/bench/{kind}"])
