"""The names the benchmark's tracer patches still exist.

``perfbench/tracing.py`` wraps program functions by attribute name; a
renamed or deleted one would otherwise only fail in a traced benchmark
run.  Each context manager below looks up and restores every name it
patches.
"""

import os
import sys

from branchopt import nlp, simulation
from branchopt.plants import cartpole

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))

import tracing  # noqa: E402


def test_solver_layers_patch_and_restore():
    solve = nlp.solve
    with tracing.solver_layers(tracing.Tracer()):
        assert nlp.solve is not solve
    assert nlp.solve is solve


def test_simulation_layers_patch_and_restore():
    simulate = simulation.simulate
    with tracing.simulation_layers(tracing.Tracer()):
        assert simulation.simulate is not simulate
    assert simulation.simulate is simulate


def test_traced_system_wraps_derivative_and_guard():
    tracer = tracing.Tracer()
    sys_def = tracing.traced_system(tracer, cartpole.make_system())
    sys_def.guard(cartpole.X_EQ, sys_def.default_env)
    sys_def.extras["fast_derivative"](tuple(cartpole.X_EQ), 0.0)
    assert tracer.spans["plants.cartpole.guard"][0] == 1
    assert tracer.spans["plants.cartpole.derivative"][0] == 1
