"""Monte-Carlo trial set-up."""

import numpy as np

from branchopt import bench, simulation
from branchopt.transcription import Trajectory


def test_run_trial_simulates_the_configured_env(monkeypatch):
    seen = []
    simulate = simulation.simulate

    def recording_simulate(sys, controller, x0, env, **kw):
        seen.append(env)
        return simulate(sys, controller, x0, env=env, **kw)

    monkeypatch.setattr(simulation, "simulate", recording_simulate)
    state = (0.0, np.pi, 0.0, 0.0)
    spec = bench._SampledSpec(condition_id=0, reference="nominal",
                              x_wall=-0.6, e=0.75, seed=0, index=0,
                              condition_state=state)
    ref = Trajectory(states=np.array([state, state]),
                     inputs=np.zeros((1, 1)), dts=np.array([0.01]))
    bench._run_trial(({}, {"mu": 0.3}, spec, ref, np.zeros(2), np.zeros(2),
                      0.005, 1e-3, [0.05] * 4, 0.05, list(bench.X_END)))
    assert [(e.mu, e.x_wall, e.e) for e in seen] == [(0.3, -0.6, 0.75)]
