"""Monte-Carlo trial set-up, recorded rollouts of both plants, and the
studies' input checks."""

import hashlib
import json
import os

import numpy as np
import pytest

from branchopt import bench, config, control, pipeline, simulation
from branchopt import transcription as tr
from branchopt.plants import arm
from branchopt.transcription import Trajectory

with open(os.path.join(os.path.dirname(__file__), "data",
                       "recorded_rollouts.json")) as _fh:
    RECORDED = json.load(_fh)


def test_run_trial_simulates_the_configured_env(monkeypatch):
    seen = []
    simulate = simulation.simulate

    def recording_simulate(sys, controller, x0, env, **kw):
        seen.append(env)
        return simulate(sys, controller, x0, env=env, **kw)

    monkeypatch.setattr(simulation, "simulate", recording_simulate)
    state = (0.0, np.pi, 0.0, 0.0)
    spec = bench.TrialSpec(condition_id=0, reference="nominal",
                           x_wall=-0.6, e=0.75, seed=0, index=0)
    ref = Trajectory(states=np.array([state, state]),
                     inputs=np.zeros((1, 1)), dts=np.array([0.01]))
    run = config.RunConfig(plant={"env": {"mu": 0.3}},
                           experiment={"horizon": 0.005})
    bench._run_trial((run, spec, ref, control.Gains(np.zeros(2), np.zeros(2))))
    assert [(e.mu, e.x_wall, e.e) for e in seen] == [(0.3, -0.6, 0.75)]


def _assert_matches_recorded(trace, case):
    assert trace.termination == case["termination"]
    assert len(trace.times) - 1 == case["steps"]
    assert [float(v) for v in trace.states[-1]] == case["final_state"]
    for name, digest in case["sha256"].items():
        data = np.ascontiguousarray(getattr(trace, name)).tobytes()
        assert hashlib.sha256(data).hexdigest() == digest, name
    events = [{"time": ev.time,
               "pre_state": [float(v) for v in ev.pre_state],
               "post_state": [float(v) for v in ev.post_state],
               "impulse": [float(v) for v in ev.impulse]}
              for ev in trace.contact_events]
    assert events == case["events"]


@pytest.mark.parametrize("case", RECORDED["cartpole"],
                         ids=lambda c: c["termination"])
def test_cartpole_rollout_matches_recorded_bit_for_bit(case):
    # the scheduling reference of condition 0 for 2 s: at the default wall
    # it makes one contact and balances, at -0.6 m the pole falls
    run = config.RunConfig(experiment={"horizon": 2.0})
    _, p, env = config.build_plant(run)
    bundle = tr.bundle_from_dict(RECORDED["scheduling_bundle"])
    env_over = {} if case["x_wall"] is None else {"x_wall": case["x_wall"]}
    trace, _ = bench.cartpole_rollout(
        run, bundle, run.conditions[0], bench._controller_gains(run, p, env),
        **env_over)
    _assert_matches_recorded(trace, case)


@pytest.mark.parametrize("case", RECORDED["fixed_references"],
                         ids=lambda c: c["reference"])
def test_fixed_reference_rollout_matches_recorded_bit_for_bit(case):
    # the condition-0 nominal (the pole falls) and robust_nominal (one
    # contact, then it balances) references for 2 s at the default wall
    run = config.RunConfig(experiment={"horizon": 2.0})
    _, p, env = config.build_plant(run)
    ref = Trajectory(**RECORDED[f"{case['reference']}_reference"])
    trace, _ = bench.cartpole_rollout(
        run, ref, run.conditions[0], bench._controller_gains(run, p, env))
    _assert_matches_recorded(trace, case)


def _held_level_reference(p):
    q0 = arm.level_configuration((0.0, 0.3), p)
    x0 = np.concatenate([q0, np.zeros(3)])
    return Trajectory(states=np.array([x0, x0]),
                      inputs=arm.gravity_torque(q0, p)[None, :],
                      dts=np.array([1.5]))


def test_catch_speed_matches_the_recorded_arm_rollouts():
    rec = RECORDED["arm_held_level"]
    p = arm.ArmCatchParams()
    gains = control.Gains(np.diag(np.full(3, rec["kp"])),
                          np.diag(np.full(3, rec["kd"])))
    ref = _held_level_reference(p)
    for row in rec["drop_heights"]:
        tc, dv = bench._catch_speed(p, ref, gains, row["h0"], rec["dt_sim"])
        assert tc == pytest.approx(row["contact_time"], abs=1e-8)
        assert dv == pytest.approx(row["dv"], abs=1e-6)


def test_sweep_without_a_catch_names_the_reference():
    # released below the container, the ball is never caught
    p = arm.ArmCatchParams()
    gains = control.Gains(np.diag(np.full(3, 80.0)), np.diag(np.full(3, 1.0)))
    with pytest.raises(RuntimeError, match="held"):
        bench._replay_drops(p, {"held": _held_level_reference(p)}, gains,
                            [0.2], 1e-3)


class _Solved(Exception):
    pass


def _no_solve(*args, **kwargs):
    raise _Solved


def test_sweep_rejects_rk4_unstable_default_gains_before_solving(monkeypatch):
    monkeypatch.setattr(pipeline, "solve_nominal", _no_solve)
    with pytest.raises(ValueError, match=r"arm_kp 80\.0, arm_kd 12\.0 at "
                                         r"dt_sim 0\.001 .* = 16\.6 > 1"):
        bench.velocity_sweep(config.RunConfig(plant={"name": "arm"}))


def test_sweep_solves_with_rk4_stable_arm_gains(monkeypatch):
    # kd 1 keeps |R(λ·dt)| at 0.998, so the sweep goes on to its solves
    monkeypatch.setattr(pipeline, "solve_nominal", _no_solve)
    run = config.RunConfig(plant={"name": "arm"},
                           controller={"arm_kp": 80.0, "arm_kd": 1.0})
    with pytest.raises(_Solved):
        bench.velocity_sweep(run)


def test_sweep_rejects_the_cartpole(monkeypatch):
    monkeypatch.setattr(pipeline, "solve_nominal", _no_solve)
    run = config.RunConfig(controller={"arm_kd": 1.0})
    with pytest.raises(ValueError, match="sweep is defined for the arm"):
        bench.velocity_sweep(run)


@pytest.mark.parametrize("study", [bench.montecarlo, bench.tradeoff])
def test_cartpole_studies_reject_the_arm(study):
    with pytest.raises(ValueError, match="cart-pole"):
        study(config.RunConfig(plant={"name": "arm"}))


@pytest.mark.parametrize("key, box", [("x_wall_range", [-0.3, -0.7]),
                                      ("e_range", [0.9, 0.7])])
def test_montecarlo_rejects_a_reversed_box_before_solving(monkeypatch, key,
                                                          box):
    monkeypatch.setattr(pipeline, "solve_sure", _no_solve)
    with pytest.raises(ValueError, match=f"{key} .* reversed"):
        bench.montecarlo(config.RunConfig(experiment={key: box}))


def test_montecarlo_rejects_no_samples_before_solving(monkeypatch):
    monkeypatch.setattr(pipeline, "solve_sure", _no_solve)
    with pytest.raises(ValueError, match="n_samples"):
        bench.montecarlo(config.RunConfig(experiment={"n_samples": 0}))


@pytest.mark.parametrize("key, value", [
    ("horizon", 0.0), ("horizon", -1.0), ("horizon", 4e-4),
    ("horizon", float("nan")), ("dt_sim", 0.0), ("dt_sim", -1e-3),
    ("final_tol", [0.05, 0.05, 0.1]), ("final_tol", [0.05, 0.05, 0.1, -0.1]),
    ("final_tol", 0.05), ("final_tol", [0.05, 0.05, 0.1, "loose"]),
    ("debounce_window", -0.01)])
def test_montecarlo_rejects_bad_rollout_settings_before_solving(
        monkeypatch, key, value):
    # the four reference solves take minutes; the trials that would fail
    # on these settings run after them
    monkeypatch.setattr(bench, "_solve_condition", _no_solve)
    run = config.RunConfig(experiment={key: value, "workers": 1})
    with pytest.raises(ValueError, match=key):
        bench.montecarlo(run)


@pytest.mark.parametrize("experiment", [
    {}, {"horizon": 6e-4}, {"final_tol": [0, 0, 0, 0]},
    {"debounce_window": 0}])
def test_montecarlo_accepts_edge_rollout_settings(monkeypatch, experiment):
    # 6e-4 s rounds to one step of 1 ms, as in ``simulate``
    monkeypatch.setattr(bench, "_solve_condition", _no_solve)
    with pytest.raises(_Solved):
        bench.montecarlo(config.RunConfig(
            experiment={**experiment, "workers": 1}))


def _trace_with_contacts(times):
    """A rollout that ends upright at the target, clear of the default
    wall, with wall contacts at ``times``."""
    states = np.array([[0.0, np.pi, 0.0, 0.0]] * 3)
    events = [simulation.ContactEvent(time=t, pre_state=states[0],
                                      post_state=states[0],
                                      impulse=np.zeros(1))
              for t in times]
    return simulation.SimTrace(times=np.array([0.0, 0.5, 1.0]),
                               states=states, inputs=np.zeros((3, 1)),
                               guards=np.ones(3), contact_events=events)


def _evaluate(times):
    spec = bench.TrialSpec(condition_id=0, reference="nominal",
                           x_wall=-0.5, e=0.8, seed=0, index=0)
    return bench.evaluate_trial(_trace_with_contacts(times), spec,
                                [0.05, 0.05, 0.1, 0.1],
                                config.build_plant(config.RunConfig())[1],
                                bench.X_END, 0.05)


@pytest.mark.parametrize("times, count", [
    # each event is within the window of the one before it: the window
    # restarts at every event, so the chain counts once
    ([0.10, 0.14, 0.18, 0.22], 1),
    ([0.10, 0.20], 2),
    ([0.22, 0.10, 0.18, 0.14], 1),
    ([0.30, 0.10], 2),
    ([], 0),
], ids=["chained", "apart", "chained-unsorted", "apart-unsorted", "none"])
def test_contact_count_debounces_events(times, count):
    report = _evaluate(times)
    assert report.contact_count == count
    assert report.single_contact == (count <= 1)


def test_two_contacts_alone_fail_the_trial():
    report = _evaluate([0.10, 0.30])
    assert (report.reached_target and report.stayed_up
            and report.no_penetration)
    assert not report.single_contact
    assert not report.success
    assert report.to_dict()["success"] is False
