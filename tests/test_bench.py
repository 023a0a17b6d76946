"""Monte-Carlo trial set-up, recorded rollouts of both plants, and the
checks of the studies' settings, which fail at load or, for the gains'
RK4 stability, before the study's first solve."""

import hashlib

import numpy as np
import pytest

from branchopt import bench, config, control, pipeline, simulation
from branchopt import transcription as tr
from branchopt.plants import arm
from branchopt.plants.arm_ocp import ArmCatchOcp
from branchopt.transcription import Trajectory

import record

RECORDED = record.load("recorded_rollouts.json")


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
    bench._run_trial((run, spec, ref, control.Gains(np.zeros((1, 4)))))
    assert [(e.mu, e.x_wall, e.e) for e in seen] == [(0.3, -0.6, 0.75)]


def rollout_record(trace):
    """What a record keeps of a rollout: its end, its events and the
    sha256 of each of its arrays' bytes."""
    return {
        "termination": trace.termination,
        "steps": len(trace.times) - 1,
        "final_state": [float(v) for v in trace.states[-1]],
        "sha256": {name: hashlib.sha256(np.ascontiguousarray(
            getattr(trace, name)).tobytes()).hexdigest()
            for name in ("guards", "inputs", "states", "times")},
        "events": [{"time": float(ev.time),
                    "pre_state": [float(v) for v in ev.pre_state],
                    "post_state": [float(v) for v in ev.post_state],
                    "impulse": [float(v) for v in ev.impulse]}
                   for ev in trace.contact_events],
    }


# Each function below recomputes one entry of recorded_rollouts.json from
# the references stored in it; the tests compare the entry with ==, and
# tests/record.py writes the file from the same functions.


def cartpole_case(recorded, case):
    """The scheduling reference of condition 0 for 2 s: at the default
    wall it makes one contact and balances, at -0.6 m the pole falls."""
    run = config.RunConfig(experiment={"horizon": 2.0})
    adapter, _, _ = config.build_plant(run)
    bundle = tr.bundle_from_dict(recorded["scheduling_bundle"])
    env_over = {} if case["x_wall"] is None else {"x_wall": case["x_wall"]}
    trace, _ = bench.cartpole_rollout(
        run, bundle, run.conditions[0], bench._controller_gains(run, adapter),
        **env_over)
    return {**case, **rollout_record(trace)}


def fixed_reference_case(recorded, case):
    """The condition-0 nominal (the pole falls) and robust_nominal (one
    contact, then it balances) references for 2 s at the default wall."""
    run = config.RunConfig(experiment={"horizon": 2.0})
    adapter, _, _ = config.build_plant(run)
    ref = Trajectory(**recorded[f"{case['reference']}_reference"])
    trace, _ = bench.cartpole_rollout(
        run, ref, run.conditions[0], bench._controller_gains(run, adapter))
    return {**case, **rollout_record(trace)}


def _held_level_reference(p):
    adapter = ArmCatchOcp(p)  # the arm held at its target
    return Trajectory(states=np.array([adapter.target, adapter.target]),
                      inputs=adapter.hold[None, :],
                      dts=np.array([1.5]))


def _joint_pd(kp, kd):
    """The arm's gains K = [kp·I | kd·I]: each joint's own PD law."""
    return control.Gains(np.hstack((np.diag(np.full(3, kp)),
                                    np.diag(np.full(3, kd)))))


def arm_held_level(rec):
    """The contact time and catch speed of the held level pose at each of
    the record's drop heights."""
    p = arm.ArmCatchParams()
    gains = _joint_pd(rec["kp"], rec["kd"])
    ref = _held_level_reference(p)
    rows = []
    for row in rec["drop_heights"]:
        tc, dv = bench._catch_speed(ArmCatchOcp(p), ref, gains, row["h0"],
                                    rec["dt_sim"])
        rows.append({**row, "contact_time": tc, "dv": dv})
    return {**rec, "drop_heights": rows}


def record_rollouts():
    return {"recorded_rollouts.json": {
        **RECORDED,
        "cartpole": [cartpole_case(RECORDED, case)
                     for case in RECORDED["cartpole"]],
        "fixed_references": [fixed_reference_case(RECORDED, case)
                             for case in RECORDED["fixed_references"]],
        "arm_held_level": arm_held_level(RECORDED["arm_held_level"])}}


@pytest.mark.parametrize("case", RECORDED["cartpole"],
                         ids=lambda c: c["termination"])
def test_cartpole_rollout_matches_recorded_bit_for_bit(case):
    assert cartpole_case(RECORDED, case) == case


@pytest.mark.parametrize("case", RECORDED["fixed_references"],
                         ids=lambda c: c["reference"])
def test_fixed_reference_rollout_matches_recorded_bit_for_bit(case):
    assert fixed_reference_case(RECORDED, case) == case


def test_catch_speed_matches_the_recorded_arm_rollouts():
    rec = RECORDED["arm_held_level"]
    assert arm_held_level(rec) == rec


def test_sweep_without_a_catch_names_the_reference():
    # released below the container, the ball is never caught
    p = arm.ArmCatchParams()
    gains = _joint_pd(80.0, 1.0)
    with pytest.raises(RuntimeError, match="held"):
        bench._replay_drops(ArmCatchOcp(p), {"held": _held_level_reference(p)},
                            gains, [0.2], 1e-3)


class _Solved(Exception):
    pass


def _no_solve(*args, **kwargs):
    raise _Solved


def test_sweep_rejects_rk4_unstable_default_gains_before_solving(monkeypatch):
    monkeypatch.setattr(pipeline, "solve", _no_solve)
    run = config.RunConfig(plant={"name": "arm"},
                           experiment={"dt_sim": 0.05})
    with pytest.raises(ValueError, match=r"arm's tracking loop is unstable "
                                         r".* at dt_sim 0\.05 .* = 2\.32 > 1"):
        bench.velocity_sweep(run)


def test_sweep_solves_with_rk4_stable_arm_gains(monkeypatch):
    # the default gains keep |R(λ·dt)| at 0.994, so the sweep goes on to
    # its solve
    monkeypatch.setattr(pipeline, "solve", _no_solve)
    with pytest.raises(_Solved):
        bench.velocity_sweep(config.RunConfig(plant={"name": "arm"}))


def test_arm_default_gains_hold_the_level_pose_through_every_catch():
    # the designed gains are stable under RK4 at dt_sim, and the held
    # catch pose catches the ball at the sweep's extreme and nominal
    # drop heights
    run = config.RunConfig(plant={"name": "arm"})
    adapter, p, _ = config.build_plant(run)
    gains = bench._controller_gains(run, adapter)
    dt_sim = run.experiment["dt_sim"]
    A, B = control.linearize(adapter.system(), adapter.target, adapter.hold)
    assert bench._rk4_growth(A, B, gains, dt_sim) < 1.0
    z, half = p.p_ball0[1], run.experiment["sweep_half_range"]
    for h0 in (z - half, z, z + half):
        tc, dv = bench._catch_speed(adapter, _held_level_reference(p), gains,
                                    h0, dt_sim)
        assert tc is not None and dv is not None


def test_montecarlo_reference_solve_names_the_stage_that_failed():
    # one outer iteration of one inner step leaves the unbranched stage of
    # this small problem unconverged, so the branched stage never runs
    run = config.RunConfig(
        transcription={"N": 12, "k_first": 5, "k_last": 7, "n_rejoin": 2},
        solver={"max_outer": 1, "max_inner": 1})
    with pytest.raises(RuntimeError, match=r"^unbranched solve failed "
                                           r"\(max_iter\) for condition"):
        bench._solve_condition((run, run.conditions[0]))


def test_montecarlo_rejects_rk4_unstable_gains_before_solving(monkeypatch):
    monkeypatch.setattr(bench, "_solve_condition", _no_solve)
    run = config.RunConfig(controller={"q_diag": [1e4, 1e4, 0, 0], "r": 1e-3},
                           experiment={"dt_sim": 0.02})
    with pytest.raises(ValueError, match=r"cart-pole's tracking loop is "
                                         r"unstable .* = 2\.55 > 1"):
        bench.montecarlo(run)


@pytest.mark.parametrize("run, key", [
    ({"plant": {"name": "arm"}, "experiment": {"dt_sim": 0.0}}, "dt_sim"),
    ({"plant": {"name": "arm"}, "experiment": {"dt_sim": -1e-3}}, "dt_sim"),
    ({"plant": {"name": "arm"}, "experiment": {"sweep_heights": 0}},
     "sweep_heights"),
    ({"controller": {"r": 0}}, "controller r"),
    ({"controller": {"r": -0.1}}, "controller r"),
    ({"controller": {"r": float("inf")}}, "controller r"),
    # YAML reads yes as True
    ({"controller": {"r": True}}, "controller r"),
    ({"controller": {"q_diag": [10, 10, 0]}}, "controller q_diag"),
    ({"controller": {"q_diag": [10, 10, 0, -1]}}, "controller q_diag"),
    ({"controller": {"q_diag": [10, 10, 0, float("nan")]}},
     "controller q_diag"),
    ({"controller": {"q_diag": 10}}, "controller q_diag"),
    ({"plant": {"name": "arm"}, "controller": {"q_diag": [10, 10, 0, 0]}},
     "controller q_diag"),
], ids=["dt_sim-0", "dt_sim-negative", "sweep_heights-0",
        "r-0", "r-negative", "r-inf", "r-bool", "q_diag-short",
        "q_diag-negative", "q_diag-nan", "q_diag-scalar", "q_diag-arm-short"])
def test_bad_gain_and_sweep_settings_fail_before_solving(run, key):
    # at load, before the study's first solve, which takes minutes
    with pytest.raises(ValueError, match=key):
        config.RunConfig(**run)


def test_sweep_rejects_the_cartpole(monkeypatch):
    monkeypatch.setattr(pipeline, "solve", _no_solve)
    with pytest.raises(ValueError, match="sweep is defined for the arm"):
        bench.velocity_sweep(config.RunConfig())


@pytest.mark.parametrize("study", [bench.montecarlo, bench.tradeoff])
def test_cartpole_studies_reject_the_arm(study):
    with pytest.raises(ValueError, match="cart-pole"):
        study(config.RunConfig(plant={"name": "arm"}))


@pytest.mark.parametrize("experiment, key", [
    ({"n_r_values": [4, 20], "post_impact_budget": 18}, "n_r_values"),
    ({"n_r_values": [0, 4]}, "n_r_values"),
    ({"n_r_values": [1], "post_impact_budget": 0}, "post_impact_budget")])
def test_tradeoff_rejects_a_rejoin_horizon_beyond_the_budget_before_solving(
        experiment, key):
    # a sure cell with n_r > budget has a negative final segment, which
    # would fail only in that cell's solve, after the cells before it;
    # the config fails at load
    with pytest.raises(ValueError, match=key):
        config.RunConfig(experiment={**experiment, "workers": 1})


def test_tradeoff_accepts_a_rejoin_horizon_of_the_whole_budget(monkeypatch):
    monkeypatch.setattr(pipeline, "solve", _no_solve)
    run = config.RunConfig(experiment={"n_r_values": [1, 18],
                                       "post_impact_budget": 18,
                                       "workers": 1})
    with pytest.raises(_Solved):
        bench.tradeoff(run)


@pytest.mark.parametrize("key, box", [("x_wall_range", [-0.3, -0.7]),
                                      ("e_range", [0.9, 0.7])])
def test_montecarlo_rejects_a_reversed_box_before_solving(key, box):
    with pytest.raises(ValueError, match=f"{key} .* reversed"):
        config.RunConfig(experiment={key: box})


def test_montecarlo_rejects_no_samples_before_solving():
    with pytest.raises(ValueError, match="n_samples"):
        config.RunConfig(experiment={"n_samples": 0})


@pytest.mark.parametrize("key, value", [
    ("horizon", 0.0), ("horizon", -1.0), ("horizon", 4e-4),
    ("horizon", float("nan")), ("dt_sim", 0.0), ("dt_sim", -1e-3),
    ("final_tol", [0.05, 0.05, 0.1]), ("final_tol", [0.05, 0.05, 0.1, -0.1]),
    ("final_tol", 0.05), ("final_tol", [0.05, 0.05, 0.1, "loose"]),
    ("debounce_window", -0.01)])
def test_montecarlo_rejects_bad_rollout_settings_before_solving(key, value):
    # the four reference solves take minutes; the trials that would fail
    # on these settings run after them; the config fails at load
    with pytest.raises(ValueError, match=key):
        config.RunConfig(experiment={key: value, "workers": 1})


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


class _RecordingPool:
    """A stand-in for ProcessPoolExecutor that records the pool size it
    is asked for and runs the tasks in this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("workers, n_items, cpus, size", [
    (5000, 4, 64, 4),    # no more processes than tasks
    (5000, 100, 3, 3),   # nor than CPUs
    (2, 100, 64, 2),
    (5000, 4, 1, None),  # one CPU: in this process
    (5000, 1, 64, None),
    (1, 100, 64, None),
    (-3, 100, 64, None),
])
def test_pmap_starts_at_most_one_process_per_task_and_cpu(
        monkeypatch, workers, n_items, cpus, size):
    monkeypatch.setattr(bench, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(bench.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    items = list(range(n_items))
    assert bench._pmap(abs, items, workers) == items
    assert _RecordingPool.sizes == ([] if size is None else [size])
