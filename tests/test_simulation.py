"""Simulator: RK4 accuracy, event detection, closed-form contact impulse."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from branchopt import contact2d, simulation
from branchopt.plants import cartpole

P = cartpole.CartPoleParams()
ENV = cartpole.CartPoleEnv()


def test_rk4_matches_matrix_exponential():
    # linear system xdot = A x has exact solution expm(A t) x0
    A = np.array([[0.0, 1.0], [-4.0, -0.5]])

    def dyn(x, u):
        return A @ x

    x = np.array([1.0, 0.0])
    dt = 1e-3
    for _ in range(1000):
        x = simulation.rk4_step(dyn, x, None, dt)
    exact = scipy.linalg.expm(A * 1.0) @ np.array([1.0, 0.0])
    assert x == pytest.approx(exact, abs=1e-10)


def test_rk4_rejects_bad_dt():
    with pytest.raises(ValueError):
        simulation.rk4_step(lambda x, u: x, np.ones(2), None, 0.0)


def test_detect_crossing_linear_guard():
    # guard g(x) = x[0]; states from 1 to -1 -> crossing at midpoint
    t, state = simulation.detect_crossing(
        lambda t, s: s[0], np.array([1.0]), np.array([-1.0]), 0.0, 1.0)
    assert t == pytest.approx(0.5, abs=1e-9)
    assert state[0] == pytest.approx(0.0, abs=1e-8)


def test_detect_crossing_bisects_time_with_the_state():
    # g(t, x) = 0.3 - t + x[0] with x moving from 0 to 0.2 over [0, 1]:
    # zero where 0.3 - t + 0.2 t = 0, at t = 0.375
    t, state = simulation.detect_crossing(
        lambda t, s: 0.3 - t + s[0], np.array([0.0]), np.array([0.2]),
        0.0, 1.0)
    assert t == pytest.approx(0.375, abs=1e-8)
    assert state[0] == pytest.approx(0.2 * t, abs=1e-15)


def test_detect_crossing_requires_sign_change():
    with pytest.raises(ValueError):
        simulation.detect_crossing(
            lambda t, s: s[0], np.array([1.0]), np.array([2.0]), 0.0, 1.0)


# -- contact impulse (closed form) ------------------------------------------
# The test_pgs_* names follow the simulator's seam ``simulation.pgs_solve``,
# which now binds the closed form; they are renamed with it.


@st.composite
def _spd_2x2(draw):
    # Delassus-like SPD matrix: eigenvalues in [1e-3, 3], their ratio up
    # to 1e3, eigenvectors at any angle
    lams = draw(st.tuples(st.floats(-3.0, math.log10(3.0)),
                          st.floats(-3.0, math.log10(3.0))))
    lams = 10.0 ** np.array(lams)
    assume(lams.max() <= 1e3 * lams.min())
    theta = draw(st.floats(0.0, math.pi))
    c, s = np.cos(theta), np.sin(theta)
    R = np.array([[c, -s], [s, c]])
    return R @ np.diag(lams) @ R.T


def _ncp_oracle(G, g_vel, e, mu):
    """Brute-force complementarity solve: enumerate the three contact
    modes and return each candidate that meets the KKT conditions.  The
    velocity conditions hold to round-off: relative to the size of the
    terms of r = G F + b, so they mean the same at any scale of G and b.
    More than one can meet them: where mu |G_nt| > G_nn (Painlevé's
    paradox) or near grazing (b_n ~ 0)."""
    b = (1.0 + e) * np.asarray(g_vel, dtype=float)
    candidates = [np.zeros(2)]
    # sticking
    try:
        candidates.append(np.linalg.solve(G, -b))
    except np.linalg.LinAlgError:
        pass
    # sliding on each cone edge
    for s in (1.0, -1.0):
        denom = G[0, 0] + s * mu * G[0, 1]
        if abs(denom) > 1e-12:
            pn = -b[0] / denom
            candidates.append(np.array([pn, s * mu * pn]))
    feasible = []
    for F in candidates:
        fn, ft = F
        if fn < -1e-10 or abs(ft) > mu * fn + 1e-10:
            continue
        r = G @ F + b
        tol = 1e-10 * max(np.abs(G) @ np.abs(F) + np.abs(b))
        # normal: r_n >= 0, and r_n = 0 where fn > 0
        if r[0] < -tol or (fn > 0.0 and r[0] > tol):
            continue
        # tangential: either sticking (r_t = 0) or sliding against r_t
        if abs(ft) < mu * fn - 1e-10:
            if abs(r[1]) > tol:
                continue
        else:
            if np.sign(ft) * r[1] > tol:
                continue
        feasible.append(F)
    assert feasible, "oracle found no consistent contact mode"
    return feasible


@settings(max_examples=300, deadline=None)
@given(G=_spd_2x2(),
       g_vel=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       e=st.floats(0.0, 1.0), mu=st.floats(0.0, 20.0))
# sticking within 1e-12 outside the cone: the impulse is clamped onto it
@example(G=np.eye(2), g_vel=(-1.0, -1.0 - 5e-13), e=0.0, mu=1.0)
# separating, though a sticking impulse meets the conditions too
@example(G=np.array([[1.0, 0.5], [0.5, 1.0]]), g_vel=(0.1, 1.0), e=0.0,
         mu=3.0)
# an approach of one round-off unit, with a tangential velocity of 1e-7:
# not separating at that scale; mu |G_nt| > G_nn, and only the slide
# meets the conditions
@example(G=np.array([[0.29900732, 0.45010223], [0.45010223, 0.71099268]]),
         g_vel=(-2.220446049250313e-16, 1.192092896e-07), e=0.0, mu=1.0)
def test_pgs_matches_ncp_oracle_on_random_systems(G, g_vel, e, mu):
    F = contact2d.exact_cone_impulse(G, g_vel, e, mu, np.zeros(2))
    assert any(F == pytest.approx(F_star, abs=1e-6)
               for F_star in _ncp_oracle(G, g_vel, e, mu))
    # of several modes, a separating contact takes no impulse
    if g_vel[0] >= 0.0:
        assert F.tolist() == [0.0, 0.0]
    # exact cone feasibility
    assert F[0] >= 0.0
    assert abs(F[1]) <= mu * F[0] + 1e-15


def test_pgs_restitution_ratio_frictionless_equivalent():
    rng = np.random.default_rng(99)
    for _ in range(100):
        # diagonal Delassus: normal decouples from tangential
        G = np.diag(rng.uniform(0.5, 3.0, size=2))
        vn = -rng.uniform(0.5, 4.0)
        g_vel = np.array([vn, 0.0])
        e = rng.uniform(0.1, 0.95)
        F = contact2d.exact_cone_impulse(G, g_vel, e, 0.0, np.zeros(2))
        vn_post = vn + G[0, 0] * F[0]
        assert vn_post / (-vn) == pytest.approx(e, abs=1e-3)


def test_pgs_separating_contact_zero_impulse():
    G = np.eye(2)
    F = contact2d.exact_cone_impulse(G, np.array([1.0, 0.3]), 0.8, 0.7,
                                     np.zeros(2))
    assert F == pytest.approx([0.0, 0.0])


def test_ambiguous_corner_returns_the_smallest_residual_candidate():
    # An indefinite G leaves no mode consistent: sticking lies outside
    # the cone and the +edge slide pushes the wrong way.  In the cone are
    # zero (residual 1) and that slide (1/3, 1/3) (residual 2/3).
    G = np.array([[1.0, 2.0], [2.0, 1.0]])
    F = contact2d.exact_cone_impulse(G, np.array([-1.0, 0.0]), 0.0, 1.0,
                                     np.zeros(2))
    assert F == pytest.approx([1.0 / 3.0, 1.0 / 3.0], abs=1e-15)
    # a NaN velocity fails every mode; zero is the one candidate left
    F = contact2d.exact_cone_impulse(np.eye(2), np.array([np.nan, 0.0]),
                                     0.5, 0.5, np.zeros(2))
    assert F.tolist() == [0.0, 0.0]


# -- closed-loop simulate ----------------------------------------------------


def test_simulate_records_contact_and_continues():
    sys_def = cartpole.make_system(P, ENV)
    # drive the pole into the wall: start leaning with inward velocity
    x0 = np.array([-0.1, 3.6, -0.5, 2.0])
    trace = simulation.simulate(sys_def, lambda t, x: np.zeros(1), x0, ENV,
                                horizon=0.5, dt_sim=1e-3)
    assert len(trace.contact_events) >= 1
    ev = trace.contact_events[0]
    assert abs(cartpole.guard(ev.pre_state, ENV, P)) < 1e-6
    # post-impact state separates (guard grows right after the event)
    k = np.searchsorted(trace.times, ev.time)
    assert trace.guards[min(k + 5, len(trace.guards) - 1)] > 0


def test_simulate_notifies_controller():
    sys_def = cartpole.make_system(P, ENV)
    seen = []

    class Ctl:
        def __call__(self, t, x):
            return np.zeros(1)

        def notify_contact(self, t):
            seen.append(t)

    simulation.simulate(sys_def, Ctl(), np.array([-0.1, 3.6, -0.5, 2.0]),
                        ENV, horizon=0.5, dt_sim=1e-3)
    assert len(seen) >= 1


def test_simulate_stop_condition():
    sys_def = cartpole.make_system(P, ENV)
    trace = simulation.simulate(
        sys_def, lambda t, x: np.zeros(1), np.array([0, 2.0, 0, 0]), ENV,
        horizon=5.0, dt_sim=1e-3,
        stop_condition=lambda t, x, n: "early" if t > 0.1 else None)
    assert trace.termination == "early"
    assert trace.times[-1] < 0.2


def test_simulate_trace_export_roundtrip(tmp_path):
    sys_def = cartpole.make_system(P, ENV)
    trace = simulation.simulate(sys_def, lambda t, x: np.zeros(1),
                                np.array([0, 3.0, 0, 0]), ENV, horizon=0.05,
                                dt_sim=1e-3)
    csv_path = tmp_path / "trace.csv"
    trace.to_csv(csv_path)
    import csv as csvmod
    rows = list(csvmod.reader(open(csv_path)))
    assert rows[0][:2] == ["t", "x0"]
    assert len(rows) - 1 == len(trace.times)


def test_simulate_rejects_bad_dt():
    sys_def = cartpole.make_system(P, ENV)
    with pytest.raises(ValueError):
        simulation.simulate(sys_def, lambda t, x: np.zeros(1),
                            cartpole.X_EQ, ENV, horizon=10.0, dt_sim=-1.0)


@pytest.mark.parametrize("horizon", [0.0, 4e-4])
def test_simulate_rejects_a_horizon_below_one_step(horizon):
    # a rollout of no step has no input to record or export
    sys_def = cartpole.make_system(P, ENV)
    with pytest.raises(ValueError, match="no step"):
        simulation.simulate(sys_def, lambda t, x: np.zeros(1),
                            cartpole.X_EQ, ENV, horizon=horizon,
                            dt_sim=1e-3)


# -- the carried state --------------------------------------------------------


def _is_float_tuple(state):
    return type(state) is tuple and all(type(v) is float for v in state)


def _spied_wall_rollout():
    """A cart-pole rollout into the wall, recording what the fast
    derivative, the stop condition and the controller receive."""
    sys_def = cartpole.make_system(P, ENV)
    deriv = sys_def.extras["fast_derivative"]
    seen = {"deriv": [], "stop": [], "controller": []}

    def spy_deriv(state, tau):
        seen["deriv"].append(state)
        return deriv(state, tau)

    def stop(t, state, n_events):
        seen["stop"].append((n_events, state))
        return None

    def controller(t, state):
        seen["controller"].append(state)
        return (0.0,)

    sys_def = dataclasses.replace(sys_def,
                                  extras={"fast_derivative": spy_deriv})
    trace = simulation.simulate(
        sys_def, controller, np.array([-0.1, 3.6, -0.5, 2.0]), ENV,
        horizon=0.5, dt_sim=1e-3, stop_condition=stop)
    return trace, seen


@pytest.mark.parametrize("at_step_end", [False, True])
def test_cartpole_rollout_carries_plain_floats_across_the_impact(
        monkeypatch, at_step_end):
    if at_step_end:
        # a crossing at the step's end leaves no time to finish the step
        def crossing_at_step_end(guard, state_a, state_b, t_a, t_b):
            return t_b, np.asarray(state_b, dtype=float)

        monkeypatch.setattr(simulation, "detect_crossing",
                            crossing_at_step_end)
    trace, seen = _spied_wall_rollout()
    events = trace.contact_events
    assert events
    n_events = [n for n, _ in seen["stop"]]
    assert 0 in n_events and max(n_events) >= 1  # before and after impact
    assert all(_is_float_tuple(state) for state in seen["deriv"])
    assert all(_is_float_tuple(state) for _, state in seen["stop"])
    assert np.array([state for _, state in seen["stop"]]).tobytes() == (
        trace.states[1:].tobytes())
    # the controller reads the carried state of each step, which the
    # trace stores; finishing a step after a contact, it reads the
    # event's post-impact state
    calls = seen["controller"]
    assert all(_is_float_tuple(state) for state in calls)
    want, pending = [], list(events)
    for k in range(len(trace.inputs)):
        want.append(trace.states[k])
        while pending and pending[0].time <= trace.times[k + 1]:
            if not at_step_end:
                want.append(pending[0].post_state)
            pending.pop(0)
    assert np.array(calls).tobytes() == np.array(want).tobytes()
    if at_step_end:
        # the step ends on the post-impact state itself
        for ev in events:
            k = int(np.flatnonzero(trace.times == ev.time)[0])
            assert trace.states[k].tobytes() == ev.post_state.tobytes()
