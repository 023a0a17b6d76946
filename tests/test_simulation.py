"""Simulator: RK4 accuracy, event detection, PGS contact solver."""

import math

import numpy as np
import pytest
import scipy.linalg

from branchopt import contact2d, simulation
from branchopt.plants import cartpole


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


# -- PGS contact solver ------------------------------------------------------


def _random_spd_2x2(rng):
    # Random SPD matrix with eigenvalue ratio bounded by 5, matching the
    # moderate conditioning of Delassus matrices from real mechanisms.
    # Gauss-Seidel's per-sweep error contraction on a 2x2 system is
    # G01^2/(G00*G11) <= ((k-1)/(k+1))^2, so k<=5 guarantees convergence
    # well below 1e-6 within 30 sweeps.
    lams = rng.uniform(0.5, 2.5, size=2)
    theta = rng.uniform(0.0, np.pi)
    c, s = np.cos(theta), np.sin(theta)
    R = np.array([[c, -s], [s, c]])
    return R @ np.diag(lams) @ R.T


def _ncp_oracle(G, g_vel, e, mu):
    """Brute-force complementarity solve: enumerate the three contact
    modes and verify the KKT conditions of each candidate."""
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
        # normal: complementarity fn * r_n = 0, r_n >= 0
        if r[0] < -1e-8 or fn * r[0] > 1e-8:
            continue
        # tangential: either sticking (r_t = 0) or sliding against r_t
        if abs(ft) < mu * fn - 1e-10:
            if abs(r[1]) > 1e-8:
                continue
        else:
            if ft * r[1] > 1e-8:
                continue
        feasible.append(F)
    assert feasible, "oracle found no consistent contact mode"
    return feasible[0]


def test_pgs_matches_ncp_oracle_on_random_systems():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        G = _random_spd_2x2(rng)
        g_vel = rng.uniform(-3, 3, size=2)
        e = rng.uniform(0.0, 1.0)
        mu = rng.uniform(0.0, 1.5)
        F = contact2d.pgs_solve(G, g_vel, e, mu, n_iter=30)
        F_star = _ncp_oracle(G, g_vel, e, mu)
        assert F == pytest.approx(F_star, abs=1e-6)
        # exact cone feasibility
        assert F[0] >= 0.0
        assert abs(F[1]) <= mu * F[0] + 1e-15


def test_pgs_agrees_with_exact_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(200):
        G = _random_spd_2x2(rng)
        g_vel = rng.uniform(-3, 3, size=2)
        e, mu = rng.uniform(0, 1), rng.uniform(0, 1.5)
        a = contact2d.pgs_solve(G, g_vel, e, mu, n_iter=200)
        b = contact2d.exact_cone_impulse(G, g_vel, e, mu)
        assert a == pytest.approx(b, abs=1e-8)


def test_pgs_restitution_ratio_frictionless_equivalent():
    rng = np.random.default_rng(99)
    for _ in range(100):
        # diagonal Delassus: normal decouples from tangential
        G = np.diag(rng.uniform(0.5, 3.0, size=2))
        vn = -rng.uniform(0.5, 4.0)
        g_vel = np.array([vn, 0.0])
        e = rng.uniform(0.1, 0.95)
        F = contact2d.pgs_solve(G, g_vel, e, 0.0, n_iter=30)
        vn_post = vn + G[0, 0] * F[0]
        assert vn_post / (-vn) == pytest.approx(e, abs=1e-3)


def test_pgs_separating_contact_zero_impulse():
    G = np.eye(2)
    F = contact2d.pgs_solve(G, np.array([1.0, 0.3]), 0.8, 0.7)
    assert F == pytest.approx([0.0, 0.0])


def test_pgs_rejects_bad_iteration_count():
    with pytest.raises(ValueError):
        contact2d.pgs_solve(np.eye(2), np.zeros(2), 0.5, 0.5, n_iter=0)


# -- closed-loop simulate ----------------------------------------------------


def test_simulate_records_contact_and_continues():
    sys_def = cartpole.make_system()
    # drive the pole into the wall: start leaning with inward velocity
    x0 = np.array([-0.1, 3.6, -0.5, 2.0])
    trace = simulation.simulate(sys_def, lambda t, x: np.zeros(1), x0,
                                horizon=0.5, dt_sim=1e-3)
    assert len(trace.contact_events) >= 1
    ev = trace.contact_events[0]
    assert abs(cartpole.guard(ev.pre_state, sys_def.default_env,
                              cartpole.CartPoleParams())) < 1e-6
    # post-impact state separates (guard grows right after the event)
    k = np.searchsorted(trace.times, ev.time)
    assert trace.guards[min(k + 5, len(trace.guards) - 1)] > 0


def test_simulate_notifies_controller():
    sys_def = cartpole.make_system()
    seen = []

    class Ctl:
        def __call__(self, t, x):
            return np.zeros(1)

        def notify_contact(self, t):
            seen.append(t)

    simulation.simulate(sys_def, Ctl(), np.array([-0.1, 3.6, -0.5, 2.0]),
                        horizon=0.5, dt_sim=1e-3)
    assert len(seen) >= 1


def test_simulate_stop_condition():
    sys_def = cartpole.make_system()
    trace = simulation.simulate(
        sys_def, lambda t, x: np.zeros(1), np.array([0, 2.0, 0, 0]),
        horizon=5.0, dt_sim=1e-3,
        stop_condition=lambda t, x, n: "early" if t > 0.1 else None)
    assert trace.termination == "early"
    assert trace.times[-1] < 0.2


def test_simulate_trace_export_roundtrip(tmp_path):
    sys_def = cartpole.make_system()
    trace = simulation.simulate(sys_def, lambda t, x: np.zeros(1),
                                np.array([0, 3.0, 0, 0]), horizon=0.05,
                                dt_sim=1e-3)
    csv_path = tmp_path / "trace.csv"
    trace.to_csv(csv_path)
    import csv as csvmod
    rows = list(csvmod.reader(open(csv_path)))
    assert rows[0][:2] == ["t", "x0"]
    assert len(rows) - 1 == len(trace.times)


def test_simulate_rejects_bad_dt():
    sys_def = cartpole.make_system()
    with pytest.raises(ValueError):
        simulation.simulate(sys_def, lambda t, x: np.zeros(1),
                            cartpole.X_EQ, horizon=10.0, dt_sim=-1.0)


@pytest.mark.parametrize("horizon", [0.0, 4e-4])
def test_simulate_rejects_a_horizon_below_one_step(horizon):
    # a rollout of no step has no input to record or export
    sys_def = cartpole.make_system()
    with pytest.raises(ValueError, match="no step"):
        simulation.simulate(sys_def, lambda t, x: np.zeros(1),
                            cartpole.X_EQ, horizon=horizon, dt_sim=1e-3)
