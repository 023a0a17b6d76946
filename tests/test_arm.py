"""Planar 3-link arm plant tests.

The dynamics oracle rebuilds the equations of motion from scratch out of
the Cartesian point-mass Lagrangian using finite-difference kinematics
only — no shared code with the plant's absolute-angle formulation.
"""

import math

import numpy as np
import pytest

from branchopt import autodiff as ad
from branchopt.plants import arm
from branchopt.plants.arm import ArmCatchParams
from branchopt.plants.arm_ocp import ArmCatchOcp


P = ArmCatchParams()


def _tips_float(q, p):
    return np.array([[float(a), float(b)] for a, b in arm.tip_positions(q, p)])


def _tip_jacobians(q, p):
    """3 stacked 2x3 tip Jacobians, derived from the Cartesian chain.

    Tip k sits at sum_{j<=k} l_j (cos a_j, sin a_j) with a_j = q_1+..+q_j,
    so column m of J_k sums link vectors rotated 90 degrees over j in
    [m, k].  Dual-evaluable: entries go through the AD trig functions.
    """
    a = [q[0], q[0] + q[1], q[0] + q[1] + q[2]]
    J = [[[0.0] * 3 for _ in range(2)] for _ in range(3)]
    for k in range(3):
        for m in range(3):
            jx = 0.0
            jz = 0.0
            for j in range(m, k + 1):
                jx = jx - p.lengths[j] * ad.sin(a[j])
                jz = jz + p.lengths[j] * ad.cos(a[j])
            J[k][0][m] = jx
            J[k][1][m] = jz
    return J


def _mass_matrix_oracle(q, p):
    """M(q) = sum_i m_i J_i' J_i (dual-evaluable nested lists)."""
    J = _tip_jacobians(q, p)
    M = [[0.0] * 3 for _ in range(3)]
    for i, m in enumerate(p.masses):
        for r in range(3):
            for c in range(3):
                M[r][c] = M[r][c] + m * (J[i][0][r] * J[i][0][c]
                                         + J[i][1][r] * J[i][1][c])
    return M


def _mass_matrix_oracle_float(q, p):
    return np.array([[float(v) for v in row]
                     for row in _mass_matrix_oracle(q, p)])


def _dynamics_oracle(q, qd, tau, p):
    """q̈ from the Lagrangian: M q̈ + Ṁ q̇ − ∂T/∂q + ∂V/∂q = τ.

    All configuration gradients are exact (forward-mode duals through the
    Cartesian kinematics), so the only error is the final linear solve.
    """
    M = _mass_matrix_oracle_float(q, p)

    def Mqd(qq):
        Mq = _mass_matrix_oracle(qq, p)
        return [sum(Mq[r][c] * qd[c] for c in range(3)) for r in range(3)]

    def T(qq):
        Mq = _mass_matrix_oracle(qq, p)
        return sum(qd[r] * Mq[r][c] * qd[c]
                   for r in range(3) for c in range(3)) * 0.5

    def V(qq):
        tips = arm.tip_positions(qq, p)
        return sum(m * p.g * tip[1] for m, tip in zip(p.masses, tips))

    dMqd = ad.jacobian(Mqd, np.asarray(q, float))  # 3x3: d(M qd)/dq
    Mdot_qd = dMqd @ qd
    dT = ad.jacobian(lambda v: [T(v)], np.asarray(q, float))[0]
    dV = ad.jacobian(lambda v: [V(v)], np.asarray(q, float))[0]
    return np.linalg.solve(M, np.asarray(tau, float) - Mdot_qd + dT - dV)


def test_forward_dynamics_matches_lagrangian_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        q = rng.uniform(-np.pi, np.pi, 3)
        qd = rng.uniform(-3, 3, 3)
        tau = rng.uniform(-10, 10, 3)
        qdd = np.array([float(v) for v in arm.forward_dynamics(q, qd, tau, P)])
        qdd_star = _dynamics_oracle(q, qd, tau, P)
        assert qdd == pytest.approx(qdd_star, rel=1e-9, abs=1e-9)


def test_mass_matrix_matches_jacobian_form_and_is_spd():
    rng = np.random.default_rng(7)
    for _ in range(200):
        q = rng.uniform(-np.pi, np.pi, 3)
        M = arm.mass_matrix(q, P)
        assert M == pytest.approx(M.T, abs=1e-12)
        assert np.all(np.linalg.eigvalsh(M) > 0)
        assert M == pytest.approx(_mass_matrix_oracle_float(q, P), abs=1e-12)


def test_joint_space_equation_residual():
    # forward dynamics (absolute-angle path) must satisfy the joint-space
    # equation M q̈ + H = τ built by the independent matrix path
    rng = np.random.default_rng(3)
    for _ in range(200):
        q = rng.uniform(-np.pi, np.pi, 3)
        qd = rng.uniform(-4, 4, 3)
        tau = rng.uniform(-20, 20, 3)
        qdd = np.array([float(v) for v in arm.forward_dynamics(q, qd, tau, P)])
        resid = arm.mass_matrix(q, P) @ qdd + arm.bias_vector(q, qd, P) - tau
        assert resid == pytest.approx(np.zeros(3), abs=1e-8)


def test_gravity_torque_holds_arm_static():
    rng = np.random.default_rng(11)
    for _ in range(50):
        q = rng.uniform(-np.pi, np.pi, 3)
        tau = arm.gravity_torque(q, P)
        qdd = np.array(
            [float(v) for v in arm.forward_dynamics(q, np.zeros(3), tau, P)])
        assert qdd == pytest.approx(np.zeros(3), abs=1e-9)


def test_unforced_energy_conservation():
    dt = 1e-4
    state = np.array([0.4, -0.8, 0.3, 0.5, -0.2, 0.1])
    e0 = arm.total_energy(state, P)

    def deriv(s):
        qdd = [float(v) for v in arm.forward_dynamics(s[:3], s[3:], np.zeros(3), P)]
        return np.concatenate([s[3:], qdd])

    for _ in range(10000):
        k1 = deriv(state)
        k2 = deriv(state + 0.5 * dt * k1)
        k3 = deriv(state + 0.5 * dt * k2)
        k4 = deriv(state + dt * k3)
        state = state + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert abs(arm.total_energy(state, P) - e0) <= 1e-5


# -- kinematics ------------------------------------------------------------------


def test_translational_jacobian_matches_cartesian_chain():
    rng = np.random.default_rng(5)
    for _ in range(100):
        q = rng.uniform(-np.pi, np.pi, 3)
        row_x, row_z = arm.translational_jacobian(q, P)
        J = np.array([[float(v) for v in row_x], [float(v) for v in row_z]])
        J_star = np.array([[float(v) for v in row]
                           for row in _tip_jacobians(q, P)[2]])
        assert J == pytest.approx(J_star, abs=1e-12)


def test_ee_velocity_is_jacobian_times_qd():
    rng = np.random.default_rng(9)
    q = rng.uniform(-np.pi, np.pi, 3)
    qd = rng.uniform(-2, 2, 3)
    row_x, row_z = arm.translational_jacobian(q, P)
    J = np.array([[float(v) for v in row_x], [float(v) for v in row_z]])
    vx, vz = arm.ee_velocity(q, qd, P)
    assert [float(vx), float(vz)] == pytest.approx(J @ qd)


def test_forward_kinematics_chain():
    q = np.array([0.3, -0.5, 0.9])
    x, z, a3 = arm.fk(q, P)
    l1, l2, l3 = P.lengths
    a = np.cumsum(q)
    x_star = l1 * np.cos(a[0]) + l2 * np.cos(a[1]) + l3 * np.cos(a[2])
    z_star = l1 * np.sin(a[0]) + l2 * np.sin(a[1]) + l3 * np.sin(a[2])
    assert float(x) == pytest.approx(x_star)
    assert float(z) == pytest.approx(z_star)
    assert float(a3) == pytest.approx(a[2])


def test_dynamics_evaluable_with_duals():
    q = np.array([0.2, 0.4, -0.3])
    qd = np.array([0.5, -0.1, 0.2])
    tau = np.array([1.0, 0.5, -0.2])

    def f(v):
        return arm.forward_dynamics(v[:3], v[3:6], v[6:9], P)

    v0 = np.concatenate([q, qd, tau])
    J = ad.jacobian(f, v0)
    J_fd = ad.finite_difference_jacobian(f, v0)
    assert J == pytest.approx(J_fd, abs=1e-6)


# -- ball ballistics and inverse kinematics --------------------------------------


def test_ball_state_closed_form():
    (px, pz), (vx, vz) = arm.ball_state(0.4, (0.1, 1.2), (0.3, -0.5))
    assert px == pytest.approx(0.1 + 0.3 * 0.4)
    assert pz == pytest.approx(1.2 - 0.5 * 0.4 - 0.5 * 9.81 * 0.16)
    assert vx == pytest.approx(0.3)
    assert vz == pytest.approx(-0.5 - 9.81 * 0.4)


def test_fall_time_roundtrip():
    t = arm.fall_time(1.0, 0.3)
    assert t == pytest.approx(math.sqrt(2 * 0.7 / 9.81))
    (_, pz), _ = arm.ball_state(t, (0.0, 1.0), (0.0, 0.0))
    assert pz == pytest.approx(0.3)
    # with downward release velocity the ball arrives sooner
    assert arm.fall_time(1.0, 0.3, v0z=-1.0) < arm.fall_time(1.0, 0.3, v0z=1.0)
    with pytest.raises(ValueError):
        arm.fall_time(0.2, 0.3)


def test_level_configuration_reaches_target_with_level_tool():
    for target in [(0.0, 0.3), (0.2, 0.4), (-0.15, 0.25)]:
        q = arm.level_configuration(target, P)
        x, z, a3 = arm.fk(q, P)
        assert float(x) == pytest.approx(target[0], abs=1e-10)
        assert float(z) == pytest.approx(target[1], abs=1e-10)
        assert float(a3) == pytest.approx(P.level_angle, abs=1e-10)


def test_level_configuration_out_of_reach():
    with pytest.raises(ValueError):
        arm.level_configuration((5.0, 5.0), P)


# -- catch transition (OCP adapter) ------------------------------------------------


def test_guard_is_ball_to_container_gap():
    ocp = ArmCatchOcp(P)
    q = arm.level_configuration((0.0, 0.3), P)
    state = list(np.concatenate([q, np.zeros(3)]))
    # at t=0 the ball is at its 1.0 m release height, container top at 0.3
    assert float(ocp.guard_expr(state + [0.0])) == pytest.approx(
        0.7 - P.r_ball)
    t_touch = arm.fall_time(P.p_ball0[1], 0.3 + P.r_ball, g=P.g)
    assert float(ocp.guard_expr(state + [t_touch])) == pytest.approx(
        0.0, abs=1e-12)


def test_reset_leaves_arm_state_unchanged():
    ocp = ArmCatchOcp(P)
    state = np.array([0.4, -0.8, 0.3, 0.5, -0.2, 0.1])
    post, extras = ocp.branch_seed(state, np.zeros(3), cfg=None)
    assert post == pytest.approx(state)
    assert extras == {}


def test_param_validation():
    with pytest.raises(ValueError):
        ArmCatchParams(lengths=(0.3, 0.3))
    with pytest.raises(ValueError):
        ArmCatchParams(masses=(1.0, -1.0, 0.3))
    with pytest.raises(ValueError):
        ArmCatchParams(eps=0.0)
