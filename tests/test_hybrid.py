"""Hybrid-system definition: flow and guard; the cart-pole impact map."""

import math

import numpy as np
import pytest

from branchopt.plants import cartpole


P = cartpole.CartPoleParams()
ENV = cartpole.CartPoleEnv()


@pytest.fixture
def sys_def():
    return cartpole.make_system(P, ENV)


def test_state_derivative_layout(sys_def):
    state = np.array([0.1, 3.0, -0.2, 0.5])
    ds = sys_def.derivative(state, np.array([0.3]))
    assert ds.shape == (4,)
    # position derivatives are the velocities
    assert ds[:2] == pytest.approx(state[2:])


def test_guard_positive_in_free_motion(sys_def):
    # upright pole at the origin, wall at -0.5: clearly separated
    assert sys_def.guard(0.0, cartpole.X_EQ, ENV) > 0


def test_guard_zero_at_touching_configuration(sys_def):
    p, env = P, ENV
    # place the cart so the tip sits exactly on the wall: x + l sin(th) = x_wall
    theta = 3.6
    x = env.x_wall - p.l * math.sin(theta)
    state = np.array([x, theta, 0.0, 0.0])
    assert sys_def.guard(0.0, state, env) == pytest.approx(0.0, abs=1e-12)


def test_reset_freezes_positions_and_flips_normal_velocity(sys_def):
    p, env = P, ENV
    theta = 3.6
    x = env.x_wall - p.l * math.sin(theta)
    pre = np.array([x, theta, -1.0, 2.0])
    g_pre = sys_def.guard(0.0, pre, env)
    assert abs(g_pre) < 1e-9
    # the simulator's impact, impact_map at dt = 0: no drift
    post, _ = sys_def.impact(pre, env)
    # positions unchanged
    assert post[:2] == pytest.approx(pre[:2])
    # normal (guard-direction) velocity reverses with restitution e
    J = cartpole.contact_jacobian(pre[:2], p)
    vn_pre = float(J[0] @ pre[2:])
    vn_post = float(J[0] @ post[2:])
    assert vn_pre < 0  # approaching
    assert vn_post == pytest.approx(-env.e * vn_pre, rel=1e-6)


def test_mass_matrix_shape_and_symmetry(sys_def):
    mm = cartpole.mass_matrix(np.array([0.0, 3.0]),
                              cartpole.CartPoleParams())
    assert mm.shape == (2, 2)
    assert mm == pytest.approx(mm.T)
