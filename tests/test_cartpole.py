"""Cart-pole-with-wall plant: dynamics oracle, energy, impacts, symmetry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchopt import simulation
from branchopt.plants import cartpole
from branchopt.plants.cartpole_ocp import CONE_SMOOTHING, CartPoleOcp

from gradient_check import check_gradient


P = cartpole.CartPoleParams()
ENV = cartpole.CartPoleEnv()


def _oracle_accel(state, tau, fx, fy, p):
    """Independent derivation: assemble M, H, B, Jc explicitly and solve.

    Lagrangian mechanics of a cart (mass m_c) with a point mass m_p at
    the tip of a massless pole of length l:
        M = [[m_c+m_p,      m_p l cos th],
             [m_p l cos th, m_p l^2     ]]
        H = [-m_p l sin th * thdot^2,  m_p g l sin th]
        generalized force = [tau + fx, l cos th fx + l sin th fy]
    """
    _, th, _, thd = state
    s, c = math.sin(th), math.cos(th)
    M = np.array([
        [p.m_c + p.m_p, p.m_p * p.l * c],
        [p.m_p * p.l * c, p.m_p * p.l**2],
    ])
    H = np.array([-p.m_p * p.l * s * thd * thd, p.m_p * p.gravity * p.l * s])
    F = np.array([tau + fx, p.l * c * fx + p.l * s * fy])
    return np.linalg.solve(M, F - H)


def test_forward_dynamics_matches_independent_derivation():
    rng = np.random.default_rng(12345)
    for _ in range(1000):
        state = rng.uniform([-2, 0, -5, -10], [2, 2 * math.pi, 5, 10])
        tau, fx, fy = rng.uniform(-20, 20, size=3)
        got = np.array(cartpole.accel(state[1], state[3], tau, fx, fy, P))
        want = _oracle_accel(state, tau, fx, fy, P)
        assert got == pytest.approx(want, abs=1e-12)


def test_upright_equilibrium():
    sys_def = cartpole.make_system(P, ENV)
    qdd = sys_def.derivative(cartpole.X_EQ, np.zeros(1))[2:]
    assert qdd == pytest.approx([0.0, 0.0], abs=1e-12)


def _total_energy(state, p):
    """Kinetic + potential energy (drift oracle for integrator tests)."""
    x, th, xd, thd = state
    vtipx = xd + p.l * math.cos(th) * thd
    vtipy = p.l * math.sin(th) * thd
    ke = 0.5 * p.m_c * xd**2 + 0.5 * p.m_p * (vtipx**2 + vtipy**2)
    pe = -p.m_p * p.gravity * p.l * math.cos(th)
    return ke + pe


def test_energy_drift_unforced_rk4():
    sys_def = cartpole.make_system(P, cartpole.CartPoleEnv())
    state = np.array([0.0, 2.5, 0.3, 1.0])
    e0 = _total_energy(state, P)
    dt = 1e-4
    for _ in range(10000):  # 1 second
        state = simulation.rk4_step(sys_def.derivative, state,
                                    np.zeros(1), dt)
    assert abs(_total_energy(state, P) - e0) <= 1e-5


def test_mass_matrix_spd_at_random_configurations():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        q = rng.uniform([-2, 0], [2, 2 * math.pi])
        M = cartpole.mass_matrix(q, P)
        assert M == pytest.approx(M.T)
        assert np.all(np.linalg.eigvalsh(M) > 0)


def test_guard_formula_and_tip_kinematics():
    def tip(s):
        return np.array([s[0] + P.l * math.sin(s[1]), -P.l * math.cos(s[1])])

    sys_def = cartpole.make_system(P, ENV)
    rng = np.random.default_rng(3)
    for _ in range(100):
        state = rng.uniform([-2, 0, -5, -10], [2, 2 * math.pi, 5, 10])
        g = cartpole.guard(state, ENV, P)
        assert g == pytest.approx(
            state[0] + P.l * math.sin(state[1]) - ENV.x_wall)
        # tip velocity consistent with FD of tip position
        h = 1e-7
        s2 = state + h * sys_def.derivative(state, np.zeros(1))
        fd = (tip(s2) - tip(state)) / h
        assert cartpole.contact_jacobian(state[:2], P) @ state[2:] == (
            pytest.approx(fd, abs=1e-5))


def test_impact_map_freezes_positions_and_restitutes():
    theta = 3.6
    x = ENV.x_wall - P.l * math.sin(theta)
    pre = np.array([x, theta, -1.5, 3.0])
    post, impulse = cartpole.impact_map(pre, 0.0, P.dt_impact, ENV, P)
    assert post[:2] == pytest.approx(pre[:2])
    J = cartpole.contact_jacobian(pre[:2], P)
    vn_pre = float(J[0] @ pre[2:])
    vn_post = float(J[0] @ post[2:])
    assert vn_post == pytest.approx(-ENV.e * vn_pre, rel=1e-9)
    # impulse inside the friction cone
    fn, ft = impulse
    assert fn >= 0
    assert abs(ft) <= ENV.mu * fn + 1e-12


def test_impact_dissipates_energy():
    theta = 3.6
    x = ENV.x_wall - P.l * math.sin(theta)
    pre = np.array([x, theta, -2.0, 4.0])
    post, _ = cartpole.impact_map(pre, 0.0, P.dt_impact, ENV, P)
    assert (_total_energy(post, P)
            <= _total_energy(pre, P) + 1e-12)


def test_warm_start_impact_solves_the_transcriptions_impact_block():
    # the branch seed's post-state and force F, from the impact law at
    # dt_impact, meet the OCP's restitution map and friction cone
    rng = np.random.default_rng(37)
    n = 0
    for _ in range(1000):
        env = cartpole.CartPoleEnv(x_wall=rng.uniform(-0.8, -0.3),
                                   e=rng.uniform(0.0, 1.0),
                                   mu=rng.uniform(0.0, 1.5))
        ocp = CartPoleOcp(P, env)
        theta = rng.uniform(math.pi, 2 * math.pi)  # tip left of the cart
        qd = rng.uniform(-5.0, 5.0, size=2)
        vn = cartpole.contact_jacobian([0.0, theta], P)[0] @ qd
        # approaching by enough that the interval's drift cannot part it
        if abs(vn) < 0.2:
            continue
        pre = np.array([env.x_wall - P.l * math.sin(theta), theta,
                        *np.copysign(1.0, -vn) * qd])
        tau = rng.uniform(-20.0, 20.0)
        post, extra = ocp.branch_seed(pre, np.array([tau]))
        F = extra["F"]
        assert F[0] > 0.0
        residual = ocp._impact_residual([*pre, tau, *post, *F])
        speed = np.max(np.abs(np.concatenate([pre[2:], post[2:]])))
        assert np.max(np.abs(residual)) <= 1e-12 * speed
        assert ocp._cone_residual(F)[0] <= math.sqrt(CONE_SMOOTHING)
        n += 1
    assert n > 900


def test_mirror_symmetry_of_free_dynamics():
    # (x, th, xd, thd; tau) -> (-x, 2 pi - th, -xd, -thd; -tau) is a
    # solution-to-solution map of the wall-free flow
    sys_def = cartpole.make_system(P, cartpole.CartPoleEnv())
    rng = np.random.default_rng(11)
    for _ in range(50):
        state = rng.uniform([-1, 1, -3, -5], [1, 5, 3, 5])
        tau = rng.uniform(-10, 10)
        mirrored = np.array([-state[0], 2 * math.pi - state[1],
                             -state[2], -state[3]])
        a = simulation.rk4_step(sys_def.derivative, state,
                                np.array([tau]), 1e-3)
        b = simulation.rk4_step(sys_def.derivative, mirrored,
                                np.array([-tau]), 1e-3)
        back = np.array([-b[0], 2 * math.pi - b[1], -b[2], -b[3]])
        assert a == pytest.approx(back, abs=1e-10)


def test_accel_is_dual_evaluable():
    def f(v):
        xdd, thdd = cartpole.accel(v[0], v[1], v[2], v[3], v[4], P)
        return [xdd, thdd]

    rep = check_gradient(f, np.array([3.0, 1.0, 2.0, 0.5, -0.3]))
    assert rep.passed, rep.max_rel_err


def test_param_validation():
    with pytest.raises(ValueError):
        cartpole.CartPoleParams(m_c=-1.0)
    with pytest.raises(ValueError):
        cartpole.CartPoleEnv(e=-0.1)
    with pytest.raises(ValueError, match="dt_impact"):
        cartpole.CartPoleParams(dt_impact=0.0)


# -- the simulator's float callbacks -------------------------------------------


def _accel_float(theta, thetadot, tau, p):
    """The simulator's free-motion accelerations as first written, with
    every parameter product evaluated in each call: the bit-for-bit oracle
    of the closure that evaluates those products once."""
    s = math.sin(theta)
    c = math.cos(theta)
    a = p.m_c + p.m_p
    bm = p.m_p * p.l * c
    cm = p.m_p * p.l * p.l
    r0 = tau + p.m_p * p.l * s * thetadot * thetadot
    r1 = -p.m_p * p.l * s * p.gravity
    det = a * cm - bm * bm
    return (cm * r0 - bm * r1) / det, (a * r1 - bm * r0) / det


def _floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi)


_params = st.builds(
    cartpole.CartPoleParams, m_c=_floats(0.01, 10.0), m_p=_floats(0.01, 10.0),
    l=_floats(0.05, 3.0), gravity=_floats(0.0, 20.0))
_states = st.tuples(_floats(-3.0, 3.0), _floats(-7.0, 7.0),
                    _floats(-50.0, 50.0), _floats(-50.0, 50.0)).map(np.array)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=300, deadline=None)
@given(p=st.one_of(st.just(P), _params), state=_states,
       tau=_floats(-2000.0, 2000.0))
def test_fast_derivative_matches_the_per_call_expression_bit_for_bit(
        p, state, tau):
    sys_def = cartpole.make_system(p, cartpole.CartPoleEnv())
    deriv = sys_def.extras["fast_derivative"]
    got = deriv(tuple(state.tolist()), tau)
    xdd, thdd = _accel_float(state[1].item(), state[3].item(), tau, p)
    assert _bits(got) == _bits([state[2], state[3], xdd, thdd])


@settings(max_examples=200, deadline=None)
@given(p=st.one_of(st.just(P), _params), a=_states, b=_states,
       mid=st.one_of(st.just(0.5), _floats(0.0, 1.0)),
       x_wall=_floats(-2.0, 2.0))
def test_simulator_guard_equals_the_symbolic_guard_bit_for_bit(
        p, a, b, mid, x_wall):
    env = cartpole.CartPoleEnv(x_wall=x_wall)
    sys_def = cartpole.make_system(p, env)
    # the endpoints of a step and a state between them, interpolated as
    # detect_crossing bisects
    for state in (a, b, a + mid * (b - a)):
        assert _bits(sys_def.guard(0.0, state, env)) == _bits(
            cartpole.guard(state, env, p))
