"""Tracking-controller tests.

The Riccati solve is checked against two independent oracles: a scalar
closed form and Kleinman's Newton iteration built only on Lyapunov
solves, the latter on both plants' default gain designs.  The gain
design's state order is checked against LQR on a central-difference
model of each plant's state derivative, taken in its own order.  The
tracking law is checked against its definition, a left-to-right float
sum per input, bit for bit, and against ``math.fsum`` within Higham's
bound.
The controller's branch switch is exercised on a hand-built bundle.
"""

import bisect
import functools
import itertools
import math
import operator
import pickle
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from branchopt import config, control
from branchopt.plants import cartpole
from branchopt.transcription import SolutionBundle, Trajectory


# -- Riccati oracles -----------------------------------------------------------


def test_scalar_care_closed_form():
    # A=0, b=1, Q=1, r=1: -P^2 + 1 = 0 with P > 0 gives P = 1.
    P = control.solve_care(np.zeros((1, 1)), np.ones((1, 1)), np.eye(1),
                       1.0)
    assert P == pytest.approx(np.array([[1.0]]), abs=1e-10)


def test_double_integrator_care_closed_form():
    # A=[[0,1],[0,0]], b=[0,1], Q=I, r=1 has the known solution
    # P=[[sqrt(3),1],[1,sqrt(3)]], K = b'P = [1, sqrt(3)].
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0], [1.0]])
    P = control.solve_care(A, b, np.eye(2), 1.0)
    s3 = np.sqrt(3.0)
    assert P == pytest.approx(np.array([[s3, 1.0], [1.0, s3]]), abs=1e-10)
    gains = control.lqr_gains(A, b, np.eye(2), 1.0)
    # one row for the one input, its columns in the state's order
    assert np.array(gains.rows) == pytest.approx(np.array([[1.0, s3]]),
                                                 abs=1e-10)


def _kleinman_care(A, B, Q, r, n_iter=60):
    """Newton iteration for the CARE using only Lyapunov solves."""
    # Stabilize first via pole placement; any stabilizing K works as the
    # Newton starting point.
    poles = -1.0 - np.arange(A.shape[0])
    K = scipy.signal.place_poles(A, B, poles).gain_matrix
    P = None
    for _ in range(n_iter):
        Acl = A - B @ K
        rhs = -(Q + K.T * r @ K)
        P = scipy.linalg.solve_continuous_lyapunov(Acl.T, rhs)
        K = (B.T @ P) / r
    return 0.5 * (P + P.T)


def _default_design(plant):
    """(A, B, Q, r) of the plant's default gain design: linearized about
    the state its solves end at, under the input that holds it there."""
    run = config.RunConfig(plant={"name": plant})
    adapter, _, _ = config.build_plant(run)
    A, B = control.linearize(adapter.system(), adapter.target, adapter.hold)
    return A, B, np.diag(run.controller["q_diag"]), run.controller["r"]


@pytest.mark.parametrize("plant", ["cartpole", "arm"])
def test_care_matches_kleinman_iteration(plant):
    A, B, Q, r = _default_design(plant)
    P = control.solve_care(A, B, Q, r)
    P_star = _kleinman_care(A, B, Q, r)
    assert P == pytest.approx(P_star, rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("plant", ["cartpole", "arm"])
def test_care_residual_and_hurwitz(plant):
    A, B, Q, r = _default_design(plant)
    P = control.solve_care(A, B, Q, r)
    resid = A.T @ P + P @ A - P @ B @ B.T @ P / r + Q
    assert np.max(np.abs(resid)) <= 1e-8
    K = (B.T @ P) / r
    eigs = np.linalg.eigvals(A - B @ K)
    assert np.max(np.real(eigs)) < 0.0


def test_care_rejects_an_inaccurate_solution(monkeypatch):
    # P off by a relative 1e-10 leaves a residual of about 1e-10 of the
    # equation's largest term, ten times the tolerance
    A, B, Q, r = _default_design("cartpole")
    P = control.solve_care(A, B, Q, r)
    monkeypatch.setattr(scipy.linalg, "solve_continuous_are",
                        lambda *args: P * (1.0 + 1e-10))
    with pytest.raises(RuntimeError, match="Riccati residual"):
        control.solve_care(A, B, Q, r)
    monkeypatch.setattr(scipy.linalg, "solve_continuous_are",
                        lambda *args: P)
    assert np.array_equal(control.solve_care(A, B, Q, r), P)


def _cartpole_system():
    p = cartpole.CartPoleParams()
    return cartpole.make_system(p, cartpole.CartPoleEnv())


def test_linearize_rejects_non_equilibrium():
    sys = _cartpole_system()
    x_bad = cartpole.X_EQ + np.array([0.0, 0.3, 0.0, 0.0])
    with pytest.raises(ValueError):
        control.linearize(sys, x_bad, np.zeros(1))


def _central_differences(sys, x_eq, u_eq, h=1e-6):
    """(A, B) of ``sys.derivative`` by central differences, in the
    plant's state order [q; q̇]."""
    x_eq, u_eq = np.asarray(x_eq, dtype=float), np.asarray(u_eq, dtype=float)

    def column(f, z, j):
        dz = np.zeros(len(z))
        dz[j] = h
        return (np.asarray(f(z + dz)) - np.asarray(f(z - dz))) / (2 * h)

    def of_x(x):
        return sys.derivative(x, u_eq)

    def of_u(u):
        return sys.derivative(x_eq, u)

    A = np.column_stack([column(of_x, x_eq, j) for j in range(len(x_eq))])
    B = np.column_stack([column(of_u, u_eq, j) for j in range(len(u_eq))])
    return A, B


def test_linearize_matches_finite_differences():
    sys = _cartpole_system()
    A, b = control.linearize(sys, cartpole.X_EQ, np.zeros(1))
    A_fd, b_fd = _central_differences(sys, cartpole.X_EQ, np.zeros(1))
    assert A == pytest.approx(A_fd, abs=1e-6)
    assert b == pytest.approx(b_fd, abs=1e-6)


def _weighted(n_x, j):
    """A Q that weights state j of [q; q̇] and, a thousand times less,
    the others, which keeps every mode detectable."""
    weights = np.full(n_x, 1e-2)
    weights[j] = 10.0
    return np.diag(weights)


@pytest.mark.parametrize("plant", ["cartpole", "arm"])
def test_gains_are_designed_in_the_plants_state_order(plant):
    # the oracle: LQR on a central-difference model of the plant's
    # state derivative, taken in its own order [q; q̇]
    run = config.RunConfig(plant={"name": plant})
    adapter, _, _ = config.build_plant(run)
    sys, x_eq, u_eq = adapter.system(), adapter.target, adapter.hold
    n_x, r = len(x_eq), 0.1
    A_fd, B_fd = _central_differences(sys, x_eq, u_eq)
    oracle = [np.array(control.lqr_gains(A_fd, B_fd, _weighted(n_x, j),
                                         r).rows) for j in range(n_x)]
    for j in range(n_x):
        got = np.array(control.design_gains(sys, x_eq, _weighted(n_x, j), r,
                                            u_eq).rows)
        assert got.shape == (sys.n_u, n_x)
        assert got == pytest.approx(oracle[j], rel=1e-5, abs=1e-6)
        # the weight on any other state gives other gains, so a design
        # that read Q in another order would fail the comparison above
        for k in range(n_x):
            if k != j:
                assert got != pytest.approx(oracle[k], rel=1e-2, abs=1e-2)


# -- reference sampling and the control law ------------------------------------


def _ramp_trajectory():
    # two segments of 0.5 s each; q ramps 0 -> 1 -> 3, qd constant blocks
    states = np.array([[0.0, 0.0, 1.0, 0.0],
                       [1.0, 0.0, 2.0, 0.0],
                       [3.0, 0.0, 4.0, 0.0]])
    inputs = np.array([[0.5], [1.5]])
    dts = np.array([0.5, 0.5])
    return Trajectory(states=states, inputs=inputs, dts=dts)


def test_sample_reference_interpolates_and_clamps():
    ref = _ramp_trajectory()
    x, tau = control.sample_reference(ref, 0.25)
    assert x[:2] == pytest.approx([0.5, 0.0])
    assert x[2:] == pytest.approx([1.5, 0.0])
    assert tau == pytest.approx([1.0])
    # past the horizon the terminal node is held
    x, tau = control.sample_reference(ref, 5.0)
    assert x[:2] == pytest.approx([3.0, 0.0])
    assert x[2:] == pytest.approx([4.0, 0.0])
    assert tau == pytest.approx([1.5])
    # before t=0 the initial node is held
    x, tau = control.sample_reference(ref, -1.0)
    assert x[:2] == pytest.approx([0.0, 0.0])
    assert tau == pytest.approx([0.5])


def _interp_oracle(ref, t):
    """Reference sampling as a scalar np.interp per coordinate."""
    times = np.concatenate([[0.0], np.cumsum(ref.dts)])
    t = float(np.clip(t, times[0], times[-1]))
    x = np.array([np.interp(t, times, col) for col in ref.states.T])
    n = len(ref.dts)
    if n == 0 or len(ref.inputs) == 0:
        tau = np.zeros(ref.inputs.shape[1])
    else:
        tau = np.array([np.interp(t, times[:n], col)
                        for col in ref.inputs[:n].T])
    return x, tau


def _draw_array(draw, shape, lo, hi, special):
    """Entries in [lo, hi], some of them `special`.

    Half the draws are uniforms from a drawn seed: their full mantissas
    round in nearly every operation, where the short values hypothesis
    favours are often exact and would hide a reordered expression.
    """
    if draw(st.booleans()):
        rng = np.random.default_rng(
            draw(st.integers(min_value=0, max_value=2**32 - 1)))
        a = rng.uniform(lo, hi, size=shape)
        a[rng.random(size=shape) < 0.2] = special
        return a
    return draw(hnp.arrays(float, shape, elements=st.one_of(
        st.just(special), st.floats(min_value=lo, max_value=hi))))


@st.composite
def _references(draw):
    n_x = draw(st.sampled_from([4, 6]))
    n_u = draw(st.sampled_from([1, 3]))
    n = draw(st.integers(min_value=0, max_value=12))
    # 1e-3 is the impact interval robust_nominal_branch inserts
    dts = _draw_array(draw, n, 1e-3, 0.5, 1e-3)
    n_rows = draw(st.sampled_from([0, n]))  # a reference may have no inputs
    # -0.0 tells a node's own row from slope * 0 + row
    states = _draw_array(draw, (n + 1, n_x), -20.0, 20.0, -0.0)
    inputs = _draw_array(draw, (n_rows, n_u), -20.0, 20.0, -0.0)
    return Trajectory(states=states, inputs=inputs, dts=dts)


def _sample_times(ref, data):
    """Node times, times before 0, past the horizon, past the last input
    node and anywhere between, with uniforms from a drawn seed."""
    node_times = ref.node_times.tolist()
    horizon = node_times[-1]
    drawn = data.draw(st.lists(st.one_of(
        st.sampled_from(node_times),
        st.floats(min_value=-1.0, max_value=horizon + 1.0),
        st.floats(min_value=-1.0, max_value=0.0),
        st.floats(min_value=horizon, max_value=horizon + 1.0),
        st.floats(min_value=node_times[-2] if len(node_times) > 1 else 0.0,
                  max_value=horizon),
    ), min_size=1, max_size=8))
    rng = np.random.default_rng(
        data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return drawn + rng.uniform(-0.1, horizon + 0.1, size=8).tolist()


@settings(max_examples=40, deadline=None)
@given(ref=_references(), data=st.data())
def test_sample_reference_matches_scalar_interp_bit_for_bit(ref, data):
    for t in _sample_times(ref, data):
        x, tau = control.sample_reference(ref, t)
        x_want, tau_want = _interp_oracle(ref, t)
        # the state and the input are tuples of Python floats, which
        # share no memory with the reference
        for got, want in ((x, x_want), (tau, tau_want)):
            assert type(got) is tuple and all(type(v) is float for v in got)
            got = np.array(got)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_pd_feedforward_formula():
    ref = _ramp_trajectory()
    K = np.array([[3.0, 5.0, 0.7, 0.2]])
    gains = control.Gains(K)
    state = np.array([0.4, -0.1, 1.2, 0.3])
    t = 0.25
    x_des, tau_des = control.sample_reference(ref, t)
    expect = K @ (x_des - state) + tau_des
    assert control.pd_feedforward(ref, state, gains, t) == pytest.approx(expect)


def _left_to_right(row, e, tau_i):
    """One input of the law as its definition reads: the products
    K_ij·e_j added one at a time in state order, then τ_i."""
    return functools.reduce(operator.add,
                            [k * e_j for k, e_j in zip(row, e)]) + tau_i


def _law_oracle(ref, state, gains, t):
    """The tracking law from its definition: the table lerp of the state
    row and the same lerp on input arrays, then ``_left_to_right`` over
    the error x_des − state for each input."""
    times = ref.node_times.tolist()
    slopes = list(np.diff(ref.states, axis=0) / np.diff(times)[:, None])

    def lerp(times, rows, slopes, t):
        j = bisect.bisect_right(times, t) - 1
        if times[j] == t:
            return rows[j]
        return slopes[j] * (t - times[j]) + rows[j]

    t = min(max(float(t), times[0]), times[-1])
    x = lerp(times, list(ref.states), slopes, t)
    n = len(ref.dts) if len(ref.inputs) else 0
    if n:
        u = ref.inputs[:n]
        u_slopes = list(np.diff(u, axis=0) / np.diff(times[:n])[:, None])
        tau_des = lerp(times[:n], list(u), u_slopes, min(t, times[n - 1]))
    else:
        tau_des = np.zeros(ref.inputs.shape[1])
    e = (x - state).tolist()
    return np.array([_left_to_right(row, e, tau_i) for row, tau_i
                     in zip(gains.rows, tau_des.tolist())])


def _assert_float_tuple(u, n_u):
    """The tracking law's contract: a tuple of n_u Python floats."""
    assert type(u) is tuple and len(u) == n_u
    assert all(type(v) is float for v in u)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=50, deadline=None)
@given(ref=_references(), data=st.data())
def test_pd_feedforward_is_the_previous_law_bit_for_bit(ref, data):
    n_x, n_u = ref.states.shape[1], ref.inputs.shape[1]
    # gains of order one keep the feedback near the feedforward's size,
    # so that an ulp of either shows in the sum
    gains = control.Gains(_draw_array(data.draw, (n_u, n_x), -1.0, 1.0,
                                      -0.0))
    states = _draw_array(data.draw, (8, n_x), -20.0, 20.0, -0.0)
    # the state as the simulator carries it, a tuple of Python floats,
    # and as an array row
    states = [*states, *(tuple(row) for row in states.tolist())]
    for t, state in itertools.product(_sample_times(ref, data), states):
        got = control.pd_feedforward(ref, state, gains, t)
        want = _law_oracle(ref, np.asarray(state), gains, t)
        # n_u Python floats, which share no memory with any array
        _assert_float_tuple(got, n_u)
        assert want.shape == (n_u,)
        assert _bits(got) == want.tobytes()


# -- the law as a float sum ----------------------------------------------------

_U = 2.0**-53  # the unit roundoff of a double


def _gamma(n):
    """Higham's γ_n = n·u / (1 − n·u), exactly."""
    return Fraction(n) * Fraction(_U) / (1 - Fraction(n) * Fraction(_U))


@settings(max_examples=200, deadline=None)
@given(n_q=st.integers(min_value=1, max_value=3),
       n_u=st.integers(min_value=1, max_value=3), data=st.data())
def test_law_is_the_left_to_right_float_sum(n_q, n_u, data):
    n_x = 2 * n_q
    x_des = _draw_array(data.draw, n_x, -20.0, 20.0, -0.0)
    state = _draw_array(data.draw, n_x, -20.0, 20.0, -0.0)
    tau = _draw_array(data.draw, n_u, -20.0, 20.0, -0.0)
    K = _draw_array(data.draw, (n_u, n_x), -100.0, 100.0, -0.0)
    # at t = 0 the reference gives its first node and input as they are
    ref = Trajectory(states=np.array([x_des, x_des]), inputs=tau[None],
                     dts=np.ones(1))
    gains = control.Gains(K)
    got = control.pd_feedforward(ref, state, gains, 0.0)
    _assert_float_tuple(got, n_u)
    # the same bits as the definition evaluated in the test, for either
    # form of the state
    e = [d - s for d, s in zip(x_des.tolist(), state.tolist())]
    rows = K.tolist()
    want = [_left_to_right(row, e, tau_i)
            for row, tau_i in zip(rows, tau.tolist())]
    assert _bits(got) == _bits(want)
    assert _bits(control.pd_feedforward(ref, tuple(state.tolist()), gains,
                                        0.0)) == _bits(got)
    # recursive summation of the n_x rounded products and τ_i: within
    # γ_{n_x} of their sum's absolute values (Higham, Accuracy and
    # Stability of Numerical Algorithms, §4.2) from the exact sum, and
    # so within (γ_{n_x} + u) of fsum's correct rounding of it
    for u_i, row, tau_i in zip(got, rows, tau.tolist()):
        terms = [k * e_j for k, e_j in zip(row, e)] + [tau_i]
        size = sum(abs(Fraction(v)) for v in terms)
        assert (abs(Fraction(u_i) - Fraction(math.fsum(terms)))
                <= (_gamma(n_x) + Fraction(_U)) * size)
    # one input's law is its row of K alone
    row_ref = Trajectory(states=ref.states, inputs=tau[None, :1],
                         dts=ref.dts)
    first = control.pd_feedforward(row_ref, state, control.Gains(K[:1]), 0.0)
    assert _bits(first) == _bits(got[:1])


def test_gains_with_another_row_count_are_rejected():
    ref = _ramp_trajectory()  # one input
    gains = control.Gains(np.ones((2, 4)))  # two inputs' rows
    with pytest.raises(ValueError):
        control.pd_feedforward(ref, np.zeros(4), gains, 0.25)


def test_gains_are_read_only():
    K = np.array([[1.0, 2.0, 3.0, 4.0]])
    gains = control.Gains(K)
    K[0, 0] = 5.0  # the gains hold a copy
    # one tuple of Python floats per input
    assert gains.rows == ((1.0, 2.0, 3.0, 4.0),)
    assert type(gains.rows) is tuple
    assert all(type(row) is tuple for row in gains.rows)
    assert all(type(k) is float for k in gains.rows[0])
    with pytest.raises(AttributeError):
        gains.rows = ((0.0, 0.0, 0.0, 0.0),)
    # as a process pool's workers receive them
    copy = pickle.loads(pickle.dumps(gains))
    assert copy == gains and copy.rows == ((1.0, 2.0, 3.0, 4.0),)


@pytest.mark.parametrize("shape", [(4,), (1, 1, 4), ()],
                         ids=["row", "stack", "scalar"])
def test_gains_have_one_shape(shape):
    with pytest.raises(ValueError, match="n_u, n_x"):
        control.Gains(np.ones(shape))


# -- the tracking controller's branch switch ----------------------------------


def _toy_bundle():
    """Common trajectory of 8 nodes (dt=0.1) with branches at nodes 3..5."""
    n = 8
    states = np.zeros((n + 1, 4))
    states[:, 0] = np.arange(n + 1) * 0.1  # distinguishable positions
    inputs = np.zeros((n, 1))
    dts = np.full(n, 0.1)
    common = Trajectory(states=states, inputs=inputs, dts=dts)
    branches = []
    branch_nodes = [3, 4, 5]
    for k in branch_nodes:
        bs = np.full((3, 4), float(k))
        branches.append(Trajectory(states=bs, inputs=np.full((2, 1), float(k)),
                                   dts=np.full(2, 0.05)))
    return SolutionBundle(common=common, branches=branches,
                          branch_nodes=branch_nodes, rejoin_index=6)


TOY_GAINS = control.Gains([[1.0, 1.0, 0.1, 0.1]])


def _toy_controller():
    return control.TrackingController(_toy_bundle(), TOY_GAINS)


def _reference_at(ctl, t):
    return control.sample_reference(ctl.reference, t - ctl.clock_offset)


def test_scheduler_plays_common_until_contact():
    bundle = _toy_bundle()
    ctl = control.TrackingController(bundle, TOY_GAINS)
    assert ctl.branch_node is None
    assert ctl.reference is bundle.common
    x, _ = _reference_at(ctl, 0.25)
    assert x[0] == pytest.approx(0.25)


def test_scheduler_picks_nearest_subsequent_branch():
    # branch departure times are 0.3, 0.4, 0.5
    ctl = _toy_controller()
    ctl.notify_contact(0.33)
    assert ctl.branch_node == 4
    assert ctl.clock_offset == pytest.approx(0.33)
    # branch reference realigned: its node 0 plays at t = t_c
    x, _ = _reference_at(ctl, 0.33)
    assert x[0] == pytest.approx(4.0)


def test_scheduler_contact_at_departure_time_takes_that_branch():
    ctl = _toy_controller()
    ctl.notify_contact(0.4)
    assert ctl.branch_node == 4


def test_scheduler_contact_after_last_branch_takes_last():
    ctl = _toy_controller()
    ctl.notify_contact(0.9)
    assert ctl.branch_node == 5


def test_scheduler_contact_before_window_warns_and_takes_first():
    ctl = _toy_controller()
    with pytest.warns(UserWarning):
        ctl.notify_contact(0.1)
    assert ctl.branch_node == 3


def test_scheduler_switches_exactly_once():
    ctl = _toy_controller()
    ctl.notify_contact(0.42)
    first = (ctl.reference, ctl.branch_node, ctl.clock_offset)
    ctl.notify_contact(0.9)
    assert ctl.reference is first[0]
    assert (ctl.branch_node, ctl.clock_offset) == first[1:]


def test_post_contact_reference_appends_post_rejoin_tail():
    ctl = _toy_controller()
    ctl.notify_contact(0.45)  # branch at node 5
    ref = ctl.reference
    # 3 branch states + common states after the rejoin node (7, 8)
    assert ref.states.shape[0] == 3 + 2
    assert ref.states[-1, 0] == pytest.approx(0.8)
    assert ref.dts.shape[0] == 2 + 2


_TOY_DEPARTURES = _toy_bundle().common.node_times[[3, 4, 5]]


@settings(max_examples=60, deadline=None)
@given(t_c=st.floats(min_value=float(_TOY_DEPARTURES[0]), max_value=2.0),
       x=st.floats(min_value=-1.0, max_value=1.0))
def test_switch_takes_first_branch_departing_at_or_after_contact(t_c, x):
    bundle = _toy_bundle()
    ctl = control.TrackingController(bundle, TOY_GAINS)
    ctl.notify_contact(t_c)
    later = [k for k, dep in zip(bundle.branch_nodes, _TOY_DEPARTURES)
             if dep >= t_c]
    assert ctl.branch_node == (later[0] if later else bundle.branch_nodes[-1])
    # the new reference's node 0 plays at t_c
    state = np.full(4, x)
    x_des, tau = control.sample_reference(ctl.reference, 0.0)
    e = (np.array(x_des) - state).tolist()
    (row,) = TOY_GAINS.rows
    got = ctl(t_c, state)
    _assert_float_tuple(got, 1)
    assert _bits(got) == _bits([_left_to_right(row, e, tau[0])])
    assert x_des[0] == float(ctl.branch_node)


def test_tracking_controller_switches_on_notification():
    bundle = _toy_bundle()
    gains = control.Gains([[1.0, 1.0, 0.1, 0.1]])
    ctl = control.TrackingController(bundle, gains)
    tau_before = ctl(0.45, np.zeros(4))
    ctl.notify_contact(0.45)
    tau_after = ctl(0.45, np.zeros(4))
    assert not np.allclose(tau_before, tau_after)


def test_tracking_controller_fixed_reference():
    ref = _ramp_trajectory()
    gains = control.Gains([[2.0, 2.0, 0.5, 0.5]])
    ctl = control.TrackingController(ref, gains)
    state = np.zeros(4)
    assert ctl(0.25, state) == pytest.approx(
        control.pd_feedforward(ref, state, gains, 0.25))
    ctl.notify_contact(0.1)  # a fixed reference never switches
    assert ctl.reference is ref and ctl.clock_offset == 0.0


def test_arm_law_matches_the_elementwise_pd_expression():
    # three joints, three inputs: diagonal gain matrices act joint by joint
    rng = np.random.default_rng(7)
    ref = Trajectory(states=rng.normal(size=(6, 6)),
                     inputs=rng.normal(size=(5, 3)),
                     dts=rng.uniform(0.05, 0.2, size=5))
    kp, kd = rng.uniform(1.0, 100.0, size=3), rng.uniform(0.1, 10.0, size=3)
    ctl = control.TrackingController(
        ref, control.Gains(np.hstack((np.diag(kp), np.diag(kd)))))
    rows = ctl.gains.rows
    for _ in range(200):
        t = rng.uniform(-0.1, ref.node_times[-1] + 0.1)
        state = rng.normal(size=6)
        x_des, tau_des = control.sample_reference(ref, t)
        e = (np.array(x_des) - state).tolist()
        expect = [_left_to_right(row, e, tau_i)
                  for row, tau_i in zip(rows, tau_des)]
        got = ctl(t, state)
        _assert_float_tuple(got, 3)
        assert _bits(got) == _bits(expect)
        # the zeros off the diagonals add nothing: joint by joint, this
        # is the elementwise expression
        assert _bits(got) == (kp * (x_des[:3] - state[:3])
                              + kd * (x_des[3:] - state[3:])
                              + tau_des).tobytes()
