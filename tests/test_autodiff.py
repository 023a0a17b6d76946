"""Forward-mode AD: recorded arithmetic, batching, jacobians, FD checks."""

import math

import numpy as np
import pytest

from branchopt import autodiff as ad
from branchopt import nlp

from gradient_check import check_gradient


def _value_and_derivs(f, x):
    """Value and gradient of a scalar callback at one point, by replay."""
    tape = ad.Tape(lambda v: [f(v)], len(x), 1, "f")
    vals, jac = tape.outputs(tape.evaluate(np.array([x], dtype=float)))
    return vals[0, 0], jac[0, 0]


def test_dual_arithmetic_scalar():
    value, derivs = _value_and_derivs(
        lambda v: v[0] * v[1] + v[0] / v[1] - 2.0 * v[1] + 5.0, [2.0, 3.0])
    assert value == pytest.approx(2 * 3 + 2 / 3 - 6 + 5)
    # dz/dx = y + 1/y ; dz/dy = x - x/y^2 - 2
    assert derivs == pytest.approx([3 + 1 / 3, 2 - 2 / 9 - 2])


def test_dual_neg_rsub():
    value, derivs = _value_and_derivs(lambda v: 4.0 - (-v[0]) * v[0], [1.5])
    assert value == pytest.approx(4 + 1.5**2)
    assert derivs[0] == pytest.approx(2 * 1.5)


def test_elementary_functions_match_derivatives():
    for v in (0.3, 1.2, 2.5):
        jac = ad.jacobian(lambda x: [ad.sin(x[0]), ad.cos(x[0]),
                                     ad.sqrt(x[0])], [v])[:, 0]
        assert jac[0] == pytest.approx(math.cos(v))
        assert jac[1] == pytest.approx(-math.sin(v))
        assert jac[2] == pytest.approx(0.5 / math.sqrt(v))


def test_elementary_functions_pass_through_floats():
    assert ad.sin(0.5) == pytest.approx(math.sin(0.5))
    assert ad.sqrt(4.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        ad.sqrt(-1.0)


def test_jacobian_against_closed_form():
    def f(v):
        x, y = v
        return [x * y, ad.sin(x) + y * y]

    J = ad.jacobian(f, [0.7, -1.1])
    expected = np.array([[-1.1, 0.7], [math.cos(0.7), -2.2]])
    assert J == pytest.approx(expected)


def test_gradient_scalar():
    g = ad.jacobian(lambda v: [v[0] * v[0] + 3.0 * v[1]], [2.0, 5.0])[0]
    assert g == pytest.approx([4.0, 3.0])


def test_tape_block_jacobian():
    pts = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    tape = ad.Tape(lambda v: [v[0] * v[1]], 2, 3, "f")
    vals, jac = tape.outputs(tape.evaluate(pts))  # d/da = b, d/db = a
    assert vals[:, 0] == pytest.approx(pts[:, 0] * pts[:, 1])
    assert jac[:, 0] == pytest.approx(np.column_stack([pts[:, 1],
                                                       pts[:, 0]]))


def test_block_callback_is_recorded_once():
    calls = []

    def f(v):
        calls.append("f")
        return [v[0] * ad.sin(v[1])]

    def g(v):
        calls.append("g")
        return [v[0] / v[1], 2.0]

    f_block = nlp.Block("f", f, np.array([[0, 1], [2, 1]]))
    g_block = nlp.Block("g", g, np.array([[1, 2]]))
    # the callbacks ran once, when the blocks were made, and fixed their
    # output counts
    assert calls == ["f", "g"]
    assert (g_block.n_out, g_block.size) == (2, 2)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.uniform(0.5, 2.0, size=3)
        f_vals, _ = nlp.block_outputs(f_block, x)
        g_vals, _ = nlp.block_outputs(g_block, x)
        # every replay is at the new point
        assert f_vals[:, 0] == pytest.approx(x[[0, 2]] * np.sin(x[1]))
        assert g_vals.tolist() == [[x[1] * (1.0 / x[2]), 2.0]]
    assert calls == ["f", "g"]


@pytest.mark.parametrize(
    "fun", [lambda a: [abs(a)], lambda a: [a < 0.5], lambda a: [np.exp(a)],
            lambda a: [a ** np.array([2.0])], lambda a: [a ** 2],
            lambda a: [1.0 / a], lambda a: [a - np.array([1.0, 2.0])],
            lambda a: [np.array([1.0, 2.0]) * a], lambda a: [a, np.ones(2)],
            lambda a: a],
    ids=["abs", "comparison", "np.exp", "array_exponent", "power",
         "constant_over_input", "array_constant", "array_constant_left",
         "array_output", "bare_output"])
def test_unsupported_operation_names_the_block(fun):
    # the tape is recorded when the block is made, so making it fails
    with pytest.raises(TypeError, match="block bad_block"):
        nlp.Block("bad_block", lambda v: fun(v[0]), np.array([[0]]))


def test_replayed_sqrt_rejects_a_negative_argument():
    block = nlp.Block("root", lambda v: [ad.sqrt(v[0])], np.array([[0]]))
    assert nlp.block_outputs(block, np.array([4.0]))[1][0, 0, 0] == 0.25
    with pytest.raises(ValueError, match="sqrt of negative value"):
        nlp.block_outputs(block, np.array([-1.0]))


def test_repeated_block_evaluation_is_identical():
    block = nlp.Block(
        "f", lambda v: [v[0] * v[1], ad.sin(v[0]) / v[1], v[1], 2.0],
        np.array([[0, 1], [2, 1], [1, 0]]))
    x = np.array([0.3, -1.7, 2.5])
    vals, jac = nlp.block_outputs(block, x)
    vals2, jac2 = nlp.block_outputs(block, x)
    assert vals.tobytes() == vals2.tobytes()
    assert jac.tobytes() == jac2.tobytes()
    # the output that is a seeded input is copied out, not aliased
    assert jac[:, 2, :].tolist() == [[0.0, 1.0]] * 3
    jac[:, 2, :] = 5.0
    assert nlp.block_outputs(block, x)[1].tobytes() == jac2.tobytes()


def test_check_gradient_random_functions():
    rng = np.random.default_rng(0)

    def f(v):
        x, y, z = v
        return [ad.sin(x) * y, x * x * z, ad.sqrt(y * y + 1e-8)]

    for _ in range(20):
        pt = rng.normal(size=3)
        rep = check_gradient(f, pt)
        assert rep.passed, rep.max_rel_err


def test_check_gradient_catches_wrong_jacobian():
    class Lying:
        def __call__(self, v):
            x = v[0]
            if isinstance(x, ad.Node):
                return [1.5 * (x * x)]  # wrong slope
            return [x**2]

    rep = check_gradient(Lying(), np.array([1.0]))
    assert not rep.passed


def test_check_gradient_rejects_bad_args():
    with pytest.raises(ValueError):
        check_gradient(lambda v: [v[0]], np.array([1.0]), h=0.0)
