"""Forward-mode AD: dual arithmetic, batching, jacobians, FD checks."""

import math

import numpy as np
import pytest

from branchopt import autodiff as ad
from branchopt import nlp


def test_dual_arithmetic_scalar():
    x, y = ad.seed([2.0, 3.0])
    z = x * y + x / y - 2.0 * y + 5.0
    assert z.value == pytest.approx(2 * 3 + 2 / 3 - 6 + 5)
    # dz/dx = y + 1/y ; dz/dy = x - x/y^2 - 2
    assert z.derivs == pytest.approx([3 + 1 / 3, 2 - 2 / 9 - 2])


def test_dual_power_neg_rsub():
    (x,) = ad.seed([1.5])
    z = 4.0 - (-x) ** 3
    assert z.value == pytest.approx(4 + 1.5**3)
    assert z.derivs[0] == pytest.approx(3 * 1.5**2)


def test_elementary_functions_match_derivatives():
    for v in (0.3, 1.2, 2.5):
        (x,) = ad.seed([v])
        assert ad.sin(x).derivs[0] == pytest.approx(math.cos(v))
        assert ad.cos(x).derivs[0] == pytest.approx(-math.sin(v))
        assert ad.sqrt(x).derivs[0] == pytest.approx(0.5 / math.sqrt(v))
        assert ad.exp(x).derivs[0] == pytest.approx(math.exp(v))


def test_elementary_functions_pass_through_floats():
    assert ad.sin(0.5) == pytest.approx(math.sin(0.5))
    assert ad.sqrt(4.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        ad.sqrt(-1.0)


def test_jacobian_against_closed_form():
    def f(v):
        x, y = v
        return [x * y, ad.sin(x) + y**2]

    J = ad.jacobian(f, [0.7, -1.1])
    expected = np.array([[-1.1, 0.7], [math.cos(0.7), -2.2]])
    assert J == pytest.approx(expected)


def test_gradient_scalar():
    g = ad.gradient(lambda v: v[0] ** 2 + 3.0 * v[1], [2.0, 5.0])
    assert g == pytest.approx([4.0, 3.0])


def test_seed_batch_block_jacobian():
    pts = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    a, b = ad.seed_batch(pts)
    y = a * b  # d/da = b, d/db = a
    assert y.value == pytest.approx(pts[:, 0] * pts[:, 1])
    assert y.derivs == pytest.approx(np.column_stack([pts[:, 1], pts[:, 0]]))


def test_seed_batch_seeds_are_shared_and_read_only():
    pts = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    a, b = ad.seed_batch(pts)
    a2, b2 = ad.seed_batch(pts + 1.0)
    assert a2.derivs is a.derivs and b2.derivs is b.derivs
    assert np.array_equal(a.derivs, [[1.0, 0.0]] * 3)
    assert np.array_equal(b.derivs, [[0.0, 1.0]] * 3)
    with pytest.raises(ValueError):
        a.derivs[0, 0] = 2.0
    with pytest.raises(ValueError):
        b.derivs += 1.0


def test_repeated_block_evaluation_is_identical():
    block = nlp.Block(
        "f", lambda v: [v[0] * v[1], ad.sin(v[0]) / v[1], v[1], 2.0],
        np.array([[0, 1], [2, 1], [1, 0]]), 4)
    x = np.array([0.3, -1.7, 2.5])
    vals, jac = nlp.block_values_and_jac(block, x)
    vals2, jac2 = nlp.block_values_and_jac(block, x)
    assert vals.tobytes() == vals2.tobytes()
    assert jac.tobytes() == jac2.tobytes()
    # the output that is a seeded input is copied out, not aliased
    assert jac[:, 2, :].tolist() == [[0.0, 1.0]] * 3
    jac[:, 2, :] = 5.0
    assert nlp.block_values_and_jac(block, x)[1].tobytes() == jac2.tobytes()


def test_check_gradient_random_functions():
    rng = np.random.default_rng(0)

    def f(v):
        x, y, z = v
        return [ad.sin(x) * y + ad.exp(z * 0.1), x * x * z, ad.sqrt(y * y + 1e-8)]

    for _ in range(20):
        pt = rng.normal(size=3)
        rep = ad.check_gradient(f, pt)
        assert rep.passed, rep.max_rel_err


def test_check_gradient_catches_wrong_jacobian():
    class Lying:
        def __call__(self, v):
            x = v[0]
            if isinstance(x, ad.Dual):
                return [ad.Dual(x.value**2, 3.0 * x.derivs)]  # wrong slope
            return [x**2]

    rep = ad.check_gradient(Lying(), np.array([1.0]))
    assert not rep.passed


def test_check_gradient_rejects_bad_args():
    with pytest.raises(ValueError):
        ad.check_gradient(lambda v: [v[0]], np.array([1.0]), h=0.0)
