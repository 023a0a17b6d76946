"""Every block's values and local Jacobian, and every ``ad.jacobian`` the
controllers use, fingerprinted bit for bit.

The solver does not absorb a 1-ulp change in its derivatives, so any
change to how blocks are differentiated must reproduce these bytes,
including the sign of every zero.  Each case hashes, per point, the
name, shapes, value bytes, Jacobian bytes and Jacobian sign bits of
every block in problem order; a block that raises ``ValueError`` (a
negative ``sqrt`` argument) contributes its name and the error instead.

Regenerate (only for an intended change of the numbers) with

    python tests/record.py block_fingerprints --write
"""

import hashlib

import numpy as np
import pytest

from branchopt import autodiff as ad
from branchopt import control, nlp
from branchopt import transcription as tr
from branchopt.plants import arm, cartpole
from branchopt.plants.arm_ocp import ArmCatchOcp
from branchopt.plants.cartpole_ocp import CartPoleOcp

import record
from test_transcription import ARM_END, ARM_INIT, _cfg

CASES = [f"{plant}/{variant}" for plant in ("cartpole", "arm")
         for variant in ("nominal", "sure", "tree")]


def _problem(case):
    plant, variant = case.split("/")
    if plant == "arm":
        adapter = ArmCatchOcp()
        cfg = _cfg(variant, x_init=ARM_INIT, x_end=ARM_END)
    else:
        adapter, cfg = CartPoleOcp(), _cfg(variant)
    problem, layout = tr.build(adapter, cfg)
    return problem, layout, tr.default_initial_guess(adapter, layout)


def _points(problem, layout, x0, seed):
    """The default guess, two seeded perturbations inside the bounds, one
    outside them, and one whose intervals (and the arm's speed bound) are
    negative, so that every ``sqrt`` of a variable sees a negative value."""
    rng = np.random.default_rng(seed)
    points = [x0]
    for scale in (0.05, 0.5):
        points.append(np.clip(x0 + scale * rng.standard_normal(x0.size),
                              problem.lower, problem.upper))
    points.append(x0 + 0.3 * rng.standard_normal(x0.size))
    negative = x0.copy()
    for name in ("dt", "bdt", "vlim"):
        if name in layout.arrays:
            negative[layout.arrays[name]] = -0.01
    points.append(negative)
    return points


def _block_digest(problem, x):
    h = hashlib.sha256()
    raised = []
    for b in problem.cost_blocks + problem.eq_blocks + problem.ineq_blocks:
        h.update(b.name.encode())
        try:
            vals, jac = nlp.block_outputs(b, x)
        except ValueError as exc:
            raised.append(b.name)
            h.update(f"ValueError: {exc}".encode())
            continue
        h.update(str((vals.dtype, vals.shape, jac.dtype, jac.shape)).encode())
        h.update(vals.tobytes())
        h.update(jac.tobytes())
        h.update(np.signbit(jac).tobytes())
    return [h.hexdigest(), raised]


def block_fingerprints(case):
    problem, layout, x0 = _problem(case)
    seed = CASES.index(case)
    return [_block_digest(problem, x)
            for x in _points(problem, layout, x0, seed)]


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.tobytes())
        h.update(np.signbit(a).tobytes())
    return h.hexdigest()


def jacobian_fingerprints():
    """control.linearize at both plants' equilibria, and ad.jacobian of
    the flow's accelerations at seeded states and inputs."""
    rng = np.random.default_rng(11)
    cp_p = cartpole.CartPoleParams()
    cp = cartpole.make_system(cp_p, cartpole.CartPoleEnv())
    p = arm.ArmCatchParams()
    am = arm.make_system(p)
    pose = np.concatenate([ARM_INIT[:3], np.zeros(3)])
    out = {
        "linearize/cartpole": _digest(*control.linearize(
            cp, cartpole.X_EQ, np.zeros(1))),
        "linearize/arm": _digest(*control.linearize(
            am, pose, arm.gravity_torque(pose[:3], p))),
    }
    # the q̈ rows of the flow's Jacobian in (state, input), under the
    # keys of the acceleration callbacks they were first recorded from
    for name, sys_def, n_x in (("cartpole", cp, 4), ("arm", am, 6)):
        def f(v):
            return sys_def.derivative(v[:n_x], v[n_x:])

        pts = rng.standard_normal((4, n_x + sys_def.n_u))
        out[f"free_dynamics/{name}"] = _digest(
            *[ad.jacobian(f, x)[n_x // 2:] for x in pts])
    return out


def record_block_fingerprints():
    return {"block_fingerprints.json": {
        "blocks": {case: block_fingerprints(case) for case in CASES},
        "jacobians": jacobian_fingerprints()}}


@pytest.fixture(scope="module")
def recorded():
    return record.load("block_fingerprints.json")


@pytest.mark.parametrize("case", CASES)
def test_block_values_and_jacobians_match_recorded(recorded, case):
    got = block_fingerprints(case)
    assert got == recorded["blocks"][case]
    # the negative-interval point must still raise in the sqrt(dt) costs
    assert got[-1][1]


def test_ad_jacobians_match_recorded(recorded):
    assert jacobian_fingerprints() == recorded["jacobians"]
