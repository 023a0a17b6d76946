"""Structural tests for the three transcription variants.

These check layout bookkeeping (variable counts, index coverage),
solution extraction, guard pinning constraint wiring, and
serialization — everything short of actually solving, which the solver
and acceptance tests cover.
"""

import hashlib
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchopt import nlp, pipeline
from branchopt import transcription as tr
from branchopt.plants import arm
from branchopt.plants.arm_ocp import ArmCatchOcp
from branchopt.plants.cartpole_ocp import CartPoleOcp
from branchopt.transcription import SolutionBundle, Trajectory

import record
from test_convex_oracle import X_END as PM_END
from test_convex_oracle import X_INIT as PM_INIT
from test_convex_oracle import PointMassOcp

X_INIT = np.array([0.0, np.pi, 0.0, 5.5])
X_END = np.array([0.0, np.pi, 0.0, 0.0])
# arm: level container moved from (0, 0.3) to (0.05, 0.35), at rest
_ARM_P = arm.ArmCatchParams()
ARM_INIT = np.concatenate([arm.level_configuration((0.0, 0.3), _ARM_P),
                           np.zeros(3)])
ARM_END = np.concatenate([arm.level_configuration((0.05, 0.35), _ARM_P),
                          np.zeros(3)])


def _cfg(variant, **kw):
    # the nominal contact is the window's middle node, 5
    base = dict(N=12, x_init=X_INIT, x_end=X_END, k_first=4, k_last=6,
                n_rejoin=3, n_branch_full=8)
    base.update(kw)
    return tr.TranscriptionConfig(variant=variant, **base)


# -- layout bookkeeping ---------------------------------------------------------


def test_nominal_variable_count():
    cfg = _cfg("nominal")
    problem, layout = tr.build_nominal(CartPoleOcp(), cfg)
    # 13 states, 12 inputs, 12 dts; the plant adds one 2-component
    # impact force
    assert layout.n_vars == 13 * 4 + 12 * 1 + 12 + 2
    assert problem.n_vars == layout.n_vars


def test_sure_variable_count():
    cfg = _cfg("sure")
    problem, layout = tr.build_sure(CartPoleOcp(), cfg)
    # common: 13 states, 12 inputs, 12 dts; 3 branches of 3 intervals:
    # 4 states, 3 inputs, 3 dts each; plant adds one 2-component force
    # per branch
    assert layout.n_vars == (13 * 4 + 12 + 12) + 3 * (4 * 4 + 3 + 3) + 3 * 2


def test_tree_variable_count():
    cfg = _cfg("tree")
    problem, layout = tr.build_tree(CartPoleOcp(), cfg)
    # common runs to k_last=6 (7 states) and keeps the input at the last
    # branching node, hence 7 inputs for 6 intervals
    assert layout.n_vars == (7 * 4 + 7 + 6) + 3 * (9 * 4 + 8 + 8) + 3 * 2


def test_layout_covers_all_variables():
    for variant in ("nominal", "sure", "tree"):
        build = getattr(tr, f"build_{variant}")
        _, layout = build(CartPoleOcp(), _cfg(variant))
        seen = np.concatenate([a.ravel() for a in layout.arrays.values()])
        assert len(seen) == layout.n_vars
        assert len(np.unique(seen)) == layout.n_vars


def test_config_validation():
    with pytest.raises(ValueError):
        tr.TranscriptionConfig(N=10, variant="nominal", k_first=10, k_last=10,
                               x_init=X_INIT, x_end=X_END)
    with pytest.raises(ValueError):
        tr.TranscriptionConfig(N=10, variant="nominal", x_init=X_INIT,
                               x_end=X_END)
    with pytest.raises(ValueError):
        tr.TranscriptionConfig(N=10, variant="sure", x_init=X_INIT, x_end=X_END)
    with pytest.raises(ValueError):
        tr.TranscriptionConfig(N=10, variant="sure", k_first=7, k_last=5,
                               x_init=X_INIT, x_end=X_END)
    with pytest.raises(ValueError):
        tr.TranscriptionConfig(N=10, variant="mystery", k_first=5, k_last=5,
                               x_init=X_INIT, x_end=X_END)


@pytest.mark.parametrize("variant, key, value", [
    ("sure", "n_rejoin", 0), ("tree", "n_branch_full", 0),
    ("nominal", "dt_min", 0.2), ("nominal", "dt_min", 0.0),
    ("sure", "dt_min", -1e-3), ("nominal", "dt_max", math.inf),
    ("sure", "d_fixed", math.nan), ("sure", "d_fixed", -0.05),
    ("nominal", "dt_max", True), ("sure", "d_fixed", True),
    ("nominal", "dt_max", "5e-2"), ("sure", "d_fixed", "0.05")])
def test_config_rejects_empty_branches_and_reversed_dt_bounds(variant, key,
                                                              value):
    # an empty branch used to build a problem that crashed on its first
    # evaluation; reversed dt bounds failed only inside NlpProblem; at a
    # dt of 0 the running cost's sqrt(dt) has an infinite derivative; an
    # infinite dt_max made the default guess's steps infinite; a NaN or
    # negative d_fixed went into every branched build's guard pins; a
    # bool (YAML's on, yes, true) is not a number, and a string (YAML's
    # 5e-2, with no dot) raised TypeError from a comparison
    with pytest.raises(ValueError, match=key):
        _cfg(variant, **{key: value})


# each formulation's shape, as the config derives it: N=12, window 4-6,
# n_rejoin 3, n_branch_full 8
SHAPES = {
    # branched, n_common, branch_len, skip_node, rejoin_node, contact_nodes
    "nominal": (False, 12, 0, 5, None, [5]),
    "sure": (True, 12, 3, 6, 7, [4, 5, 6]),
    "tree": (True, 6, 8, None, None, [4, 5, 6]),
}


def test_contact_nodes():
    for variant, shape in SHAPES.items():
        cfg = _cfg(variant)
        assert (cfg.branched, cfg.n_common, cfg.branch_len, cfg.skip_node,
                cfg.rejoin_node, cfg.contact_nodes) == shape, variant


def test_branch_properties():
    for variant in SHAPES:
        # the window's size, whether or not branches leave from it
        cfg = _cfg(variant)
        assert cfg.branch_nodes == [4, 5, 6]
        assert cfg.n_branches == 3
        assert cfg.branch_weight == pytest.approx(1.0 / 3.0)


# -- boundary conditions and bounds ----------------------------------------------


def test_boundary_conditions_fixed_in_problem():
    problem, layout = tr.build_nominal(CartPoleOcp(), _cfg("nominal"))
    i0 = layout.arrays["x"][0]
    iN = layout.arrays["x"][12]
    assert problem.lower[i0] == pytest.approx(X_INIT)
    assert problem.upper[i0] == pytest.approx(X_INIT)
    assert problem.lower[iN] == pytest.approx(X_END)
    assert problem.upper[iN] == pytest.approx(X_END)


def test_tree_fixes_branch_endpoints_not_common():
    cfg = _cfg("tree")
    problem, layout = tr.build_tree(CartPoleOcp(), cfg)
    for k in range(3):
        idx = layout.arrays["bx"][k, cfg.branch_len]
        assert problem.lower[idx] == pytest.approx(X_END)
        assert problem.upper[idx] == pytest.approx(X_END)


def test_dt_bounds_applied():
    cfg = _cfg("nominal", dt_min=2e-3, dt_max=4e-2)
    problem, layout = tr.build_nominal(CartPoleOcp(), cfg)
    free = [i for i in range(12) if i != 5]
    for i in free:
        assert problem.lower[layout.arrays["dt"][i]] == pytest.approx(2e-3)
        assert problem.upper[layout.arrays["dt"][i]] == pytest.approx(4e-2)
    # the interval replaced by the impact is pinned to the plant's impact
    # interval, whatever dt_min is
    pinned = layout.arrays["dt"][5]
    assert problem.lower[pinned] == problem.upper[pinned]
    assert problem.lower[pinned] == CartPoleOcp().dt_impact


def test_normal_force_bounded_positive():
    problem, layout = tr.build_sure(CartPoleOcp(), _cfg("sure"))
    F = layout.arrays["F"]
    assert np.all(problem.lower[F[:, 0]] > 0.0)
    assert np.all(np.isinf(problem.upper[F[:, 0]]))


# -- constraint wiring -----------------------------------------------------------


def _block_names(problem):
    return ({b.name for b in problem.eq_blocks},
            {b.name for b in problem.ineq_blocks})


def test_sure_has_guard_pinning_and_rejoin_blocks():
    problem, _ = tr.build_sure(CartPoleOcp(), _cfg("sure"))
    eq, ineq = _block_names(problem)
    assert "branch_rejoin_pinning" in eq
    assert "dynamics" in eq
    pin_blocks = {n for n in eq if "guard" in n}
    assert pin_blocks, f"no guard pinning equalities among {sorted(eq)}"


_PLANTS = {"cartpole": (CartPoleOcp, {}),
           "arm": (ArmCatchOcp, dict(x_init=ARM_INIT, x_end=ARM_END)),
           "point_mass": (PointMassOcp, dict(x_init=PM_INIT, x_end=PM_END))}


@st.composite
def _small_configs(draw):
    """A plant and a small config of any variant."""
    plant = draw(st.sampled_from(sorted(_PLANTS)))
    n = draw(st.integers(2, 9))
    k_last = draw(st.integers(1, n - 1))
    adapter, kw = _PLANTS[plant]
    cfg = _cfg(draw(st.sampled_from(["nominal", "sure", "tree"])), N=n,
               k_first=draw(st.integers(1, k_last)), k_last=k_last,
               n_rejoin=draw(st.integers(1, 3)),
               n_branch_full=draw(st.integers(1, 4)), **kw)
    return adapter(), cfg


@settings(max_examples=60, deadline=None)
@given(case=_small_configs())
def test_dynamics_block_has_one_row_per_interval_that_drives_dynamics(case):
    adapter, cfg = case
    problem, layout = tr.build(adapter, cfg)
    (block,) = [b for b in problem.eq_blocks if b.name == "dynamics"]
    # each common interval but skip_node, then each branch's intervals in
    # branch order, each exactly once: [x_i, u_i, dt_i, x_{i+1}]
    x, u, dt = (layout.arrays[name] for name in ("x", "u", "dt"))
    common = [[*x[i], *u[i], dt[i], *x[i + 1]]
              for i in range(cfg.n_common) if i != cfg.skip_node]
    branch = []
    if cfg.branched:
        bx, bu, bdt = (layout.arrays[name] for name in ("bx", "bu", "bdt"))
        branch = [[*bx[k, j], *bu[k, j], bdt[k, j], *bx[k, j + 1]]
                  for k in range(cfg.n_branches)
                  for j in range(cfg.branch_len)]
    assert block.indices.tolist() == common + branch
    # the common and the branch rows read disjoint variables
    assert not ({int(i) for r in common for i in r}
                & {int(i) for r in branch for i in r})


def test_tree_has_no_rejoin_block():
    problem, _ = tr.build_tree(CartPoleOcp(), _cfg("tree"))
    eq, _ = _block_names(problem)
    assert "branch_rejoin_pinning" not in eq


def test_nominal_guard_pinned_at_contact_node():
    problem, layout = tr.build_nominal(CartPoleOcp(), _cfg("nominal"))
    eq, _ = _block_names(problem)
    assert any("guard" in n for n in eq)


class _AbsCostCartPole(CartPoleOcp):
    def node_cost(self, x, u, scale):
        return [scale * abs(x[0])]


def test_build_rejects_a_callback_a_tape_cannot_record():
    # each block records its tape when it is made, so the build fails,
    # naming the block, before any solve evaluates it
    with pytest.raises(TypeError, match="block common_running_cost"):
        tr.build(_AbsCostCartPole(), _cfg("nominal"))


def test_plant_ocp_docstring_names_every_hook():
    doc = tr.PlantOcp.__doc__
    named = [name for line in doc.splitlines()
             if line.strip().startswith("* ")
             for name in re.findall(r"``(\w+)(?:\(\))?``",
                                    line.split(" -- ")[0])]
    members = ({n for n in vars(tr.PlantOcp) if not n.startswith("_")}
               | set(tr.PlantOcp.__annotations__)) - {"n_x", "n_u"}
    assert sorted(named) == sorted(members)
    stated = re.search(r"The (\d+)\s+hooks", doc)
    assert int(stated[1]) == len(members)


def test_rejoin_constraint_evaluates_to_state_difference():
    problem, layout = tr.build_sure(CartPoleOcp(), _cfg("sure"))
    block = next(b for b in problem.eq_blocks
                 if b.name == "branch_rejoin_pinning")
    x = np.zeros(layout.n_vars)
    rejoin = layout.arrays["x"][7]  # k_last + 1
    x[rejoin] = [1.0, 2.0, 3.0, 4.0]
    x[layout.arrays["bx"][0, layout.cfg.branch_len]] = [1.0, 2.0, 3.0, 4.0]
    row0 = np.array([float(v) for v in block.fun(x[block.indices[0]])])
    assert row0 == pytest.approx(np.zeros(4))
    row1 = np.array([float(v) for v in block.fun(x[block.indices[1]])])
    assert row1 == pytest.approx(-np.array([1.0, 2.0, 3.0, 4.0]))


# -- extraction -------------------------------------------------------------------


def test_extract_pack_round_trip_sure():
    # the bundle holds the slices of the packed decision vector
    cfg = _cfg("sure")
    _, layout = tr.build_sure(CartPoleOcp(), cfg)
    rng = np.random.default_rng(7)
    x = rng.normal(size=layout.n_vars)
    bundle = tr.extract_solution(layout, x)
    assert len(bundle.branches) == 3
    assert bundle.branch_nodes == [4, 5, 6]
    assert bundle.rejoin_index == 7
    assert bundle.common.states == pytest.approx(x[layout.arrays["x"]])
    assert np.array([b.states for b in bundle.branches]) == pytest.approx(
        x[layout.arrays["bx"]])
    assert bundle.common.dts == pytest.approx(x[layout.arrays["dt"]])


def test_extract_nominal_shapes():
    cfg = _cfg("nominal")
    _, layout = tr.build_nominal(CartPoleOcp(), cfg)
    bundle = tr.extract_solution(layout, np.zeros(layout.n_vars))
    assert bundle.common.states.shape == (13, 4)
    assert bundle.common.inputs.shape == (12, 1)
    assert bundle.common.dts.shape == (12,)
    assert bundle.branches == []


def test_bundle_dict_round_trip():
    cfg = _cfg("sure")
    _, layout = tr.build_sure(CartPoleOcp(), cfg)
    rng = np.random.default_rng(11)
    bundle = tr.extract_solution(layout, rng.normal(size=layout.n_vars))
    d = tr.bundle_to_dict(bundle)
    # must be JSON-serializable as-is
    s = json.dumps(d)
    back = tr.bundle_from_dict(json.loads(s))
    assert back.common.states == pytest.approx(bundle.common.states)
    assert back.rejoin_index == bundle.rejoin_index
    assert back.branch_nodes == bundle.branch_nodes
    assert len(back.branches) == 3
    for a, b in zip(back.branches, bundle.branches):
        assert a.states == pytest.approx(b.states)
        assert a.dts == pytest.approx(b.dts)
    assert set(d) == {"common", "branches", "branch_nodes", "rejoin_index"}
    # the checked-in references also carry "d", "cost" and "extras"
    old = tr.bundle_from_dict(dict(d, d=0.05, cost=3.25, extras={}))
    assert old.common.states.tobytes() == bundle.common.states.tobytes()


def test_trajectory_node_times():
    traj = Trajectory(states=np.zeros((4, 4)), inputs=np.zeros((3, 1)),
                      dts=np.array([0.1, 0.2, 0.3]))
    assert traj.node_times == pytest.approx([0.0, 0.1, 0.3, 0.6])


def test_trajectory_holds_read_only_copies():
    states = np.zeros((3, 4))
    traj = Trajectory(states=states, inputs=np.zeros((2, 1)),
                      dts=np.array([0.1, 0.2]))
    states[1, 0] = 5.0  # the caller's array stays the caller's
    assert traj.states[1, 0] == 0.0
    for a in (traj.states, traj.inputs, traj.dts, traj.node_times):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    assert traj.node_times is traj.node_times
    assert traj.sample_table is traj.sample_table
    back = pickle.loads(pickle.dumps(traj))  # as the study's workers see it
    assert not back.states.flags.writeable
    assert back.states.tobytes() == traj.states.tobytes()


def test_robust_nominal_branch_plays_middle_branch():
    cfg = _cfg("sure")
    _, layout = tr.build_sure(CartPoleOcp(), cfg)
    rng = np.random.default_rng(3)
    bundle = tr.extract_solution(layout, rng.normal(size=layout.n_vars))
    robust = tr.robust_nominal_branch(bundle, dt_impact=1e-3)
    # common part up to the middle branching node (5), that branch, then
    # the common post-rejoin tail (nodes 8..12)
    assert robust.states.shape[0] == 6 + 4 + 5
    assert robust.states[:6] == pytest.approx(bundle.common.states[:6])
    assert robust.states[6:10] == pytest.approx(bundle.branches[1].states)


@st.composite
def _windows(draw):
    """(N, k_first, k_last) with 0 < k_first <= k_last < N <= 40."""
    n = draw(st.integers(2, 40))
    k_last = draw(st.integers(1, n - 1))
    return n, draw(st.integers(1, k_last)), k_last


@settings(max_examples=200, deadline=None)
@given(window=_windows())
def test_nominal_contact_is_the_node_the_robust_reference_departs_from(
        window):
    n, k_first, k_last = window
    cfg = tr.TranscriptionConfig(N=n, k_first=k_first, k_last=k_last)
    c = cfg.contact_node
    assert k_first <= c <= k_last
    assert c == math.ceil((k_first + k_last) / 2)
    # a rejoining bundle on this window: common state i is i, and branch
    # i's states are -1 - i
    bundle = SolutionBundle(
        common=Trajectory(states=np.arange(n + 1.0)[:, None],
                          inputs=np.zeros((n, 1)), dts=np.full(n, 0.1)),
        branches=[Trajectory(states=np.full((3, 1), -1.0 - i),
                             inputs=np.zeros((2, 1)), dts=np.full(2, 0.1))
                  for i in cfg.branch_nodes],
        branch_nodes=cfg.branch_nodes, rejoin_index=k_last + 1)
    robust = tr.robust_nominal_branch(bundle, dt_impact=1e-3)
    # the common part through node c, then the impact into c's branch
    assert robust.states[: c + 2, 0].tolist() == [*range(c + 1), -1.0 - c]
    assert robust.dts[c] == 1e-3


# -- residual values at the default guess ------------------------------------------

# The objective and, per block in emission order, [name, size, 2-norm,
# index-weighted sum] of the residuals at the default initial guess of the
# _cfg problems.  The values are recorded, so a change in the order or
# content of the transcription's arithmetic fails here even when the
# solver still converges.
GUESS_CASES = ["nominal", "sure", "tree",
               # the arm has its own cost hook and no guard clearance
               # after contact
               "arm_nominal", "arm_sure", "arm_tree"]


def default_guess_residuals(key):
    plant, _, variant = key.rpartition("_")
    if plant == "arm":
        adapter = ArmCatchOcp()
        cfg = _cfg(variant, x_init=ARM_INIT, x_end=ARM_END)
    else:
        adapter, cfg = CartPoleOcp(), _cfg(variant)
    problem, layout = getattr(tr, f"build_{variant}")(adapter, cfg)
    x0 = tr.default_initial_guess(adapter, layout)
    blocks = []
    for b in problem.cost_blocks + problem.eq_blocks + problem.ineq_blocks:
        v = nlp.block_values(b, x0).ravel()
        blocks.append([b.name, v.size, float(np.sqrt(v @ v)),
                       float(v @ np.arange(1, v.size + 1))])
    return {"objective": nlp.eval_objective(problem, x0), "blocks": blocks}


def record_default_guess_residuals():
    return {"default_guess_residuals.json": {
        key: default_guess_residuals(key) for key in GUESS_CASES}}


@pytest.mark.parametrize("key", GUESS_CASES)
def test_residuals_at_default_guess_match_recorded(key):
    assert (default_guess_residuals(key)
            == record.load("default_guess_residuals.json")[key])


# -- structural fingerprint --------------------------------------------------------

# Configs at the size of _cfg and at the size of the benchmark's N=30
# problem; the nominal variant makes contact at the window's middle node.
_SIZES = {
    "small": dict(N=12, k_first=4, k_last=6, n_rejoin=3, n_branch_full=8),
    "bench": dict(N=30, dt_max=0.1, k_first=9, k_last=11, n_rejoin=4,
                  n_branch_full=18),
}

# sha256 of every block's name, index rows and n_out, the bounds, the
# default guess and, for the branched variants, the warm start built from
# a perturbed unbranched solution; recorded so that a change in how the
# index rows or guesses are assembled fails here, bit for bit.
STRUCTURE_CASES = [(plant, size, variant) for plant in ("cartpole", "arm")
                   for size in _SIZES
                   for variant in ("nominal", "sure", "tree")]


def structure_case(plant, size, variant):
    """The adapter and config of one structure case."""
    if plant == "arm":
        adapter, x_init, x_end = ArmCatchOcp(), ARM_INIT, ARM_END
    else:
        adapter, x_init, x_end = CartPoleOcp(), X_INIT, X_END
    return adapter, tr.TranscriptionConfig(
        variant=variant, x_init=x_init, x_end=x_end, **_SIZES[size])


def structure_fingerprint(adapter, cfg):
    problem, layout = tr.build(adapter, cfg)
    h = hashlib.sha256()
    for b in problem.cost_blocks + problem.eq_blocks + problem.ineq_blocks:
        h.update(b.name.encode())
        h.update(str((b.indices.dtype, b.indices.shape, b.n_out)).encode())
        h.update(b.indices.tobytes())
    for a in (problem.lower, problem.upper,
              tr.default_initial_guess(adapter, layout)):
        h.update(a.tobytes())
    if cfg.variant != "nominal":
        _, nom_layout = tr.build(adapter, pipeline.nominal_stage_config(cfg))
        x = tr.default_initial_guess(adapter, nom_layout)
        x = x + 0.01 * np.random.default_rng(5).uniform(-1.0, 1.0, size=x.size)
        nominal = tr.extract_solution(nom_layout, x)
        guess_from = getattr(pipeline, f"{cfg.variant}_guess_from_nominal")
        h.update(guess_from(adapter, layout, nominal).tobytes())
    return h.hexdigest()


def record_structure_fingerprints():
    return {"structure_fingerprints.json": {
        "/".join(case): structure_fingerprint(*structure_case(*case))
        for case in STRUCTURE_CASES}}


@pytest.mark.parametrize("plant, size, variant", STRUCTURE_CASES)
def test_structure_matches_recorded_fingerprint(plant, size, variant):
    assert (structure_fingerprint(*structure_case(plant, size, variant))
            == record.load("structure_fingerprints.json")[
                f"{plant}/{size}/{variant}"])
