"""Structural tests for the three transcription variants.

These check layout bookkeeping (variable counts, index coverage),
solution extraction, guard pinning constraint wiring, and
serialization — everything short of actually solving, which the solver
and acceptance tests cover.
"""

import hashlib
import json
import pickle

import numpy as np
import pytest

from branchopt import nlp, pipeline
from branchopt import transcription as tr
from branchopt.plants import arm
from branchopt.plants.arm_ocp import ArmCatchOcp
from branchopt.plants.cartpole_ocp import CartPoleOcp
from branchopt.transcription import SolutionBundle, Trajectory

X_INIT = np.array([0.0, np.pi, 0.0, 5.5])
X_END = np.array([0.0, np.pi, 0.0, 0.0])
# arm: level container moved from (0, 0.3) to (0.05, 0.35), at rest
_ARM_P = arm.ArmCatchParams()
ARM_INIT = np.concatenate([arm.level_configuration((0.0, 0.3), _ARM_P),
                           np.zeros(3)])
ARM_END = np.concatenate([arm.level_configuration((0.05, 0.35), _ARM_P),
                          np.zeros(3)])


def _cfg(variant, **kw):
    base = dict(N=12, x_init=X_INIT, x_end=X_END)
    if variant == "nominal":
        base.update(contact_node=5)
    else:
        base.update(k_first=4, k_last=6, n_rejoin=3, n_branch_full=8)
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
        tr.TranscriptionConfig(N=10, variant="nominal", contact_node=10,
                               x_init=X_INIT, x_end=X_END)
    with pytest.raises(ValueError):
        tr.TranscriptionConfig(N=10, variant="sure", x_init=X_INIT, x_end=X_END)
    with pytest.raises(ValueError):
        tr.TranscriptionConfig(N=10, variant="sure", k_first=7, k_last=5,
                               x_init=X_INIT, x_end=X_END)
    with pytest.raises(ValueError):
        tr.TranscriptionConfig(N=10, variant="mystery", contact_node=5,
                               x_init=X_INIT, x_end=X_END)


@pytest.mark.parametrize("variant, key, value", [
    ("sure", "n_rejoin", 0), ("tree", "n_branch_full", 0),
    ("nominal", "dt_min", 0.2)])
def test_config_rejects_empty_branches_and_reversed_dt_bounds(variant, key,
                                                              value):
    # an empty branch used to build a problem that crashed on its first
    # evaluation; reversed dt bounds failed only inside NlpProblem
    with pytest.raises(ValueError, match=key):
        _cfg(variant, **{key: value})


def test_contact_nodes():
    assert _cfg("nominal").contact_nodes == [5]
    assert _cfg("sure").contact_nodes == [4, 5, 6]
    assert _cfg("tree").contact_nodes == [4, 5, 6]


def test_branch_properties():
    cfg = _cfg("sure")
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
        idx = layout.arrays["bx"][k, layout.branch_len]
        assert problem.lower[idx] == pytest.approx(X_END)
        assert problem.upper[idx] == pytest.approx(X_END)


def test_dt_bounds_applied():
    cfg = _cfg("nominal", dt_min=2e-3, dt_max=4e-2)
    problem, layout = tr.build_nominal(CartPoleOcp(), cfg)
    free = [i for i in range(12) if i != 5]
    for i in free:
        assert problem.lower[layout.arrays["dt"][i]] == pytest.approx(2e-3)
        assert problem.upper[layout.arrays["dt"][i]] == pytest.approx(4e-2)
    # the interval replaced by the impact is pinned
    pinned = layout.arrays["dt"][5]
    assert problem.lower[pinned] == problem.upper[pinned]


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
    assert "common_dynamics" in eq and "branch_dynamics" in eq
    pin_blocks = {n for n in eq if "guard" in n}
    assert pin_blocks, f"no guard pinning equalities among {sorted(eq)}"


def test_tree_has_no_rejoin_block():
    problem, _ = tr.build_tree(CartPoleOcp(), _cfg("tree"))
    eq, _ = _block_names(problem)
    assert "branch_rejoin_pinning" not in eq


def test_nominal_guard_pinned_at_contact_node():
    problem, layout = tr.build_nominal(CartPoleOcp(), _cfg("nominal"))
    eq, _ = _block_names(problem)
    assert any("guard" in n for n in eq)


def test_rejoin_constraint_evaluates_to_state_difference():
    problem, layout = tr.build_sure(CartPoleOcp(), _cfg("sure"))
    block = next(b for b in problem.eq_blocks
                 if b.name == "branch_rejoin_pinning")
    x = np.zeros(layout.n_vars)
    rejoin = layout.arrays["x"][7]  # k_last + 1
    x[rejoin] = [1.0, 2.0, 3.0, 4.0]
    x[layout.arrays["bx"][0, layout.branch_len]] = [1.0, 2.0, 3.0, 4.0]
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
    robust = tr.robust_nominal_branch(bundle)
    # common part up to the middle branching node (5), that branch, then
    # the common post-rejoin tail (nodes 8..12)
    assert robust.states.shape[0] == 6 + 4 + 5
    assert robust.states[:6] == pytest.approx(bundle.common.states[:6])
    assert robust.states[6:10] == pytest.approx(bundle.branches[1].states)


# -- residual values at the default guess ------------------------------------------

# Objective and, per block in emission order, (size, 2-norm, index-weighted
# sum) of the residuals at the default initial guess of the _cfg problems.
# The values are recorded, so a change in the order or content of the
# transcription's arithmetic fails here even when the solver still converges.
RECORDED_AT_DEFAULT_GUESS = {
    "nominal": (3.219419270833334, [
        ("common_running_cost", 55, 1.7942740233401735, 104.95440840550721),
        ("common_dynamics", 44, 1.5468868996455873, -133.41212499999992),
        ("guard_zero_at_contact", 1, 0.5, 0.5),
        ("impact_restitution_map", 5, 2.3535643241215607, -13.368333333333332),
        ("guard_clearance", 11, 1.6583090785529095, -32.999934),
        ("cart_body_wall_clearance", 13, 1.65854998116216, -41.85990900000001),
        ("impact_friction_cone", 1, 0.6999, -0.6999),
    ]),
    "sure": (3.943972125771605, [
        ("common_running_cost", 55, 1.8135758301396352, 107.07691736210393),
        ("branch_running_cost", 45, 0.8092680854358081, 54.426044112885684),
        ("common_dynamics", 44, 1.547460774891043, -133.66924999999992),
        ("branch_dynamics", 36, 1.0150985463900044, -55.243374999999915),
        ("guard_pin_window_entry", 1, 0.45, 0.45),
        ("guard_pin_window_exit", 1, 0.55, 0.55),
        ("impact_restitution_map", 15, 4.026445299516684, -65.9025),
        ("branch_rejoin_pinning", 12, 0.0, 0.0),
        ("guard_clearance_beyond_window", 10, 1.4230217847981104,
         -24.749944999999997),
        ("cart_body_wall_clearance", 25, 2.2999950000000005,
         -149.49967500000002),
        ("impact_friction_cone", 3, 1.2122623602174571, -4.1994),
    ]),
    "tree": (2.0636959635416674, [
        ("common_running_cost", 30, 1.3963755165904814, 37.91240136265881),
        ("branch_running_cost", 120, 0.33738906355768755, 33.08664017110985),
        ("common_dynamics", 24, 2.2564104709785546, -81.25424999999998),
        ("branch_dynamics", 96, 0.7306720958795724, -85.7757083333328),
        ("guard_pin_window_entry", 1, 0.45, 0.45),
        ("guard_pin_window_exit", 1, 0.55, 0.55),
        ("impact_restitution_map", 15, 1.474469989521659, -13.1025),
        ("guard_clearance_beyond_window", 4, 0.899998, -4.4999899999999995),
        ("cart_body_wall_clearance", 34, 2.6822320406769435, -273.699405),
        ("impact_friction_cone", 3, 1.2122623602174571, -4.1994),
    ]),
    # the arm has its own cost hook and no guard clearance after contact
    "arm_nominal": (6.7644119122048005, [
        ("common_running_cost", 33, 2.2803451080000587, 16.348125672986804),
        ("catch_relative_velocity", 2, 1.2507750000000002, 2.5015500000000004),
        ("common_dynamics", 66, 3.642329764701929, -56.81760129798191),
        ("guard_zero_at_contact", 1, 0.548391937177576, 0.548391937177576),
        ("catch_state_continuity", 6, 0.024555864519174735,
         -0.0299755832987465),
        ("elapsed_time_chain", 5, 1.2018516789897274e-17,
         -4.163336342344337e-17),
        ("guard_clearance", 5, 1.391966794525203, -9.158574538074228),
        ("container_level", 13, 0.0036055512754639895, -0.091),
        ("drop_line_alignment", 13, 0.002967115289770503,
         0.019706056817623892),
    ]),
    "arm_sure": (7.613509589238164, [
        ("common_running_cost", 33, 2.27883638516746, 16.259149316253133),
        ("branch_running_cost", 27, 1.1918113604405136, 5.937328200097192),
        ("relative_speed_bound", 1, 1.0, 1.0),
        ("common_dynamics", 66, 3.6399211302899155, -56.55477058112608),
        ("branch_dynamics", 54, 3.2968141432264972, -36.6814419271517),
        ("guard_pin_window_entry", 1, 0.5313660538620236, 0.5313660538620236),
        ("guard_pin_window_exit", 1, 0.5590965709073428, 0.5590965709073428),
        ("catch_state_continuity", 18, 0.0, 0.0),
        ("branch_rejoin_pinning", 18, 0.0, 0.0),
        ("elapsed_time_chain", 6, 1.3877787807814457e-17,
         -8.326672684688674e-17),
        ("guard_clearance_beyond_window", 4, 1.164782099345759,
         -5.751749268764112),
        ("container_level", 25, 0.005, -0.325),
        ("drop_line_alignment", 25, 0.003405161460490353,
         -0.08192286143627564),
        ("relative_speed_within_bound", 3, 1.3740730909116547,
         4.8884891803500015),
    ]),
    "arm_tree": (7.881943163495762, [
        ("common_running_cost", 18, 1.6776345128484194, 4.2854078107048075),
        ("branch_running_cost", 72, 2.0168008341915193, 54.45909716378732),
        ("relative_speed_bound", 1, 1.0, 1.0),
        ("common_dynamics", 36, 2.6816671207031284, -16.088688487337198),
        ("branch_dynamics", 144, 5.578330606273899, -309.1114894386776),
        ("guard_pin_window_entry", 1, 0.5146468289594601, 0.5146468289594601),
        ("guard_pin_window_exit", 1, 0.5351788550000001, 0.5351788550000001),
        ("catch_state_continuity", 18, 0.0, 0.0),
        ("elapsed_time_chain", 6, 1.3877787807814457e-17,
         -8.326672684688674e-17),
        ("guard_clearance_beyond_window", 4, 1.1521191066909853,
         -5.665577007385761),
        ("container_level", 34, 0.0058309518948452994, -0.5950000000000001),
        ("drop_line_alignment", 34, 0.006541785748483809, 0.7042727483129315),
        ("relative_speed_within_bound", 3, 1.3740730909116547,
         4.8884891803500015),
    ]),
}


@pytest.mark.parametrize("key", list(RECORDED_AT_DEFAULT_GUESS))
def test_residuals_at_default_guess_match_recorded(key):
    plant, _, variant = key.rpartition("_")
    if plant == "arm":
        adapter = ArmCatchOcp()
        cfg = _cfg(variant, x_init=ARM_INIT, x_end=ARM_END)
    else:
        adapter, cfg = CartPoleOcp(), _cfg(variant)
    problem, layout = getattr(tr, f"build_{variant}")(adapter, cfg)
    x0 = tr.default_initial_guess(adapter, layout)
    objective, blocks = RECORDED_AT_DEFAULT_GUESS[key]
    assert nlp.eval_objective(problem, x0) == pytest.approx(objective,
                                                            rel=1e-12)
    got = []
    for b in problem.cost_blocks + problem.eq_blocks + problem.ineq_blocks:
        v = nlp.block_values(b, x0).ravel()
        got.append((b.name, v.size, float(np.sqrt(v @ v)),
                    float(v @ np.arange(1, v.size + 1))))
    assert [g[:2] for g in got] == [b[:2] for b in blocks]
    for g, want in zip(got, blocks):
        assert g[2:] == pytest.approx(want[2:], rel=1e-12, abs=1e-12), g[0]


# -- structural fingerprint --------------------------------------------------------

# Unbranched and branched configs at the size of _cfg and at the size of
# the benchmark's N=30 problem.
_SIZES = {
    "small": {"nominal": dict(N=12, contact_node=5),
              "branched": dict(N=12, k_first=4, k_last=6, n_rejoin=3,
                               n_branch_full=8)},
    "bench": {"nominal": dict(N=30, dt_max=0.1, contact_node=10),
              "branched": dict(N=30, dt_max=0.1, k_first=9, k_last=11,
                               n_rejoin=4, n_branch_full=18)},
}

# sha256 of every block's name, index rows and n_out, the bounds, the
# default guess and, for the branched variants, the warm start built from
# a perturbed unbranched solution; recorded so that a change in how the
# index rows or guesses are assembled fails here, bit for bit.
RECORDED_FINGERPRINT = {
    ('cartpole', 'small', 'nominal'):
        "96fe112ef2a93917878a6a483a32e26d21b1f91158db9bddc9323ad4feae167a",
    ('cartpole', 'small', 'sure'):
        "91b860ecebcff7d7957d9df45bc68ae5555efea1c2b91a3e68f52038218dc155",
    ('cartpole', 'small', 'tree'):
        "5ffa32f454033e9073ff50cbb63e5de990b84d0d53bf6747c11980c1edeeaf51",
    ('cartpole', 'bench', 'nominal'):
        "61fb28be23503669eb08af0ed0b303d3cecc2f493daf47a277ca4f947f00c35a",
    ('cartpole', 'bench', 'sure'):
        "755631ec494683550d47b58bbb20c38868d8d966ba4feff3e1439930678e74f7",
    ('cartpole', 'bench', 'tree'):
        "45188bb3473c1e237c777cef0615faad54e1595f6b0efdaed9abfbf25f61fd12",
    ('arm', 'small', 'nominal'):
        "81e08093245a5272d1f86d5eac4ac4981d801e2cac1c8ce6d705c5f0eb1ce07f",
    ('arm', 'small', 'sure'):
        "7d4278bab4d8a4b8271329c15dc9e28b7dc32dff53416b84d8fbb5544064a642",
    ('arm', 'small', 'tree'):
        "698d1ba2826d10b5016ffcdafcd1c703773404114677516ab79e85f48b84b5bf",
    ('arm', 'bench', 'nominal'):
        "f2c9548f33d4f11f4ea427024d59d46247da5814f89eb60fd32eafa7c08a6205",
    ('arm', 'bench', 'sure'):
        "0b4903fc25f5a100937ddb57b3e548c1fad168a21ee0b7c735f6b5fa4c12e8c6",
    ('arm', 'bench', 'tree'):
        "473cfce89929f83964d0996f5e6514738fdd68c9119318569be3f86a909dc177",
}


def _fingerprint(plant, size, variant):
    if plant == "arm":
        adapter, x_init, x_end = ArmCatchOcp(), ARM_INIT, ARM_END
    else:
        adapter, x_init, x_end = CartPoleOcp(), X_INIT, X_END
    kind = "nominal" if variant == "nominal" else "branched"
    cfg = tr.TranscriptionConfig(variant=variant, x_init=x_init, x_end=x_end,
                                 **_SIZES[size][kind])
    problem, layout = tr.build(adapter, cfg)
    h = hashlib.sha256()
    for b in problem.cost_blocks + problem.eq_blocks + problem.ineq_blocks:
        h.update(b.name.encode())
        h.update(str((b.indices.dtype, b.indices.shape, b.n_out)).encode())
        h.update(b.indices.tobytes())
    for a in (problem.lower, problem.upper,
              tr.default_initial_guess(adapter, layout)):
        h.update(a.tobytes())
    if variant != "nominal":
        nom_cfg = pipeline.nominal_stage_config(cfg)
        _, nom_layout = tr.build(adapter, nom_cfg)
        x = tr.default_initial_guess(adapter, nom_layout)
        x = x + 0.01 * np.random.default_rng(5).uniform(-1.0, 1.0, size=x.size)
        nominal = tr.extract_solution(nom_layout, x)
        guess_from = getattr(pipeline, f"{variant}_guess_from_nominal")
        h.update(guess_from(adapter, layout, nominal,
                            nom_cfg.contact_node).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("plant, size, variant", [
    (plant, size, variant) for plant in ("cartpole", "arm")
    for size in _SIZES for variant in ("nominal", "sure", "tree")])
def test_structure_matches_recorded_fingerprint(plant, size, variant):
    assert (_fingerprint(plant, size, variant)
            == RECORDED_FINGERPRINT[plant, size, variant])
