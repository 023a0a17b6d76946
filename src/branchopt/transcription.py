"""Transcription of hybrid optimal-control problems into block NLPs.

Three variants are supported:

* ``nominal``   -- single contact at a fixed node index.
* ``sure``      -- a branching window of possible contact nodes; each
                   branch gets a short post-impact trajectory that is
                   pinned back onto the common trajectory (rejoining).
* ``tree``      -- the brute-force baseline: every branch runs
                   independently all the way to the terminal state.

Plant specifics (dynamics defects, costs, guard, impact transition,
path constraints) are supplied by a :class:`PlantOcp` adapter; this
module owns the decision-vector layout and the shared constraint
scaffolding.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from . import autodiff as ad
from .nlp import Block, NlpProblem

STRICT_EPS = 1e-6  # strict inequalities g > a become g >= a + STRICT_EPS


@dataclass
class TranscriptionConfig:
    N: int
    variant: str = "nominal"  # nominal | sure | tree
    contact_node: Optional[int] = None  # nominal contact index c
    k_first: Optional[int] = None  # first branching node
    k_last: Optional[int] = None  # last branching node
    n_rejoin: int = 7  # nodes per rejoining branch
    n_branch_full: int = 100  # per-branch horizon for the tree variant
    dt_min: float = 1e-3
    dt_max: float = 5e-2
    x_init: np.ndarray = None
    x_end: np.ndarray = None
    d_fixed: float = 0.05  # guard half-width at the branching-window edges

    def __post_init__(self):
        if self.variant not in ("nominal", "sure", "tree"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "nominal":
            if self.contact_node is None or not 0 < self.contact_node < self.N:
                raise ValueError("contact_node must lie strictly inside (0, N)")
        if self.variant in ("sure", "tree"):
            if self.k_first is None or self.k_last is None:
                raise ValueError("branching window (k_first, k_last) required")
            if not 0 < self.k_first <= self.k_last < self.N:
                raise ValueError("need 0 < k_first <= k_last < N")
        if self.variant == "sure" and self.n_rejoin < 1:
            raise ValueError(
                f"n_rejoin must be at least 1, got {self.n_rejoin}")
        if self.variant == "tree" and self.n_branch_full < 1:
            raise ValueError(
                f"n_branch_full must be at least 1, got {self.n_branch_full}")
        if (isinstance(self.dt_min, bool)
                or not isinstance(self.dt_min, numbers.Real)
                or not self.dt_min > 0):
            # the running cost's sqrt(dt) has no derivative at 0; a bool
            # (YAML's on, yes, true) is not a time step
            raise ValueError(
                f"dt_min must be a positive number, got {self.dt_min!r}")
        if self.dt_min > self.dt_max:
            raise ValueError(
                f"dt_min {self.dt_min} exceeds dt_max {self.dt_max}")

    @property
    def branch_nodes(self):
        return list(range(self.k_first, self.k_last + 1))

    @property
    def contact_nodes(self):
        """Common nodes an impact may leave from."""
        if self.variant == "nominal":
            return [self.contact_node]
        return self.branch_nodes

    @property
    def n_branches(self):
        return self.k_last - self.k_first + 1

    @property
    def branch_weight(self):
        return 1.0 / self.n_branches


class LayoutBuilder:
    def __init__(self):
        self.names = {}
        self.n_vars = 0

    def add(self, name, shape):
        size = int(np.prod(shape))
        idx = np.arange(self.n_vars, self.n_vars + size).reshape(shape)
        self.names[name] = idx
        self.n_vars += size
        return idx


@dataclass
class TranscriptionLayout:
    """Index map from (phase, node, branch) to decision-vector slices."""

    cfg: TranscriptionConfig
    n_vars: int
    arrays: dict  # name -> int index array
    n_common: int  # highest common node index (inclusive count is +1)
    branch_len: int  # nodes per branch beyond the branch root

    @property
    def n_branches(self):
        return self.arrays["bx"].shape[0] if "bx" in self.arrays else 0


def _read_only(values):
    a = np.array(values, dtype=float)
    a.flags.writeable = False
    return a


class SampleTable(NamedTuple):
    """What reference sampling reads, derived once from a Trajectory.

    Knots are Python floats for ``bisect``; rows and slopes are read-only
    1-D arrays, with
    ``slopes[j] = (rows[j+1] - rows[j]) / (times[j+1] - times[j])``.
    The inputs' knots are the first n node times with the n input rows;
    ``zero_input`` stands in when the trajectory has none.
    """

    times: list
    states: list
    slopes: list
    u_times: list
    inputs: list
    u_slopes: list
    zero_input: np.ndarray


def _slopes(rows, times):
    return list(np.diff(rows, axis=0) / np.diff(times)[:, None])


@dataclass(frozen=True)
class Trajectory:
    """Node states, the input held on each interval and the interval lengths.

    Immutable: the arrays are read-only copies of what the constructor is
    given, so ``node_times`` and ``sample_table`` are built on first use
    and cached.
    """

    states: np.ndarray  # (n+1, n_x)
    inputs: np.ndarray  # (n, n_u)
    dts: np.ndarray  # (n,)

    def __post_init__(self):
        for name in ("states", "inputs", "dts"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    def __reduce__(self):
        # unpickled arrays would be writable: rebuild through __init__
        return type(self), (self.states, self.inputs, self.dts)

    @cached_property
    def node_times(self):
        return _read_only(np.concatenate([[0.0], np.cumsum(self.dts)]))

    @cached_property
    def sample_table(self) -> SampleTable:
        times = self.node_times
        n = len(self.dts) if len(self.inputs) else 0
        u = self.inputs[:n]
        n_u = self.inputs.shape[1] if self.inputs.ndim == 2 else 1
        return SampleTable(
            times=times.tolist(), states=list(self.states),
            slopes=_slopes(self.states, times),
            u_times=times[:n].tolist(), inputs=list(u),
            u_slopes=_slopes(u, times[:n]),
            zero_input=_read_only(np.zeros(n_u)))


@dataclass
class SolutionBundle:
    common: Trajectory
    branches: list  # Trajectory per branch, ordered by branch node index
    branch_nodes: list  # common-node index each branch departs from
    rejoin_index: Optional[int]


def _traj_to_dict(traj: Trajectory):
    return {
        "states": traj.states.tolist(),
        "inputs": traj.inputs.tolist(),
        "dts": traj.dts.tolist(),
    }


def _traj_from_dict(d) -> Trajectory:
    return Trajectory(
        states=np.asarray(d["states"], dtype=float),
        inputs=np.asarray(d["inputs"], dtype=float),
        dts=np.asarray(d["dts"], dtype=float),
    )


def bundle_to_dict(bundle: SolutionBundle) -> dict:
    """JSON-ready form of a solution bundle (inverse of bundle_from_dict)."""
    return {
        "common": _traj_to_dict(bundle.common),
        "branches": [_traj_to_dict(b) for b in bundle.branches],
        "branch_nodes": [int(i) for i in bundle.branch_nodes],
        "rejoin_index": (None if bundle.rejoin_index is None
                         else int(bundle.rejoin_index)),
    }


def bundle_from_dict(d) -> SolutionBundle:
    """Inverse of bundle_to_dict.  Other keys are ignored: the checked-in
    references also carry ``d``, ``cost`` and ``extras``."""
    return SolutionBundle(
        common=_traj_from_dict(d["common"]),
        branches=[_traj_from_dict(b) for b in d["branches"]],
        branch_nodes=list(d["branch_nodes"]),
        rejoin_index=d["rejoin_index"],
    )


class ProblemBuilder:
    """Collects bounds and blocks while a transcription is assembled."""

    def __init__(self, n_vars):
        self.n_vars = n_vars
        self.lower = np.full(n_vars, -np.inf)
        self.upper = np.full(n_vars, np.inf)
        self.cost_blocks = []
        self.eq_blocks = []
        self.ineq_blocks = []

    def add_cost(self, name, fun, indices, n_out=1):
        self.cost_blocks.append(Block(name, fun, np.atleast_2d(indices), n_out))

    def add_eq(self, name, fun, indices, n_out):
        self.eq_blocks.append(Block(name, fun, np.atleast_2d(indices), n_out))

    def add_ineq(self, name, fun, indices, n_out):
        self.ineq_blocks.append(Block(name, fun, np.atleast_2d(indices), n_out))

    def set_bounds(self, idx, lo, hi):
        self.lower[idx] = lo
        self.upper[idx] = hi

    def fix(self, idx, values):
        self.lower[idx] = values
        self.upper[idx] = values

    def finish(self):
        return NlpProblem(
            n_vars=self.n_vars,
            lower=self.lower,
            upper=self.upper,
            cost_blocks=self.cost_blocks,
            eq_blocks=self.eq_blocks,
            ineq_blocks=self.ineq_blocks,
        )


class PlantOcp:
    """Adapter interface a plant implements to participate in transcription.

    Residual callbacks receive recorded (``autodiff.Node``) or float
    values; index rows are int arrays with one row per node.  The 12
    hooks:

    * ``n_cost_residuals`` -- outputs of ``node_cost`` per node.
    * ``clearance_after_contact`` -- whether the guard stays positive
      after contact (after the contact node of the unbranched problem,
      after the rejoin node of the rejoining one); False for plants whose
      guard loses meaning after contact (attachment).
    * ``register_variables`` -- claim auxiliary variables in the layout.
    * ``dynamics_defect`` -- one interval's explicit-step defect.
    * ``node_cost`` -- least-squares cost residuals of one node, scaled.
    * ``guard_indices`` / ``guard_expr`` -- the contact guard g and the
      decision variables it reads, one row per common node.
    * ``path_constraints`` -- state-only inequalities at every node.
    * ``emit_transition`` -- the impact blocks from the pre-impact nodes
      ``cfg.contact_nodes`` to the post-impact state rows ``post_rows``.
    * ``emit_extra_blocks`` -- bounds of the auxiliary variables and
      anything beyond the shared scaffolding.
    * ``branch_seed`` -- post-transition guess for warm starts.
    * ``initial_guess_extras`` -- guesses of the auxiliary variables.
    """

    n_x: int
    n_u: int
    n_cost_residuals: int = 1
    clearance_after_contact = True

    def register_variables(self, lb: LayoutBuilder, cfg):
        """Claim plant-specific auxiliary variables (forces, times, ...)."""

    def dynamics_defect(self, x, u, dt, x_next):
        raise NotImplementedError

    def node_cost(self, x, u, scale):
        """Cost residuals of one node, each multiplied by ``scale``."""
        raise NotImplementedError

    def guard_indices(self, layout, nodes):
        """Decision-vector indices the guard reads, one row per common node."""
        return layout.arrays["x"][nodes]

    def guard_expr(self, local_vars):
        raise NotImplementedError

    def path_constraints(self):
        """List of (name, fun(x_vars)->outputs, n_out) state-only path ineqs."""
        return []

    def emit_transition(self, builder, layout, cfg, pre_nodes, post_rows):
        """Impact/reset blocks from common pre-impact nodes to post states."""
        raise NotImplementedError

    def emit_extra_blocks(self, builder, layout, cfg):
        """Bounds of the auxiliary variables and anything beyond the shared
        scaffolding (time chains, v_lim, ...)."""

    def branch_seed(self, x_pre, u_pre, cfg):
        """Post-transition state guess and per-branch auxiliary guesses.

        Returns ``(x_post, extras)`` where ``extras`` maps plant array
        names (as registered in the layout) to per-branch row values.
        Used to seed branch variables when warm-starting a branched
        problem from an unbranched solution.  Default: identity reset.
        """
        return np.asarray(x_pre, dtype=float).copy(), {}

    def initial_guess_extras(self, layout, cfg, x0):
        """Fill plant-specific slots of the initial guess in place."""


# -- layout construction ------------------------------------------------------


def _make_layout(adapter: PlantOcp, cfg: TranscriptionConfig):
    lb = LayoutBuilder()
    variant = cfg.variant
    if variant == "tree":
        n_common = cfg.k_last  # common trajectory ends at the latest contact
        branch_len = cfg.n_branch_full
    elif variant == "sure":
        n_common = cfg.N
        branch_len = cfg.n_rejoin
    else:
        n_common = cfg.N
        branch_len = 0

    lb.add("x", (n_common + 1, adapter.n_x))
    # the tree's common part ends at the last branching node, whose input
    # still exists (it feeds that branch's transition), so it keeps one
    # more input slot than it has intervals
    n_inputs = n_common + 1 if variant == "tree" else n_common
    lb.add("u", (n_inputs, adapter.n_u))
    lb.add("dt", (n_common,))
    if variant in ("sure", "tree"):
        K = cfg.n_branches
        lb.add("bx", (K, branch_len + 1, adapter.n_x))
        lb.add("bu", (K, branch_len, adapter.n_u))
        lb.add("bdt", (K, branch_len))
    adapter.register_variables(lb, cfg)
    return TranscriptionLayout(
        cfg=cfg,
        n_vars=lb.n_vars,
        arrays=lb.names,
        n_common=n_common,
        branch_len=branch_len,
    )


# -- shared scaffolding -------------------------------------------------------


def _skip_node(cfg):
    """Common node whose outgoing interval is replaced by the impact.

    Its time step drives nothing (no dynamics defect uses it), so it is
    excluded from the running cost and pinned by the builder.
    """
    if cfg.variant == "nominal":
        return cfg.contact_node
    if cfg.variant == "sure":
        return cfg.k_last
    return None


def _interval_rows(arrays, prefix="", skip=None, with_next=False):
    """Index rows ``[x_i, u_i, dt_i(, x_{i+1})]``, one per interval.

    ``prefix`` "" reads the common arrays, "b" the (K, L, ...) branch
    arrays, whose rows come branch by branch; ``skip`` drops one interval.
    """
    x, u, dt = (arrays[prefix + name] for name in ("x", "u", "dt"))
    n = dt.shape[-1]
    parts = [x[..., :n, :], u[..., :n, :], dt[..., None]]
    if with_next:
        parts.append(x[..., 1:, :])
    rows = np.concatenate(parts, axis=-1)
    rows = rows.reshape(-1, rows.shape[-1])
    return rows if skip is None else np.delete(rows, skip, axis=0)


def _emit_dynamics(builder, adapter, layout, cfg):
    n_x, n_u = adapter.n_x, adapter.n_u

    def defect(v):
        x = v[:n_x]
        u = v[n_x : n_x + n_u]
        dt = v[n_x + n_u]
        x_next = v[n_x + n_u + 1 :]
        return adapter.dynamics_defect(x, u, dt, x_next)

    rows = _interval_rows(layout.arrays, skip=_skip_node(cfg), with_next=True)
    builder.add_eq("common_dynamics", defect, rows, n_x)

    if layout.n_branches:
        rows = _interval_rows(layout.arrays, "b", with_next=True)
        builder.add_eq("branch_dynamics", defect, rows, n_x)


def _emit_costs(builder, adapter, layout, cfg):
    n_x, n_u = adapter.n_x, adapter.n_u

    def running(v):
        return adapter.node_cost(
            v[:n_x], v[n_x : n_x + n_u], ad.sqrt(v[n_x + n_u]))

    rows = _interval_rows(layout.arrays, skip=_skip_node(cfg))
    builder.add_cost("common_running_cost", running, rows,
                     adapter.n_cost_residuals)

    if layout.n_branches:
        w = cfg.branch_weight

        def branch_cost(v):
            return adapter.node_cost(
                v[:n_x], v[n_x : n_x + n_u],
                ad.sqrt(v[n_x + n_u]) * np.sqrt(w))

        builder.add_cost("branch_running_cost", branch_cost,
                         _interval_rows(layout.arrays, "b"),
                         adapter.n_cost_residuals)


def _emit_guard_blocks(builder, adapter, layout, cfg):
    variant = cfg.variant
    if variant == "nominal":
        c = cfg.contact_node
        builder.add_eq(
            "guard_zero_at_contact",
            lambda v: [adapter.guard_expr(v)],
            adapter.guard_indices(layout, [c]),
            1,
        )
        if adapter.clearance_after_contact:
            free_nodes = [i for i in range(cfg.N + 1) if i not in (c, cfg.N)]
        else:
            free_nodes = list(range(c))
        # strict g > 0 as  -g + eps <= 0
        builder.add_ineq(
            "guard_clearance",
            lambda v: [STRICT_EPS - adapter.guard_expr(v)],
            adapter.guard_indices(layout, free_nodes),
            1,
        )
        return

    # sure / tree: guard pinned to +d / -d at the window edges, clearance
    # beyond the broadened region elsewhere.
    d = cfg.d_fixed

    builder.add_eq(
        "guard_pin_window_entry", lambda v: [adapter.guard_expr(v) - d],
        adapter.guard_indices(layout, [cfg.k_first]), 1)
    builder.add_eq(
        "guard_pin_window_exit", lambda v: [adapter.guard_expr(v) + d],
        adapter.guard_indices(layout, [cfg.k_last]), 1)

    clear_nodes = list(range(cfg.k_first))
    if adapter.clearance_after_contact and cfg.variant == "sure":
        clear_nodes += list(range(cfg.k_last + 1, cfg.N + 1))
    builder.add_ineq(
        "guard_clearance_beyond_window",
        lambda v: [d + STRICT_EPS - adapter.guard_expr(v)],
        adapter.guard_indices(layout, clear_nodes), 1)


def _emit_path_constraints(builder, adapter, layout, cfg):
    rows = layout.arrays["x"]
    if layout.n_branches:
        rows = np.concatenate(
            [rows, layout.arrays["bx"].reshape(-1, adapter.n_x)])
    for name, fun, n_out in adapter.path_constraints():
        builder.add_ineq(name, fun, rows, n_out)


def _emit_rejoin(builder, adapter, layout, cfg):
    n_x = adapter.n_x
    ends = layout.arrays["bx"][:, -1]
    rejoin = np.broadcast_to(layout.arrays["x"][cfg.k_last + 1], ends.shape)
    builder.add_eq(
        "branch_rejoin_pinning",
        lambda v: [v[i] - v[n_x + i] for i in range(n_x)],
        np.hstack([ends, rejoin]),
        n_x,
    )


# -- builders -----------------------------------------------------------------


def build(adapter: PlantOcp, cfg: TranscriptionConfig):
    layout = _make_layout(adapter, cfg)
    builder = ProblemBuilder(layout.n_vars)
    arrays = layout.arrays

    # time steps and boundary conditions
    skip = _skip_node(cfg)
    builder.set_bounds(arrays["dt"], cfg.dt_min, cfg.dt_max)
    if skip is not None:
        builder.fix(arrays["dt"][skip], cfg.dt_min)
    if layout.n_branches:
        builder.set_bounds(arrays["bdt"], cfg.dt_min, cfg.dt_max)
    builder.fix(arrays["x"][0], np.asarray(cfg.x_init, dtype=float))
    x_end = np.asarray(cfg.x_end, dtype=float)
    if cfg.variant == "tree":
        builder.fix(arrays["bx"][:, -1], x_end)
    else:
        builder.fix(arrays["x"][cfg.N], x_end)

    _emit_costs(builder, adapter, layout, cfg)
    _emit_dynamics(builder, adapter, layout, cfg)
    _emit_guard_blocks(builder, adapter, layout, cfg)
    _emit_path_constraints(builder, adapter, layout, cfg)

    if cfg.variant == "nominal":
        post_rows = arrays["x"][[cfg.contact_node + 1]]
    else:
        post_rows = arrays["bx"][:, 0]
    adapter.emit_transition(builder, layout, cfg, cfg.contact_nodes, post_rows)
    if cfg.variant == "sure":
        _emit_rejoin(builder, adapter, layout, cfg)

    adapter.emit_extra_blocks(builder, layout, cfg)
    return builder.finish(), layout


# The three named entry points stay while the benchmark's tracer
# (perfbench/tracing.py) wraps them by name; they fold into ``build`` with
# the next benchmark change (ROADMAP item 1).


def build_nominal(adapter: PlantOcp, cfg: TranscriptionConfig):
    if cfg.variant != "nominal":
        raise ValueError("cfg.variant must be 'nominal'")
    return build(adapter, cfg)


def build_sure(adapter: PlantOcp, cfg: TranscriptionConfig):
    if cfg.variant != "sure":
        raise ValueError("cfg.variant must be 'sure'")
    return build(adapter, cfg)


def build_tree(adapter: PlantOcp, cfg: TranscriptionConfig):
    if cfg.variant != "tree":
        raise ValueError("cfg.variant must be 'tree'")
    return build(adapter, cfg)


# -- initial guess / extraction -----------------------------------------------


def interpolate_rows(a, b, n):
    """n + 1 rows from a to b, linear in the row index.

    Leading axes of ``a`` (and ``b``) stack such blocks of rows.
    """
    s = (np.arange(n + 1) / max(n, 1))[:, None]
    return (1 - s) * a[..., None, :] + s * b[..., None, :]


def default_initial_guess(adapter: PlantOcp, layout: TranscriptionLayout):
    """Linear state interpolation, zero inputs, midpoint time steps."""
    cfg = layout.cfg
    arrays = layout.arrays
    x0 = np.zeros(layout.n_vars)
    xi = np.asarray(cfg.x_init, dtype=float)
    xe = np.asarray(cfg.x_end, dtype=float)
    x0[arrays["x"]] = interpolate_rows(xi, xe, layout.n_common)
    dt_mid = 0.5 * (cfg.dt_min + cfg.dt_max)
    x0[arrays["dt"]] = dt_mid
    if layout.n_branches:
        start = x0[arrays["x"][cfg.branch_nodes]]
        target = xe
        if cfg.variant == "sure":
            target = x0[arrays["x"][cfg.k_last + 1]]
        x0[arrays["bx"]] = interpolate_rows(start, target, layout.branch_len)
        x0[arrays["bdt"]] = dt_mid
    adapter.initial_guess_extras(layout, cfg, x0)
    return x0


def extract_solution(layout: TranscriptionLayout, x_raw) -> SolutionBundle:
    """Pure reshaping of a raw decision vector into a solution bundle."""
    x_raw = np.asarray(x_raw, dtype=float)
    if x_raw.size != layout.n_vars:
        raise ValueError(
            f"decision vector has size {x_raw.size}, layout needs {layout.n_vars}"
        )
    cfg = layout.cfg
    common = Trajectory(
        states=x_raw[layout.arrays["x"]],
        inputs=x_raw[layout.arrays["u"]],
        dts=x_raw[layout.arrays["dt"]],
    )
    branches = []
    if layout.n_branches:
        for k in range(layout.n_branches):
            branches.append(
                Trajectory(
                    states=x_raw[layout.arrays["bx"][k]],
                    inputs=x_raw[layout.arrays["bu"][k]],
                    dts=x_raw[layout.arrays["bdt"][k]],
                )
            )
    return SolutionBundle(
        common=common,
        branches=branches,
        branch_nodes=cfg.branch_nodes if layout.n_branches else [],
        rejoin_index=cfg.k_last + 1 if cfg.variant == "sure" else None,
    )


def middle_branch_index(k_first, k_last):
    """Common-node index the worst-case-balanced branch departs from."""
    return math.ceil((k_first + k_last) / 2)


def robust_nominal_branch(bundle: SolutionBundle, dt_impact) -> Trajectory:
    """Single playable reference assembled from the middle branch.

    Concatenates the common trajectory up to the middle branching node,
    the middle branch through its rejoin state, then the common final
    segment.  The impact transition occupies one dt_impact interval.
    """
    if not bundle.branches:
        raise ValueError("bundle has no branches")
    k_mid = middle_branch_index(bundle.branch_nodes[0], bundle.branch_nodes[-1])
    return branch_reference(bundle, k_mid, dt_impact)


def post_contact_reference(bundle: SolutionBundle, pos) -> Trajectory:
    """Branch `pos` followed by the common post-rejoin segment."""
    br = bundle.branches[pos]
    if bundle.rejoin_index is None:
        return br
    com = bundle.common
    j = bundle.rejoin_index
    return Trajectory(
        states=np.vstack([br.states, com.states[j + 1 :]]),
        inputs=np.vstack([br.inputs, com.inputs[j:]]),
        dts=np.concatenate([br.dts, com.dts[j:]]),
    )


def branch_reference(bundle: SolutionBundle, branch_node, dt_impact):
    """Playable reference that follows the branch departing at branch_node."""
    post = post_contact_reference(bundle, bundle.branch_nodes.index(branch_node))
    com = bundle.common
    i = branch_node
    return Trajectory(
        states=np.vstack([com.states[: i + 1], post.states]),
        inputs=np.vstack([com.inputs[: i + 1], post.inputs]),
        dts=np.concatenate([com.dts[:i], [dt_impact], post.dts]),
    )
