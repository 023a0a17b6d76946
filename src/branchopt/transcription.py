"""Transcription of hybrid optimal-control problems into block NLPs.

Three variants are supported:

* ``nominal``   -- single contact at the branching window's middle node.
* ``sure``      -- a branching window of possible contact nodes; each
                   branch gets a short post-impact trajectory that is
                   pinned back onto the common trajectory (rejoining).
* ``tree``      -- the brute-force baseline: every branch runs
                   independently all the way to the terminal state.

The variants differ only in shape, which :class:`TranscriptionConfig`
alone derives from ``variant`` (``branched``, ``n_common``,
``branch_len``, ``skip_node``, ``rejoin_node``); nothing else tests it.

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
from .nlp import Block, NlpProblem, is_number

STRICT_EPS = 1e-6  # strict inequalities g > a become g >= a + STRICT_EPS


@dataclass
class TranscriptionConfig:
    """One formulation on one horizon.  The branching window is every
    variant's contact setting; the nominal variant's one impact leaves
    from its middle node, ``contact_node``."""

    N: int
    variant: str = "nominal"  # nominal | sure | tree
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
        if self.k_first is None or self.k_last is None:
            raise ValueError("branching window (k_first, k_last) required")
        for name in ("N", "k_first", "k_last", "n_rejoin", "n_branch_full"):
            value = getattr(self, name)
            if not (is_number(value) and isinstance(value, numbers.Integral)):
                raise ValueError(
                    f"transcription {name} must be an integer, got {value!r}")
        if not 0 < self.k_first <= self.k_last < self.N:
            raise ValueError("need 0 < k_first <= k_last < N")
        # every variant, so one config checks the settings of all three
        for name in ("n_rejoin", "n_branch_full"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be at least 1, got {getattr(self, name)}")
        # a bool (YAML's on, yes, true) is not a length of time
        real = {name: is_number(getattr(self, name))
                for name in ("dt_min", "dt_max", "d_fixed")}
        if not (real["dt_min"] and self.dt_min > 0):
            # the running cost's sqrt(dt) has no derivative at 0
            raise ValueError(
                f"dt_min must be a positive number, got {self.dt_min!r}")
        if not (real["dt_max"] and self.dt_min <= self.dt_max < math.inf):
            # the default guess's time steps are the bounds' midpoint
            raise ValueError(f"dt_max {self.dt_max!r} must be a finite "
                             f"number of at least dt_min {self.dt_min}")
        if not (real["d_fixed"] and 0.0 <= self.d_fixed < math.inf):
            raise ValueError(f"d_fixed must be a finite number >= 0, got "
                             f"{self.d_fixed!r}")

    @property
    def contact_node(self):
        """The nominal contact: the middle node, where the robust
        reference branches."""
        return middle_branch_index(self.k_first, self.k_last)

    @property
    def branch_nodes(self):
        return list(range(self.k_first, self.k_last + 1))

    @property
    def branched(self):
        """Whether a branch leaves from each node of the window (sure,
        tree); the nominal problem's impact stays on the common part."""
        return self.variant != "nominal"

    @property
    def contact_nodes(self):
        """Common nodes an impact may leave from."""
        return self.branch_nodes if self.branched else [self.contact_node]

    @property
    def n_branches(self):
        """The window's size, branched or not."""
        return self.k_last - self.k_first + 1

    @property
    def n_common(self):
        """Intervals of the common trajectory: the tree's ends at the
        window's last node, every other one at the horizon."""
        return self.k_last if self.variant == "tree" else self.N

    @property
    def branch_len(self):
        """Intervals of each branch; 0 when unbranched."""
        return {"nominal": 0, "sure": self.n_rejoin,
                "tree": self.n_branch_full}[self.variant]

    @property
    def skip_node(self):
        """The last contact node, if the common part goes on past it: the
        impact replaces its interval, so its step drives no dynamics, is
        left out of the running cost and is pinned to ``dt_impact``."""
        last = self.contact_nodes[-1]
        return last if last < self.n_common else None

    @property
    def rejoin_node(self):
        """Common node every rejoining branch ends on; None unless sure."""
        return self.k_last + 1 if self.variant == "sure" else None

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


def _read_only(values):
    a = np.array(values, dtype=float)
    a.flags.writeable = False
    return a


class SampleTable(NamedTuple):
    """What reference sampling reads, derived once from a Trajectory.

    Knots are Python floats for ``bisect``.  State rows and their slopes,
    ``slopes[j] = (rows[j+1] - rows[j]) / (times[j+1] - times[j])`` as
    numpy divides them, are tuples of Python floats.  The n input rows
    have the first n node times as knots.  They, their slopes and the
    ``zero_input`` that stands in when the trajectory has none are
    tuples of Python floats too, so that a sample is a row lookup or a
    few float operations per entry, never a numpy call.  Held on each
    interval instead of interpolated, an input sample would be the row
    lookup alone.
    """

    times: list
    states: list
    slopes: list
    inputs: list
    u_slopes: list
    zero_input: tuple


def _slopes(rows, times):
    return np.diff(rows, axis=0) / np.diff(times)[:, None]


def _float_rows(rows):
    return [tuple(row) for row in rows.tolist()]


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
            times=times.tolist(), states=_float_rows(self.states),
            slopes=_float_rows(_slopes(self.states, times)),
            inputs=_float_rows(u),
            u_slopes=_float_rows(_slopes(u, times[:n])),
            zero_input=(0.0,) * n_u)


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
        self.lower = np.full(n_vars, -np.inf)
        self.upper = np.full(n_vars, np.inf)
        self.cost_blocks = []
        self.eq_blocks = []
        self.ineq_blocks = []

    def add_cost(self, name, fun, indices):
        self.cost_blocks.append(Block(name, fun, np.atleast_2d(indices)))

    def add_eq(self, name, fun, indices):
        self.eq_blocks.append(Block(name, fun, np.atleast_2d(indices)))

    def add_ineq(self, name, fun, indices):
        self.ineq_blocks.append(Block(name, fun, np.atleast_2d(indices)))

    def set_bounds(self, idx, lo, hi):
        self.lower[idx] = lo
        self.upper[idx] = hi

    def fix(self, idx, values):
        self.lower[idx] = values
        self.upper[idx] = values

    def finish(self):
        return NlpProblem(
            lower=self.lower,
            upper=self.upper,
            cost_blocks=self.cost_blocks,
            eq_blocks=self.eq_blocks,
            ineq_blocks=self.ineq_blocks,
        )


class PlantOcp:
    """Adapter interface a plant implements to participate in transcription.

    Residual callbacks receive recorded (``autodiff.Node``) or float
    values; index rows are int arrays with one row per node.  A block's
    output count is the length of the list its callback returns.  The 15
    hooks:

    * ``target`` / ``hold`` -- the state every solve ends at, and the
      input that holds it there; the tracking gains are designed about it.
    * ``system()`` -- the plant's ``HybridSystemDef``.
    * ``dt_impact`` -- the interval an impact occupies: the pinned step
      of the node it leaves from, and the robust reference's impact step.
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
    * ``emit_transition`` -- ``(builder, layout, post_rows)``: the impact
      blocks from the pre-impact nodes ``layout.cfg.contact_nodes`` to
      the post-impact state rows ``post_rows``.
    * ``emit_extra_blocks`` -- ``(builder, layout)``: bounds of the
      auxiliary variables and anything beyond the shared scaffolding.
    * ``branch_seed`` -- ``(x_pre, u_pre)``: post-transition guess for
      warm starts.
    * ``initial_guess_extras`` -- ``(layout, x0)``: guesses of the
      auxiliary variables.

    Hooks read the formulation's shape from ``layout.cfg``, except
    ``register_variables``, which runs before there is a layout.
    """

    n_x: int
    n_u: int
    clearance_after_contact = True
    target: np.ndarray
    hold: np.ndarray
    dt_impact: float

    def system(self):
        raise NotImplementedError

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
        """List of (name, fun(x_vars)->outputs) state-only path ineqs."""
        return []

    def emit_transition(self, builder, layout, post_rows):
        """Impact/reset blocks from the common pre-impact nodes
        ``layout.cfg.contact_nodes`` to the post-impact state rows."""
        raise NotImplementedError

    def emit_extra_blocks(self, builder, layout):
        """Bounds of the auxiliary variables and anything beyond the shared
        scaffolding (time chains, v_lim, ...)."""

    def branch_seed(self, x_pre, u_pre):
        """Post-transition state guess and per-branch auxiliary guesses.

        Returns ``(x_post, extras)``.  Each key of ``extras`` names an
        array that this adapter's ``register_variables`` adds to every
        branched layout, one row per branch, and maps to that row's guess.
        Used to seed branch variables when warm-starting a branched
        problem from an unbranched solution.  Default: identity reset.
        """
        return np.asarray(x_pre, dtype=float).copy(), {}

    def initial_guess_extras(self, layout, x0):
        """Fill plant-specific slots of the initial guess in place."""


# -- layout construction ------------------------------------------------------


def _make_layout(adapter: PlantOcp, cfg: TranscriptionConfig):
    lb = LayoutBuilder()
    n_common = cfg.n_common
    lb.add("x", (n_common + 1, adapter.n_x))
    # every node an impact leaves from keeps its input, which feeds the
    # transition: the tree's common part ends at such a node, so it has
    # one more input than intervals
    lb.add("u", (max(n_common, cfg.contact_nodes[-1] + 1), adapter.n_u))
    lb.add("dt", (n_common,))
    if cfg.branched:
        K, L = cfg.n_branches, cfg.branch_len
        lb.add("bx", (K, L + 1, adapter.n_x))
        lb.add("bu", (K, L, adapter.n_u))
        lb.add("bdt", (K, L))
    adapter.register_variables(lb, cfg)
    return TranscriptionLayout(cfg=cfg, n_vars=lb.n_vars, arrays=lb.names)


# -- shared scaffolding -------------------------------------------------------


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


def _emit_dynamics(builder, adapter, layout):
    """One ``dynamics`` block over every interval that drives dynamics:
    the common ones but ``skip_node``, then each branch's, in branch
    order.  A branch leaves and rejoins under the common part's plant
    dynamics, so one callback and one tape serve both."""
    n_x, n_u = adapter.n_x, adapter.n_u

    def defect(v):
        x = v[:n_x]
        u = v[n_x : n_x + n_u]
        dt = v[n_x + n_u]
        x_next = v[n_x + n_u + 1 :]
        return adapter.dynamics_defect(x, u, dt, x_next)

    rows = _interval_rows(layout.arrays, skip=layout.cfg.skip_node,
                          with_next=True)
    if layout.cfg.branched:
        rows = np.concatenate(
            [rows, _interval_rows(layout.arrays, "b", with_next=True)])
    builder.add_eq("dynamics", defect, rows)


def _emit_costs(builder, adapter, layout):
    cfg = layout.cfg
    n_x, n_u = adapter.n_x, adapter.n_u

    def running(v):
        return adapter.node_cost(
            v[:n_x], v[n_x : n_x + n_u], ad.sqrt(v[n_x + n_u]))

    rows = _interval_rows(layout.arrays, skip=cfg.skip_node)
    builder.add_cost("common_running_cost", running, rows)

    if cfg.branched:
        w = cfg.branch_weight

        def branch_cost(v):
            return adapter.node_cost(
                v[:n_x], v[n_x : n_x + n_u],
                ad.sqrt(v[n_x + n_u]) * np.sqrt(w))

        builder.add_cost("branch_running_cost", branch_cost,
                         _interval_rows(layout.arrays, "b"))


def _emit_guard_blocks(builder, adapter, layout):
    cfg = layout.cfg
    if not cfg.branched:
        c = cfg.contact_node
        builder.add_eq("guard_zero_at_contact",
                       lambda v: [adapter.guard_expr(v)],
                       adapter.guard_indices(layout, [c]))
        if adapter.clearance_after_contact:
            free_nodes = [i for i in range(cfg.N + 1) if i not in (c, cfg.N)]
        else:
            free_nodes = list(range(c))
        # strict g > 0 as  -g + eps <= 0
        builder.add_ineq("guard_clearance",
                         lambda v: [STRICT_EPS - adapter.guard_expr(v)],
                         adapter.guard_indices(layout, free_nodes))
        return

    # sure / tree: guard pinned to +d / -d at the window edges, clearance
    # beyond the broadened region elsewhere.
    d = cfg.d_fixed

    builder.add_eq(
        "guard_pin_window_entry", lambda v: [adapter.guard_expr(v) - d],
        adapter.guard_indices(layout, [cfg.k_first]))
    builder.add_eq(
        "guard_pin_window_exit", lambda v: [adapter.guard_expr(v) + d],
        adapter.guard_indices(layout, [cfg.k_last]))

    clear_nodes = list(range(cfg.k_first))
    if adapter.clearance_after_contact and cfg.rejoin_node is not None:
        clear_nodes += list(range(cfg.rejoin_node, cfg.N + 1))
    builder.add_ineq(
        "guard_clearance_beyond_window",
        lambda v: [d + STRICT_EPS - adapter.guard_expr(v)],
        adapter.guard_indices(layout, clear_nodes))


def _emit_path_constraints(builder, adapter, layout):
    rows = layout.arrays["x"]
    if layout.cfg.branched:
        rows = np.concatenate(
            [rows, layout.arrays["bx"].reshape(-1, adapter.n_x)])
    for name, fun in adapter.path_constraints():
        builder.add_ineq(name, fun, rows)


def _emit_rejoin(builder, adapter, layout):
    n_x = adapter.n_x
    ends = layout.arrays["bx"][:, -1]
    rejoin = np.broadcast_to(layout.arrays["x"][layout.cfg.rejoin_node],
                             ends.shape)
    builder.add_eq("branch_rejoin_pinning",
                   lambda v: [v[i] - v[n_x + i] for i in range(n_x)],
                   np.hstack([ends, rejoin]))


# -- builders -----------------------------------------------------------------


def build(adapter: PlantOcp, cfg: TranscriptionConfig):
    layout = _make_layout(adapter, cfg)
    builder = ProblemBuilder(layout.n_vars)
    arrays = layout.arrays

    # time steps and boundary conditions
    builder.set_bounds(arrays["dt"], cfg.dt_min, cfg.dt_max)
    if cfg.skip_node is not None:
        builder.fix(arrays["dt"][cfg.skip_node], adapter.dt_impact)
    if cfg.branched:
        builder.set_bounds(arrays["bdt"], cfg.dt_min, cfg.dt_max)
    builder.fix(arrays["x"][0], np.asarray(cfg.x_init, dtype=float))
    # the horizon ends on the common part, or on every branch where the
    # common part stops short of it (tree)
    ends = arrays["x"][cfg.N] if cfg.n_common == cfg.N else arrays["bx"][:, -1]
    builder.fix(ends, np.asarray(cfg.x_end, dtype=float))

    _emit_costs(builder, adapter, layout)
    _emit_dynamics(builder, adapter, layout)
    _emit_guard_blocks(builder, adapter, layout)
    _emit_path_constraints(builder, adapter, layout)

    post_rows = (arrays["bx"][:, 0] if cfg.branched
                 else arrays["x"][[cfg.contact_node + 1]])
    adapter.emit_transition(builder, layout, post_rows)
    if cfg.rejoin_node is not None:
        _emit_rejoin(builder, adapter, layout)

    adapter.emit_extra_blocks(builder, layout)
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
    x0[arrays["x"]] = interpolate_rows(xi, xe, cfg.n_common)
    dt_mid = 0.5 * (cfg.dt_min + cfg.dt_max)
    x0[arrays["dt"]] = dt_mid
    if cfg.branched:
        start = x0[arrays["x"][cfg.branch_nodes]]
        target = (xe if cfg.rejoin_node is None
                  else x0[arrays["x"][cfg.rejoin_node]])
        x0[arrays["bx"]] = interpolate_rows(start, target, cfg.branch_len)
        x0[arrays["bdt"]] = dt_mid
    adapter.initial_guess_extras(layout, x0)
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
    branch_nodes = cfg.branch_nodes if cfg.branched else []
    branches = [
        Trajectory(states=x_raw[layout.arrays["bx"][k]],
                   inputs=x_raw[layout.arrays["bu"][k]],
                   dts=x_raw[layout.arrays["bdt"][k]])
        for k in range(len(branch_nodes))
    ]
    return SolutionBundle(
        common=common,
        branches=branches,
        branch_nodes=branch_nodes,
        rejoin_index=cfg.rejoin_node,
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
