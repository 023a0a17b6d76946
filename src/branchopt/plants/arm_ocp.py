"""Ball-catch hooks for the OCP transcription layer.

Beyond the shared layout the arm carries explicit accumulated-time
variables t_i (the falling ball's position depends on elapsed time, so
the guard must see it) chained to the time steps, and — in the branched
variant — the scalar relative-speed bound v_lim, minimized in the cost
and enforced at every branching node.
"""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from ..transcription import PlantOcp
from .arm import (
    ArmCatchParams,
    ball_state,
    ee_velocity,
    fk,
    forward_dynamics,
    gravity_torque,
    guard,
    level_configuration,
    make_system,
)

V_LIM_FLOOR = 1e-6  # keeps the sqrt cost residual differentiable


class ArmCatchOcp(PlantOcp):
    n_x = 6
    n_u = 3
    clearance_after_contact = False  # the ball attaches; no post-catch guard
    dt_impact = 1e-3  # the interval the catch occupies

    def __init__(self, params: ArmCatchParams = None):
        self.p = params if params is not None else ArmCatchParams()
        # at rest with the level container at the catch point
        q = level_configuration(self.p.catch_point, self.p)
        self.target = np.concatenate([q, np.zeros(3)])
        self.hold = gravity_torque(q, self.p)

    def system(self):
        return make_system(self.p)

    # -- core residuals --------------------------------------------------------

    def _qdd(self, x, u):
        return forward_dynamics(x[:3], x[3:6], u, self.p)

    def dynamics_defect(self, x, u, dt, x_next):
        # forward Euler on [q; qd] with qdd implied by the torque
        qdd = self._qdd(x, u)
        out = []
        for k in range(3):
            out.append(x_next[k] - (x[k] + x[3 + k] * dt))
        for k in range(3):
            out.append(x_next[3 + k] - (x[3 + k] + qdd[k] * dt))
        return out

    def node_cost(self, x, u, scale):
        qdd = self._qdd(x, u)
        w = np.sqrt(self.p.w_a)
        return [w * scale * qdd[k] for k in range(3)]

    # -- guard (needs the accumulated time) ------------------------------------

    def guard_indices(self, layout, nodes):
        return np.column_stack([layout.arrays["x"][nodes],
                                layout.arrays["t"][nodes]])

    def guard_expr(self, v):
        # v = [q(3), qd(3), t]
        return guard(v[6], v, self.p)

    def _rel_velocity(self, v):
        # v = [q(3), qd(3), t] -> end-effector minus ball velocity
        _, (bvx, bvz) = ball_state(v[6], self.p.p_ball0, self.p.v_ball0, self.p.g)
        vx, vz = ee_velocity(v[:3], v[3:6], self.p)
        return vx - bvx, vz - bvz

    # -- state-only path constraints -------------------------------------------

    def path_constraints(self):
        p = self.p

        def container_level(v):
            _, _, alpha = fk(v[:3], p)
            return [1.0 - ad.cos(alpha - p.level_angle) - p.eps]

        def drop_line_alignment(v):
            px, _, _ = fk(v[:3], p)
            dx = px - p.p_ball0[0]
            return [dx * dx - p.eps]

        return [
            ("container_level", container_level),
            ("drop_line_alignment", drop_line_alignment),
        ]

    # -- auxiliary variables ----------------------------------------------------

    def register_variables(self, lb, cfg):
        lb.add("t", (cfg.contact_nodes[-1] + 1,))
        if cfg.branched:
            lb.add("vlim", (1,))

    def emit_extra_blocks(self, builder, layout):
        t_idx = layout.arrays["t"]
        builder.fix(t_idx[:1], 0.0)
        builder.set_bounds(t_idx[1:], 0.0, np.inf)
        dt = layout.arrays["dt"][: len(t_idx) - 1]
        builder.add_eq("elapsed_time_chain", lambda v: [v[1] - v[0] - v[2]],
                       np.column_stack([t_idx[:-1], t_idx[1:], dt]))
        rows = self.guard_indices(layout, layout.cfg.contact_nodes)
        if not layout.cfg.branched:

            def catch_velocity(v):
                dvx, dvz = self._rel_velocity(v)
                return [dvx, dvz]

            builder.add_cost("catch_relative_velocity", catch_velocity, rows)
        else:
            vlim = layout.arrays["vlim"]
            builder.set_bounds(vlim, V_LIM_FLOOR, np.inf)
            builder.add_cost("relative_speed_bound",
                             lambda v: [ad.sqrt(v[0])], vlim[None])

            def speed_bound(v):
                dvx, dvz = self._rel_velocity(v[:7])
                return [dvx * dvx + dvz * dvz - v[7] * v[7]]

            builder.add_ineq(
                "relative_speed_within_bound", speed_bound,
                np.column_stack([rows, np.repeat(vlim, len(rows))]))

    # -- transition: the ball attaches, the arm state carries over --------------

    def emit_transition(self, builder, layout, post_rows):
        pre_rows = layout.arrays["x"][layout.cfg.contact_nodes]
        builder.add_eq("catch_state_continuity",
                       lambda v: [v[j] - v[6 + j] for j in range(6)],
                       np.hstack([pre_rows, post_rows]))

    # -- initial guess -----------------------------------------------------------

    def initial_guess_extras(self, layout, x0):
        t_idx = layout.arrays["t"]
        dts = x0[layout.arrays["dt"][: len(t_idx) - 1]]
        x0[t_idx] = np.concatenate([[0.0], np.cumsum(dts)])
        if layout.cfg.branched:
            x0[layout.arrays["vlim"]] = 1.0
