"""Cart-pole-with-wall hooks for the OCP transcription layer.

Decision variables beyond the shared layout: one contact force pair
(normal, tangential) per possible impact node.  The impact is modeled
as a constant force acting over a short fixed interval with positions
frozen, a restitution equality on the normal tip velocity, and a
friction-cone inequality on the force.
"""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from ..transcription import PlantOcp, STRICT_EPS
from .cartpole import (CartPoleEnv, CartPoleParams, X_EQ, accel, guard,
                       impact_map, make_system)

CONE_SMOOTHING = 1e-8
# running-cost weights on the state's deviation from upright and the input
W_STATE = np.array([10.0, 10.0, 1.0, 1.0])
W_TAU = 1.0


class CartPoleOcp(PlantOcp):
    n_x = 4
    n_u = 1

    def __init__(self, params: CartPoleParams = None, env: CartPoleEnv = None):
        self.p = params if params is not None else CartPoleParams()
        self.env = env if env is not None else CartPoleEnv()
        self.target = X_EQ.copy()  # upright and at rest, unforced
        self.hold = np.zeros(1)

    # -- shared hooks --------------------------------------------------------

    @property
    def dt_impact(self):
        return self.p.dt_impact

    def system(self):
        return make_system(self.p, self.env)

    def node_cost(self, x, u, scale):
        out = [
            scale * np.sqrt(W_STATE[i]) * (x[i] - self.target[i])
            for i in range(4)
        ]
        out.append(scale * np.sqrt(W_TAU) * u[0])
        return out

    def dynamics_defect(self, x, u, dt, x_next):
        # semi-implicit Euler: velocities first, then positions
        xdd, thdd = accel(x[1], x[3], u[0], 0.0, 0.0, self.p)
        vx = x[2] + xdd * dt
        vth = x[3] + thdd * dt
        return [
            x_next[0] - (x[0] + vx * dt),
            x_next[1] - (x[1] + vth * dt),
            x_next[2] - vx,
            x_next[3] - vth,
        ]

    def guard_expr(self, v):
        return guard(v, self.env, self.p)

    def path_constraints(self):
        limit = self.env.x_wall + 0.5 * self.p.w_cart + STRICT_EPS

        def cart_clearance(v):
            return [limit - v[0]]

        return [("cart_body_wall_clearance", cart_clearance)]

    # -- impact transition ----------------------------------------------------

    def register_variables(self, lb, cfg):
        lb.add("F", (len(cfg.contact_nodes), 2))

    def emit_extra_blocks(self, builder, layout):
        F = layout.arrays["F"]
        builder.set_bounds(F[:, 0], STRICT_EPS, np.inf)  # normal force pushes

    def _impact_residual(self, v):
        # v = [x_pre(4), tau, x_post(4), fx, fy]
        x_pre, tau, x_post = v[:4], v[4], v[5:9]
        fx, fy = v[9], v[10]
        p, e = self.p, self.env.e
        xdd, thdd = accel(x_pre[1], x_pre[3], tau, fx, fy, p)
        vx = x_pre[2] + xdd * p.dt_impact
        vth = x_pre[3] + thdd * p.dt_impact
        c = ad.cos(x_pre[1])
        restitution = (vx + p.l * c * vth) + e * (x_pre[2] + p.l * c * x_pre[3])
        return [
            x_post[0] - x_pre[0],
            x_post[1] - x_pre[1],
            x_post[2] - vx,
            x_post[3] - vth,
            restitution,
        ]

    def _cone_residual(self, v):
        fx, fy = v[0], v[1]
        return [ad.sqrt(fy * fy + CONE_SMOOTHING) - self.env.mu * fx]

    def emit_transition(self, builder, layout, post_rows):
        pre = layout.cfg.contact_nodes
        F = layout.arrays["F"]
        rows = np.hstack([layout.arrays["x"][pre], layout.arrays["u"][pre],
                          post_rows, F])
        builder.add_eq("impact_restitution_map", self._impact_residual, rows)
        builder.add_ineq("impact_friction_cone", self._cone_residual, F)

    def branch_seed(self, x_pre, u_pre):
        dt = self.p.dt_impact
        post, impulse = impact_map(np.asarray(x_pre, dtype=float),
                                   float(u_pre[0]), dt, self.env, self.p)
        return post, {"F": impulse / dt}

    def initial_guess_extras(self, layout, x0):
        x0[layout.arrays["F"][:, 0]] = 1.0
