"""Cart-pole with a wall: dynamics, guard, impact map, costs.

State ordering is [x, theta, xdot, thetadot].  The pole mass is a point
mass at the tip; theta = pi is the upright equilibrium with the tip above
the cart.  The wall is vertical at x_wall (to the left of the cart's
workspace); the guard is the horizontal clearance of the pole tip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..contact2d import exact_cone_impulse
from ..hybrid import HybridSystemDef
from ..simulation import rigid_impact

X_EQ = np.array([0.0, math.pi, 0.0, 0.0])


@dataclass(frozen=True)
class CartPoleParams:
    m_c: float = 0.3
    m_p: float = 1.0
    l: float = 0.4
    gravity: float = 9.81
    mu: float = 0.7
    e: float = 0.8
    x_wall: float = -0.5
    w_cart: float = 0.08
    dt_impact: float = 1e-3

    def __post_init__(self):
        if self.m_c <= 0 or self.m_p <= 0 or self.l <= 0 or self.w_cart <= 0:
            raise ValueError("masses, pole length and cart width must be positive")
        if self.mu < 0 or not 0.0 <= self.e <= 1.0:
            raise ValueError("need mu >= 0 and e in [0, 1]")
        if not 0.0 < self.dt_impact < math.inf:
            # the branch seed's force is the impulse over dt_impact
            raise ValueError(f"dt_impact must be a positive finite number, "
                             f"got {self.dt_impact!r}")


@dataclass(frozen=True)
class CartPoleEnv:
    """Per-trial environment: wall position, restitution, friction."""

    x_wall: float = -0.5
    e: float = 0.8
    mu: float = 0.7

    def __post_init__(self):
        if not 0.0 <= self.e <= 1.0 or self.mu < 0:
            raise ValueError("need e in [0, 1] and mu >= 0")


def env_from_params(p: CartPoleParams) -> CartPoleEnv:
    return CartPoleEnv(x_wall=p.x_wall, e=p.e, mu=p.mu)


# -- dynamics ---------------------------------------------------------------


def accel(theta, thetadot, tau, fx, fy, p: CartPoleParams):
    """Generalized accelerations (xdd, thdd), of recorded
    (``autodiff.Node``) or float arguments.

    Solves M(q) qdd = [1,0]^T tau + Jc^T F - H(q, qd) with the 2x2 mass
    matrix inverted in closed form.
    """
    s, c = ad.sin(theta), ad.cos(theta)
    a = p.m_c + p.m_p
    bm = p.m_p * p.l * c
    cm = p.m_p * p.l**2
    hx = p.m_p * p.l * s * (-(thetadot * thetadot))
    hth = p.m_p * p.l * s * p.gravity
    r0 = tau + fx - hx
    r1 = p.l * c * fx + p.l * s * fy - hth
    det = a * cm - bm * bm
    xdd = (cm * r0 - bm * r1) / det
    thdd = (a * r1 - bm * r0) / det
    return xdd, thdd


def forward_dynamics(q, qd, u, p: CartPoleParams):
    tau = u[0] if np.ndim(u) else u
    xdd, thdd = accel(q[1], qd[1], tau, 0.0, 0.0, p)
    return np.array([xdd, thdd])


# -- contact geometry -------------------------------------------------------


def guard(state, env: CartPoleEnv, p: CartPoleParams):
    """Signed horizontal clearance of the pole tip from the wall."""
    return state[0] + p.l * ad.sin(state[1]) - env.x_wall


def contact_jacobian(q, p: CartPoleParams):
    """Rows: normal (horizontal) and tangential (vertical) tip directions."""
    c = math.cos(q[1])
    s = math.sin(q[1])
    return np.array([[1.0, p.l * c], [0.0, p.l * s]])


def mass_matrix(q, p: CartPoleParams):
    c = math.cos(q[1])
    return np.array(
        [
            [p.m_c + p.m_p, p.m_p * p.l * c],
            [p.m_p * p.l * c, p.m_p * p.l**2],
        ]
    )


def bias_vector(q, qd, p: CartPoleParams):
    s = math.sin(q[1])
    return p.m_p * p.l * s * np.array([-qd[1] ** 2, p.gravity])


# -- impact map -------------------------------------------------------------


def impact_map(state, tau, env: CartPoleEnv, p: CartPoleParams):
    """Closed-form restitution map at the guard surface.

    Solves the velocity-level contact problem over the assumed impact
    duration with positions frozen.  Returns (post_state, impulse); the
    equivalent constant contact force is impulse / dt_impact.
    """
    q, qd = state[:2], state[2:]
    J = contact_jacobian(q, p)
    Minv = np.linalg.inv(mass_matrix(q, p))
    G = J @ Minv @ J.T
    v = J @ qd
    drift = Minv @ (np.array([tau, 0.0]) - bias_vector(q, qd, p)) * p.dt_impact
    impulse = exact_cone_impulse(G, v, env.e, env.mu, bias=J @ drift)
    qd_post = qd + Minv @ (J.T @ impulse) + drift
    post = np.concatenate([q, qd_post])
    return post, impulse


def make_system(p: CartPoleParams, env: CartPoleEnv) -> HybridSystemDef:
    """The cart-pole for the simulator and the gain design.

    ``env`` is not read: a rollout hands its env to ``simulate``.  The
    argument stays while ``perfbench/workloads.py`` passes it.
    """
    return HybridSystemDef(
        n_q=2,
        n_u=1,
        free_dynamics=lambda q, qd, u: forward_dynamics(q, qd, u, p),
        # ``guard``'s expression on floats: math.sin is np.sin to the bit
        guard=lambda t, s, e: s[0] + p.l * math.sin(s[1]) - e.x_wall,
        impact=rigid_impact(lambda q: contact_jacobian(q, p),
                            lambda q: mass_matrix(q, p)),
        extras={"fast_derivative": _make_fast_derivative(p)},
    )


def _make_fast_derivative(p: CartPoleParams):
    """``accel`` without contact forces, on plain floats (simulator hot path).

    Returns deriv(state, tau) -> (xdot, thdot, xdd, thdd).
    """
    # exact: a product rounds left to right; each of these leads its term
    sin, cos = math.sin, math.cos
    a = p.m_c + p.m_p
    ml = p.m_p * p.l
    cm = p.m_p * p.l * p.l
    neg_ml = -p.m_p * p.l
    g = p.gravity
    a_cm = a * cm

    def deriv(state, tau):
        thd = state[3]
        s = sin(state[1])
        bm = ml * cos(state[1])
        r0 = tau + ml * s * thd * thd
        r1 = neg_ml * s * g
        det = a_cm - bm * bm
        return (state[2], thd, (cm * r0 - bm * r1) / det,
                (a * r1 - bm * r0) / det)

    return deriv
