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
from .. import simulation
from ..hybrid import HybridSystemDef

X_EQ = np.array([0.0, math.pi, 0.0, 0.0])


@dataclass(frozen=True)
class CartPoleParams:
    m_c: float = 0.3
    m_p: float = 1.0
    l: float = 0.4
    gravity: float = 9.81
    mu: float = 0.7
    w_cart: float = 0.08
    dt_impact: float = 1e-3

    def __post_init__(self):
        if self.m_c <= 0 or self.m_p <= 0 or self.l <= 0 or self.w_cart <= 0:
            raise ValueError("masses, pole length and cart width must be positive")
        if self.mu < 0:
            raise ValueError("need mu >= 0")
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


def impact_map(state, tau, dt, env: CartPoleEnv, p: CartPoleParams):
    """Restitution map at the guard surface, the plant's one impact law.

    Solves the velocity-level contact problem for a constant contact
    force held, with the input ``tau``, over an interval ``dt`` with
    positions frozen; the interval's free-motion drift acts alongside
    the impulse.  The simulator's impact is the case ``dt = 0``, an
    instantaneous impulse (the drift is then zero); the warm start takes
    the OCP's ``dt_impact``.  The impulse comes from the module-level
    name ``simulation.pgs_solve``, looked up when called.  Returns
    (post_state, impulse); the equivalent constant contact force is
    impulse / dt.
    """
    q, qd = state[:2], state[2:]
    J = contact_jacobian(q, p)
    Minv = np.linalg.inv(mass_matrix(q, p))
    G = J @ Minv @ J.T
    v = J @ qd
    drift = Minv @ (np.array([tau, 0.0]) - bias_vector(q, qd, p)) * dt
    impulse = simulation.pgs_solve(G, v, env.e, env.mu, bias=J @ drift)
    qd_post = qd + Minv @ (J.T @ impulse) + drift
    post = np.concatenate([q, qd_post])
    return post, impulse


def make_system(p: CartPoleParams, env: CartPoleEnv) -> HybridSystemDef:
    """The cart-pole for the simulator and the gain design: the flow
    ``accel`` without contact forces, and ``impact_map`` at ``dt = 0``.

    ``env`` is not read: a rollout hands its env to ``simulate``.  The
    argument stays while ``perfbench/workloads.py`` passes it.
    """
    return HybridSystemDef(
        n_u=1,
        derivative=lambda s, u: np.concatenate(
            [s[2:], accel(s[1], s[3], u[0], 0.0, 0.0, p)]),
        # ``guard``'s expression on floats: math.sin is np.sin to the bit
        guard=lambda t, s, e: s[0] + p.l * math.sin(s[1]) - e.x_wall,
        impact=lambda s, e: impact_map(s, 0.0, 0.0, e, p),
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
