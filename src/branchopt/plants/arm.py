"""Planar 3-link arm catching a vertically falling ball.

A desk-scale analog of a torque-controlled manipulator catch: point-mass
links in a vertical plane, a container at the tool flange that must stay
level, and a ball dropping along a fixed vertical line.  The ball mass is
assumed negligible, so contact leaves the arm state unchanged (the ball
attaches) and post-catch dynamics are the free-arm dynamics.

Coordinates: joint angles q (relative), plane axes (horizontal x, vertical
z), gravity along -z.  Absolute link angles are measured from +x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..hybrid import HybridSystemDef

__all__ = [
    "ArmCatchParams",
    "fk",
    "tip_positions",
    "translational_jacobian",
    "forward_dynamics",
    "gravity_torque",
    "ball_state",
    "guard",
    "make_system",
    "level_configuration",
]


@dataclass
class ArmCatchParams:
    lengths: tuple = (0.35, 0.35, 0.10)
    masses: tuple = (1.0, 1.0, 0.3)  # point masses at link tips
    g: float = 9.81
    p_ball0: tuple = (0.0, 1.0)  # drop line (x) and nominal release height (z)
    v_ball0: tuple = (0.0, 0.0)
    r_ball: float = 0.05
    eps: float = 1e-3  # orientation / alignment inequality tolerance
    w_a: float = 1e-2  # accumulated joint-acceleration weight
    level_angle: float = 0.0  # absolute tool angle at which the container is level
    catch_height: float = 0.3  # z of the catch point; its x is the drop line's

    def __post_init__(self):
        if len(self.lengths) != 3 or len(self.masses) != 3:
            raise ValueError("three links required")
        if len(self.p_ball0) != 2 or len(self.v_ball0) != 2:
            raise ValueError("p_ball0 and v_ball0 must be (x, z) pairs")
        if min(self.lengths) <= 0 or min(self.masses) <= 0:
            raise ValueError("lengths and masses must be positive")
        if self.r_ball < 0 or self.eps <= 0:
            raise ValueError("r_ball must be >= 0 and eps > 0")
        if not self.w_a >= 0:
            # the running cost weights the accelerations by sqrt(w_a)
            raise ValueError(f"w_a must be >= 0, got {self.w_a!r}")
        try:
            level_configuration(self.catch_point, self)
        except ValueError as err:
            raise ValueError(f"catch_height {self.catch_height!r}: {err}") \
                from None

    @property
    def catch_point(self):
        """Where the level container meets the ball: on the drop line, at
        ``catch_height``."""
        return self.p_ball0[0], self.catch_height


def _abs_angles(q):
    a1 = q[0]
    a2 = q[0] + q[1]
    a3 = q[0] + q[1] + q[2]
    return a1, a2, a3


def tip_positions(q, p: ArmCatchParams):
    """Cartesian positions of the three link tips, as ((x, z), ...)."""
    l1, l2, l3 = p.lengths
    a1, a2, a3 = _abs_angles(q)
    p1 = (l1 * ad.cos(a1), l1 * ad.sin(a1))
    p2 = (p1[0] + l2 * ad.cos(a2), p1[1] + l2 * ad.sin(a2))
    p3 = (p2[0] + l3 * ad.cos(a3), p2[1] + l3 * ad.sin(a3))
    return p1, p2, p3


def fk(q, p: ArmCatchParams):
    """End-effector position (x, z) and absolute tool angle."""
    _, _, p3 = tip_positions(q, p)
    a3 = q[0] + q[1] + q[2]
    return p3[0], p3[1], a3


def translational_jacobian(q, p: ArmCatchParams):
    """2x3 Jacobian of the end-effector position wrt joint angles."""
    l1, l2, l3 = p.lengths
    a1, a2, a3 = _abs_angles(q)
    # column j sums the contributions of links j..3
    s = [ad.sin(a1) * l1, ad.sin(a2) * l2, ad.sin(a3) * l3]
    c = [ad.cos(a1) * l1, ad.cos(a2) * l2, ad.cos(a3) * l3]
    row_x = [-(s[0] + s[1] + s[2]), -(s[1] + s[2]), -s[2]]
    row_z = [c[0] + c[1] + c[2], c[1] + c[2], c[2]]
    return row_x, row_z


def ee_velocity(q, qd, p: ArmCatchParams):
    row_x, row_z = translational_jacobian(q, p)
    vx = row_x[0] * qd[0] + row_x[1] * qd[1] + row_x[2] * qd[2]
    vz = row_z[0] * qd[0] + row_z[1] * qd[1] + row_z[2] * qd[2]
    return vx, vz


def _mu(p: ArmCatchParams):
    m1, m2, m3 = p.masses
    # mu[i][j] = total mass carried by both links i and j (point masses at tips)
    t1, t2, t3 = m1 + m2 + m3, m2 + m3, m3
    return ((t1, t2, t3), (t2, t2, t3), (t3, t3, t3))


def _mass_matrix_abs(a, p: ArmCatchParams):
    """3x3 mass matrix in absolute link angles (point masses at tips)."""
    l = p.lengths
    mu = _mu(p)
    M = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            M[i][j] = mu[i][j] * l[i] * l[j] * ad.cos(a[i] - a[j])
    return M


def _gravity_abs(a, p: ArmCatchParams):
    """Gravity vector in absolute angles."""
    l = p.lengths
    carried = (sum(p.masses), p.masses[1] + p.masses[2], p.masses[2])
    return [carried[i] * p.g * l[i] * ad.cos(a[i]) for i in range(3)]


def _bias_abs(a, adot, p: ArmCatchParams):
    """Coriolis/centrifugal + gravity vector in absolute angles."""
    l = p.lengths
    mu = _mu(p)
    grav = _gravity_abs(a, p)
    out = []
    for i in range(3):
        cor = 0.0
        for j in range(3):
            cor = cor + mu[i][j] * l[i] * l[j] * ad.sin(a[i] - a[j]) * adot[j] * adot[j]
        out.append(cor + grav[i])
    return out


def _solve3(M, b):
    """Solve a 3x3 linear system by cofactors, on recorded
    (``autodiff.Node``) or float entries."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = M
    c00 = m11 * m22 - m12 * m21
    c01 = m12 * m20 - m10 * m22
    c02 = m10 * m21 - m11 * m20
    det = m00 * c00 + m01 * c01 + m02 * c02
    c10 = m02 * m21 - m01 * m22
    c11 = m00 * m22 - m02 * m20
    c12 = m01 * m20 - m00 * m21
    c20 = m01 * m12 - m02 * m11
    c21 = m02 * m10 - m00 * m12
    c22 = m00 * m11 - m01 * m10
    x0 = (c00 * b[0] + c10 * b[1] + c20 * b[2]) / det
    x1 = (c01 * b[0] + c11 * b[1] + c21 * b[2]) / det
    x2 = (c02 * b[0] + c12 * b[1] + c22 * b[2]) / det
    return x0, x1, x2


def forward_dynamics(q, qd, tau, p: ArmCatchParams):
    """Joint accelerations from M(q)q̈ + H(q, q̇) = τ.

    Formulated in absolute link angles (where the point-mass chain has a
    simple closed form) and mapped back to joint coordinates.
    """
    a = _abs_angles(q)
    adot = _abs_angles(qd)  # cumulative sums apply to rates as well
    M = _mass_matrix_abs(a, p)
    h = _bias_abs(a, adot, p)
    # generalized force in absolute coordinates: (L^{-T} tau)_i = tau_i - tau_{i+1}
    f = (tau[0] - tau[1], tau[1] - tau[2], tau[2])
    rhs = (f[0] - h[0], f[1] - h[1], f[2] - h[2])
    addot = _solve3(M, rhs)
    # back to joint accelerations: qdd_i = addot_i - addot_{i-1}
    return [addot[0], addot[1] - addot[0], addot[2] - addot[1]]


def gravity_torque(q, p: ArmCatchParams):
    """Joint torque that holds the arm static at q: Lᵀ times the gravity
    vector in absolute angles (numeric)."""
    a = np.cumsum(np.asarray(q, dtype=float))
    ha = np.array(_gravity_abs(a, p), dtype=float)
    return np.tril(np.ones((3, 3))).T @ ha


# -- ball ballistics -----------------------------------------------------------


def ball_state(t, p0, v0, g):
    """Position and velocity of the free-falling ball at time t (closed form)."""
    px = p0[0] + v0[0] * t
    pz = p0[1] + v0[1] * t - 0.5 * g * t * t
    return (px, pz), (v0[0], v0[1] - g * t)


def guard(t, state, env: ArmCatchParams):
    """Height of the ball's bottom above the container at time t.

    ``env`` gives the ball's release (``p_ball0``, ``v_ball0``) and the
    arm geometry; ``state`` may be recorded (``autodiff.Node``) or float.
    """
    (_, bz), _ = ball_state(t, env.p_ball0, env.v_ball0, env.g)
    _, pz, _ = fk(state[:3], env)
    return bz - env.r_ball - pz


def _attach(state, env):
    """The massless ball attaches: the arm state passes unchanged."""
    return np.array(state, dtype=float), np.zeros(2)


def make_system(p: ArmCatchParams) -> HybridSystemDef:
    """The arm for the simulator and the gain design: the flow
    ``forward_dynamics`` and the attaching ball.  A rollout's env is the
    ball release, ``p`` with ``p_ball0`` replaced, which it hands to
    ``simulate``."""
    return HybridSystemDef(
        n_u=3,
        derivative=lambda s, u: np.concatenate(
            [s[3:], forward_dynamics(s[:3], s[3:], u, p)]),
        guard=guard,
        impact=_attach,
    )


# -- inverse kinematics for boundary configurations ----------------------------


def level_configuration(p_target, p: ArmCatchParams):
    """Joint angles putting the end effector at p_target with a level tool.

    Closed-form elbow-up two-link inverse kinematics for the wrist, with
    the third joint absorbing the remaining tool angle.
    """
    l1, l2, l3 = p.lengths
    alpha = p.level_angle
    wx = p_target[0] - l3 * math.cos(alpha)
    wz = p_target[1] - l3 * math.sin(alpha)
    r2 = wx * wx + wz * wz
    c2 = (r2 - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
    if not -1.0 <= c2 <= 1.0:
        raise ValueError(f"target ({p_target[0]}, {p_target[1]}) out of reach")
    s2 = -math.sqrt(1.0 - c2 * c2)  # elbow up
    q2 = math.atan2(s2, c2)
    q1 = math.atan2(wz, wx) - math.atan2(l2 * s2, l1 + l2 * c2)
    q3 = alpha - q1 - q2
    return np.array([q1, q2, q3])
