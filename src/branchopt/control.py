"""Reference tracking with a branch switch on contact.

One controller, ``TrackingController``, serves both plants: a PD law
with feedforward, τ = K_p (q_des − q) + K_d (q̇_des − q̇) + τ_des.  The
cart-pole's gains come from an LQR design around the target
equilibrium: linearize the plant, solve the continuous-time algebraic
Riccati equation, and read the proportional/derivative gains off the
feedback row.  Given a branched solution, the controller plays the
common trajectory until contact is observed, then switches — exactly
once — to the nearest subsequent branch.

References are sampled from their ``Trajectory.sample_table``: node
times, rows and per-interval slopes, built once per reference and held
in read-only arrays.  A sample is a clamp, one ``bisect`` and one row
expression, the float expression ``np.interp`` evaluates for a scalar.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import autodiff as ad
from .transcription import SolutionBundle, Trajectory, post_contact_reference

__all__ = [
    "Gains",
    "linearize",
    "solve_care",
    "lqr_gains",
    "design_gains",
    "sample_reference",
    "pd_feedforward",
    "TrackingController",
]

DEFAULT_Q = np.diag([10.0, 0.0, 10.0, 0.0])
DEFAULT_R = 0.1


@dataclass
class Gains:
    """Proportional and derivative tracking gains.

    ``k_p`` and ``k_d`` map position and velocity errors to inputs
    through ``@``: a 1-D row for a single-input plant, an (n_u, n_q)
    matrix otherwise.
    """

    k_p: np.ndarray
    k_d: np.ndarray

    def __post_init__(self):
        self.k_p = np.asarray(self.k_p, dtype=float)
        self.k_d = np.asarray(self.k_d, dtype=float)


def _interleave_permutation(n_q):
    """Map [q; qd] coordinates onto [q1, qd1, q2, qd2, ...] ordering."""
    perm = np.empty(2 * n_q, dtype=int)
    perm[0::2] = np.arange(n_q)
    perm[1::2] = np.arange(n_q) + n_q
    return perm


EQ_TOL = 1e-10  # largest |f(x_eq, u_eq)| accepted as an equilibrium


def linearize(sys, x_eq, u_eq):
    """First-order model at an equilibrium, in interleaved state order.

    Returns (A, B) for the state [q1, q̇1, q2, q̇2, ...]; differentiation
    runs through the plant's dynamics callbacks.
    """
    x_eq = np.asarray(x_eq, dtype=float)
    u_eq = np.asarray(u_eq, dtype=float)
    resid = np.max(np.abs(sys.state_derivative(x_eq, u_eq)))
    if resid > EQ_TOL:
        raise ValueError(
            f"not an equilibrium: |f(x_eq, u_eq)| = {resid:.3e} > {EQ_TOL:.0e}"
        )
    n = x_eq.size

    def f_of_x(xs):
        q, qd = xs[: sys.n_q], xs[sys.n_q :]
        return list(qd) + list(sys.free_dynamics(q, qd, u_eq))

    def f_of_u(us):
        q, qd = x_eq[: sys.n_q], x_eq[sys.n_q :]
        return list(qd) + list(sys.free_dynamics(q, qd, us))

    A = ad.jacobian(f_of_x, x_eq)
    B = ad.jacobian(f_of_u, u_eq)
    perm = _interleave_permutation(sys.n_q)
    return A[np.ix_(perm, perm)], B[perm]


def solve_care(A, b, Q, r, residual_tol=1e-8):
    """Riccati matrix P for the single-input continuous-time LQR.

    Checks the defining residual and that the closed loop is Hurwitz.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1, 1)
    Q = np.asarray(Q, dtype=float)
    R = np.array([[float(r)]])
    P = scipy.linalg.solve_continuous_are(A, b, Q, R)
    P = 0.5 * (P + P.T)
    resid = A.T @ P + P @ A - P @ b @ b.T @ P / float(r) + Q
    worst = np.max(np.abs(resid))
    if worst > residual_tol:
        raise RuntimeError(
            f"Riccati residual {worst:.3e} exceeds {residual_tol:.0e}"
        )
    closed = A - b @ b.T @ P / float(r)
    if np.max(np.real(np.linalg.eigvals(closed))) >= 0.0:
        raise RuntimeError("closed-loop matrix is not Hurwitz")
    return P


def lqr_gains(A, b, Q, r) -> Gains:
    """Feedback row K = r⁻¹ bᵀ P split into proportional/derivative parts.

    Expects (A, b) in interleaved order so K alternates position and
    velocity entries.
    """
    P = solve_care(A, b, Q, r)
    K = (np.asarray(b, dtype=float).reshape(-1) @ P) / float(r)
    return Gains(k_p=K[0::2], k_d=K[1::2])


def design_gains(sys, x_eq, Q=DEFAULT_Q, r=DEFAULT_R) -> Gains:
    """LQR-designed tracking gains for a plant at an unforced equilibrium."""
    A, b = linearize(sys, x_eq, np.zeros(sys.n_u))
    return lqr_gains(A, b, Q, r)


# -- reference sampling and the PD + feedforward law --------------------------


def _lerp(times, rows, slopes, t):
    """Row at t ∈ [times[0], times[-1]]; a node's time gives its row.

    The row expression is the one ``np.interp`` evaluates for a scalar,
    so the result is the same to the bit.
    """
    j = bisect_right(times, t) - 1
    if times[j] == t:
        return rows[j]
    return slopes[j] * (t - times[j]) + rows[j]


def sample_reference(ref: Trajectory, t):
    """(q_des, q̇_des, τ_des) at time t, linearly interpolated over nodes.

    Past the horizon the terminal setpoint is held (with the last input
    as feedforward); before t=0 the initial node is held.  Reads the
    reference's cached ``sample_table``; a result that is a row of the
    table is a read-only view of it.
    """
    tab = ref.sample_table
    times = tab.times
    t = min(max(float(t), times[0]), times[-1])
    x = _lerp(times, tab.states, tab.slopes, t)
    if tab.u_times:
        tau = _lerp(tab.u_times, tab.inputs, tab.u_slopes,
                    min(t, tab.u_times[-1]))
    else:
        tau = tab.zero_input
    n_q = len(x) // 2
    return x[:n_q], x[n_q:], tau


def pd_feedforward(ref: Trajectory, state, gains: Gains, t):
    """τ(t) = k_p @ (q_des − q) + k_d @ (q̇_des − q̇) + τ_des.

    Returns an (n_u,) array.
    """
    # called by its module-level name, which the benchmark's tracer wraps
    q_des, qd_des, tau_des = sample_reference(ref, t)
    n_q = len(q_des)
    fb = (gains.k_p @ (q_des - state[:n_q])
          + gains.k_d @ (qd_des - state[n_q:]))
    return fb + tau_des


# -- the tracking controller ---------------------------------------------------


class TrackingController:
    """Closed-loop PD + feedforward tracker usable by the simulator.

    Tracks a plain Trajectory (fixed reference) or the common trajectory
    of a SolutionBundle.  When the simulator reports contact at t_c via
    ``notify_contact``, a bundle's controller switches, once, to the
    nearest subsequent branch — the first branch whose departure-node
    time is ≥ t_c — with the branch's node 0 aligned to t_c.  Contact
    after the last branching node selects the last branch; contact
    before the first one selects the first branch and warns (outside the
    planned uncertainty window).
    """

    def __init__(self, reference, gains: Gains):
        self.bundle = reference if isinstance(reference, SolutionBundle) else None
        self.reference = (reference.common if self.bundle is not None
                          else reference)
        self.gains = gains
        self.clock_offset = 0.0  # reference time = t - clock_offset
        self.branch_node = None  # common-node index the active branch leaves

    def notify_contact(self, t_c):
        """Switch to the post-contact branch; no-op after the first switch."""
        if (self.bundle is None or not self.bundle.branches
                or self.branch_node is not None):
            return
        dep = self.bundle.common.node_times[self.bundle.branch_nodes]
        if t_c < dep[0]:
            warnings.warn(
                "contact observed before the first branching node; "
                "tracking the first branch",
                stacklevel=2,
            )
            pos = 0
        else:
            later = np.nonzero(dep >= t_c)[0]
            pos = int(later[0]) if later.size else len(dep) - 1
        self.branch_node = self.bundle.branch_nodes[pos]
        self.clock_offset = float(t_c)
        self.reference = post_contact_reference(self.bundle, pos)

    def __call__(self, t, state):
        return pd_feedforward(self.reference, state, self.gains,
                              t - self.clock_offset)
