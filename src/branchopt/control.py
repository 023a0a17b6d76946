"""Reference tracking with a branch switch on contact.

One controller, ``TrackingController``, serves both plants: a PD law
with feedforward, τ = K_p (q_des − q) + K_d (q̇_des − q̇) + τ_des.  Both
plants' gains come from one LQR design about the state an input holds:
linearize the plant there, solve the continuous-time algebraic Riccati
equation, and read the proportional/derivative gains off the feedback
matrix.  Given a branched solution, the controller plays the common
trajectory until contact is observed, then switches — exactly once — to
the nearest subsequent branch.  The controller reads the state the
simulator carries, which it does not write: a tuple of Python floats
for the cart-pole, an (n_x,) array for the arm.  It returns the input
as a tuple of n_u Python floats.

References are sampled from their ``Trajectory.sample_table``: node
times, rows and per-interval slopes, built once per reference as
Python floats.  A sample is a clamp, one ``bisect`` and one row
expression per entry, the float expression ``np.interp`` evaluates for
a scalar.

The law applies the gains on Python floats, in one fixed order for
every gain shape (see ``pd_feedforward``).  It is built from IEEE
products and sums alone, so no BLAS enters its bits, and an elementwise
numpy law that takes the same steps reproduces them.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import sub

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


@dataclass(frozen=True)
class Gains:
    """Proportional and derivative tracking gains.

    ``k_p`` and ``k_d`` map position and velocity errors to inputs: a
    1-D row for a single-input plant, an (n_u, n_q) matrix otherwise.
    Immutable: the arrays are read-only copies of what the constructor
    is given, so ``rows``, derived from them, is built on first use and
    cached.
    """

    k_p: np.ndarray
    k_d: np.ndarray

    def __post_init__(self):
        for name in ("k_p", "k_d"):
            k = np.array(getattr(self, name), dtype=float)
            k.flags.writeable = False
            object.__setattr__(self, name, k)

    def __reduce__(self):
        # unpickled arrays would be writable: rebuild through __init__
        return type(self), (self.k_p, self.k_d)

    @cached_property
    def rows(self):
        """Each input's feedback row K_i = [k_p_i | k_d_i], in state
        order, as a tuple of Python floats; one row per input."""
        k = np.atleast_2d(np.hstack((self.k_p, self.k_d)))
        return tuple(map(tuple, k.tolist()))


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
    # [q; q̇] coordinates onto the order [q1, q̇1, q2, q̇2, ...]
    perm = np.arange(n).reshape(2, -1).T.ravel()
    return A[np.ix_(perm, perm)], B[perm]


CARE_TOL = 1e-8  # largest |Riccati residual| accepted


def solve_care(A, B, Q, r):
    """Riccati matrix P of the continuous-time LQR with input weight r·I.

    ``B`` is the (n, m) input matrix; a 1-D ``B`` is one input.  Checks
    the defining residual and that the closed loop is Hurwitz.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float).reshape(len(A), -1)
    Q = np.asarray(Q, dtype=float)
    R = float(r) * np.eye(B.shape[1])
    P = scipy.linalg.solve_continuous_are(A, B, Q, R)
    P = 0.5 * (P + P.T)
    resid = A.T @ P + P @ A - P @ B @ B.T @ P / float(r) + Q
    worst = np.max(np.abs(resid))
    if worst > CARE_TOL:
        raise RuntimeError(
            f"Riccati residual {worst:.3e} exceeds {CARE_TOL:.0e}"
        )
    closed = A - B @ B.T @ P / float(r)
    if np.max(np.real(np.linalg.eigvals(closed))) >= 0.0:
        raise RuntimeError("closed-loop matrix is not Hurwitz")
    return P


def lqr_gains(A, B, Q, r) -> Gains:
    """Feedback K = r⁻¹ Bᵀ P split into proportional/derivative parts.

    Expects (A, B) in interleaved order, so K's columns alternate
    position and velocity.  A single-input plant gets 1-D gain rows,
    several inputs (n_u, n_q) matrices (see ``pd_feedforward``).
    """
    B = np.asarray(B, dtype=float).reshape(len(A), -1)
    K = B.T @ solve_care(A, B, Q, r) / float(r)
    K = K[0] if len(K) == 1 else K
    return Gains(k_p=K[..., 0::2], k_d=K[..., 1::2])


def design_gains(sys, x_eq, Q=DEFAULT_Q, r=DEFAULT_R, u_eq=None) -> Gains:
    """LQR tracking gains for a plant held at ``x_eq`` by ``u_eq`` (zeros)."""
    A, B = linearize(sys, x_eq, np.zeros(sys.n_u) if u_eq is None else u_eq)
    return lqr_gains(A, B, Q, r)


# -- reference sampling and the PD + feedforward law --------------------------


def sample_reference(ref: Trajectory, t):
    """(x_des, τ_des) at time t, linearly interpolated over nodes.

    Past the horizon the terminal state is held (with the last input as
    feedforward); before t=0 the initial node is held.  Reads the
    reference's cached ``sample_table``.  ``x_des`` is a tuple of n_x
    Python floats: at a node's time, the node's row, otherwise
    ``s * h + y`` per entry, the two roundings of the row expression
    ``np.interp`` evaluates for a scalar, so the result is the same to
    the bit.  ``τ_des`` is a tuple of n_u floats from the same
    expression.
    """
    tab = ref.sample_table
    times = tab.times
    # the clamp min(max(t, times[0]), times[-1]) without the builtins' calls
    t = float(t)
    if times[0] > t:
        t = times[0]
    if times[-1] < t:
        t = times[-1]
    # the n input knots are the first n state knots, so one interval
    # index serves both
    j = bisect_right(times, t) - 1
    h = t - times[j]
    on_node = times[j] == t
    if on_node:
        x = tab.states[j]
    else:
        x = tuple([s * h + y for s, y in zip(tab.slopes[j], tab.states[j])])
    n = len(tab.inputs)
    if n == 0:
        tau = tab.zero_input
    elif j >= n - 1:  # at or past the last input node
        tau = tab.inputs[-1]
    elif on_node:
        tau = tab.inputs[j]
    else:
        tau = tuple([s * h + r for s, r in zip(tab.u_slopes[j],
                                               tab.inputs[j])])
    return x, tau


def pd_feedforward(ref: Trajectory, state, gains: Gains, t):
    """τ(t) = k_p (q_des − q) + k_d (q̇_des − q̇) + τ_des.

    One law for every gain shape, on Python floats: the error
    e_j = x_des_j − state_j, then for each input
    u_i = (K_i0·e_0 + K_i1·e_1 + …) + τ_i, summed left to right in state
    order over the row K_i of ``Gains.rows``.  ``state`` is a sequence of
    n_x floats (a tuple or an array), which is only read.  Returns a
    tuple of n_u Python floats; gains with other than n_u rows raise
    ``ValueError``.
    """
    # called by its module-level name, which the benchmark's tracer wraps
    x_des, tau = sample_reference(ref, t)
    e = list(map(sub, x_des, state))
    u = []
    for k, tau_i in zip(gains.rows, tau, strict=True):
        fb = k[0] * e[0]
        for j in range(1, len(e)):
            fb += k[j] * e[j]
        # an array state's entries are numpy scalars
        u.append(float(fb + tau_i))
    return tuple(u)


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
