"""Reference tracking with a branch switch on contact.

One controller, ``TrackingController``, serves both plants: state
feedback with feedforward, τ = K (x_des − x) + τ_des, for the state
x = [q; q̇].  Both plants' gains come from one LQR design about the
state an input holds: linearize the plant there, in its own state
order, and solve the continuous-time algebraic Riccati equation for
the feedback matrix K.  Given a branched solution, the controller
plays the common trajectory until contact is observed, then switches —
exactly once — to the nearest subsequent branch.  The controller reads
the state the simulator carries, a tuple of Python floats, and returns
the input as a tuple of n_u Python floats.

References are sampled from their ``Trajectory.sample_table``: node
times, rows and per-interval slopes, built once per reference as
Python floats.  A sample is a clamp, one ``bisect`` and one row
expression per entry, the float expression ``np.interp`` evaluates for
a scalar.

The law applies the gains on Python floats, in one fixed order for
every plant (see ``pd_feedforward``).  It is built from IEEE products
and sums alone, so no BLAS enters its bits, and an elementwise
numpy law that takes the same steps reproduces them.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass
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

DEFAULT_Q = np.diag([10.0, 10.0, 0.0, 0.0])
DEFAULT_R = 0.1


@dataclass(frozen=True)
class Gains:
    """The tracking feedback matrix K, of shape (n_u, n_x).

    ``rows`` holds K as one tuple of Python floats per input, its
    columns in the plant's state order [q; q̇].  The constructor takes
    any (n_u, n_x) array-like and stores that tuple form, which is
    immutable.
    """

    rows: tuple

    def __post_init__(self):
        k = np.array(self.rows, dtype=float)
        if k.ndim != 2:
            raise ValueError(f"gains must be an (n_u, n_x) matrix, got "
                             f"shape {k.shape}")
        object.__setattr__(self, "rows", tuple(map(tuple, k.tolist())))


EQ_TOL = 1e-10  # largest |f(x_eq, u_eq)| accepted as an equilibrium


def linearize(sys, x_eq, u_eq):
    """First-order model at an equilibrium, in the plant's state order.

    Returns (A, B), the Jacobians of the plant's flow ``sys.derivative``
    in the state [q; q̇] and in the input, differentiated through the
    callback by ``autodiff``.
    """
    x_eq = np.asarray(x_eq, dtype=float)
    u_eq = np.asarray(u_eq, dtype=float)
    resid = np.max(np.abs(sys.derivative(x_eq, u_eq)))
    if resid > EQ_TOL:
        raise ValueError(
            f"not an equilibrium: |f(x_eq, u_eq)| = {resid:.3e} > {EQ_TOL:.0e}"
        )

    def f_of_x(xs):
        return sys.derivative(xs, u_eq)

    def f_of_u(us):
        return sys.derivative(x_eq, us)

    return ad.jacobian(f_of_x, x_eq), ad.jacobian(f_of_u, u_eq)


# largest |Riccati residual| accepted, relative to the largest entry of
# the equation's four terms: the rounding of an accurate solution grows
# with them (about 6e-13 of them at q_diag [1e4, 1e4, 0, 0], r 1e-3)
CARE_TOL = 1e-11


def solve_care(A, B, Q, r):
    """Riccati matrix P of the continuous-time LQR with input weight r·I.

    ``B`` is the (n, m) input matrix.  Checks the defining residual and
    that the closed loop is Hurwitz.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = float(r) * np.eye(B.shape[1])
    P = scipy.linalg.solve_continuous_are(A, B, Q, R)
    P = 0.5 * (P + P.T)
    terms = (A.T @ P, P @ A, P @ B @ B.T @ P / float(r), Q)
    worst = np.max(np.abs(terms[0] + terms[1] - terms[2] + terms[3]))
    scale = max(np.max(np.abs(t)) for t in terms)
    if worst > CARE_TOL * scale:
        raise RuntimeError(
            f"Riccati residual {worst:.3e} exceeds {CARE_TOL:.0e} of its "
            f"largest term, {scale:.3e}"
        )
    closed = A - B @ B.T @ P / float(r)
    if np.max(np.real(np.linalg.eigvals(closed))) >= 0.0:
        raise RuntimeError("closed-loop matrix is not Hurwitz")
    return P


def lqr_gains(A, B, Q, r) -> Gains:
    """The feedback matrix K = r⁻¹ Bᵀ P, its columns in (A, B)'s state
    order; ``B`` is the (n, m) input matrix."""
    return Gains(B.T @ solve_care(A, B, Q, r) / float(r))


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
    """τ(t) = K (x_des − x) + τ_des.

    One law for every plant, on Python floats: the error
    e_j = x_des_j − state_j, then for each input
    u_i = (K_i0·e_0 + K_i1·e_1 + …) + τ_i, summed left to right in state
    order over the row K_i of ``Gains.rows``.  ``state`` is a sequence of
    n_x floats (the simulator's tuple), which is only read.  Returns a
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
