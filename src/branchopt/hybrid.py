"""Hybrid dynamical system abstraction: flow, guard and impact law.

A plant's ``PlantOcp`` adapter gives its definition (``system()``) to
the contact simulator and the tracking-gain design.  The guard sees time
as well as the state (the arm's falling ball moves on its own clock); it
is positive during free motion and crosses zero exactly at contact.

The definition carries the simulator's impact law.  The cart-pole's
applies an instantaneous impulse, the closed-form solution of the
frictional contact problem (``simulation.rigid_impact``); the arm's
leaves the state unchanged, since the massless ball attaches.  The OCP side
(``PlantOcp`` adapters, ``cartpole.impact_map``) instead gives each
impact the adapter's interval ``dt_impact``; the cart-pole's is a
constant force over it, which adds that interval's free-motion drift;
the two laws differ by it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class HybridSystemDef:
    """Plant definition for simulation and control design.

    ``free_dynamics(q, qd, u) -> qdd`` operates on plain arrays (in a
    rollout, ``u`` is the controller's sequence of n_u floats);
    ``guard(t, state, env)`` returns the signed clearance (positive in
    free motion); ``impact(state, env) -> (post_state, impulse)`` maps a
    state on the guard surface, an array, to the state after contact.
    The definition holds no env: each rollout hands ``simulate`` the
    env (wall, restitution, ball release) that the guard and the impact
    law read.

    ``extras["fast_derivative"]``, where a plant has one, is
    ``deriv(state, tau) -> (q̇, q̈)``, one flat tuple, on plain floats
    and one input; the simulator then steps without arrays.  Either way
    it carries the state as a tuple of floats and hands the guard that
    tuple.
    """

    n_q: int
    n_u: int
    free_dynamics: Callable
    guard: Callable
    impact: Callable
    extras: dict = field(default_factory=dict)

    def state_derivative(self, state, u):
        q, qd = state[: self.n_q], state[self.n_q :]
        qdd = self.free_dynamics(q, qd, u)
        return np.concatenate([qd, qdd])
