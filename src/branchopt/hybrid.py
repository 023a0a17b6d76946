"""Hybrid dynamical system abstraction: flow, guard and impact law.

A plant's ``PlantOcp`` adapter gives its definition (``system()``) to
the contact simulator and the tracking-gain design.  The guard sees time
as well as the state (the arm's falling ball moves on its own clock); it
is positive during free motion and crosses zero exactly at contact.

Each plant writes its impact law once.  The cart-pole's,
``cartpole.impact_map``, holds a constant contact force over an interval
``dt`` with positions frozen, which adds that interval's free-motion
drift; the OCP side's warm start takes it at the adapter's
``dt_impact``, and the simulator's impact, the definition's ``impact``,
is its zero-interval case: an instantaneous impulse, the closed-form
solution of the frictional contact problem.  The arm's leaves the state
unchanged, since the massless ball attaches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class HybridSystemDef:
    """Plant definition for simulation and control design.

    ``derivative(state, u) -> [q̇; q̈]`` is the first-order flow, an
    array, of the state [q; q̇] and a sequence of n_u inputs; it runs on
    floats and on recorded (``autodiff.Node``) entries.
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

    n_u: int
    derivative: Callable
    guard: Callable
    impact: Callable
    extras: dict = field(default_factory=dict)
