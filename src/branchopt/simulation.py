"""Contact simulation: RK4 flow, guard-crossing detection, impact events.

This is the physics oracle the optimized trajectories are evaluated
against, and the one rollout loop of both plants.  Free motion is
integrated with classical RK4; when the guard, which sees time and
state, crosses zero within a step the event is located by bisection,
the plant definition's impact law maps the state across it, and
integration continues from the post-impact state.  The cart-pole's law
is ``cartpole.impact_map`` at a zero interval: the closed-form
frictional impulse of ``contact2d``, called as ``pgs_solve``, with
positions frozen.

The loop carries every plant's state from step to step as a tuple of
Python floats.  A plant with ``extras["fast_derivative"]`` (the
cart-pole) steps on those floats, so that no step builds an array;
otherwise (the arm) ``rk4_step``'s array is turned into the tuple once
per step.  The controller, the guard and the stop condition receive
the tuple; the controller returns a sequence of n_u floats, the
tracking controller a tuple.  Each state is written once into the
trace.  At a contact, the impact law gets and returns arrays, and its
post-impact state is turned back into a tuple once.

The benchmark's per-layer tracer (``perfbench/tracing.py``) times the
loop by replacing what it calls, so a faster loop must keep these calls
rather than inline them: ``sys.extras["fast_derivative"]`` at every RK4
stage (``sys.derivative`` through ``rk4_step`` for a plant without
one), ``sys.guard`` after every step, the controller once per
step, and the module-level names ``detect_crossing`` and ``pgs_solve``,
looked up when they are called.  The tracking controller keeps its own
seam: it calls ``control.sample_reference`` by that module-level name
once per call.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

# tracer seam, renamed with contact2d.pgs_* by the next benchmark change;
# the cart-pole's impact law calls it by this module-level name
from .contact2d import exact_cone_impulse as pgs_solve
from .hybrid import HybridSystemDef

__all__ = ["SimTrace", "ContactEvent", "rk4_step", "detect_crossing",
           "pgs_solve", "simulate"]

CROSSING_TOL = 1e-8  # |guard| accepted as the contact surface
MAX_BISECT = 60


class NoCrossingError(ValueError):
    pass


@dataclass
class ContactEvent:
    time: float
    pre_state: np.ndarray
    post_state: np.ndarray
    impulse: np.ndarray


@dataclass
class SimTrace:
    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    guards: np.ndarray
    contact_events: list = field(default_factory=list)
    termination: str = "horizon"

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            n_x = self.states.shape[1]
            n_u = self.inputs.shape[1]
            header = (["t"] + [f"x{i}" for i in range(n_x)]
                      + [f"u{i}" for i in range(n_u)] + ["guard"])
            writer.writerow(header)
            for k in range(len(self.times)):
                u_row = (self.inputs[k] if k < len(self.inputs)
                         else self.inputs[-1])
                writer.writerow(
                    [repr(float(self.times[k]))]
                    + [repr(float(v)) for v in self.states[k]]
                    + [repr(float(v)) for v in u_row]
                    + [repr(float(self.guards[k]))]
                )


def rk4_step(dynamics, state, u, dt):
    """Classical 4th-order Runge-Kutta step with the input held constant."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    state = np.asarray(state, dtype=float)
    k1 = dynamics(state, u)
    k2 = dynamics(state + 0.5 * dt * k1, u)
    k3 = dynamics(state + 0.5 * dt * k2, u)
    k4 = dynamics(state + dt * k3, u)
    return state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def detect_crossing(guard, state_a, state_b, t_a, t_b):
    """Locate the guard zero between two states bracketing a crossing.

    Bisects time and state together, on states interpolated linearly
    between the endpoints.  Requires
    guard(t_a, state_a) > 0 >= guard(t_b, state_b).
    """
    state_a = np.asarray(state_a, dtype=float)
    state_b = np.asarray(state_b, dtype=float)
    g_a = guard(t_a, state_a)
    g_b = guard(t_b, state_b)
    if not (g_a > 0 >= g_b):
        raise NoCrossingError(f"no sign change: guard {g_a:.3e} -> {g_b:.3e}")
    lo, hi = 0.0, 1.0
    for _ in range(MAX_BISECT):
        mid = 0.5 * (lo + hi)
        t_mid = t_a + mid * (t_b - t_a)
        state_mid = state_a + mid * (state_b - state_a)
        g_mid = guard(t_mid, state_mid)
        if abs(g_mid) <= CROSSING_TOL:
            return t_mid, state_mid
        if g_mid > 0:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    return t_a + s * (t_b - t_a), state_a + s * (state_b - state_a)


def simulate(sys: HybridSystemDef, controller, x0, env, *, horizon,
             dt_sim, stop_condition=None):
    """Closed-loop rollout with guard-triggered impact events.

    ``env`` is what the plant's guard and impact law read (the wall and
    its restitution, the ball's release); every rollout passes its own.
    ``controller(t, state) -> u`` supplies the input, a sequence of n_u
    floats held constant over each step; controllers may expose
    ``notify_contact(t)`` to receive event times.
    ``stop_condition(t, state, n_events)`` may return a termination label
    to end the rollout early; failures never raise, they are recorded on
    the trace.

    Between steps the state is carried as a tuple of n_x Python floats,
    and the controller, the guard ``sys.guard(t, state, env)`` and
    ``stop_condition`` see it in that form.  Finishing a step after a
    contact, the controller sees the event's ``post_state`` as such a
    tuple.
    """
    if dt_sim <= 0:
        raise ValueError("dt_sim must be positive")
    n_steps = int(round(horizon / dt_sim))
    if n_steps < 1:
        raise ValueError(
            f"horizon {horizon} rounds to no step of dt_sim {dt_sim}")
    n_x = len(x0)

    times = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1, n_x))
    inputs = np.empty((n_steps, sys.n_u))
    guards = np.empty(n_steps + 1)
    events = []

    fast_deriv = sys.extras.get("fast_derivative")
    if fast_deriv is not None:
        def step(x, u, dt):
            return _rk4_fast(fast_deriv, x, u[0], dt)
    else:
        def step(x, u, dt):
            return tuple(rk4_step(sys.derivative, x, u, dt).tolist())

    def carried(state):
        return tuple(state.tolist())
    guard = sys.guard
    guard_fn = lambda t, s: guard(t, s, env)

    x = carried(np.asarray(x0, dtype=float))
    times[0] = 0.0
    states[0] = x
    g = guards[0] = guard(0.0, x, env)
    termination = "horizon"
    k = 0
    t = 0.0
    while k < n_steps:
        u = controller(t, x)
        inputs[k] = u
        x_new = step(x, u, dt_sim)
        t_new = t + dt_sim
        g_new = guard(t_new, x_new, env)
        if g > 0.0 >= g_new:
            t_hit, x_hit = detect_crossing(guard_fn, x, x_new, t, t_new)
            post, impulse = sys.impact(x_hit, env)
            events.append(ContactEvent(t_hit, x_hit, post, impulse))
            if hasattr(controller, "notify_contact"):
                controller.notify_contact(t_hit)
            # finish the step from the post-impact state
            rem = t_new - t_hit
            x_new = carried(post)
            if rem > 1e-12:
                x_new = step(x_new, controller(t_hit, x_new), rem)
            g_new = guard(t_new, x_new, env)
        x = x_new
        t = t_new
        g = g_new
        k += 1
        times[k] = t
        states[k] = x
        guards[k] = g
        if stop_condition is not None:
            label = stop_condition(t, x, len(events))
            if label:
                termination = label
                break

    trace = SimTrace(times[: k + 1], states[: k + 1], inputs[:k],
                     guards[: k + 1], events, termination)
    return trace


def _rk4_fast(deriv, s0, tau, dt):
    """RK4 on plain floats for plants exposing a derivative that takes
    and returns a sequence of floats; ``s0`` is such a sequence, and the
    result is a tuple."""
    k1 = deriv(s0, tau)
    h2 = 0.5 * dt
    s1 = (s0[0] + h2 * k1[0], s0[1] + h2 * k1[1],
          s0[2] + h2 * k1[2], s0[3] + h2 * k1[3])
    k2 = deriv(s1, tau)
    s2 = (s0[0] + h2 * k2[0], s0[1] + h2 * k2[1],
          s0[2] + h2 * k2[2], s0[3] + h2 * k2[3])
    k3 = deriv(s2, tau)
    s3 = (s0[0] + dt * k3[0], s0[1] + dt * k3[1],
          s0[2] + dt * k3[2], s0[3] + dt * k3[3])
    k4 = deriv(s3, tau)
    c = dt / 6.0
    return (
        s0[0] + c * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
        s0[1] + c * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
        s0[2] + c * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]),
        s0[3] + c * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3]),
    )
