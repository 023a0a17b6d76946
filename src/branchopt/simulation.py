"""Contact simulation: RK4 flow, guard-crossing detection, impulse events.

This is the physics oracle the optimized trajectories are evaluated
against.  Free motion is integrated with classical RK4; when the guard
crosses zero within a step the event is located by bisection, a
projected-Gauss-Seidel impulse is applied with positions frozen, and
integration continues from the post-impact state.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .contact2d import pgs_solve
from .hybrid import HybridSystemDef

__all__ = ["SimTrace", "ContactEvent", "rk4_step", "detect_crossing",
           "pgs_solve", "simulate"]

PGS_ITERS = 30  # projected Gauss-Seidel sweeps per impact


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
            n_u = self.inputs.shape[1] if self.inputs.ndim == 2 else 1
            header = (["t"] + [f"x{i}" for i in range(n_x)]
                      + [f"u{i}" for i in range(n_u)] + ["guard"])
            writer.writerow(header)
            inputs = np.atleast_2d(self.inputs.T).T
            for k in range(len(self.times)):
                u_row = inputs[k] if k < len(inputs) else inputs[-1]
                writer.writerow(
                    [repr(float(self.times[k]))]
                    + [repr(float(v)) for v in self.states[k]]
                    + [repr(float(v)) for v in np.atleast_1d(u_row)]
                    + [repr(float(self.guards[k]))]
                )

    def to_json(self, path, verdicts=None):
        payload = {
            "termination": self.termination,
            "events": [
                {
                    "time": ev.time,
                    "pre_state": [float(v) for v in ev.pre_state],
                    "post_state": [float(v) for v in ev.post_state],
                    "impulse": [float(v) for v in ev.impulse],
                }
                for ev in self.contact_events
            ],
        }
        if verdicts is not None:
            payload["verdicts"] = verdicts
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)


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


def detect_crossing(guard, state_a, state_b, t_a, t_b,
                    tol=1e-8, max_bisect=60, interp=None):
    """Locate the guard zero between two states bracketing a crossing.

    Bisects on states interpolated between the endpoints (linear by
    default; pass ``interp(s)`` for s in [0,1] to refine with the actual
    flow).  Requires guard(state_a) > 0 >= guard(state_b).
    """
    state_a = np.asarray(state_a, dtype=float)
    state_b = np.asarray(state_b, dtype=float)
    g_a = guard(state_a)
    g_b = guard(state_b)
    if g_a <= 0 and g_a > -tol and abs(g_a) <= abs(g_b):
        return t_a, state_a
    if not (g_a > 0 >= g_b):
        raise NoCrossingError(f"no sign change: guard {g_a:.3e} -> {g_b:.3e}")
    if interp is None:
        interp = lambda s: state_a + s * (state_b - state_a)
    lo, hi = 0.0, 1.0
    state_mid = state_b
    for _ in range(max_bisect):
        mid = 0.5 * (lo + hi)
        state_mid = interp(mid)
        g_mid = guard(state_mid)
        if abs(g_mid) <= tol:
            return t_a + mid * (t_b - t_a), state_mid
        if g_mid > 0:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    return t_a + s * (t_b - t_a), interp(s)


def _apply_impulse(sys: HybridSystemDef, state, env):
    q, qd = state[: sys.n_q], state[sys.n_q :]
    J = sys.contact_jacobian(q)
    Minv = np.linalg.inv(_mass_matrix(sys, q))
    G = J @ Minv @ J.T
    v = J @ qd
    impulse = pgs_solve(G, v, env.e, env.mu, n_iter=PGS_ITERS)
    post = np.array(state, dtype=float)
    post[sys.n_q :] = qd + Minv @ (J.T @ impulse)
    return post, impulse


def _mass_matrix(sys: HybridSystemDef, q):
    mm = sys.extras.get("mass_matrix")
    if mm is not None:
        return mm(q)
    raise NotImplementedError("plant does not expose a mass matrix")


def simulate(sys: HybridSystemDef, controller, x0, env=None, horizon=10.0,
             dt_sim=1e-3, stop_condition=None):
    """Closed-loop rollout with guard-triggered impulse events.

    ``controller(t, state) -> u`` supplies the input, held constant over
    each step; controllers may expose ``notify_contact(t)`` to receive
    event times.  ``stop_condition(t, state, n_events)`` may return a
    termination label to end the rollout early; failures never raise,
    they are recorded on the trace.
    """
    if dt_sim <= 0:
        raise ValueError("dt_sim must be positive")
    env = env if env is not None else sys.default_env
    x = np.asarray(x0, dtype=float).copy()
    n_steps = int(round(horizon / dt_sim))
    n_x = x.size

    times = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1, n_x))
    inputs = np.empty((n_steps, sys.n_u))
    guards = np.empty(n_steps + 1)
    events = []

    fast_deriv = sys.extras.get("fast_derivative")
    guard_fn = lambda s: sys.guard(s, env)

    times[0] = 0.0
    states[0] = x
    guards[0] = guard_fn(x)
    termination = "horizon"
    k = 0
    t = 0.0
    while k < n_steps:
        u = np.atleast_1d(controller(t, x))
        inputs[k] = u
        if fast_deriv is not None:
            x_new = _rk4_fast(fast_deriv, x, float(u[0]), dt_sim)
        else:
            x_new = rk4_step(sys.state_derivative, x, u, dt_sim)
        t_new = t + dt_sim
        g_new = guard_fn(x_new)
        if guards[k] > 0.0 >= g_new:
            t_hit, x_hit = detect_crossing(guard_fn, x, x_new, t, t_new)
            post, impulse = _apply_impulse(sys, x_hit, env)
            events.append(ContactEvent(t_hit, x_hit, post, impulse))
            if hasattr(controller, "notify_contact"):
                controller.notify_contact(t_hit)
            # finish the step from the post-impact state
            rem = t_new - t_hit
            if rem > 1e-12:
                u_rem = np.atleast_1d(controller(t_hit, post))
                if fast_deriv is not None:
                    x_new = _rk4_fast(fast_deriv, post, float(u_rem[0]), rem)
                else:
                    x_new = rk4_step(sys.state_derivative, post, u_rem, rem)
            else:
                x_new = post
            g_new = guard_fn(x_new)
        x = x_new
        t = t_new
        k += 1
        times[k] = t
        states[k] = x
        guards[k] = g_new
        if stop_condition is not None:
            label = stop_condition(t, x, len(events))
            if label:
                termination = label
                break

    trace = SimTrace(times[: k + 1], states[: k + 1], inputs[:k],
                     guards[: k + 1], events, termination)
    return trace


def _rk4_fast(deriv, x, tau, dt):
    """RK4 on plain floats for plants exposing a tuple-based derivative."""
    s0 = (float(x[0]), float(x[1]), float(x[2]), float(x[3]))
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
    return np.array([
        s0[0] + c * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
        s0[1] + c * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
        s0[2] + c * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]),
        s0[3] + c * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3]),
    ])
