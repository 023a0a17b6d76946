"""Two-dimensional frictional contact impulse, in closed form.

Contact coordinates are (normal, tangential).  Given the Delassus matrix
G = Jc M^-1 Jc^T and the pre-impact contact-point velocity g,
``exact_cone_impulse`` returns the impulse F with f_n >= 0 and
|f_t| <= mu f_n such that the post-impact velocity g + G F meets the
restitution target -e*g in both components.  ``bias`` adds a known
velocity change that acts alongside the impulse (the drift of a finite
impact interval; zero for an instantaneous impulse).
"""

from __future__ import annotations

import numpy as np

_TOL = 1e-12


def _complementarity_residual(G, b, mu, F):
    """How far F is from solving the contact conditions: the largest
    move of one projected step F <- proj(F - (G F + b)), which is zero
    exactly at a solution."""
    r = G @ F + b
    fn = max(0.0, F[0] - r[0])
    lim = mu * F[0]
    ft = min(lim, max(-lim, F[1] - r[1]))
    return max(abs(F[0] - fn), abs(F[1] - ft))


def exact_cone_impulse(G, g_vel, e, mu, bias):
    """Closed-form solution of the 2x2 contact complementarity problem.

    Enumerates the separating / sticking / sliding cases.  When none of
    them meets its conditions (a numerically ambiguous corner, or a
    non-finite velocity), returns the candidate inside the friction cone
    with the smallest complementarity residual.
    """
    G = np.asarray(G, dtype=float)
    b = (1.0 + e) * np.asarray(g_vel, dtype=float) + bias
    # separating contact: b_n >= 0 to round-off relative to the size of b,
    # so that a tiny approach is not taken for separation; at most _TOL
    if b[0] >= -_TOL * min(np.max(np.abs(b)), 1.0):
        return np.zeros(2)
    g00, g01, g11 = G[0, 0], G[0, 1], G[1, 1]
    if g11 <= _TOL:
        # tangential direction has no inertia coupling (degenerate Jc row)
        return np.array([max(0.0, -b[0] / g00), 0.0])
    # sticking: both components driven to the restitution target
    P = np.linalg.solve(G, -b)
    if P[0] >= -_TOL and abs(P[1]) <= mu * P[0] + _TOL:
        # within _TOL of the cone: clamp onto it
        fn = max(P[0], 0.0)
        ft = P[1] if abs(P[1]) <= mu * fn else np.copysign(mu * fn, P[1])
        return np.array([fn, ft])
    # sliding on either cone edge
    candidates = [np.zeros(2)]
    for s in (1.0, -1.0):
        denom = g00 + s * mu * g01
        if abs(denom) <= _TOL:
            continue
        pn = -b[0] / denom
        if not pn >= -_TOL:  # negative or NaN: no candidate
            continue
        pn = max(pn, 0.0)
        cand = np.array([pn, s * mu * pn])
        r_t = G[1, 0] * cand[0] + g11 * cand[1] + b[1]
        # clamped high requires inward residual and vice versa
        if s * r_t <= _TOL:
            return cand
        candidates.append(cand)
    # numerically ambiguous corner: every candidate here is in the cone
    return min(candidates,
               key=lambda F: _complementarity_residual(G, b, mu, F))
