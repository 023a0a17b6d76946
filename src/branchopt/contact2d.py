"""Two-dimensional frictional contact impulse solvers.

Contact coordinates are (normal, tangential).  Given the Delassus matrix
G = Jc M^-1 Jc^T and the pre-impact contact-point velocity g, both
solvers return the impulse F with f_n >= 0 and |f_t| <= mu f_n such that
the post-impact velocity g + G F meets the restitution target -e*g in
both components.  An optional ``bias`` adds a known velocity change that
acts alongside the impulse (the drift of a finite impact interval).
"""

from __future__ import annotations

import numpy as np

_SINGULAR_TOL = 1e-12


def _restitution_bias(g_vel, e, bias):
    b = (1.0 + e) * np.asarray(g_vel, dtype=float)
    if bias is not None:
        b = b + np.asarray(bias, dtype=float)
    return b


def pgs_solve(G, g_vel, e, mu, n_iter=30, bias=None):
    """Projected Gauss-Seidel sweep over the 2x2 contact problem.

    Each sweep performs a normal step clamped at f_n >= 0 followed by a
    tangential step projected onto the friction cone slice
    [-mu f_n, mu f_n].  The iteration count is fixed (no early exit), so
    the result is deterministic in the number of floating-point ops.
    """
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    G = np.asarray(G, dtype=float)
    b = _restitution_bias(g_vel, e, bias)
    fn = 0.0
    ft = 0.0
    g00, g01, g11 = G[0, 0], G[0, 1], G[1, 1]
    for _ in range(n_iter):
        fn = fn - (g00 * fn + g01 * ft + b[0]) / g00
        fn = max(0.0, fn)
        if g11 > _SINGULAR_TOL:
            ft = ft - (g01 * fn + g11 * ft + b[1]) / g11
        lim = mu * fn
        ft = min(lim, max(-lim, ft))
    return np.array([fn, ft])


def exact_cone_impulse(G, g_vel, e, mu, bias=None):
    """Closed-form solution of the 2x2 contact complementarity problem.

    Enumerates the separating / sticking / sliding cases; this is the
    fixed point that ``pgs_solve`` converges to.
    """
    G = np.asarray(G, dtype=float)
    b = _restitution_bias(g_vel, e, bias)
    tol = 1e-12
    # separating contact
    if b[0] >= -tol:
        return np.zeros(2)
    g00, g01, g11 = G[0, 0], G[0, 1], G[1, 1]
    if g11 <= _SINGULAR_TOL:
        # tangential direction has no inertia coupling (degenerate Jc row)
        return np.array([max(0.0, -b[0] / g00), 0.0])
    # sticking: both components driven to the restitution target
    P = np.linalg.solve(G, -b)
    if P[0] >= -tol and abs(P[1]) <= mu * P[0] + tol:
        return np.array([max(P[0], 0.0), P[1]])
    # sliding on either cone edge
    for s in (1.0, -1.0):
        denom = g00 + s * mu * g01
        if abs(denom) <= _SINGULAR_TOL:
            continue
        pn = -b[0] / denom
        if pn < -tol:
            continue
        pn = max(pn, 0.0)
        cand = np.array([pn, s * mu * pn])
        r_t = G[1, 0] * cand[0] + g11 * cand[1] + b[1]
        # clamped high requires inward residual and vice versa
        if s * r_t <= tol:
            return cand
    # numerically ambiguous corner; fall back to a long PGS polish
    return pgs_solve(G, g_vel, e, mu, n_iter=2000, bias=bias)
