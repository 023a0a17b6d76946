"""Forward-mode automatic differentiation on dual numbers.

A :class:`Dual` carries a value and a vector of directional derivatives
(one entry per seeded direction).  Values may be scalars or 1-D numpy
arrays, in which case the same expression is differentiated for a whole
batch of points at once; the derivative array then has one extra trailing
axis of length ``n_dirs``.

All elementary operations used by the dynamics, cost and constraint
callbacks are provided as module-level functions (``sin``, ``cos``,
``sqrt``) that dispatch on the argument type, so the same callback code
runs on plain floats/arrays and on duals.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dual",
    "seed",
    "seed_batch",
    "jacobian",
    "check_gradient",
    "GradientReport",
    "value_of",
    "sin",
    "cos",
    "sqrt",
]


class Dual:
    """Value plus a vector of forward-mode directional derivatives."""

    __slots__ = ("value", "derivs")
    __array_priority__ = 100.0  # beat ndarray in mixed binary ops

    def __init__(self, value, derivs):
        self.value = value
        self.derivs = np.asarray(derivs, dtype=float)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value, self.derivs + other.derivs)
        return Dual(self.value + other, self.derivs)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value - other.value, self.derivs - other.derivs)
        return Dual(self.value - other, self.derivs)

    def __rsub__(self, other):
        return Dual(other - self.value, -self.derivs)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.value * other.value,
                _col(other.value) * self.derivs + _col(self.value) * other.derivs,
            )
        return Dual(self.value * other, _col(other) * self.derivs)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.value
            return Dual(
                self.value * inv,
                _col(inv) * self.derivs
                - _col(self.value * inv * inv) * other.derivs,
            )
        return Dual(self.value / other, self.derivs / _col(other))

    def __rtruediv__(self, other):
        inv = 1.0 / self.value
        return Dual(other * inv, _col(-other * inv * inv) * self.derivs)

    def __pow__(self, p):
        if isinstance(p, Dual):
            raise TypeError("dual-valued exponents are not supported")
        return Dual(self.value**p, _col(p * self.value ** (p - 1)) * self.derivs)

    def __neg__(self):
        return Dual(-self.value, -self.derivs)

    def __repr__(self):
        return f"Dual({self.value!r}, {self.derivs!r})"


def _col(v):
    """Append a broadcast axis when v is a batch (1-D) value."""
    v = np.asarray(v)
    return v[..., None] if v.ndim >= 1 else v


def value_of(y):
    """Plain value of a Dual or pass-through for ordinary numbers."""
    return y.value if isinstance(y, Dual) else y


# -- elementary functions --------------------------------------------------


def sin(x):
    if isinstance(x, Dual):
        return Dual(np.sin(x.value), _col(np.cos(x.value)) * x.derivs)
    return np.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(np.cos(x.value), _col(-np.sin(x.value)) * x.derivs)
    return np.cos(x)


def sqrt(x):
    if isinstance(x, Dual):
        if np.any(np.asarray(x.value) < 0):
            raise ValueError("sqrt of negative value in dual evaluation")
        r = np.sqrt(x.value)
        return Dual(r, _col(0.5 / r) * x.derivs)
    if np.any(np.asarray(x) < 0):
        raise ValueError("sqrt of negative value")
    return np.sqrt(x)


# -- seeding and jacobians -------------------------------------------------


def seed(x):
    """One Dual per entry of x, seeded with the identity directions."""
    x = np.asarray(x, dtype=float)
    n = x.size
    eye = np.eye(n)
    return [Dual(x[i], eye[i]) for i in range(n)]


@functools.lru_cache(maxsize=256)
def _identity_seeds(batch, k):
    """k read-only (batch, k) arrays; the j-th is one in column j."""
    seeds = []
    for j in range(k):
        d = np.zeros((batch, k))
        d[:, j] = 1.0
        d.flags.writeable = False
        seeds.append(d)
    return tuple(seeds)


def seed_batch(values):
    """Identity-seeded duals for a (batch, k) array of local variables.

    Returns k duals whose values are the columns of ``values`` and whose
    derivative arrays have shape (batch, k).  The derivative arrays are
    shared, read-only and cached per (batch, k).
    """
    values = np.asarray(values, dtype=float)
    batch, k = values.shape
    return [Dual(values[:, j], d)
            for j, d in enumerate(_identity_seeds(batch, k))]


def jacobian(f, x):
    """Jacobian of a vector function via one batched forward pass.

    Row i holds the gradient of the i-th output with respect to x.
    """
    x = np.asarray(x, dtype=float)
    outputs = f(seed(x))
    if isinstance(outputs, Dual):
        outputs = [outputs]
    jac = np.zeros((len(outputs), x.size))
    for i, y in enumerate(outputs):
        if isinstance(y, Dual):
            jac[i] = y.derivs
    return jac


@dataclass
class GradientReport:
    max_rel_err: float
    passed: bool
    jac_ad: np.ndarray
    jac_fd: np.ndarray


def finite_difference_jacobian(f, x, h=1e-6):
    """Central-difference jacobian, the independent check for the AD path."""
    x = np.asarray(x, dtype=float)

    def eval_plain(xv):
        out = f(list(xv))
        if isinstance(out, (Dual, float, int)):
            out = [out]
        return np.array([value_of(y) for y in out], dtype=float)

    cols = []
    for j in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        cols.append((eval_plain(xp) - eval_plain(xm)) / (2 * h))
    return np.column_stack(cols)


def check_gradient(f, x, h=1e-6, tol=1e-6):
    """Compare the AD jacobian of f against central finite differences.

    Relative error is measured against max(1, |entry|).
    """
    if h <= 0 or tol <= 0:
        raise ValueError("h and tol must be positive")
    jac_ad = jacobian(f, x)
    jac_fd = finite_difference_jacobian(f, x, h)
    denom = np.maximum(1.0, np.abs(jac_fd))
    max_rel_err = float(np.max(np.abs(jac_ad - jac_fd) / denom)) if jac_ad.size else 0.0
    return GradientReport(max_rel_err, max_rel_err <= tol, jac_ad, jac_fd)
