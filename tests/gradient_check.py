"""Finite-difference checks of ``autodiff.jacobian``, for the tests."""

from dataclasses import dataclass

import numpy as np

from branchopt import autodiff as ad


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
        if isinstance(out, (float, int)):
            out = [out]
        return np.array(out, dtype=float)

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
    jac_ad = ad.jacobian(f, x)
    jac_fd = finite_difference_jacobian(f, x, h)
    denom = np.maximum(1.0, np.abs(jac_fd))
    max_rel_err = float(np.max(np.abs(jac_ad - jac_fd) / denom)) if jac_ad.size else 0.0
    return GradientReport(max_rel_err, max_rel_err <= tol, jac_ad, jac_fd)
