"""Vectorized kernels and the damped-Newton driver.

Nonlinearities are evaluated from their numeric parameters
``(kind, p, lo, hi, arg_hi)``:

* kind 1: ``t -> (t+)^p``        (zero on negatives)
* kind 2: ``t -> e^t - 1`` for t >= 0, zero on negatives
* kind 3: ``t -> sign(t) (e^|t| - 1)``

``lo``/``hi`` clamp the value (one family of truncations), ``arg_hi``
clamps the argument (the other family); either may be +/-inf.

``newton`` is the one semilinear solve loop.  It sees the operator only
through ``apply`` and ``solve_shifted``, so tridiagonal grids (banded
solves) and rect2d (sparse LU) run the same iteration.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgtsv

KIND_POWER = 1
KIND_EXP = 2
KIND_EXP2 = 3


def g_eval(kind, p, lo, hi, arg_hi, t, out):
    # overflow saturates to inf and is then clipped to the cap, so the
    # warning carries no information
    with np.errstate(over="ignore"):
        tt = np.minimum(t, arg_hi)
        if kind == KIND_POWER:
            v = np.where(tt > 0.0, np.maximum(tt, 0.0) ** p, 0.0)
        elif kind == KIND_EXP:
            v = np.where(tt > 0.0, np.expm1(tt), 0.0)
        else:
            v = np.sign(tt) * np.expm1(np.abs(tt))
        np.clip(v, lo, hi, out=out)


def g_deriv(kind, p, lo, hi, arg_hi, t, out):
    # zero past the clamps, the interior slope at the kinks themselves,
    # so the Jacobian stays bounded
    with np.errstate(over="ignore"):
        tt = np.minimum(t, arg_hi)
        if kind == KIND_POWER:
            safe = np.maximum(tt, 1e-300)
            v = np.where(tt > 0.0, safe**p, 0.0)
            d = np.where(tt > 0.0, p * safe ** (p - 1.0), 0.0)
        elif kind == KIND_EXP:
            v = np.where(tt > 0.0, np.expm1(tt), 0.0)
            d = np.where(tt > 0.0, np.exp(tt), 0.0)
        else:
            v = np.sign(tt) * np.expm1(np.abs(tt))
            d = np.exp(np.abs(tt))
        d = np.where((v > hi) | (v < lo) | (t > arg_hi), 0.0, d)
        out[:] = d


def thomas_solve(dl, d, du, b):
    # LAPACK gtsv, which scipy.linalg.solve_banded calls for one sub- and
    # one super-diagonal, without its banded-storage copy; it raises as
    # solve_banded does
    if d.shape[0] == 1:
        return b / d
    if not (np.isfinite(d).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    x, info = dgtsv(dl, d, du, b)[3:]
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def tridiag_matvec(dl, d, du, x, out):
    out[:] = d * x
    out[1:] += dl * x[:-1]
    out[:-1] += du * x[1:]


def newton(op, g, b, u0, tol, max_iter, max_backtracks):
    """Damped Newton on F(u) = L u + g(u) - b with the l1 merit
    sum(|F| vol), halving backtracks, and a Picard step
    (L + lam) u_new = b + lam u - g(u) when the line search stalls.

    Returns ``(u, converged, iterations, residual, residual_trace)``."""
    vols = op.grid.cell_volumes

    def residual(v):
        f = op.apply(v) + g(v) - b
        return f, float(np.sum(np.abs(f) * vols))

    u = u0.copy()
    f, res = residual(u)
    trace = []
    it = 0
    stalls = 0
    while it < max_iter and res > tol:
        step = op.solve_shifted(g.deriv(u), -f)
        s = 1.0
        improved = False
        for _bt in range(max_backtracks):
            u_try = u + s * step
            f_try, res_try = residual(u_try)
            if res_try < res:
                u, f, res = u_try, f_try, res_try
                improved = True
                break
            s *= 0.5
        if not improved:
            stalls += 1
            lam = float(np.max(g.deriv(u))) + 1.0
            u = op.solve_shifted(np.full(u.shape, lam), b + lam * u - g(u))
            f, res = residual(u)
            if stalls > 5:
                break
        else:
            stalls = 0
        trace.append(res)
        it += 1
    return u, res <= tol, it, res, np.asarray(trace)


# perfbench/tracing.py wraps the solve loop under this name
newton_tridiag = newton
