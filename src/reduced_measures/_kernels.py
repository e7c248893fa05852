"""The tridiagonal solve and the damped-Newton loop.

``newton`` is the one semilinear solve loop.  It sees the operator only
through ``apply`` and ``solve`` with a diagonal shift, so tridiagonal
grids (banded solves) and rect2d (sparse LU) run the same iteration.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgtsv

MAX_BACKTRACKS = 30


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


def newton(op, g, b, u0, tol, max_iter):
    """Damped Newton on F(u) = L u + g(u) - b with the l1 merit
    sum(|F| vol), halving backtracks, and a Picard step
    (L + lam) u_new = b + lam u - g(u) when the line search stalls.
    A residual that is not finite (g overflowed) ends the loop unconverged.

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
    while it < max_iter and tol < res < np.inf:
        step = op.solve(-f, g.deriv(u))
        s = 1.0
        improved = False
        for _bt in range(MAX_BACKTRACKS):
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
            u = op.solve(b + lam * u - g(u), np.full(u.shape, lam))
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
