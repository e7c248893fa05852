"""The tridiagonal solve and the damped-Newton loop.

``newton`` is the one semilinear solve loop.  It sees the operator only
through ``apply``, ``solve`` with a diagonal shift and ``abs_weights``, so
tridiagonal grids (banded solves) and rect2d (preconditioned CG) run the
same iteration.  It stops at the caller's tolerance or, where that tolerance
lies below what floating point can resolve, at the rounding floor of the
residual, and it returns the reason it stopped.  It is an inexact Newton
method: each step asks ``solve`` only for the relative linear residual
that the nonlinear residual needs (a forcing term), which an iterative
solve turns into fewer iterations and a direct one ignores.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgtsv

MAX_BACKTRACKS = 30
MAX_STALLS = 5
EPS = float(np.finfo(float).eps)
# The floor is tested only once a step cuts the residual by less than this
# factor: in the quadratic phase the cut is far larger.  Testing it at every
# step made small cold solves a third slower (median 0.34 -> 0.45 ms over
# perfbench's small-mixed solves, 5 alternated runs on a 2-vCPU VM).
CONTRACTION = 4.0
# Multiple of eps * sum(|L||u| + |g(u)| + |b|) vol accepted as the rounding
# floor of the residual.  Measured over perfbench's four workloads and the
# test suite: at all 243 floor stops (radialN, p = 3 and p = 6 in 3-d at
# h = 2^-13 and 2^-14, exp in 2-d at 2^-13) the residual was 0.12-0.18
# times eps * sum(...), and every tested iterate that was not at the floor
# read over 2e6 times it.  So the stops are the same for any factor from 1
# to 1e6; 16 leaves about 90x headroom over the largest ratio seen and
# still bounds the backward error by 16 eps.
FLOOR_FACTOR = 16.0
# Forcing terms (Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996, choice
# 2).  Newton step k asks solve for ||F + J s||_2 <= eta ||F||_2 with
# eta_0 = FORCING_MAX, eta_k = min(FORCING_MAX, FORCING_GAMMA (res_k/res_k-1)^2),
# raised to OVERSOLVE tol/res (the step need not cut res far below tol) and
# to CG_RTOL.  Only rect2d's CG reads eta; banded solves are exact.  Counted
# against CG run to CG_RTOL at every step, with the same solves, stop reasons
# and atoms (direct_vs_combined_rel equal to 8 figures):
#   rect2d-signed (h = 1/96)  3,540 -> 1,668 sine transforms, 250 -> 261 steps;
#   test_09 (h = 2^-8)        4,342 -> 2,056 sine transforms, 296 -> 305 steps.
# On rect2d-signed, FORCING_MAX 1e-4 / 1e-2 / 1e-1 give 1,822 / 1,522 / 1,452
# transforms and 260 / 263 / 275 steps; 1e-3 keeps the steps within 5 %.
# While res > tol, eta < OVERSOLVE = 0.1, so each step's linear model cuts
# ||F|| tenfold or more, past CONTRACTION: the floor test still fires only
# where Newton stopped contracting.
FORCING_MAX = 1e-3
# Eisenstat and Walker's value; 0.5 gives 1,674 transforms and 260 steps.
FORCING_GAMMA = 0.9
# 0 / 0.01 / 0.1 / 0.5 give 2,050 / 1,770 / 1,668 / 1,598 transforms, all in
# 261 steps; 0.1 keeps a tenfold margin on the last step's target.
OVERSOLVE = 0.1
# The tightest forcing term, and the relative 2-norm residual a solve reaches
# by default.  On the signed split (+-8 pi under exp) at h = 1/32 to 1/256,
# max s h^2 14-16, CG took at most 11 iterations to it, 6.7-7.3 on average,
# with the Newton counts and atoms of sparse LU.
CG_RTOL = 1e-10


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
    res = sum(|F| vol), halving backtracks, and a Picard step
    (L + lam) u_new = b + lam u - g(u) when the line search stalls.

    It starts from ``u0`` or from zero, whichever has the smaller res;
    zero's res is the datum mass sum(|b| vol), as g(0) = 0.  From far
    above the solution of a convex problem Newton only creeps down, by
    about u/p a step under (t+)^p and 1 under e^t - 1 (Ortega &
    Rheinboldt, 1970), and such a start (the linear solution of a strong
    atom, or one where g overflows) has the larger residual.

    The loop stops for the first of these reasons:

    ``tol``        res <= tol max(1, sum(|b| vol)): the residual is an
                   l1 mass, judged relative to the datum mass;
    ``nonfinite``  res is not finite (g overflowed);
    ``floor``      the last step cut res by less than CONTRACTION and
                   res <= FLOOR_FACTOR eps sum((|L||u| + |g(u)| + |b|) vol),
                   the rounding error F may carry (Oettli-Prager);
    ``stalled``    more than MAX_STALLS Picard steps in a row;
    ``max_iter``   max_iter steps were taken.

    Each Newton step solves its linear system to the forcing term above;
    the stop tests always use the recomputed residual, so an inexact step
    changes how many steps are taken, never what ``tol`` and ``floor``
    mean.  Only ``tol`` and ``floor`` are convergence.  Returns
    ``(u, stop_reason, iterations, residual, residual_trace)``."""
    vols = op.grid.cell_volumes

    def residual(v):
        f = op.apply(v) + g(v) - b
        return f, float(np.sum(np.abs(f) * vols))

    def at_floor(v, res):
        # built here, not per solve: most solves meet tol and never get here
        rounding = op.abs_weights() @ np.abs(v) + np.sum((np.abs(g(v)) + np.abs(b)) * vols)
        return res <= FLOOR_FACTOR * EPS * float(rounding)

    def stop_reason():
        if res <= tol:
            return "tol"
        if not res < np.inf:
            return "nonfinite"
        if res > prev / CONTRACTION and at_floor(u, res):
            return "floor"
        if stalls > MAX_STALLS:
            return "stalled"
        if len(trace) >= max_iter:
            return "max_iter"
        return None

    mass = float(np.sum(np.abs(b) * vols))
    tol = tol * max(1.0, mass)
    u = u0.copy()
    f, res = residual(u)
    if not res < mass:  # also where g overflowed at u0
        u, f, res = np.zeros_like(u), -b, mass
    prev = np.inf
    trace = []
    stalls = 0
    while (reason := stop_reason()) is None:
        eta = FORCING_MAX if prev == np.inf else FORCING_GAMMA * (res / prev) ** 2
        eta = max(min(eta, FORCING_MAX), OVERSOLVE * tol / res, CG_RTOL)
        prev = res
        step = op.solve(-f, g.deriv(u), eta)
        s = 1.0
        for _bt in range(MAX_BACKTRACKS):
            u_try = u + s * step
            f_try, res_try = residual(u_try)
            if res_try < res:
                u, f, res = u_try, f_try, res_try
                stalls = 0
                break
            s *= 0.5
        else:
            stalls += 1
            lam = float(np.max(g.deriv(u))) + 1.0
            u = op.solve(b + lam * u - g(u), lam)
            f, res = residual(u)
        trace.append(res)
    return u, reason, len(trace), res, np.asarray(trace)


# perfbench/tracing.py wraps the solve loop under this name
newton_tridiag = newton
