"""Semilinear solves against measure data; the checks on them are in ``verify``.

The semilinear solver is the damped Newton iteration of
``_kernels.newton`` on F(u) = L u + g(u) - b with an l1 (cell-volume
weighted) merit function, backtracking line search, and a Picard
fallback step when the line search stalls.  Each step solves with the
shifted operator L + diag(s): banded elimination on tridiagonal grids,
CG preconditioned by a sine-transform Poisson solve on rect2d.  The CG
stops at the step's forcing term (``_kernels``): a relative linear
residual of 1e-3 at the first step that tightens, down to 1e-10, as
Newton converges, and never further than reaching ``tol`` needs.  A solve
starts from the given state (a cold one from the linear solution) or from
zero, whichever has the smaller residual.

A solve converges when its l1 residual meets ``tol`` times the datum
mass, or when it has stopped contracting within the rounding floor of
F, which on fine meshes lies above that tolerance.  ``SolveReport``
says which (``stop_reason``), or why the solve failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .grids import Grid, GridFunction, LinearOperator
from .measures import DiscreteMeasure
from .nonlinearities import Nonlinearity

DEFAULT_TOL = 1e-9
MAX_ITER = 80


@dataclass
class SolveReport:
    """``stop_reason`` is one of ``tol``, ``floor`` (converged) and
    ``max_iter``, ``stalled``, ``nonfinite`` (failed); see
    ``_kernels.newton``."""

    u: GridFunction
    stop_reason: str
    iterations: int
    residual_l1: float
    method_trace: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("tol", "floor")


def assemble_rhs(grid: Grid, mu: DiscreteMeasure) -> np.ndarray:
    """Load vector: density plus atom weights divided by their cell volume."""
    b = mu.density.copy()
    for node, weight in mu.atoms:
        b[node] += weight / grid.cell_volumes[node]
    return b


def solve_semilinear(
    op: LinearOperator,
    g: Nonlinearity,
    mu: DiscreteMeasure,
    u0: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = MAX_ITER,
) -> SolveReport:
    grid = op.grid
    b = assemble_rhs(grid, mu)
    u0 = op.solve(b) if u0 is None else np.asarray(u0, dtype=float)  # cold: the linear solution
    u, reason, it, res, trace = _kernels.newton(op, g, b, u0, tol, max_iter)
    return SolveReport(GridFunction(grid, u), reason, it, res, trace)


def g_mass(grid: Grid, g: Nonlinearity, u: np.ndarray) -> float:
    return float(np.sum(np.abs(g(u)) * grid.cell_volumes))


def laplacian_mass(op: LinearOperator, u: np.ndarray) -> float:
    return float(np.sum(np.abs(op.apply(u)) * op.grid.cell_volumes))
