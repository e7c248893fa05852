"""The LDL^T tridiagonal solve against dense references, g at overflow, and
the Newton loop's one evaluation of g per trial point."""

import math

import numpy as np
import pytest

from reduced_measures import _kernels as K
from reduced_measures.grids import build_grid, negative_laplacian
from reduced_measures.measures import DiscreteMeasure
from reduced_measures.nonlinearities import make_power, make_two_sided_exponential
from reduced_measures.solver import assemble_rhs

RNG = np.random.default_rng(7)


def _random_system(n: int):
    # symmetric and diagonally dominant, so positive definite
    e = -RNG.uniform(0.5, 1.0, n - 1)
    d = RNG.uniform(0.5, 1.5, n)
    d[:-1] += np.abs(e)
    d[1:] += np.abs(e)
    b = RNG.normal(size=n)
    return d, e, b


def _dense(d, e):
    return np.diag(d) + np.diag(e, -1) + np.diag(e, 1)


def test_tridiagonal_solve_matches_dense_reference():
    for n in (1, 3, 17, 200):
        d, e, b = _random_system(n)
        expect = np.linalg.solve(_dense(d, e), b)
        x = K.thomas_solve(d.copy(), e.copy(), b.copy())
        assert np.allclose(x, expect, atol=1e-10)
    with pytest.raises(np.linalg.LinAlgError):
        K.thomas_solve(-d, e, b)  # negative definite
    d[1] = np.inf  # an overflowed Jacobian entry is an error, not a result
    with pytest.raises(ValueError):
        K.thomas_solve(d, e, b)


GRIDS = [
    build_grid("radialN", 2.0**-6, dim=2, radius=1.0),
    build_grid("radialN", 2.0**-6, dim=3, radius=1.0),
    build_grid("interval1d", 2.0**-7, length=1.0),
]


@pytest.mark.parametrize("shift", ["none", "zero", "random"])
@pytest.mark.parametrize("grid", GRIDS, ids=["radial2d", "radial3d", "interval1d"])
def test_operator_solve_matches_a_dense_solve(grid, shift):
    op = negative_laplacian(grid)
    n = grid.n_nodes
    s = {"none": None, "zero": 0.0, "random": RNG.uniform(0.0, 1e3, n)}[shift]
    rhs = RNG.normal(size=n)
    dense = op.matrix.toarray() + np.diag(np.zeros(n) if s is None else np.broadcast_to(s, n))
    expect = np.linalg.solve(dense, rhs)
    x = op.solve(rhs, s)
    assert np.linalg.norm(x - expect) <= 1e-12 * np.linalg.norm(expect)


def test_operator_solve_on_one_node_and_with_an_infinite_shift():
    grid = build_grid("radialN", 0.5, dim=3, radius=1.0)
    op = negative_laplacian(grid)
    assert grid.n_nodes == 1
    assert op.solve(np.array([2.0]), 1.0) == pytest.approx(2.0 / (op.d[0] + 1.0), rel=1e-15)
    for grid in GRIDS + [grid]:
        op = negative_laplacian(grid)
        shift = np.zeros(grid.n_nodes)
        shift[-1] = np.inf
        with pytest.raises(ValueError):
            op.solve(np.ones(grid.n_nodes), shift)


class _CountingG:
    """Records every point g is evaluated at; g without its slope is an error."""

    def __init__(self, g):
        self.g, self.points = g, []

    def __call__(self, t):
        raise AssertionError("the Newton loop evaluated g without its slope")

    def value_and_slope(self, t):
        self.points.append(np.array(t, copy=True))
        return self.g.value_and_slope(t)


class _CountingOp:
    """Counts the residuals the loop forms: one operator apply each."""

    def __init__(self, op):
        self.op, self.applies = op, 0

    def __getattr__(self, name):
        return getattr(self.op, name)

    def apply(self, values):
        self.applies += 1
        return self.op.apply(values)


def test_newton_evaluates_g_once_per_trial_point():
    # a start far above the solution of a strong atom: the loop falls back
    # to zero and backtracks, so trial points outnumber steps.  (From the
    # linear solution, the first step from zero would lead back to it.)
    grid = build_grid("radialN", 2.0**-9, dim=3, radius=1.0)
    op = negative_laplacian(grid)
    b = assemble_rhs(grid, DiscreteMeasure.from_atoms(grid, [(0.0, 1.0)]))
    g, counting_op = _CountingG(make_power(6.0)), _CountingOp(op)
    u, reason, iterations, *_ = K.newton(counting_op, g, b, 3.0 * op.solve(b), 1e-9, 80)
    assert reason == "tol"
    assert len(g.points) == counting_op.applies > iterations + 1
    for i, p in enumerate(g.points):
        assert not any(np.array_equal(p, q) for q in g.points[:i])
    assert np.array_equal(g.points[-1], u)


def test_absorption_kernels_saturate_on_overflow():
    # t**40 and e^|t| overflow at |t| = 1e9; g and g' must saturate and
    # clip to the cap (derivative 0 past it), not raise
    t = np.array([1e9, -1e9])
    cases = [
        (make_power(40.0).truncate(100.0), [100.0, 0.0]),
        (make_two_sided_exponential().truncate(50.0), [50.0, -50.0]),
    ]
    for g, capped in cases:
        with np.errstate(over="raise"):
            value, slope = g.value_and_slope(t)
        assert np.array_equal(value, capped)
        assert np.array_equal(slope, [0.0, 0.0])
    with np.errstate(over="raise"):
        assert math.isinf(make_power(40.0).value_and_slope(1e9)[1])  # uncapped
