"""The tridiagonal solve against a dense reference, and g at overflow."""

import numpy as np
import pytest

from reduced_measures import _kernels as K
from reduced_measures.nonlinearities import make_power, make_two_sided_exponential

RNG = np.random.default_rng(7)


def _random_system(n: int):
    # off-diagonals carry n-1 entries; keep the matrix diagonally dominant
    dl = -RNG.uniform(0.5, 1.0, n - 1)
    du = -RNG.uniform(0.5, 1.0, n - 1)
    d = RNG.uniform(0.5, 1.5, n)
    d[:-1] += np.abs(du)
    d[1:] += np.abs(dl)
    b = RNG.normal(size=n)
    return dl, d, du, b


def _dense(dl, d, du):
    return np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)


def test_tridiagonal_solve_matches_dense_reference():
    for n in (3, 17, 200):
        dl, d, du, b = _random_system(n)
        expect = np.linalg.solve(_dense(dl, d, du), b)
        x = K.thomas_solve(dl.copy(), d.copy(), du.copy(), b.copy())
        assert np.allclose(x, expect, atol=1e-10)
    d[1] = np.inf  # an overflowed Jacobian entry is an error, not a result
    with pytest.raises(ValueError):
        K.thomas_solve(dl, d, du, b)


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
            value = g(t)
            slope = g.deriv(t)
        assert np.array_equal(value, capped)
        assert np.array_equal(slope, [0.0, 0.0])
