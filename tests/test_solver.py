import math

import numpy as np
import pytest

from reduced_measures import _kernels, check_apriori_estimates, compare_solutions, grids
from reduced_measures.grids import build_grid, negative_laplacian
from reduced_measures.measures import DiscreteMeasure
from reduced_measures.nonlinearities import (
    make_exponential,
    make_power,
    make_two_sided_exponential,
)
from reduced_measures.solver import (
    DEFAULT_TOL,
    assemble_rhs,
    g_mass,
    laplacian_mass,
    solve_semilinear,
)


def _interval():
    grid = build_grid("interval1d", 2.0**-7, length=1.0)
    return grid, negative_laplacian(grid)


def test_absorption_lowers_the_linear_solution():
    grid, op = _interval()
    mu = DiscreteMeasure.from_density(grid, 4.0)
    linear = op.solve(assemble_rhs(grid, mu))
    rep = solve_semilinear(op, make_power(2.0), mu)
    assert rep.converged
    assert np.all(rep.u.values <= linear + 1e-12)
    assert np.all(rep.u.values >= -1e-12)


def test_residual_meets_the_mass_scaled_tolerance():
    grid, op = _interval()
    mu = DiscreteMeasure.from_density(grid, 3.0) + DiscreteMeasure.from_atoms(
        grid, [(0.5, 2.0)]
    )
    tol = 1e-10
    rep = solve_semilinear(op, make_exponential(), mu, tol=tol)
    assert rep.converged
    assert rep.residual_l1 <= tol * mu.tv_norm() * (1 + 1e-12)


def test_solution_balances_diffusion_and_absorption():
    # integrating the equation: the absorbed mass plus the flux through the
    # boundary must equal the datum mass
    grid, op = _interval()
    mu = DiscreteMeasure.from_density(grid, 5.0)
    g = make_power(3.0)
    rep = solve_semilinear(op, g, mu, tol=1e-12)
    row_applied = op.apply(rep.u.values) * grid.cell_volumes
    absorbed = g_mass(grid, g, rep.u.values)
    datum_mass = float(np.sum(assemble_rhs(grid, mu) * grid.cell_volumes))
    assert np.isclose(float(row_applied.sum()) + absorbed, datum_mass, atol=1e-8)


def test_comparison_principle_orders_solutions():
    grid, op = _interval()
    g = make_power(2.0)
    mu1 = DiscreteMeasure.from_density(grid, 1.0)
    mu2 = mu1 + DiscreteMeasure.from_atoms(grid, [(0.25, 1.5)])
    rep1 = solve_semilinear(op, g, mu1)
    rep2 = solve_semilinear(op, g, mu2)
    out = compare_solutions(g, mu1, mu2, rep1, rep2)
    assert out["mu1_leq_mu2"]
    assert out["solutions_ordered"]
    assert out["contraction_ok"]
    assert out["g_contraction_lhs"] <= out["g_contraction_rhs"] + 1e-12


def test_apriori_mass_estimates_hold():
    grid = build_grid("radialN", 2.0**-7, dim=2, radius=1.0)
    op = negative_laplacian(grid)
    g = make_exponential().truncate(128.0)
    mu = DiscreteMeasure.from_atoms(grid, [(0.0, 2 * math.pi)])
    rep = solve_semilinear(op, g, mu)
    est = check_apriori_estimates(op, g, mu, rep)
    assert est["g_mass_ok"] and est["laplacian_mass_ok"]
    assert est["g_mass"] <= 1.05 * est["tv"] + 1e-12
    assert est["laplacian_mass"] <= 2.1 * est["tv"] + 1e-12
    assert laplacian_mass(op, rep.u.values) == pytest.approx(est["laplacian_mass"])


def test_signed_datum_gives_signed_solution():
    grid, op = _interval()
    g = make_two_sided_exponential()
    mu = DiscreteMeasure.from_atoms(grid, [(0.3, 1.0), (0.7, -1.0)])
    rep = solve_semilinear(op, g, mu)
    assert rep.converged
    assert rep.u.values.min() < -1e-4 and rep.u.values.max() > 1e-4
    # odd nonlinearity, antisymmetric datum: the solution is antisymmetric
    assert np.allclose(rep.u.values, -rep.u.values[::-1], atol=1e-8)


def test_warm_start_accelerates_the_newton_loop():
    grid, op = _interval()
    g = make_exponential()
    mu = DiscreteMeasure.from_density(grid, 6.0)
    cold = solve_semilinear(op, g, mu, tol=1e-12)
    warm = solve_semilinear(op, g, mu, u0=cold.u.values, tol=1e-12)
    assert warm.converged
    assert warm.iterations <= cold.iterations
    assert np.allclose(warm.u.values, cold.u.values, atol=1e-9)


def test_capped_fine_radial_solve_stops_at_the_roundoff_floor():
    # the mass-scaled tolerance lies below the rounding floor of the
    # residual on this mesh, so the solve stops on the floor
    grid = build_grid("radialN", 2.0**-13, dim=3, radius=1.0)
    op = negative_laplacian(grid)
    mu = DiscreteMeasure.from_atoms(grid, [(0.0, 1.0)])
    g = make_power(3.0).truncate(1024.0)
    rep = solve_semilinear(op, g, mu)
    assert rep.stop_reason == "floor" and rep.converged
    assert rep.iterations <= 10

    vols = grid.cell_volumes
    b = assemble_rhs(grid, mu)
    u = rep.u.values
    mass = float(np.sum(np.abs(b) * vols))
    rounding = float(op.abs_weights() @ np.abs(u) + np.sum(np.abs(g(u)) * vols)) + mass
    assert 1e-9 * mass < rep.residual_l1 <= _kernels.FLOOR_FACTOR * _kernels.EPS * rounding


def test_solve_cut_at_max_iter_says_so():
    grid, op = _interval()
    mu = DiscreteMeasure.from_density(grid, 6.0)
    rep = solve_semilinear(op, make_exponential(), mu, max_iter=1)
    assert rep.stop_reason == "max_iter"
    assert not rep.converged
    assert rep.iterations == 1


def test_a_start_above_the_datum_mass_is_replaced_by_zero():
    # the linear solution of a huge planar atom overflows e^u at the core,
    # so its residual exceeds zero's (the datum mass) and Newton starts
    # from zero even though the caller gave this start
    grid = build_grid("radialN", 2.0**-10, dim=2, radius=1.0)
    op = negative_laplacian(grid)
    g = make_exponential()
    mu = DiscreteMeasure.from_atoms(grid, [(0.0, 5000.0)])
    rep = solve_semilinear(op, g, mu, u0=op.solve(assemble_rhs(grid, mu)))
    from_zero = solve_semilinear(op, g, mu, u0=np.zeros(grid.n_nodes))
    assert rep.stop_reason == "tol"
    assert np.array_equal(rep.u.values, from_zero.u.values)


def test_overflowing_cold_start_restarts_from_zero():
    # the same datum without a start: e^u overflows at L^-1 b, so the
    # solve starts from zero instead and meets tol there
    grid = build_grid("radialN", 2.0**-10, dim=2, radius=1.0)
    op = negative_laplacian(grid)
    g = make_exponential()
    mu = DiscreteMeasure.from_atoms(grid, [(0.0, 5000.0)])
    rep = solve_semilinear(op, g, mu)
    from_zero = solve_semilinear(op, g, mu, u0=np.zeros(grid.n_nodes))
    assert rep.stop_reason == from_zero.stop_reason == "tol"
    assert rep.iterations == from_zero.iterations == 10
    assert np.array_equal(rep.u.values, from_zero.u.values)
    b = assemble_rhs(grid, mu)
    u = rep.u.values
    f = op.apply(u) + g(u) - b
    mass = float(np.sum(np.abs(b) * grid.cell_volumes))
    assert float(np.sum(np.abs(f) * grid.cell_volumes)) <= DEFAULT_TOL * mass


@pytest.mark.parametrize("p", [20.0, 40.0])
def test_strong_power_cold_solve_starts_below_the_linear_solution(p):
    # L^-1 b of a 5000 atom lies far above the solution, where Newton
    # under t^p removes only about u/p a step; from zero they meet tol in
    # 10 and 7
    grid = build_grid("radialN", 2.0**-10, dim=2, radius=1.0)
    op = negative_laplacian(grid)
    mu = DiscreteMeasure.from_atoms(grid, [(0.0, 5000.0)])
    rep = solve_semilinear(op, make_power(p), mu)
    assert rep.stop_reason == "tol"
    assert rep.iterations <= 15


def test_sparse_and_tridiagonal_paths_share_semantics():
    # the rect2d operator is pentadiagonal and its Newton steps run
    # sine-transform-preconditioned CG; a slab-constant datum on a wide
    # rectangle reproduces the 1d profile away from the short edges
    grid2 = build_grid("rect2d", 2.0**-5, extents=(4.0, 1.0))
    op2 = negative_laplacian(grid2)
    g = make_power(2.0)
    rep2 = solve_semilinear(op2, g, DiscreteMeasure.from_density(grid2, 4.0))
    assert rep2.converged

    grid1 = build_grid("interval1d", 2.0**-5, length=1.0)
    op1 = negative_laplacian(grid1)
    rep1 = solve_semilinear(op1, g, DiscreteMeasure.from_density(grid1, 4.0))

    nodes = np.asarray(grid2.nodes)
    mid = np.abs(nodes[:, 0] - 2.0) < grid2.h / 2
    profile = rep2.u.values[mid]
    assert profile.shape == rep1.u.values.shape
    assert np.max(np.abs(profile - rep1.u.values)) <= 5e-3


def test_rect2d_newton_steps_solve_only_to_the_forcing_term(monkeypatch):
    # exp with an 8 pi atom at the centre of the unit square, h = 1/32: the
    # cold solve at cap 1, caps 4, 16 and 64, then the uncapped solve.  With
    # every CG run to CG_RTOL it made 264 sine transforms, with the forcing
    # term 114, in the same 2 + 2 + 3 + 4 + 11 Newton iterations.
    grid = build_grid("rect2d", 2.0**-5, extents=(1.0, 1.0))
    op = negative_laplacian(grid)
    mu = DiscreteMeasure.from_atoms(grid, [((0.5, 0.5), 8 * math.pi)])
    g = make_exponential()
    ladder = [g.truncate(cap) for cap in (1.0, 4.0, 16.0, 64.0)] + [g]
    transforms = []
    transform = grids._sine_transform
    monkeypatch.setattr(grids, "_sine_transform", lambda a: transforms.append(1) or transform(a))

    def run():
        transforms.clear()
        u, reports = None, []
        for g_n in ladder:
            reports.append(solve_semilinear(op, g_n, mu, u0=u))
            u = reports[-1].u.values
        return reports, len(transforms)

    inexact, count = run()
    assert count <= 150
    exact_solve = grids.LinearOperator.solve
    monkeypatch.setattr(
        grids.LinearOperator, "solve", lambda self, rhs, shift=None, rtol=None: exact_solve(self, rhs, shift)
    )
    exact, _ = run()
    assert [r.stop_reason for r in inexact] == [r.stop_reason for r in exact] == ["tol"] * 5
    mass = float(np.sum(assemble_rhs(grid, mu) * grid.cell_volumes))
    for a, b in zip(inexact, exact):
        gap = float(np.sum(np.abs(a.u.values - b.u.values) * grid.cell_volumes))
        assert gap <= DEFAULT_TOL * mass
