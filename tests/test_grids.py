import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from reduced_measures import grids
from reduced_measures.grids import build_grid, negative_laplacian, sphere_area
from reduced_measures.measures import DiscreteMeasure
from reduced_measures.nonlinearities import make_exponential
from reduced_measures.reduction import reduce_signed
from reduced_measures.solver import assemble_rhs


def _forbid_factoring(monkeypatch):
    def splu(*args, **kwargs):
        raise AssertionError("splu called")

    monkeypatch.setattr(grids.spla, "splu", splu)


def test_cell_volumes_partition_the_domain_minus_boundary_layer():
    # nodes are interior, so the cells tile the domain with the Dirichlet
    # half-cell layer removed; domain_volume keeps the continuum value
    g1 = build_grid("interval1d", 2.0**-6, length=1.5)
    assert np.isclose(g1.cell_volumes.sum(), 1.5 - g1.h, rtol=1e-12)
    assert g1.domain_volume == 1.5

    g2 = build_grid("radialN", 2.0**-7, dim=2, radius=1.0)
    assert np.isclose(g2.cell_volumes.sum(), math.pi * (1.0 - g2.h / 2) ** 2, rtol=1e-10)
    assert np.isclose(g2.domain_volume, math.pi)

    g3 = build_grid("radialN", 2.0**-7, dim=3, radius=0.5)
    assert np.isclose(
        g3.cell_volumes.sum(), 4.0 / 3.0 * math.pi * (0.5 - g3.h / 2) ** 3, rtol=1e-10
    )
    assert np.isclose(g3.domain_volume, 4.0 / 3.0 * math.pi * 0.5**3)

    gr = build_grid("rect2d", 2.0**-5, extents=(2.0, 1.0))
    assert np.isclose(gr.cell_volumes.sum(), (2.0 - gr.h) * (1.0 - gr.h), rtol=1e-12)
    assert gr.domain_volume == 2.0


def test_unit_sphere_area_closed_forms():
    assert np.isclose(sphere_area(2), 2.0 * math.pi)
    assert np.isclose(sphere_area(3), 4.0 * math.pi)


def test_owner_node_snaps_to_nearest_cell():
    g = build_grid("interval1d", 2.0**-5, length=1.0)
    for x in (0.1, 0.5, 0.73):
        node, gap = g.owner_node(x)
        assert abs(float(g.nodes[node]) - x) <= g.h
        assert gap <= g.h / 2

    gr = build_grid("rect2d", 2.0**-4, extents=(1.0, 1.0))
    node, gap = gr.owner_node((0.25, 0.75))
    assert np.allclose(gr.nodes[node], (0.25, 0.75), atol=gr.h)
    assert gap == 0.0
    with pytest.raises(ValueError):
        gr.owner_node((1.5, 0.5))

    # one coordinate per lattice axis: extra coordinates are not dropped
    for grid, point in (
        (g, [0.5, 0.9]),
        (gr, (0.5,)),
        (build_grid("radialN", 2.0**-4, dim=2, radius=1.0), (0.3, 0.4)),
    ):
        with pytest.raises(ValueError, match="coordinate"):
            grid.owner_node(point)


def test_boundary_ring_and_interior_are_disjoint():
    gi = build_grid("interval1d", 2.0**-4, length=1.0)
    gn = build_grid("radialN", 2.0**-4, dim=2, radius=1.0)
    gr = build_grid("rect2d", 2.0**-4, extents=(1.0, 0.5))
    # both ends of the interval, the outer end of the radius, the ring
    assert np.flatnonzero(gi.boundary_adjacent).tolist() == [0, gi.n_nodes - 1]
    assert np.flatnonzero(gn.boundary_adjacent).tolist() == [gn.n_nodes - 1]
    ring = gr.boundary_adjacent.reshape(7, 15)
    assert ring[[0, -1], :].all() and ring[:, [0, -1]].all()
    assert not ring[1:-1, 1:-1].any()
    x, y = gr.nodes[:, 0], gr.nodes[:, 1]
    on_edge = np.isclose(np.minimum(np.minimum(x, 1.0 - x), np.minimum(y, 0.5 - y)), gr.h)
    assert np.array_equal(gr.boundary_adjacent, on_edge)
    for g in (gi, gn, gr):
        interior = g.interior_mask(2 * g.h)
        assert interior.any()
        assert not (g.boundary_adjacent & interior).any()


def test_operator_is_an_m_matrix_and_apply_matches_matrix():
    rng = np.random.default_rng(5)
    for g in (
        build_grid("radialN", 2.0**-6, dim=2, radius=1.0),
        build_grid("radialN", 2.0**-6, dim=3, radius=1.0),
        build_grid("interval1d", 2.0**-6, length=1.0),
        build_grid("rect2d", 2.0**-4, extents=(1.0, 0.5)),
    ):
        op = negative_laplacian(g)
        mat = op.matrix.tocsr()
        diag = mat.diagonal()
        assert (diag > 0).all()
        dense = mat.toarray()
        np.fill_diagonal(dense, 0.0)
        assert (dense <= 1e-14).all()

        x = np.sin(np.linspace(0, 3, g.n_nodes))
        assert np.allclose(op.apply(x), mat @ x)

        # the weights behind the residual floor: w @ |u| = sum(vol |L| |u|)
        w = op.abs_weights()
        for u in (x, rng.normal(size=g.n_nodes)):
            direct = float(np.sum(g.cell_volumes * (abs(mat) @ np.abs(u))))
            assert float(w @ np.abs(u)) == pytest.approx(direct, rel=1e-13)


@pytest.mark.parametrize(
    "kind, h, kw",
    [
        ("interval1d", 2.0**-4, {"length": 1.0}),
        ("interval1d", 0.5, {"length": 1.0}),
        ("rect2d", 2.0**-3, {"extents": (2.0, 1.0)}),
        ("rect2d", 0.5, {"extents": (4.0, 1.0)}),
        ("rect2d", 0.5, {"extents": (1.0, 3.5)}),
        ("rect2d", 0.5, {"extents": (1.0, 1.0)}),
    ],
)
def test_lattice_operator_is_the_kronecker_sum_of_second_differences(kind, h, kw):
    g = build_grid(kind, h, **kw)
    diffs = [sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)) / h**2 for n in g.shape]
    expect = diffs[0] if len(diffs) == 1 else sp.kronsum(diffs[1], diffs[0])
    assert np.array_equal(negative_laplacian(g).matrix.toarray(), expect.toarray())


def test_shifted_solve_matches_dense_reference():
    rng = np.random.default_rng(3)
    for g in (
        build_grid("interval1d", 2.0**-5, length=1.0),
        build_grid("radialN", 2.0**-5, dim=3, radius=1.0),
        build_grid("rect2d", 2.0**-3, extents=(1.0, 0.5)),
    ):
        op = negative_laplacian(g)
        dense = op.matrix.toarray()
        for shift in (rng.uniform(0.0, 50.0, g.n_nodes), np.zeros(g.n_nodes), None):
            rhs = rng.normal(size=g.n_nodes)
            shifted = dense if shift is None else dense + np.diag(shift)
            expect = np.linalg.solve(shifted, rhs)
            assert np.allclose(op.solve(rhs, shift), expect, rtol=1e-10, atol=1e-12)
            # a Newton step's forcing term: CG may stop at a loose residual
            loose = op.solve(rhs, shift, rtol=1e-3)
            assert np.linalg.norm(shifted @ loose - rhs) <= 1e-3 * np.linalg.norm(rhs)


def _dst1_matrix(n):
    k = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (6, 1), (15, 15), (31, 63)])
def test_sine_transform_is_the_orthonormal_dst1_of_both_axes(shape):
    a = np.random.default_rng(sum(shape)).normal(size=shape)
    ny, nx = shape
    expect = _dst1_matrix(ny) @ a @ _dst1_matrix(nx)
    got = grids._sine_transform(a)
    assert np.linalg.norm(got - expect) <= 1e-13 * np.linalg.norm(expect)
    assert np.linalg.norm(grids._sine_transform(got) - a) <= 1e-13 * np.linalg.norm(a)


def test_only_rect2d_work_imports_scipy_fft(tmp_path):
    # scipy.fft loads scipy.special; interval and radial work must not pay
    # for it, so the transform imports it at the first rect2d solve.  The
    # interval shares the lattice code with rect2d but solves banded
    script = f"""
import json, math, sys
from reduced_measures import cli
from reduced_measures.grids import build_grid, negative_laplacian
from reduced_measures.measures import DiscreteMeasure
from reduced_measures.nonlinearities import make_exponential
from reduced_measures.solver import solve_semilinear

def solve(grid, at):
    mu = DiscreteMeasure.from_atoms(grid, [(at, 8 * math.pi)])
    assert solve_semilinear(negative_laplacian(grid), make_exponential(), mu).converged

solve(build_grid("radialN", 2.0**-7, dim=2, radius=1.0), 0.0)
solve(build_grid("interval1d", 2.0**-7, length=1.0), 0.5)
config = {{
    "grid": {{"kind": "radialN", "h": 2.0**-7, "dim": 2, "radius": 1.0}},
    "nonlinearity": {{"kind": "exp"}},
    "measure": {{"atoms": [{{"at": 0.0, "weight": 8 * math.pi}}]}},
    "scheme": "truncation",
}}
with open({str(tmp_path / "reduce.json")!r}, "w") as fh:
    json.dump(config, fh)
args = ["reduce", "--config", fh.name, "--out", {str(tmp_path / "out")!r}]
assert cli.main(args) == cli.EXIT_OK
assert "scipy.fft" not in sys.modules
solve(build_grid("rect2d", 2.0**-4, extents=(1.0, 1.0)), (0.5, 0.5))
assert "scipy.fft" in sys.modules
"""
    env = {**os.environ, "PYTHONPATH": str(Path(grids.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _jacobian_like_shift(g, rng, peak):
    # g'(u) of an absorbed atom: a bump of width ~2h reaching s h^2 = peak,
    # randomly modulated so that it has no symmetry
    r2 = np.sum((g.nodes - g.nodes[g.n_nodes // 3]) ** 2, axis=1)
    return peak / g.h**2 * np.exp(-r2 / (2.0 * g.h) ** 2) * rng.uniform(0.5, 1.0, g.n_nodes)


def test_rect2d_solve_matches_dense_reference_without_factoring(monkeypatch):
    # no shift and a constant one are one sine-transform pair; Newton
    # shifts up to s h^2 = 20 go through preconditioned CG
    _forbid_factoring(monkeypatch)
    rng = np.random.default_rng(11)
    for g in (
        build_grid("rect2d", 2.0**-5, extents=(1.0, 1.0)),
        build_grid("rect2d", 2.0**-4, extents=(1.0, 2.0)),
    ):
        op = negative_laplacian(g)
        dense = op.matrix.toarray()
        shifts = [_jacobian_like_shift(g, rng, m) for m in (0.0, 0.01, 1.0, 20.0)]
        for shift in shifts + [3.0 / g.h**2, None]:
            rhs = rng.normal(size=g.n_nodes)
            shifted = dense if shift is None else dense + np.diag(np.broadcast_to(shift, g.n_nodes))
            expect = np.linalg.solve(shifted, rhs)
            assert np.allclose(op.solve(rhs, shift), expect, rtol=1e-10, atol=1e-12)
            loose = op.solve(rhs, shift, rtol=1e-3)
            assert np.linalg.norm(shifted @ loose - rhs) <= 1e-3 * np.linalg.norm(rhs)


def test_rect2d_solve_factors_only_where_cg_reaches_its_cap(monkeypatch):
    calls = []
    real_splu = grids.spla.splu
    monkeypatch.setattr(grids.spla, "splu", lambda mat: calls.append(mat) or real_splu(mat))
    rng = np.random.default_rng(12)
    g = build_grid("rect2d", 2.0**-5, extents=(1.0, 1.0))
    op = negative_laplacian(g)
    dense = op.matrix.toarray()
    x, y = g.nodes[:, 0], g.nodes[:, 1]
    patch = (np.abs(x - 0.5) < 0.25) & (np.abs(y - 0.5) < 0.25)
    for shift, factored in (
        (_jacobian_like_shift(g, rng, 20.0), 0),
        # s h^2 up to 1e3 on a central patch: CG needs far more than its cap
        (np.where(patch, rng.uniform(0.0, 1e3, g.n_nodes) / g.h**2, 0.0), 1),
    ):
        rhs = rng.normal(size=g.n_nodes)
        expect = np.linalg.solve(dense + np.diag(shift), rhs)
        assert np.allclose(op.solve(rhs, shift), expect, rtol=1e-10, atol=1e-12)
        assert len(calls) == factored


def test_rect2d_signed_reduction_factors_nothing(monkeypatch):
    _forbid_factoring(monkeypatch)
    grid = build_grid("rect2d", 2.0**-5, extents=(2.0, 1.0))
    mu = DiscreteMeasure.from_atoms(
        grid, [((0.5, 0.5), 8 * math.pi), ((1.5, 0.5), -8 * math.pi)]
    )
    res = reduce_signed(grid, make_exponential(), mu)
    assert res.converged
    weights = sorted(w for _, w in res.mu_star.atoms)
    assert weights[0] == pytest.approx(-8 * math.pi)  # one-sided g: passes whole
    assert 0.0 < weights[-1] < 8 * math.pi


def test_interval_green_function_is_exact_at_nodes():
    # -u'' = delta_s on (0,1) with zero boundary values has the tent
    # u(x) = x (1-s) below s; the three-point scheme reproduces it exactly
    g = build_grid("interval1d", 2.0**-7, length=1.0)
    op = negative_laplacian(g)
    s = float(g.nodes[g.owner_node(0.5)[0]])
    mu = DiscreteMeasure.from_atoms(g, [(s, 1.0)])
    u = op.solve(assemble_rhs(g, mu))
    x = np.asarray(g.nodes)
    exact = np.where(x <= s, x * (1 - s), s * (1 - x))
    assert np.max(np.abs(u - exact)) <= 1e-10


def test_radial_green_function_matches_log_profile():
    g = build_grid("radialN", 2.0**-9, dim=2, radius=1.0)
    op = negative_laplacian(g)
    mu = DiscreteMeasure.from_atoms(g, [(0.0, 2.0 * math.pi)])
    u = op.solve(assemble_rhs(g, mu))
    r = np.abs(np.asarray(g.nodes))
    sample = (r > 0.05) & (r < 0.8)
    exact = np.log(1.0 / r[sample])
    assert np.max(np.abs(u[sample] - exact)) <= 0.01 * np.max(exact)


def test_build_grid_rejects_unknown_kind():
    with pytest.raises(ValueError):
        build_grid("triangular", 0.1)
