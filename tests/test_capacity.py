import math

import numpy as np
import pytest

from reduced_measures.capacity import (
    CompactSet,
    ball_set,
    cap_h1,
    construct_psi,
    point_set,
)
from reduced_measures.grids import build_grid, negative_laplacian
from reduced_measures.solver import laplacian_mass


def _disk(h):
    return build_grid("radialN", h, dim=2, radius=1.0)


def test_interval_point_capacity_closed_form():
    # the equilibrium potential of a midpoint is the unit tent, whose
    # Dirichlet energy is 2^2 * (1/2) * 2 = 4, exactly at every resolution
    grid = build_grid("interval1d", 2.0**-8, length=1.0)
    out = cap_h1(grid, point_set(grid, 0.5))
    assert out["value"] == pytest.approx(4.0, abs=1e-9)
    u = out["potential"].values
    assert u.max() == pytest.approx(1.0)
    assert np.all((u >= -1e-12) & (u <= 1.0 + 1e-12))


def test_disk_capacity_matches_the_log_formula():
    grid = _disk(2.0**-8)
    out = cap_h1(grid, ball_set(grid, 0.0, 0.25))
    assert out["value"] == pytest.approx(2 * math.pi / math.log(4.0), rel=1e-3)


def test_equilibrium_potential_is_one_on_the_set():
    grid = _disk(2.0**-7)
    K = ball_set(grid, 0.0, 0.25)
    u = cap_h1(grid, K)["potential"].values
    assert np.allclose(u[K.nodes], 1.0)
    assert np.all((u >= -1e-12) & (u <= 1.0 + 1e-12))


def test_capacity_is_monotone_in_the_set():
    grid = _disk(2.0**-7)
    caps = [
        cap_h1(grid, point_set(grid, 0.0))["value"],
        cap_h1(grid, ball_set(grid, 0.0, 0.1))["value"],
        cap_h1(grid, ball_set(grid, 0.0, 0.25))["value"],
    ]
    assert caps[0] <= caps[1] + 1e-12
    assert caps[1] <= caps[2] + 1e-12


def test_planar_point_capacity_vanishes_under_refinement():
    values = []
    for k in (5, 6, 7, 8):
        grid = _disk(2.0**-k)
        values.append(cap_h1(grid, point_set(grid, 0.0))["value"])
    assert all(b < a for a, b in zip(values, values[1:]))
    # 2 pi / ln(1/h) decay: still positive but clearly shrinking
    assert values[-1] < 0.8 * values[0]


def test_cutoff_laplacian_mass_is_twice_the_capacity():
    grid = _disk(2.0**-8)
    K = ball_set(grid, 0.0, 0.25)
    out = construct_psi(grid, K, delta=0.02)
    assert out["ratio"] == pytest.approx(2.0 / (1.0 - 0.02), rel=1e-3)
    psi = out["psi"].values
    assert np.allclose(psi[K.nodes], 1.0)
    assert np.all((psi >= 0.0) & (psi <= 1.0))
    assert not np.any(psi[grid.boundary_adjacent] > 0.0)
    assert out["delta1_mass"] == pytest.approx(out["ratio"] * out["cap_h1"])


def test_cutoff_witnesses_the_lower_bound():
    # every test function that is 1 on K and vanishes near the boundary
    # bounds cap_h1(K) by half the mass of its Laplacian
    grid = _disk(2.0**-7)
    K = ball_set(grid, 0.0, 0.25)
    assert construct_psi(grid, K, delta=0.02)["ratio"] >= 2.0


def test_equilibrium_potential_is_not_an_admissible_competitor():
    # it reaches the boundary ring with nonzero slope, so its Laplacian
    # carries only the sink at K and misses the compensating source mass
    # that any compactly supported competitor must have
    grid = _disk(2.0**-7)
    K = ball_set(grid, 0.0, 0.25)
    out = cap_h1(grid, K)
    u = out["potential"].values
    assert np.any(u[grid.boundary_adjacent] > 0.0)
    mass = laplacian_mass(negative_laplacian(grid), u)
    assert mass == pytest.approx(out["value"], rel=1e-9)


def test_compact_sets_must_be_interior_and_nonempty():
    grid = _disk(2.0**-7)
    with pytest.raises(ValueError):
        CompactSet(grid, np.array([], dtype=int))
    with pytest.raises(ValueError):
        ball_set(grid, 0.0, 1.5)


def test_cutoff_delta_validation():
    grid = _disk(2.0**-7)
    K = ball_set(grid, 0.0, 0.25)
    with pytest.raises(ValueError):
        construct_psi(grid, K, delta=0.0)
    with pytest.raises(ValueError):
        construct_psi(grid, K, delta=1.5)


def test_smoothed_cutoff_stays_admissible():
    # smoothing only adds curvature mass, so the ratio can drift above 2
    # but the cut-off keeps witnessing the lower bound
    grid = _disk(2.0**-6)
    K = ball_set(grid, 0.0, 0.25)
    sharp = construct_psi(grid, K, delta=0.05)
    smooth = construct_psi(grid, K, delta=0.05, mollify_level=16.0)
    assert smooth["ratio"] >= sharp["ratio"] - 1e-9
    assert smooth["ratio"] <= 2.0 * sharp["ratio"]
    psi = smooth["psi"].values
    assert np.all(psi[K.nodes] == 1.0)
    assert not np.any(psi[grid.boundary_adjacent])
    assert smooth["ratio"] >= 2.0


def _dense_smooth(grid, values, radius):
    """Reference: one normalized kernel row per node."""
    out = np.empty_like(values)
    for i in range(grid.n_nodes):
        w = np.maximum(0.0, 1.0 - grid.distances_to(i) / radius)
        out[i] = float(np.dot(w, values) / np.sum(w))
    return out


@pytest.mark.parametrize(
    "grid, center, radius, delta, level",
    [
        (_disk(2.0**-6), 0.0, 0.25, 0.02, 16.0),
        (build_grid("rect2d", 2.0**-6, extents=(1.0, 1.0)), (0.5, 0.5), 0.1, 0.1, 10.0),
    ],
    ids=["radialN", "rect2d"],
)
def test_smoothed_cutoff_matches_the_dense_loop(grid, center, radius, delta, level):
    K = ball_set(grid, center, radius)
    ref = _dense_smooth(grid, construct_psi(grid, K, delta=delta)["psi"].values, 1.0 / level)
    ref[K.nodes] = 1.0
    out = construct_psi(grid, K, delta=delta, mollify_level=level)
    assert np.max(np.abs(out["psi"].values - ref)) <= 1e-12
    mass = laplacian_mass(negative_laplacian(grid), ref)
    assert out["delta1_mass"] == pytest.approx(mass, rel=1e-12)
