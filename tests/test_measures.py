import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from reduced_measures.grids import build_grid
from reduced_measures.measures import DiscreteMeasure, tv_distance

GRID = build_grid("radialN", 2.0**-4, dim=2, radius=1.0)
N = GRID.n_nodes

densities = hnp.arrays(
    np.float64,
    (N,),
    elements=st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
)
atom_lists = st.lists(
    st.tuples(
        st.integers(0, N - 1),
        st.floats(-5.0, 5.0, allow_nan=False).filter(lambda w: abs(w) > 1e-9),
    ),
    max_size=4,
)
measures = st.builds(
    lambda d, a: DiscreteMeasure(GRID, d, tuple(a)), densities, atom_lists
)


def _mass(m: DiscreteMeasure) -> float:
    return float(np.sum(m.density * m.grid.cell_volumes)) + sum(w for _, w in m.atoms)


def assert_same_measure(m1: DiscreteMeasure, m2: DiscreteMeasure, tol: float = 1e-10):
    assert np.allclose(m1.density, m2.density, atol=tol)
    assert np.allclose(m1.atom_weights(), m2.atom_weights(), atol=tol)


@settings(max_examples=60, deadline=None)
@given(measures, measures)
def test_sup_plus_inf_equals_sum(m1, m2):
    assert_same_measure(m1.lattice_sup(m2) + m1.lattice_inf(m2), m1 + m2)


@settings(max_examples=60, deadline=None)
@given(measures, measures)
def test_sup_and_inf_bracket_both_arguments(m1, m2):
    sup = m1.lattice_sup(m2)
    inf = m1.lattice_inf(m2)
    for m in (m1, m2):
        assert m.leq(sup, tol=1e-10)
        assert inf.leq(m, tol=1e-10)


@settings(max_examples=60, deadline=None)
@given(measures)
def test_jordan_decomposition(m):
    pos = m.positive_part()
    neg = m.negative_part()
    assert_same_measure(pos - neg, m)
    assert np.isclose(m.tv_norm(), pos.tv_norm() + neg.tv_norm(), atol=1e-10)
    # the two parts are carried by disjoint slots
    assert not np.any((pos.density != 0) & (neg.density != 0))
    assert not set(n for n, _ in pos.atoms) & set(n for n, _ in neg.atoms)


@settings(max_examples=60, deadline=None)
@given(measures, measures)
def test_tv_is_a_norm(m1, m2):
    assert (m1 + m2).tv_norm() <= m1.tv_norm() + m2.tv_norm() + 1e-10
    assert (2.5 * m1).tv_norm() == pytest.approx(2.5 * m1.tv_norm())
    assert abs(_mass(m1)) <= m1.tv_norm() + 1e-10
    assert tv_distance(m1, m1) == 0.0


@settings(max_examples=60, deadline=None)
@given(measures)
def test_diffuse_concentrated_split(m):
    diffuse, concentrated = m.decompose()
    assert_same_measure(diffuse + concentrated, m)
    assert diffuse.atoms == ()
    assert not np.any(concentrated.density)
    assert np.isclose(m.tv_norm(), diffuse.tv_norm() + concentrated.tv_norm())


def test_interval_grids_treat_points_as_diffuse():
    g = build_grid("interval1d", 2.0**-4, length=1.0)
    m = DiscreteMeasure.from_atoms(g, [(0.5, 1.0)])
    diffuse, concentrated = m.decompose()
    assert diffuse.atoms == m.atoms
    assert concentrated.tv_norm() == 0.0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, N - 1),
            st.floats(-5.0, 5.0, allow_nan=False).filter(lambda w: abs(w) > 1e-9),
        ),
        min_size=1,
        max_size=3,
    )
)
def test_mollification_conserves_mass_and_removes_atoms(atoms):
    m = DiscreteMeasure(GRID, np.zeros(N), tuple(atoms))
    radius = 4 * GRID.h
    interior = GRID.interior_mask(radius)
    if not all(interior[n] for n, _ in m.atoms):
        with pytest.raises(ValueError):
            m.mollify_radius(radius)
        return
    out = m.mollify_radius(radius)
    assert out.atoms == ()
    assert _mass(out) == pytest.approx(_mass(m), abs=1e-10)
    assert out.tv_norm() <= m.tv_norm() + 1e-10


def test_mollification_rejects_unresolvable_radius():
    m = DiscreteMeasure.from_atoms(GRID, [(0.5, 1.0)])
    with pytest.raises(ValueError):
        m.mollify_radius(GRID.h)


def _dense_mollify(m: DiscreteMeasure, radius: float) -> np.ndarray:
    """Reference: spread each source cell and each atom with its own
    normalized kernel, one loop step per source."""
    grid = m.grid
    vols = grid.cell_volumes
    out = np.zeros(grid.n_nodes)

    def spread(mass, dist):
        kernel = np.maximum(1.0 - dist / radius, 0.0)
        out[:] += mass * kernel / float(np.sum(kernel * vols))

    for j in np.flatnonzero(m.density):
        spread(m.density[j] * vols[j], grid.distances_to(j))
    for node, weight in m.atoms:
        if grid.kind == "radialN" and node == 0:
            spread(weight, np.abs(grid.nodes))  # the atom sits at the origin
        else:
            spread(weight, grid.distances_to(node))
    return out


@pytest.mark.parametrize(
    "grid, atoms",
    [
        (build_grid("interval1d", 2.0**-6, length=1.0), [(0.3, 2.0), (0.55, -1.5)]),
        (build_grid("radialN", 2.0**-6, dim=2, radius=1.0), [(0.0, 3.0), (0.4, -2.0)]),
        (build_grid("radialN", 2.0**-6, dim=3, radius=1.0), [(0.0, -1.0), (0.25, 4.0)]),
        (build_grid("rect2d", 1.0 / 48.0, extents=(1.0, 1.0)), [((0.5, 0.5), 8.0), ((0.3, 0.6), -2.0)]),
    ],
    ids=["interval1d", "radial2", "radial3", "rect2d"],
)
@pytest.mark.parametrize("cells", [4, 7])
def test_mollification_matches_the_dense_loop(grid, atoms, cells):
    radius = cells * grid.h
    rng = np.random.default_rng(3)
    interior = np.flatnonzero(grid.interior_mask(radius))
    density = np.zeros(grid.n_nodes)
    hot = rng.choice(interior, size=len(interior) // 3, replace=False)
    density[hot] = rng.uniform(-2.0, 3.0, size=hot.size)
    if grid.kind == "radialN":
        density[0] = 1.5  # cell 0 is the ball around the origin
    m = DiscreteMeasure(grid, density, DiscreteMeasure.from_atoms(grid, atoms).atoms)
    ref = _dense_mollify(m, radius)
    out = m.mollify_radius(radius)
    assert out.atoms == ()
    assert np.max(np.abs(out.density - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_atoms_snap_to_owning_nodes():
    m = DiscreteMeasure.from_atoms(GRID, [(0.249, 1.0)])
    ((node, w),) = m.atoms
    (coord,) = m.atom_coordinate(node)
    assert abs(coord - 0.249) <= GRID.h
    assert w == 1.0
    # an origin atom on a radial grid is reported at r = 0
    m0 = DiscreteMeasure.from_atoms(GRID, [(0.0, 2.0)])
    assert m0.atom_coordinate(m0.atoms[0][0]) == (0.0,)
    with pytest.raises(ValueError):
        DiscreteMeasure.from_atoms(GRID, [(1.5, 1.0)])


def test_atoms_at_the_same_node_merge():
    m = DiscreteMeasure.from_atoms(GRID, [(0.25, 1.0), (0.25, 2.0)])
    assert len(m.atoms) == 1
    assert m.atoms[0][1] == 3.0
    # exact cancellation removes the atom entirely
    z = DiscreteMeasure.from_atoms(GRID, [(0.25, 1.0), (0.25, -1.0)])
    assert z.atoms == ()


def test_non_finite_weights_and_densities_are_rejected():
    # a NaN atom must not vanish in the merge, where abs(nan) > 0 is False
    for weight in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="not finite"):
            DiscreteMeasure(GRID, np.zeros(N), ((0, 1.0), (0, weight)))
    with pytest.raises(ValueError, match="finite"):
        DiscreteMeasure.from_density(GRID, float("nan"))


def test_measures_on_different_grids_do_not_mix():
    other = build_grid("radialN", 2.0**-5, dim=2, radius=1.0)
    with pytest.raises(ValueError):
        DiscreteMeasure.zero(GRID) + DiscreteMeasure.zero(other)
