"""Discrete capacities of node sets.

Two quantities for a compact node set K: the H1 capacity (Dirichlet
energy of the equilibrium potential clamped to 1 on K) and the mass
``delta1_mass`` of the distributional Laplacian of a cut-off built from
that potential.  The structural fact this module certifies numerically
is that the second is twice the first; ``construct_psi`` reports their
ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .grids import Grid, GridFunction, negative_laplacian


@dataclass(frozen=True)
class CompactSet:
    """A nonempty, strictly interior set of nodes."""

    grid: Grid
    nodes: np.ndarray
    tag: str = ""

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=int)
        object.__setattr__(self, "nodes", nodes)
        if nodes.size == 0:
            raise ValueError("a compact set needs at least one node")
        if np.any(self.grid.boundary_adjacent[nodes]):
            raise ValueError(f"set {self.tag!r} touches the boundary ring")

    def mask(self) -> np.ndarray:
        m = np.zeros(self.grid.n_nodes, dtype=bool)
        m[self.nodes] = True
        return m


def point_set(grid: Grid, point, tag: str = "point") -> CompactSet:
    node, _ = grid.owner_node(point)
    return CompactSet(grid, np.array([node]), tag)


def ball_set(grid: Grid, center, radius: float, tag: str = "ball") -> CompactSet:
    node, _ = grid.owner_node(center)
    return CompactSet(grid, np.flatnonzero(grid.atom_distances(node) <= radius), tag)


def cap_h1(grid: Grid, K: CompactSet, op=None) -> dict:
    """Equilibrium potential and H1 capacity of K.

    The potential is 1 on K, 0 on the boundary and discretely harmonic
    in between; the capacity is its Dirichlet energy, evaluated as the
    net flux into K (the two agree by summation by parts).
    """
    if op is None:
        op = negative_laplacian(grid)
    A = op.matrix.tocsr()
    mask = K.mask()
    free = np.flatnonzero(~mask)
    u = np.zeros(grid.n_nodes)
    u[mask] = 1.0
    if free.size:
        rhs = -(A[free][:, K.nodes] @ np.ones(K.nodes.size))
        u[free] = splu(A[free][:, free].tocsc()).solve(rhs)
    energy = float(np.sum(u * op.apply(u) * grid.cell_volumes))
    return {"value": energy, "potential": GridFunction(grid, u)}


def construct_psi(
    grid: Grid,
    K: CompactSet,
    delta: float = 0.02,
    mollify_level: float | None = None,
    op=None,
) -> dict:
    """Cut-off witnessing the upper capacity bound.

    psi = (u - delta)+ / (1 - delta) for the equilibrium potential u,
    optionally smoothed; it equals 1 on K, vanishes where u <= delta
    (in particular near the boundary) and its Laplacian carries total
    mass about 2 cap / (1 - delta).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if op is None:
        op = negative_laplacian(grid)
    pot = cap_h1(grid, K, op=op)
    u = pot["potential"].values
    psi = np.clip((u - delta) / (1.0 - delta), 0.0, 1.0)
    if np.any(psi[grid.boundary_adjacent] > 0.0):
        raise ValueError(
            f"delta={delta} leaves the cut-off supported up to the boundary "
            "at this resolution"
        )
    if mollify_level is not None:
        radius = 1.0 / mollify_level
        if radius < 2.0 * grid.h:
            raise ValueError("smoothing kernel below the resolvable 2h floor")
        # weighted moving average with the triangle kernel (plain function
        # smoothing, not mass-preserving)
        psi = grid.kernel_sum(psi, radius) / grid.kernel_sum(np.ones_like(psi), radius)
        psi[K.mask()] = 1.0
    delta1 = float(np.sum(np.abs(op.apply(psi)) * grid.cell_volumes))
    return {
        "psi": GridFunction(grid, psi),
        "delta1_mass": delta1,
        "cap_h1": pot["value"],
        "ratio": delta1 / pot["value"] if pot["value"] > 0 else float("inf"),
    }

