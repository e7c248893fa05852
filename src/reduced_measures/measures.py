"""Discrete measures: a density per cell plus point atoms at nodes.

The density and the atoms are treated as mutually singular parts, so
total variation adds across them and lattice operations act slotwise on
matched densities and matched atom weights.  Atoms are keyed by the node
whose cell owns them; on radial grids the node-0 atom models a Dirac at
the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Grid


def _merge_atoms(entries) -> tuple[tuple[int, float], ...]:
    acc: dict[int, float] = {}
    for node, w in entries:
        w = float(w)
        if not math.isfinite(w):
            raise ValueError(f"atom weight {w} at node {node} is not finite")
        acc[node] = acc.get(node, 0.0) + w
    return tuple(
        (n, w) for n, w in sorted(acc.items()) if abs(w) > 0.0
    )


@dataclass(frozen=True)
class DiscreteMeasure:
    grid: Grid
    density: np.ndarray
    atoms: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        d = np.asarray(self.density, dtype=float)
        if d.shape != (self.grid.n_nodes,):
            raise ValueError("density must have one value per node")
        if not np.isfinite(d).all():
            raise ValueError("density must be finite")
        object.__setattr__(self, "density", d)
        object.__setattr__(self, "atoms", _merge_atoms(self.atoms))
        for node, _ in self.atoms:
            if not 0 <= node < self.grid.n_nodes:
                raise ValueError(f"atom node {node} out of range")

    # --- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, grid: Grid) -> "DiscreteMeasure":
        return cls(grid, np.zeros(grid.n_nodes))

    @classmethod
    def from_density(cls, grid: Grid, values) -> "DiscreteMeasure":
        values = np.broadcast_to(np.asarray(values, dtype=float), (grid.n_nodes,))
        return cls(grid, values.copy())

    @classmethod
    def from_atoms(cls, grid: Grid, placed_atoms) -> "DiscreteMeasure":
        """``placed_atoms`` is a list of (coordinates, weight) pairs; each
        point is snapped to the node owning its cell and the snap distance
        must stay below h."""
        entries = []
        for point, weight in placed_atoms:
            node, snap = grid.owner_node(point)
            if snap >= grid.h:
                raise ValueError(f"atom at {point} lies {snap} from its node")
            entries.append((node, weight))
        return cls(grid, np.zeros(grid.n_nodes), tuple(entries))

    # --- bookkeeping -------------------------------------------------------

    def atom_weights(self) -> np.ndarray:
        w = np.zeros(self.grid.n_nodes)
        for node, weight in self.atoms:
            w[node] = weight
        return w

    def atom_coordinate(self, node: int):
        if self.grid.kind == "radialN" and node == 0:
            return (0.0,)
        return tuple(float(v) for v in np.atleast_1d(self.grid.nodes[node]))

    def tv_norm(self) -> float:
        return float(
            np.sum(np.abs(self.density) * self.grid.cell_volumes)
            + sum(abs(w) for _, w in self.atoms)
        )

    # --- arithmetic ---------------------------------------------------------

    def _check_grid(self, other: "DiscreteMeasure"):
        a, b = self.grid, other.grid
        if b is not a and (
            (a.kind, a.dim, a.h, a.extents, a.shape) != (b.kind, b.dim, b.h, b.extents, b.shape)
        ):
            raise ValueError("measures live on different grids")

    def __add__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        self._check_grid(other)
        return DiscreteMeasure(
            self.grid, self.density + other.density, self.atoms + other.atoms
        )

    def __neg__(self) -> "DiscreteMeasure":
        return DiscreteMeasure(
            self.grid, -self.density, tuple((n, -w) for n, w in self.atoms)
        )

    def __sub__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        return self + (-other)

    def __mul__(self, c: float) -> "DiscreteMeasure":
        return DiscreteMeasure(
            self.grid, c * self.density, tuple((n, c * w) for n, w in self.atoms)
        )

    __rmul__ = __mul__

    # --- lattice structure ---------------------------------------------------

    def positive_part(self) -> "DiscreteMeasure":
        return DiscreteMeasure(
            self.grid,
            np.maximum(self.density, 0.0),
            tuple((n, w) for n, w in self.atoms if w > 0),
        )

    def negative_part(self) -> "DiscreteMeasure":
        """mu = mu+ - mu-; the returned measure is nonnegative."""
        return (-self).positive_part()

    def lattice_sup(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        """sup{mu, nu} = nu + (mu - nu)+ taken slotwise."""
        self._check_grid(other)
        diff_atoms = (self - other).positive_part().atoms
        return DiscreteMeasure(
            other.grid,
            np.maximum(self.density, other.density),
            other.atoms + diff_atoms,
        )

    def lattice_inf(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        return -((-self).lattice_sup(-other))

    def leq(self, other: "DiscreteMeasure", tol: float = 0.0) -> bool:
        self._check_grid(other)
        if np.any(self.density > other.density + tol):
            return False
        diff = other.atom_weights() - self.atom_weights()
        return bool(np.all(diff >= -tol))

    # --- splitting -------------------------------------------------------------

    def decompose(self) -> tuple["DiscreteMeasure", "DiscreteMeasure"]:
        """Split into (diffuse, concentrated) parts: the density carries no
        mass on polar sets while atoms are the capacity-zero part for
        dimension >= 2.  On interval1d points have positive capacity, so
        everything is diffuse."""
        if self.grid.kind == "interval1d":
            return self, DiscreteMeasure.zero(self.grid)
        return (
            DiscreteMeasure(self.grid, self.density.copy()),
            DiscreteMeasure(self.grid, np.zeros(self.grid.n_nodes), self.atoms),
        )

    # --- mollification --------------------------------------------------------

    def check_mollifiable(self, radius: float) -> None:
        """Raise ValueError unless the kernel of this radius is resolved by
        the grid and every density cell and atom lies farther than the
        radius from the boundary."""
        grid = self.grid
        if radius < 2.0 * grid.h:
            raise ValueError(
                f"mollification radius {radius} is unresolvable at h={grid.h}"
            )
        interior = grid.interior_mask(radius)
        if not np.all(interior[np.flatnonzero(self.density)]):
            raise ValueError("density support too close to the boundary")
        if not all(interior[node] for node, _ in self.atoms):
            raise ValueError("atom too close to the boundary to mollify")

    def mollify_radius(self, radius: float) -> "DiscreteMeasure":
        """Replace atoms (and smooth the density) with the triangular bump
        (1 - |x|/r)+ at radius r.  Mass is redistributed cellwise (each
        source cell's mass is spread with a discretely normalized kernel),
        so the total mass is conserved exactly."""
        self.check_mollifiable(radius)
        grid = self.grid
        vols = grid.cell_volumes
        atoms = self.atom_weights()
        out = np.zeros(grid.n_nodes)
        if grid.kind == "radialN" and atoms[0] != 0.0:
            # the origin atom's bump is centred at r = 0, not at node 0
            kernel = np.maximum(1.0 - grid.atom_distances(0) / radius, 0.0)
            out += atoms[0] * kernel / float(np.sum(kernel * vols))
            atoms[0] = 0.0
        # the kernel is symmetric, so kernel_sum(vols)[j] is the
        # normalization of source j's kernel
        mass = self.density * vols + atoms
        out += grid.kernel_sum(mass / grid.kernel_sum(vols, radius), radius)
        return DiscreteMeasure(grid, out)


def tv_distance(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    return (mu - nu).tv_norm()
