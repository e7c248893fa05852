"""Grids and discrete negative Laplacians, with homogeneous Dirichlet data
eliminated from the operator.  Two geometries are supported:

* a Cartesian lattice, nodes at (i+1)h on every axis, cell volume h^dim and
  one second difference per axis: ``interval1d`` is (0, L), one axis, and
  ``rect2d`` an axis-aligned rectangle, two (the 5-point stencil),
* ``radialN``: the ball of radius R in dimension N >= 2, reduced to the
  radial coordinate.  Nodes sit at r_i = (i+1)h with R = (M+1)h; the
  finite-volume cell of the first node is the full ball [0, 3h/2), so a
  Dirac at the origin enters as a flux source on that cell and the
  integral bookkeeping of point masses is exact.

In every case the matrix is an M-matrix, symmetric under the
cell-volume inner product, and exact on quadratics (second differences
on the lattice, radial quadratics R^2 - r^2 for radialN).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _kernels


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n (2*pi for n=2, 4*pi for n=3)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class Grid:
    """A uniform grid over one of the supported domains.

    ``extents`` holds the side lengths, (L,), (R,) or (Lx, Ly), and ``shape``
    the node counts, last axis fastest: (n,), (M,) or (ny, nx).  ``nodes``
    holds node coordinates: shape (M,) on one axis (the radial coordinate
    for radialN), (M, 2) with columns (x, y) for rect2d.  ``cell_volumes``
    are the finite-volume weights used by every integral in the package.
    """

    kind: str
    h: float
    nodes: np.ndarray
    cell_volumes: np.ndarray
    dim: int
    extents: tuple[float, ...]
    shape: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("interval1d", "radialN", "rect2d"):
            raise ValueError(f"unknown grid kind: {self.kind!r}")
        if self.h <= 0:
            raise ValueError("h must be positive")
        if self.n_nodes < 1:
            raise ValueError("grid needs at least one interior node")

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def scale(self) -> float:
        """The domain's length scale: its shortest side, or its radius."""
        return min(self.extents)

    @cached_property
    def domain_volume(self) -> float:
        if self.kind == "radialN":
            return sphere_area(self.dim) * self.extents[0] ** self.dim / self.dim
        return math.prod(self.extents)

    @cached_property
    def boundary_adjacent(self) -> np.ndarray:
        """Mask of nodes whose cell touches the outer boundary: the outer
        end for radialN, both ends of every lattice axis otherwise."""
        mask = np.zeros(self.shape, dtype=bool)
        for axis in range(mask.ndim):
            ends = np.moveaxis(mask, axis, 0)  # a view: writes reach mask
            ends[-1] = True
            ends[0] |= self.kind != "radialN"  # the radial line starts at the centre
        return mask.ravel()

    # --- point and set helpers -------------------------------------------

    def owner_node(self, point) -> tuple[int, float]:
        """Node owning the cell containing ``point`` and the distance from
        the point to that cell (0.0 when the point lies inside it).  A point
        has one coordinate per axis of ``shape``: (x,) or (x, y)."""
        p = np.atleast_1d(np.asarray(point, dtype=float))
        if p.shape != (len(self.shape),) or not np.isfinite(p).all():
            raise ValueError(f"{self.kind} atoms need {len(self.shape)} finite coordinate(s), got {point}")
        if self.kind == "radialN" and p[0] < 1.5 * self.h:
            if p[0] < 0:
                raise ValueError("radial coordinate must be >= 0")
            return 0, 0.0  # node 0's cell is the ball [0, 3h/2)
        index = [int(round(c / self.h - 1.0)) for c in p[::-1]]  # last axis is x
        if self.kind == "radialN":
            index = [min(index[0], self.n_nodes - 1)]  # past R: the outermost cell
        elif not all(0 <= i < n for i, n in zip(index, self.shape)):
            raise ValueError(f"atom at {point} is not interior")
        node = int(np.ravel_multi_index(index, self.shape))
        d = np.linalg.norm(p - self.nodes[node], ord=np.inf)
        return node, max(0.0, d - self.h / 2.0)

    def distances_to(self, node: int) -> np.ndarray:
        """Euclidean distance from every node to ``node`` (radial metric
        for radial grids)."""
        if self.nodes.ndim == 2:
            return np.linalg.norm(self.nodes - self.nodes[node], axis=1)
        return np.abs(self.nodes - self.nodes[node])

    def atom_distances(self, node: int) -> np.ndarray:
        """Distance from every node to the atom owned by ``node``: a
        radialN node-0 atom sits at the origin, every other atom at its
        node."""
        if self.kind == "radialN" and node == 0:
            return np.abs(self.nodes)
        return self.distances_to(node)

    def kernel_sum(self, values: np.ndarray, radius: float) -> np.ndarray:
        """out[i] = sum_j max(0, 1 - d(i, j)/radius) values[j] for the
        metric d of ``distances_to``, summed over lattice offsets: shifted
        slices of the zero-padded values on the ``shape`` array."""
        k = int(radius / self.h) + 1  # one spare offset absorbs rounding in radius/h
        axis = np.arange(-k, k + 1) * self.h
        offsets = np.meshgrid(*[axis] * len(self.shape), indexing="ij")
        dist = np.sqrt(sum(o * o for o in offsets))
        weights = np.maximum(0.0, 1.0 - dist / radius)
        padded = np.pad(np.reshape(values, self.shape), k)
        out = np.zeros(self.shape)
        for idx in np.argwhere(weights > 0.0):
            window = tuple(slice(i, i + n) for i, n in zip(idx, self.shape))
            out += weights[tuple(idx)] * padded[window]
        return out.ravel()

    def interior_mask(self, margin: float) -> np.ndarray:
        """Nodes at distance greater than ``margin`` from the boundary."""
        if self.kind == "radialN":
            return self.nodes < self.extents[0] - margin
        coords = self.nodes.reshape(self.n_nodes, -1)
        far = (coords > margin) & (coords < np.asarray(self.extents) - margin)
        return far.all(axis=1)


@dataclass
class GridFunction:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_nodes,):
            raise ValueError("values must have one entry per interior node")


def build_grid(
    kind: str,
    h: float,
    *,
    length: float = 1.0,
    dim: int = 2,
    radius: float = 1.0,
    extents: tuple[float, ...] = (1.0, 1.0),
) -> Grid:
    """Construct a grid; ``h`` must divide the domain extent evenly."""

    def steps(extent: float) -> int:
        m = extent / h
        mi = int(round(m)) if math.isfinite(m) else 0
        if abs(m - mi) > 1e-9 * max(1.0, m) or mi < 2:
            raise ValueError(f"h={h} does not evenly divide extent {extent}")
        return mi

    if kind == "radialN":
        if dim < 2:
            raise ValueError("radialN needs dim >= 2")
        m = steps(radius) - 1
        nodes = (np.arange(m) + 1.0) * h
        omega = sphere_area(dim)
        faces = (np.arange(m) + 1.5) * h  # outer face of each cell
        outer = omega * faces**dim / dim
        vols = np.diff(outer, prepend=0.0)
        return Grid("radialN", h, nodes, vols, dim, (radius,), (m,))

    if kind in ("interval1d", "rect2d"):
        sides = (length,) if kind == "interval1d" else tuple(extents)
        if kind == "rect2d" and len(sides) != 2:
            raise ValueError(f"rect2d needs two extents, got {list(sides)}")
        shape = tuple(steps(side) - 1 for side in sides)[::-1]  # last axis is x
        coords = np.meshgrid(*[(np.arange(n) + 1.0) * h for n in shape], indexing="ij")
        nodes = np.column_stack([c.ravel() for c in coords[::-1]]) if len(shape) > 1 else coords[0]
        vols = np.full(nodes.shape[0], math.prod([h] * len(shape)))  # h*h: h**2 may round apart
        return Grid(kind, h, nodes, vols, len(shape), sides, shape)

    raise ValueError(f"unknown grid kind: {kind!r}")


# rect2d's CG stops at the caller's relative residual: _kernels.CG_RTOL by
# default, Newton's forcing term in a Newton step.  Past this many iterations
# L + diag(s) is factored: s h^2 uniform in [0, 1e3] on the central quarter
# of the unit square at h = 1/32 needs 230 to reach CG_RTOL.
CG_MAX_ITER = 60


def _sine_transform(a: np.ndarray) -> np.ndarray:
    """Orthonormal type-I sine transform of every axis, its own inverse.  scipy.fft
    is imported at the first call: it loads scipy.special (30 ms, 3.8 MB), which
    interval and radial work never needs.  0.10 ms against numpy's 0.23 at 95 x 191."""
    import scipy.fft
    return scipy.fft.dstn(a, type=1, norm="ortho")


@dataclass
class LinearOperator:
    """The discrete negative Laplacian with Dirichlet rows eliminated.

    diag(cell_volumes) @ matrix is symmetric.  On one axis (interval1d,
    radialN) the three diagonals of L are kept, and ``e``, the off-diagonal
    of diag(cell_volumes) L: minus each interior face's conductance.  A
    solve factors that symmetric positive definite form by LDL^T.  On two
    axes (rect2d) L is CSR, diagonalised by scipy.fft.dstn's type-I sine
    transform.
    """

    grid: Grid
    dl: Optional[np.ndarray]
    d: Optional[np.ndarray]
    du: Optional[np.ndarray]
    e: Optional[np.ndarray] = None
    _csr: Optional[sp.csr_matrix] = field(default=None, repr=False)

    @property
    def is_tridiagonal(self) -> bool:
        return self.d is not None

    @property
    def matrix(self) -> sp.csr_matrix:
        if self._csr is None:
            self._csr = sp.diags([self.dl, self.d, self.du], [-1, 0, 1], format="csr")
        return self._csr

    @cached_property
    def _eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the lattice L on the ``shape`` array of sine modes:
        the outer sum of each axis's second-difference eigenvalues."""
        k = [2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)) for n in self.grid.shape]
        return reduce(np.add.outer, k) / self.grid.h**2

    def apply(self, values: np.ndarray) -> np.ndarray:
        if self.is_tridiagonal:
            out = self.d * values
            out[1:] += self.dl * values[:-1]
            out[:-1] += self.du * values[1:]
            return out
        return self._csr @ values

    def abs_weights(self) -> np.ndarray:
        """w with w @ |u| = sum(vol * (|L| @ |u|)) for every u.

        diag(vol) L is symmetric, so column j of |L| weighted by vol sums to
        vol_j times row j of |L|, and for an M-matrix that row sum is
        2 L_jj - (L 1)_j."""
        diag = self.d if self.is_tridiagonal else self._csr.diagonal()
        return self.grid.cell_volumes * (2.0 * diag - self.apply(np.ones(self.grid.n_nodes)))

    def solve(
        self,
        rhs: np.ndarray,
        shift: np.ndarray | float | None = None,
        rtol: float = _kernels.CG_RTOL,
    ) -> np.ndarray:
        """Solve (L + diag(shift)) x = rhs; shift >= 0 keeps the M-matrix.

        Tridiagonal grids solve exactly, by LDL^T of the weighted system
        diag(vol) (L + diag(shift)) x = diag(vol) rhs.  On rect2d no shift
        or a scalar one is one sine-transform pair, also exact, and an array
        shift runs CG preconditioned by L^-1 until ||rhs - (L + diag(shift)) x||_2
        <= rtol ||rhs||_2, then splu past CG_MAX_ITER."""
        if self.is_tridiagonal:
            vols = self.grid.cell_volumes
            d = self.d if shift is None else self.d + shift
            return _kernels.thomas_solve(vols * d, self.e, vols * rhs)

        def poisson(r, c=0.0):
            r = _sine_transform(r.reshape(self._eigenvalues.shape))
            return _sine_transform(r / (self._eigenvalues + c)).ravel()

        if shift is None or np.ndim(shift) == 0:
            return poisson(rhs, shift or 0.0)
        x, r, p, rz = np.zeros_like(rhs), rhs.copy(), 0.0, 1.0  # first p is z
        stop = rtol * np.linalg.norm(rhs)
        for _ in range(CG_MAX_ITER):
            if np.linalg.norm(r) <= stop:
                return x
            z = poisson(r)
            rz, rz_old = r @ z, rz
            p = z + (rz / rz_old) * p
            q = self._csr @ p + shift * p
            alpha = rz / (p @ q)
            x += alpha * p
            r -= alpha * q
        return spla.splu((self._csr + sp.diags(shift)).tocsc()).solve(rhs)


def negative_laplacian(grid: Grid) -> LinearOperator:
    m = grid.n_nodes
    h = grid.h
    if grid.kind == "radialN":
        n = grid.dim
        omega = sphere_area(n)
        vols = grid.cell_volumes
        faces = (np.arange(m) + 1.5) * h  # face between node i and i+1
        flux = omega * faces ** (n - 1) / h  # conductance through each face
        d = (np.r_[0.0, flux[:-1]] + flux) / vols  # node 0's cell has no inner face
        dl = -flux[:-1] / vols[1:]
        du = -flux[:-1] / vols[:-1]
        # the outermost face couples to the eliminated ghost node at r = R
        return LinearOperator(grid, dl, d, du, -flux[:-1])

    # the lattice: the Kronecker sum of one second difference per axis, by its
    # diagonals (7x faster than sp.kronsum at 15 x 15).  An axis couples nodes
    # ``stride`` apart but not across its lines' ends; on a plane an axis of one
    # node couples none, and would repeat an offset.
    c = 1.0 / h**2
    diagonals, offsets = [np.full(m, 2.0 * c * len(grid.shape))], [0]
    for axis, n in enumerate(grid.shape):
        if n == 1 and len(grid.shape) > 1:
            continue
        stride = math.prod(grid.shape[axis + 1:])
        e = np.full(grid.shape, -c)
        e[(slice(None),) * axis + (-1,)] = 0.0
        diagonals += [e.ravel()[: m - stride]] * 2
        offsets += [-stride, stride]
    if len(grid.shape) == 1:
        # each face of a unit cross-section conducts 1/h
        e = np.full(m - 1, -1.0 / h)
        return LinearOperator(grid, diagonals[1], diagonals[0], diagonals[2], e)
    return LinearOperator(grid, None, None, None, _csr=sp.diags(diagonals, offsets, format="csr"))
