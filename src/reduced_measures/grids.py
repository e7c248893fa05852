"""Grids and discrete negative Laplacians.

Three domain families are supported, all with homogeneous Dirichlet data
eliminated from the operator:

* ``interval1d``: (0, L) with nodes at (i+1)h and cell volume h,
* ``radialN``: the ball of radius R in dimension N >= 2, reduced to the
  radial coordinate.  Nodes sit at r_i = (i+1)h with R = (M+1)h; the
  finite-volume cell of the first node is the full ball [0, 3h/2), so a
  Dirac at the origin enters as a flux source on that cell and the
  integral bookkeeping of point masses is exact,
* ``rect2d``: an axis-aligned rectangle with the 5-point stencil.

In every case the matrix is an M-matrix, symmetric under the
cell-volume inner product, and exact on quadratics (second differences
in 1d, radial quadratics R^2 - r^2 for radialN).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
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

    ``nodes`` holds node coordinates: shape (M,) for interval1d/radialN
    (the radial coordinate), shape (M, 2) for rect2d.  ``cell_volumes``
    are the finite-volume weights used by every integral in the package.
    """

    kind: str
    h: float
    nodes: np.ndarray
    cell_volumes: np.ndarray
    dim: int
    # geometry parameters; unused entries stay at 0
    length: float = 0.0
    radius: float = 0.0
    extents: tuple[float, float] = (0.0, 0.0)
    shape2d: tuple[int, int] = (0, 0)  # (nx, ny) for rect2d

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

    @cached_property
    def domain_volume(self) -> float:
        if self.kind == "interval1d":
            return self.length
        if self.kind == "radialN":
            return sphere_area(self.dim) * self.radius**self.dim / self.dim
        return self.extents[0] * self.extents[1]

    @cached_property
    def boundary_adjacent(self) -> np.ndarray:
        """Mask of nodes whose cell touches the outer boundary."""
        mask = np.zeros(self.n_nodes, dtype=bool)
        if self.kind == "interval1d":
            mask[0] = mask[-1] = True
        elif self.kind == "radialN":
            mask[-1] = True
        else:
            nx, ny = self.shape2d
            m2 = mask.reshape(ny, nx)
            m2[0, :] = m2[-1, :] = True
            m2[:, 0] = m2[:, -1] = True
        return mask

    # --- point and set helpers -------------------------------------------

    def owner_node(self, point) -> tuple[int, float]:
        """Node owning the cell containing ``point`` and the distance from
        the point to that cell (0.0 when the point lies inside it)."""
        p = np.atleast_1d(np.asarray(point, dtype=float))
        if self.kind == "rect2d":
            if p.shape != (2,):
                raise ValueError("rect2d atoms need 2d coordinates")
            nx, ny = self.shape2d
            i = int(round(p[0] / self.h - 1.0))
            j = int(round(p[1] / self.h - 1.0))
            if not (0 <= i < nx and 0 <= j < ny):
                raise ValueError(f"atom at {point} is not interior")
            node = j * nx + i
            d = np.linalg.norm(p - self.nodes[node], ord=np.inf)
            return node, max(0.0, d - self.h / 2.0)
        x = float(p[0])
        if self.kind == "radialN":
            if x < 0:
                raise ValueError("radial coordinate must be >= 0")
            if x < 1.5 * self.h:
                return 0, 0.0
            i = int(round(x / self.h - 1.0))
            i = min(max(i, 0), self.n_nodes - 1)
            d = abs(x - self.nodes[i])
            return i, max(0.0, d - self.h / 2.0)
        i = int(round(x / self.h - 1.0))
        if not 0 <= i < self.n_nodes:
            raise ValueError(f"atom at {point} is not interior")
        d = abs(x - self.nodes[i])
        return i, max(0.0, d - self.h / 2.0)

    def distances_to(self, node: int) -> np.ndarray:
        """Euclidean distance from every node to ``node`` (radial metric
        for radial grids)."""
        if self.kind == "rect2d":
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
        slices of the zero-padded values, on the (ny, nx) array for rect2d
        and on the node line otherwise."""
        shape = self.shape2d[::-1] if self.kind == "rect2d" else (self.n_nodes,)
        k = int(radius / self.h) + 1  # one spare offset absorbs rounding in radius/h
        axis = np.arange(-k, k + 1) * self.h
        offsets = np.meshgrid(*[axis] * len(shape), indexing="ij")
        dist = np.sqrt(sum(o * o for o in offsets))
        weights = np.maximum(0.0, 1.0 - dist / radius)
        padded = np.pad(np.reshape(values, shape), k)
        out = np.zeros(shape)
        for idx in np.argwhere(weights > 0.0):
            window = tuple(slice(i, i + n) for i, n in zip(idx, shape))
            out += weights[tuple(idx)] * padded[window]
        return out.ravel()

    def interior_mask(self, margin: float) -> np.ndarray:
        """Nodes at distance greater than ``margin`` from the boundary."""
        if self.kind == "interval1d":
            x = self.nodes
            return (x > margin) & (x < self.length - margin)
        if self.kind == "radialN":
            return self.nodes < self.radius - margin
        x, y = self.nodes[:, 0], self.nodes[:, 1]
        lx, ly = self.extents
        return (x > margin) & (x < lx - margin) & (y > margin) & (y < ly - margin)


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
    extents: tuple[float, float] = (1.0, 1.0),
) -> Grid:
    """Construct a grid; ``h`` must divide the domain extent evenly."""

    def steps(extent: float) -> int:
        m = extent / h
        mi = int(round(m))
        if abs(m - mi) > 1e-9 * max(1.0, m) or mi < 2:
            raise ValueError(f"h={h} does not evenly divide extent {extent}")
        return mi

    if kind == "interval1d":
        m = steps(length) - 1
        nodes = (np.arange(m) + 1.0) * h
        vols = np.full(m, h)
        return Grid("interval1d", h, nodes, vols, dim=1, length=length)

    if kind == "radialN":
        if dim < 2:
            raise ValueError("radialN needs dim >= 2")
        m = steps(radius) - 1
        nodes = (np.arange(m) + 1.0) * h
        omega = sphere_area(dim)
        faces = (np.arange(m) + 1.5) * h  # outer face of each cell
        outer = omega * faces**dim / dim
        vols = np.empty(m)
        vols[0] = outer[0]
        vols[1:] = outer[1:] - outer[:-1]
        return Grid("radialN", h, nodes, vols, dim=dim, radius=radius)

    if kind == "rect2d":
        nx = steps(extents[0]) - 1
        ny = steps(extents[1]) - 1
        xs = (np.arange(nx) + 1.0) * h
        ys = (np.arange(ny) + 1.0) * h
        gx, gy = np.meshgrid(xs, ys)  # row-major: y outer, x inner
        nodes = np.column_stack([gx.ravel(), gy.ravel()])
        vols = np.full(nx * ny, h * h)
        return Grid(
            "rect2d", h, nodes, vols, dim=2, extents=tuple(extents), shape2d=(nx, ny)
        )

    raise ValueError(f"unknown grid kind: {kind!r}")


# rect2d's CG stops at the caller's relative residual: _kernels.CG_RTOL by
# default, Newton's forcing term in a Newton step.  Past this many iterations
# L + diag(s) is factored: s h^2 uniform in [0, 1e3] on the central quarter
# of the unit square at h = 1/32 needs 230 to reach CG_RTOL.
CG_MAX_ITER = 60


def _sine_transform(a: np.ndarray) -> np.ndarray:
    """Orthonormal type-I sine transform of both axes, its own inverse.  scipy.fft
    is imported at the first call: it loads scipy.special (30 ms, 3.8 MB), which
    interval and radial work never needs.  0.10 ms against numpy's 0.23 at 95 x 191."""
    import scipy.fft
    return scipy.fft.dstn(a, type=1, norm="ortho")


@dataclass
class LinearOperator:
    """The discrete negative Laplacian with Dirichlet rows eliminated.

    For interval1d/radialN the three diagonals are kept explicitly and the
    solver goes through the Thomas kernel; rect2d assembles CSR, diagonalised
    by scipy.fft.dstn's type-I sine transform.  diag(cell_volumes) @ matrix is symmetric.
    """

    grid: Grid
    dl: Optional[np.ndarray]
    d: Optional[np.ndarray]
    du: Optional[np.ndarray]
    _csr: Optional[sp.csr_matrix] = field(default=None, repr=False)

    @property
    def is_tridiagonal(self) -> bool:
        return self.d is not None

    @property
    def matrix(self) -> sp.csr_matrix:
        if self._csr is None:
            n = self.grid.n_nodes
            self._csr = sp.diags(
                [self.dl, self.d, self.du], [-1, 0, 1], shape=(n, n)
            ).tocsr()
        return self._csr

    @cached_property
    def _eigenvalues(self) -> np.ndarray:
        """Eigenvalues of rect2d's L on the (ny, nx) array of sine modes."""
        nx, ny = self.grid.shape2d
        kx, ky = [2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)) for n in (nx, ny)]
        return (ky[:, None] + kx[None, :]) / self.grid.h**2

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

        Tridiagonal grids solve exactly.  On rect2d no shift or a scalar one
        is one sine-transform pair, also exact, and an array shift runs CG
        preconditioned by L^-1 until ||rhs - (L + diag(shift)) x||_2 <=
        rtol ||rhs||_2, then splu past CG_MAX_ITER."""
        if self.is_tridiagonal:
            d = self.d if shift is None else self.d + shift
            return _kernels.thomas_solve(self.dl, d, self.du, rhs)

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
    if grid.kind == "interval1d":
        d = np.full(m, 2.0 / h**2)
        off = np.full(m - 1, -1.0 / h**2)
        return LinearOperator(grid, off.copy(), d, off.copy())

    if grid.kind == "radialN":
        n = grid.dim
        omega = sphere_area(n)
        vols = grid.cell_volumes
        faces = (np.arange(m) + 1.5) * h  # face between node i and i+1
        flux = omega * faces ** (n - 1) / h  # conductance through each face
        d = np.empty(m)
        d[0] = flux[0] / vols[0]
        d[1:] = (flux[:-1] + flux[1:]) / vols[1:]
        dl = -flux[:-1] / vols[1:]
        du = -flux[:-1] / vols[:-1]
        # the outermost face couples to the eliminated ghost node at r = R
        return LinearOperator(grid, dl, d, du)

    # rect2d, 5-point stencil
    nx, ny = grid.shape2d
    mat = sp.diags([np.full(m, 4.0 / h**2)], [0])
    if nx > 1:
        ex = np.full(m - 1, -1.0 / h**2)
        ex[np.arange(1, m) % nx == 0] = 0.0  # no coupling across row ends
        mat = mat + sp.diags([ex, ex], [-1, 1])
    if m > nx:
        ey = np.full(m - nx, -1.0 / h**2)
        mat = mat + sp.diags([ey, ey], [-nx, nx])
    return LinearOperator(grid, None, None, None, _csr=mat.tocsr())
