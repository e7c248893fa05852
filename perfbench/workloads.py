"""The benchmark's workloads, built from the seed.

A workload's set-up returns the operations of one pass, in order.  Each
``Op`` has a ``run`` callable, which is timed, and a ``summarize``
callable, which is not: it turns the result into the numerical outputs
the output gate compares.  Calls into the package go through module
attributes (``solver.solve_semilinear``, ``cli.main``, ...) so that the
tracer's wrappers see them.

Why these four:

* ``radial-fine`` and ``radial-finest``: fine-mesh radial truncations
  through ``rmlab reduce``, the h = 2^-13 cases (critical p = 3 in 3-d,
  exp at 8 pi in 2-d) and the h = 2^-14 case (p = 6 in 3-d).  Every
  capped solve past the roundoff floor runs to ``MAX_ITER`` on the
  tridiagonal kernel; ``splu`` is never called.  They are two workloads,
  not one, so that each pass has a single longest run: the p = 3 and
  p = 6 runs take about as long as each other, and a 99th percentile
  over both would report whichever one the host happened to slow.
* ``rect2d-signed``: the signed split on an 18,145-node rectangle through
  ``rmlab reduce``.  Nearly all of its time is SuperLU factorizations; the
  tridiagonal kernel is never called.
* ``small-mixed``: many short cold calls on the library API, where
  per-call set-up dominates and the O(n^2) smoothing loops run.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from reduced_measures import capacity, cli, reduction, solver
from reduced_measures.config import grid_from_spec
from reduced_measures.grids import build_grid, negative_laplacian
from reduced_measures.measures import DiscreteMeasure
from reduced_measures.nonlinearities import (
    make_exponential,
    make_power,
    make_two_sided_exponential,
)

FOUR_PI = 4.0 * math.pi

# Enough cold solves per pass that at least ten samples lie beyond p99
# even when a run holds a single pass.
SMALL_SOLVES = 1200


@dataclass
class Op:
    name: str
    kind: str  # "reduce" (one rmlab reduce run), "solve", "truncation", ...
    run: Callable[[], Any]
    summarize: Callable[[Any], dict]
    # (node, datum weight, closed-form reduced weight) per atom with an oracle
    oracle: list = field(default_factory=list)


def _atoms(pairs) -> list:
    return [[int(node), float(w)] for node, w in sorted(pairs)]


# --- rmlab reduce workloads ----------------------------------------------------


def _reduce_op(name: str, config: dict, workdir: str, oracle_weights) -> Op:
    """One ``rmlab reduce`` run on a config written at set-up.

    ``oracle_weights`` maps each atom's position to its closed-form
    reduced weight, or to None where no oracle applies."""
    grid = grid_from_spec(config["grid"])
    case_dir = os.path.join(workdir, name)
    os.makedirs(case_dir, exist_ok=True)
    path = os.path.join(case_dir, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    out_dir = os.path.join(case_dir, "out")
    oracle = []
    for atom, closed in zip(config["measure"]["atoms"], oracle_weights):
        if closed is not None:
            node, _ = grid.owner_node(atom["at"])
            oracle.append([node, atom["weight"], closed])

    def run():
        shutil.rmtree(out_dir, ignore_errors=True)  # never read a stale artifact
        return cli.main(["reduce", "--config", path, "--out", out_dir])

    def summarize(exit_code):
        with open(os.path.join(out_dir, "reduced.json")) as fh:
            reduced = json.load(fh)
        out = {
            "exit_code": exit_code,
            "atoms": [[a["node"], a["weight"]] for a in reduced["mu_star"]["atoms"]],
            "defect_tv": reduced["defect_tv"],
            "u_star_l1": reduced["u_star_l1"],
        }
        if "direct_vs_combined_l1" in reduced:
            out["direct_vs_combined_rel"] = (
                reduced["direct_vs_combined_l1"] / reduced["u_star_l1"]
            )
        return out

    return Op(name, "reduce", run, summarize, oracle)


def _radial(h_exp: int, dim: int) -> dict:
    return {"kind": "radialN", "h": 2.0**-h_exp, "dim": dim, "radius": 1.0}


def _origin_atom(weight: float) -> dict:
    return {"atoms": [{"at": 0.0, "weight": weight}]}


def radial_fine(seed: int, workdir: str) -> list[Op]:
    del seed  # fixed inputs
    # Case p3 is the documented honest failure of criterion 2: its atom
    # erodes only logarithmically, so it has no oracle here.
    return [
        _reduce_op(
            "p3-N3-h13",
            {"grid": _radial(13, 3), "nonlinearity": {"kind": "power", "p": 3.0},
             "measure": _origin_atom(1.0), "scheme": "truncation"},
            workdir, [None],
        ),
        _reduce_op(
            "exp-N2-h13",
            {"grid": _radial(13, 2), "nonlinearity": {"kind": "exp"},
             "measure": _origin_atom(8 * math.pi), "scheme": "truncation"},
            workdir, [FOUR_PI],
        ),
    ]


def radial_finest(seed: int, workdir: str) -> list[Op]:
    del seed  # fixed inputs
    return [
        _reduce_op(
            "p6-N3-h14",
            {"grid": _radial(14, 3), "nonlinearity": {"kind": "power", "p": 6.0},
             "measure": _origin_atom(1.0), "scheme": "truncation"},
            workdir, [0.0],
        ),
    ]


def rect2d_signed(seed: int, workdir: str) -> list[Op]:
    del seed  # fixed inputs
    config = {
        "grid": {"kind": "rect2d", "h": 1.0 / 96.0, "extents": [2.0, 1.0]},
        "nonlinearity": {"kind": "exp"},
        "measure": {"atoms": [
            {"at": [0.5, 0.5], "weight": 8 * math.pi},
            {"at": [1.5, 0.5], "weight": -8 * math.pi},
        ]},
        "scheme": "signed",
    }
    # the positive atom clamps at 4 pi; with g = 0 on negatives the
    # negative atom passes through whole
    return [_reduce_op("signed-rect2d-h96", config, workdir, [FOUR_PI, -8 * math.pi])]


# --- small-mixed: cold library calls ---------------------------------------------


def _random_instances(rng: np.random.Generator, count: int):
    """Seeded (grid, g, mu) triples across grid kinds and nonlinearities,
    with data mild enough for untruncated solves."""
    grids = [
        build_grid("interval1d", 2.0**-7, length=1.0),
        build_grid("radialN", 2.0**-7, dim=2, radius=1.0),
        build_grid("radialN", 2.0**-7, dim=3, radius=1.0),
        build_grid("rect2d", 2.0**-4, extents=(1.0, 1.0)),
    ]
    for k in range(count):
        grid = grids[k % len(grids)]
        pick = rng.integers(0, 3)
        if pick == 0:
            g = make_power(float(rng.uniform(1.5, 4.0)))
        elif pick == 1:
            g = make_exponential()
        else:
            g = make_two_sided_exponential()
        density = np.zeros(grid.n_nodes)
        hot = rng.integers(0, grid.n_nodes, size=max(3, grid.n_nodes // 8))
        density[hot] = rng.uniform(-3.0, 3.0, size=hot.size)
        interior = np.flatnonzero(grid.interior_mask(4 * grid.h))
        atoms = []
        for node in rng.choice(interior, size=rng.integers(1, 4), replace=False):
            w = float(rng.uniform(0.2, 8.0))
            if rng.random() < 0.4:
                w = -w
            atoms.append((int(node), w))
        yield grid, g, DiscreteMeasure(grid, density, tuple(atoms))


def _solve_op(k: int, grid, g, mu) -> Op:
    def run():
        op = negative_laplacian(grid)  # cold: no factorization carried over
        return op, solver.solve_semilinear(op, g, mu)

    def summarize(result):
        op, report = result
        b = solver.assemble_rhs(grid, mu)
        u = report.u.values
        vols = grid.cell_volumes
        return {
            "converged": bool(report.converged),
            "residual": float(np.sum(np.abs(op.apply(u) + g(u) - b) * vols)),
            "scale": max(1.0, float(np.sum(np.abs(b) * vols))),
        }

    return Op(f"solve-{k:04d}-{grid.kind}{grid.dim}", "solve", run, summarize)


def _reduced_outputs(result, mu) -> dict:
    vols = mu.grid.cell_volumes
    return {
        "atoms": _atoms(result.mu_star.atoms),
        "defect_tv": float((mu - result.mu_star).tv_norm()),
        "u_star_l1": float(np.sum(np.abs(result.u_star.values) * vols)),
    }


def _truncation_op(h_exp: int, c_over_pi: int) -> Op:
    grid = build_grid("radialN", 2.0**-h_exp, dim=2, radius=1.0)
    c = c_over_pi * math.pi
    mu = DiscreteMeasure.from_atoms(grid, [(0.0, c)])
    g = make_exponential()
    return Op(
        f"trunc-exp-c{c_over_pi}pi-h{h_exp}",
        "truncation",
        lambda: reduction.reduce_by_truncation(grid, g, mu),
        lambda result: _reduced_outputs(result, mu),
        [[0, c, min(c, FOUR_PI)]],
    )


def _mollification_op() -> Op:
    grid = build_grid("rect2d", 1.0 / 48.0, extents=(1.0, 1.0))
    x, y = grid.nodes[:, 0], grid.nodes[:, 1]
    density = np.where(np.hypot(x - 0.5, y - 0.5) <= 0.2, 2.0, 0.0)
    mu = DiscreteMeasure(grid, density, DiscreteMeasure.from_atoms(
        grid, [((0.5, 0.5), 8 * math.pi)]).atoms)
    g = make_exponential()
    node = mu.atoms[0][0]
    return Op(
        "mollify-rect2d-h48",
        "mollification",
        lambda: reduction.reduce_by_mollification(grid, g, mu),
        lambda result: _reduced_outputs(result, mu),
        [[node, 8 * math.pi, FOUR_PI]],
    )


def _psi_op() -> Op:
    grid = build_grid("rect2d", 1.0 / 64.0, extents=(1.0, 1.0))
    K = capacity.ball_set(grid, (0.5, 0.5), 0.1)

    def summarize(result):
        return {k: float(result[k]) for k in ("cap_h1", "delta1_mass", "ratio")}

    return Op(
        "psi-rect2d-h64",
        "capacity",
        lambda: capacity.construct_psi(grid, K, delta=0.1, mollify_level=10.0),
        summarize,
    )


def small_mixed(seed: int, workdir: str) -> list[Op]:
    del workdir  # no files
    rng = np.random.default_rng(seed)
    ops = [_solve_op(k, *inst) for k, inst in enumerate(_random_instances(rng, SMALL_SOLVES))]
    ops += [_truncation_op(h, c) for c in (2, 8, 16) for h in range(7, 12)]
    ops += [_mollification_op(), _psi_op()]
    return ops


WORKLOADS = {
    "radial-fine": radial_fine,
    "radial-finest": radial_finest,
    "rect2d-signed": rect2d_signed,
    "small-mixed": small_mixed,
}
