"""Truncation and mollification pipelines for reduced measures.

The central objects are the monotone truncation scheme (solve with the
capped nonlinearity ``g_n``, let the cap grow, watch the limit) and the
extraction step that splits the limiting state into the part of the
datum the equation actually absorbed and the part it refuses.  At a
fixed mesh width the refused mass does not sit in any single cell: it is
smeared across the whole range of resolved scales, so the extractor
reconstructs it from the radial out-flux profile around each atom
rather than from any local residual.

Every march is a warm-started continuation driven by ``_continue``, the
one place a failed solve becomes an error naming its step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import Grid, GridFunction, negative_laplacian
from .measures import DiscreteMeasure, tv_distance
from .nonlinearities import Nonlinearity
from .solver import assemble_rhs, solve_semilinear

# Exponent of the self-similar near-core flux deficit of the scheme: at
# radius rho the discrete out-flux of a saturated state overshoots the
# resolved profile by ~ (h/rho)**_TAIL_EXPONENT.  Calibrated once against
# mesh-to-mesh flux differences, where the true profile cancels exactly;
# the measured value is stable at 0.40 +- 0.01 across data and meshes.
_TAIL_EXPONENT = 0.40

# Do not trust flux readings within this many cells of an atom.
_INNER_LADDER_CELLS = 8.0


@dataclass
class ReducedResult:
    """Outcome of a reduction run.

    ``u_star`` is the scheme's limit state: it solves the untruncated
    equation with datum ``mu_star`` at this resolution.  ``levels`` holds
    one record per scheme step with the cap ``n``, the L1 step from the
    previous iterate, the absorbed mass ``gmass`` and a summary of the
    iterate.  ``converged`` means the scheme itself settled (the monotone
    limit was reached at this resolution), not merely that the schedule
    ran out.
    """

    u_star: GridFunction
    mu_star: DiscreteMeasure
    levels: list[dict]
    scheme: str
    converged: bool
    diagnostics: dict = field(default_factory=dict)


def truncation_schedule(k_max: int = 20) -> list[float]:
    """Default geometric cap schedule 2**0 .. 2**k_max."""
    return [float(2**k) for k in range(k_max + 1)]


def _default_seq_tol(grid: Grid) -> float:
    return 1e-7 * grid.domain_volume


def _core_cell_budget(grid: Grid, mu: DiscreteMeasure) -> int:
    """How many capped cells still count as a point-like core."""
    per_atom = 25 if grid.kind == "rect2d" else 8
    positive_atoms = sum(1 for _, w in mu.atoms if w > 0)
    return per_atom * max(1, positive_atoms)


def _continue(op, steps, u: np.ndarray | None = None):
    """Solve each ``(label, g_k, mu_k)`` of ``steps`` from the state the
    previous one ended in (the first from ``u``, or cold) and yield
    ``(report, u, l1_step)``: ``l1_step`` is the L1 distance from the
    previous state, or from zero.  A failed solve raises RuntimeError with
    its label and stop reason.  Callers stop by breaking out of the loop."""
    vols = op.grid.cell_volumes
    for label, g_k, mu_k in steps:
        report = solve_semilinear(op, g_k, mu_k, u0=u)
        if not report.converged:
            raise RuntimeError(
                f"{label} solve stopped on {report.stop_reason} "
                f"(residual {report.residual_l1:.3e})"
            )
        step = float(np.sum(np.abs(report.u.values - (u if u is not None else 0.0)) * vols))
        u = report.u.values
        yield report, u, step


def _run_levels(
    op,
    g: Nonlinearity,
    mu: DiscreteMeasure,
    schedule,
    seq_tol: float,
    family: str = "value",
    u0: np.ndarray | None = None,
    iterates: list | None = None,
):
    """The cap march: continue through ``g_n`` for the caps of the
    schedule, from ``u0`` or cold, and stop on the first of three rules.
    Returns (u, levels, converged, exact).

    ``exact`` flags that the cap went inactive while the capped region
    was still spread out, i.e. the final iterate solves the uncapped
    equation and the datum is good at this resolution.  The subtlety is
    that at fixed mesh width the cap *always* goes inactive eventually
    (the discrete problem is solvable for any datum), so inactivity
    alone proves nothing: when the capped set has already collapsed to a
    point-like core that is still withholding a visible fraction of the
    datum, the march is a defect pile-up and is stopped for extraction
    instead.  Otherwise the march stops once an L1 step after the first
    level falls below ``seq_tol``, or when the schedule runs out (not
    converged).
    """
    grid = mu.grid
    vols = grid.cell_volumes
    scale = max(1.0, mu.tv_norm())
    core_budget = _core_cell_budget(grid, mu)
    caps = [(n, g.truncate(n, family=family)) for n in schedule]
    steps = ((f"level n={n}", g_n, mu) for n, g_n in caps)
    u = u0
    levels: list[dict] = []
    converged = exact = False
    for (n, g_n), (report, u, step) in zip(caps, _continue(op, steps, u0)):
        g_n_u = g_n(u)
        withheld = np.abs(g(u) - g_n_u)
        excess = float(np.sum(withheld * vols))
        capped_cells = int(np.sum(withheld > 0.0))
        levels.append(
            {
                "n": float(n),
                "l1_step": step,
                "gmass": float(np.sum(g_n_u * vols)),
                "u_l1": float(np.sum(np.abs(u) * vols)),
                "excess": excess,
                "capped_cells": capped_cells,
                "newton_iterations": report.iterations,
            }
        )
        if iterates is not None:
            iterates.append(u.copy())
        exact = excess <= 1e-10 * scale
        converged = (
            exact
            or (capped_cells <= core_budget and excess >= 0.05 * scale)
            or (len(levels) >= 2 and step < seq_tol)
        )
        if converged:
            break
    return u, levels, converged, exact


def _saturate(op, g: Nonlinearity, mu: DiscreteMeasure, u0: np.ndarray | None = None) -> np.ndarray:
    """The discrete solution for the uncapped nonlinearity, the limit of
    the capped ones since ``g`` is nondecreasing: one step of the
    continuation, from ``u0`` (or cold)."""
    _, u, _ = next(_continue(op, [("saturation", g, mu)], u0))
    return u


def _radius_ladder(h: float, rho_max: float) -> np.ndarray:
    """Half-octave radii from the first trusted scale out to rho_max."""
    radii = []
    r = _INNER_LADDER_CELLS * h
    while r <= rho_max * (1.0 + 1e-12):
        radii.append(r)
        r *= math.sqrt(2.0)
    return np.array(radii)


def _flux_profile(
    grid: Grid,
    datum_cell_mass: np.ndarray,
    absorbed_cell_mass: np.ndarray,
    dist: np.ndarray,
    radii: np.ndarray,
) -> np.ndarray:
    """Out-flux through each measurement sphere: datum minus absorption
    inside the ball.  Exact by the cellwise budget of the solve."""
    net = datum_cell_mass - absorbed_cell_mass
    order = np.argsort(dist)
    cum = np.cumsum(net[order])
    idx = np.searchsorted(dist[order], radii, side="right")
    out = np.zeros(len(radii))
    nonzero = idx > 0
    out[nonzero] = cum[idx[nonzero] - 1]
    return out


def _uses_log_tail(g: Nonlinearity, grid: Grid) -> bool:
    # The planar exponential model absorbs along a logarithmic tail all
    # the way down to the atom; power models either converge outright or
    # leave no absorbing profile behind.
    return g.kind.startswith("exp") and grid.dim == 2


def _fit_atom(
    radii: np.ndarray,
    flux: np.ndarray,
    h: float,
    log_tail: bool,
    scale: float,
) -> float:
    """Least-squares split of a flux profile into constant atom part,
    optional logarithmic absorption tail, and the self-similar mesh
    deficit.  Returns the constant.  The tail's radii are measured in
    units of the domain ``scale``, so the split does not depend on the
    unit of length."""
    if len(radii) < 3:
        return float(flux[-1])
    cols = [np.ones_like(radii)]
    if log_tail:
        cols.append(-1.0 / np.log(scale / radii))
    cols.append((h / radii) ** _TAIL_EXPONENT)
    coef, *_ = np.linalg.lstsq(np.column_stack(cols), flux, rcond=None)
    return float(coef[0])


def _clamp_to_atom(a: float, w: float) -> float:
    """``a`` clamped to the segment between 0 and the atom weight ``w``."""
    sign = 1.0 if w >= 0 else -1.0
    return sign * min(max(sign * a, 0.0), abs(w))


def _extract_atoms(
    op,
    g: Nonlinearity,
    mu: DiscreteMeasure,
    u_sat: np.ndarray,
) -> tuple[DiscreteMeasure, dict]:
    """Atom weights of the reduced measure, from the saturated state.

    Two passes: a profile fit per atom gives a first candidate, then one
    matched-reference step re-solves with the candidate measure, starting
    from ``u_sat``, and fits the flux difference, cancelling the
    absorption tail and the mesh deficit to first order.
    """
    grid = mu.grid
    h = grid.h
    vols = grid.cell_volumes
    datum = assemble_rhs(grid, mu) * vols
    absorbed = g(u_sat) * vols
    scale = grid.scale

    atom_nodes = [node for node, _ in mu.atoms]
    weights = {node: w for node, w in mu.atoms}
    positions = {node: grid.atom_distances(node) for node in atom_nodes}
    boundary_gap = {
        node: float(np.min(positions[node][grid.boundary_adjacent]))
        for node in atom_nodes
    }
    # The tail columns of the fit model absorption on every sampled
    # annulus.  Where the state crosses to the opposite sign of the atom
    # the absorption support ends (one-sided g) or switches branch
    # (two-sided g), so the ladder must stop short of that interface.
    u_tol = 1e-9 * max(1.0, float(np.max(np.abs(u_sat))))

    def rho_max_for(node: int) -> float:
        rho = scale / 4.0
        rho = min(rho, 0.75 * boundary_gap[node])
        for other in atom_nodes:
            if other != node:
                rho = min(rho, 0.5 * float(positions[node][other]))
        hostile = (math.copysign(1.0, weights[node]) * u_sat) < -u_tol
        if np.any(hostile):
            rho = min(rho, float(np.min(positions[node][hostile])))
        return rho

    ladders = {node: _radius_ladder(h, rho_max_for(node)) for node in atom_nodes}
    log_tail = _uses_log_tail(g, grid)

    # each atom's flux profile in the saturated state, fitted once here
    # and reused as the reference step's baseline
    profiles = {
        node: _flux_profile(grid, datum, absorbed, positions[node], ladders[node])
        for node in atom_nodes
        if len(ladders[node])
    }
    candidate: dict[int, float] = {}
    for node, w in mu.atoms:
        if w < 0 and g.vanishes_on_negatives:
            # nothing absorbs on the negative side, so the atom passes
            # through the scheme untouched
            candidate[node] = w
            continue
        a = 0.0
        if node in profiles:
            a = _fit_atom(ladders[node], profiles[node], h, log_tail, scale)
        candidate[node] = _clamp_to_atom(a, w)

    needs_reference = any(
        abs(candidate[node] - w) > 1e-12 * max(1.0, abs(w)) for node, w in mu.atoms
    )
    info = {"first_fit": dict(candidate), "reference_step": None}
    if needs_reference:
        mu_ref = DiscreteMeasure(grid, mu.density, tuple(candidate.items()))
        u_ref = _saturate(op, g, mu_ref, u0=u_sat)
        d_ref = assemble_rhs(grid, mu_ref) * vols
        a_ref = g(u_ref) * vols
        steps = {}
        for node, w in mu.atoms:
            if w < 0 and g.vanishes_on_negatives:
                continue
            radii = ladders[node]
            if len(radii) < 2:
                continue
            flux_r = _flux_profile(grid, d_ref, a_ref, positions[node], radii)
            diff = profiles[node] - flux_r
            cols = np.column_stack(
                [np.ones_like(radii), (h / radii) ** _TAIL_EXPONENT]
            )
            coef, *_ = np.linalg.lstsq(cols, diff, rcond=None)
            step = float(coef[0])
            candidate[node] = _clamp_to_atom(candidate[node] + step, w)
            steps[node] = step
        info["reference_step"] = steps

    return DiscreteMeasure(grid, mu.density, tuple(candidate.items())), info


def _limit(
    op,
    g: Nonlinearity,
    mu: DiscreteMeasure,
    u: np.ndarray,
    exact: bool,
) -> tuple[DiscreteMeasure, np.ndarray, dict | None]:
    """The limit step shared by every scheme, from the state ``u`` its cap
    march on ``mu`` ended in.  Returns the reduced measure, the solution it
    generates and the extraction info: None when ``exact``, as ``u`` then
    solves the uncapped problem and the datum survives whole.  Otherwise
    saturate once from ``u`` (one uncapped solve), extract, and start
    both later solves from there."""
    if exact:
        return mu, u, None
    u_sat = _saturate(op, g, mu, u0=u)
    mu_star, info = _extract_atoms(op, g, mu, u_sat)
    return mu_star, _saturate(op, g, mu_star, u0=u_sat), info


def reduce_by_truncation(
    grid: Grid,
    g: Nonlinearity,
    mu: DiscreteMeasure,
    schedule=None,
    *,
    seq_tol: float | None = None,
    family: str = "value",
    op=None,
    keep_iterates: bool = False,
) -> ReducedResult:
    """Monotone truncation scheme: solve with caps from the schedule,
    warm-starting each level, and read the reduced measure off the limit.

    The iterates decrease nodewise.  If the cap goes inactive the scheme
    has converged exactly and the datum is good at this resolution.
    Otherwise the run is continued to the saturated state and the atom
    weights are measured from its flux profiles.  ``keep_iterates``
    stores every level's solution under ``diagnostics["iterates"]``.
    """
    if schedule is None:
        schedule = truncation_schedule()
    if seq_tol is None:
        seq_tol = _default_seq_tol(grid)
    if op is None:
        op = negative_laplacian(grid)

    iterates: list[np.ndarray] | None = [] if keep_iterates else None
    u, levels, converged, exact = _run_levels(
        op, g, mu, schedule, seq_tol, family, iterates=iterates
    )
    diagnostics: dict = {"seq_tol": seq_tol, "exact": exact}
    if keep_iterates:
        diagnostics["iterates"] = iterates

    mu_star, u_limit, diagnostics["extraction"] = _limit(op, g, mu, u, exact)

    return ReducedResult(
        u_star=GridFunction(grid, u_limit),
        mu_star=mu_star,
        levels=levels,
        scheme="truncation",
        converged=converged,
        diagnostics=diagnostics,
    )


def mollification_schedule(grid: Grid) -> list[float]:
    """Halving kernel radii from an eighth of the domain scale down to the
    4h floor (below that the kernel no longer spreads mass between cells)."""
    floor = 4.0 * grid.h
    r = grid.scale / 8.0
    radii = []
    while r > floor:
        radii.append(r)
        r /= 2.0
    radii.append(floor)
    return radii


def check_mollification_schedule(mu: DiscreteMeasure, schedule=None) -> list[float]:
    """Return the schedule (the default one for None) after checking that
    every radius can mollify ``mu``; raise ValueError otherwise.  The
    largest radius keeps the most cells off the boundary and the smallest
    must still be resolved, so these two vouch for the rest."""
    radii = mollification_schedule(mu.grid) if schedule is None else list(schedule)
    for radius in (min(radii), max(radii)):
        mu.check_mollifiable(radius)
    return radii


def reduce_by_mollification(
    grid: Grid,
    g: Nonlinearity,
    mu: DiscreteMeasure,
    schedule=None,
    *,
    seq_tol: float | None = None,
) -> ReducedResult:
    """Mollification scheme: smooth the datum at shrinking kernel radii
    and solve the uncapped equation at each level.  For convex g this
    limit coincides with the truncation limit."""
    if not g.convex:
        raise ValueError("the mollification scheme requires a convex nonlinearity")
    schedule = check_mollification_schedule(mu, schedule)
    if seq_tol is None:
        seq_tol = _default_seq_tol(grid)
    op = negative_laplacian(grid)

    vols = grid.cell_volumes
    steps = ((f"kernel radius {r}", g, mu.mollify_radius(r)) for r in schedule)
    levels: list[dict] = []
    for radius, (_, u, step) in zip(schedule, _continue(op, steps)):
        levels.append(
            {
                "n": 1.0 / radius,
                "radius": radius,
                "l1_step": step,
                "gmass": float(np.sum(g(u) * vols)),
                "u_l1": float(np.sum(np.abs(u) * vols)),
            }
        )
    converged = len(levels) >= 2 and levels[-1]["l1_step"] < seq_tol

    diagnostics: dict = {"seq_tol": seq_tol, "kernel_floor": schedule[-1]}
    if converged or not mu.atoms:
        mu_star = mu
        u_limit = _saturate(op, g, mu, u0=u)
    else:
        # classify the limit with the truncation march (warm from the
        # kernel floor), then measure from the exact solve of the
        # unsmoothed datum: the kernel-floor state obeys the budget of the
        # *mollified* datum, which would bias flux readings inside the
        # kernel radius
        u_cls, _, converged, exact = _run_levels(op, g, mu, truncation_schedule(), seq_tol, u0=u)
        diagnostics["exact"] = exact
        mu_star, u_limit, diagnostics["extraction"] = _limit(op, g, mu, u_cls, exact)

    return ReducedResult(
        u_star=GridFunction(grid, u_limit),
        mu_star=mu_star,
        levels=levels,
        scheme="mollification",
        converged=converged,
        diagnostics=diagnostics,
    )


def reduce_signed(
    grid: Grid,
    g: Nonlinearity,
    mu: DiscreteMeasure,
    schedule=None,
    *,
    seq_tol: float | None = None,
) -> ReducedResult:
    """Signed datum: reduce the positive part under g and the negative
    part under the reflection s -> -g(-s), then recombine.

    The same datum is also reduced directly with the two-sided capped
    scheme, and the two reduced measures (plus the solutions they
    generate) are compared in the diagnostics: the split-recombine
    formula and the direct scheme must identify the same limit.
    """
    op = negative_laplacian(grid)
    if seq_tol is None:
        seq_tol = _default_seq_tol(grid)

    mu_pos = mu.positive_part()
    mu_neg = mu.negative_part()

    res_pos = reduce_by_truncation(
        grid, g, mu_pos, schedule, seq_tol=seq_tol, op=op
    )
    res_neg = reduce_by_truncation(
        grid, g.reflected(), mu_neg, schedule, seq_tol=seq_tol, op=op
    )
    mu_star = res_pos.mu_star - res_neg.mu_star

    # direct two-sided route on the signed datum
    res_dir = reduce_by_truncation(grid, g, mu, schedule, seq_tol=seq_tol, op=op)

    # Each route's limit is realised as the solution generated by its
    # reduced measure; the gap between those two solutions is the
    # consistency diagnostic.  (The pre-limit saturated state is not used
    # directly: it still carries the slow core erosion of this mesh.)
    u_from_direct = res_dir.u_star.values
    u_combined = _saturate(op, g, mu_star, u0=u_from_direct)
    vols = grid.cell_volumes
    gap_u = float(np.sum(np.abs(u_from_direct - u_combined) * vols))

    return ReducedResult(
        u_star=GridFunction(grid, u_combined),
        mu_star=mu_star,
        levels=res_dir.levels,
        scheme="signed-split",
        converged=res_pos.converged and res_neg.converged,
        diagnostics={
            "seq_tol": seq_tol,
            "direct_vs_combined_l1": gap_u,
            "direct_vs_combined_tv": tv_distance(res_dir.mu_star, mu_star),
            "direct_mu_star": res_dir.mu_star,
            "direct_converged": res_dir.converged,
            "positive_part": res_pos.diagnostics,
            "negative_part": res_neg.diagnostics,
        },
    )
