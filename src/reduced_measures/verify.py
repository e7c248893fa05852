"""Verification suites: the structural facts the laboratory certifies.

Each check function runs a fixed, seeded experiment and returns a
``CheckResult`` with the measured numbers, so the same code backs both
the ``rmlab verify`` subcommand and the acceptance test suite.  Checks
are grouped into named suites:

  estimates   mass bounds, comparison/contraction, inverse maximum principle
  calculus    exact identities of the reduction map on atom arithmetic
  capacity    the factor-two identity between the two capacities
  reduced     threshold clamp, critical-exponent dichotomy, oracle
              agreement, scheme independence, mollification agreement
  signed      split-recombine consistency for signed data
  stability   oscillating and concentrating data families
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import capacity as cap
from .grids import Grid, LinearOperator, build_grid, negative_laplacian
from .measures import DiscreteMeasure, tv_distance
from .nonlinearities import (
    Nonlinearity,
    make_exponential,
    make_power,
    make_two_sided_exponential,
)
from .reduction import (
    _continue,
    reduce_by_mollification,
    reduce_by_truncation,
    reduce_signed,
)
from .solver import SolveReport, g_mass, laplacian_mass, solve_semilinear

FOUR_PI = 4.0 * math.pi


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extras = ", ".join(f"{k}={_fmt(v)}" for k, v in self.details.items())
        return f"[{status}] {self.name}: {extras}"


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.4g}"
    if isinstance(v, (list, tuple)) and v and isinstance(v[0], float):
        return "[" + ", ".join(f"{x:.4g}" for x in v) + "]"
    return str(v)


# --- the experiments the checks run ------------------------------------------


def oracle_reduced(mu: DiscreteMeasure, g: Nonlinearity) -> DiscreteMeasure:
    """Closed-form reduced measure, chosen by ``g`` and the grid's dimension.

    subcritical g       every measure is good: the datum itself.
    power, otherwise    atoms are wiped out.
    exp in 2-d          atom weights clamp at the threshold 4*pi.
    Atoms of a sign that g does not absorb, and densities, pass unchanged.
    Any other case has no closed form here and raises ValueError.
    """
    dim = mu.grid.dim
    if g.subcritical_for(dim):
        return mu
    if g.kind == "power":
        cap = 0.0
    elif dim == 2:
        cap = FOUR_PI
    else:
        raise ValueError(f"no closed-form reduction for {g.kind!r} in dimension {dim}")
    atoms = tuple(
        (n, w if w < 0 and g.vanishes_on_negatives else math.copysign(min(abs(w), cap), w))
        for n, w in mu.atoms
    )
    return DiscreteMeasure(mu.grid, mu.density, atoms)


def calculus_check(mu: DiscreteMeasure, nu: DiscreteMeasure, g: Nonlinearity) -> dict:
    """Evaluate the algebra of the reduction map R under ``g`` on a pair of
    measures and report the violation of each identity as a tv distance.

    On the model families R acts on atom weights by a monotone
    1-Lipschitz clamp, so all identities hold exactly in floating point;
    any nonzero violation is a bug, not a numerical artifact.
    """

    def R(m: DiscreteMeasure) -> DiscreteMeasure:
        return oracle_reduced(m, g)

    out: dict[str, float] = {}

    singular = not (
        set(n for n, _ in mu.atoms) & set(n for n, _ in nu.atoms)
    ) and not np.any((mu.density != 0) & (nu.density != 0))
    if singular:
        out["additivity_mutually_singular"] = tv_distance(R(mu + nu), R(mu) + R(nu))

    out["sup_identity"] = tv_distance(
        R(mu.lattice_sup(nu)), R(mu).lattice_sup(R(nu))
    )
    out["inf_identity"] = tv_distance(
        R(mu.lattice_inf(nu)), R(mu).lattice_inf(R(nu))
    )

    lhs = tv_distance(R(mu), R(nu))
    rhs = tv_distance(mu, nu)
    out["nonexpansive_tv"] = max(0.0, lhs - rhs)

    lhs_pos = (R(mu) - R(nu)).positive_part().tv_norm()
    rhs_pos = (mu - nu).positive_part().tv_norm()
    out["nonexpansive_positive_part"] = max(0.0, lhs_pos - rhs_pos)

    out["positive_part_commutes"] = tv_distance(
        R(mu).positive_part(), R(mu.positive_part())
    )
    if g.vanishes_on_negatives:
        # with no absorption on the negative side the negative part is
        # never touched by the reduction
        out["negative_part_passes"] = tv_distance(
            R(mu).negative_part(), mu.negative_part()
        )

    diffuse, _ = nu.decompose()
    out["diffuse_shift"] = tv_distance(R(mu + diffuse), R(mu) + diffuse)

    out["max_violation"] = max(out.values()) if out else 0.0
    return out


def weak_l1_stability_experiment(
    grid: Grid,
    g: Nonlinearity,
    scenario: str,
    *,
    frequencies=(8, 16, 32, 64),
    stages=(1.0 / 8, 1.0 / 32, 1.0 / 128, 1.0 / 512),
) -> dict:
    """Two canonical forcing families with bounded total variation.

    oscillating     f_n = 1 + sin(2 pi n x): converges weakly in L1, and
                    the solutions converge in L1 (errors fall ~ 1/n^2).
    concentrating   fixed mass |Omega| mollified at shrinking radii: the
                    data concentrate onto a point while solutions of the
                    supercritical problem collapse toward zero.
    """
    op = negative_laplacian(grid)
    vols = grid.cell_volumes

    if scenario == "oscillating":
        if grid.kind != "interval1d":
            raise ValueError("the oscillating scenario runs on interval1d grids")
        x = grid.nodes
        limit = solve_semilinear(
            op, g, DiscreteMeasure.from_density(grid, np.ones_like(x))
        ).u.values
        errors = []
        for n in frequencies:
            f = 1.0 + np.sin(2.0 * math.pi * n * x)
            u_n = solve_semilinear(op, g, DiscreteMeasure.from_density(grid, f)).u.values
            errors.append(float(np.sum(np.abs(u_n - limit) * vols)))
        return {
            "scenario": scenario,
            "frequencies": list(frequencies),
            "errors": errors,
        }

    if scenario == "concentrating":
        volume = grid.domain_volume
        mu0 = DiscreteMeasure.from_atoms(grid, [(0.0, volume)])
        data = [mu0.mollify_radius(max(eps, 4.0 * grid.h)) for eps in stages]
        steps = ((f"stage eps={eps}", g, mu) for eps, mu in zip(stages, data))
        return {
            "scenario": scenario,
            "stages": list(stages),
            "u_l1": [float(np.sum(np.abs(u) * vols)) for _, u, _ in _continue(op, steps)],
            "tv": [mu.tv_norm() for mu in data],
            "domain_volume": volume,
        }

    raise ValueError(f"unknown scenario: {scenario!r}")


def check_apriori_estimates(
    op: LinearOperator,
    g: Nonlinearity,
    mu: DiscreteMeasure,
    report: SolveReport,
) -> dict:
    """Absorption mass is bounded by the data mass and the discrete
    Laplacian mass by twice the data mass, each with 5 % slack."""
    tv = mu.tv_norm()
    gm = g_mass(op.grid, g, report.u.values)
    lm = laplacian_mass(op, report.u.values)
    return {
        "tv": tv,
        "g_mass": gm,
        "laplacian_mass": lm,
        "g_mass_ok": gm <= 1.05 * tv + 1e-12,
        "laplacian_mass_ok": lm <= 2.1 * tv + 1e-12,
    }


def compare_solutions(
    g: Nonlinearity,
    mu1: DiscreteMeasure,
    mu2: DiscreteMeasure,
    rep1: SolveReport,
    rep2: SolveReport,
) -> dict:
    """Comparison and l1 contraction diagnostics for a data pair."""
    grid = rep1.u.grid
    vols = grid.cell_volumes
    ordered = bool(np.all(rep1.u.values <= rep2.u.values + 1e-8))
    lhs = float(np.sum(np.abs(g(rep1.u.values) - g(rep2.u.values)) * vols))
    rhs = (mu1 - mu2).tv_norm()
    return {
        "mu1_leq_mu2": mu1.leq(mu2, tol=1e-12),
        "solutions_ordered": ordered,
        "g_contraction_lhs": lhs,
        "g_contraction_rhs": rhs,
        "contraction_ok": lhs <= rhs * (1.0 + 1e-6) + 1e-12,
    }


# --- seeded instance generator ------------------------------------------------


def _random_instances(seed: int, count: int, signed: bool = True):
    """Seeded stream of (grid, g, mu) triples across grid kinds and
    nonlinearities, with data mild enough for untruncated solves."""
    rng = np.random.default_rng(seed)
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
        lo = -3.0 if signed else 0.0
        density[hot] = rng.uniform(lo, 3.0, size=hot.size)
        interior = np.flatnonzero(grid.interior_mask(4 * grid.h))
        atoms = []
        for node in rng.choice(interior, size=rng.integers(1, 4), replace=False):
            w = float(rng.uniform(0.2, 8.0))
            if signed and rng.random() < 0.4:
                w = -w
            atoms.append((int(node), w))
        yield grid, g, DiscreteMeasure(grid, density, tuple(atoms))


# --- reduced-measure checks ---------------------------------------------------


def check_threshold_clamp(h_exponents=range(7, 12)) -> CheckResult:
    """Planar exponential model: atomic data clamp at 4*pi.  Sweeps the
    mesh and requires the finest-grid weight within 10% of min(c, 4*pi)
    with mesh errors non-increasing."""
    g = make_exponential()
    details: dict = {}
    passed = True
    for c in (2 * math.pi, 8 * math.pi, 16 * math.pi):
        target = min(c, FOUR_PI)
        t0 = time.time()
        errors = []
        for k in h_exponents:
            grid = build_grid("radialN", 2.0**-k, dim=2, radius=1.0)
            mu = DiscreteMeasure.from_atoms(grid, [(0.0, c)])
            res = reduce_by_truncation(grid, g, mu)
            a = res.mu_star.atoms[0][1] if res.mu_star.atoms else 0.0
            errors.append(abs(a - target) / target)
        elapsed = time.time() - t0
        monotone = all(e2 <= e1 + 1e-12 for e1, e2 in zip(errors, errors[1:]))
        ok = errors[-1] <= 0.10 and monotone and elapsed < 120.0
        passed = passed and ok
        tag = f"c={c / math.pi:.0f}pi"
        details[f"{tag}_final_err"] = errors[-1]
        details[f"{tag}_monotone"] = monotone
    return CheckResult("threshold-clamp", passed, details)


def check_critical_dichotomy() -> CheckResult:
    """Dirac datum in dimension 3: p = 2 is absorbed exactly, p = 3 is
    supposed to shed the atom and collapse in L1."""
    details: dict = {}
    grid2 = build_grid("radialN", 2.0**-12, dim=3, radius=1.0)
    mu2 = DiscreteMeasure.from_atoms(grid2, [(0.0, 1.0)])
    res2 = reduce_by_truncation(grid2, make_power(2.0), mu2)
    defect2 = tv_distance(mu2, res2.mu_star)
    details["p2_defect"] = defect2

    grid3 = build_grid("radialN", 2.0**-13, dim=3, radius=1.0)
    mu3 = DiscreteMeasure.from_atoms(grid3, [(0.0, 1.0)])
    res3 = reduce_by_truncation(grid3, make_power(3.0), mu3)
    atom3 = res3.mu_star.atoms[0][1] if res3.mu_star.atoms else 0.0
    l1_drop = res3.levels[0]["u_l1"] / max(res3.levels[-1]["u_l1"], 1e-300)
    details["p3_atom"] = atom3
    details["p3_l1_drop"] = l1_drop

    passed = defect2 <= 0.05 and atom3 <= 0.05 and l1_drop >= 10.0
    return CheckResult("critical-dichotomy", passed, details)


def check_mass_bounds(seed: int = 101, count: int = 100) -> CheckResult:
    """Absorbed mass bounded by the datum, Laplacian mass by twice it."""
    violations = 0
    worst_g, worst_lap = 0.0, 0.0
    for grid, g, mu in _random_instances(seed, count):
        op = negative_laplacian(grid)
        report = solve_semilinear(op, g, mu)
        if not report.converged:
            violations += 1
            continue
        est = check_apriori_estimates(op, g, mu, report)
        tv = max(est["tv"], 1e-300)
        worst_g = max(worst_g, est["g_mass"] / tv)
        worst_lap = max(worst_lap, est["laplacian_mass"] / tv)
        if not (est["g_mass_ok"] and est["laplacian_mass_ok"]):
            violations += 1
    return CheckResult(
        "mass-bounds",
        violations == 0,
        {"instances": count, "violations": violations,
         "worst_gmass_ratio": worst_g, "worst_lapmass_ratio": worst_lap},
    )


def check_comparison(seed: int = 202, count: int = 50) -> CheckResult:
    """Ordered data give ordered solutions, and the absorbed-mass gap is
    controlled by the datum gap."""
    rng = np.random.default_rng(seed)
    failures = 0
    worst = 0.0
    for grid, g, mu1 in _random_instances(seed + 1, count):
        # build mu2 >= mu1 by adding a nonnegative bump
        bump = np.zeros(grid.n_nodes)
        hot = rng.integers(0, grid.n_nodes, size=grid.n_nodes // 10 + 1)
        bump[hot] = rng.uniform(0.0, 2.0, size=hot.size)
        extra_atom = mu1.atoms[0][0] if mu1.atoms else 0
        mu2 = mu1 + DiscreteMeasure(
            grid, bump, ((int(extra_atom), float(rng.uniform(0.0, 2.0))),)
        )
        op = negative_laplacian(grid)
        rep1 = solve_semilinear(op, g, mu1)
        rep2 = solve_semilinear(op, g, mu2)
        out = compare_solutions(g, mu1, mu2, rep1, rep2)
        ratio = out["g_contraction_lhs"] / max(out["g_contraction_rhs"], 1e-300)
        worst = max(worst, ratio)
        if not (out["solutions_ordered"] and ratio <= 1.05):
            failures += 1
    return CheckResult(
        "comparison-contraction",
        failures == 0,
        {"pairs": count, "failures": failures, "worst_gap_ratio": worst},
    )


def check_monotone_scheme() -> CheckResult:
    """Truncation iterates decrease nodewise, and the two truncation
    families agree at matched caps."""
    details: dict = {}
    passed = True

    instances = [
        ("exp-8pi", build_grid("radialN", 2.0**-9, dim=2, radius=1.0),
         make_exponential(), [(0.0, 8 * math.pi)]),
        ("exp-2pi", build_grid("radialN", 2.0**-9, dim=2, radius=1.0),
         make_exponential(), [(0.0, 2 * math.pi)]),
        ("p2-dirac", build_grid("radialN", 2.0**-9, dim=3, radius=1.0),
         make_power(2.0), [(0.0, 1.0)]),
    ]
    worst_rise = -np.inf
    for tag, grid, g, atoms in instances:
        mu = DiscreteMeasure.from_atoms(grid, atoms)
        res = reduce_by_truncation(grid, g, mu, keep_iterates=True)
        its = res.diagnostics["iterates"]
        rise = max(
            float(np.max(u2 - u1)) for u1, u2 in zip(its, its[1:])
        ) if len(its) > 1 else 0.0
        worst_rise = max(worst_rise, rise)
        if rise > 1e-8:
            passed = False
    details["worst_nodewise_rise"] = worst_rise

    # family independence at matched caps: cap the value at n, or cap the
    # argument where g reaches n
    worst_gap = 0.0
    for tag, grid, g, atoms in instances:
        mu = DiscreteMeasure.from_atoms(grid, atoms)
        values = [float(2**k) for k in range(0, 19)]
        if g.kind.startswith("exp"):
            args = [math.log1p(n) for n in values]
        else:
            args = [n ** (1.0 / g.p) for n in values]
        seq_tol = 1e-7 * grid.domain_volume
        r_val = reduce_by_truncation(grid, g, mu, values, seq_tol=seq_tol)
        r_arg = reduce_by_truncation(
            grid, g, mu, args, seq_tol=seq_tol, family="argument"
        )
        gap = float(
            np.sum(np.abs(r_val.u_star.values - r_arg.u_star.values)
                   * grid.cell_volumes)
        )
        worst_gap = max(worst_gap, gap)
        if gap > 5.0 * seq_tol:
            passed = False
        details[f"{tag}_family_gap"] = gap
        details[f"{tag}_family_gap_bound"] = 5.0 * seq_tol
    return CheckResult("monotone-scheme", passed, details)


def check_calculus(seed: int = 303, count: int = 200) -> CheckResult:
    """Algebra of the reduction map on seeded atomic+density pairs."""
    rng = np.random.default_rng(seed)
    grid = build_grid("radialN", 2.0**-7, dim=2, radius=1.0)
    n = grid.n_nodes
    worst = 0.0
    t0 = time.time()
    for _ in range(count):
        # disjoint node pools keep the pair mutually singular
        pool = rng.permutation(n)
        split = n // 2
        def mk(nodes):
            density = np.zeros(n)
            hot = rng.choice(nodes, size=6, replace=False)
            density[hot] = rng.uniform(-4.0, 4.0, size=6)
            atom_nodes = rng.choice(nodes, size=3, replace=False)
            atoms = tuple(
                (int(a), float(rng.uniform(-20.0, 20.0))) for a in atom_nodes
            )
            return DiscreteMeasure(grid, density, atoms)
        out = calculus_check(mk(pool[:split]), mk(pool[split:]), make_exponential())
        worst = max(worst, out["max_violation"])
    return CheckResult(
        "calculus-identities",
        worst <= 1e-12,
        {"pairs": count, "max_violation": worst, "seconds": time.time() - t0},
    )


def check_oracle_agreement() -> CheckResult:
    """Numeric reduced measures against the closed-form ones, each chosen
    by its nonlinearity and the grid's dimension."""
    cases = [
        ("exp_c=2pi", 2.0**-11, 2, make_exponential(), 2 * math.pi),
        ("exp_c=8pi", 2.0**-11, 2, make_exponential(), 8 * math.pi),
        ("subcritical_p2", 2.0**-12, 3, make_power(2.0), 1.0),
        ("supercritical_p6", 2.0**-14, 3, make_power(6.0), 1.0),
    ]
    details: dict = {}
    for key, h, dim, g, c in cases:
        grid = build_grid("radialN", h, dim=dim, radius=1.0)
        mu = DiscreteMeasure.from_atoms(grid, [(0.0, c)])
        res = reduce_by_truncation(grid, g, mu)
        details[key] = tv_distance(res.mu_star, oracle_reduced(mu, g)) / mu.tv_norm()
    passed = all(v <= 0.10 for v in details.values())
    return CheckResult("oracle-agreement", passed, details)


def check_mollification_agreement() -> CheckResult:
    """Truncation and mollification identify the same limit solution
    for convex nonlinearities."""
    details: dict = {}
    passed = True
    instances = [
        ("exp-2pi", build_grid("radialN", 2.0**-10, dim=2, radius=1.0),
         make_exponential(), 2 * math.pi),
        ("p2-dirac", build_grid("radialN", 2.0**-10, dim=3, radius=1.0),
         make_power(2.0), 1.0),
    ]
    for tag, grid, g, w in instances:
        mu = DiscreteMeasure.from_atoms(grid, [(0.0, w)])
        rt = reduce_by_truncation(grid, g, mu)
        rm = reduce_by_mollification(grid, g, mu)
        vols = grid.cell_volumes
        ref = float(np.sum(np.abs(rt.u_star.values) * vols))
        gap = float(np.sum(np.abs(rm.u_star.values - rt.u_star.values) * vols))
        rel = gap / ref
        details[tag] = rel
        passed = passed and rel <= 0.02
    return CheckResult("mollification-agreement", passed, details)


def check_signed_split() -> CheckResult:
    """Signed planar datum: reduce parts separately and recombine; the
    direct scheme must find the same measure, the positive atom clamps
    at 4*pi and the negative atom passes through."""
    grid = build_grid("rect2d", 2.0**-8, extents=(2.0, 1.0))
    g = make_exponential()
    mu = DiscreteMeasure.from_atoms(
        grid, [((0.5, 0.5), 8 * math.pi), ((1.5, 0.5), -8 * math.pi)]
    )
    res = reduce_signed(grid, g, mu)
    weights = sorted(w for _, w in res.mu_star.atoms)
    atom_b, atom_a = weights[0], weights[-1]
    u_ref = float(np.sum(np.abs(res.u_star.values) * grid.cell_volumes))
    rel_gap = res.diagnostics["direct_vs_combined_l1"] / u_ref
    details = {
        "atom_pos": atom_a,
        "atom_neg": atom_b,
        "direct_vs_combined_rel": rel_gap,
    }
    passed = (
        abs(atom_a - FOUR_PI) <= 0.10 * FOUR_PI
        and abs(atom_b + 8 * math.pi) <= 0.05 * 8 * math.pi
        and rel_gap <= 0.03
    )
    return CheckResult("signed-split", passed, details)


def check_capacity_identity() -> CheckResult:
    """Point and disk capacities against closed forms, and the
    factor-two mass of the cut-off's Laplacian."""
    details: dict = {}
    g1 = build_grid("interval1d", 2.0**-10, length=1.0)
    K1 = cap.point_set(g1, 0.5)
    v1 = cap.cap_h1(g1, K1)["value"]
    r1 = cap.construct_psi(g1, K1, delta=0.02)["ratio"]
    details["point_cap"] = v1
    details["point_ratio"] = r1

    g2 = build_grid("radialN", 2.0**-10, dim=2, radius=1.0)
    K2 = cap.ball_set(g2, 0.0, 0.25)
    v2 = cap.cap_h1(g2, K2)["value"]
    r2 = cap.construct_psi(g2, K2, delta=0.02)["ratio"]
    target2 = 2.0 * math.pi / math.log(4.0)
    details["disk_cap"] = v2
    details["disk_ratio"] = r2

    passed = (
        abs(v1 - 4.0) <= 0.03 * 4.0
        and 1.8 <= r1 <= 2.2
        and abs(v2 - target2) <= 0.05 * target2
        and 1.8 <= r2 <= 2.2
    )
    return CheckResult("capacity-identity", passed, details)


def check_stability() -> CheckResult:
    """Oscillating data: solutions converge while data only converge
    weakly.  Concentrating data: bounded mass piles onto a point and the
    supercritical solutions are supposed to collapse in L1."""
    details: dict = {}
    grid1 = build_grid("interval1d", 2.0**-11, length=1.0)
    osc = weak_l1_stability_experiment(grid1, make_power(2.0), "oscillating")
    osc_gain = osc["errors"][0] / osc["errors"][-1]
    details["oscillating_gain"] = osc_gain

    grid3 = build_grid("radialN", 2.0**-12, dim=3, radius=1.0)
    conc = weak_l1_stability_experiment(grid3, make_power(3.0), "concentrating")
    conc_drop = conc["u_l1"][0] / conc["u_l1"][-1]
    tv_dev = max(abs(t - conc["domain_volume"]) for t in conc["tv"])
    details["concentrating_drop"] = conc_drop
    details["tv_deviation"] = tv_dev

    passed = (
        osc_gain >= 4.0
        and conc_drop >= 5.0
        and tv_dev <= 0.05 * conc["domain_volume"]
    )
    return CheckResult("stability", passed, details)


def check_inverse_max_principle(seed: int = 404, count: int = 60) -> CheckResult:
    """Nonnegative solutions keep a nonnegative discrete Laplacian
    residual on their atom cells."""
    worst = np.inf
    checked = 0
    for grid, g, mu in _random_instances(seed, count, signed=False):
        if not mu.atoms:
            continue
        op = negative_laplacian(grid)
        report = solve_semilinear(op, g, mu)
        if not report.converged:
            continue
        lap = op.apply(report.u.values)
        for node, _ in mu.atoms:
            worst = min(worst, float(lap[node]))
            checked += 1
    return CheckResult(
        "inverse-max-principle",
        worst >= -1e-6,
        {"atom_cells": checked, "worst_residual": worst},
    )


SUITES = {
    "estimates": [check_mass_bounds, check_comparison, check_inverse_max_principle],
    "calculus": [check_calculus],
    "capacity": [check_capacity_identity],
    "reduced": [
        check_threshold_clamp,
        check_critical_dichotomy,
        check_monotone_scheme,
        check_oracle_agreement,
        check_mollification_agreement,
    ],
    "signed": [check_signed_split],
    "stability": [check_stability],
}


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return [fn() for fn in SUITES[name]]


def run_all() -> list[CheckResult]:
    return [fn() for fns in SUITES.values() for fn in fns]
