"""End-to-end behavior of the truncation / mollification / signed reducers.

The quantitative expectations here were calibrated against closed forms:
a planar Dirac of mass c under exponential absorption survives with mass
min(c, 4*pi); supercritical power absorption removes Dirac atoms entirely;
subcritical data pass through untouched.  Grid sizes are chosen so each
case runs in seconds while staying inside the fitted error band.
"""

import math

import numpy as np
import pytest

from reduced_measures import (
    calculus_check,
    oracle_reduced,
    reduction,
    weak_l1_stability_experiment,
)
from reduced_measures.grids import build_grid, negative_laplacian
from reduced_measures.measures import DiscreteMeasure
from reduced_measures.nonlinearities import (
    make_exponential,
    make_power,
    make_two_sided_exponential,
)
from reduced_measures.reduction import (
    mollification_schedule,
    reduce_by_mollification,
    reduce_by_truncation,
    reduce_signed,
    truncation_schedule,
)
from reduced_measures.solver import DEFAULT_TOL, assemble_rhs

FOUR_PI = 4.0 * math.pi


def _disk(h):
    return build_grid("radialN", h, dim=2, radius=1.0)


def _ball(h):
    return build_grid("radialN", h, dim=3, radius=1.0)


def test_subthreshold_atom_survives_exactly():
    grid = _disk(2.0**-9)
    mu = DiscreteMeasure.from_atoms(grid, [(0.0, 2 * math.pi)])
    res = reduce_by_truncation(grid, make_exponential(), mu)
    assert res.converged
    assert res.diagnostics["exact"]
    assert res.mu_star.atoms == mu.atoms
    assert res.scheme == "truncation"


def test_superthreshold_atom_is_clamped_to_the_critical_mass():
    grid = _disk(2.0**-9)
    mu = DiscreteMeasure.from_atoms(grid, [(0.0, 8 * math.pi)])
    res = reduce_by_truncation(grid, make_exponential(), mu)
    assert res.converged
    assert not res.diagnostics["exact"]
    ((node, weight),) = res.mu_star.atoms
    assert node == 0
    assert abs(weight - FOUR_PI) <= 0.12 * FOUR_PI
    # the removed mass is the reduction defect
    assert (mu - res.mu_star).tv_norm() == pytest.approx(8 * math.pi - weight)


def test_truncation_march_decreases_monotonically():
    grid = _disk(2.0**-8)
    mu = DiscreteMeasure.from_atoms(grid, [(0.0, 8 * math.pi)])
    res = reduce_by_truncation(
        grid, make_exponential(), mu, keep_iterates=True
    )
    iterates = res.diagnostics["iterates"]
    assert len(iterates) >= 2
    for prev, cur in zip(iterates, iterates[1:]):
        assert np.max(cur - prev) <= 1e-8


def test_level_records_track_the_cap_ladder():
    grid = _disk(2.0**-8)
    mu = DiscreteMeasure.from_atoms(grid, [(0.0, 2 * math.pi)])
    res = reduce_by_truncation(grid, make_exponential(), mu, truncation_schedule(12))
    ns = [row["n"] for row in res.levels]
    assert ns == sorted(ns)
    assert all(row["capped_cells"] >= 0 for row in res.levels)
    # the cap eventually goes inactive on an exact instance
    assert res.levels[-1]["capped_cells"] == 0
    assert res.levels[-1]["excess"] == 0.0


def test_supercritical_power_removes_the_atom():
    grid = _ball(2.0**-9)
    mu = DiscreteMeasure.from_atoms(grid, [(0.0, 1.0)])
    res = reduce_by_truncation(grid, make_power(6.0), mu)
    assert res.converged
    assert res.mu_star.tv_norm() <= 0.5


def test_subcritical_power_keeps_the_atom():
    grid = _ball(2.0**-9)
    mu = DiscreteMeasure.from_atoms(grid, [(0.0, 1.0)])
    res = reduce_by_truncation(grid, make_power(1.5), mu)
    assert res.diagnostics["exact"]
    assert res.mu_star.atoms == mu.atoms


def test_diffuse_data_are_always_good():
    grid = _disk(2.0**-8)
    mu = DiscreteMeasure.from_density(grid, 3.0)
    res = reduce_by_truncation(grid, make_exponential(), mu)
    assert res.diagnostics["exact"]
    assert np.allclose(res.mu_star.density, mu.density)
    assert res.mu_star.atoms == ()


def test_mollification_agrees_with_truncation_on_good_data():
    grid = _disk(2.0**-8)
    mu = DiscreteMeasure.from_atoms(grid, [(0.0, 2 * math.pi)])
    g = make_exponential()
    r_total = reduce_by_truncation(grid, g, mu)
    r_moll = reduce_by_mollification(grid, g, mu)
    assert r_moll.converged
    assert r_moll.scheme == "mollification"
    assert r_moll.mu_star.atoms == r_total.mu_star.atoms
    vols = grid.cell_volumes
    gap = float(np.sum(np.abs(r_moll.u_star.values - r_total.u_star.values) * vols))
    norm = float(np.sum(np.abs(r_total.u_star.values) * vols))
    assert gap <= 1e-8 * norm


def test_mollification_reports_the_convergence_of_its_classification_march():
    # a reduced atom is classified by the truncation march, so mollification
    # settles exactly when truncation does; "exact" stays the cap's report
    grid = _disk(2.0**-10)
    mu = DiscreteMeasure.from_atoms(grid, [(0.0, 8 * math.pi)])
    g = make_exponential()
    r_total = reduce_by_truncation(grid, g, mu)
    r_moll = reduce_by_mollification(grid, g, mu)
    assert r_total.converged and r_moll.converged
    assert r_moll.diagnostics["exact"] is False
    assert r_moll.mu_star.atoms == r_total.mu_star.atoms


def test_mollification_requires_a_convex_family():
    grid = _disk(2.0**-8)
    mu = DiscreteMeasure.from_atoms(grid, [(0.0, 1.0)])
    with pytest.raises(ValueError):
        reduce_by_mollification(grid, make_two_sided_exponential(), mu)


def test_mollification_schedule_respects_the_resolution_floor():
    grid = _disk(2.0**-8)
    radii = mollification_schedule(grid)
    assert radii == sorted(radii, reverse=True)
    assert min(radii) >= 4.0 * grid.h


def test_mollification_checks_the_whole_schedule_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a level was solved before the schedule was checked")

    monkeypatch.setattr(reduction, "solve_semilinear", no_solve)
    grid = _disk(2.0**-9)
    mu = DiscreteMeasure.from_atoms(grid, [(0.0, 8 * math.pi)])
    with pytest.raises(ValueError, match="unresolvable"):
        reduce_by_mollification(grid, make_exponential(), mu, [0.25, 0.125, 0.0625, 0.001])
    with pytest.raises(ValueError, match="boundary"):
        reduce_by_mollification(grid, make_exponential(), mu, [0.25, 1.0])


def test_signed_reduction_splits_by_sign():
    # an odd exponential acts on each lobe separately: the negative Dirac
    # erodes exactly like a reflected positive one
    grid = _disk(2.0**-9)
    g2 = make_two_sided_exponential()
    mu_neg = DiscreteMeasure.from_atoms(grid, [(0.0, -8 * math.pi)])
    res_neg = reduce_signed(grid, g2, mu_neg)

    mu_pos = DiscreteMeasure.from_atoms(grid, [(0.0, 8 * math.pi)])
    res_pos = reduce_by_truncation(grid, make_exponential(), mu_pos)

    ((_, w_neg),) = res_neg.mu_star.atoms
    ((_, w_pos),) = res_pos.mu_star.atoms
    assert w_neg == pytest.approx(-w_pos, abs=1e-9)
    assert res_neg.scheme == "signed-split"
    assert "direct_vs_combined_l1" in res_neg.diagnostics


def test_signed_direct_route_is_the_truncation_of_the_signed_datum():
    grid = _disk(2.0**-8)
    g2 = make_two_sided_exponential()
    mu = DiscreteMeasure.from_atoms(grid, [(0.0, 8 * math.pi), (0.5, -3.0)])
    signed = reduce_signed(grid, g2, mu)
    direct = reduce_by_truncation(grid, g2, mu)
    assert not direct.diagnostics["exact"]  # the limit step ran
    assert signed.diagnostics["direct_mu_star"].atoms == direct.mu_star.atoms
    assert np.array_equal(
        signed.diagnostics["direct_mu_star"].density, direct.mu_star.density
    )
    assert signed.levels == direct.levels
    assert signed.diagnostics["direct_converged"] == direct.converged


def test_one_sided_absorption_passes_negative_atoms_through():
    grid = _disk(2.0**-8)
    mu = DiscreteMeasure.from_atoms(grid, [(0.0, -8 * math.pi)])
    res = reduce_signed(grid, make_exponential(), mu)
    assert res.mu_star.atoms == mu.atoms


def test_oracle_closed_forms():
    grid = _disk(2.0**-6)
    big = DiscreteMeasure.from_atoms(grid, [(0.0, 20.0)])
    small = DiscreteMeasure.from_atoms(grid, [(0.0, 5.0)])
    neg = DiscreteMeasure.from_atoms(grid, [(0.0, -20.0)])
    g_exp = make_exponential()

    assert oracle_reduced(big, g_exp).atoms == ((0, FOUR_PI),)
    assert oracle_reduced(small, g_exp).atoms == small.atoms
    # one-sided growth never erodes the negative lobe
    assert oracle_reduced(neg, g_exp).atoms == neg.atoms
    # odd growth clamps it symmetrically
    assert oracle_reduced(neg, make_two_sided_exponential()).atoms == ((0, -FOUR_PI),)
    # every power is subcritical in the plane
    assert oracle_reduced(big, make_power(6.0)) is big

    grid3 = _ball(2.0**-6)
    mixed = DiscreteMeasure.from_atoms(grid3, [(0.0, 1.0), (0.5, -2.0)])
    node_neg = mixed.atoms[1][0]
    assert oracle_reduced(mixed, make_power(6.0)).atoms == ((node_neg, -2.0),)
    assert oracle_reduced(mixed, make_power(2.0)) is mixed
    # the reflection of a one-sided g absorbs nothing
    assert oracle_reduced(mixed, make_power(6.0).reflected()) is mixed
    with pytest.raises(ValueError):
        oracle_reduced(mixed, g_exp)


def test_reduction_calculus_identities():
    grid = _disk(2.0**-6)
    mu = DiscreteMeasure.from_atoms(grid, [(0.0, 20.0), (0.5, 3.0)])
    nu = DiscreteMeasure.from_atoms(grid, [(0.0, 15.0)]) + DiscreteMeasure.from_density(
        grid, 1.0
    )
    out = calculus_check(mu, nu, make_exponential())
    assert out["max_violation"] == 0.0
    for key in (
        "sup_identity",
        "inf_identity",
        "nonexpansive_tv",
        "positive_part_commutes",
        "negative_part_passes",
        "diffuse_shift",
    ):
        assert out[key] <= 1e-12
    # odd absorption erodes the negative part too, so that identity is not checked
    out = calculus_check(-mu, nu, make_two_sided_exponential())
    assert "negative_part_passes" not in out
    assert out["max_violation"] == 0.0


def test_limit_step_starts_both_later_solves_from_the_saturated_state(monkeypatch):
    calls = []
    saturate = reduction._saturate

    def recording(op, g, mu, u0=None):
        u = saturate(op, g, mu, u0=u0)
        calls.append((u0, u))
        return u

    monkeypatch.setattr(reduction, "_saturate", recording)
    grid = _disk(2.0**-9)
    mu = DiscreteMeasure.from_atoms(grid, [(0.0, 8 * math.pi)])
    reduce_by_truncation(grid, make_exponential(), mu)
    assert len(calls) == 3  # saturate, extractor's reference solve, re-solve
    u_sat = calls[0][1]
    assert calls[1][0] is u_sat
    assert calls[2][0] is u_sat


def test_failed_solves_raise_with_their_stop_reason(monkeypatch):
    solve = reduction.solve_semilinear
    monkeypatch.setattr(
        reduction,
        "solve_semilinear",
        lambda op, g, mu, u0=None: solve(op, g, mu, u0=u0, max_iter=1),
    )
    grid = _disk(2.0**-7)
    op = negative_laplacian(grid)
    g = make_exponential()
    mu = DiscreteMeasure.from_atoms(grid, [(0.0, 8 * math.pi)])
    with pytest.raises(RuntimeError, match="level n=1.0 .* stopped on max_iter"):
        reduction._run_levels(op, g, mu, [1.0], seq_tol=1e-7)
    with pytest.raises(RuntimeError, match="saturation solve stopped on max_iter"):
        reduction._saturate(op, g, mu)
    # the kernel march and the concentrating stages name their parameter
    with pytest.raises(RuntimeError, match=r"kernel radius 0\.125 solve stopped on max_iter"):
        reduce_by_mollification(grid, g, mu)
    with pytest.raises(RuntimeError, match=r"stage eps=0\.125 solve stopped on max_iter"):
        weak_l1_stability_experiment(_ball(2.0**-7), make_power(3.0), "concentrating")


def test_large_exponential_atom_reduces_without_overflow():
    grid = _disk(2.0**-10)
    for c in (500.0, 1e6):
        mu = DiscreteMeasure.from_atoms(grid, [(0.0, c)])
        res = reduce_by_truncation(grid, make_exponential(), mu)
        ((_, weight),) = res.mu_star.atoms
        assert 0.0 < weight <= FOUR_PI


def _recording_solves(monkeypatch):
    """Record (uncapped, warm, stop_reason) of every pipeline solve."""
    solves = []
    solve = reduction.solve_semilinear

    def recording(op, g, mu, u0=None):
        report = solve(op, g, mu, u0=u0)
        solves.append((g.hi == math.inf, u0 is not None, report.stop_reason))
        return report

    monkeypatch.setattr(reduction, "solve_semilinear", recording)
    return solves


def test_saturation_from_a_start_is_one_uncapped_solve(monkeypatch):
    # exp with an 8 pi atom at the centre of the disk, h = 2^-9: the cap
    # ladder from cap 1 in every saturation made 43 solves; one uncapped
    # solve from the state each saturation starts from makes 17.
    solves = _recording_solves(monkeypatch)
    grid = _disk(2.0**-9)
    mu = DiscreteMeasure.from_atoms(grid, [(0.0, 8 * math.pi)])
    reduce_by_truncation(grid, make_exponential(), mu)
    assert len(solves) <= 21
    assert [s for s in solves if s[0]] == [(True, True, "tol")] * 3


def test_strong_atom_saturates_in_one_uncapped_solve(monkeypatch):
    # the march ends far above the uncapped solution, where Newton under
    # e^u creeps down by about 1 a step; the start rule picks zero there,
    # so every solve converges and nothing is capped after the march
    solves = _recording_solves(monkeypatch)
    grid = _disk(2.0**-10)
    mu = DiscreteMeasure.from_atoms(grid, [(0.0, 500.0)])
    res = reduce_by_truncation(grid, make_exponential(), mu)
    assert all(reason in ("tol", "floor") for *_, reason in solves)
    first_uncapped = next(i for i, (uncapped, *_) in enumerate(solves) if uncapped)
    assert solves[first_uncapped:] == [(True, True, "tol")] * 3
    ((_, weight),) = res.mu_star.atoms
    assert weight == pytest.approx(11.05395, rel=1e-6)


def test_strong_power_reduces_by_mollification():
    # each uncapped solve of the march starts far above its solution under
    # t^40 unless it starts from zero
    grid = _ball(2.0**-10)
    mu = DiscreteMeasure.from_atoms(grid, [(0.0, 5000.0)])
    res = reduce_by_mollification(grid, make_power(40.0), mu)
    ((_, weight),) = res.mu_star.atoms
    assert 0.0 <= weight <= 5000.0


def test_atom_fit_does_not_depend_on_the_unit_of_length():
    h = 2.0**-10
    radii = 8.0 * h * np.sqrt(2.0) ** np.arange(8)
    flux = 12.0 - 3.0 / np.log(0.7 / radii) + 0.5 * (h / radii) ** 0.4
    once = reduction._fit_atom(radii, flux, h, True, 0.7)
    twice = reduction._fit_atom(2.0 * radii, flux, 2.0 * h, True, 1.4)
    assert twice == pytest.approx(once, rel=1e-12)


class _Scaled:
    """k g for a Nonlinearity g; min(k g, n) is k min(g, n / k)."""

    def __init__(self, g, k):
        self.g, self.k = g, k

    def __getattr__(self, name):
        return getattr(self.g, name)

    def __call__(self, t):
        return self.k * self.g(t)

    def value_and_slope(self, t):
        value, slope = self.g.value_and_slope(t)
        return self.k * value, self.k * slope

    def truncate(self, n, family="value"):
        return _Scaled(self.g.truncate(n / self.k, family), self.k)


def test_planar_exp_atom_does_not_depend_on_the_unit_of_length():
    # u(x) on the disk of radius 2 is v(x / 2) on the unit disk with
    # absorption 4 g at half the mesh width, so both must read one atom
    readings = []
    for grid, g in [
        (build_grid("radialN", 2.0**-13, dim=2, radius=2.0), make_exponential()),
        (_disk(2.0**-14), _Scaled(make_exponential(), 4.0)),
    ]:
        mu = DiscreteMeasure.from_atoms(grid, [(0.0, 8 * math.pi)])
        ((_, weight),) = reduce_by_truncation(grid, g, mu).mu_star.atoms
        readings.append(weight)
    assert readings[0] == pytest.approx(readings[1], rel=1e-8)


@pytest.mark.parametrize(
    "grid, g, atom",
    [
        (build_grid("interval1d", 2.0**-7, length=1.0), make_power(3.0), (0.5, 20.0)),
        (_disk(2.0**-9), make_exponential(), (0.0, 8 * math.pi)),
        (_ball(2.0**-9), make_power(6.0), (0.0, 1.0)),
        (build_grid("rect2d", 2.0**-5, extents=(1.0, 1.0)), make_exponential(), ((0.5, 0.5), 8 * math.pi)),
    ],
    ids=["interval1d-p3", "disk-exp", "ball-p6", "rect2d-exp"],
)
def test_warm_saturation_agrees_with_the_cold_ladder(grid, g, atom):
    op = negative_laplacian(grid)
    mu = DiscreteMeasure.from_atoms(grid, [atom])
    u, *_ = reduction._run_levels(op, g, mu, truncation_schedule(3), seq_tol=1e-7)
    warm = reduction._saturate(op, g, mu, u0=u)
    cold = reduction._saturate(op, g, mu)
    mass = max(1.0, float(np.sum(np.abs(assemble_rhs(grid, mu)) * grid.cell_volumes)))
    assert float(np.sum(np.abs(warm - cold) * grid.cell_volumes)) <= DEFAULT_TOL * mass


def test_oscillating_data_converge_weakly_without_defect():
    grid = build_grid("interval1d", 2.0**-9, length=1.0)
    out = weak_l1_stability_experiment(
        grid, make_power(2.0), "oscillating", frequencies=(8, 16, 32)
    )
    errs = out["errors"]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] <= errs[0] / 4.0


def test_concentrating_data_expose_the_critical_defect():
    grid = _ball(2.0**-7)
    out = weak_l1_stability_experiment(
        grid, make_power(3.0), "concentrating", stages=(0.125, 0.03125)
    )
    u_l1 = out["u_l1"]
    assert u_l1[-1] < u_l1[0]
    tv = out["tv"]
    assert max(abs(t - tv[0]) for t in tv) <= 0.05 * tv[0]
