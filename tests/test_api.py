import pytest

import reduced_measures
from reduced_measures import capacity, grids, measures, nonlinearities, reduction, solver

# public names deleted because nothing in the package called them
DELETED = [
    (grids, "integrate"),
    (solver, "solve_linear"),
    (reduction, "goodness_test"),
    (capacity, "lower_bound_check"),
    (measures.DiscreteMeasure, "restrict"),
    (measures.DiscreteMeasure, "total_mass"),
    (measures.DiscreteMeasure, "density_mass"),
    (nonlinearities.Nonlinearity, "delta2"),
    (nonlinearities.Nonlinearity, "truncated"),
    (nonlinearities.Nonlinearity, "truncation_level"),
    (nonlinearities.Nonlinearity, "positive_part"),
    (solver.SolveReport, "grid"),
]


def test_every_exported_name_resolves():
    for name in reduced_measures.__all__:
        assert getattr(reduced_measures, name) is not None, name


@pytest.mark.parametrize("owner, name", DELETED, ids=[n for _, n in DELETED])
def test_deleted_names_are_gone(owner, name):
    assert not hasattr(owner, name)
    assert name not in reduced_measures.__all__
    assert not hasattr(reduced_measures, name)
