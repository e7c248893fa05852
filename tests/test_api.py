import ast
from pathlib import Path

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


# a linter's unused-import rule, without adding a linter to the toolchain;
# __init__ imports names only to export them
PACKAGE_DIR = Path(reduced_measures.__file__).parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_top_level_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert imported <= used, sorted(imported - used)
