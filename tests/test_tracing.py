"""The benchmark's tracer (``perfbench/tracing.py``) wraps the package's
functions by name, so renaming one of them must fail here, and not only
under ``perfbench/run.py --trace 1``."""

import math
from pathlib import Path

from reduced_measures import grids, reduction, solver
from reduced_measures.grids import build_grid
from reduced_measures.measures import DiscreteMeasure
from reduced_measures.nonlinearities import make_exponential

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_spans_every_stage_and_puts_the_originals_back(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import NAME, Tracer

    traced = [
        (reduction, "reduce_by_truncation"),
        (reduction, "_run_levels"),
        (reduction, "_saturate"),
        (reduction, "_extract_atoms"),
        (reduction, "solve_semilinear"),
        (solver, "solve_semilinear"),
        (grids.LinearOperator, "solve"),
    ]
    originals = [getattr(owner, name) for owner, name in traced]

    grid = build_grid("radialN", 2.0**-7, dim=2, radius=1.0)
    mu = DiscreteMeasure.from_atoms(grid, [(0.0, 8 * math.pi)])
    tracer = Tracer()
    tracer.install()
    try:
        reduction.reduce_by_truncation(grid, make_exponential(), mu)
    finally:
        tracer.uninstall()

    names = {span[NAME] for span in tracer.spans}
    assert {"reduction.march", "reduction.saturate", "reduction.extract",
            "solver.solve"} <= names
    for (owner, name), original in zip(traced, originals):
        assert getattr(owner, name) is original, name
