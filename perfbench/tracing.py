"""Spans around the calls into each layer of the package.

``Tracer.install`` replaces the names the package looks up at call time
(module functions, the CLI's scheme table, two class methods and
scipy's ``splu``) with wrappers that record one span per call: name,
layer, operation, parent span, start and end.  Nothing under ``src/``
changes, and ``uninstall`` puts every original back.  Spans stay in
memory until ``write_spans``.

``layer_metrics`` turns the spans into the per-layer table.  A layer's
self time is its spans' durations minus the part their child spans
cover.  ``own_s`` is the time spent inside the wrappers' bookkeeping:
the traced minus the untraced wall time, measured where it is spent.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np
import scipy.sparse.linalg as spla

from reduced_measures import _kernels, capacity, cli, grids, measures, reduction, solver

NAME, LAYER, OP, PARENT, START, END, ATTRS = range(7)

# Bytes per stored nonzero of a SuperLU factor: an 8-byte value and a
# 4-byte row index.  Computed from nnz, not measured.
_FACTOR_BYTES_PER_NNZ = 12


class _TracedLU:
    """A SuperLU factorization whose triangular solves are spans."""

    def __init__(self, lu, wrap):
        self._lu = lu
        self.solve = wrap(lu.solve, "linalg.lu_solve", "linalg")

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: str | None = None
        self.own_s = 0.0
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, fn, name: str, layer: str, after=None):
        """``after(span, args, kwargs, result)`` may record attributes on
        the span and returns the result handed to the caller."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            span = [name, layer, self.op, self._stack[-1] if self._stack else -1,
                    0.0, 0.0, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = t1 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = t2 = time.perf_counter()
                self._stack.pop()
            if after is not None:
                result = after(span, args, kwargs, result)
            self.own_s += (t1 - t0) + (time.perf_counter() - t2)
            return result

        return traced

    # --- installation ---------------------------------------------------------

    def _replace(self, original, wrapper, modules):
        """Point every module-level name (and scheme-table entry) bound to
        ``original`` at ``wrapper``."""
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((setattr, mod, key, original))
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
                            self._undo.append((dict.__setitem__, value, k, original))

    def install(self):
        package = [m for name, m in sys.modules.items()
                   if name == "reduced_measures" or name.startswith("reduced_measures.")]
        functions = [
            (cli.main, "cli.main", "cli", None),
            (reduction.reduce_by_truncation, "reduction.truncation", "reduction", None),
            (reduction.reduce_by_mollification, "reduction.mollification", "reduction", None),
            (reduction.reduce_signed, "reduction.signed", "reduction", None),
            (reduction._run_levels, "reduction.march", "reduction", None),
            (reduction._saturate, "reduction.saturate", "reduction", None),
            (reduction._extract_atoms, "reduction.extract", "reduction", None),
            (solver.solve_semilinear, "solver.solve", "solver", _solve_attrs),
            (_kernels.newton_tridiag, "kernels.newton", "kernels", None),
            (_kernels.thomas_solve, "kernels.thomas", "kernels", None),
            (capacity.cap_h1, "capacity.cap_h1", "capacity", None),
            (capacity.construct_psi, "capacity.construct_psi", "capacity", None),
        ]
        for fn, name, layer, after in functions:
            self._replace(fn, self.wrap(fn, name, layer, after), package)
        # solver and grids call scipy.sparse.linalg.splu through the module;
        # capacity imported the name itself
        self._replace(spla.splu, self.wrap(spla.splu, "linalg.splu", "linalg", self._lu_attrs),
                      package + [spla])
        for cls, attr, name, layer in [
            (grids.LinearOperator, "solve", "grids.op_solve", "grids"),
            (measures.DiscreteMeasure, "mollify_radius", "measures.mollify", "measures"),
        ]:
            original = vars(cls)[attr]
            setattr(cls, attr, self.wrap(original, name, layer))
            self._undo.append((setattr, cls, attr, original))

    def uninstall(self):
        while self._undo:
            fn, *args = self._undo.pop()
            fn(*args)

    def _lu_attrs(self, span, args, kwargs, lu):
        span[ATTRS] = {"nnz": int(lu.nnz)}
        return _TracedLU(lu, self.wrap)

    # --- output ---------------------------------------------------------------

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                rec = {"id": i, "name": s[NAME], "layer": s[LAYER], "op": s[OP],
                       "parent": s[PARENT], "start": s[START], "end": s[END]}
                rec.update(s[ATTRS] or {})
                fh.write(json.dumps(rec) + "\n")


_SOLVE_SIGNATURE = inspect.signature(solver.solve_semilinear)


def _solve_attrs(span, args, kwargs, report):
    bound = _SOLVE_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    op, mu = bound.arguments["op"], bound.arguments["mu"]
    b = solver.assemble_rhs(op.grid, mu)
    scale = max(1.0, float(np.sum(np.abs(b) * op.grid.cell_volumes)))
    span[ATTRS] = {
        "iterations": int(report.iterations),
        "converged": bool(report.converged),
        "max_iter": report.iterations >= bound.arguments["max_iter"],
        # converged although the residual is above the solver's own bound
        "flat_tail": bool(report.converged
                          and report.residual_l1 > bound.arguments["tol"] * scale),
    }
    return report


def layer_metrics(spans: list[list], own_s: float, passes: int) -> dict[str, float]:
    """Per-layer totals over the traced passes, divided by ``passes``."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    covered = [0.0] * n
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            covered[s[PARENT]] += dur[i]

    def under(i: int, layer: str) -> bool:
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][LAYER] == layer:
                return True
            p = spans[p][PARENT]
        return False

    def pick(name=None, layer=None):
        return [i for i, s in enumerate(spans)
                if (name is None or s[NAME] == name) and (layer is None or s[LAYER] == layer)]

    def total(idx):
        return sum(dur[i] for i in idx)

    def self_time(layer):
        return sum(dur[i] - covered[i] for i in pick(layer=layer))

    def outermost(layer):
        return total(i for i in pick(layer=layer) if not under(i, layer))

    def attr_count(idx, key):
        return sum(1 for i in idx if spans[i][ATTRS][key])

    reduce_calls = [i for i in pick(layer="reduction")
                    if spans[i][NAME] in ("reduction.truncation", "reduction.mollification",
                                          "reduction.signed")]
    solves = pick("solver.solve")
    iters = sum(spans[i][ATTRS]["iterations"] for i in solves)
    splus = pick("linalg.splu")
    nnz = [spans[i][ATTRS]["nnz"] for i in splus]
    m = {
        "cli.calls": len(pick("cli.main")),
        "cli.self_s": self_time("cli"),
        "reduction.calls": len(reduce_calls),
        "reduction.s": outermost("reduction"),
        "reduction.self_s": self_time("reduction"),
        "reduction.solves": sum(1 for i in solves if under(i, "reduction")),
        "reduction.march_s": total(pick("reduction.march")),
        "reduction.saturate_s": total(pick("reduction.saturate")),
        "reduction.saturate_calls": len(pick("reduction.saturate")),
        "reduction.extract_s": total(pick("reduction.extract")),
        "solver.solves": len(solves),
        "solver.s": outermost("solver"),
        "solver.self_s": self_time("solver"),
        "solver.newton_iters": iters,
        "solver.maxiter_solves": attr_count(solves, "max_iter"),
        "solver.flat_tail_accepts": attr_count(solves, "flat_tail"),
        "solver.unconverged": len(solves) - attr_count(solves, "converged"),
        "kernels.newton_calls": len(pick("kernels.newton")),
        "kernels.newton_s": total(pick("kernels.newton")),
        "kernels.thomas_calls": len(pick("kernels.thomas")),
        "kernels.thomas_s": total(pick("kernels.thomas")),
        "linalg.factorizations": len(splus),
        "linalg.factor_s": total(splus),
        "linalg.lu_solves": len(pick("linalg.lu_solve")),
        "linalg.lu_solve_s": total(pick("linalg.lu_solve")),
        "linalg.factor_bytes_computed": _FACTOR_BYTES_PER_NNZ * sum(nnz),
        "grids.op_solve_calls": len(pick("grids.op_solve")),
        "grids.op_solve_s": total(pick("grids.op_solve")),
        "measures.mollify_calls": len(pick("measures.mollify")),
        "measures.mollify_s": total(pick("measures.mollify")),
        "capacity.cap_h1_calls": len(pick("capacity.cap_h1")),
        "capacity.cap_h1_s": total(pick("capacity.cap_h1")),
        "capacity.construct_psi_s": total(pick("capacity.construct_psi")),
        "trace.overhead_s": own_s,
    }
    m = {k: v / passes for k, v in m.items()}
    # the largest factor is a peak, not a per-pass total
    m["linalg.lu_nnz_max"] = max(nnz, default=0)
    m["solver.iters_per_solve"] = iters / len(solves) if solves else 0.0
    return m


def op_counts(spans: list[list]) -> dict[str, dict[str, int]]:
    """Solver and factorization counts per operation."""
    out: dict[str, dict[str, int]] = {}
    for s in spans:
        row = out.setdefault(s[OP], {"solves": 0, "newton_iters": 0, "maxiter_solves": 0,
                                     "flat_tail_accepts": 0, "factorizations": 0})
        if s[NAME] == "solver.solve":
            row["solves"] += 1
            row["newton_iters"] += s[ATTRS]["iterations"]
            row["maxiter_solves"] += int(s[ATTRS]["max_iter"])
            row["flat_tail_accepts"] += int(s[ATTRS]["flat_tail"])
        elif s[NAME] == "linalg.splu":
            row["factorizations"] += 1
    return out
