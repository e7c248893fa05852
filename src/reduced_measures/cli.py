"""Configuration-driven experiment runner.

Subcommands
    solve     solve the untruncated problem for the configured datum
    reduce    run a reduction scheme and write per-level and final artifacts
    capacity  equilibrium-potential capacities and cut-off ratios for sets
    verify    run a named invariant suite (or all of them)
    sweep     rerun the reduction across a parameter ladder, one CSV row each

Artifacts are plain CSV and JSON.  With a fixed config the data
artifacts are byte-identical across runs; wall-clock timings are kept out
of them (sweeps write a separate ``timings.csv`` sidecar).

Exit codes: 0 success, 1 failed verify check, 2 bad configuration,
3 solver failure, which stderr explains in one ``solver failure:`` line.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import os
import sys
import time

import numpy as np

from . import capacity as capacity_mod
from . import verify as verify_mod
from .config import ConfigError, ExperimentConfig, grid_from_spec, read_config
from .grids import Grid, negative_laplacian
from .measures import DiscreteMeasure, tv_distance
from .reduction import (
    reduce_by_mollification,
    reduce_by_truncation,
    reduce_signed,
)
from .solver import g_mass, solve_semilinear

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


# --- serialization helpers ----------------------------------------------------


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats; plain str otherwise."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (np.floating,)):
        return repr(float(value))
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _jsonable(obj):
    """Plain JSON values; a float that is not finite becomes null, which
    strict JSON parsers accept where they reject NaN and Infinity."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _atoms_json(measure: DiscreteMeasure) -> list[dict]:
    out = []
    for node, weight in sorted(measure.atoms):
        out.append(
            {
                "node": int(node),
                "at": list(measure.atom_coordinate(node)),
                "weight": float(weight),
            }
        )
    return out


def _measure_json(measure: DiscreteMeasure) -> dict:
    grid = measure.grid
    density_tv = float(
        np.sum(np.abs(np.asarray(measure.density)) * grid.cell_volumes)
    )
    return {
        "density_tv": density_tv,
        "atoms": _atoms_json(measure),
        "tv_norm": float(measure.tv_norm()),
    }


def _solution_rows(grid: Grid, u: np.ndarray) -> tuple[list[str], list[list]]:
    coords = np.atleast_2d(np.asarray(grid.nodes))
    if coords.shape[0] == 1 and grid.n_nodes > 1:
        coords = coords.T
    header = ["x", "y"][: coords.shape[1]] + ["u"]
    rows = [
        [float(c) for c in coords[i]] + [float(u[i])] for i in range(grid.n_nodes)
    ]
    return header, rows


# --- subcommands --------------------------------------------------------------


def run_solve(cfg: ExperimentConfig, out_dir: str) -> int:
    grid, g, mu = cfg.grid, cfg.g, cfg.mu
    report = solve_semilinear(negative_laplacian(grid), g, mu)

    header, rows = _solution_rows(grid, report.u.values)
    _write_csv(os.path.join(out_dir, "solution.csv"), header, rows)
    _write_json(
        os.path.join(out_dir, "solve_diagnostics.json"),
        {
            "converged": bool(report.converged),
            "stop_reason": report.stop_reason,
            "iterations": int(report.iterations),
            "residual_l1": float(report.residual_l1),
            "gmass": g_mass(grid, g, report.u.values),
            "mu_tv": float(mu.tv_norm()),
            "u_l1": float(np.sum(np.abs(report.u.values) * grid.cell_volumes)),
        },
    )
    if not report.converged:
        reason, residual = report.stop_reason, report.residual_l1
        raise RuntimeError(f"solve stopped on {reason} (residual {residual:.3e})")
    return EXIT_OK


_SCHEMES = {
    "truncation": reduce_by_truncation,
    "mollification": reduce_by_mollification,
    "signed": reduce_signed,
}

_LEVEL_COLUMNS = [
    "n",
    "l1_step",
    "gmass",
    "u_l1",
    "excess",
    "capped_cells",
    "newton_iterations",
]


def _run_reduction(cfg: ExperimentConfig):
    runner = _SCHEMES[cfg.scheme]
    return runner(cfg.grid, cfg.g, cfg.mu, cfg.schedule, seq_tol=cfg.seq_tol)


def run_reduce(cfg: ExperimentConfig, out_dir: str) -> int:
    result = _run_reduction(cfg)

    rows = [[level[col] for col in _LEVEL_COLUMNS] for level in result.levels]
    _write_csv(os.path.join(out_dir, "levels.csv"), _LEVEL_COLUMNS, rows)

    summary = {
        "scheme": result.scheme,
        "converged": bool(result.converged),
        "mu_star": _measure_json(result.mu_star),
        "defect_tv": float(tv_distance(cfg.mu, result.mu_star)),
        "u_star_l1": float(
            np.sum(np.abs(result.u_star.values) * cfg.grid.cell_volumes)
        ),
        "gmass": g_mass(cfg.grid, cfg.g, result.u_star.values),
    }
    for key in ("exact", "direct_vs_combined_l1", "direct_vs_combined_tv"):
        if key in result.diagnostics:
            summary[key] = result.diagnostics[key]
    if "direct_mu_star" in result.diagnostics:
        summary["direct_mu_star"] = _measure_json(
            result.diagnostics["direct_mu_star"]
        )
    _write_json(os.path.join(out_dir, "reduced.json"), summary)
    if not result.converged:
        last = result.levels[-1]
        raise RuntimeError(
            f"the {result.scheme} scheme did not settle: last level n={last['n']}, "
            f"l1_step={last['l1_step']:.3e}, seq_tol={result.diagnostics['seq_tol']:.3e}"
        )
    return EXIT_OK


def _compact_set(grid: Grid, spec: dict):
    if not isinstance(spec, dict):
        raise ConfigError(f"capacity set must be an object, got {spec!r}")
    kind = spec.get("kind")
    tag = spec.get("tag", kind or "set")
    try:
        if kind == "point":
            if "at" not in spec:
                raise ConfigError("capacity set: 'point' needs 'at'")
            return capacity_mod.point_set(grid, spec["at"], tag=tag)
        if kind == "ball":
            if "center" not in spec or "radius" not in spec:
                raise ConfigError("capacity set: 'ball' needs 'center' and 'radius'")
            return capacity_mod.ball_set(
                grid, spec["center"], float(spec["radius"]), tag=tag
            )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"capacity set {tag!r}: {exc}") from exc
    raise ConfigError(f"capacity set: unknown kind {kind!r}")


def run_capacity(raw: dict, out_dir: str) -> int:
    if not isinstance(raw, dict) or "grid" not in raw:
        raise ConfigError("capacity config needs a 'grid' section")
    grid = grid_from_spec(raw["grid"])
    sets = raw.get("sets")
    if not sets or not isinstance(sets, list):
        raise ConfigError(f"capacity config needs a non-empty 'sets' list, got {sets!r}")
    delta = raw.get("delta", 0.02)
    if not (
        isinstance(delta, (int, float))
        and not isinstance(delta, bool)
        and 0.0 < delta < 1.0
    ):
        raise ConfigError(f"capacity delta must be a number in (0, 1), got {delta!r}")
    op = negative_laplacian(grid)

    rows = []
    for K in [_compact_set(grid, spec) for spec in sets]:
        value = capacity_mod.cap_h1(grid, K, op=op)["value"]
        try:
            witness = capacity_mod.construct_psi(grid, K, delta=delta, op=op)
        except ValueError as exc:
            raise ConfigError(f"capacity set {K.tag!r}: {exc}") from exc
        rows.append(
            [K.tag, grid.h, value, witness["delta1_mass"], witness["ratio"]]
        )
    _write_csv(
        os.path.join(out_dir, "capacity.csv"),
        ["set", "h", "cap_h1", "delta1_mass", "ratio"],
        rows,
    )
    return EXIT_OK


def run_verify(suite: str, out_dir: str) -> int:
    if suite == "all":
        results = verify_mod.run_all()
    else:
        results = verify_mod.run_suite(suite)
    for result in results:
        print(result.line())
    report = {
        "suite": suite,
        "passed": all(r.passed for r in results),
        "results": [
            {"name": r.name, "passed": r.passed, "details": r.details}
            for r in results
        ],
    }
    _write_json(os.path.join(out_dir, "verify_report.json"), report)
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


_SWEEP_PARAMETERS = ("atom_mass", "h", "p", "cap_ceiling")


def _apply_sweep_value(base: dict, parameter: str, value: float) -> dict:
    raw = copy.deepcopy(base)
    if parameter == "atom_mass":
        atoms = raw.get("measure", {}).get("atoms")
        if not atoms:
            raise ConfigError("atom_mass sweep needs a measure with atoms")
        atoms[0]["weight"] = value
    elif parameter == "h":
        raw.setdefault("grid", {})["h"] = value
    elif parameter == "p":
        raw.setdefault("nonlinearity", {})["p"] = value
    elif parameter == "cap_ceiling":
        if value < 1:
            raise ConfigError("cap_ceiling sweep values must be >= 1")
        schedule = [1.0]
        while schedule[-1] * 2.0 <= value:
            schedule.append(schedule[-1] * 2.0)
        raw["schedule"] = schedule
    return raw


_SWEEP_COLUMNS = [
    "parameter",
    "value",
    "status",
    "converged",
    "defect_tv",
    "atom_weights",
    "gmass",
    "newton_iterations",
]


def _sweep_cell(base: dict, parameter: str, value: float) -> tuple[list, float]:
    start = time.perf_counter()
    try:
        raw = _apply_sweep_value(base, parameter, value)
        cfg = ExperimentConfig.from_dict(raw)
        result = _run_reduction(cfg)
        weights = ";".join(
            repr(float(w)) for _, w in sorted(result.mu_star.atoms)
        )
        row = [
            parameter,
            value,
            "ok",
            result.converged,
            float(tv_distance(cfg.mu, result.mu_star)),
            weights,
            g_mass(cfg.grid, cfg.g, result.u_star.values),
            sum(level["newton_iterations"] for level in result.levels),
        ]
    except (ConfigError, RuntimeError) as exc:
        row = [parameter, value, f"failed: {exc}", "", "", "", "", ""]
    return row, time.perf_counter() - start


def run_sweep(raw: dict, out_dir: str) -> int:
    if not isinstance(raw, dict) or "base" not in raw or not isinstance(raw.get("sweep"), dict):
        raise ConfigError("sweep config needs a 'base' section and a 'sweep' object")
    base, sweep = raw["base"], raw["sweep"]
    ExperimentConfig.from_dict(base)  # validate eagerly: bad base is exit 2
    parameter = sweep.get("parameter")
    if parameter not in _SWEEP_PARAMETERS:
        raise ConfigError(
            f"sweep parameter must be one of {_SWEEP_PARAMETERS}, got {parameter!r}"
        )
    values = sweep.get("values")
    if not isinstance(values, list) or not values:
        raise ConfigError(f"sweep needs a non-empty 'values' list, got {values!r}")
    try:
        values = sorted(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sweep values must be numbers, got {values!r}") from exc
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"sweep values must be finite, got {values}")

    cells = [_sweep_cell(base, parameter, v) for v in values]
    rows = [row for row, _ in cells]
    _write_csv(os.path.join(out_dir, "sweep.csv"), _SWEEP_COLUMNS, rows)
    _write_csv(
        os.path.join(out_dir, "timings.csv"),
        ["parameter", "value", "seconds"],
        [[parameter, value, seconds] for value, (_, seconds) in zip(values, cells)],
    )
    return EXIT_OK


# --- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmlab",
        description="numerical laboratory for reduced measures of "
        "semilinear elliptic problems with measure data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("solve", "reduce", "capacity", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory")

    verify_parser = sub.add_parser("verify")
    verify_parser.add_argument(
        "suite",
        choices=sorted(verify_mod.SUITES) + ["all"],
        help="invariant suite to run",
    )
    verify_parser.add_argument("--out", default=None)
    return parser


def _resolve_out_dir(args, cfg: ExperimentConfig | None = None) -> str:
    out_dir = args.out
    if out_dir is None and cfg is not None:
        out_dir = cfg.out_dir
    if out_dir is None:
        out_dir = "."
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return run_verify(args.suite, _resolve_out_dir(args))
        if args.command == "capacity":
            return run_capacity(read_config(args.config), _resolve_out_dir(args))
        if args.command == "sweep":
            return run_sweep(read_config(args.config), _resolve_out_dir(args))
        cfg = ExperimentConfig.from_file(args.config)
        out_dir = _resolve_out_dir(args, cfg)
        if args.command == "solve":
            return run_solve(cfg, out_dir)
        return run_reduce(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
