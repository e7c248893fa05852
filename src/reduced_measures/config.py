"""Experiment configuration: JSON in, validated objects out.

A config is a plain dict (usually loaded from a JSON file) with the
sections ``grid``, ``nonlinearity``, ``measure`` and optional
``schedule``, ``scheme``, ``tolerances``, ``out_dir``.
``ExperimentConfig.from_dict`` builds the grid, the absorption g and the
measure mu of -Lap u + g(u) = mu once, and checks every value on the way,
so a malformed config raises ConfigError before any solve.  Top-level
keys that nothing reads are ignored.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import nonlinearities
from .grids import Grid, build_grid
from .measures import DiscreteMeasure
from .reduction import check_mollification_schedule


class ConfigError(ValueError):
    """Raised for malformed configs; the CLI maps it to exit code 2."""


def read_config(path: str):
    """Parse a JSON config file, mapping unreadable files to ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _is_positive_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0
    )


def _require(cfg: dict, key: str, section: str):
    if key not in cfg:
        raise ConfigError(f"{section}: missing required key {key!r}")
    return cfg[key]


def _object(value, section: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{section} must be an object, got {value!r}")
    return value


@contextmanager
def _section(name: str):
    """Report a bad value met while building ``name`` as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def grid_from_spec(spec: dict) -> Grid:
    """Build a grid from its config section, mapping bad specs to ConfigError."""
    kind = _require(_object(spec, "grid"), "kind", "grid")
    with _section("grid"):
        h = float(_require(spec, "h", "grid"))
        if kind == "interval1d":
            return build_grid(kind, h, length=float(spec.get("length", 1.0)))
        if kind == "radialN":
            dim = _require(spec, "dim", "grid")
            if not isinstance(dim, int) or isinstance(dim, bool):
                raise ValueError(f"dim must be an integer, got {dim!r}")
            return build_grid(kind, h, dim=dim, radius=float(spec.get("radius", 1.0)))
        if kind == "rect2d":
            return build_grid(kind, h, extents=tuple(spec.get("extents", (1.0, 1.0))))
    raise ConfigError(f"grid: unknown kind {kind!r}")


def _measure_from_spec(spec: dict, grid: Grid) -> DiscreteMeasure:
    density = np.zeros(grid.n_nodes)
    with _section("measure"):
        dens_spec = _object(spec, "measure").get("density")
        if dens_spec is not None:
            kind = _object(dens_spec, "measure: density").get("kind", "constant")
            if kind == "constant":
                density[:] = float(dens_spec.get("value", 0.0))
            elif kind == "sin1d":
                if grid.kind != "interval1d":
                    raise ValueError("sin1d density needs an interval1d grid")
                freq = float(dens_spec.get("frequency", 1.0))
                offset = float(dens_spec.get("offset", 1.0))
                density[:] = offset + np.sin(2.0 * math.pi * freq * grid.nodes)
            elif kind == "values":
                vals = np.asarray(dens_spec.get("values", []), dtype=float)
                if vals.shape != (grid.n_nodes,):
                    raise ValueError(f"values length {vals.size} != {grid.n_nodes} nodes")
                density[:] = vals
            else:
                raise ValueError(f"unknown density kind {kind!r}")
        atoms = []
        for entry in spec.get("atoms", []):
            if not isinstance(entry, dict) or "at" not in entry or "weight" not in entry:
                raise ValueError(f"atom entry {entry!r} needs 'at' and 'weight'")
            atoms.append((entry["at"], float(entry["weight"])))
        return DiscreteMeasure(grid, density, DiscreteMeasure.from_atoms(grid, atoms).atoms)


@dataclass(frozen=True)
class ExperimentConfig:
    """A solve/reduce config as the objects it names: the problem
    -Lap u + g(u) = mu on ``grid``, and the scheme that reduces mu."""

    grid: Grid
    g: nonlinearities.Nonlinearity
    mu: DiscreteMeasure
    scheme: str = "truncation"
    schedule: list[float] | None = None
    seq_tol: float | None = None  # scheme step tolerance; None = 1e-7 * |domain|
    out_dir: str | None = "."

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _object(raw, "config root")
        scheme = raw.get("scheme", "truncation")
        if scheme not in ("truncation", "mollification", "signed"):
            raise ConfigError(f"unknown scheme {scheme!r}")
        schedule = raw.get("schedule")
        if schedule is not None and not (
            isinstance(schedule, list)
            and schedule
            and all(_is_positive_number(v) for v in schedule)
        ):
            raise ConfigError(
                "schedule must be a non-empty list of positive finite numbers, "
                f"got {schedule!r}"
            )
        tolerances = _object(raw.get("tolerances", {}), "tolerances")
        unknown = set(tolerances) - {"seq_tol"}
        if unknown:
            raise ConfigError(f"unknown tolerance keys: {sorted(unknown)}")
        seq_tol = tolerances.get("seq_tol")
        if seq_tol is not None and not _is_positive_number(seq_tol):
            raise ConfigError(f"seq_tol must be a positive finite number, got {seq_tol!r}")
        out_dir = raw.get("out_dir", ".")
        if not isinstance(out_dir, (str, type(None))):
            raise ConfigError(f"out_dir must be a path, got {out_dir!r}")

        grid = grid_from_spec(_require(raw, "grid", "config"))
        with _section("nonlinearity"):
            spec = _object(_require(raw, "nonlinearity", "config"), "nonlinearity")
            g = nonlinearities.from_config(spec)
        mu = _measure_from_spec(_require(raw, "measure", "config"), grid)
        if scheme == "mollification":
            if not g.convex:
                raise ConfigError(
                    "the mollification scheme needs a convex nonlinearity, "
                    f"got {g.kind!r}"
                )
            try:
                check_mollification_schedule(mu, schedule)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        return cls(grid, g, mu, scheme, schedule, seq_tol, out_dir)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        return cls.from_dict(read_config(path))
