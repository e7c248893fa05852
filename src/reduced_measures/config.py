"""Experiment configuration: JSON in, validated objects out.

A config is a plain dict (usually loaded from a JSON file) with the
sections ``grid``, ``nonlinearity``, ``measure`` and optional
``schedule``, ``scheme``, ``tolerances``.  Top-level keys that nothing
reads are ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import nonlinearities
from .grids import Grid, build_grid
from .measures import DiscreteMeasure

_TOLERANCE_DEFAULTS = {
    "seq_tol": None,   # scheme step tolerance; None = 1e-7 * |domain|
}


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


def grid_from_spec(spec: dict) -> Grid:
    """Build a grid from its config section, mapping bad specs to ConfigError."""
    kind = _require(spec, "kind", "grid")
    try:
        h = float(_require(spec, "h", "grid"))
        if kind == "interval1d":
            return build_grid(kind, h, length=float(spec.get("length", 1.0)))
        if kind == "radialN":
            return build_grid(
                kind, h, dim=int(_require(spec, "dim", "grid")),
                radius=float(spec.get("radius", 1.0)),
            )
        if kind == "rect2d":
            return build_grid(kind, h, extents=tuple(spec.get("extents", (1.0, 1.0))))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"grid: {exc}") from exc
    raise ConfigError(f"grid: unknown kind {kind!r}")


@dataclass
class ExperimentConfig:
    grid: dict
    nonlinearity: dict
    measure: dict
    schedule: list[float] | None = None
    scheme: str = "truncation"
    tolerances: dict = field(default_factory=dict)
    out_dir: str = "."

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
        cfg = cls(
            grid=_require(raw, "grid", "config"),
            nonlinearity=_require(raw, "nonlinearity", "config"),
            measure=_require(raw, "measure", "config"),
            schedule=raw.get("schedule"),
            scheme=raw.get("scheme", "truncation"),
            tolerances=dict(raw.get("tolerances", {})),
            out_dir=raw.get("out_dir", "."),
        )
        if cfg.scheme not in ("truncation", "mollification", "signed"):
            raise ConfigError(f"unknown scheme {cfg.scheme!r}")
        if cfg.schedule is not None and not (
            isinstance(cfg.schedule, list)
            and cfg.schedule
            and all(_is_positive_number(v) for v in cfg.schedule)
        ):
            raise ConfigError(
                "schedule must be a non-empty list of positive finite numbers, "
                f"got {cfg.schedule!r}"
            )
        unknown = set(cfg.tolerances) - set(_TOLERANCE_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown tolerance keys: {sorted(unknown)}")
        cfg.build_grid()  # validate eagerly so errors surface as exit 2
        g = cfg.build_nonlinearity()
        if cfg.scheme == "mollification" and not g.convex:
            raise ConfigError(
                "the mollification scheme needs a convex nonlinearity, "
                f"got {g.kind!r}"
            )
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        return cls.from_dict(read_config(path))

    # --- builders -----------------------------------------------------------

    def build_grid(self) -> Grid:
        return grid_from_spec(self.grid)

    def build_nonlinearity(self) -> nonlinearities.Nonlinearity:
        try:
            return nonlinearities.from_config(self.nonlinearity)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"nonlinearity: {exc}") from exc

    def build_measure(self, grid: Grid) -> DiscreteMeasure:
        spec = self.measure
        density = np.zeros(grid.n_nodes)
        dens_spec = spec.get("density")
        if dens_spec is not None:
            kind = dens_spec.get("kind", "constant")
            if kind == "constant":
                density[:] = float(dens_spec.get("value", 0.0))
            elif kind == "sin1d":
                if grid.kind != "interval1d":
                    raise ConfigError("measure: sin1d density needs an interval1d grid")
                freq = float(dens_spec.get("frequency", 1.0))
                offset = float(dens_spec.get("offset", 1.0))
                density[:] = offset + np.sin(2.0 * math.pi * freq * grid.nodes)
            elif kind == "values":
                vals = np.asarray(dens_spec.get("values", []), dtype=float)
                if vals.shape != (grid.n_nodes,):
                    raise ConfigError(
                        f"measure: values length {vals.size} != {grid.n_nodes} nodes"
                    )
                density[:] = vals
            else:
                raise ConfigError(f"measure: unknown density kind {kind!r}")
        atoms = []
        for entry in spec.get("atoms", []):
            if not isinstance(entry, dict) or "at" not in entry or "weight" not in entry:
                raise ConfigError(f"measure: atom entry {entry!r} needs 'at' and 'weight'")
            try:
                atoms.append((entry["at"], float(entry["weight"])))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"measure: atom entry {entry!r}: {exc}") from exc
        try:
            if atoms:
                placed = DiscreteMeasure.from_atoms(grid, atoms)
                return DiscreteMeasure(grid, density, placed.atoms)
            return DiscreteMeasure(grid, density, ())
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"measure: {exc}") from exc

    def resolve_tolerances(self) -> dict:
        """Defaults, overlaid by the config's ``tolerances`` section."""
        return {**_TOLERANCE_DEFAULTS, **self.tolerances}
