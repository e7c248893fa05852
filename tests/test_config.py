import json
import math

import numpy as np
import pytest

from reduced_measures.config import ConfigError, ExperimentConfig, grid_from_spec


def _base(**overrides):
    raw = {
        "grid": {"kind": "radialN", "h": 2.0**-6, "dim": 2, "radius": 1.0},
        "nonlinearity": {"kind": "exp"},
        "measure": {"atoms": [{"at": 0.0, "weight": 6.0}]},
        "scheme": "truncation",
    }
    raw.update(overrides)
    return raw


def test_round_trip_builds_matching_objects():
    cfg = ExperimentConfig.from_dict(_base())
    assert cfg.grid.kind == "radialN" and cfg.grid.dim == 2
    assert cfg.mu.grid is cfg.grid and cfg.mu.atoms == ((0, 6.0),)
    assert cfg.g(1.0) == pytest.approx(math.e - 1.0)
    assert (cfg.scheme, cfg.schedule, cfg.seq_tol, cfg.out_dir) == ("truncation", None, None, ".")


def test_grid_from_spec_covers_every_kind():
    g1 = grid_from_spec({"kind": "interval1d", "h": 0.125, "length": 2.0})
    assert g1.kind == "interval1d" and g1.extents == (2.0,) and g1.shape == (15,)
    g2 = grid_from_spec({"kind": "rect2d", "h": 0.25, "extents": [2.0, 1.0]})
    assert g2.kind == "rect2d" and g2.extents == (2.0, 1.0) and g2.shape == (3, 7)
    with pytest.raises(ConfigError):
        grid_from_spec({"kind": "hex", "h": 0.1})
    with pytest.raises(ConfigError):
        grid_from_spec({"kind": "interval1d", "h": "wide"})


def test_density_measures():
    cfg = ExperimentConfig.from_dict(
        _base(
            grid={"kind": "interval1d", "h": 2.0**-5, "length": 1.0},
            measure={"density": {"kind": "constant", "value": 2.5}},
        )
    )
    assert np.allclose(cfg.mu.density, 2.5)
    assert cfg.mu.atoms == ()

    cfg2 = ExperimentConfig.from_dict(
        _base(
            grid={"kind": "interval1d", "h": 2.0**-5, "length": 1.0},
            measure={"density": {"kind": "sin1d", "amplitude": 1.0, "frequency": 2}},
        )
    )
    assert cfg2.mu.density.max() > 0.9


def test_malformed_atom_entries_are_config_errors():
    grid_spec = {"kind": "interval1d", "h": 2.0**-5, "length": 1.0}
    for atoms in (
        [[[0.5], 3.0]],  # list entry instead of {"at": ..., "weight": ...}
        [{"at": [0.5]}],
        [{"at": [0.5], "weight": "heavy"}],
    ):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(_base(grid=grid_spec, measure={"atoms": atoms}))


def test_unknown_keys_and_schemes_fail_eagerly():
    for overrides in (
        {"scheme": "annealing"},
        {"tolerances": {"tol": 1e-9, "warp": 1.0}},
        {"nonlinearity": {"kind": "tanh"}},
        {"scheme": "mollification", "nonlinearity": {"kind": "exp2sided"}},
        {"schedule": [0.0, 1.0]},
        {"schedule": [1.0, float("inf")]},
        {"schedule": []},
        {"schedule": "abc"},
    ):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(_base(**overrides))


def test_tolerances_overlay_the_defaults():
    cfg = ExperimentConfig.from_dict(_base(tolerances={"seq_tol": 1e-6}))
    assert cfg.seq_tol == 1e-6
    assert ExperimentConfig.from_dict(_base()).seq_tol is None  # the scheme's default
    for key in ("good_tol", "tol"):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(_base(tolerances={key: 1e-6}))


def test_from_file_reports_config_errors(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_base()))
    cfg = ExperimentConfig.from_file(str(good))
    assert cfg.scheme == "truncation"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(str(bad))

    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(str(tmp_path / "missing.json"))
