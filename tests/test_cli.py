import csv
import json
import math

import pytest

from reduced_measures import cli, config

DISK = {"kind": "radialN", "h": 2.0**-7, "dim": 2, "radius": 1.0}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _reduce_config(tmp_path, weight=8 * math.pi):
    return _write(
        tmp_path,
        "reduce.json",
        {
            "grid": DISK,
            "nonlinearity": {"kind": "exp"},
            "measure": {"atoms": [{"at": 0.0, "weight": weight}]},
            "scheme": "truncation",
        },
    )


def test_solve_writes_solution_and_diagnostics(tmp_path):
    cfg = _write(
        tmp_path,
        "solve.json",
        {
            "grid": {"kind": "interval1d", "h": 2.0**-6, "length": 1.0},
            "nonlinearity": {"kind": "power", "p": 2.0},
            "measure": {"density": {"kind": "constant", "value": 3.0}},
        },
    )
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK

    diag = json.loads((out / "solve_diagnostics.json").read_text())
    assert diag["converged"] is True
    assert diag["stop_reason"] == "tol"
    assert diag["residual_l1"] <= 1e-6

    with open(out / "solution.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "u"]
    assert len(rows) == 64  # header + one row per node


def _huge_atom_config(tmp_path, weight):
    return _write(
        tmp_path,
        "solve.json",
        {
            "grid": {"kind": "radialN", "h": 2.0**-10, "dim": 2, "radius": 1.0},
            "nonlinearity": {"kind": "exp"},
            "measure": {"atoms": [{"at": 0.0, "weight": weight}]},
        },
    )


def test_overflowing_cold_start_is_restarted_and_exits_zero(tmp_path):
    # e^u overflows at the linear start L^-1 b; the solve starts from zero
    cfg = _huge_atom_config(tmp_path, 5000.0)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    diag = json.loads((out / "solve_diagnostics.json").read_text())
    assert diag["converged"] is True
    assert diag["stop_reason"] == "tol"
    assert diag["iterations"] == 10


def test_solver_failure_exits_with_code_three(tmp_path):
    # so huge an atom that the first step from zero overflows e^u as well
    cfg = _huge_atom_config(tmp_path, 1e30)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == cli.EXIT_SOLVER

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    text = (out / "solve_diagnostics.json").read_text()
    diag = json.loads(text, parse_constant=reject)
    assert diag["converged"] is False
    assert diag["stop_reason"] == "nonfinite"
    assert diag["residual_l1"] is None


def test_exit_three_says_why(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _huge_atom_config(tmp_path, 1e30)
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == cli.EXIT_SOLVER
    assert capsys.readouterr().err == (
        "solver failure: solve stopped on nonfinite (residual inf)\n"
    )
    # two caps are too few for the march on an 8 pi atom to settle
    _reduce_config(tmp_path)
    raw = json.loads((tmp_path / "reduce.json").read_text())
    cfg = _write(tmp_path, "short.json", dict(raw, schedule=[1.0, 2.0]))
    assert cli.main(["reduce", "--config", cfg, "--out", str(out)]) == cli.EXIT_SOLVER
    levels = list(csv.DictReader((out / "levels.csv").read_text().splitlines()))
    # the default seq_tol is 1e-7 times the area of the unit disk
    assert capsys.readouterr().err == (
        "solver failure: the truncation scheme did not settle: last level n=2.0, "
        f"l1_step={float(levels[-1]['l1_step']):.3e}, seq_tol={1e-7 * math.pi:.3e}\n"
    )


def test_reduce_reports_the_clamped_atom(tmp_path):
    # mollification classifies the atom with the truncation march, so it
    # settles (and exits 0) when that march does
    payload = json.loads(open(_reduce_config(tmp_path)).read())
    for scheme in ("truncation", "mollification"):
        cfg = _write(tmp_path, f"{scheme}.json", {**payload, "scheme": scheme})
        out = tmp_path / scheme
        assert cli.main(["reduce", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK

        reduced = json.loads((out / "reduced.json").read_text())
        assert reduced["scheme"] == scheme
        assert reduced["converged"] is True
        # calibration accuracy is covered by the reduction tests at finer h;
        # here we only require the structural clamp below the critical mass
        ((atom),) = reduced["mu_star"]["atoms"]
        assert atom["at"] == [0.0]  # the origin atom sits at r = 0, not at node 0
        assert 0.6 * 4 * math.pi <= atom["weight"] <= 4 * math.pi * (1 + 1e-9)
        assert reduced["defect_tv"] == pytest.approx(8 * math.pi - atom["weight"])

        with open(out / "levels.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "n"
        assert len(rows) > 2


def test_reduce_output_is_byte_deterministic(tmp_path):
    cfg = _reduce_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["reduce", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["reduce", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("reduced.json", "levels.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_config_errors_exit_with_code_two(tmp_path, capsys):
    bad = _write(tmp_path, "bad.json", {"grid": {"kind": "hex", "h": 0.1},
                                        "nonlinearity": {"kind": "exp"},
                                        "measure": {}})
    assert cli.main(["reduce", "--config", bad]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err

    assert cli.main(["reduce", "--config", str(tmp_path / "nope.json")]) == cli.EXIT_CONFIG

    reduce_base = {
        "grid": DISK,
        "nonlinearity": {"kind": "exp"},
        "measure": {"atoms": [{"at": 0.0, "weight": 2.0}]},
    }
    capacity_base = {
        "grid": DISK,
        "sets": [{"kind": "point", "at": 0.0}],
    }
    mollify = {**reduce_base, "scheme": "mollification"}
    line = {"kind": "interval1d", "h": 2.0**-5}
    nan, inf = float("nan"), float("inf")
    for command, payload in (
        # a section of the wrong type
        ("reduce", {**reduce_base, "grid": 5}),
        ("reduce", {**reduce_base, "nonlinearity": 5}),
        ("reduce", {**reduce_base, "measure": 5}),
        ("reduce", {**reduce_base, "measure": {"density": 5}}),
        ("reduce", {**reduce_base, "measure": {"atoms": 5}}),
        ("reduce", {**reduce_base, "tolerances": [1]}),
        ("reduce", {**reduce_base, "measure": {"density": {"value": "x"}}}),
        ("reduce", {**reduce_base, "grid": line,
                    "measure": {"density": {"kind": "values", "values": ["a"]}}}),
        # seq_tol is a positive finite number: at 0 or below the march never stops
        ("reduce", {**reduce_base, "measure": {"atoms": [{"at": 0.0, "weight": 25.1}]},
                    "tolerances": {"seq_tol": "x"}}),
        ("reduce", {**reduce_base, "tolerances": {"seq_tol": -1}}),
        ("reduce", {**reduce_base, "tolerances": {"seq_tol": 0}}),
        # non-finite numbers, and a non-integer dimension
        ("reduce", {**reduce_base, "measure": {"atoms": [{"at": 0.0, "weight": nan}]}}),
        ("reduce", {**reduce_base, "measure": {"atoms": [{"at": 0.0, "weight": inf}]}}),
        ("reduce", {**reduce_base, "measure": {"density": {"value": nan}}}),
        ("reduce", {**reduce_base, "nonlinearity": {"kind": "power", "p": nan}}),
        ("reduce", {**reduce_base, "nonlinearity": {"kind": "power", "p": inf}}),
        ("reduce", {**reduce_base, "grid": {**DISK, "dim": 2.7}}),
        ("reduce", {**reduce_base, "grid": {**line, "length": inf}}),
        ("reduce", {**reduce_base, "grid": line,
                    "measure": {"atoms": [{"at": inf, "weight": 1.0}]}}),
        ("reduce", {**reduce_base, "out_dir": 5}),
        ("capacity", {**capacity_base, "sets": {"kind": "point"}}),
        ("capacity", {**capacity_base, "sets": [1]}),
        ("capacity", {**capacity_base, "sets": [{"kind": "point", "at": {}}]}),
        ("sweep", {"base": reduce_base, "sweep": [1]}),
        ("sweep", {"base": reduce_base, "sweep": {"parameter": "h", "values": [nan]}}),
        ("reduce", {**mollify, "nonlinearity": {"kind": "exp2sided"}}),
        ("reduce", {**reduce_base, "schedule": [0.0, 1.0]}),
        ("reduce", {**reduce_base, "schedule": "abc"}),
        ("capacity", {**capacity_base, "delta": "x"}),
        ("capacity", {**capacity_base, "delta": 1.5}),
        ("reduce", {**reduce_base, "tolerances": {"tol": 1e-3}}),
        # a kernel radius below 2h, and an atom the default radii push
        # across the boundary
        ("reduce", {**mollify, "schedule": [0.001]}),
        ("reduce", {**mollify, "measure": {"atoms": [{"at": 0.95, "weight": 2.0}]}}),
        ("sweep", {"base": reduce_base, "sweep": {"parameter": "h", "values": ["a"]}}),
        # the cut-off at this delta reaches the boundary ring
        ("capacity", {"grid": {"kind": "rect2d", "h": 2.0**-7}, "delta": 1e-6,
                      "sets": [{"kind": "point", "at": [0.5, 0.5]}]}),
        # rect2d takes exactly two extents, and an atom one coordinate per axis
        ("reduce", {**reduce_base, "grid": {"kind": "rect2d", "h": 0.25, "extents": [1.0]}}),
        ("reduce", {**reduce_base, "grid": {"kind": "rect2d", "h": 0.25,
                                            "extents": [1.0, 1.0, 1.0]}}),
        ("solve", {"grid": {"kind": "interval1d", "h": 2.0**-5},
                   "nonlinearity": {"kind": "exp"},
                   "measure": {"atoms": [{"at": [0.5, 0.9], "weight": 1.0}]}}),
    ):
        path = _write(tmp_path, f"{command}.json", payload)
        assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG, payload
        assert "config error:" in capsys.readouterr().err


def test_reduce_builds_its_grid_once(tmp_path, monkeypatch):
    calls = []

    def counting_build_grid(*args, **kwargs):
        calls.append(args)
        return build_grid(*args, **kwargs)

    build_grid = config.build_grid
    monkeypatch.setattr(config, "build_grid", counting_build_grid)
    cfg = _reduce_config(tmp_path, weight=2.0)
    assert cli.main(["reduce", "--config", cfg, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert len(calls) == 1


def test_sweep_with_a_malformed_base_measure_exits_two(tmp_path, capsys):
    # a planar point on the radial grid: every row would fail the same way
    base = {
        "grid": DISK,
        "nonlinearity": {"kind": "exp"},
        "measure": {"atoms": [{"at": [0.5, 0.5], "weight": 2.0}]},
    }
    cfg = _write(tmp_path, "sweep.json",
                 {"base": base, "sweep": {"parameter": "h", "values": [2.0**-6]}})
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: measure:")
    assert not (out / "sweep.csv").exists()


def test_capacity_closed_forms_in_csv(tmp_path):
    cfg = _write(
        tmp_path,
        "capacity.json",
        {
            "grid": {"kind": "radialN", "h": 2.0**-8, "dim": 2, "radius": 1.0},
            "delta": 0.02,
            "sets": [
                {"kind": "ball", "center": 0.0, "radius": 0.25, "tag": "disk"},
                {"kind": "point", "at": 0.0, "tag": "origin"},
            ],
        },
    )
    out = tmp_path / "out"
    assert cli.main(["capacity", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    with open(out / "capacity.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_tag = {r["set"]: r for r in rows}
    disk_cap = float(by_tag["disk"]["cap_h1"])
    assert disk_cap == pytest.approx(2 * math.pi / math.log(4.0), rel=1e-3)
    assert float(by_tag["disk"]["ratio"]) == pytest.approx(2.0 / 0.98, rel=1e-3)
    assert float(by_tag["origin"]["cap_h1"]) < disk_cap


def test_sweep_continues_past_failing_rows(tmp_path):
    cfg = _write(
        tmp_path,
        "sweep.json",
        {
            "base": {
                "grid": DISK,
                "nonlinearity": {"kind": "exp"},
                "measure": {"atoms": [{"at": 0.0, "weight": 2.0}]},
                "scheme": "truncation",
            },
            "sweep": {"parameter": "h", "values": [2.0**-6, -1.0, 2.0**-7]},
        },
    )
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    values = [float(r["value"]) for r in rows]
    assert values == sorted(values)  # deterministic ordering
    status = {float(r["value"]): r["status"] for r in rows}
    assert status[-1.0].startswith("failed")
    assert status[2.0**-6] == "ok" and status[2.0**-7] == "ok"


def test_sweep_is_deterministic(tmp_path):
    payload = {
        "base": {
            "grid": DISK,
            "nonlinearity": {"kind": "exp"},
            "measure": {"atoms": [{"at": 0.0, "weight": 20.0}]},
            "scheme": "truncation",
        },
        "sweep": {"parameter": "atom_mass", "values": [2.0, 20.0, 40.0]},
    }
    cfg = _write(tmp_path, "sweep.json", payload)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    # wall-clock timings live in a separate file, outside the determinism contract
    assert (out1 / "timings.csv").exists()


def test_verify_subcommand_writes_a_report(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["verify", "calculus", "--out", str(out)]) == cli.EXIT_OK
    report = json.loads((out / "verify_report.json").read_text())
    assert report["suite"] == "calculus"
    assert report["passed"] is True
    assert all(r["passed"] for r in report["results"])


def test_unknown_suite_is_rejected_by_the_parser():
    for argv in (
        ["verify", "quantum"],
        ["reduce", "--config", "reduce.json", "--seed", "1"],
        ["verify", "calculus", "--threads", "2"],
        ["sweep", "--config", "sweep.json", "--threads", "2"],
    ):
        with pytest.raises(SystemExit):
            cli.main(argv)
