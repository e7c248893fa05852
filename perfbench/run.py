"""End-to-end and per-layer benchmark of the reduced-measures package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload radial-fine --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``radial-fine``,
``radial-finest``, ``rect2d-signed``, ``small-mixed``.  Only
``small-mixed`` draws its inputs from ``--seed``.

The workload runs in a fresh process (``worker.py``) with every
``RMLAB_*`` variable removed and BLAS/OpenMP pinned to one thread, so one
operation runs at a time on one core: a closed loop with one client.
This script then checks the outputs against ``reference.json`` (the
output gate), prints every metric by name with its unit, writes a record
of the run under ``.perfbench/results/`` and prints, as its last line,
the JSON summary ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics:

    wall_s         median wall time of one pass over the workload's operations
    setup_s        package import plus the median of 5 set-ups (grids, configs)
    peak_rss_mb    peak resident set size of the workload process
    oracle_rel_err worst |atom - closed form| / |datum atom| over the
                   operations that have a closed form
    solve_p50_ms,  median and 99th percentile latency of one operation: a
    solve_p99_ms   cold solve in small-mixed, one rmlab reduce run otherwise

``--trace 1`` runs the same passes under the tracer and reports the
per-layer metrics instead.  It also writes the spans and the per-layer
table under ``.perfbench/trace/`` and prints the per-operation solver and
factorization counts next to the seed commit's counts.

An operation fails if it raises, if its outputs miss the gate, or if
``rmlab reduce`` exits nonzero with another code than the seed commit's
for it; failures are counted in ``failed``.  At the seed, the p3 case of
radial-fine and the p6 case of radial-finest exit 3: their truncation
march runs out of schedule without settling (``converged: false``).  The
run prints every nonzero exit, and a change that makes them exit 0
passes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("radial-fine", "radial-finest", "rect2d-signed", "small-mixed")

# The child must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "NUMBA_NUM_THREADS",
)

# Output gate.  Atom weights must agree to 3 significant figures; a cold
# solve must converge with a recomputed l1 residual within 10x the
# solver's default relative tolerance (1e-9).
SOLVE_RESIDUAL_REL = 1e-8
U_STAR_L1_REL = 1e-3
DIRECT_VS_COMBINED_ABS = 1e-3
CAPACITY_REL = 1e-6

def hermetic_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("RMLAB_") and k not in ("PYTHONPATH", "PYTHONHOME")}
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


# --- output gate -----------------------------------------------------------------


def sig3(ref: float) -> float:
    """Half a unit in the third significant figure of ``ref``."""
    if ref == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(ref))) - 2)


def gate(record: dict, reference: dict) -> str | None:
    """Why an operation's outputs fail the gate, or None if they pass."""
    if record["error"] is not None:
        return record["error"]
    out = record["outputs"]
    if record["kind"] == "solve":
        if not out["converged"]:
            return "solve reported no convergence"
        if out["residual"] > SOLVE_RESIDUAL_REL * out["scale"]:
            return f"residual {out['residual']:.3e} above {SOLVE_RESIDUAL_REL:g} x {out['scale']:.3g}"
        return None
    ref = reference.get(record["name"])
    if ref is None:
        return "no reference outputs"
    problems = []
    if out.get("exit_code", 0) not in (0, ref.get("exit_code")):
        problems.append(f"rmlab reduce exited with {out['exit_code']} "
                        f"(seed commit: {ref['exit_code']})")
    if "atoms" in ref:
        got = {node: w for node, w in out["atoms"]}
        want = {node: w for node, w in ref["atoms"]}
        if set(got) != set(want):
            problems.append(f"atom nodes {sorted(got)} != {sorted(want)}")
        else:
            for node, w in want.items():
                if abs(got[node] - w) > sig3(w):
                    problems.append(f"atom {node}: {got[node]!r} != {w!r} to 3 figures")
        defect_tol = sum(sig3(w) for w in want.values())
        if abs(out["defect_tv"] - ref["defect_tv"]) > defect_tol:
            problems.append(f"defect_tv {out['defect_tv']!r} != {ref['defect_tv']!r}")
        if abs(out["u_star_l1"] - ref["u_star_l1"]) > U_STAR_L1_REL * abs(ref["u_star_l1"]):
            problems.append(f"u_star_l1 {out['u_star_l1']!r} != {ref['u_star_l1']!r}")
    if "direct_vs_combined_rel" in ref:
        if abs(out["direct_vs_combined_rel"] - ref["direct_vs_combined_rel"]) > DIRECT_VS_COMBINED_ABS:
            problems.append(f"direct_vs_combined_rel {out['direct_vs_combined_rel']!r} "
                            f"!= {ref['direct_vs_combined_rel']!r}")
    for key in ("cap_h1", "delta1_mass", "ratio"):
        if key in ref and abs(out[key] - ref[key]) > CAPACITY_REL * abs(ref[key]):
            problems.append(f"{key} {out[key]!r} != {ref[key]!r}")
    return "; ".join(problems) or None


# --- metrics ---------------------------------------------------------------------


def oracle_rel_err(records: list[dict]) -> float:
    worst = 0.0
    for rec in records:
        if rec["outputs"] is None:
            continue
        got = {node: w for node, w in rec["outputs"]["atoms"]} if rec["oracle"] else {}
        for node, datum, closed in rec["oracle"]:
            worst = max(worst, abs(got.get(node, 0.0) - closed) / abs(datum))
    return worst


def end_to_end(raw: dict) -> tuple[dict, str]:
    records = raw["ops"]
    latencies = [r["seconds"] * 1e3 for r in records if r["kind"] == "solve"]
    if not latencies:
        latencies = [r["seconds"] * 1e3 for r in records]
    p99 = (statistics.quantiles(latencies, n=100, method="inclusive")[98]
           if len(latencies) > 1 else latencies[0])
    beyond = sum(1 for x in latencies if x > p99)
    metrics = {
        "wall_s": statistics.median(raw["pass_times"]),
        "setup_s": raw["setup_s"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "oracle_rel_err": oracle_rel_err(records),
        "solve_p50_ms": statistics.median(latencies),
        "solve_p99_ms": p99,
    }
    note = (f"{len(raw['pass_times'])} passes, {len(latencies)} latency samples, "
            f"{beyond} beyond p99")
    return metrics, note


def seed_baseline_lines(raw: dict, baseline: dict) -> list[str]:
    """Per-operation counts of the first traced pass next to the seed's."""
    lines = []
    for op, counts in sorted(raw["op_counts"].items()):
        if not op.startswith("p0/"):
            continue
        name = op[3:]
        seed = baseline.get(name)
        if seed is None:
            continue
        cells = []
        for key, value in counts.items():
            mark = "" if seed[key] == value else f" (seed {seed[key]})"
            cells.append(f"{key}={value}{mark}")
        same = all(seed[k] == v for k, v in counts.items())
        lines.append(f"  {name}: {', '.join(cells)} [{'= seed' if same else 'differs from seed'}]")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "reduced_measures" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src'}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}"
    for sub in ("results", "trace", "work"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    raw_path = OUT / "work" / f"{tag}-trace{args.trace}.raw.json"
    spans_path = OUT / "trace" / f"{tag}.spans.jsonl"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(OUT / "work" / args.workload), "--out", str(raw_path),
    ]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    raw_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(cmd, env=hermetic_env(), cwd=ROOT, stdout=sys.stderr,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload process exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not raw_path.is_file():
        print(f"perfbench: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(raw_path.read_text())
    if Path(raw["package"]).resolve() != (ROOT / "src" / "reduced_measures").resolve():
        print(f"perfbench: imported the package from {raw['package']}", file=sys.stderr)
        return 1

    reference = json.loads((HERE / "reference.json").read_text())
    failures = []
    for rec in raw["ops"]:
        reason = gate(rec, reference["outputs"][args.workload])
        if reason is not None:
            failures.append({"pass": rec["pass"], "op": rec["name"], "reason": reason})

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("env " + json.dumps(raw["env"], sort_keys=True))
    if {k: v for k, v in raw["env"].items() if k != "seed"} != reference["env"]:
        print("note: the environment differs from the one reference.json was recorded in "
              + json.dumps(reference["env"], sort_keys=True))
    if args.trace:
        metrics = raw["layers"]
        print(f"spans: {spans_path}")
        print("per-operation counts, first pass:")
        baseline = reference["per_layer_seed"].get(args.workload, {})
        print("\n".join(seed_baseline_lines(raw, baseline)))
    else:
        metrics, note = end_to_end(raw)
        print(note)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"perfbench: metrics {sorted(set(units) ^ set(metrics))} are not both "
              "measured and declared in BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>14.6g} {units[name]}")
    if args.trace:
        table = OUT / "trace" / f"{tag}.layers.tsv"
        table.write_text("metric\tvalue\tunit\n" + "".join(
            f"{k}\t{v!r}\t{units[k]}\n" for k, v in metrics.items()))
        print(f"per-layer table: {table}")
    for rec in raw["ops"]:
        if rec["outputs"] and rec["outputs"].get("exit_code"):
            print(f"  pass {rec['pass']} {rec['name']}: rmlab reduce exited with "
                  f"{rec['outputs']['exit_code']}")
    attempted = len(raw["ops"])
    print(f"output gate: {attempted - len(failures)}/{attempted} operations pass")
    for f in failures[:20]:
        print(f"  FAIL pass {f['pass']} {f['op']}: {f['reason']}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": raw["env"], "attempted": attempted,
        "failed": len(failures), "failures": failures, "pass_times": raw["pass_times"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (OUT / "results" / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
