"""Write ``reference.json`` from traced runs of the workloads.

The reference holds what the output gate compares against (the outputs
of every operation with fixed inputs) and the per-operation solver and
factorization counts, both taken from the first pass of a traced run.
It was recorded at the seed commit with

    for w in radial-fine radial-finest rect2d-signed small-mixed; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 1 --trace 1
    done
    python3 perfbench/record_reference.py --seed 0

Recording again replaces the gate's reference values: do it only when a
change is meant to alter the numerical outputs, and say so.
"""

from __future__ import annotations

import argparse
import json

from run import HERE, OUT, WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    reference = {"env": None, "outputs": {}, "per_layer_seed": {}}
    for workload in WORKLOADS:
        raw = json.loads((OUT / "work" / f"{workload}-seed{args.seed}-trace1.raw.json").read_text())
        reference["env"] = {k: v for k, v in raw["env"].items() if k != "seed"}
        first = [r for r in raw["ops"] if r["pass"] == 0]
        reference["outputs"][workload] = {
            r["name"]: r["outputs"] for r in first if r["kind"] != "solve"
        }
        reference["per_layer_seed"][workload] = {
            op[3:]: counts for op, counts in raw["op_counts"].items()
            if op.startswith("p0/") and not op[3:].startswith("solve-")
        }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
