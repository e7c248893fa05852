"""Compare two run records written by ``run.py``.

    python3 perfbench/compare.py .perfbench/results/A.json .perfbench/results/B.json

Prints each metric of both runs and their ratio.  Refuses, with exit
code 2, to compare runs of different workloads or trace modes, or runs
whose environments differ (numba, Python, numpy, scipy, nproc, thread
pinning); the seeds may differ.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(open(path).read()) for path in argv)
    for key in ("workload", "trace"):
        if a[key] != b[key]:
            print(f"refusing to compare: {key} {a[key]!r} != {b[key]!r}", file=sys.stderr)
            return 2
    env_a = {k: v for k, v in a["env"].items() if k != "seed"}
    env_b = {k: v for k, v in b["env"].items() if k != "seed"}
    if env_a != env_b:
        for key in sorted(set(env_a) | set(env_b)):
            if env_a.get(key) != env_b.get(key):
                print(f"refusing to compare: env {key} {env_a.get(key)!r} != {env_b.get(key)!r}",
                      file=sys.stderr)
        return 2
    print(f"{a['workload']}: seed {a['env']['seed']} vs seed {b['env']['seed']}")
    for name, ma in a["metrics"].items():
        va, vb = ma["value"], b["metrics"][name]["value"]
        ratio = f"{vb / va:.3f}" if va else "-"
        print(f"  {name:32s} {va:>14.6g} {vb:>14.6g} {ratio:>7s} {ma['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
