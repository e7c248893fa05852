"""Runs one workload in its own process and writes the raw results.

``run.py`` starts this script with a hermetic environment.  It imports
the package (timed), sets the workload up several times (each timed),
then runs whole passes of the workload's operations, one at a time, for
about ``--seconds``: another pass starts only if the last one would
still fit.  With ``--trace 1`` the passes run under the tracer.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import time

_T0 = time.perf_counter()
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import reduced_measures  # noqa: E402
import workloads  # noqa: E402  (imports the package modules it calls)

IMPORT_S = time.perf_counter() - _T0

from tracing import Tracer, layer_metrics, op_counts  # noqa: E402

# Set-ups timed per run; setup_s reports their median.
SETUPS = 5


def environment(seed: int) -> dict:
    return {
        "using_numba": bool(reduced_measures.USING_NUMBA),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("_THREADS")},
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    build = workloads.WORKLOADS[args.workload]
    setup_times: list[float] = []

    def set_up():
        t = time.perf_counter()
        ops = build(args.seed, args.workdir)
        setup_times.append(time.perf_counter() - t)
        return ops

    pending = [set_up() for _ in range(SETUPS)]

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    records: list[dict] = []
    pass_times: list[float] = []
    start = time.perf_counter()
    while True:
        ops = pending.pop() if pending else set_up()
        busy = 0.0
        for op in ops:
            if tracer is not None:
                tracer.op = f"p{len(pass_times)}/{op.name}"
            error = outputs = None
            t = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t
            busy += seconds
            if tracer is not None:
                tracer.op = None
            if error is None:
                try:
                    outputs = op.summarize(result)
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
            records.append({"pass": len(pass_times), "name": op.name, "kind": op.kind,
                            "seconds": seconds, "outputs": outputs, "error": error,
                            "oracle": op.oracle})
        pass_times.append(busy)
        if time.perf_counter() - start + pass_times[-1] > args.seconds:
            break

    raw = {
        "workload": args.workload,
        "env": environment(args.seed),
        "package": os.path.dirname(reduced_measures.__file__),
        "import_s": IMPORT_S,
        "setup_s": IMPORT_S + statistics.median(setup_times),
        "setup_times": setup_times,
        "pass_times": pass_times,
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        raw["layers"] = layer_metrics(tracer.spans, tracer.own_s, len(pass_times))
        raw["op_counts"] = op_counts(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.out, "w") as fh:
        json.dump(raw, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
