"""One benchmark process: set up a workload, then run one repetition or probe.

run.py starts this script once per sample, in the workload's work directory,
so that every repetition has a fresh interpreter and its own peak RSS.  The
result goes to the JSON file named by ``--result``; a worker that raises
exits nonzero without writing it, and run.py counts that as a failed check.

Modes: ``setup`` stops once inputs are ready, ``rep`` runs one untraced
repetition, ``traced`` runs one repetition with spans, ``threads`` runs the
simulate_paths threads=1 / threads=2 baseline.

Every worker also times a fixed pure-Python kernel after set-up (and again
after a repetition), so that run.py can scale times to a reference host
speed: on a shared virtual machine the host's speed drifts by tens of
percent over minutes, and that drift is not the program's.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
from pathlib import Path

import levyint
import numpy
import workloads
from spans import Tracer, traced_wall


def calibration_samples() -> list[float]:
    """Seconds per run of a fixed pure-Python loop: the host's current speed."""
    out = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(400_000):
            total += i * i
        out.append(time.perf_counter() - start)
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--mode", required=True, choices=("setup", "rep", "traced", "threads"))
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, Path.cwd())
    # CLOCK_MONOTONIC is system-wide, so run.py can subtract its spawn time
    result: dict = {"ready": time.monotonic(), "levyint": levyint.__file__, "numpy": numpy.__version__}
    calibration = calibration_samples()

    if args.mode in ("rep", "traced"):
        tr = Tracer(args.rep, enabled=args.mode == "traced")
        start = time.perf_counter()
        with tr.span("bench.repetition"):
            outcome = workload.repetition(tr)
        wall = time.perf_counter() - start
        calibration += calibration_samples()
        result.update(
            wall_s=traced_wall(tr.spans) if tr.enabled else wall,
            checks=outcome.checks,
            digest=outcome.digest,
            path_steps=outcome.path_steps,
            layer_metrics=workload.layer_metrics(tr.spans) if tr.enabled else {},
            spans=tr.spans,
        )
    elif args.mode == "threads":
        metrics, checks = workload.threads_baseline()
        result.update(layer_metrics=metrics, checks=checks)

    result["calibration_s"] = statistics.median(calibration)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
