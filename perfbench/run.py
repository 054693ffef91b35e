"""levyint benchmark: time to verdict and peak RSS on verification workloads.

    python3 perfbench/run.py --workload isometry_matrix --seed 1 --seconds 50 --trace 0

Run it from anywhere inside a levyint source checkout; it imports levyint from
the checkout's ``src/`` and needs no build.  Every repetition and every
set-up sample runs in a fresh worker process (``worker.py``) with
``threads=1`` (the library default), so peak RSS is the workload's own.
Repetitions are started until the next one would end after ``--seconds``
(at least two, so that digests can be compared).

``--trace 0`` prints the end-to-end metrics.  Their times are scaled to a
reference host speed: each is multiplied by REFERENCE_CALIBRATION_S over the
median time of a fixed pure-Python kernel that the same worker ran next to
it (see worker.py); the raw times are printed and kept in the report.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics (raw times), including the tracing overhead (traced minus
untraced wall time).  Both print one line per metric, the checks, the digest
of the verdict-bearing outputs and the provenance, write everything (spans
too) to ``.perfbench_work/`` and end with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  A failed check is
counted there and never aborts the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("isometry_matrix", "cli_artifacts")

END_TO_END = {
    "wall_s": "s",
    "path_steps_per_s": "path-steps/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

CLI_KINDS = ("simulate", "integrate", "isometry", "poisson-identity", "converge", "spde", "diagnostics")
LAYERS = ("bench", "drivers", "ensembles", "riemann", "predictability", "identities", "spde", "cli")

# A layer metric a workload does not report is 0: that workload makes no
# such call (for example, isometry_matrix never enters cli or spde).
PER_LAYER = {
    "drivers.simulate_paths.s": "s",
    "drivers.simulate_paths.brownian.us_per_path": "us",
    "drivers.simulate_paths.compensated_poisson.us_per_path": "us",
    "drivers.simulate_paths.compound_poisson.us_per_path": "us",
    "drivers.simulate_paths.threads2_speedup": "ratio",
    "drivers.jumps_sampled": "count",
    "drivers.ensemble_mb": "MiB",
    "ensembles.left_limit.s": "s",
    "ensembles.left_limit.copy_mb": "MiB",
    "ensembles.ms_continuity_modulus.s": "s",
    "riemann.riemann_sum.s": "s",
    "predictability.ito_isometry_check.s": "s",
    "predictability.ito_isometry_check.self_s": "s",
    "predictability.ito_isometry_check.peak_alloc_mb": "MiB",
    "identities.poisson_identity_check.us_per_path": "us",
    "spde.mild_solution_picard.s": "s",
    "spde.picard_sweep.us_per_step": "us",
    "spde.picard_iterations": "count",
    "spde.mild_solution_picard.peak_alloc_mb": "MiB",
    "spde.stochastic_convolution.s": "s",
    **{f"cli.main.{kind}.s": "s" for kind in CLI_KINDS},
    "cli.emit_report.s": "s",
    "cli.emit_report.us_per_row": "us",
    "cli.rows_emitted": "count",
    "cli.artifact_mb": "MiB",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# median of worker.calibration_samples on the host the benchmark was
# defined on (Intel Xeon, 2 vCPUs under KVM)
REFERENCE_CALIBRATION_S = 0.035
MIN_REPS = 2
EXTRA_SETUPS = 15
HARD_CAP_S = 170.0


class Runner:
    """Starts worker processes for one workload and collects their samples."""

    def __init__(self, workload: str, seed: int, size: str) -> None:
        self.workload = workload
        self.seed = seed
        self.size = size
        # one directory per invocation, removed at the end (see main)
        self.workdir = WORK / f"{workload}-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.started = time.monotonic()
        self.samples: list[dict] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        # keep any BLAS pool single-threaded, like the library's threads=1
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, mode: str) -> dict:
        """Run one worker to completion; return its sample (result None if it failed)."""
        index = len(self.samples)
        result_path = self.workdir / f"result-{index}.json"
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--size", self.size, "--mode", mode,
               "--rep", str(index), "--result", str(result_path)]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                                  text=True, timeout=max(1.0, HARD_CAP_S - self.elapsed()))
            status, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired as exc:
            status, stderr = "timeout", str(exc.stderr or "")
        sample = {"mode": mode, "index": index, "status": status,
                  "seconds": time.monotonic() - spawned, "result": None}
        if status == 0 and result_path.exists():
            result = json.loads(result_path.read_text())
            result_path.unlink()
            if not Path(result["levyint"]).resolve().is_relative_to(ROOT / "src"):
                sys.exit(f"worker imported levyint from {result['levyint']}, not from {ROOT / 'src'}")
            result["setup_s"] = result["ready"] - spawned
            sample["result"] = result
        else:
            print(f"worker {mode} #{index} failed with status {status}:\n{stderr[-3000:]}",
                  file=sys.stderr)
        self.samples.append(sample)
        return sample

    def repeat(self, modes: tuple[str, ...], seconds: int) -> None:
        """Run the modes in turn until the next round would pass the deadline."""
        rounds = 0
        while True:
            begun = self.elapsed()
            for mode in modes:
                self.spawn(mode)
            rounds += 1
            cost = self.elapsed() - begun
            if rounds * len(modes) >= MIN_REPS and self.elapsed() + cost > seconds:
                return
            if self.elapsed() + cost > HARD_CAP_S - 30:
                return

    def results(self, *modes: str) -> list[dict]:
        return [s["result"] for s in self.samples if s["mode"] in modes and s["result"] is not None]


def collect_checks(samples: list[dict]) -> list[tuple[str, bool]]:
    """Every verdict of every sample, plus worker failures and digest agreement."""
    out = []
    for s in samples:
        if s["result"] is None:
            out.append((f"worker.{s['mode']}.{s['index']}.exit_{s['status']}", False))
        else:
            out += [tuple(c) for c in s["result"].get("checks", [])]
    digests = [s["result"]["digest"] for s in samples
               if s["mode"] in ("rep", "traced") and s["result"] is not None]
    out += [("digest_matches_first_repetition", d == digests[0]) for d in digests[1:]]
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def provenance(numpy_version: str) -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    caches = {}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True).stdout
    except OSError:
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip()] = value.strip()
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_cache": caches.get("L2 cache", "unknown"),
        "l3_cache": caches.get("L3 cache", "unknown"),
    }


def at_reference_speed(seconds: float, result: dict) -> float:
    return seconds * REFERENCE_CALIBRATION_S / result["calibration_s"]


def end_to_end(runner: Runner) -> dict[str, list[float]]:
    reps = runner.results("rep")
    walls = [at_reference_speed(r["wall_s"], r) for r in reps]
    return {
        "wall_s": walls,
        "path_steps_per_s": [r["path_steps"] / w for r, w in zip(reps, walls)],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "setup_s": [at_reference_speed(r["setup_s"], r) for r in runner.results("rep", "setup")],
    }


def per_layer(runner: Runner) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    for r in runner.results("traced", "threads"):
        for name, value in r["layer_metrics"].items():
            if name not in PER_LAYER:
                raise KeyError(f"worker reported unknown layer metric {name!r}")
            samples[name].append(value)
    traced = [r["wall_s"] for r in runner.results("traced")]
    untraced = [r["wall_s"] for r in runner.results("rep")]
    samples["trace.wall_s"] = traced
    if traced and untraced:
        samples["trace.overhead_s"] = [statistics.median(traced) - statistics.median(untraced)]
    return {name: values or [0.0] for name, values in samples.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke test's input sizes")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "levyint" / "__init__.py").is_file():
        print(f"no levyint sources at {ROOT / 'src'}; run from a levyint checkout", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.size)
    try:
        runner.spawn("setup")  # warm-up: compiles bytecode and fills the file cache
        runner.samples.clear()
        if args.trace:
            if args.workload == "isometry_matrix":
                runner.spawn("threads")
            runner.repeat(("rep", "traced"), args.seconds)
            series, units = per_layer(runner), PER_LAYER
        else:
            runner.repeat(("rep",), args.seconds)
            for _ in range(EXTRA_SETUPS):
                runner.spawn("setup")
            series, units = end_to_end(runner), END_TO_END
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)

    checks = collect_checks(runner.samples)
    if not runner.results("rep") or (args.trace and not runner.results("traced")):
        print("no repetition completed; nothing to report", file=sys.stderr)
        return 1
    failed = sum(1 for _, ok in checks if not ok)
    reps = runner.results("rep", "traced")
    prov = provenance(reps[0]["numpy"])
    metrics = {}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  size {args.size}  "
          f"{len(runner.results('rep'))} untraced / {len(runner.results('traced'))} traced repetitions  "
          f"{runner.elapsed():.1f} s")
    for name, values in series.items():
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": units[name]}
        print(f"  {name:<56} {med:14.6g} {units[name]:<12} "
              f"(median of {len(values)}; q1 {q1:.6g}, q3 {q3:.6g})")
    if not args.trace:
        raw = {name: statistics.median(r[name] for r in runner.results(*modes))
               for name, modes in (("wall_s", ("rep",)), ("setup_s", ("rep", "setup")),
                                   ("calibration_s", ("rep", "setup")))}
        print(f"  host speed: calibration median {raw['calibration_s']:.6g} s "
              f"(reference {REFERENCE_CALIBRATION_S} s); raw medians wall_s {raw['wall_s']:.6g} s, "
              f"setup_s {raw['setup_s']:.6g} s")
    print(f"  failed_ratio {failed}/{len(checks)} = {failed / max(len(checks), 1):.4g}")
    for name, ok in checks:
        if not ok:
            print(f"  FAILED {name}")
    digests = sorted({r["digest"] for r in reps})
    print(f"  digest sha256 {' '.join(digests)}")
    print("  provenance " + "  ".join(f"{k}={v}" for k, v in prov.items()))
    if args.trace and args.workload == "isometry_matrix":
        print(f"  computed bytes (from array sizes, not measured traffic): "
              f"drivers.ensemble_mb={metrics['drivers.ensemble_mb']['value']:.1f} MiB  "
              f"ensembles.left_limit.copy_mb={metrics['ensembles.left_limit.copy_mb']['value']:.1f} MiB  "
              f"against L2 {prov['l2_cache']}, L3 {prov['l3_cache']}")

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "size": args.size, "provenance": prov, "metrics": metrics,
              "checks": checks, "samples": runner.samples}
    report_path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report))
    print(f"  report {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
