"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is printed with its unit,
that digests agree between runs, that a failing CLI check is counted and
does not abort the benchmark, and that the benchmark refuses to run without
the levyint sources.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]


@functools.lru_cache(maxsize=None)
def _run(workload: str, trace: int, seed: int = 1) -> tuple[dict, tuple[str, ...]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = tuple(proc.stdout.strip().splitlines())
    return json.loads(lines[-1]), lines


def _digest(lines: tuple[str, ...]) -> str:
    (line,) = [line for line in lines if line.strip().startswith("digest sha256")]
    return line.split()[-1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    result, lines = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    human = {line.split()[0]: line.split() for line in lines[:-1] if line.strip()}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert m["unit"] in human[m["name"]]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_digest_is_the_same_in_two_runs(workload):
    # one untraced and one traced run: tracing must not change any output
    first, second = _run(workload, 0)[1], _run(workload, 1)[1]
    assert len(_digest(first)) == 64
    assert _digest(first) == _digest(second)


def test_workload_layer_metrics_are_known_and_measured():
    for workload in WORKLOAD_NAMES:
        result, _ = _run(workload, 1)
        assert result["metrics"]["trace.wall_s"]["value"] > 0
        assert result["metrics"]["drivers.simulate_paths.s"]["value"] > 0
    iso = _run("isometry_matrix", 1)[0]["metrics"]
    assert iso["riemann.riemann_sum.s"]["value"] > 0
    assert iso["drivers.simulate_paths.threads2_speedup"]["value"] > 0
    cli_metrics = _run("cli_artifacts", 1)[0]["metrics"]
    assert cli_metrics["cli.emit_report.s"]["value"] > 0
    assert cli_metrics["spde.picard_iterations"]["value"] >= 1


def test_failing_cli_check_is_counted_and_does_not_abort(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # CLI configs write to a relative output directory
    configs = workloads.cli_configs("tiny")
    # a per-run tolerance override no z-score can meet: the run exits 1
    configs["isometry-forced-fail"] = {
        **configs["isometry"], "experiment": "isometry", "tolerances": {"z_max": 1e-12},
    }
    wl = workloads.CliArtifacts(1, "tiny", tmp_path, configs=configs)
    outcome = wl.repetition(Tracer(0, enabled=False))
    assert len(outcome.checks) == len(configs)
    assert [name for name, ok in outcome.checks if not ok] == ["cli.isometry-forced-fail.exit_0"]

    sample = {"checks": outcome.checks, "digest": outcome.digest}
    checks = run.collect_checks(
        [{"mode": "rep", "index": i, "status": 0, "result": sample} for i in range(2)]
    )
    failed = sum(1 for _, ok in checks if not ok)
    assert (failed, len(checks)) == (2, 2 * len(configs) + 1)


def test_refuses_to_run_without_levyint_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        BENCH["command"] + ["--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1",
                            "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
