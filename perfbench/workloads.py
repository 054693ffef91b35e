"""The benchmark's workloads: inputs made from a seed, one repetition, traced extras.

Each workload builds its inputs from the benchmark seed (input construction
is part of set-up), and one repetition runs from inputs ready to verdict.
With tracing on, the repetition records a span around every call it makes
into levyint, and times separately the inner calls it cannot see from
outside (see ``spans``).  Verdicts are the acceptance suite's: isometry
|z| < z_max, CLI exit status 0, and byte-identical artifacts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import levyint as li
from levyint import cli
from levyint.tolerances import DEFAULTS

from spans import Tracer, self_times, total

MIB = 2.0**20

LAYERS = ("drivers", "ensembles", "riemann", "predictability", "identities", "spde", "cli")


@dataclass
class Outcome:
    """What one repetition hands back: verdicts, digest and work done."""

    checks: list[tuple[str, bool]]
    digest: str
    path_steps: int


def _seeds(seed: int, stream: int, n: int) -> list[int]:
    """Library seeds for one workload, derived from the benchmark seed."""
    return [int(s) for s in np.random.SeedSequence([seed, stream]).generate_state(n)]


def _peak_alloc_mb(fn, *args, **kwargs) -> float:
    """Peak bytes allocated (Python and numpy) during one call, in MiB."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def _layer_self_times(spans: list[dict]) -> dict[str, float]:
    own = self_times(spans)
    return {f"{layer}.self_s": own.get(layer, 0.0) for layer in ("bench",) + LAYERS}


class IsometryMatrix:
    """Criterion 02 at a reduced path count: 3 drivers x 3 integrands, |z| < z_max.

    Almost all time goes to drivers, ensembles.left_limit, riemann and
    predictability; none goes to spde or cli.
    """

    SIZES = {"full": {"paths": 20_000, "steps": 1000}, "tiny": {"paths": 2000, "steps": 50}}
    KINDS = ("brownian", "compensated_poisson", "compound_poisson")

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        dims = self.SIZES[size]
        self.paths = dims["paths"]
        self.grid = li.TimeGrid.uniform(1.0, dims["steps"])
        specs = (
            li.Brownian(volatility=1.0),
            li.CompensatedPoisson(rate=2.0),
            li.CompoundPoisson(rate=3.0, jump_law=li.TwoPointJumps()),
        )
        self.drivers = list(zip(self.KINDS, specs, _seeds(seed, 0, len(specs))))
        self.ones = li.PathEnsemble.deterministic(self.grid, 1.0)
        self.time = li.PathEnsemble.deterministic(self.grid, lambda t: t)
        self.z_max = DEFAULTS["z_max"]

    def repetition(self, tr: Tracer) -> Outcome:
        checks, z_record = [], []
        jumps = ensemble_bytes = copy_bytes = 0
        peak_alloc = 0.0
        for kind, spec, seed in self.drivers:
            with tr.span(f"drivers.simulate_paths.{kind}"):
                x = li.simulate_paths(spec, self.grid, self.paths, seed)
            with tr.span("ensembles.left_limit"):
                ll = li.left_limit(x)
            for name, phi in (("ones", self.ones), ("time", self.time), ("driver_left_limit", ll)):
                with tr.span("predictability.ito_isometry_check") as sid:
                    rep = li.ito_isometry_check(phi, spec, x)
                checks.append((f"isometry.{kind}.{name}.abs_z_below_{self.z_max:g}",
                               abs(rep.z_score) < self.z_max))
                z_record += [rep.lhs, rep.rhs, rep.se_lhs, rep.se_rhs, rep.z_score]
                if tr.enabled:
                    # phi is already predictable, so the check's only hidden
                    # inner call is this Riemann sum on the same inputs
                    with tr.span("riemann.riemann_sum", parent=sid, separate=True):
                        li.riemann_sum(phi, x, x.grid)
                    with tr.span("probe.peak_alloc", separate=True):
                        peak_alloc = max(peak_alloc, _peak_alloc_mb(li.ito_isometry_check, phi, spec, x))
            if tr.enabled:
                with tr.span("probe.count", separate=True):
                    records = x.jumps or ()
                    jumps += sum(r.count for r in records)
                    ensemble_bytes += x.values.nbytes + sum(r.times.nbytes + r.sizes.nbytes for r in records)
                    copy_bytes += 0 if np.shares_memory(ll.values, x.values) else ll.values.nbytes
            del x, ll
        self.counts = (jumps, ensemble_bytes, copy_bytes, peak_alloc)
        digest = hashlib.sha256(np.asarray(z_record, dtype=np.float64).tobytes()).hexdigest()
        path_steps = len(self.drivers) * self.paths * self.grid.n_intervals
        return Outcome(checks, digest, path_steps)

    def layer_metrics(self, spans: list[dict]) -> dict[str, float]:
        """Per-layer metrics of the last traced repetition, from its closed spans."""
        jumps, ensemble_bytes, copy_bytes, peak_alloc = self.counts
        ito = total(spans, "predictability.ito_isometry_check")
        riemann = total(spans, "riemann.riemann_sum")
        out = {
            "drivers.simulate_paths.s": total(spans, "drivers.simulate_paths"),
            "drivers.jumps_sampled": float(jumps),
            "drivers.ensemble_mb": ensemble_bytes / MIB,
            "ensembles.left_limit.s": total(spans, "ensembles.left_limit"),
            "ensembles.left_limit.copy_mb": copy_bytes / MIB,
            "riemann.riemann_sum.s": riemann,
            "predictability.ito_isometry_check.s": ito,
            "predictability.ito_isometry_check.self_s": ito - riemann,
            "predictability.ito_isometry_check.peak_alloc_mb": peak_alloc,
        }
        for kind in self.KINDS:
            out[f"drivers.simulate_paths.{kind}.us_per_path"] = (
                total(spans, f"drivers.simulate_paths.{kind}") / self.paths * 1e6
            )
        out.update(_layer_self_times(spans))
        return out

    def threads_baseline(self) -> tuple[dict[str, float], list[tuple[str, bool]]]:
        """simulate_paths at threads=1 and threads=2 on the same inputs.

        The values and jump records must be bit-identical; the speed-up is
        the summed threads=1 time over the summed threads=2 time.
        """
        times = {1: 0.0, 2: 0.0}
        checks = []
        for kind, spec, seed in self.drivers:
            out = {}
            for threads in (1, 2):
                start = time.perf_counter()
                out[threads] = li.simulate_paths(spec, self.grid, self.paths, seed, threads=threads)
                times[threads] += time.perf_counter() - start
            a, b = out[1], out[2]
            same = np.array_equal(a.values, b.values) and (a.jumps is None) == (b.jumps is None)
            if same and a.jumps is not None:
                same = all(
                    np.array_equal(ra.times, rb.times) and np.array_equal(ra.sizes, rb.sizes)
                    for ra, rb in zip(a.jumps, b.jumps)
                )
            checks.append((f"threads.{kind}.bit_identical", bool(same)))
            del out, a, b
        return {"drivers.simulate_paths.threads2_speedup": times[1] / times[2]}, checks


def _readme_spde_section() -> dict:
    return {
        "heat_dim": 10,
        "h0": [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        "alpha": {"kind": "linear", "coefficient": 0.25},
        "sigmas": [{"kind": "linear", "coefficient": 0.25, "driver": {"kind": "brownian"}}],
        "tol": 1e-4,
        "max_iter": 15,
    }


def _readme_spde_problem() -> li.SpdeProblem:
    """The problem that ``_readme_spde_section`` describes, built from public constructors."""
    return li.SpdeProblem(
        operator=li.heat_operator(10),
        h0=np.eye(10)[0],
        alpha=li.scaled_identity(0.25),
        alpha_lipschitz=0.25,
        sigmas=(li.scaled_identity(0.25),),
        sigma_lipschitz=(0.25,),
        drivers=(li.Brownian(),),
    )


# (paths, steps) per subcommand; converge's default meshes run from 2^-4 to
# 2^-7, so its grid has 128 steps
_CLI_DIMS = {
    "full": {
        "simulate": (1000, 100),
        "integrate": (2000, 200),
        "isometry": (20_000, 1000),
        "poisson-identity": (20_000, 16),
        "converge": (2000, 128),
        "spde": (10_000, 64),
        "diagnostics": (4000, 32),
    },
    "tiny": {
        "simulate": (50, 20),
        "integrate": (100, 50),
        "isometry": (500, 100),
        "poisson-identity": (500, 16),
        "converge": (300, 128),
        "spde": (200, 16),
        "diagnostics": (1000, 16),
    },
}


def cli_configs(size: str) -> dict[str, dict]:
    """JSON configs for all seven subcommands, without seed and output directory."""
    d = _CLI_DIMS[size]

    def grid(kind):
        return {"horizon": 1.0, "steps": d[kind][1]}

    return {
        # the terminal-variance check is a 3*SE check that misses on about
        # one seed in a hundred with correct code (5 of 400 at 500 paths);
        # the benchmark runs it at the acceptance bound z_max = 4 instead
        "simulate": {
            "driver": {"kind": "compound_poisson", "rate": 3.0,
                       "jump_law": {"kind": "normal", "loc": 0.3, "scale": 0.5}},
            "grid": grid("simulate"), "paths": d["simulate"][0],
            "tolerances": {"se_multiplier": DEFAULTS["z_max"]},
        },
        # a drifted driver, so integrate checks the exact telescoping identity
        "integrate": {"driver": {"kind": "standard_poisson", "rate": 2.0},
                      "grid": grid("integrate"), "integrand": "ones",
                      "paths": d["integrate"][0]},
        "isometry": {"driver": {"kind": "compensated_poisson", "rate": 2.0},
                     "grid": grid("isometry"), "integrand": "driver_left_limit",
                     "paths": d["isometry"][0]},
        "poisson-identity": {"rate": 1.0, "grid": grid("poisson-identity"),
                             "paths": d["poisson-identity"][0]},
        "converge": {"driver": {"kind": "brownian"}, "grid": grid("converge"),
                     "integrand": "driver", "paths": d["converge"][0]},
        "spde": {"grid": grid("spde"), "paths": d["spde"][0], "spde": _readme_spde_section()},
        "diagnostics": {"grid": grid("diagnostics"), "paths": d["diagnostics"][0],
                        "spde": {"heat_dim": 3,
                                 "sigmas": [{"kind": "constant", "value": 1.0,
                                             "driver": {"kind": "brownian"}}],
                                 "tol": 1e-8, "max_iter": 10}},
    }


class CliArtifacts:
    """All seven subcommands through ``levyint.cli.main`` on JSON configs.

    Each run must exit 0 and its artifacts must be byte-identical across
    repetitions.  ``cli.emit_report`` and ``identities`` dominate; ``spde``
    runs on a short grid with many iterations and state-dependent
    coefficients.
    """

    OUT = "artifacts"
    PROBE_OUT = "probe-artifacts"

    def __init__(self, seed: int, size: str, workdir: Path, configs: dict[str, dict] | None = None) -> None:
        self.workdir = workdir
        configs = configs if configs is not None else cli_configs(size)
        seeds = _seeds(seed, 1, len(configs))
        self.configs: dict[str, dict] = {}
        self.paths: dict[str, Path] = {}
        cfg_dir = workdir / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        self.path_steps = 0
        for (name, cfg), s in zip(configs.items(), seeds):
            kind = cfg.get("experiment", name)
            raw = {**cfg, "experiment": kind, "seed": s, "out": self.OUT}
            self.configs[name] = raw
            self.paths[name] = cfg_dir / f"{name}.json"
            self.paths[name].write_text(json.dumps(raw, sort_keys=True))
            self.path_steps += self._path_steps(kind, raw)

    @staticmethod
    def _path_steps(kind: str, raw: dict) -> int:
        """Driver paths times the grid steps each is simulated on."""
        steps = raw["grid"]["steps"]
        if kind == "diagnostics":
            steps *= 3  # the grid plus the grid at half its spacing
        drivers = len(raw["spde"]["sigmas"]) if "spde" in raw else 1
        return raw["paths"] * steps * drivers

    def repetition(self, tr: Tracer) -> Outcome:
        out_dir = self.workdir / self.OUT
        shutil.rmtree(out_dir, ignore_errors=True)
        checks = []
        self.probe = probe = _CliProbe(self) if tr.enabled else None
        for name, raw in self.configs.items():
            kind = raw["experiment"]
            with tr.span(f"cli.main.{kind}") as sid:
                status = self._main(kind, self.paths[name])
            checks.append((f"cli.{name}.exit_0", status == 0))
            if probe is not None:
                probe.after(raw, sid, tr)
        digest = hashlib.sha256()
        for path in sorted(out_dir.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        if probe is not None:
            checks += probe.checks
        return Outcome(checks, digest.hexdigest(), self.path_steps)

    def layer_metrics(self, spans: list[dict]) -> dict[str, float]:
        """Per-layer metrics of the last traced repetition, from its closed spans."""
        return self.probe.metrics(spans)

    @staticmethod
    def _main(kind: str, config_path: Path) -> int | None:
        """Exit status of one CLI run; None if it raised (a traceback is exit 1 too)."""
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main([kind, "--config", str(config_path)])
        except Exception:
            traceback.print_exc()
            return None


class _CliProbe:
    """Separately timed calls behind each CLI run, for the per-layer metrics."""

    def __init__(self, workload: CliArtifacts) -> None:
        self.workload = workload
        self.rows = 0
        self.bytes = 0
        self.picard: dict[str, float] = {}
        self.identity_paths = 0
        self.checks: list[tuple[str, bool]] = []

    def after(self, raw: dict, sid: int, tr: Tracer) -> None:
        kind = raw["experiment"]
        config = cli.parse_config({**raw, "out": CliArtifacts.PROBE_OUT}, kind)
        with tr.span("probe.runner", separate=True):
            # the CLI has no public way to get a RunResult without emitting it
            result = cli._RUNNERS[kind](config)
        with tr.span("cli.emit_report", parent=sid, separate=True):
            paths = cli.emit_report(result)
        tables = (result.tables or {}).values()
        self.rows += len(result.rows) + sum(len(rows) for _, rows in tables)
        written = list(paths) + [
            paths[0].with_name(f"{paths[0].stem}.{t}.csv") for t in (result.tables or {})
        ]
        self.bytes += sum(p.stat().st_size for p in written)
        if kind in ("poisson-identity", "spde"):
            # the CLI run's own manifest, to check that the probe measured the same run
            stem = f"{kind}-{cli.parse_config(raw, kind).config_hash}"
            manifest = json.loads(
                (self.workload.workdir / CliArtifacts.OUT / f"{stem}.manifest.json").read_text()
            )
            if kind == "spde":
                self._spde(raw, sid, tr, manifest)
            else:
                self._identities(raw, sid, tr, manifest)

    def _identities(self, raw: dict, sid: int, tr: Tracer, manifest: dict) -> None:
        grid = raw["grid"]
        with tr.span("identities.poisson_identity_check", parent=sid, separate=True):
            rep = li.poisson_identity_check(
                raw["rate"], grid["horizon"], raw["paths"], raw["seed"],
                base_steps=grid["steps"], tolerance=DEFAULTS["exact"],
            )
        self.identity_paths += raw["paths"]
        self.checks.append(("probe.poisson_identity_matches_cli",
                            rep.max_residual == manifest["extra"]["max_residual"]))

    def _spde(self, raw: dict, sid: int, tr: Tracer, manifest: dict) -> None:
        problem = _readme_spde_problem()
        grid = li.TimeGrid.uniform(raw["grid"]["horizon"], raw["grid"]["steps"])
        tol, max_iter = raw["spde"]["tol"], raw["spde"]["max_iter"]
        args = (problem, grid, raw["paths"], raw["seed"])
        with tr.span("spde.mild_solution_picard", parent=sid, separate=True) as pid:
            sol, rep = li.mild_solution_picard(*args, tol=tol, max_iter=max_iter)
        # the driver ensemble Picard simulates internally: same spec, seed, offset
        with tr.span("drivers.simulate_paths.brownian", parent=pid, separate=True):
            x = li.simulate_paths(problem.drivers[0], grid, raw["paths"], li.child_seed(raw["seed"], 0))
        ones = li.PathEnsemble.deterministic(grid, 1.0, dim=problem.dim)
        with tr.span("spde.stochastic_convolution", separate=True):
            li.stochastic_convolution(problem.operator, ones, problem.drivers[0], x)
        with tr.span("ensembles.ms_continuity_modulus", separate=True):
            li.ms_continuity_modulus(sol)
        del sol, x
        with tr.span("probe.peak_alloc", separate=True):
            peak = _peak_alloc_mb(li.mild_solution_picard, *args, tol=tol, max_iter=max_iter)
        self.picard = {
            "iterations": rep.iterations,
            "steps": grid.n_intervals,
            "peak_alloc_mb": peak,
            "paths": raw["paths"],
        }
        self.checks.append(("probe.picard_matches_cli",
                            list(rep.distances) == manifest["extra"]["picard"]["distances"]))

    def metrics(self, spans: list[dict]) -> dict[str, float]:
        emit = total(spans, "cli.emit_report")
        picard = total(spans, "spde.mild_solution_picard")
        simulate = total(spans, "drivers.simulate_paths")
        out = {
            "cli.emit_report.s": emit,
            "cli.emit_report.us_per_row": emit / self.rows * 1e6,
            "cli.rows_emitted": float(self.rows),
            "cli.artifact_mb": self.bytes / MIB,
            "drivers.simulate_paths.s": simulate,
            "drivers.simulate_paths.brownian.us_per_path": simulate / self.picard["paths"] * 1e6,
            "identities.poisson_identity_check.us_per_path":
                total(spans, "identities.poisson_identity_check") / self.identity_paths * 1e6,
            "spde.mild_solution_picard.s": picard,
            "spde.picard_sweep.us_per_step":
                (picard - simulate) / (self.picard["steps"] * self.picard["iterations"]) * 1e6,
            "spde.picard_iterations": float(self.picard["iterations"]),
            "spde.mild_solution_picard.peak_alloc_mb": self.picard["peak_alloc_mb"],
            "spde.stochastic_convolution.s": total(spans, "spde.stochastic_convolution"),
            "ensembles.ms_continuity_modulus.s": total(spans, "ensembles.ms_continuity_modulus"),
        }
        for raw in self.workload.configs.values():
            kind = raw["experiment"]
            out[f"cli.main.{kind}.s"] = total(spans, f"cli.main.{kind}")
        out.update(_layer_self_times(spans))
        return out


WORKLOADS = {"isometry_matrix": IsometryMatrix, "cli_artifacts": CliArtifacts}
