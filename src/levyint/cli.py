"""Batch experiment runner: config parsing, seeded execution, result emission.

One experiment per process invocation.  A declarative JSON config names the
experiment kind and its inputs; the runner re-validates preconditions at
parse time, executes with fixed seeds, writes a columnar numeric file plus a
manifest (config hash, tolerances actually applied, versions, check
verdicts), and exits 0 on pass, 1 on check failure, 2 on config errors, and
3 on numeric failure.  Identical configs produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .drivers import (
    Brownian,
    CompensatedPoisson,
    CompoundPoisson,
    ExponentialJumps,
    JumpLaw,
    LevySpec,
    NormalJumps,
    TwoPointJumps,
    martingale_part,
    simulate_paths,
    standard_poisson,
)
from .ensembles import PathEnsemble, TimeGrid, ensemble_rows, second_moments, sup_l2_norm
from .errors import ConfigError, NumericError, ToolkitError
from .identities import poisson_identity_check
from .predictability import ito_isometry_check, predictable_version
from .riemann import levy_integral, mesh_convergence_study
from .spde import (
    SpdeProblem,
    SpectralOperator,
    constant_map,
    heat_operator,
    linear_variance_oracle,
    mild_solution_picard,
    scaled_identity,
    solution_diagnostics,
)
from .tolerances import resolve

EXPERIMENTS = (
    "simulate",
    "integrate",
    "isometry",
    "poisson-identity",
    "converge",
    "spde",
    "diagnostics",
)

_INTEGRANDS = ("ones", "time", "driver", "driver_left_limit")


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} section must be a mapping")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def driver_from_config(cfg: dict) -> LevySpec:
    """Build a driver spec from its config-file form."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("driver section needs a 'kind'")
    kind = cfg["kind"]
    try:
        if kind == "brownian":
            _require_keys(cfg, {"kind", "volatility", "drift"}, "driver")
            return Brownian(volatility=float(cfg.get("volatility", 1.0)),
                            drift=float(cfg.get("drift", 0.0)))
        if kind == "compensated_poisson":
            _require_keys(cfg, {"kind", "rate", "drift"}, "driver")
            return CompensatedPoisson(rate=float(cfg.get("rate", 1.0)),
                                      drift=float(cfg.get("drift", 0.0)))
        if kind == "standard_poisson":
            _require_keys(cfg, {"kind", "rate"}, "driver")
            return standard_poisson(rate=float(cfg.get("rate", 1.0)))
        if kind == "compound_poisson":
            _require_keys(cfg, {"kind", "rate", "jump_law", "compensated", "drift"}, "driver")
            return CompoundPoisson(
                rate=float(cfg.get("rate", 1.0)),
                jump_law=_jump_law_from_config(cfg.get("jump_law", {"kind": "two_point"})),
                compensated=bool(cfg.get("compensated", True)),
                drift=float(cfg.get("drift", 0.0)),
            )
    except ToolkitError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad driver parameters: {exc}") from exc
    raise ConfigError(f"unknown driver kind {kind!r}")


def _jump_law_from_config(cfg: dict) -> JumpLaw:
    kind = cfg.get("kind")
    if kind == "two_point":
        _require_keys(cfg, {"kind"}, "jump_law")
        return TwoPointJumps()
    if kind == "exponential":
        _require_keys(cfg, {"kind", "rate"}, "jump_law")
        return ExponentialJumps(rate=float(cfg["rate"]))
    if kind == "normal":
        _require_keys(cfg, {"kind", "loc", "scale"}, "jump_law")
        return NormalJumps(loc=float(cfg.get("loc", 0.0)), scale=float(cfg["scale"]))
    raise ConfigError(f"unknown jump law {kind!r}")


def driver_to_config(spec: LevySpec) -> dict:
    """Config-file form of a driver spec (inverse of driver_from_config)."""
    if isinstance(spec, Brownian):
        return {"kind": "brownian", "volatility": spec.volatility, "drift": spec.drift}
    if isinstance(spec, CompensatedPoisson):
        return {"kind": "compensated_poisson", "rate": spec.rate, "drift": spec.drift}
    if isinstance(spec, CompoundPoisson):
        law = spec.jump_law
        if isinstance(law, TwoPointJumps):
            law_cfg: dict = {"kind": "two_point"}
        elif isinstance(law, ExponentialJumps):
            law_cfg = {"kind": "exponential", "rate": law.rate}
        elif isinstance(law, NormalJumps):
            law_cfg = {"kind": "normal", "loc": law.loc, "scale": law.scale}
        else:
            raise ConfigError(f"unknown jump law {type(law).__name__}")
        return {
            "kind": "compound_poisson",
            "rate": spec.rate,
            "jump_law": law_cfg,
            "compensated": spec.compensated,
            "drift": spec.drift,
        }
    raise ConfigError(f"unknown driver spec {type(spec).__name__}")


def grid_from_config(cfg: dict) -> TimeGrid:
    if not isinstance(cfg, dict):
        raise ConfigError("grid section must be a mapping")
    _require_keys(cfg, {"horizon", "steps", "points"}, "grid")
    try:
        if "points" in cfg:
            return TimeGrid(np.asarray(cfg["points"], dtype=float))
        return TimeGrid.uniform(float(cfg["horizon"]), int(cfg["steps"]))
    except ToolkitError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description plus the raw dict it came from."""

    experiment: str
    raw: dict
    seed: int
    paths: int
    threads: int
    out_dir: Path
    tolerances: dict

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


_COMMON_KEYS = {"experiment", "seed", "paths", "grid", "out", "tolerances", "threads"}
_EXPERIMENT_KEYS = {
    "simulate": _COMMON_KEYS | {"driver"},
    "integrate": _COMMON_KEYS | {"driver", "integrand"},
    "isometry": _COMMON_KEYS | {"driver", "integrand"},
    "poisson-identity": _COMMON_KEYS | {"rate"},
    "converge": _COMMON_KEYS | {"driver", "integrand", "meshes"},
    "spde": _COMMON_KEYS | {"spde"},
    "diagnostics": _COMMON_KEYS | {"spde"},
}


def _thread_count(value, source: str) -> int:
    """A worker-thread count from the config, ``--threads`` or ``LEVYINT_THREADS``."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = 0
    if n < 1 or (isinstance(value, float) and n != value):
        raise ConfigError(f"{source} must be an integer >= 1, got {value!r}")
    return n


def parse_config(raw: dict, experiment: str | None = None) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    kind = raw.get("experiment", experiment)
    if kind is None:
        raise ConfigError("no experiment kind given")
    if experiment is not None and kind != experiment:
        raise ConfigError(f"config names experiment {kind!r}, command line says {experiment!r}")
    if kind not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {kind!r}")
    _require_keys(raw, _EXPERIMENT_KEYS[kind], "config")
    try:
        seed = int(raw.get("seed", 0))
        paths = int(raw.get("paths", 1000))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad scalar field: {exc}") from exc
    threads = _thread_count(raw.get("threads", 1), "threads")
    if paths < 1:
        raise ConfigError(f"paths must be >= 1, got {paths}")
    tolerances = resolve(raw.get("tolerances"))
    return ExperimentConfig(
        experiment=kind,
        raw={**raw, "experiment": kind},  # canonical form: hash covers the kind
        seed=seed,
        paths=paths,
        threads=threads,
        out_dir=Path(raw.get("out", ".")),
        tolerances=tolerances,
    )


@dataclass
class RunResult:
    config: ExperimentConfig
    checks: list  # (name, passed, value) triples
    columns: tuple[str, ...]
    rows: list
    extra: dict
    # optional named side tables: name -> (columns, rows)
    tables: dict | None = None

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def _integrand_ensemble(name: str, x: PathEnsemble) -> PathEnsemble:
    if name == "ones":
        return PathEnsemble.deterministic(x.grid, 1.0)
    if name == "time":
        return PathEnsemble.deterministic(x.grid, lambda t: t)
    if name == "driver":
        return x
    if name == "driver_left_limit":
        return predictable_version(x)
    raise ConfigError(f"unknown integrand {name!r}; choose from {_INTEGRANDS}")


def _run_simulate(cfg: ExperimentConfig) -> RunResult:
    spec = driver_from_config(cfg.raw.get("driver", {"kind": "brownian"}))
    grid = grid_from_config(cfg.raw.get("grid", {"horizon": 1.0, "steps": 100}))
    ens = simulate_paths(spec, grid, cfg.paths, cfg.seed, threads=cfg.threads)
    c = spec.bracket_rate()
    m = martingale_part(spec, ens)
    mt = m.values[:, -1, 0]
    var = float(np.var(mt, ddof=1)) if cfg.paths > 1 else 0.0
    se = float(np.std((mt - mt.mean()) ** 2, ddof=1) / np.sqrt(cfg.paths)) if cfg.paths > 2 else np.inf
    k = cfg.tolerances["se_multiplier"]
    checks = [
        ("terminal_variance_matches_bracket", abs(var - c * grid.horizon) <= k * se if np.isfinite(se) else True,
         {"variance": var, "expected": c * grid.horizon, "se": se}),
    ]
    cols = ("path", "t") + tuple(f"value_{i}" for i in range(ens.dim))
    return RunResult(cfg, checks, cols, list(ensemble_rows(ens)),
                     {"bracket_rate": c, "sup_l2_norm": sup_l2_norm(ens)})


def _run_integrate(cfg: ExperimentConfig) -> RunResult:
    spec = driver_from_config(cfg.raw.get("driver", {"kind": "brownian"}))
    grid = grid_from_config(cfg.raw.get("grid", {"horizon": 1.0, "steps": 100}))
    x = simulate_paths(spec, grid, cfg.paths, cfg.seed, threads=cfg.threads)
    phi = _integrand_ensemble(cfg.raw.get("integrand", "ones"), x)
    y = levy_integral(phi, spec, x)
    terminal = y.values[:, -1, 0]
    checks = []
    if cfg.raw.get("integrand", "ones") == "ones":
        resid = float(np.max(np.abs(terminal - (x.values[:, -1, 0] - x.values[:, 0, 0]))))
        checks.append(("telescoping", resid < cfg.tolerances["exact"], {"residual": resid}))
    if spec.martingale_drift == 0.0 and cfg.paths > 2:
        se = float(np.std(terminal, ddof=1) / np.sqrt(cfg.paths))
        mean = float(np.mean(terminal))
        k = cfg.tolerances["se_multiplier"]
        checks.append(("martingale_mean_zero", abs(mean) <= k * se or se == 0.0,
                       {"mean": mean, "se": se}))
    rows = [(p, float(terminal[p])) for p in range(cfg.paths)]
    return RunResult(cfg, checks, ("path", "terminal_value"), rows,
                     {"integrand": cfg.raw.get("integrand", "ones")})


def _run_isometry(cfg: ExperimentConfig) -> RunResult:
    spec = driver_from_config(cfg.raw.get("driver", {"kind": "brownian"}))
    grid = grid_from_config(cfg.raw.get("grid", {"horizon": 1.0, "steps": 1000}))
    x = simulate_paths(spec, grid, cfg.paths, cfg.seed, threads=cfg.threads)
    phi = _integrand_ensemble(cfg.raw.get("integrand", "ones"), x)
    report = ito_isometry_check(phi, spec, x)
    z_max = cfg.tolerances["z_max"]
    checks = [("isometry_z", abs(report.z_score) < z_max, report.record())]
    rows = [(report.lhs, report.rhs, report.se_lhs, report.se_rhs, report.z_score)]
    return RunResult(cfg, checks, ("lhs", "rhs", "se_lhs", "se_rhs", "z"), rows,
                     {"integrand": cfg.raw.get("integrand", "ones")})


def _run_poisson_identity(cfg: ExperimentConfig) -> RunResult:
    grid_cfg = cfg.raw.get("grid", {"horizon": 1.0, "steps": 16})
    grid = grid_from_config(grid_cfg)
    rate = float(cfg.raw.get("rate", 1.0))
    if rate <= 0:
        raise ConfigError(f"rate must be positive, got {rate}")
    report = poisson_identity_check(
        rate, grid.horizon, cfg.paths, cfg.seed,
        base_steps=grid.n_intervals, tolerance=cfg.tolerances["exact"],
    )
    checks = [("pathwise_identities", report.passed, {"max_residual": report.max_residual})]
    rows = [
        (
            p,
            float(report.terminal_counts[p]),
            float(report.left_sum_values[p]),
            float(report.stieltjes_values[p]),
            float(report.left_sum_residuals[p]),
            float(report.stieltjes_residuals[p]),
            float(report.difference_residuals[p]),
        )
        for p in range(cfg.paths)
    ]
    cols = ("path", "count", "left_sum", "stieltjes", "res_left", "res_stieltjes", "res_diff")
    return RunResult(cfg, checks, cols, rows, {"max_residual": report.max_residual})


def _run_converge(cfg: ExperimentConfig) -> RunResult:
    spec = driver_from_config(cfg.raw.get("driver", {"kind": "brownian"}))
    meshes = np.asarray(cfg.raw.get("meshes", [2**-4, 2**-5, 2**-6, 2**-7]), dtype=float)
    grid_cfg = cfg.raw.get("grid")
    if grid_cfg is None:
        horizon = 1.0
        grid = TimeGrid.uniform(horizon, int(round(horizon / meshes[-1])))
    else:
        grid = grid_from_config(grid_cfg)
    x = simulate_paths(spec, grid, cfg.paths, cfg.seed, threads=cfg.threads)
    m = martingale_part(spec, x)
    phi = _integrand_ensemble(cfg.raw.get("integrand", "driver"), x)
    study = mesh_convergence_study(phi, m, meshes, grid.horizon)
    decreasing = bool(np.all(np.diff(study.sq_differences) < 0))
    checks = [("differences_decreasing", decreasing,
               {"sq_differences": study.sq_differences.tolist()})]
    rows = study.rows()
    return RunResult(cfg, checks, ("mesh", "sq_diff", "se"), rows,
                     {"rate_exponent": study.rate_exponent,
                      "reference_mesh": study.reference_mesh})


def _spde_problem_from_config(cfg: dict) -> tuple[SpdeProblem, float, int]:
    _require_keys(cfg, {"eigenvalues", "heat_dim", "h0", "alpha", "sigmas",
                        "drivers", "tol", "max_iter"}, "spde")
    try:
        if "heat_dim" in cfg:
            op = heat_operator(int(cfg["heat_dim"]))
        elif "eigenvalues" in cfg:
            op = SpectralOperator(np.asarray(cfg["eigenvalues"], dtype=float))
        else:
            raise ConfigError("spde section needs 'heat_dim' or 'eigenvalues'")
        dim = op.dim
        h0 = np.asarray(cfg.get("h0", np.zeros(dim)), dtype=float)

        alpha_cfg = cfg.get("alpha", {"kind": "none"})
        _require_keys(alpha_cfg, {"kind", "coefficient"}, "spde.alpha")
        if alpha_cfg.get("kind", "none") == "none":
            alpha, alpha_lip = None, 0.0
        elif alpha_cfg["kind"] == "linear":
            a = float(alpha_cfg["coefficient"])
            alpha, alpha_lip = scaled_identity(a), abs(a)
        else:
            raise ConfigError(f"unknown alpha kind {alpha_cfg.get('kind')!r}")

        sigmas, sigma_lips, drivers = [], [], []
        for i, s_cfg in enumerate(cfg.get("sigmas", [])):
            _require_keys(s_cfg, {"kind", "value", "coefficient", "driver"}, f"spde.sigmas[{i}]")
            kind = s_cfg.get("kind")
            if kind == "constant":
                value = np.asarray(s_cfg.get("value", np.ones(dim)), dtype=float)
                if value.ndim == 0:
                    value = np.full(dim, float(value))
                if value.shape != (dim,):
                    raise ConfigError(f"spde.sigmas[{i}].value must have {dim} entries")
                sigmas.append(constant_map(value))
                sigma_lips.append(0.0)
            elif kind == "linear":
                a = float(s_cfg["coefficient"])
                sigmas.append(scaled_identity(a))
                sigma_lips.append(abs(a))
            else:
                raise ConfigError(f"unknown sigma kind {kind!r}")
            drivers.append(driver_from_config(s_cfg.get("driver", {"kind": "brownian"})))
        problem = SpdeProblem(
            operator=op,
            h0=h0,
            alpha=alpha,
            alpha_lipschitz=alpha_lip,
            sigmas=tuple(sigmas),
            sigma_lipschitz=tuple(sigma_lips),
            drivers=tuple(drivers),
        )
        return problem, float(cfg.get("tol", 1e-6)), int(cfg.get("max_iter", 50))
    except ToolkitError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad spde section: {exc!r}") from exc


def _run_spde(cfg: ExperimentConfig) -> RunResult:
    problem, tol, max_iter = _spde_problem_from_config(cfg.raw.get("spde", {}))
    grid = grid_from_config(cfg.raw.get("grid", {"horizon": 1.0, "steps": 64}))
    solution, report = mild_solution_picard(
        problem, grid, cfg.paths, cfg.seed, tol=tol, max_iter=max_iter, threads=cfg.threads
    )
    checks = [("picard_converged", report.converged,
               {"iterations": report.iterations, "residual": report.residual})]
    cols = ("path", "t") + tuple(f"value_{i}" for i in range(solution.dim))
    picard_rows = [(k, float(d)) for k, d in enumerate(report.distances)]
    return RunResult(cfg, checks, cols, list(ensemble_rows(solution)),
                     {"picard": {"distances": list(report.distances),
                                 "iterations": report.iterations,
                                 "converged": report.converged,
                                 "residual": report.residual}},
                     tables={"picard": (("iteration", "distance"), picard_rows)})


def _run_diagnostics(cfg: ExperimentConfig) -> RunResult:
    problem, tol, max_iter = _spde_problem_from_config(cfg.raw.get("spde", {}))
    grid = grid_from_config(cfg.raw.get("grid", {"horizon": 1.0, "steps": 64}))
    fine = TimeGrid.uniform(grid.horizon, 2 * grid.n_intervals)
    sol_c, _ = mild_solution_picard(problem, grid, cfg.paths, cfg.seed,
                                    tol=tol, max_iter=max_iter, threads=cfg.threads)
    sol_f, _ = mild_solution_picard(problem, fine, cfg.paths, cfg.seed,
                                    tol=tol, max_iter=max_iter, threads=cfg.threads)
    diag_c = solution_diagnostics(sol_c)
    diag_f = solution_diagnostics(sol_f)
    k = cfg.tolerances["se_multiplier"]
    slack = k * (diag_c.modulus.max_standard_error + diag_f.modulus.max_standard_error)
    shrinks = diag_f.modulus.max_norm < diag_c.modulus.max_norm - slack
    checks = [
        ("solution_adapted", diag_c.adapted, {}),
        ("modulus_shrinks_under_refinement", shrinks,
         {"coarse": diag_c.modulus.max_norm, "fine": diag_f.modulus.max_norm, "slack": slack}),
    ]
    rows = [("coarse", float(g), float(v)) for g, v in diag_c.modulus.pairs()]
    rows += [("fine", float(g), float(v)) for g, v in diag_f.modulus.pairs()]
    return RunResult(cfg, checks, ("resolution", "gap", "increment_norm"), rows,
                     {"coarse_max": diag_c.modulus.max_norm, "fine_max": diag_f.modulus.max_norm})


_RUNNERS = {
    "simulate": _run_simulate,
    "integrate": _run_integrate,
    "isometry": _run_isometry,
    "poisson-identity": _run_poisson_identity,
    "converge": _run_converge,
    "spde": _run_spde,
    "diagnostics": _run_diagnostics,
}


def _format_cell(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def emit_report(result: RunResult) -> tuple[Path, Path]:
    """Write the columnar data file and the manifest; return both paths."""
    cfg = result.config
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{cfg.experiment}-{cfg.config_hash}"
    data_path = cfg.out_dir / f"{stem}.csv"
    manifest_path = cfg.out_dir / f"{stem}.manifest.json"

    lines = [",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join(_format_cell(x) for x in row))
    data_path.write_text("\n".join(lines) + "\n")

    for name, (cols, rows) in (result.tables or {}).items():
        side = [",".join(cols)]
        side += [",".join(_format_cell(x) for x in row) for row in rows]
        (cfg.out_dir / f"{stem}.{name}.csv").write_text("\n".join(side) + "\n")

    manifest = {
        "experiment": cfg.experiment,
        "config_hash": cfg.config_hash,
        "config": cfg.raw,
        "seed": cfg.seed,
        "paths": cfg.paths,
        "tolerances": cfg.tolerances,
        "versions": {
            "levyint": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "checks": [
            {"name": name, "passed": bool(ok), "detail": detail}
            for name, ok, detail in result.checks
        ],
        "extra": result.extra,
        "passed": result.passed,
    }
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return data_path, manifest_path


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; emit artifacts; return the exit status."""
    result = _RUNNERS[config.experiment](config)
    data_path, manifest_path = emit_report(result)
    print(f"experiment: {config.experiment}  (config {config.config_hash})")
    for name, ok, detail in result.checks:
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}  {detail}")
    print(f"data: {data_path}")
    print(f"manifest: {manifest_path}")
    return 0 if result.passed else 1


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyint",
        description="seeded verification experiments for stochastic integrals and mild solutions",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for kind in EXPERIMENTS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", required=True, help="path to the JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--paths", type=int, default=None, help="override the path count")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--threads", default=None,
                       help="worker threads for path simulation")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = _load_config(args.config)
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.paths is not None:
            raw["paths"] = args.paths
        if args.out is not None:
            raw["out"] = args.out
        if args.threads is not None:
            raw["threads"] = _thread_count(args.threads, "--threads")
        elif os.environ.get("LEVYINT_THREADS"):
            raw["threads"] = _thread_count(os.environ["LEVYINT_THREADS"], "LEVYINT_THREADS")
        config = parse_config(raw, args.experiment)
        return run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
