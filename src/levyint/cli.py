"""Batch experiment runner: config parsing, seeded execution, result emission.

One experiment per process invocation.  A declarative JSON config names the
experiment kind and its inputs; every section is parsed once, before any
computation, so malformed input is a config error.  The runner executes with
fixed seeds, writes a columnar numeric file plus a manifest (config hash,
tolerances actually applied, versions, check verdicts), and exits 0 on pass,
1 on check failure, 2 on config errors, and 3 on numeric failure.  Identical
configs produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .drivers import (
    Brownian,
    CompensatedPoisson,
    CompoundPoisson,
    ExponentialJumps,
    LevySpec,
    NormalJumps,
    TwoPointJumps,
    martingale_part,
    simulate_paths,
    standard_poisson,
)
from .ensembles import PathEnsemble, TimeGrid, _mean_se, ensemble_rows, sup_l2_norm
from .errors import ConfigError, NumericError, ToolkitError
from .identities import poisson_identity_check
from .predictability import ito_isometry_check, predictable_version
from .riemann import levy_integral, mesh_convergence_study
from .spde import (
    SpdeProblem,
    SpectralOperator,
    constant_map,
    heat_operator,
    mild_solution_picard,
    scaled_identity,
    solution_diagnostics,
)
from .tolerances import resolve

_INTEGRANDS = {
    "ones": lambda x: PathEnsemble.deterministic(x.grid, 1.0),
    "time": lambda x: PathEnsemble.deterministic(x.grid, lambda t: t),
    "driver": lambda x: x,
    "driver_left_limit": predictable_version,
}

# Config kinds of the driver specs and jump laws.  A kind's keys, defaults
# and value types are its dataclass fields; "standard_poisson" is the one
# driver kind that is not a class (see driver_from_config).
_DRIVERS = {"brownian": Brownian, "compensated_poisson": CompensatedPoisson,
            "compound_poisson": CompoundPoisson}
_JUMP_LAWS = {"two_point": TwoPointJumps, "exponential": ExponentialJumps, "normal": NormalJumps}
_KIND_OF = {cls: kind for table in (_DRIVERS, _JUMP_LAWS) for kind, cls in table.items()}


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} section must be a mapping")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _number(value, where: str, positive: bool = False) -> float:
    """A finite JSON number (never a boolean); ``positive`` also asks for > 0."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or (positive and value <= 0)):
        sign = "positive " if positive else ""
        raise ConfigError(f"{where} must be a finite {sign}number, got {value!r}")
    return float(value)


def _numbers(value, where: str, positive: bool = False) -> np.ndarray:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of numbers, got {value!r}")
    return np.array([_number(v, where, positive) for v in value], dtype=float)


def _integer(value, where: str, minimum: int = 1) -> int:
    """A count: a JSON integer or integral float >= minimum, never a boolean."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral or value < minimum:
        raise ConfigError(f"{where} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _flag(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, got {value!r}")
    return value


_FIELD_READERS = {
    "float": _number,
    "bool": _flag,
    "JumpLaw": lambda cfg, where: _spec_from_config(cfg, _JUMP_LAWS, where),
}


def _spec_from_config(cfg: dict, kinds: dict, where: str):
    """The dataclass a config section names by its 'kind', read field by field."""
    kind = cfg.get("kind") if isinstance(cfg, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{where} needs a 'kind' out of {sorted(kinds)}, got {kind!r}")
    types = {f.name: f.type for f in fields(kinds[kind])}
    _require_keys(cfg, {"kind", *types}, where)
    return kinds[kind](**{
        name: _FIELD_READERS[types[name]](value, f"{where}.{name}")
        for name, value in cfg.items() if name != "kind"
    })


def driver_from_config(cfg: dict) -> LevySpec:
    """Build a driver spec from its config-file form."""
    if isinstance(cfg, dict) and cfg.get("kind") == "standard_poisson":
        _require_keys(cfg, {"kind", "rate"}, "driver")
        return standard_poisson(rate=_number(cfg.get("rate", 1.0), "driver.rate"))
    return _spec_from_config(cfg, _DRIVERS, "driver")


def driver_to_config(spec: LevySpec) -> dict:
    """Config-file form of a driver spec or jump law (inverse of driver_from_config)."""
    if type(spec) not in _KIND_OF:
        raise ConfigError(f"no config kind for {type(spec).__name__}")
    values = {f.name: getattr(spec, f.name) for f in fields(spec)}
    return {"kind": _KIND_OF[type(spec)],
            **{name: driver_to_config(v) if is_dataclass(v) else v for name, v in values.items()}}


# Largest array a config may ask for: float64 values at every path, grid
# point and coordinate.  The README's 1e5-path isometry run needs 0.8 GB; a
# count far beyond that is a config error, not a failed allocation.
_MAX_ARRAY_BYTES = 2**34
_ARRAY_SHAPE = "paths x grid points x coordinates"


def _within_limit(count: int, where: str) -> int:
    """A number of float64 values that fits the array limit."""
    if count * 8 > _MAX_ARRAY_BYTES:
        raise ConfigError(f"{where} = {count} float64 values exceed the "
                          f"{_MAX_ARRAY_BYTES}-byte array limit")
    return count


def grid_from_config(cfg: dict, values_per_point: int) -> TimeGrid:
    """The grid a config section describes; its points times
    ``values_per_point`` must fit the array limit."""
    _require_keys(cfg, {"horizon", "steps", "points"}, "grid")
    if "points" in cfg:
        points = _numbers(cfg["points"], "grid.points")
        _within_limit(values_per_point * points.size, _ARRAY_SHAPE)
        return TimeGrid(points)
    steps = _integer(cfg["steps"], "grid.steps")
    _within_limit(values_per_point * (steps + 1), _ARRAY_SHAPE)
    return TimeGrid.uniform(_number(cfg["horizon"], "grid.horizon"), steps)


def _spde_from_config(cfg: dict) -> tuple[SpdeProblem, float, int]:
    """The evolution problem of an ``spde`` section plus its Picard tol and max_iter."""
    _require_keys(cfg, {"eigenvalues", "heat_dim", "h0", "alpha", "sigmas",
                        "tol", "max_iter"}, "spde")
    if "heat_dim" in cfg:
        heat_dim = _integer(cfg["heat_dim"], "spde.heat_dim")
        op = heat_operator(_within_limit(heat_dim, "spde.heat_dim"))
    elif "eigenvalues" in cfg:
        op = SpectralOperator(_numbers(cfg["eigenvalues"], "spde.eigenvalues"))
    else:
        raise ConfigError("spde section needs 'heat_dim' or 'eigenvalues'")
    dim = op.dim
    h0 = _numbers(cfg["h0"], "spde.h0") if "h0" in cfg else np.zeros(dim)

    alpha_cfg = cfg.get("alpha", {"kind": "none"})
    _require_keys(alpha_cfg, {"kind", "coefficient"}, "spde.alpha")
    if alpha_cfg.get("kind", "none") == "none":
        alpha, alpha_lip = None, 0.0
    elif alpha_cfg["kind"] == "linear":
        a = _number(alpha_cfg["coefficient"], "spde.alpha.coefficient")
        alpha, alpha_lip = scaled_identity(a), abs(a)
    else:
        raise ConfigError(f"unknown alpha kind {alpha_cfg.get('kind')!r}")

    sigmas, sigma_lips, drivers = [], [], []
    for i, s_cfg in enumerate(cfg.get("sigmas", [])):
        where = f"spde.sigmas[{i}]"
        _require_keys(s_cfg, {"kind", "value", "coefficient", "driver"}, where)
        kind = s_cfg.get("kind")
        if kind == "constant":
            value = s_cfg.get("value", 1.0)
            value = (_numbers(value, f"{where}.value") if isinstance(value, list)
                     else np.full(dim, _number(value, f"{where}.value")))
            if value.shape != (dim,):
                raise ConfigError(f"{where}.value must have {dim} entries")
            sigmas.append(constant_map(value))
            sigma_lips.append(0.0)
        elif kind == "linear":
            a = _number(s_cfg["coefficient"], f"{where}.coefficient")
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
    tol = _number(cfg.get("tol", 1e-6), "spde.tol", positive=True)
    return problem, tol, _integer(cfg.get("max_iter", 50), "spde.max_iter")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment: every section parsed, plus the raw dict it came from."""

    experiment: str
    raw: dict
    seed: int
    paths: int
    out_dir: Path
    tolerances: dict
    grid: TimeGrid
    # the driver; for poisson-identity, the standard Poisson process of its rate
    driver: LevySpec | None = None
    integrand: str | None = None
    meshes: np.ndarray | None = None
    problem: SpdeProblem | None = None
    tol: float | None = None
    max_iter: int | None = None

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


_BROWNIAN = {"kind": "brownian"}
# Config keys every experiment reads, and the sections of each experiment,
# with the value a missing key takes (converge derives a missing grid from
# its finest mesh).
_COMMON_DEFAULTS = {"seed": 0, "paths": 1000, "out": ".", "tolerances": None}
_DEFAULTS = {
    "simulate": {"grid": {"horizon": 1.0, "steps": 100}, "driver": _BROWNIAN},
    "integrate": {"grid": {"horizon": 1.0, "steps": 100}, "driver": _BROWNIAN, "integrand": "ones"},
    "isometry": {"grid": {"horizon": 1.0, "steps": 1000}, "driver": _BROWNIAN, "integrand": "ones"},
    "poisson-identity": {"grid": {"horizon": 1.0, "steps": 16}, "rate": 1.0},
    "converge": {"grid": None, "driver": _BROWNIAN, "integrand": "driver",
                 "meshes": [2**-4, 2**-5, 2**-6, 2**-7]},
    "spde": {"grid": {"horizon": 1.0, "steps": 64}, "spde": {}},
    "diagnostics": {"grid": {"horizon": 1.0, "steps": 64}, "spde": {}},
}
EXPERIMENTS = tuple(_DEFAULTS)
_EXPERIMENT_KEYS = {
    kind: {"experiment", *_COMMON_DEFAULTS, *defaults} for kind, defaults in _DEFAULTS.items()
}
# what Python and numpy raise on a config value of the wrong type or shape
_PARSE_ERRORS = (KeyError, TypeError, ValueError, AttributeError, IndexError, OverflowError)


def parse_config(raw: dict, experiment: str | None = None) -> ExperimentConfig:
    """Validate a config and parse each of its sections once.

    This is the only place where malformed input is mapped to ConfigError;
    nothing the experiments raise while computing is.
    """
    try:
        return _parse_config(raw, experiment)
    except ToolkitError:
        raise
    except _PARSE_ERRORS as exc:
        raise ConfigError(f"malformed config: {exc!r}") from exc


def _parse_config(raw: dict, experiment: str | None) -> ExperimentConfig:
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
    cfg = {**_COMMON_DEFAULTS, **_DEFAULTS[kind], **raw}
    if not isinstance(cfg["out"], str) or "\0" in cfg["out"]:
        raise ConfigError(f"out must be a directory path, got {cfg['out']!r}")
    parsed = {}
    if "driver" in cfg:
        parsed["driver"] = driver_from_config(cfg["driver"])
    if "rate" in cfg:
        parsed["driver"] = standard_poisson(rate=_number(cfg["rate"], "rate"))
    if "integrand" in cfg:
        if not isinstance(cfg["integrand"], str) or cfg["integrand"] not in _INTEGRANDS:
            raise ConfigError(f"unknown integrand {cfg['integrand']!r}; choose from {tuple(_INTEGRANDS)}")
        parsed["integrand"] = cfg["integrand"]
    if "meshes" in cfg:
        parsed["meshes"] = _numbers(cfg["meshes"], "meshes", positive=True)
    if "spde" in cfg:
        parsed["problem"], parsed["tol"], parsed["max_iter"] = _spde_from_config(cfg["spde"])
    paths = _integer(cfg["paths"], "paths")
    grid_cfg = cfg["grid"]
    if grid_cfg is None and kind == "converge":
        # checked in floats: a subnormal finest mesh has no finite step count
        finest = float(parsed["meshes"][-1])
        if 1.0 / finest + 1.0 > _MAX_ARRAY_BYTES / 8:
            raise ConfigError(f"meshes: the finest mesh {finest!r} needs more grid points "
                              f"than the {_MAX_ARRAY_BYTES}-byte array limit holds")
        grid_cfg = {"horizon": 1.0, "steps": round(1.0 / finest)}
    # diagnostics also solves on a grid of twice the steps
    per_point = paths * (parsed["problem"].dim if "problem" in parsed else 1)
    grid = grid_from_config(grid_cfg, per_point * (2 if kind == "diagnostics" else 1))
    return ExperimentConfig(
        experiment=kind,
        raw={**raw, "experiment": kind},  # canonical form: hash covers the kind
        seed=_integer(cfg["seed"], "seed", minimum=0),
        paths=paths,
        out_dir=Path(cfg["out"]),
        tolerances=resolve(cfg["tolerances"]),
        grid=grid,
        **parsed,
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


def _run_simulate(cfg: ExperimentConfig) -> RunResult:
    spec, grid = cfg.driver, cfg.grid
    ens = simulate_paths(spec, grid, cfg.paths, cfg.seed)
    c = spec.bracket_rate()
    m = martingale_part(spec, ens)
    mt = m.values[:, -1, 0]
    var = float(np.var(mt, ddof=1)) if cfg.paths > 1 else 0.0
    se = _mean_se((mt - mt.mean()) ** 2)[1] if cfg.paths > 2 else np.inf
    k = cfg.tolerances["se_multiplier"]
    checks = [
        ("terminal_variance_matches_bracket", abs(var - c * grid.horizon) <= k * se if np.isfinite(se) else True,
         {"variance": var, "expected": c * grid.horizon, "se": se}),
    ]
    cols = ("path", "t") + tuple(f"value_{i}" for i in range(ens.dim))
    return RunResult(cfg, checks, cols, list(ensemble_rows(ens)),
                     {"bracket_rate": c, "sup_l2_norm": sup_l2_norm(ens)})


def _run_integrate(cfg: ExperimentConfig) -> RunResult:
    spec = cfg.driver
    x = simulate_paths(spec, cfg.grid, cfg.paths, cfg.seed)
    phi = _INTEGRANDS[cfg.integrand](x)
    y = levy_integral(phi, spec, x)
    terminal = y.values[:, -1, 0]
    checks = []
    if cfg.integrand == "ones":
        resid = float(np.max(np.abs(terminal - (x.values[:, -1, 0] - x.values[:, 0, 0]))))
        checks.append(("telescoping", resid < cfg.tolerances["exact"], {"residual": resid}))
    if spec.martingale_drift == 0.0 and cfg.paths > 2:
        mean, se = _mean_se(terminal)
        k = cfg.tolerances["se_multiplier"]
        checks.append(("martingale_mean_zero", abs(mean) <= k * se or se == 0.0,
                       {"mean": mean, "se": se}))
    rows = [(p, float(terminal[p])) for p in range(cfg.paths)]
    return RunResult(cfg, checks, ("path", "terminal_value"), rows,
                     {"integrand": cfg.integrand})


def _run_isometry(cfg: ExperimentConfig) -> RunResult:
    x = simulate_paths(cfg.driver, cfg.grid, cfg.paths, cfg.seed)
    phi = _INTEGRANDS[cfg.integrand](x)
    report = ito_isometry_check(phi, cfg.driver, x)
    z_max = cfg.tolerances["z_max"]
    checks = [("isometry_z", abs(report.z_score) < z_max, report.record())]
    rows = [(report.lhs, report.rhs, report.se_lhs, report.se_rhs, report.z_score)]
    return RunResult(cfg, checks, ("lhs", "rhs", "se_lhs", "se_rhs", "z"), rows,
                     {"integrand": cfg.integrand})


def _run_poisson_identity(cfg: ExperimentConfig) -> RunResult:
    report = poisson_identity_check(
        cfg.driver.rate, cfg.grid.horizon, cfg.paths, cfg.seed,
        base_steps=cfg.grid.n_intervals, tolerance=cfg.tolerances["exact"],
    )
    checks = [("pathwise_identities", report.passed, {"max_residual": report.max_residual})]
    per_path = (report.terminal_counts, report.left_sum_values, report.stieltjes_values,
                report.left_sum_residuals, report.stieltjes_residuals, report.difference_residuals)
    rows = list(zip(range(cfg.paths), *(a.tolist() for a in per_path)))
    cols = ("path", "count", "left_sum", "stieltjes", "res_left", "res_stieltjes", "res_diff")
    return RunResult(cfg, checks, cols, rows, {"max_residual": report.max_residual})


def _run_converge(cfg: ExperimentConfig) -> RunResult:
    spec, grid = cfg.driver, cfg.grid
    x = simulate_paths(spec, grid, cfg.paths, cfg.seed)
    m = martingale_part(spec, x)
    phi = _INTEGRANDS[cfg.integrand](x)
    study = mesh_convergence_study(phi, m, cfg.meshes, grid.horizon)
    decreasing = bool(np.all(np.diff(study.sq_differences) < 0))
    checks = [("differences_decreasing", decreasing,
               {"sq_differences": study.sq_differences.tolist()})]
    rows = study.rows()
    return RunResult(cfg, checks, ("mesh", "sq_diff", "se"), rows,
                     {"rate_exponent": study.rate_exponent,
                      "reference_mesh": study.reference_mesh})


def _picard(cfg: ExperimentConfig, grid: TimeGrid):
    return mild_solution_picard(cfg.problem, grid, cfg.paths, cfg.seed,
                                tol=cfg.tol, max_iter=cfg.max_iter)


def _run_spde(cfg: ExperimentConfig) -> RunResult:
    solution, report = _picard(cfg, cfg.grid)
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
    fine = TimeGrid.uniform(cfg.grid.horizon, 2 * cfg.grid.n_intervals)
    sol_c, _ = _picard(cfg, cfg.grid)
    sol_f, _ = _picard(cfg, fine)
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


def _write_csv(path: Path, columns: tuple[str, ...], rows: list) -> None:
    lines = [",".join(columns)]
    lines += [",".join(repr(x) if isinstance(x, float) else str(x) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def emit_report(result: RunResult) -> tuple[Path, Path]:
    """Write the columnar data file and the manifest; return both paths."""
    cfg = result.config
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{cfg.experiment}-{cfg.config_hash}"
    data_path = cfg.out_dir / f"{stem}.csv"
    manifest_path = cfg.out_dir / f"{stem}.manifest.json"

    _write_csv(data_path, result.columns, result.rows)
    for name, (cols, rows) in (result.tables or {}).items():
        _write_csv(cfg.out_dir / f"{stem}.{name}.csv", cols, rows)

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
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # invalid JSON or text that is not UTF-8
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return raw


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
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = _load_config(args.config)
        for key in ("seed", "paths", "out"):
            if getattr(args, key) is not None:
                raw[key] = getattr(args, key)
        config = parse_config(raw, args.experiment)
        return run(config)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ToolkitError as exc:  # bad config or parameters
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
