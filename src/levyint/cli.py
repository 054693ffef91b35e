"""Batch experiment runner: config parsing, seeded execution, result emission.

One experiment per process invocation.  A declarative JSON config names the
experiment kind and its inputs; every section is parsed once, before any
computation, so malformed input is a config error.  The runner executes with
fixed seeds, writes a columnar numeric file plus a manifest (config hash,
tolerances applied, versions, check verdicts), and exits 0 on pass, 1 on
check failure, 2 on config errors, and 3 on numeric failure.  Identical
configs produce byte-identical artifacts.  A config may override only the
tolerances its experiment's checks read, and the manifest records exactly
those, so no override is silently ignored.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
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
from .ensembles import (PathEnsemble, TimeGrid, _mean_se, _moments, _row_slices, _z_score,
                        sup_l2_norm)
from .errors import ConfigError, NumericError, ToolkitError
from .identities import poisson_identity_check
from .predictability import _isometry_report, _isometry_samples, predictable_version
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
from .tolerances import DEFAULTS

_INTEGRANDS = {
    "ones": lambda x: PathEnsemble.deterministic(x.grid, 1.0),
    "time": lambda x: PathEnsemble.deterministic(x.grid, lambda t: t),
    "driver": lambda x: x,
    "driver_left_limit": predictable_version,
}

# Config kinds of the driver specs, jump laws and spde coefficients.  A
# kind's keys, defaults and value types are the parameters of the class or
# function it names; alpha "none" is no drift.
_DRIVERS = {"brownian": Brownian, "compensated_poisson": CompensatedPoisson,
            "compound_poisson": CompoundPoisson, "standard_poisson": standard_poisson}
_JUMP_LAWS = {"two_point": TwoPointJumps, "exponential": ExponentialJumps, "normal": NormalJumps}
_SIGMAS = {"constant": constant_map, "linear": scaled_identity}
_ALPHAS = {"none": lambda: None, "linear": scaled_identity}
_KIND_OF = {cls: kind for table in (_DRIVERS, _JUMP_LAWS) for kind, cls in table.items()}


def _require_keys(section: dict, allowed: set[str], where: str, required=()) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} section must be a mapping")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    for key in required:
        if key not in section:
            raise ConfigError(f"{where}.{key} is required")


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
    "float | np.ndarray": lambda v, where: (_numbers if isinstance(v, list) else _number)(v, where),
    "bool": _flag,
    "JumpLaw": lambda cfg, where: _spec_from_config(cfg, _JUMP_LAWS, where),
}


def _spec_from_config(cfg: dict, kinds: dict, where: str):
    """What a config section names by its 'kind', built from its other keys,
    each read by the type its parameter is annotated with."""
    kind = cfg.get("kind") if isinstance(cfg, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{where} needs a 'kind' out of {sorted(kinds)}, got {kind!r}")
    params = inspect.signature(kinds[kind]).parameters
    _require_keys(cfg, {"kind", *params}, where,
                  required=[name for name, p in params.items() if p.default is p.empty])
    return kinds[kind](**{
        name: _FIELD_READERS[params[name].annotation](value, f"{where}.{name}")
        for name, value in cfg.items() if name != "kind"
    })


def driver_from_config(cfg: dict) -> LevySpec:
    """Build a driver spec from its config-file form."""
    return _spec_from_config(cfg, _DRIVERS, "driver")


def driver_to_config(spec: LevySpec) -> dict:
    """Config-file form of a driver spec or jump law (inverse of driver_from_config)."""
    if type(spec) not in _KIND_OF:
        raise ConfigError(f"no config kind for {type(spec).__name__}")
    values = {f.name: getattr(spec, f.name) for f in fields(spec)}
    return {"kind": _KIND_OF[type(spec)],
            **{name: driver_to_config(v) if is_dataclass(v) else v for name, v in values.items()}}


# Largest array a config may ask for: float64 values at every path, grid
# point and coordinate, counted so even where a run holds one block of paths
# (isometry).  The README's 1e5-path isometry run counts 0.8 GB; a count far
# beyond that is a config error, not a failed allocation.
_MAX_ARRAY_BYTES = 2**34
_ARRAY_SHAPE = "paths x grid points x coordinates"
# a jump-driven driver's table holds a time and a size per jump
_JUMP_TABLE = "2 columns x paths x rate x horizon expected jumps"


def _within_limit(count: int | float, where: str) -> int | float:
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
        if len(cfg) > 1:
            raise ConfigError("grid takes 'points' or 'horizon' plus 'steps', not both")
        points = _numbers(cfg["points"], "grid.points")
        _within_limit(values_per_point * points.size, _ARRAY_SHAPE)
        return TimeGrid(points)
    _require_keys(cfg, {"horizon", "steps"}, "grid", required=("horizon", "steps"))
    steps = _integer(cfg["steps"], "grid.steps")
    _within_limit(values_per_point * (steps + 1), _ARRAY_SHAPE)
    return TimeGrid.uniform(_number(cfg["horizon"], "grid.horizon"), steps)


def _spde_from_config(cfg: dict, values_per_coordinate: int) -> tuple[SpdeProblem, float, int]:
    """The evolution problem of an ``spde`` section plus its Picard tol and
    max_iter; checks its coordinates times ``values_per_coordinate`` against
    the array limit before it builds the operator."""
    _require_keys(cfg, {"eigenvalues", "heat_dim", "h0", "alpha", "sigmas",
                        "tol", "max_iter"}, "spde")
    if ("heat_dim" in cfg) == ("eigenvalues" in cfg):
        raise ConfigError("spde section needs exactly one of 'heat_dim' and 'eigenvalues'")
    if "heat_dim" in cfg:
        dim = _within_limit(_integer(cfg["heat_dim"], "spde.heat_dim"), "spde.heat_dim")
    else:
        eigenvalues = _numbers(cfg["eigenvalues"], "spde.eigenvalues")
        dim = eigenvalues.size
    _within_limit(dim * values_per_coordinate, _ARRAY_SHAPE)
    op = heat_operator(dim) if "heat_dim" in cfg else SpectralOperator(eigenvalues)
    h0 = _numbers(cfg["h0"], "spde.h0") if "h0" in cfg else np.zeros(dim)

    alpha = _spec_from_config(cfg.get("alpha", {"kind": "none"}), _ALPHAS, "spde.alpha")

    sigmas, drivers = [], []
    for i, s_cfg in enumerate(cfg.get("sigmas", [])):
        where = f"spde.sigmas[{i}]"
        if not isinstance(s_cfg, dict):
            raise ConfigError(f"{where} section must be a mapping")
        sigma = _spec_from_config({k: v for k, v in s_cfg.items() if k != "driver"}, _SIGMAS, where)
        if isinstance(sigma, constant_map) and sigma.value.shape not in {(), (dim,)}:
            raise ConfigError(f"{where}.value must be a number or {dim} numbers")
        sigmas.append(sigma)
        drivers.append(driver_from_config(s_cfg.get("driver", {"kind": "brownian"})))
    problem = SpdeProblem(
        operator=op,
        h0=h0,
        alpha=alpha,
        alpha_lipschitz=0.0 if alpha is None else alpha.lipschitz,
        sigmas=tuple(sigmas),
        sigma_lipschitz=tuple(s.lipschitz for s in sigmas),
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
_COMMON_DEFAULTS = {"seed": 0, "paths": 1000, "out": ".", "tolerances": {}}
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
# The tolerances each experiment's checks read: the only names its config
# may override, and the ones its manifest records.
_TOLERANCES = {
    "simulate": ("se_multiplier",),
    "integrate": ("exact", "se_multiplier"),
    "isometry": ("z_max",),
    "poisson-identity": ("exact",),
    "converge": (),
    "spde": (),
    "diagnostics": ("se_multiplier",),
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
    paths = _integer(cfg["paths"], "paths")
    grid_cfg = cfg["grid"]
    if grid_cfg is None and kind == "converge":
        if not parsed["meshes"].size:
            raise ConfigError("meshes must list at least one mesh when no grid is given")
        # checked in floats: a subnormal finest mesh has no finite step count
        finest = float(parsed["meshes"][-1])
        if 1.0 / finest + 1.0 > _MAX_ARRAY_BYTES / 8:
            raise ConfigError(f"meshes: the finest mesh {finest!r} needs more grid points "
                              f"than the {_MAX_ARRAY_BYTES}-byte array limit holds")
        grid_cfg = {"horizon": 1.0, "steps": round(1.0 / finest)}
    _require_keys(cfg["tolerances"], set(_TOLERANCES[kind]), "tolerances")
    tolerances = {name: DEFAULTS[name] for name in _TOLERANCES[kind]}
    tolerances.update({name: _number(value, f"tolerances.{name}", positive=True)
                       for name, value in cfg["tolerances"].items()})
    # diagnostics also solves on a grid of twice the steps
    per_point = paths * (2 if kind == "diagnostics" else 1)
    grid = grid_from_config(grid_cfg, per_point)
    if "spde" in cfg:
        parsed["problem"], parsed["tol"], parsed["max_iter"] = _spde_from_config(
            cfg["spde"], per_point * grid.n_points)
    for spec in (parsed.get("driver"), *(parsed["problem"].drivers if "problem" in parsed else ())):
        if isinstance(spec, (CompensatedPoisson, CompoundPoisson)):
            _within_limit(2 * paths * spec.rate * grid.horizon, _JUMP_TABLE)
    return ExperimentConfig(
        experiment=kind,
        raw={**raw, "experiment": kind},  # canonical form: hash covers the kind
        seed=_integer(cfg["seed"], "seed", minimum=0),
        paths=paths,
        out_dir=Path(cfg["out"]),
        tolerances=tolerances,
        grid=grid,
        **parsed,
    )


@dataclass
class RunResult:
    config: ExperimentConfig
    checks: list  # (name, passed, value) triples
    columns: tuple[str, ...]
    rows: np.recarray  # one record per CSV row, a field per column
    extra: dict
    # optional named side tables: name -> (columns, rows)
    tables: dict | None = None

    @property
    def passed(self) -> bool:
        """Every check passed, and there was at least one."""
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)


def _table(columns: tuple[str, ...], *arrays) -> tuple[tuple[str, ...], np.recarray]:
    """A CSV table: its columns, and one record per row with a field per column."""
    return columns, np.rec.fromarrays(list(arrays), names=columns)


# Bytes of a block of grid points in the moment table.  No block holds a lone
# point (numpy sums a lone column pairwise), so paths sum in row order.
_MOMENT_BLOCK_BYTES = 2**22


def _moment_table(t: np.ndarray, values: np.ndarray) -> tuple[tuple[str, ...], np.recarray]:
    """One row per grid point ``t`` and mode of the time-major ``values``
    (points x paths x modes): ``_moments`` along the paths of each block of
    points, copied out as paths x (points x modes); one path gives nan spreads."""
    m, n, d = values.shape
    stats = np.empty((4, m, d))
    step = max(2, _MOMENT_BLOCK_BYTES // (8 * n * d))
    buf = np.empty(n * min(m, step + 1) * d)  # one buffer serves every block
    for j in range(0, m - 1, step):
        k = j + step if j + step < m - 1 else m  # a lone last point joins this block
        block = buf[:n * (k - j) * d].reshape(n, k - j, d)
        np.copyto(block, np.moveaxis(values[j:k], 0, 1))
        stats[:, j:k] = np.reshape(_moments(block.reshape(n, -1)), (4, -1, d))
    if n == 1:
        stats[1:] = np.nan
    return _table(("t", "mode", "mean", "se_mean", "variance", "se_variance"),
                  np.repeat(t, d), np.tile(np.arange(d), m), *stats.reshape(4, -1))


def _run_simulate(cfg: ExperimentConfig) -> RunResult:
    spec, grid = cfg.driver, cfg.grid
    ens = simulate_paths(spec, grid, cfg.paths, cfg.seed)
    c = spec.bracket_rate()
    var, se = map(float, _moments(ens.values[:, -1, 0] - spec.martingale_drift * grid.horizon)[2:])
    se = se if cfg.paths > 2 else np.inf  # the SE of a variance needs three paths
    k = cfg.tolerances["se_multiplier"]
    checks = [
        ("terminal_variance_matches_bracket", cfg.paths > 2 and abs(var - c * grid.horizon) <= k * se,
         {"variance": var, "expected": c * grid.horizon, "se": se}),
    ]
    return RunResult(cfg, checks, *_moment_table(grid.points, np.moveaxis(ens.values, 1, 0)),
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
        checks.append(("martingale_mean_zero", abs(_z_score(mean, se)) <= k,
                       {"mean": mean, "se": se}))
    return RunResult(cfg, checks, *_table(("path", "terminal_value"), np.arange(cfg.paths), terminal),
                     {"integrand": cfg.integrand})


# Paths simulated per isometry block: a multiple of riemann's 32-row pieces
# that divides ``ensembles._CHUNK_ROWS``, so every per-path sum has the bits
# of the whole-ensemble check.
_ISOMETRY_ROWS = 1024


def _run_isometry(cfg: ExperimentConfig) -> RunResult:
    """``ito_isometry_check`` on the whole ensemble, holding one block of
    paths at a time and only the per-path samples of every block."""
    lhs, rhs = np.empty(cfg.paths), None
    for sl in _row_slices(cfg.paths, _ISOMETRY_ROWS):
        x = simulate_paths(cfg.driver, cfg.grid, sl.stop - sl.start, cfg.seed, path_offset=sl.start)
        lhs[sl], block_rhs = _isometry_samples(_INTEGRANDS[cfg.integrand](x), cfg.driver, x)
        # the first block holds two paths or all of them, so one rhs sample
        # there is a deterministic integrand's, the same in every block
        if rhs is None:
            rhs = block_rhs if block_rhs.size < x.n_paths else np.empty(cfg.paths)
        if rhs.size == cfg.paths:
            rhs[sl] = block_rhs
        del x  # so the next block is not simulated beside this one
    report = _isometry_report(lhs, rhs)
    z_max = cfg.tolerances["z_max"]
    checks = [("isometry_z", abs(report.z_score) < z_max, report.record())]
    table = _table(("lhs", "rhs", "se_lhs", "se_rhs", "z"), [report.lhs], [report.rhs],
                   [report.se_lhs], [report.se_rhs], [report.z_score])
    return RunResult(cfg, checks, *table, {"integrand": cfg.integrand})


def _run_poisson_identity(cfg: ExperimentConfig) -> RunResult:
    report = poisson_identity_check(
        cfg.driver.rate, cfg.grid.horizon, cfg.paths, cfg.seed,
        base_steps=cfg.grid.n_intervals, tolerance=cfg.tolerances["exact"],
    )
    checks = [("pathwise_identities", report.passed, {"max_residual": report.max_residual})]
    cols = ("path", "count", "left_sum", "stieltjes", "res_left", "res_stieltjes", "res_diff")
    table = _table(cols, np.arange(cfg.paths), report.terminal_counts, report.left_sum_values,
                   report.stieltjes_values, report.left_sum_residuals, report.stieltjes_residuals,
                   report.difference_residuals)
    return RunResult(cfg, checks, *table, {"max_residual": report.max_residual})


def _run_converge(cfg: ExperimentConfig) -> RunResult:
    spec, grid = cfg.driver, cfg.grid
    x = simulate_paths(spec, grid, cfg.paths, cfg.seed)
    m = martingale_part(spec, x)
    phi = _INTEGRANDS[cfg.integrand](x)
    study = mesh_convergence_study(phi, m, cfg.meshes, grid.horizon)
    decreasing = bool(np.all(np.diff(study.sq_differences) < 0))
    checks = [("differences_decreasing", decreasing,
               {"sq_differences": study.sq_differences.tolist()})]
    table = _table(("mesh", "sq_diff", "se"),
                   study.meshes, study.sq_differences, study.standard_errors)
    return RunResult(cfg, checks, *table,
                     {"rate_exponent": study.rate_exponent,
                      "reference_mesh": study.reference_mesh})


def _picard(cfg: ExperimentConfig, grid: TimeGrid):
    return mild_solution_picard(cfg.problem, grid, cfg.paths, cfg.seed,
                                tol=cfg.tol, max_iter=cfg.max_iter)


def _run_spde(cfg: ExperimentConfig) -> RunResult:
    # the solution's path-major values are a view of the time-major buffer
    # Picard iterated in, so moving the axes back reads that buffer in place
    sol, report = _picard(cfg, cfg.grid)
    checks = [("picard_converged", report.converged,
               {"iterations": report.iterations, "residual": report.residual})]
    picard = _table(("iteration", "distance"), np.arange(report.iterations), report.distances)
    return RunResult(cfg, checks, *_moment_table(cfg.grid.points, np.moveaxis(sol.values, 1, 0)),
                     {"picard": {"distances": list(report.distances),
                                 "iterations": report.iterations,
                                 "converged": report.converged,
                                 "residual": report.residual}},
                     tables={"picard": picard})


def _run_diagnostics(cfg: ExperimentConfig) -> RunResult:
    fine = TimeGrid.uniform(cfg.grid.horizon, 2 * cfg.grid.n_intervals)
    sol_c, _ = _picard(cfg, cfg.grid)
    sol_f, _ = _picard(cfg, fine)
    diag_c = solution_diagnostics(sol_c)
    diag_f = solution_diagnostics(sol_f)
    k = cfg.tolerances["se_multiplier"]
    slack = k * (diag_c.modulus.max_standard_error + diag_f.modulus.max_standard_error)
    # a standard error needs two paths; with one the check fails
    shrinks = cfg.paths > 1 and diag_f.modulus.max_norm < diag_c.modulus.max_norm - slack
    checks = [
        ("solution_adapted", diag_c.adapted, {}),
        ("modulus_shrinks_under_refinement", shrinks,
         {"coarse": diag_c.modulus.max_norm, "fine": diag_f.modulus.max_norm, "slack": slack}),
    ]
    coarse, fine = diag_c.modulus, diag_f.modulus
    table = _table(("resolution", "gap", "increment_norm"),
                   np.repeat(["coarse", "fine"], [coarse.gaps.size, fine.gaps.size]),
                   np.concatenate([coarse.gaps, fine.gaps]), np.concatenate([coarse.norms, fine.norms]))
    return RunResult(cfg, checks, *table,
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


# Rows formatted per write: emission holds one block of text, whatever the
# row count.
_CSV_BLOCK_ROWS = 1024


def _write_csv(path: Path, columns: tuple[str, ...], rows: np.recarray) -> None:
    """A header of ``columns``, then one line per record of ``rows`` with its
    fields of those names, each cell as ``str`` gives it (``repr`` for a float)."""
    with path.open("w") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(rows), _CSV_BLOCK_ROWS):
            cells = [map(str, rows[name][start:start + _CSV_BLOCK_ROWS].tolist()) for name in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _json_safe(node):
    """``node`` with every non-finite float as None: JSON has no NaN or Infinity."""
    if isinstance(node, dict):
        return {key: _json_safe(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_json_safe(value) for value in node]
    return None if isinstance(node, float) and not math.isfinite(node) else node


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
    manifest_path.write_text(
        json.dumps(_json_safe(manifest), sort_keys=True, indent=2, allow_nan=False) + "\n")
    return data_path, manifest_path


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; emit artifacts; return the exit status."""
    result = _RUNNERS[config.experiment](config)
    data_path, manifest_path = emit_report(result)
    print(f"experiment: {config.experiment}  (config {config.config_hash})")
    for name, ok, detail in result.checks:
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}  {detail}")
    if not result.checks:
        print("  [FAIL] no check applies to this config")
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
