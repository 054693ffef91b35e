"""Square-integrable Levy drivers: parametric descriptions, simulation, decomposition.

Every driver X decomposes as X_t = M_t + b*t with M a square-integrable
martingale whose predictable bracket is linear, <M,M>_t = c*t.  The shipped
menu is Brownian motion, the compensated Poisson process, and compound
Poisson processes with two-point, exponential, or normal jump laws; all have
closed-form bracket rates.

Randomness is drawn from one counter-based Philox stream per path, keyed by
the ensemble seed with the absolute path index placed in the counter block.
Output is therefore bit-identical for identical (spec, grid, n_paths, seed),
and ensembles simulated in chunks with ``path_offset`` reproduce the
corresponding slice of a single large run.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, fields

import numpy as np

from .ensembles import JumpRecord, PathEnsemble, TimeGrid
from .errors import ConsistencyError, NumericError, ParameterError
from .tolerances import DEFAULTS


def _check_finite(params) -> None:
    """Reject a spec or jump law whose float parameters are not all finite."""
    for f in fields(params):
        value = getattr(params, f.name)
        if f.type == "float" and not np.isfinite(value):
            raise ParameterError(f"{type(params).__name__}.{f.name} must be finite, got {value}")


class JumpLaw(abc.ABC):
    """Jump-size distribution with closed-form first two moments."""

    @abc.abstractmethod
    def mean(self) -> float: ...

    @abc.abstractmethod
    def second_moment(self) -> float: ...

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray: ...


@dataclass(frozen=True)
class TwoPointJumps(JumpLaw):
    """Jumps of +-1 with probability 1/2 each."""

    def mean(self) -> float:
        return 0.0

    def second_moment(self) -> float:
        return 1.0

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.choice([-1.0, 1.0], size=n)


@dataclass(frozen=True)
class ExponentialJumps(JumpLaw):
    """Exponential jump sizes with the given rate."""

    rate: float

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.rate <= 0:
            raise ParameterError(f"exponential jump rate must be positive, got {self.rate}")

    def mean(self) -> float:
        return 1.0 / self.rate

    def second_moment(self) -> float:
        return 2.0 / self.rate**2

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size=n)


@dataclass(frozen=True, kw_only=True)
class NormalJumps(JumpLaw):
    """Normally distributed jump sizes."""

    loc: float = 0.0
    scale: float

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.scale < 0:
            raise ParameterError(f"jump scale must be nonnegative, got {self.scale}")

    def mean(self) -> float:
        return self.loc

    def second_moment(self) -> float:
        return self.loc**2 + self.scale**2

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(self.loc, self.scale, size=n)


class LevySpec(abc.ABC):
    """Parametric description of a square-integrable Levy driver."""

    drift: float

    @abc.abstractmethod
    def bracket_rate(self) -> float:
        """Constant c with <M,M>_t = c*t for the martingale part."""

    @property
    @abc.abstractmethod
    def martingale_drift(self) -> float:
        """Rate b in the decomposition X_t = M_t + b*t."""


@dataclass(frozen=True)
class Brownian(LevySpec):
    """Scaled Brownian motion with drift: X_t = sigma*W_t + b*t."""

    volatility: float = 1.0
    drift: float = 0.0

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.volatility < 0:
            raise ParameterError(f"volatility must be nonnegative, got {self.volatility}")

    def bracket_rate(self) -> float:
        return self.volatility**2

    @property
    def martingale_drift(self) -> float:
        return self.drift


@dataclass(frozen=True)
class CompensatedPoisson(LevySpec):
    """Unit-jump Poisson process minus its compensator: X_t = N_t - rate*t + b*t."""

    rate: float = 1.0
    drift: float = 0.0

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.rate <= 0:
            raise ParameterError(f"intensity must be positive, got {self.rate}")

    def bracket_rate(self) -> float:
        return self.rate

    @property
    def martingale_drift(self) -> float:
        return self.drift


@dataclass(frozen=True)
class CompoundPoisson(LevySpec):
    """Compound Poisson process, optionally compensated.

    compensated=True:  X_t = sum of jumps up to t - rate*E[J]*t + b*t
    compensated=False: X_t = sum of jumps up to t + b*t, whose martingale
    decomposition has drift rate b + rate*E[J].
    """

    rate: float = 1.0
    jump_law: JumpLaw = field(default_factory=TwoPointJumps)
    compensated: bool = True
    drift: float = 0.0

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.rate <= 0:
            raise ParameterError(f"intensity must be positive, got {self.rate}")
        if not np.isfinite(self.jump_law.second_moment()):
            raise ParameterError("jump law must have a finite second moment")

    def bracket_rate(self) -> float:
        return self.rate * self.jump_law.second_moment()

    @property
    def martingale_drift(self) -> float:
        comp = 0.0 if self.compensated else self.rate * self.jump_law.mean()
        return self.drift + comp


def standard_poisson(rate: float = 1.0) -> CompensatedPoisson:
    """Plain counting process N_t, read as compensated Poisson plus drift = rate."""
    return CompensatedPoisson(rate=rate, drift=rate)


def bracket_rate(spec: LevySpec) -> float:
    """Bracket rate c of the driver's martingale part: <M,M>_t = c*t."""
    return spec.bracket_rate()


def child_seed(seed: int, index: int) -> int:
    """Derived integer seed for an indexed substream (e.g. one per driver)."""
    if seed < 0 or index < 0:
        raise ParameterError("seed and stream index must be nonnegative")
    return int(np.random.SeedSequence(entropy=(int(seed), int(index))).generate_state(1, np.uint64)[0])


def _path_rng(key: np.ndarray, path_index: int) -> np.random.Generator:
    # counter word 2 holds the absolute path index; words 0-1 advance within
    # the path, so streams never overlap
    return np.random.Generator(np.random.Philox(counter=[0, 0, int(path_index), 0], key=key))


def _exact_jump_times(rng: np.random.Generator, rate: float, horizon: float) -> np.ndarray:
    """Jump instants in (0, T] via exponential inter-arrival times."""
    times = []
    t = rng.exponential(1.0 / rate)
    while t <= horizon:
        times.append(t)
        t += rng.exponential(1.0 / rate)
    return np.asarray(times)


def _fill_brownian(spec: Brownian, grid: TimeGrid, values: np.ndarray, key, offset) -> None:
    sqrt_dt = np.sqrt(grid.dt)
    for i in range(values.shape[0]):
        rng = _path_rng(key, offset + i)
        values[i, 0, 0] = 0.0
        np.cumsum(rng.standard_normal(grid.n_intervals) * (spec.volatility * sqrt_dt),
                  out=values[i, 1:, 0])
    values[:, :, 0] += spec.drift * grid.points


def _path_drift(spec: LevySpec) -> float:
    """Rate d of a jump-driven path X_t = (sum of jumps up to t) + d*t."""
    if isinstance(spec, CompensatedPoisson):
        return spec.drift - spec.rate
    if isinstance(spec, CompoundPoisson):
        return spec.drift - (spec.rate * spec.jump_law.mean() if spec.compensated else 0.0)
    raise ConsistencyError(f"{type(spec).__name__} is not a jump-driven spec")


def _fill_jump(spec: LevySpec, grid: TimeGrid, values: np.ndarray, jumps: list, key, offset) -> None:
    drift = _path_drift(spec) * grid.points
    for i in range(values.shape[0]):
        rng = _path_rng(key, offset + i)
        times = _exact_jump_times(rng, spec.rate, grid.horizon)
        if isinstance(spec, CompoundPoisson):
            sizes = spec.jump_law.sample(rng, times.size)
        else:
            sizes = np.ones_like(times)
        jumps[i] = JumpRecord(times=times, sizes=sizes)
        values[i, :, 0] = jumps[i].values_at(grid.points) + drift


def simulate_paths(
    spec: LevySpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    path_offset: int = 0,
    threads: int = 1,
) -> PathEnsemble:
    """Sample driver paths at the grid points.

    Parameters
    ----------
    spec:
        Driver description; jump-driven specs also produce exact per-path
        jump records (times and sizes), so Stieltjes sums can be formed
        without discretization error.
    grid:
        Sampling times; values follow the right-continuous convention at
        jump times that fall exactly on grid points.
    n_paths, seed:
        Ensemble size and stream key.  Identical arguments reproduce
        bit-identical output; different seeds give different ensembles.
    path_offset:
        Index of the first path's stream.  Simulating [0, k) and [k, n) in
        two calls concatenates to the single-call [0, n) ensemble.
    threads:
        Ignored: simulation runs on one thread.  Kept only because the
        benchmark probe ``perfbench/workloads.py::threads_baseline`` passes
        it; the keyword and the probe are retired together.
    """
    if n_paths < 1:
        raise ParameterError(f"n_paths must be >= 1, got {n_paths}")
    if path_offset < 0:
        raise ParameterError(f"path_offset must be >= 0, got {path_offset}")
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    key = np.random.SeedSequence(int(seed)).generate_state(2, np.uint64)
    values = np.empty((n_paths, grid.n_points, 1))
    jumps: list | None = None

    if isinstance(spec, Brownian):
        _fill_brownian(spec, grid, values, key, path_offset)
    elif isinstance(spec, (CompensatedPoisson, CompoundPoisson)):
        jumps = [None] * n_paths
        _fill_jump(spec, grid, values, jumps, key, path_offset)
    else:
        raise ParameterError(f"unknown driver spec {type(spec).__name__}")

    if not np.all(np.isfinite(values)):
        raise NumericError("simulation produced non-finite values")
    return PathEnsemble(
        values=values,
        grid=grid,
        adapted=True,
        continuous=jumps is None,
        jumps=tuple(jumps) if jumps is not None else None,
        meta={"spec": spec, "seed": int(seed), "path_offset": int(path_offset)},
    )


def martingale_part(spec: LevySpec, ensemble: PathEnsemble) -> PathEnsemble:
    """Path-by-path martingale part M_t = X_t - b*t of a simulated driver."""
    src = ensemble.meta.get("spec")
    if src is not None and src != spec:
        raise ConsistencyError(f"ensemble was simulated from {src!r}, not {spec!r}")
    b = spec.martingale_drift
    if b == 0.0:
        out = ensemble.with_values(ensemble.values)
    else:
        out = ensemble.with_values(ensemble.values - b * ensemble.grid.points[None, :, None])
    out.meta["martingale_part_of"] = spec
    return out


def reconstruction_residual(spec: LevySpec, ensemble: PathEnsemble) -> float:
    """Max abs error of rebuilding grid values from jump records plus drift.

    Applicable to jump-driven ensembles only; the residual should be at the
    float roundoff level (see tolerance ``exact``).
    """
    if ensemble.jumps is None:
        raise ConsistencyError("reconstruction needs jump records")
    pts = ensemble.grid.points
    drift = _path_drift(spec) * pts
    worst = 0.0
    for p, rec in enumerate(ensemble.jumps):
        rebuilt = rec.values_at(pts) + drift
        worst = max(worst, float(np.max(np.abs(rebuilt - ensemble.values[p, :, 0]))))
    return worst


def min_jump_separation(ensemble: PathEnsemble) -> float:
    """Smallest gap between consecutive jump times across all paths."""
    if ensemble.jumps is None:
        raise ConsistencyError("ensemble carries no jump records")
    best = np.inf
    for rec in ensemble.jumps:
        if rec.count > 1:
            best = min(best, float(np.min(np.diff(rec.times))))
    return best


def reject_coincident_jumps(ensemble: PathEnsemble) -> None:
    """Raise if two sampled jump times are closer than the separation floor."""
    if min_jump_separation(ensemble) < DEFAULTS["jump_separation"]:
        raise NumericError("coincident jump times sampled; rerun with a different seed")
