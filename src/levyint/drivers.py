"""Square-integrable Levy drivers: parametric descriptions, simulation, decomposition.

Every driver X decomposes as X_t = M_t + b*t with M a square-integrable
martingale whose predictable bracket is linear, <M,M>_t = c*t.  The shipped
menu is Brownian motion, the compensated Poisson process, and compound
Poisson processes with two-point, exponential, or normal jump laws; all have
closed-form bracket rates.

Randomness is drawn from one counter-based Philox stream per path, keyed by
the ensemble seed with the absolute path index placed in the counter block.
One generator serves a whole call: before each path its state is set to the
start of that path's stream, which is cheaper than building a generator per
path and draws the same numbers.  Output is therefore bit-identical for
identical (spec, grid, n_paths, seed), and ensembles simulated in chunks with
``path_offset`` reproduce the corresponding slice of a single large run.

Only the draws run path by path.  Everything after them runs over all paths
in small row blocks: Brownian increments are scaled and summed a block at a
time, and jump records become grid values through the one function that
also serves ``JumpRecord.values_at``.  The jump records of an ensemble are
read-only views of two shared arrays, one of times and one of sizes.  Each
path's numbers are formed by the same operations in the same order as a
path on its own, so output does not depend on the block size.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, fields, replace
from typing import Iterator

import numpy as np

from .ensembles import (JumpRecord, PathEnsemble, TimeGrid, _jump_arrays, _jump_values, _pairs_within,
                        _readonly)
from .errors import ConsistencyError, NumericError, ParameterError


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


_PM1 = np.array([-1.0, 1.0])


@dataclass(frozen=True)
class TwoPointJumps(JumpLaw):
    """Jumps of +-1 with probability 1/2 each."""

    def mean(self) -> float:
        return 0.0

    def second_moment(self) -> float:
        return 1.0

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # the integers Generator.choice draws for a uniform pick, at half its cost
        return _PM1[rng.integers(0, 2, size=n)]


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


def child_seed(seed: int, index: int) -> int:
    """Derived integer seed for an indexed substream (e.g. one per driver)."""
    if seed < 0 or index < 0:
        raise ParameterError("seed and stream index must be nonnegative")
    return int(np.random.SeedSequence(entropy=(int(seed), int(index))).generate_state(1, np.uint64)[0])


def _path_rngs(key: np.ndarray, offset: int, n: int) -> Iterator[np.random.Generator]:
    """One generator, set to the start of each path's stream in turn."""
    bitgen = np.random.Philox(key=key)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    offset = int(offset)
    for path in range(offset, offset + n):
        # counter word 2 holds the absolute path index; words 0-1 advance
        # within the path, so streams never overlap.  An empty buffer and no
        # carried 32-bit half make the stream start as a new Philox would.
        state["state"]["counter"] = [0, 0, path, 0]
        state.update(buffer_pos=4, has_uint32=0, uinteger=0)
        bitgen.state = state
        yield rng


def _exact_jump_times(rng: np.random.Generator, rate: float, horizon: float) -> np.ndarray:
    """Jump instants in (0, T] via exponential inter-arrival times."""
    times = []
    t = rng.exponential(1.0 / rate)
    while t <= horizon:
        times.append(t)
        t += rng.exponential(1.0 / rate)
    return np.asarray(times)


# rows per fill block: 256 rows x 1001 points of float64 is 2 MiB per
# temporary.  Fills are bit-identical at any block size.
_FILL_ROWS = 256


def _row_blocks(values: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """``(first row, rows)`` blocks of ``values[:, :, 0]`` for the caller to
    fill; each block is checked finite when the caller asks for the next."""
    for a in range(0, values.shape[0], _FILL_ROWS):
        block = values[a:a + _FILL_ROWS, :, 0]
        yield a, block
        if not np.isfinite(block).all():
            raise NumericError("simulation produced non-finite values")


def _fill_brownian(spec: Brownian, grid: TimeGrid, values: np.ndarray, rngs) -> None:
    scale = spec.volatility * np.sqrt(grid.dt)
    drift = spec.drift * grid.points
    noise = np.empty((_FILL_ROWS, grid.n_intervals))
    for _, block in _row_blocks(values):
        steps = noise[:len(block)]
        for row, rng in zip(steps, rngs):
            rng.standard_normal(out=row)
        steps *= scale
        block[:, 0] = 0.0
        np.cumsum(steps, axis=1, out=block[:, 1:])
        block += drift


def _path_drift(spec: LevySpec) -> float:
    """Rate d of a jump-driven path X_t = (sum of jumps up to t) + d*t."""
    if isinstance(spec, CompensatedPoisson):
        return spec.drift - spec.rate
    if isinstance(spec, CompoundPoisson):
        return spec.drift - (spec.rate * spec.jump_law.mean() if spec.compensated else 0.0)
    raise ConsistencyError(f"{type(spec).__name__} is not a jump-driven spec")


def _fill_jump(spec: LevySpec, grid: TimeGrid, values: np.ndarray, rngs) -> tuple[JumpRecord, ...]:
    compound = isinstance(spec, CompoundPoisson)
    times, sizes = [], []
    for rng in rngs:
        t = _exact_jump_times(rng, spec.rate, grid.horizon)
        times.append(t)
        if compound:
            sizes.append(spec.jump_law.sample(rng, t.size))
    bounds = np.zeros(len(times) + 1, dtype=np.intp)
    np.cumsum([t.size for t in times], out=bounds[1:])
    # read-only before slicing: a view of a writable base stays writable
    times = _readonly(np.concatenate(times))
    sizes = _readonly(np.concatenate(sizes) if compound else np.ones(times.size))
    if not (times[1:] > times[:-1])[_pairs_within(bounds)].all():
        raise ConsistencyError("jump times must be strictly increasing")
    drift = _path_drift(spec) * grid.points
    for a, block in _row_blocks(values):
        np.add(_jump_values(grid.points, times, sizes, bounds[a:a + len(block) + 1]), drift, out=block)
    ends = bounds.tolist()
    return tuple(JumpRecord._view(times[a:b], sizes[a:b]) for a, b in zip(ends[:-1], ends[1:]))


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
        jump records (times and sizes, read-only views of two arrays shared
        by the ensemble), so Stieltjes sums can be formed without
        discretization error.
    grid:
        Sampling times; values follow the right-continuous convention at
        jump times that fall exactly on grid points.
    n_paths, seed:
        Ensemble size and stream key.  Identical arguments reproduce
        bit-identical output; different seeds give different ensembles.
    path_offset:
        Index of the first path's stream.  Simulating [0, k) and [k, n) in
        two calls concatenates to the single-call [0, n) ensemble.  Each
        path draws from its own stream in turn; grid values are then filled
        in row blocks, and each block is checked finite (``NumericError``).
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
    rngs = _path_rngs(key, path_offset, n_paths)
    values = np.empty((n_paths, grid.n_points, 1))
    jumps = None
    if isinstance(spec, Brownian):
        _fill_brownian(spec, grid, values, rngs)
    elif isinstance(spec, (CompensatedPoisson, CompoundPoisson)):
        jumps = _fill_jump(spec, grid, values, rngs)
    else:
        raise ParameterError(f"unknown driver spec {type(spec).__name__}")
    return PathEnsemble(values=values, grid=grid, adapted=True, continuous=jumps is None,
                        jumps=jumps, spec=spec)


def _check_driver(spec: LevySpec, ensemble: PathEnsemble) -> None:
    """Raise unless the ensemble holds paths of ``spec`` or records no driver."""
    if ensemble.spec is not None and ensemble.spec != spec:
        raise ConsistencyError(f"ensemble holds paths of {ensemble.spec!r}, not of {spec!r}")


def _martingale_spec(spec: LevySpec) -> LevySpec:
    """The driver whose paths are the martingale part M_t = X_t - b*t of spec's."""
    if isinstance(spec, CompoundPoisson):
        return replace(spec, drift=0.0, compensated=True)
    return replace(spec, drift=0.0)


def martingale_part(spec: LevySpec, ensemble: PathEnsemble) -> PathEnsemble:
    """Path-by-path martingale part M_t = X_t - b*t of a simulated driver.

    The result records the martingale driver (spec without drift, and
    compensated) as its spec.  A driver without drift is its own martingale
    part: the input is returned.
    """
    _check_driver(spec, ensemble)
    b = spec.martingale_drift
    if b == 0.0:
        return ensemble
    return replace(ensemble, values=ensemble.values - b * ensemble.grid.points[None, :, None],
                   spec=_martingale_spec(spec))


def reconstruction_residual(spec: LevySpec, ensemble: PathEnsemble) -> float:
    """Max abs error of rebuilding grid values from jump records plus drift.

    Applicable to jump-driven ensembles only; the residual should be at the
    float roundoff level (see tolerance ``exact``).
    """
    _check_driver(spec, ensemble)
    if ensemble.jumps is None:
        raise ConsistencyError("reconstruction needs jump records")
    pts = ensemble.grid.points
    drift = _path_drift(spec) * pts
    times, sizes, bounds = _jump_arrays(ensemble.jumps)
    worst = 0.0
    for a in range(0, ensemble.n_paths, _FILL_ROWS):
        rebuilt = _jump_values(pts, times, sizes, bounds[a:a + _FILL_ROWS + 1]) + drift
        worst = max(worst, float(np.max(np.abs(rebuilt - ensemble.values[a:a + _FILL_ROWS, :, 0]))))
    return worst


# Sampled jump times closer than this count as coincident.  The floor guards
# sampling, not a verdict, so no run overrides it.
_JUMP_SEPARATION = 1e-15


def reject_coincident_jumps(ensemble: PathEnsemble) -> None:
    """Raise if two consecutive jump times of a path are closer than the separation floor."""
    if ensemble.jumps is None:
        raise ConsistencyError("ensemble carries no jump records")
    times, _, bounds = _jump_arrays(ensemble.jumps)
    if (np.diff(times)[_pairs_within(bounds)] < _JUMP_SEPARATION).any():
        raise NumericError("coincident jump times sampled; rerun with a different seed")
