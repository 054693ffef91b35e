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
time, and jumps become grid values through the one function that also
serves ``JumpTable.values_at``.  Jump times are drawn one scalar at a time
and appended, path after path, to one flat array of doubles, with one bound
per path; a compound path's sizes are drawn right after its times.  A
two-point path reads its signs from whole raw 64-bit words, the bits
``Generator.integers(0, 2)`` would read (``_two_point_signs``).  A
jump-driven ensemble keeps its jumps as one read-only ``JumpTable``: an
array of times, one of sizes and the bounds of each path's run.  Each
path's numbers are formed by the same operations in the same order as a
path on its own, so output does not depend on the block size.

A large call fills its blocks on one thread per CPU
(``ensembles._run_blocks``): a Brownian block draws from a generator of its
own, and a jump-driven ensemble turns its table into grid values block by
block once every path's jumps are drawn.  Jump draws stay on the calling
thread, since their loop of scalar draws holds the GIL.  Because every
path has its own stream and every block is formed alone, the output has the
same bits on one thread or many.
"""

from __future__ import annotations

import abc
import array
from dataclasses import dataclass, field, fields, replace
from typing import Iterator

import numpy as np

from .ensembles import (JumpTable, PathEnsemble, TimeGrid, _block_rows, _integer, _jump_values, _row_slices,
                        _rows, _run_blocks)
from .errors import ConsistencyError, NumericError, ParameterError


def _check_finite(params) -> None:
    """Reject a spec or jump law whose float parameters, or the moments and
    drift rates derived from them, are not all finite."""
    for f in fields(params):
        value = getattr(params, f.name)
        if f.type == "float" and not np.isfinite(value):
            raise ParameterError(f"{type(params).__name__}.{f.name} must be finite, got {value}")
    derived = ({"mean": params.mean, "second moment": params.second_moment} if isinstance(params, JumpLaw)
               else {"bracket rate": params.bracket_rate,
                     "drift rate": lambda: (params.martingale_drift, _path_drift(params))})
    for name, term in derived.items():
        try:
            with np.errstate(all="ignore"):
                finite = np.isfinite(term()).all()
        except ArithmeticError:  # a square that overflows, or underflows and then divides
            finite = False
        if not finite:
            raise ParameterError(f"{params!r}: its {name} is not finite")


class JumpLaw(abc.ABC):
    """Jump-size distribution with closed-form first two moments."""

    @abc.abstractmethod
    def mean(self) -> float: ...

    @abc.abstractmethod
    def second_moment(self) -> float: ...

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray: ...


_PM1 = np.array([-1.0, 1.0])


def _two_point_signs(rng: np.random.Generator, n: int) -> np.ndarray:
    """``TwoPointJumps().sample(rng, n)`` for a Philox path stream, which
    carries no 32-bit half: it reads ceil(n/2) whole raw 64-bit words, and
    bit 31 of each 32-bit half, the low half first, picks -1 or +1.  For a
    range of 2, Lemire's bounded integer is bit 31 of a half and never
    rejects, so these are the signs ``integers(0, 2)`` draws; an odd n leaves
    unread the high half that ``integers`` would carry."""
    halves = rng.bit_generator.random_raw((n + 1) // 2).astype("<u8", copy=False).view("<u4")
    return _PM1[halves[:n] >> 31]


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
        if self.rate <= 0:
            raise ParameterError(f"ExponentialJumps.rate must be positive, got {self.rate}")
        _check_finite(self)

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
        if self.scale < 0:
            raise ParameterError(f"NormalJumps.scale must be nonnegative, got {self.scale}")
        _check_finite(self)

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
        if self.volatility < 0:
            raise ParameterError(f"Brownian.volatility must be nonnegative, got {self.volatility}")
        _check_finite(self)

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
        if self.rate <= 0:
            raise ParameterError(f"{type(self).__name__}.rate must be positive, got {self.rate}")
        _check_finite(self)

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
        if self.rate <= 0:
            raise ParameterError(f"{type(self).__name__}.rate must be positive, got {self.rate}")
        _check_finite(self)

    def bracket_rate(self) -> float:
        return self.rate * self.jump_law.second_moment()

    @property
    def martingale_drift(self) -> float:
        comp = 0.0 if self.compensated else self.rate * self.jump_law.mean()
        return self.drift + comp


def standard_poisson(rate: float = 1.0) -> CompensatedPoisson:
    """Plain counting process N_t, read as compensated Poisson plus drift = rate."""
    return CompensatedPoisson(rate=rate, drift=rate)


def _path_counts(n_paths, seed, path_offset) -> tuple[int, int, int]:
    """``(n_paths, seed, path_offset)`` as Python ints: ``ParameterError``
    unless each is an integer (``_integer``), n_paths >= 1, seed and
    path_offset >= 0, and the path indices fit the 64-bit counter word."""
    n_paths = _integer(n_paths, "n_paths")
    path_offset = _integer(path_offset, "path_offset")
    seed = _integer(seed, "seed")
    if n_paths < 1:
        raise ParameterError(f"n_paths must be >= 1, got {n_paths}")
    if path_offset < 0:
        raise ParameterError(f"path_offset must be >= 0, got {path_offset}")
    if path_offset + n_paths > 2**64:
        raise ParameterError(f"path indices must fit the 64-bit counter word, got path_offset "
                             f"{path_offset} and n_paths {n_paths}")
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    return n_paths, seed, path_offset


def child_seed(seed: int, index: int) -> int:
    """Derived integer seed for an indexed substream (e.g. one per driver)."""
    seed, index = _integer(seed, "seed"), _integer(index, "stream index")
    if seed < 0 or index < 0:
        raise ParameterError("seed and stream index must be nonnegative")
    return int(np.random.SeedSequence(entropy=(seed, index)).generate_state(1, np.uint64)[0])


def _path_rngs(key: np.ndarray, offset: int, n: int) -> Iterator[np.random.Generator]:
    """One generator, set to the start of each path's stream in turn."""
    bitgen = np.random.Philox(key=key)
    rng = np.random.Generator(bitgen)
    state = bitgen.state  # setting the state leaves this dict as it is
    # an empty buffer and no carried 32-bit half: each stream starts as a new
    # Philox would.  The setter reads lists faster than arrays.
    state.update(buffer=state["buffer"].tolist(), buffer_pos=4, has_uint32=0, uinteger=0)
    state["state"]["key"] = state["state"]["key"].tolist()
    for path in range(offset, offset + n):
        # counter word 2 holds the absolute path index; words 0-1 advance
        # within the path, so streams never overlap
        state["state"]["counter"] = [0, 0, path, 0]
        bitgen.state = state
        yield rng


def _fill_blocks(values: np.ndarray, fill) -> None:
    """Run ``fill(first row, rows)`` on each row block of ``values[:, :, 0]``
    (on the pool in a large call, see ``ensembles._run_blocks``) and check
    each filled block finite.  A fill row allocates one value a point."""
    def task(rows: slice) -> None:
        block = values[rows, :, 0]
        fill(rows.start, block)
        if not np.isfinite(block).all():
            raise NumericError("simulation produced non-finite values")

    _run_blocks(task, _row_slices(values.shape[0], _block_rows(values.shape[1])), *values.shape[:2])


def _fill_brownian(spec: Brownian, grid: TimeGrid, values: np.ndarray, key: np.ndarray,
                   offset: int) -> None:
    scale = spec.volatility * np.sqrt(grid.dt)
    drift = spec.drift * grid.points

    def fill(a: int, block: np.ndarray) -> None:
        # each block draws from its own generator, set to each of its paths in turn
        steps = np.empty((len(block), grid.n_intervals))
        for row, rng in zip(steps, _path_rngs(key, offset + a, len(block))):
            rng.standard_normal(out=row)
        steps *= scale
        block[:, 0] = 0.0
        np.cumsum(steps, axis=1, out=block[:, 1:])
        block += drift

    _fill_blocks(values, fill)


def _path_drift(spec: LevySpec) -> float:
    """Rate d of a simulated path X_t = (Brownian noise or sum of jumps up to t) + d*t."""
    if isinstance(spec, CompensatedPoisson):
        return spec.drift - spec.rate
    if isinstance(spec, CompoundPoisson):
        return spec.drift - (spec.rate * spec.jump_law.mean() if spec.compensated else 0.0)
    return spec.drift


def _fill_jump(spec: LevySpec, grid: TimeGrid, values: np.ndarray, key: np.ndarray,
               offset: int) -> JumpTable:
    compound = isinstance(spec, CompoundPoisson)
    if compound:
        # a path stream carries no 32-bit half, so two-point signs can come from raw words
        law = spec.jump_law
        sample = _two_point_signs if isinstance(law, TwoPointJumps) else law.sample
    horizon, scale = grid.horizon, 1.0 / spec.rate
    # jump instants in (0, T] from exponential inter-arrival times, in one
    # flat array of doubles: 8 bytes a jump, and no float objects kept
    times, bounds, sizes = array.array("d"), [0], []
    for rng in _path_rngs(key, offset, values.shape[0]):
        draw = rng.exponential
        t = draw(scale)
        while t <= horizon:
            times.append(t)
            t += draw(scale)
        if compound:
            sizes.append(sample(rng, len(times) - bounds[-1]))
        bounds.append(len(times))
    jumps = JumpTable(times, np.concatenate(sizes) if compound else np.ones(len(times)), bounds)
    drift = _path_drift(spec) * grid.points

    def fill(a: int, block: np.ndarray) -> None:
        np.add(_jump_values(grid.points, jumps.times, jumps.sizes, jumps.bounds[a:a + len(block) + 1]),
               drift, out=block)

    _fill_blocks(values, fill)
    return jumps


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
        Driver description; jump-driven specs also produce the exact jumps
        of every path (one ``JumpTable`` of times and sizes), so Stieltjes
        sums can be formed without discretization error.
    grid:
        Sampling times; values follow the right-continuous convention at
        jump times that fall exactly on grid points.
    n_paths, seed:
        Ensemble size and stream key.  Identical arguments reproduce
        bit-identical output; different seeds give different ensembles.
        These and ``path_offset`` must be Python or numpy integers (not
        bools), or ``ParameterError`` is raised.
    path_offset:
        Index of the first path's stream.  Simulating [0, k) and [k, n) in
        two calls concatenates to the single-call [0, n) ensemble.  Path
        indices fill one 64-bit counter word, so ``path_offset + n_paths``
        may not pass 2**64 (``ParameterError``).  Each path draws from its
        own stream in turn; grid values are then filled in row blocks, and
        each block is checked finite (``NumericError``).
    threads:
        Ignored: no argument sets a thread count.  A call of at least 2**20
        values in rows of at least 768 points fills its row blocks on one
        thread per CPU, and any other call runs on the calling thread, with
        the same bits either way.  Kept only because the benchmark probe
        ``perfbench/workloads.py::threads_baseline`` passes it; the keyword
        and the probe are retired together.
    """
    n_paths, seed, path_offset = _path_counts(n_paths, seed, path_offset)
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    values = np.empty((n_paths, grid.n_points, 1))
    jumps = None
    if isinstance(spec, Brownian):
        _fill_brownian(spec, grid, values, key, path_offset)
    elif isinstance(spec, (CompensatedPoisson, CompoundPoisson)):
        jumps = _fill_jump(spec, grid, values, key, path_offset)
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
    pts, jumps = ensemble.grid.points, ensemble.jumps
    drift = _path_drift(spec) * pts
    worst = 0.0
    for rows in _row_slices(ensemble.n_paths, _block_rows(2 * pts.size)):  # rebuilt values, errors
        rebuilt = _jump_values(pts, jumps.times, jumps.sizes, jumps.bounds[rows.start:rows.stop + 1])
        worst = max(worst, float(np.max(np.abs(rebuilt + drift - ensemble.values[rows, :, 0]))))
    return worst


# Sampled jump times closer than this count as coincident.  The floor guards
# sampling, not a verdict, so no run overrides it.
_JUMP_SEPARATION = 1e-15


def reject_coincident_jumps(ensemble: PathEnsemble) -> None:
    """Raise if two consecutive jump times of a path are closer than the separation floor."""
    if ensemble.jumps is None:
        raise ConsistencyError("ensemble carries no jump records")
    rows = _rows(ensemble.jumps.bounds)
    if (np.diff(ensemble.jumps.times) < _JUMP_SEPARATION)[rows[1:] == rows[:-1]].any():
        raise NumericError("coincident jump times sampled; rerun with a different seed")
