"""Time grids, Monte Carlo path ensembles, and empirical L2-curve reductions.

An ensemble of sampled paths is treated as a curve t -> L2(Omega; R^dim):
expectations become averages over paths, and the curve norm is the sup over
grid points of the root mean squared Euclidean norm.  Every reduction walks
the paths in blocks of paired rows (``_blocks``), so that large ensembles
(1e5 paths x 1e3 grid points) never allocate full-size temporaries.  One
estimator forms every mean over paths (``_moments``); it adds the paths in
row order across blocks, so no output depends on the block size.  Every
path loop of the package takes as many rows as hold ``_BLOCK_BUDGET`` values
of its block's temporaries (``_block_rows``), whatever the grid.

A large call runs its row blocks on one thread per CPU (``_run_blocks``).
Each block is computed exactly as it would be alone, so the output is the
same whether its blocks run in order on one thread or at once on many.
"""

from __future__ import annotations

import contextvars
import numbers
import os
import sys
import threading
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from .errors import (
    ConsistencyError,
    EmptyEnsembleError,
    GridError,
    MissingJumpDataError,
    NumericError,
    ParameterError,
)

if TYPE_CHECKING:
    from .drivers import LevySpec

# float64 values (2 MiB) of the temporaries of a path block: speed and memory, not bits
_BLOCK_BUDGET = 2**18


def _block_rows(values_per_row: int) -> int:
    """Rows of a path block whose rows each allocate ``values_per_row`` values."""
    return max(1, _BLOCK_BUDGET // values_per_row)


# A call's row blocks run on the pool when it holds at least _POOL_ELEMENTS
# elements (rows x points) in rows of at least _POOL_POINTS points.  Below
# the first, handing blocks to threads costs more than it saves; below the
# second, each row's work that holds the GIL (a generator reset, a block's
# Python overhead) outweighs the work that releases it, and two threads
# contending for the GIL ran up to twice as slow as one.
_POOL_ELEMENTS = 2**20
_POOL_POINTS = 768

_pool = None  # (pid that created it, executor), made on the first pooled call
_pool_lock = threading.Lock()


def _workers() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_blocks(fn: Callable, blocks, rows: int, points: int) -> list:
    """``[fn(block) for block in blocks]`` over a call of ``rows`` x ``points``
    elements: on one thread per CPU when the call is large enough (see
    ``_POOL_ELEMENTS``) and the host has more than one CPU, else in order on
    this thread.  Each ``fn`` writes its own rows of a preallocated output
    and never calls this function, since a block that waits on the pool
    could starve it.  Results come in block order, so the first failing
    block's error is raised, as on one thread; every block has finished
    when this returns or raises."""
    global _pool
    blocks = list(blocks)
    if (points < _POOL_POINTS or rows * points < _POOL_ELEMENTS or len(blocks) < 2
            or _workers() < 2):
        return [fn(block) for block in blocks]
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():
            # a forked child has the parent's executor but none of its threads
            from concurrent.futures import ThreadPoolExecutor
            _pool = (os.getpid(), ThreadPoolExecutor(_workers()))
        pool = _pool[1]
    # each block runs in a copy of the caller's context, so np.errstate holds in it
    futures = [pool.submit(contextvars.copy_context().run, fn, block) for block in blocks]
    for f in futures:
        f.exception()  # waits; an error is raised below, in block order
    return [f.result() for f in futures]


def _integer(value, name: str, error: type = ParameterError) -> int:
    """``value`` as a Python int: ``error`` unless it is a Python or numpy
    integer, and not a bool, so a fractional value is not truncated."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    """``value`` as a float if it is a finite real number and not a bool,
    else nan, which fails every comparison a caller checks it by."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return float(value) if real and abs(value) <= sys.float_info.max else np.nan


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only C-contiguous float64 form of ``a`` (a 0-d array stays 0-d)."""
    out = np.asarray(a, dtype=np.float64, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing partition 0 = t_0 < t_1 < ... < t_n = T."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = _readonly(np.array(self.points, dtype=np.float64).ravel())
        object.__setattr__(self, "points", pts)
        if pts.size < 2:
            raise GridError("a grid needs at least one interval")
        if pts[0] != 0.0:
            raise GridError(f"grid must start at 0, got {pts[0]}")
        if not np.all(np.diff(pts) > 0.0):
            raise GridError("grid points must be strictly increasing")

    @classmethod
    def uniform(cls, horizon: float, n_steps: int) -> "TimeGrid":
        end, n_steps = _real(horizon), _integer(n_steps, "n_steps", GridError)
        if not end > 0 or n_steps < 1:
            raise GridError(f"horizon must be finite and positive and n_steps >= 1, "
                            f"got {horizon!r} and {n_steps}")
        return cls(np.linspace(0.0, end, n_steps + 1))

    @property
    def horizon(self) -> float:
        return float(self.points[-1])

    @property
    def n_points(self) -> int:
        return int(self.points.size)

    @property
    def n_intervals(self) -> int:
        return self.n_points - 1

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.points)

    @property
    def mesh(self) -> float:
        return float(np.max(self.dt))

    def index_of(self, t: float) -> int:
        """Index of an exactly matching grid point; GridError if absent."""
        i = int(np.searchsorted(self.points, t))
        if i >= self.n_points or self.points[i] != t:
            raise GridError(f"time {t!r} is not a grid point")
        return i

    def indices_of(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=np.float64)
        idx = np.searchsorted(self.points, times)
        ok = (idx < self.n_points) & (self.points[np.minimum(idx, self.n_points - 1)] == times)
        if not np.all(ok):
            missing = times[~ok]
            raise GridError(f"times not on grid: {missing[:5]!r}")
        return idx

    def augmented(self, extra: np.ndarray) -> "TimeGrid":
        """New grid containing the old points plus the given times in (0, T]."""
        extra = np.asarray(extra, dtype=np.float64).ravel()
        if extra.size and (np.min(extra) <= 0.0 or np.max(extra) > self.horizon):
            raise GridError("augmentation times must lie in (0, T]")
        return TimeGrid(np.union1d(self.points, extra))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeGrid):
            return NotImplemented
        return self.points.shape == other.points.shape and bool(
            np.all(self.points == other.points)
        )

    def __hash__(self) -> int:
        return hash(self.points.tobytes())


def _rows(bounds: np.ndarray) -> np.ndarray:
    """The path of each jump of paths laid out by ``bounds``."""
    return np.repeat(np.arange(len(bounds) - 1), bounds[1:] - bounds[:-1])


def _by_row(a: np.ndarray, bounds: np.ndarray, first: int = 0) -> tuple:
    """``(row, col, m)``: ``a[bounds[0]:bounds[-1]]`` laid out one row per
    path of ``bounds``, each path's entries from column ``first`` on and
    zeros elsewhere, so that ``m[row, col]`` is that slice of ``a``."""
    lo, counts = bounds[0], np.diff(bounds)
    row = _rows(bounds)
    col = np.arange(row.size) - (np.repeat(bounds[:-1], counts) - lo) + first
    m = np.zeros((len(bounds) - 1, first + int(counts.max(initial=0))))
    m[row, col] = a[lo:bounds[-1]]
    return row, col, m


def _jump_values(points: np.ndarray, times: np.ndarray, sizes: np.ndarray,
                 bounds: np.ndarray) -> np.ndarray:
    """Sum of each path's jumps up to each point, a jump at t counted at t.

    Row r of the result is the path ``times[bounds[r]:bounds[r + 1]]``
    (strictly increasing) with its sizes, at the nondecreasing ``points``
    (in any order for one path).  Each row's sizes are summed in time
    order by one cumsum along the row, so a row has the bits of
    ``np.cumsum`` of its path's sizes alone; the zero before the first
    jump is not added to them, so a -0.0 size keeps its sign.
    """
    lo, hi, rows = int(bounds[0]), int(bounds[-1]), len(bounds) - 1
    times = times[lo:hi]
    if rows == 1:
        # the same sums indexed by the count of jumps at or before each
        # point: a few calls where the block form below takes twenty
        cum = np.concatenate(([0.0], np.cumsum(sizes[lo:hi])))
        return cum[np.searchsorted(times, points, side="right")][None]
    n = points.size
    row, col, cum = _by_row(sizes, bounds)
    np.cumsum(cum, axis=1, out=cum)
    # Each row is a run of 0.0 followed by one run per jump, which starts at
    # the first point at or after the jump (a jump after the last point
    # gets an empty run).  Runs are laid out row after row.
    at_jump = np.arange(times.size) + row + 1
    runs = np.zeros(rows + times.size)
    runs[at_jump] = cum[row, col]
    starts = np.repeat(np.arange(rows) * n, np.diff(bounds) + 1)
    starts[at_jump] += np.searchsorted(points, times, side="left")
    return np.repeat(runs, np.diff(starts, append=rows * n)).reshape(rows, n)


@dataclass(frozen=True, eq=False)
class JumpTable:
    """Exact jump times and sizes of paths, end to end and read-only.

    Path r's jumps are ``times[bounds[r]:bounds[r + 1]]``, strictly
    increasing, with the same slice of ``sizes``.  The table has a length.
    An index gives that path's one-path table, and a unit-step slice the
    table of those paths, both views of the arrays; a stepped slice gathers
    its paths into new arrays.  Iteration gives every path's one-path table.
    """

    times: np.ndarray
    sizes: np.ndarray
    bounds: np.ndarray

    def __post_init__(self) -> None:
        t = _readonly(np.asarray(self.times, dtype=np.float64).ravel())
        s = _readonly(np.asarray(self.sizes, dtype=np.float64).ravel())
        b = np.array(self.bounds, dtype=np.intp).ravel()
        b.flags.writeable = False
        if b.size < 1 or b[0] != 0 or (b[1:] < b[:-1]).any() or not b[-1] == t.size == s.size:
            raise ConsistencyError("jump bounds must rise from 0 to the number of jump times and sizes")
        r = _rows(b)
        if not (t[1:] > t[:-1])[r[1:] == r[:-1]].all():
            raise ConsistencyError("jump times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "sizes", s)
        object.__setattr__(self, "bounds", b)

    @property
    def count(self) -> int:
        """The number of jumps of all the table's paths."""
        return int(self.times.size)

    def values_at(self, points: np.ndarray) -> np.ndarray:
        """Each path's sum of jumps up to each of ``points``, in any order, a
        jump at t counted at t (cadlag): shape ``(len(self), points.size)``."""
        points = np.asarray(points, dtype=np.float64)
        order = np.argsort(points, kind="stable")
        out = np.empty((len(self), points.size))
        out[:, order] = _jump_values(points[order], self.times, self.sizes, self.bounds)
        return out

    def __len__(self) -> int:
        return self.bounds.size - 1

    def __getitem__(self, key):
        # an index past the end raises IndexError, which also ends iteration
        paths = range(len(self))[key]
        if isinstance(paths, int):
            paths = range(paths, paths + 1)
        if paths.step != 1:
            rows = np.arange(paths.start, paths.stop, paths.step)
            counts = np.diff(self.bounds)[rows]
            bounds = np.concatenate(([0], np.cumsum(counts)))
            pick = np.arange(bounds[-1]) + np.repeat(self.bounds[rows] - bounds[:-1], counts)
            return JumpTable(self.times[pick], self.sizes[pick], bounds)
        start, stop = paths.start, max(paths.start, paths.stop)
        lo, hi = self.bounds[start], self.bounds[stop]
        return JumpTable(self.times[lo:hi], self.sizes[lo:hi], self.bounds[start:stop + 1] - lo)


@dataclass(frozen=True)
class PathEnsemble:
    """Sampled paths on a common grid, values in R^dim.

    values has shape (n_paths, n_points, dim) and is read-only after
    construction: a read-only float64 array is kept as given, whatever its
    layout (a solver returns a path-major view of its time-major buffer), and
    any other is copied to a read-only C-contiguous array.  Derived ensembles
    are built with :meth:`with_values`.
    Deterministic curves are stored as single-path ensembles and broadcast
    against sampled ones in pairwise operations.

    Flags record how the ensemble was constructed:  ``adapted`` asserts that
    the value at t_j used driver information from [0, t_j] only;
    ``continuous`` marks paths that are continuous by construction;
    ``grid_predictable`` marks left-limit representatives.  ``spec`` is the
    driver whose paths the values are (a martingale part records the
    martingale driver; None for any other ensemble); functions given a driver
    beside its ensemble check it.  ``jumps`` holds the exact jumps of every
    path as one :class:`JumpTable`, or None.
    """

    values: np.ndarray
    grid: TimeGrid
    adapted: bool = False
    continuous: bool = False
    grid_predictable: bool = False
    jumps: JumpTable | None = None
    spec: LevySpec | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim == 2:
            v = v[:, :, None]
        if v.ndim != 3:
            raise ConsistencyError("values must have shape (n_paths, n_points, dim)")
        if v.shape[0] < 1 or v.shape[2] < 1:
            raise EmptyEnsembleError("ensemble needs at least one path and one dimension")
        if v.shape[1] != self.grid.n_points:
            raise ConsistencyError(
                f"values have {v.shape[1]} time slots, grid has {self.grid.n_points}"
            )
        if v.flags.writeable:  # a read-only float64 array is kept as given
            v = _readonly(v)
        object.__setattr__(self, "values", v)
        if not isinstance(self.jumps, (JumpTable, type(None))):
            raise ConsistencyError(f"jumps must be a JumpTable or None, got {type(self.jumps).__name__}")
        if self.jumps is not None and len(self.jumps) != v.shape[0]:
            raise ConsistencyError(f"need a JumpTable of {v.shape[0]} paths, got {len(self.jumps)}")

    @property
    def n_paths(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_points(self) -> int:
        return int(self.values.shape[1])

    @property
    def dim(self) -> int:
        return int(self.values.shape[2])

    def with_values(self, values: np.ndarray) -> "PathEnsemble":
        """Same grid, flags and jumps; new values, which are no driver's paths."""
        return replace(self, values=values, spec=None)

    @classmethod
    def deterministic(
        cls,
        grid: TimeGrid,
        fn: Callable[[np.ndarray], np.ndarray] | float,
        dim: int = 1,
    ) -> "PathEnsemble":
        """Single-path ensemble for a deterministic curve t -> R^dim.

        ``fn`` is either a constant or a vectorized map of the grid points;
        a scalar-valued map is replicated across coordinates.
        """
        t = grid.points
        if callable(fn):
            vals = np.asarray(fn(t), dtype=np.float64)
        else:
            vals = np.full(t.shape, float(fn))
        if vals.ndim == 1:
            vals = np.repeat(vals[:, None], dim, axis=1)
        if vals.shape != (grid.n_points, dim):
            raise ConsistencyError(f"curve values have shape {vals.shape}")
        return cls(
            values=vals[None, :, :],
            grid=grid,
            adapted=True,
            continuous=True,
        )


def _pairing(a: PathEnsemble, b: PathEnsemble) -> int:
    """Validate that two ensembles are path-paired; return common n_paths."""
    if a.grid != b.grid:
        raise ConsistencyError("ensembles live on different grids")
    if a.dim != b.dim and 1 not in (a.dim, b.dim):
        raise ConsistencyError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.n_paths != b.n_paths and 1 not in (a.n_paths, b.n_paths):
        raise ConsistencyError(f"path count mismatch: {a.n_paths} vs {b.n_paths}")
    return max(a.n_paths, b.n_paths)


def _row_slices(n: int, rows: int) -> Iterator[slice]:
    """Consecutive slices of ``rows`` rows covering n rows; the last takes
    the rest.  No output depends on the size (see ``_moments``)."""
    for start in range(0, n, rows):
        yield slice(start, min(start + rows, n))


def _blocks(n: int, *ensembles: PathEnsemble) -> Iterator[tuple]:
    """Row slices of n paired paths, each with every ensemble's values on it.

    Yields ``(slice, values, ...)``.  A single-path (deterministic) ensemble
    paired with n > 1 paths comes whole, shape (1, n_points, dim).  Work on
    a block allocates about a copy or difference of its values and one value
    a point (squares, increments, products), so a slice holds
    ``_block_rows(n_points * (dim + 1))`` rows, dim the largest.  Every
    block is C-contiguous: a view of contiguous values, or a copy of one
    block of values kept in another layout, since numpy sums a block's terms
    in an order that follows its layout, and a reduction must give the same
    bits on a view as on a contiguous copy.
    """
    rows = _block_rows(ensembles[0].n_points * (max(x.dim for x in ensembles) + 1))
    for sl in _row_slices(n, rows):
        yield (sl, *(np.ascontiguousarray(x.values[sl] if x.n_paths == n else x.values)
                     for x in ensembles))


def _moments(blocks: Callable[[], Iterable[np.ndarray]], passes: int = 3) -> tuple:
    """Mean, its SE, the ddof=1 variance and its SE (of the mean squared deviation) along the
    first axis of float64 samples, from the first ``passes`` (1 to 3) of three passes, spreads 0
    for one sample.  Each pass overwrites the blocks a call of ``blocks`` yields afresh and adds
    their rows in order, each block's first row taking in the running total: the bits of np.mean,
    np.var and np.std over two or more columns however the rows are split into blocks.  A lone
    column goes by cumsum, as numpy would sum it pairwise; scalar (1-D) samples are summed
    pairwise, so they come as one block.  ``NumericError`` unless all it returns are finite."""
    def row_sum(step=None):
        total, rows = None, 0
        for block in blocks():
            if step:
                step(block)
            if total is not None:
                block[0] += total
            rows += block.shape[0]
            total = (np.cumsum(block, axis=0)[-1] if block.ndim == 2 and block.shape[1] == 1
                     else np.add.reduce(block))
        return total, rows

    def deviations(block):
        np.square(np.subtract(block, stats[0], out=block), out=block)

    def spreads(block):
        deviations(block)
        np.square(np.subtract(block, ss / n, out=block), out=block)

    with np.errstate(over="ignore", invalid="ignore"):
        total, n = row_sum()
        stats = (total / n,)
        if passes > 1:
            ss = row_sum(deviations)[0]
            var = ss / max(n - 1, 1)  # one sample's sums are 0
            stats += (np.sqrt(var) / np.sqrt(n),)
        if passes > 2:
            stats += (var, np.sqrt(row_sum(spreads)[0] / max(n - 1, 1)) / np.sqrt(n))
    if not all(np.isfinite(x).all() for x in stats):
        raise NumericError("samples, or their mean or spread, are not finite (NaN or overflow)")
    return stats


def _mean_se(samples: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of 1-D ``samples``, as floats: ``_moments``' first two passes."""
    return tuple(map(float, _moments(lambda: [np.array(samples, dtype=float)], 2)))


def _z_score(diff, se):
    """diff / se; where se is 0, a z of 0 needs a diff of exactly 0 and any
    other diff is +-inf, so a check without evidence of agreement fails."""
    diff, se = np.asarray(diff, dtype=float), np.asarray(se, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((se == 0) & (diff == 0), 0.0, diff / se)


def _gap_moments(*pair: PathEnsemble) -> np.ndarray:
    """Per-gridpoint E||a_t - b_t||^2 over the paired paths of ``pair`` (a, b),
    or E||a_t||^2 over the paths of (a,): the mean of each path's squares."""
    def squares():
        for _, d, *b in _blocks(_pairing(pair[0], pair[-1]), *pair):
            d = d - b[0] if b else d
            yield np.einsum("pjd,pjd->pj", d, d)

    return _moments(squares, 1)[0]


def second_moments(ensemble: PathEnsemble) -> np.ndarray:
    """Per-gridpoint E||r_t||^2 estimated by the path average."""
    return _gap_moments(ensemble)


def sup_l2_norm(ensemble: PathEnsemble) -> float:
    """sup over grid points of sqrt(E||r_t||^2)."""
    return float(np.sqrt(np.max(second_moments(ensemble))))


def l2_distance(a: PathEnsemble, b: PathEnsemble) -> float:
    """Sup-L2 norm of the path-pairwise difference a - b.

    Single-path (deterministic) ensembles broadcast against sampled ones.
    """
    return float(np.sqrt(np.max(_gap_moments(a, b))))


@dataclass(frozen=True)
class ModulusReport:
    """Mean-square increment norms over adjacent grid intervals."""

    gaps: np.ndarray
    norms: np.ndarray
    standard_errors: np.ndarray

    @property
    def max_norm(self) -> float:
        return float(np.max(self.norms))

    @property
    def max_standard_error(self) -> float:
        return float(self.standard_errors[int(np.argmax(self.norms))])


def ms_continuity_modulus(ensemble: PathEnsemble) -> ModulusReport:
    """sqrt(E||r_{t_{j+1}} - r_{t_j}||^2) for each adjacent pair of grid points.

    Standard errors are for the reported root-mean-square values (delta
    method), so refinement comparisons can carry statistical slack.
    """
    def squares():
        for _, block in _blocks(ensemble.n_paths, ensemble):
            d = block[:, 1:, :] - block[:, :-1, :]
            yield np.einsum("pjd,pjd->pj", d, d)

    mean_sq, se_mean = _moments(squares, 2)
    norms = np.sqrt(mean_sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        se_norm = np.where(norms > 0, se_mean / (2 * np.maximum(norms, 1e-300)), 0.0)
    return ModulusReport(gaps=ensemble.grid.dt, norms=norms, standard_errors=se_norm)


def left_limit(ensemble: PathEnsemble) -> PathEnsemble:
    """Pre-jump representative of a cadlag ensemble.

    At a grid point that coincides exactly with a recorded jump time the
    value is replaced by the value just before that jump; everywhere else the
    path is unchanged.  When no jump time sits on a grid point (the usual case
    for sampled jumps) the result shares the input's read-only values instead
    of copying them and keeps the driver it records; otherwise it records no
    driver, since its values are no longer the driver's paths.  Continuous
    ensembles and ensembles already flagged as left-limit representatives are
    returned as-is (the map is idempotent).
    """
    if ensemble.grid_predictable:
        return ensemble
    if ensemble.continuous:
        return replace(ensemble, grid_predictable=True)
    if ensemble.jumps is None:
        raise MissingJumpDataError(
            "discontinuous ensemble without jump records has no computable left limit"
        )
    pts, jumps = ensemble.grid.points, ensemble.jumps
    idx = np.searchsorted(pts, jumps.times)
    hit = idx < pts.size
    hit[hit] = pts[idx[hit]] == jumps.times[hit]
    if not hit.any():
        return replace(ensemble, grid_predictable=True)
    # a path's jump times increase strictly, so no (row, index) repeats
    rows = _rows(jumps.bounds)
    values = ensemble.values.copy()
    values[rows[hit], idx[hit], :] -= jumps.sizes[hit, None]
    return replace(ensemble, values=values, grid_predictable=True, spec=None)
