"""Left-endpoint Riemann-sum stochastic integrals and mesh-refinement studies.

The integral of an adapted curve Phi against a driver path M is approximated
per path by sums of Phi at the left partition endpoint times the increment of
M over the interval; refining the partition witnesses the L2 limit.  The
integrand is evaluated AT the left endpoint (including any jump sitting
exactly there), never at its left limit; that convention is what makes the
limit agree with the Ito integral of the left-limit representative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drivers import LevySpec, martingale_part
from .ensembles import (PathEnsemble, TimeGrid, _blocks, _mean_se, _moments, _pairing, _run_blocks,
                        _z_score)
from .errors import (
    AdaptednessError,
    ConsistencyError,
    GridError,
    InsufficientDataError,
    ParameterError,
)


@dataclass(frozen=True)
class RiemannSumResult:
    """Per-path left-endpoint sums at the partition's final time."""

    values: np.ndarray  # (n_paths, dim)

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.values)):
            raise ConsistencyError("partition sums must be finite")

    def scalar(self) -> np.ndarray:
        if self.values.shape[1] != 1:
            raise ConsistencyError("result is not scalar")
        return self.values[:, 0]


@dataclass(frozen=True)
class MeshStudy:
    """Squared L2 differences of partition sums against a reference.

    ``reference_mesh`` is the finest partition when the reference is the
    finest-mesh sum, or None when the reference is a closed-form value.
    """

    meshes: np.ndarray
    sq_differences: np.ndarray
    standard_errors: np.ndarray
    rate_exponent: float
    reference_mesh: float | None

    def __post_init__(self) -> None:
        if np.any(np.diff(self.meshes) >= 0):
            raise ConsistencyError("meshes must be strictly decreasing")
        if np.any(self.sq_differences < 0):
            raise ConsistencyError("squared differences must be nonnegative")


# rows per block in riemann_sum: small blocks keep its products in cache
# (each path's sum is the same at any block size)
_SUM_ROWS = 128


def _require_adapted(phi: PathEnsemble) -> None:
    if not phi.adapted:
        raise AdaptednessError("integrand must be flagged adapted")


def _partition_indices(grid: TimeGrid, partition: TimeGrid) -> np.ndarray:
    try:
        return grid.indices_of(partition.points)
    except GridError as exc:
        raise GridError(f"partition is not contained in the grid: {exc}") from exc


def riemann_sum(
    phi: PathEnsemble, m: PathEnsemble, partition: TimeGrid
) -> RiemannSumResult:
    """Per-path sum of phi at left endpoints times increments of m.

    phi and m must be path-paired (common randomness) and both grids must
    contain every partition point exactly.
    """
    _require_adapted(phi)
    n = _pairing(phi, m)
    if m.dim != 1:
        raise ConsistencyError("integrator must be scalar")
    # _pairing requires one grid for phi and m, so one index array serves both
    pi = _partition_indices(phi.grid, partition)
    step = int(pi[1] - pi[0])
    # a uniform partition is a slice: views, where an index array copies
    cols = slice(int(pi[0]), int(pi[-1]) + 1, step) if np.all(np.diff(pi) == step) else pi
    out = np.empty((n, phi.dim))

    def sum_block(block: tuple) -> None:
        sl, pv, mv = block
        dm = np.diff(mv[:, cols, 0], axis=1)
        # a one-path side broadcasts against the other's paths; the reduction
        # adds each path's terms along time alone, so a path's sum does not
        # depend on its block or its neighbours
        out[sl] = np.add.reduce(pv[:, cols, :][:, :-1, :] * dm[:, :, None], axis=1)

    _run_blocks(sum_block, _blocks(n, phi, m, rows=_SUM_ROWS), n, pi.size)
    return RiemannSumResult(values=out)


def _left_sums(phi: PathEnsemble, m: PathEnsemble) -> np.ndarray:
    """Per-path cumulative sums of phi at left endpoints times increments of
    the scalar m, starting at 0 on the common grid."""
    n = max(phi.n_paths, m.n_paths)
    out = np.empty((n, phi.grid.n_points, phi.dim))
    out[:, 0, :] = 0.0
    for sl, pv, mv in _blocks(n, phi, m):
        steps = pv[:, :-1, :] * np.diff(mv[:, :, 0], axis=1)[:, :, None]
        np.cumsum(steps, axis=1, out=out[sl, 1:, :])
    return out


def integral_process(phi: PathEnsemble, m: PathEnsemble) -> PathEnsemble:
    """Cumulative left-endpoint sums of phi against m on their common grid.

    The result starts at 0 and is adapted; it is continuous exactly when the
    integrator is.
    """
    _require_adapted(phi)
    _pairing(phi, m)
    if m.dim != 1:
        raise ConsistencyError("integrator must be scalar")
    return PathEnsemble(
        values=_left_sums(phi, m),
        grid=phi.grid,
        adapted=True,
        continuous=m.continuous,
    )


def bochner_integral(phi: PathEnsemble) -> PathEnsemble:
    """Cumulative left-endpoint time quadrature: sum of phi_{t_i} * dt_i.

    This is the left sum of phi against the time curve t, so phi need not be
    adapted; the result keeps phi's adaptedness flag.
    """
    return PathEnsemble(
        values=_left_sums(phi, PathEnsemble.deterministic(phi.grid, lambda t: t)),
        grid=phi.grid,
        adapted=phi.adapted,
        continuous=True,
    )


def levy_integral(phi: PathEnsemble, spec: LevySpec, x: PathEnsemble) -> PathEnsemble:
    """Integral of phi against the full driver X = M + b*t.

    Computed literally as the martingale-part integral plus b times the time
    quadrature, so the decomposition recombines exactly per path.
    """
    m = martingale_part(spec, x)
    mart = integral_process(phi, m)
    b = spec.martingale_drift
    if b == 0.0:
        return mart
    time_part = bochner_integral(phi)
    return mart.with_values(mart.values + b * time_part.values)


def mesh_convergence_study(
    phi: PathEnsemble,
    m: PathEnsemble,
    meshes: np.ndarray,
    t: float,
) -> MeshStudy:
    """Cauchy-in-mesh evidence: partition sums against the finest-mesh sum.

    All partitions are uniform subdivisions of [0, t] nested in the common
    simulation grid; the finest mesh provides the per-path reference values
    and the remaining meshes report E|Y_mesh - Y_ref|^2 with standard errors
    plus a least-squares rate exponent in log-log coordinates.
    """
    meshes = _mesh_list(meshes, 3)
    if phi.grid != m.grid:
        raise ConsistencyError("study needs a common simulation grid")

    partitions = [uniform_partition(phi.grid, t, h) for h in meshes]
    ref = riemann_sum(phi, m, partitions[-1]).values
    return _mesh_study(phi, m, partitions[:-1], ref, float(partitions[-1].mesh))


def _mesh_list(meshes: np.ndarray, least: int) -> np.ndarray:
    """``meshes`` as floats, checked: ``least`` or more, strictly decreasing, finite and positive."""
    meshes = np.asarray(meshes, dtype=np.float64)
    if meshes.size < least:
        raise InsufficientDataError(f"a mesh study needs {least} or more meshes")
    if np.any(np.diff(meshes) >= 0):
        raise InsufficientDataError("meshes must be strictly decreasing")
    if not np.all(np.isfinite(meshes) & (meshes > 0.0)):
        raise ParameterError(f"meshes must be finite and positive, got {meshes.tolist()!r}")
    return meshes


def _mesh_study(phi: PathEnsemble, m: PathEnsemble, partitions: list[TimeGrid],
                reference: np.ndarray, reference_mesh: float | None) -> MeshStudy:
    """E||Y_mesh - reference||^2 with standard errors for each partition.

    ``reference`` holds per-path values of shape (n_paths, dim).  A finest
    ``reference_mesh`` closes the table with its zero self-difference; the
    rate fit uses the positive entries only.
    """
    rows = []
    for part in partitions:
        diff = riemann_sum(phi, m, part).values - reference
        rows.append((float(part.mesh), *_mean_se(np.einsum("pd,pd->p", diff, diff))))
    if reference_mesh is not None:
        rows.append((reference_mesh, 0.0, 0.0))
    meshes, sq_diffs, ses = (np.array(column) for column in zip(*rows))
    return MeshStudy(meshes=meshes, sq_differences=sq_diffs, standard_errors=ses,
                     rate_exponent=fit_rate_exponent(meshes, sq_diffs), reference_mesh=reference_mesh)


def uniform_partition(grid: TimeGrid, t: float, mesh: float) -> TimeGrid:
    """Uniform-stride subset of a uniform grid partitioning [0, t].

    The requested mesh must be an integer multiple of the grid spacing and
    divide t; the returned partition's points are grid points, so sums over
    it incur no interpolation.
    """
    dt = grid.dt
    h = float(dt[0])
    if not np.allclose(dt, h, rtol=0, atol=1e-12 * h):
        raise GridError("uniform partitions need a uniform base grid")
    ratio = mesh / h
    # a nan or infinite ratio is no multiple of h
    stride = round(ratio) if np.isfinite(ratio) else 0
    if stride < 1 or abs(stride * h - mesh) > 1e-9 * h:
        raise GridError(f"mesh {mesh} is not a multiple of the grid spacing {h}")
    end = grid.index_of(t)
    if end % stride != 0:
        raise GridError(f"mesh {mesh} does not divide [0, {t}]")
    return TimeGrid(grid.points[: end + 1 : stride])


def fit_rate_exponent(meshes: np.ndarray, sq_diffs: np.ndarray) -> float:
    """Least-squares slope of log squared difference against log mesh."""
    mask = sq_diffs > 0
    if np.count_nonzero(mask) < 2:
        return float("nan")
    slope, _ = np.polyfit(np.log(meshes[mask]), np.log(sq_diffs[mask]), 1)
    return float(slope)


def increment_independence_z(phi: PathEnsemble, m: PathEnsemble) -> np.ndarray:
    """Per-interval z-scores of cov(phi_{t_i}, M_{t_{i+1}} - M_{t_i}).

    Adapted integrands against independent-increment drivers should produce
    covariances compatible with zero; large |z| indicates look-ahead bias.
    Multidimensional integrands are reduced along coordinates by averaging.
    The covariance is the mean of the centred products
    (phi_{t_i} - mean)(dM_i - mean), divided by their standard error, so
    neither cancels against the product of the means when the paths drift.
    """
    n = _pairing(phi, m)
    if n < 2:
        raise ConsistencyError("covariance needs at least two paths")

    def pairs():
        for _, pv, mv in _blocks(n, phi, m):
            yield pv[:, :-1, :].mean(axis=2), np.diff(mv[:, :, 0], axis=1)

    # the means first, then the products centred at them; a single path is
    # its own mean, so a deterministic side centres to exactly 0
    means = [x[0] if e.n_paths == 1 else _moments(lambda i=i: (pair[i] for pair in pairs()), 1)[0]
             for i, (x, e) in enumerate(zip(next(pairs()), (phi, m)))]
    return _z_score(*_moments(lambda: ((p - means[0]) * (d - means[1]) for p, d in pairs()), 2))
