"""Mild solutions of Levy-driven evolution equations in spectral coordinates.

The generator acts diagonally as -mu_k on coordinate k, so the semigroup is
the exact exponential diag(e^{-mu_k t}) and the mild form

    r_t = S_t h0 + int_0^t S_{t-s} alpha(s, r_s) ds
               + sum_i int_0^t S_{t-s} sigma_i(s, r_s) dX^i_s

is discretized with left-endpoint sums and exact per-interval decay factors;
the stochastic convolution and every Picard sweep share that one recursion,
and plain Picard is the one-block case of the block-restarted solver.
Picard iteration on the whole curve converges in sup-L2; on a finite grid
the left-endpoint integral operator is nilpotent, so iterates stabilize
exactly once information has propagated across the grid.

Coefficient maps take (t, state) with state of shape (n_paths, dim) and must
return the same shape; their Lipschitz constants are declared by the caller
and spot-checked on random pairs.  A map must be pure and act row by row
(one row per path): row i of its value depends on t and row i of state
only.  A sweep calls the maps on blocks of paths, on one thread per CPU
when the solve is large, and ``path_offset`` chunks call them on slices;
both reproduce one call over all paths only for such a map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .drivers import LevySpec, _check_driver, child_seed, simulate_paths
from .ensembles import ModulusReport, PathEnsemble, TimeGrid, _pairing, _run_blocks, ms_continuity_modulus
from .errors import AdaptednessError, ConsistencyError, DomainError, NumericError, ParameterError

CoefficientMap = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SpectralOperator:
    """Diagonal generator with eigenvalues -mu_k and exact exponential semigroup."""

    eigenvalues: np.ndarray

    def __post_init__(self) -> None:
        mu = np.ascontiguousarray(np.asarray(self.eigenvalues, dtype=np.float64).ravel())
        mu.flags.writeable = False
        object.__setattr__(self, "eigenvalues", mu)
        if mu.size < 1:
            raise ParameterError("operator needs at least one eigenvalue")
        if np.any(mu < 0):
            raise ParameterError("eigenvalues must be nonnegative")

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)


def heat_operator(dim: int) -> SpectralOperator:
    """Dirichlet Laplacian spectrum on (0, pi) truncated to dim modes: mu_k = k^2."""
    return SpectralOperator(np.arange(1, dim + 1, dtype=np.float64) ** 2)


def semigroup_apply(op: SpectralOperator, t: float, state: np.ndarray) -> np.ndarray:
    """Apply S_t coordinatewise: state_k * e^{-mu_k t}."""
    if t < 0:
        raise DomainError(f"semigroup time must be nonnegative, got {t}")
    state = np.asarray(state, dtype=np.float64)
    if state.shape[-1] != op.dim:
        raise ConsistencyError(f"state dimension {state.shape[-1]} != operator dim {op.dim}")
    return state * np.exp(-op.eigenvalues * t)


def pseudo_contractivity_bound(op: SpectralOperator) -> float:
    """Growth rate omega with ||S_t|| <= e^{omega t}; tight for diagonal operators."""
    return float(-np.min(op.eigenvalues))


@dataclass(frozen=True)
class SpdeProblem:
    """Evolution problem: generator, initial state, coefficients, drivers.

    ``alpha`` and each of ``sigmas`` map (t, state) to an array of the
    state's shape (n_paths, dim); each must be pure and act row by row, one
    row per path, since solvers call it on blocks of paths (see the module
    docstring).  A problem with no ``alpha`` and only ``constant_map``
    sigmas is state-free: its second Picard sweep would repeat the first,
    so Picard reports that sweep's distance 0.0 without running it.
    """

    operator: SpectralOperator
    h0: np.ndarray
    alpha: CoefficientMap | None = None
    alpha_lipschitz: float = 0.0
    sigmas: tuple[CoefficientMap, ...] = ()
    sigma_lipschitz: tuple[float, ...] = ()
    drivers: tuple[LevySpec, ...] = ()

    def __post_init__(self) -> None:
        h0 = np.ascontiguousarray(np.asarray(self.h0, dtype=np.float64).ravel())
        h0.flags.writeable = False
        object.__setattr__(self, "h0", h0)
        if h0.size != self.operator.dim:
            raise ParameterError("h0 dimension does not match the operator")
        if len(self.sigmas) != len(self.drivers) or len(self.sigmas) != len(self.sigma_lipschitz):
            raise ParameterError("need matching sigmas, Lipschitz constants, and drivers")
        if self.alpha is None and self.alpha_lipschitz != 0.0:
            raise ParameterError("alpha_lipschitz must be 0 when alpha is absent")
        for name, L in [("alpha", self.alpha_lipschitz)] + [
            (f"sigma[{i}]", Li) for i, Li in enumerate(self.sigma_lipschitz)
        ]:
            if not np.isfinite(L) or L < 0:
                raise ParameterError(f"Lipschitz constant for {name} must be finite and >= 0")

    @property
    def dim(self) -> int:
        return self.operator.dim


@dataclass(frozen=True, eq=False)
class constant_map:
    """State-independent coefficient ``value``, a number or one per coordinate."""

    value: float | np.ndarray = 1.0
    lipschitz = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", np.asarray(self.value, dtype=np.float64))

    def __call__(self, t: float, state: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.value, state.shape)


@dataclass(frozen=True)
class scaled_identity:
    """Coefficient a*state; its Lipschitz constant is |a|."""

    coefficient: float

    @property
    def lipschitz(self) -> float:
        return abs(self.coefficient)

    def __call__(self, t: float, state: np.ndarray) -> np.ndarray:
        return self.coefficient * state


def spot_check_lipschitz(problem: SpdeProblem, horizon: float, seed: int = 0) -> None:
    """Verify each map's declared Lipschitz constant on 32 random state pairs, to a 1e-9 slack."""
    n_pairs, tol = 32, 1e-9  # the slack is both relative and absolute
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), 0x11B5)))
    maps = []
    if problem.alpha is not None:
        maps.append(("alpha", problem.alpha, problem.alpha_lipschitz))
    maps += [
        (f"sigma[{i}]", f, L)
        for i, (f, L) in enumerate(zip(problem.sigmas, problem.sigma_lipschitz))
    ]
    for name, f, L in maps:
        x = rng.normal(size=(n_pairs, problem.dim))
        y = rng.normal(size=(n_pairs, problem.dim))
        t = rng.uniform(0.0, horizon, size=n_pairs)
        for i in range(n_pairs):
            with np.errstate(all="ignore"):
                lhs = np.linalg.norm(f(t[i], x[i : i + 1]) - f(t[i], y[i : i + 1]))
                rhs = L * np.linalg.norm(x[i] - y[i])
            if not np.isfinite(lhs):  # a value, or the gap between two, is not finite
                raise ParameterError(f"{name} is not finite, or too large to compare, at t={t[i]:.6g}")
            if lhs > rhs * (1.0 + tol) + tol:
                raise ParameterError(
                    f"declared Lipschitz constant {L} for {name} violated: {lhs:.3e} > {rhs:.3e}"
                )


def stochastic_convolution(
    op: SpectralOperator, phi: PathEnsemble, spec: LevySpec, x: PathEnsemble
) -> PathEnsemble:
    """Left-endpoint convolution sums S_{t_j - t_i} phi_{t_i} (X_{t_{i+1}} - X_{t_i}).

    Computed by the one-step recursion Y_{j+1} = S_{dt_j}(Y_j + phi_j dX_j),
    whose accumulated decay factors equal the exact exponentials
    e^{-mu_k (t_j - t_i)}; no operator splitting is involved.  The
    recursion runs time-major, and the result's values are a read-only
    path-major view of the buffer it wrote, not a copy.
    """
    if not phi.adapted:
        raise AdaptednessError("convolution integrand must be adapted")
    _check_driver(spec, x)
    if phi.grid != x.grid:
        raise ConsistencyError("convolution needs a common grid")
    if x.dim != 1:
        raise ConsistencyError("driver must be scalar")
    if phi.dim != op.dim:
        raise ConsistencyError(f"integrand dim {phi.dim} != operator dim {op.dim}")
    grid = phi.grid
    decay = np.exp(-np.outer(grid.dt, op.eigenvalues))  # (n_steps, dim)
    # time-major: contiguous per-step slices keep the recursion
    # memory-friendly; elementwise operation order (hence the result) is
    # unchanged by the layout
    pv = np.ascontiguousarray(np.transpose(phi.values, (1, 0, 2)))
    dx = np.ascontiguousarray(np.diff(x.values[:, :, 0], axis=1).T)
    out = np.empty((grid.n_points, _pairing(phi, x), op.dim))
    out[0] = 0.0
    for _ in _sweep(decay, out, lambda j: pv[j] * dx[j][:, None]):
        pass
    return _path_major(out, grid, x.continuous)


def _path_major(buf: np.ndarray, grid: TimeGrid, continuous: bool) -> PathEnsemble:
    """The adapted ensemble of the time-major ``buf`` (n_points, n_paths,
    dim), frozen and returned as its path-major view: no copy is made."""
    buf.flags.writeable = False
    return PathEnsemble(values=np.transpose(buf, (1, 0, 2)), grid=grid, adapted=True,
                        continuous=continuous)


@dataclass(frozen=True)
class PicardReport:
    """Successive sup-L2 iterate distances and the convergence verdict."""

    distances: tuple[float, ...]
    tolerance: float

    @property
    def iterations(self) -> int:
        return len(self.distances)

    @property
    def residual(self) -> float:
        return self.distances[-1]

    @property
    def converged(self) -> bool:
        return self.residual < self.tolerance

    @property
    def ratios(self) -> tuple[float, ...]:
        return tuple(b / a if a > 0 else 0.0 for a, b in zip(self.distances, self.distances[1:]))


def mild_solution_picard(
    problem: SpdeProblem,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    tol: float = 1e-6,
    max_iter: int = 50,
    path_offset: int = 0,
) -> tuple[PathEnsemble, PicardReport]:
    """Solve the mild fixed-point equation by Picard iteration.

    This is the one-block case of ``mild_solution_restarted``.  The drivers
    are simulated once (one derived seed per driver) and shared by every
    iterate, so successive iterates are coupled by common random numbers.
    Each iterate applies the one-step recursion

        r_{j+1} = S_{dt_j} (r_j + alpha(t_j, prev_j) dt_j
                                 + sum_i sigma_i(t_j, prev_j) dX^i_j)

    with r_0 = h0, which telescopes to the left-endpoint mild sums with
    exact semigroup factors; ``stochastic_convolution`` runs the same
    recursion.  Iteration stops when the sup-L2 distance between consecutive
    iterates falls below ``tol``; non-convergence within ``max_iter`` is
    reported, not raised.

    Memory scales as n_paths * n_points * dim: the iteration holds one
    time-major solution and the driver increments, plus a drive, a product
    and a gap buffer of one step each (n_paths * dim, made once per window).
    The solution returned is that iterate, frozen and seen path-major (its
    ``values`` are a read-only transposed view), not a copy.  Chunk large
    ensembles with ``path_offset`` (per-path streams make chunked runs
    reproduce the corresponding slice of a single large run).
    """
    solution, (report,) = mild_solution_restarted(
        problem, grid, n_paths, seed, tol=tol, max_iter=max_iter, n_blocks=1,
        path_offset=path_offset,
    )
    return solution, report


def mild_solution_restarted(
    problem: SpdeProblem,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    tol: float = 1e-6,
    max_iter: int = 50,
    n_blocks: int = 2,
    path_offset: int = 0,
) -> tuple[PathEnsemble, tuple[PicardReport, ...]]:
    """Chain Picard solves over consecutive sub-blocks of the grid.

    When the plain iteration contracts too slowly on [0, T], the same
    fixed-point equation restarted on shorter blocks converges with far
    fewer sweeps per block: each block takes the previous block's terminal
    values as its initial state.  Drivers are still simulated once over the
    whole grid, so the chained solution solves the same discrete fixed-point
    equation as a fully converged single-block run.

    The iteration holds one time-major solution (plus the driver
    increments), and the solution returned is a read-only path-major view
    of it, so at return the peak is one solution.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ParameterError(f"tol must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ParameterError("max_iter must be >= 1")
    if not 1 <= n_blocks <= grid.n_intervals:
        raise ParameterError(f"n_blocks must lie in [1, {grid.n_intervals}]")
    spot_check_lipschitz(problem, grid.horizon, seed=seed)

    increments = []
    continuous = True
    for i, spec in enumerate(problem.drivers):
        ens = simulate_paths(spec, grid, n_paths, child_seed(seed, i), path_offset=path_offset)
        # increments[i][j] is the contiguous path vector of step j
        increments.append(np.ascontiguousarray(np.diff(ens.values[:, :, 0], axis=1).T))
        continuous = continuous and ens.continuous
        del ens
    bounds = np.linspace(0, grid.n_intervals, n_blocks + 1).round().astype(int)
    vals = np.empty((grid.n_points, n_paths, problem.dim))
    vals[0] = problem.h0
    reports = tuple(
        _picard_window(
            problem, grid.points[b0 : b1 + 1], vals[b0 : b1 + 1],
            [inc[b0:b1] for inc in increments], tol, max_iter,
        )
        for b0, b1 in zip(bounds[:-1], bounds[1:])
    )
    return _path_major(vals, grid, continuous), reports


def _sweep(
    decay: np.ndarray, out: np.ndarray, drive: Callable[[int], np.ndarray]
) -> Iterator[tuple[int, np.ndarray]]:
    """The mild recursion out[j+1] = decay[j] * (out[j] + drive(j)), in place.

    ``out`` is time-major with ``out[0]`` set by the caller.  Each new row is
    formed in one row buffer and yielded as ``(j + 1, row)`` while
    ``out[j + 1]`` still holds its old value; ``drive(j + 1)`` is called next,
    and then the row is written.  So ``drive(j)`` and the caller see row j of
    what ``out`` held before the sweep, and a sweep needs no second buffer.
    """
    n_steps = decay.shape[0]
    row = np.empty(out.shape[1:])
    d = drive(0)
    for j in range(n_steps):
        np.add(out[j], d, out=row)
        np.multiply(decay[j], row, out=row)
        yield j + 1, row
        if j + 1 < n_steps:
            d = drive(j + 1)
        out[j + 1] = row


# np.einsum sums a contiguous float64 array in pieces of _SQ_PIECE elements,
# adding each piece's sum to its running total in order from 0.0 (checked by
# test_piecewise_fold_is_einsum in tests/test_spde.py).  A path block that
# starts on a piece boundary can therefore sum its own pieces, and the pieces
# folded in path order give the einsum over all paths.
_SQ_PIECE = 8192
# pieces per path block, at least: a pooled block's step must release the
# GIL for long enough to outweigh the Python work it holds it for
_BLOCK_PIECES = 4


def _piece_sums(gap: np.ndarray, out: np.ndarray) -> None:
    """The sum of squares of each ``_SQ_PIECE``-element piece of ``gap``
    (contiguous), in order, into ``out``: the whole pieces in one einsum call,
    a row each, then the shorter last piece if there is one."""
    flat = gap.reshape(-1)
    whole = flat.size // _SQ_PIECE
    body = flat[:whole * _SQ_PIECE].reshape(whole, _SQ_PIECE)
    np.einsum("ij,ij->i", body, body, out=out[:whole])
    if whole * _SQ_PIECE < flat.size:
        tail = flat[whole * _SQ_PIECE:]
        out[whole] = np.einsum("i,i->", tail, tail)


def _sq_norms(pieces: np.ndarray) -> np.ndarray:
    """Fold each row of piece sums in order from 0.0, as np.einsum does."""
    total = np.zeros(pieces.shape[0])
    for column in pieces.T:
        total += column
    return total


def _picard_window(
    problem: SpdeProblem,
    pts: np.ndarray,
    vals: np.ndarray,
    increments: list[np.ndarray],
    tol: float,
    max_iter: int,
) -> PicardReport:
    """Picard iteration on one window, written into ``vals`` in place.

    ``pts`` carries absolute times (coefficients see them); ``vals`` is the
    time-major window (n_points, n_paths, dim) with ``vals[0]`` holding the
    initial values.  ``vals`` is the only iterate held: it starts as the
    flow-only guess, and each sweep overwrites it row by row with the next
    iterate (``_sweep``), accumulating the sup-L2 iterate distance as it goes.

    A sweep runs in path blocks, on the pool when the window is large (see
    ``ensembles._run_blocks``).  Each path's recursion involves no other
    path, since coefficient maps act row by row, and each block starts on a
    ``_SQ_PIECE`` boundary, so the iterates and distances are those of one
    sweep over all paths.  Each block has a drive, a product and a gap
    buffer of one step, made once per window, so a step allocates only what
    the coefficient maps return.  A state-free problem (no alpha, every
    sigma a ``constant_map``) drives every sweep alike, so its second sweep
    would give the first iterate again: it is not run, and its distance 0.0
    is reported.
    """
    dts = np.diff(pts)
    mu = problem.operator.eigenvalues
    decay = np.exp(-np.outer(dts, mu))

    # the flow-only initial guess, row by row (a broadcast would allocate a
    # second window); its row 0 is vals[0] * 1.0, the initial values
    flow = np.exp(-np.outer(pts - pts[0], mu))
    for j in range(pts.size):
        np.multiply(vals[0], flow[j], out=vals[j])

    n_paths, dim = vals.shape[1:]
    # rows per block: the fewest that hold a whole number of pieces, at least
    # _BLOCK_PIECES of them.  The last block takes the rest, half a block to
    # one and a half unless it is the only one: a thread with next to no rows
    # to sweep would only add waiting for the GIL.
    unit = _SQ_PIECE // math.gcd(_SQ_PIECE, dim)
    rows = unit * -(-_BLOCK_PIECES * _SQ_PIECE // (unit * dim))
    starts = [i * rows for i in range(max(1, round(n_paths / rows)))]
    pieces = np.zeros((pts.size, -(-n_paths * dim // _SQ_PIECE)))
    # each block's drive, product and gap buffers are made here, not on a
    # pool thread, and reused by every step and sweep
    blocks = [(r0, *np.empty((3, r1 - r0, dim))) for r0, r1 in zip(starts, starts[1:] + [n_paths])]

    def sweep_block(block) -> None:
        r0, buf, tmp, gap = block
        r1 = r0 + len(buf)
        out, incs = vals[:, r0:r1], [inc[:, r0:r1] for inc in increments]
        sums = pieces[:, r0 * dim // _SQ_PIECE:]

        def drive(j: int) -> np.ndarray:
            # each term is formed in tmp and added to buf, the first to 0.0
            t_j, prev = float(pts[j]), out[j]
            buf.fill(0.0)
            if problem.alpha is not None:
                np.add(buf, np.multiply(problem.alpha(t_j, prev), dts[j], out=tmp), out=buf)
            for sigma, inc in zip(problem.sigmas, incs):
                np.add(buf, np.multiply(sigma(t_j, prev), inc[j][:, None], out=tmp), out=buf)
            return buf

        for k, row in _sweep(decay, out, drive):
            np.subtract(row, out[k], out=gap)
            _piece_sums(gap, sums[k])

    state_free = problem.alpha is None and all(type(s) is constant_map for s in problem.sigmas)
    distances: list[float] = []
    for _ in range(max_iter):
        # the gate reads a window as pts.size - 1 rows (steps) of
        # n_paths * dim values: per step a block holds the GIL for a fixed
        # time and releases it over at least _BLOCK_PIECES pieces
        _run_blocks(sweep_block, blocks, pts.size - 1, n_paths * dim)
        d = float(np.sqrt(np.max(_sq_norms(pieces)) / n_paths))
        if not np.isfinite(d):
            raise NumericError("Picard iterate diverged to NaN or overflow")
        distances.append(d)
        if d < tol:
            break
        if state_free and max_iter > 1:
            distances.append(0.0)
            break
    return PicardReport(distances=tuple(distances), tolerance=tol)


def linear_variance_oracle(
    op: SpectralOperator, sigma_consts: np.ndarray, spec: LevySpec, t: float
) -> np.ndarray:
    """Closed-form per-coordinate variance for constant diagonal noise.

    With alpha = 0 and sigma_k constant, coordinate k of the solution is the
    convolution of e^{-mu_k s} against the driver martingale, so its
    variance at time t is c * sigma_k^2 * (1 - e^{-2 mu_k t}) / (2 mu_k),
    degenerating to c * sigma_k^2 * t for mu_k = 0.
    """
    mu = op.eigenvalues
    s = np.asarray(sigma_consts, dtype=np.float64)
    if s.shape != mu.shape:
        raise ConsistencyError("sigma_consts must have one entry per coordinate")
    c = spec.bracket_rate()
    out = np.empty_like(mu)
    zero = mu == 0
    out[zero] = c * s[zero] ** 2 * t
    nz = ~zero
    out[nz] = c * s[nz] ** 2 * (1.0 - np.exp(-2.0 * mu[nz] * t)) / (2.0 * mu[nz])
    return out


@dataclass(frozen=True)
class DiagnosticsReport:
    """Regularity summary of a solution ensemble."""

    modulus: ModulusReport
    adapted: bool


def solution_diagnostics(solution: PathEnsemble) -> DiagnosticsReport:
    """Mean-square increment profile plus the adaptedness flag of a solution.

    Only discrete-grid regularity is observable here: the report speaks to
    increments between grid points, not to path properties between them.
    Refinement comparisons (re-solve at half the spacing) are the caller's
    composition, e.g. the diagnostics experiment of the CLI.
    """
    return DiagnosticsReport(
        modulus=ms_continuity_modulus(solution),
        adapted=solution.adapted,
    )
