"""Exact pathwise identities for the self-integral of a counting process.

For a unit-jump counting process X the left-endpoint integral of X against
itself equals (X_T^2 - X_T)/2 on any partition that separates the jumps,
while the pathwise Stieltjes integral evaluating the integrand at the jump
itself equals (X_T^2 + X_T)/2.  The gap between the two is exactly X_T, the
sum of squared jump sizes; resolving it is a matter of which representative
of the integrand the sum samples.  These identities are integer arithmetic
realized in floating point, so they are checked at residual 1e-12, not with
statistical slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .drivers import _FILL_ROWS, reject_coincident_jumps, simulate_paths, standard_poisson
from .ensembles import JumpRecord, JumpTable, TimeGrid, _jump_values, _rows
from .errors import DomainError, ParameterError
from .riemann import MeshStudy, _mesh_list, _mesh_study, uniform_partition
from . import drivers


@dataclass(frozen=True)
class IdentityReport:
    """Per-path residuals of the three coupled identities."""

    left_sum_residuals: np.ndarray
    stieltjes_residuals: np.ndarray
    difference_residuals: np.ndarray
    left_sum_values: np.ndarray
    stieltjes_values: np.ndarray
    terminal_counts: np.ndarray
    tolerance: float

    @property
    def max_residual(self) -> float:
        return float(
            max(
                np.max(self.left_sum_residuals, initial=0.0),
                np.max(self.stieltjes_residuals, initial=0.0),
                np.max(self.difference_residuals, initial=0.0),
            )
        )

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tolerance


def stieltjes_integral(
    jumps: JumpRecord,
    t: float,
    integrand_rule: Literal["left_limit", "current_value"],
) -> float:
    """Pathwise self-integral of a pure-jump path up to time t.

    The integrator is the pure-jump path described by the record; the
    integrand is the same path evaluated either just before each jump or at
    the jump itself.
    """
    if integrand_rule not in ("left_limit", "current_value"):
        raise DomainError(f"unknown integrand rule {integrand_rule!r}")
    mask = jumps.times <= t
    sizes = jumps.sizes[mask]
    post = np.cumsum(sizes)
    values = post if integrand_rule == "current_value" else post - sizes
    return float(np.dot(values, sizes))


def _identity_sums(points: np.ndarray, jumps: JumpTable) -> tuple[np.ndarray, np.ndarray]:
    """Each path's left-endpoint self-sum on its jump-augmented partition
    (the base ``points`` and its jump times, repeats removed) and its
    current-value Stieltjes self-sum.

    Jump times lie in (0, points[-1]].  The sizes are integers, so every
    value, product and partial sum is an integer below 2**53: the sums are
    exact, whatever the order of their terms.
    """
    t, s, bounds = jumps.times, jumps.sizes, jumps.bounds
    rows, m = len(jumps), points.size
    counts, row = np.diff(bounds), _rows(bounds)
    # a path's value at each of its jumps, and at its end
    cum = np.concatenate(([0.0], np.cumsum(s)))
    post = cum[1:] - np.repeat(cum[bounds[:-1]], counts)
    # Row r's partition: every base point, and each of its jump times that no
    # base point repeats (its own points).  With q[k] the first base point at
    # or after jump k, base point j sits after j base points and the own
    # points with q <= j; own point k after q[k] base points and the row's
    # earlier own points.
    q = np.searchsorted(points, t)
    own = points[q] != t
    r_own, q_own = row[own], q[own]
    n_own = np.bincount(r_own, minlength=rows)
    earlier = np.arange(r_own.size) - np.repeat(np.cumsum(n_own) - n_own, n_own)
    shift = np.bincount(r_own * m + q_own, minlength=rows * m).reshape(rows, m).cumsum(axis=1)
    # each row's values at its partition points, held at its end value after them
    x = np.repeat((cum[bounds[1:]] - cum[bounds[:-1]])[:, None], m + n_own.max(initial=0), axis=1)
    x[np.arange(rows)[:, None], np.arange(m) + shift] = _jump_values(points, t, s, bounds)
    x[r_own, q_own + earlier] = post[own]
    left = (x[:, :-1] * np.diff(x, axis=1)).sum(axis=1)
    return left, np.bincount(row, weights=post * s, minlength=rows)


def poisson_identity_check(
    rate: float,
    horizon: float,
    n_paths: int,
    seed: int,
    base_steps: int = 16,
    tolerance: float = 1e-12,
) -> IdentityReport:
    """Check the three coupled identities on simulated counting paths.

    For each path: (a) the left-endpoint sum on a jump-separating partition
    equals (X_T^2 - X_T)/2; (b) the current-value Stieltjes integral equals
    (X_T^2 + X_T)/2; (c) their difference equals X_T.  All three must hold
    at the exactness tolerance.  The sums are formed for all paths at once,
    a block of rows at a time.
    """
    spec = standard_poisson(rate)
    grid = TimeGrid.uniform(horizon, base_steps)
    ens = simulate_paths(spec, grid, n_paths, seed)
    reject_coincident_jumps(ens)

    left_vals, st_vals = np.empty(n_paths), np.empty(n_paths)
    for a in range(0, n_paths, _FILL_ROWS):
        rows = slice(a, a + _FILL_ROWS)
        left_vals[rows], st_vals[rows] = _identity_sums(grid.points, ens.jumps[rows])
    # every jump lies in (0, horizon], so X_T is the path's jump count
    k = np.diff(ens.jumps.bounds).astype(float)
    return IdentityReport(
        left_sum_residuals=np.abs(left_vals - 0.5 * (k * k - k)),
        stieltjes_residuals=np.abs(st_vals - 0.5 * (k * k + k)),
        difference_residuals=np.abs((st_vals - left_vals) - k),
        left_sum_values=left_vals,
        stieltjes_values=st_vals,
        terminal_counts=k,
        tolerance=tolerance,
    )


def brownian_ito_identity_check(
    horizon: float,
    meshes: np.ndarray,
    n_paths: int,
    seed: int,
) -> MeshStudy:
    """Left sums of W against W versus the closed form (W_T^2 - T)/2.

    Returns the squared L2 distance per mesh; the exact discrete value is
    T*h/2 on a uniform mesh h, which the fitted exponent and the per-mesh
    values witness.
    """
    meshes = _mesh_list(meshes, 1)
    with np.errstate(over="ignore"):
        steps = horizon / meshes[-1]
    # NaN and inf fail this too
    if not steps < np.iinfo(np.intp).max:
        raise ParameterError(f"horizon {horizon!r} over the finest mesh {float(meshes[-1])!r} "
                             "gives no indexable step count")
    grid = TimeGrid.uniform(horizon, int(round(steps)))
    w = simulate_paths(drivers.Brownian(volatility=1.0), grid, n_paths, seed)
    oracle = 0.5 * (w.values[:, -1, :] ** 2 - horizon)
    partitions = [uniform_partition(grid, horizon, h) for h in meshes]
    return _mesh_study(w, w, partitions, oracle, reference_mesh=None)
