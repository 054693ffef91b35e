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

from .drivers import reject_coincident_jumps, simulate_paths, standard_poisson
from .ensembles import JumpRecord, TimeGrid
from .errors import DomainError, InsufficientDataError
from .riemann import MeshStudy, _mesh_study, uniform_partition
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


def _left_sum_on_jump_partition(
    base_points: np.ndarray, jumps: JumpRecord, horizon: float
) -> float:
    """Left-endpoint self-integral on the base grid augmented by jump times."""
    pts = np.union1d(base_points, jumps.times[jumps.times <= horizon])
    x = jumps.values_at(pts)
    return float(np.dot(x[:-1], np.diff(x)))


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
    at the exactness tolerance.
    """
    spec = standard_poisson(rate)
    grid = TimeGrid.uniform(horizon, base_steps)
    ens = simulate_paths(spec, grid, n_paths, seed)
    reject_coincident_jumps(ens)

    k = np.array([float(np.sum(rec.times <= horizon)) for rec in ens.jumps])
    left_target = 0.5 * (k * k - k)
    current_target = 0.5 * (k * k + k)

    left_vals = np.array(
        [_left_sum_on_jump_partition(grid.points, rec, horizon) for rec in ens.jumps]
    )
    st_vals = np.array(
        [stieltjes_integral(rec, horizon, "current_value") for rec in ens.jumps]
    )
    return IdentityReport(
        left_sum_residuals=np.abs(left_vals - left_target),
        stieltjes_residuals=np.abs(st_vals - current_target),
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
    meshes = np.asarray(meshes, dtype=np.float64)
    if meshes.size < 1:
        raise InsufficientDataError("need at least one mesh")
    if np.any(np.diff(meshes) >= 0):
        raise InsufficientDataError("meshes must be strictly decreasing")
    grid = TimeGrid.uniform(horizon, int(round(horizon / meshes[-1])))
    w = simulate_paths(drivers.Brownian(volatility=1.0), grid, n_paths, seed)
    oracle = 0.5 * (w.values[:, -1, :] ** 2 - horizon)
    partitions = [uniform_partition(grid, horizon, h) for h in meshes]
    return _mesh_study(w, w, partitions, oracle, reference_mesh=None)
