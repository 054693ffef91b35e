"""Predictable representatives, the embedding bound, and the Ito isometry.

An adapted mean-square-continuous curve embeds into the space of
Ito-integrable processes by passing to a predictable representative; for
cadlag paths that representative is the left-limit process.  The operations
here realize that embedding on grids and check its quantitative
consequences: the time-integral bound against the sup norm, injectivity,
and the isometry E||(Phi . M)_T||^2 = c * integral of E||Phi_t||^2 dt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drivers import LevySpec
from .ensembles import (PathEnsemble, _blocks, _gap_moments, _mean_se, left_limit,
                        second_moments, sup_l2_norm)
from .errors import AdaptednessError, DomainError
from .riemann import riemann_sum


@dataclass(frozen=True)
class IsometryReport:
    """Both sides of the isometry with standard errors and a z-score.

    The z-score is computed from the per-path difference of the two sides
    (common random numbers), so it is directly comparable against a normal
    quantile.
    """

    lhs: float
    rhs: float
    se_lhs: float
    se_rhs: float
    z_score: float
    n_paths: int

    def record(self) -> dict[str, float]:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "se_lhs": self.se_lhs,
            "se_rhs": self.se_rhs,
            "z": self.z_score,
        }


@dataclass(frozen=True)
class EmbeddingReport:
    """Left-quadrature seminorm against the horizon-scaled sup bound."""

    time_integral: float
    bound: float
    holds: bool


@dataclass(frozen=True)
class InjectivityReport:
    """Witness that a vanishing time-integral seminorm forces a zero curve."""

    seminorm_sq: float
    sup_norm: float
    consistent: bool


def predictable_version(phi: PathEnsemble) -> PathEnsemble:
    """Grid-predictable representative of an adapted ensemble.

    Continuous ensembles are their own representative; jump-carrying ones
    are replaced by their left-limit process.  The time quadrature of the
    second moments is unchanged whenever no jump time sits exactly on a grid
    point.
    """
    if not phi.adapted:
        raise AdaptednessError("predictable representative needs an adapted input")
    return left_limit(phi)


def _left_quadrature(moments: np.ndarray, dt: np.ndarray) -> float:
    return float(np.dot(moments[:-1], dt))


def embedding_norm_check(phi: PathEnsemble) -> EmbeddingReport:
    """Check integral of E||pPhi_t||^2 dt <= T * sup_t E||Phi_t||^2 on the grid."""
    pphi = predictable_version(phi)
    lhs = _left_quadrature(second_moments(pphi), phi.grid.dt)
    rhs = phi.grid.horizon * float(np.max(second_moments(phi)))
    return EmbeddingReport(time_integral=lhs, bound=rhs, holds=lhs <= rhs + 1e-9)


def injectivity_witness(phi: PathEnsemble, tol: float = 1e-9) -> InjectivityReport:
    """Report that seminorm ~ 0 implies sup norm ~ 0 (or that both exceed 0).

    On a grid the left quadrature dominates each interior term, so a
    vanishing quadrature caps the attainable sup; the matched sup tolerance
    is sqrt(tol / min interval).
    """
    pphi = predictable_version(phi)
    seminorm_sq = _left_quadrature(second_moments(pphi), phi.grid.dt)
    sup = sup_l2_norm(phi)
    matched = np.sqrt(tol / float(np.min(phi.grid.dt)))
    consistent = (seminorm_sq > tol) or (sup <= matched)
    return InjectivityReport(seminorm_sq=seminorm_sq, sup_norm=sup, consistent=consistent)


def ito_isometry_check(
    phi: PathEnsemble, spec: LevySpec, m: PathEnsemble
) -> IsometryReport:
    """Compare E||(Phi . M)_T||^2 against c * sum E||pPhi_{t_i}||^2 dt_i.

    The driver must be a martingale (zero decomposition drift).  Both sides
    are estimated from the same paths; the reported z-score is the paired
    mean difference over its standard error, which is exactly the statistic
    the discrete isometry identity predicts to be standard normal.
    """
    if spec.martingale_drift != 0.0:
        raise DomainError("isometry holds for martingale drivers; decompose first")
    pphi = predictable_version(phi)
    c = spec.bracket_rate()
    n = max(pphi.n_paths, m.n_paths)

    terminal = riemann_sum(pphi, m, m.grid).values
    lhs_samples = np.einsum("pd,pd->p", terminal, terminal)

    dt = pphi.grid.dt
    rhs_samples = np.empty(pphi.n_paths)
    for sl, block in _blocks(pphi.n_paths, pphi):
        rhs_samples[sl] = c * np.einsum("pjd,pjd,j->p", block[:, :-1, :], block[:, :-1, :], dt)

    lhs, se_lhs = _mean_se(lhs_samples)
    rhs, se_rhs = _mean_se(rhs_samples)
    mean_diff, se_diff = _mean_se(
        lhs_samples - (rhs_samples if rhs_samples.size == lhs_samples.size else rhs)
    )
    z = mean_diff / se_diff if se_diff > 0 else 0.0
    return IsometryReport(
        lhs=lhs, rhs=rhs, se_lhs=se_lhs, se_rhs=se_rhs, z_score=z, n_paths=n
    )


def projection_vs_left_limit(phi: PathEnsemble) -> float:
    """Time quadrature of E||pPhi_t - (left limit of Phi)_t||^2.

    Both constructions coincide on grids by design, so the contract value is
    0 at float precision; the operation exists as a regression tripwire for
    the predictable-representative code path.
    """
    pphi = predictable_version(phi)
    moments = _gap_moments(pphi, left_limit(phi), pphi.n_paths)
    return _left_quadrature(moments, phi.grid.dt)
