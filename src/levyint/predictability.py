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

from .drivers import LevySpec, _check_driver
from .ensembles import (PathEnsemble, _blocks, _gap_moments, _mean_se, _real, _run_blocks,
                        _z_score, left_limit, second_moments, sup_l2_norm)
from .errors import AdaptednessError, DomainError, ParameterError
from .riemann import riemann_sum
from .tolerances import DEFAULTS


@dataclass(frozen=True)
class IsometryReport:
    """Both sides of the isometry with standard errors and a z-score.

    The z-score is ``mean_difference`` over ``se_difference``, the mean of
    the per-path difference of the two sides (common random numbers) and
    its standard error, so it is directly comparable against a normal
    quantile.
    """

    lhs: float
    rhs: float
    se_lhs: float
    se_rhs: float
    mean_difference: float
    se_difference: float
    z_score: float
    n_paths: int


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
    return EmbeddingReport(time_integral=lhs, bound=rhs, holds=lhs <= rhs + DEFAULTS["quadrature"])


def injectivity_witness(phi: PathEnsemble, tol: float = DEFAULTS["quadrature"]) -> InjectivityReport:
    """Report that seminorm ~ 0 implies sup norm ~ 0 (or that both exceed 0).

    On a grid the left quadrature dominates each interior term, so a
    vanishing quadrature caps the attainable sup; the matched sup tolerance
    is sqrt(tol / min interval).
    """
    if not _real(tol) > 0:
        raise ParameterError(f"tol must be finite and positive, got {tol!r}")
    pphi = predictable_version(phi)
    seminorm_sq = _left_quadrature(second_moments(pphi), phi.grid.dt)
    sup = sup_l2_norm(phi)
    matched = np.sqrt(tol / float(np.min(phi.grid.dt)))
    consistent = bool(seminorm_sq > tol or sup <= matched)
    return InjectivityReport(seminorm_sq=seminorm_sq, sup_norm=sup, consistent=consistent)


def ito_isometry_check(
    phi: PathEnsemble, spec: LevySpec, m: PathEnsemble
) -> IsometryReport:
    """Compare E||(Phi . M)_T||^2 against c * sum E||pPhi_{t_i}||^2 dt_i.

    The driver must be a martingale (zero decomposition drift) and ``m``
    its paths, or paths that record no driver.  Both sides are estimated
    from the same paths; the reported z-score is the paired mean difference
    over its standard error, which is exactly the statistic the discrete
    isometry identity predicts to be standard normal.
    """
    return _isometry_report(*_isometry_samples(phi, spec, m))


def _isometry_samples(
    phi: PathEnsemble, spec: LevySpec, m: PathEnsemble
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path samples of both isometry sides: ||(Phi . M)_T||^2 for every
    path, and c * sum ||pPhi_{t_i}||^2 dt_i for every path of Phi (one sample
    for a deterministic Phi).  Each path's samples are its own, so blocks of
    paths give slices of the whole ensemble's samples.  The rhs blocks run
    on the pool in a large call (``ensembles._run_blocks``)."""
    if spec.martingale_drift != 0.0:
        raise DomainError("isometry holds for martingale drivers; decompose first")
    _check_driver(spec, m)
    pphi = predictable_version(phi)
    c = spec.bracket_rate()

    terminal = riemann_sum(pphi, m, m.grid).values
    lhs_samples = np.einsum("pd,pd->p", terminal, terminal)

    dt = pphi.grid.dt
    rhs_samples = np.empty(pphi.n_paths)

    def rhs_block(item: tuple) -> None:
        sl, block = item
        rhs_samples[sl] = c * np.einsum("pjd,pjd,j->p", block[:, :-1, :], block[:, :-1, :], dt)

    _run_blocks(rhs_block, _blocks(pphi.n_paths, pphi), pphi.n_paths, pphi.grid.n_points)
    return lhs_samples, rhs_samples


def _isometry_report(lhs_samples: np.ndarray, rhs_samples: np.ndarray) -> IsometryReport:
    """Means, standard errors and the paired z-score of the isometry samples;
    a single rhs sample is a deterministic integrand's, shared by every path."""
    lhs, se_lhs = _mean_se(lhs_samples)
    rhs, se_rhs = _mean_se(rhs_samples)
    mean_diff, se_diff = _mean_se(
        lhs_samples - (rhs_samples if rhs_samples.size == lhs_samples.size else rhs)
    )
    return IsometryReport(
        lhs=lhs, rhs=rhs, se_lhs=se_lhs, se_rhs=se_rhs, mean_difference=mean_diff,
        se_difference=se_diff, z_score=float(_z_score(mean_diff, se_diff)), n_paths=lhs_samples.size
    )


def projection_vs_left_limit(phi: PathEnsemble) -> float:
    """Time quadrature of E||pPhi_t - (left limit of Phi)_t||^2.

    Both constructions coincide on grids by design, so the contract value is
    0 at float precision; the operation exists as a regression tripwire for
    the predictable-representative code path.
    """
    pphi = predictable_version(phi)
    moments = _gap_moments(pphi, left_limit(phi))
    return _left_quadrature(moments, phi.grid.dt)
