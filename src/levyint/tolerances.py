"""Single defaults table for every tolerance the toolkit applies.

Experiments record the tolerances they actually used in their run manifest,
so a pass/fail verdict is always auditable against this table plus any
per-run overrides.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import ConfigError

DEFAULTS = MappingProxyType(
    {
        # residual bound for identities that hold exactly per path
        "exact": 1e-12,
        # grid-quadrature slack for deterministic inequality checks
        "quadrature": 1e-9,
        # half-width multiplier for standard-error based statistical checks
        "se_multiplier": 3.0,
        # acceptance bound on isometry z-scores
        "z_max": 4.0,
        # relative slack allowed for time-discretization bias
        "discretization_rel": 0.05,
        # cross-run agreement of parallel reductions
        "parallel_reduction": 1e-9,
        # minimum spacing below which sampled jump times count as coincident
        "jump_separation": 1e-15,
    }
)


def resolve(overrides: dict[str, float] | None = None) -> dict[str, float]:
    """Merge per-run overrides into the defaults table.

    Unknown tolerance names are rejected so manifests never contain silently
    ignored knobs, and every override must be a finite positive number.
    """
    merged = dict(DEFAULTS)
    if overrides is None:
        return merged
    if not isinstance(overrides, dict) or set(overrides) - set(merged):
        raise ConfigError(f"tolerances must map names out of {sorted(merged)} to numbers, got {overrides!r}")
    for name, value in overrides.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < float("inf"):
            raise ConfigError(f"tolerance {name} must be a finite positive number, got {value!r}")
        merged[name] = float(value)
    return merged
