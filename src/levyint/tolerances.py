"""Single defaults table for every tolerance the toolkit applies.

Experiments record the tolerances their checks read in their run manifest,
so a pass/fail verdict is always auditable against this table plus any
per-run overrides.  The CLI parser accepts, for each experiment, overrides
of exactly the names its checks read, so no override is silently ignored;
every entry here is read by some code under ``levyint``.
"""

from __future__ import annotations

from types import MappingProxyType

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
    }
)
