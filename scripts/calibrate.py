"""False-failure rate of each statistical CLI check on correct code.

Runs the four statistical checks (``simulate``, ``integrate``, ``isometry``
and ``diagnostics``) on the configs below over seeds 1 to N and prints,
for each, how many runs missed, the range of z against the check's
bound (``diagnostics`` passes below -bound, the others within it), and the
sha256 of its verdicts (one byte per seed, 1 if it passed, in seed order),
so two checkouts whose digests agree gave every verdict alike.  The
sizes are the CLI defaults (1000 paths; 100, 1000 and 64 grid steps) except
``simulate`` at 500 paths.  Opt-in and not part of the test suite: 200
seeds took 28 s on a 2-core host.

    PYTHONPATH=src python scripts/calibrate.py --seeds 200

A miss rate above the nominal one is a finding to report, never a reason
to widen a bound or to re-seed.
"""

from __future__ import annotations

import argparse
import hashlib

from levyint import cli

# experiment, statistical check and config of each calibrated run
CONFIGS = {
    "simulate": ("terminal_variance_matches_bracket", {
        "paths": 500,
        "driver": {"kind": "compound_poisson", "jump_law": {"kind": "normal", "scale": 1.0}}}),
    "integrate": ("martingale_mean_zero", {
        "driver": {"kind": "brownian"}, "integrand": "driver"}),
    "isometry": ("isometry_z", {
        "driver": {"kind": "compensated_poisson", "rate": 2.0},
        "integrand": "driver_left_limit"}),
    "diagnostics": ("modulus_shrinks_under_refinement", {
        "spde": {"heat_dim": 10, "h0": [1.0] + [0.0] * 9,
                 "alpha": {"kind": "linear", "coefficient": 0.25},
                 "sigmas": [{"kind": "linear", "coefficient": 0.25, "driver": {"kind": "brownian"}}],
                 "tol": 1e-4, "max_iter": 15}}),
}


def check_of(kind: str, seed: int) -> tuple[bool, dict]:
    """Verdict and record of ``kind``'s statistical check at ``seed``."""
    name, raw = CONFIGS[kind]
    checks = cli._RUNNERS[kind](cli.parse_config({**raw, "experiment": kind, "seed": seed})).checks
    [(passed, record)] = [(ok, record) for check, ok, record in checks if check == name]
    return passed, record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=200, help="number of seeds per check")
    args = parser.parse_args()
    print(f"{'check':<13}{'runs':>6}{'misses':>8}{'min z':>9}{'max z':>9}{'bound':>7}  verdicts sha256")
    for kind in CONFIGS:
        verdicts, zs = [], []
        for seed in range(1, args.seeds + 1):
            passed, record = check_of(kind, seed)
            verdicts.append(passed)
            zs.append(record["z"])
        print(f"{kind:<13}{args.seeds:>6}{verdicts.count(False):>8}{min(zs):>9.3f}{max(zs):>9.3f}"
              f"{record['bound']:>7.1f}  {hashlib.sha256(bytes(verdicts)).hexdigest()}")


if __name__ == "__main__":
    main()
