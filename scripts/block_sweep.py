"""Layer times and output digests of the path loops at several block budgets.

Every path loop takes its rows from one budget, ``ensembles._BLOCK_BUDGET``
(float64 values that the temporaries of one block allocate).  For each
budget given and each point count, a fresh process sets the budget, builds
Brownian ensembles of ``--paths`` paths and times each layer below over
``--repeats`` calls.  The table gives each layer's median in milliseconds
and, per layer, whether every budget gave the same sha256 of its outputs
(the digests follow the table).  Layers: the four cross-path reductions,
riemann_sum, simulate_paths of each driver kind, the CLI moment table and
the CLI ``isometry`` run (compensated Poisson, driver left limit).  Opt-in
and not part of the test suite; at 20000 paths the largest process holds
about 0.5 GB.

    PYTHONPATH=src python scripts/block_sweep.py 262144 4096 --paths 20000

Each budget runs in its own process because allocation order changes
speed: a block's temporaries go to the heap or to fresh pages depending on
what the process freed before, so layers are timed in one fixed order.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

LAYERS = ("second_moments", "ms_continuity_modulus", "l2_distance", "increment_independence_z",
          "riemann_sum", "simulate_paths.brownian", "simulate_paths.compensated_poisson",
          "simulate_paths.compound_poisson", "moment_table", "cli_isometry")


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _layers(paths: int, points: int) -> dict:
    """Each layer's ``(call, digest of its output)``, on ensembles built once."""
    import levyint as li
    from levyint import cli

    grid = li.TimeGrid.uniform(1.0, points - 1)
    specs = {"brownian": li.Brownian(volatility=1.0), "compensated_poisson": li.CompensatedPoisson(rate=2.0),
             "compound_poisson": li.CompoundPoisson(rate=3.0, jump_law=li.NormalJumps(loc=0.3, scale=0.5))}
    w = li.simulate_paths(specs["brownian"], grid, paths, 1)
    v = li.simulate_paths(specs["brownian"], grid, paths, 2)
    iso = cli.parse_config({"experiment": "isometry", "driver": {"kind": "compensated_poisson", "rate": 2.0},
                            "grid": {"horizon": 1.0, "steps": points - 1}, "integrand": "driver_left_limit",
                            "paths": paths, "seed": 3})

    def simulate(kind):
        return lambda: li.simulate_paths(specs[kind], grid, paths, 4)

    def sim_digest(x):
        jumps = () if x.jumps is None else (x.jumps.times, x.jumps.sizes, x.jumps.bounds.astype(float))
        return _digest(x.values, *jumps)

    def table_digest(table):
        return _digest(*(table[name] for name in table.dtype.names))

    def modulus_digest(rep):
        return _digest(rep.norms, rep.standard_errors)

    layers = {
        "second_moments": (lambda: li.second_moments(w), _digest),
        "ms_continuity_modulus": (lambda: li.ms_continuity_modulus(w), modulus_digest),
        "l2_distance": (lambda: li.l2_distance(w, v), _digest),
        "increment_independence_z": (lambda: li.increment_independence_z(w, v), _digest),
        "riemann_sum": (lambda: li.riemann_sum(w, v, grid).values, _digest),
        "moment_table": (lambda: cli._moment_table(grid.points, np.moveaxis(w.values, 1, 0))[1],
                         table_digest),
        "cli_isometry": (lambda: cli._run_isometry(iso).rows, table_digest),
    }
    layers.update({f"simulate_paths.{kind}": (simulate(kind), sim_digest) for kind in specs})
    return layers


def _child(budget: int, paths: int, points: int, repeats: int) -> dict:
    """``{layer: [median seconds, sha256]}`` at ``budget``, in this process."""
    from levyint import ensembles

    ensembles._BLOCK_BUDGET = budget
    layers, out = _layers(paths, points), {}
    for name in LAYERS:
        call, digest = layers[name]
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            result = call()
            times.append(time.perf_counter() - start)
        out[name] = [statistics.median(times), digest(result)]
        del result
    return out


def sweep(budgets: list[int], paths: int, points: list[int], repeats: int) -> dict:
    """``{(budget, points): {layer: [median seconds, sha256]}}``, one fresh
    process per budget and point count."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    results = {}
    for n in points:
        for budget in budgets:
            job = json.dumps([budget, paths, n, repeats])
            run = subprocess.run([sys.executable, __file__, "--child", job], env=env,
                                 capture_output=True, text=True, check=True)
            results[budget, n] = json.loads(run.stdout)
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("budgets", type=int, nargs="*", help="values per block (default: 2**18)")
    parser.add_argument("--paths", type=int, default=20_000)
    parser.add_argument("--points", type=int, nargs="+", default=[1001, 65, 17])
    parser.add_argument("--repeats", type=int, default=5, help="calls per layer; the median is shown")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(_child(*json.loads(args.child))))
        return
    budgets = args.budgets or [2**18]
    results = sweep(budgets, args.paths, args.points, args.repeats)
    for n in args.points:
        print(f"\n{args.paths} paths x {n} points: median ms of {args.repeats} calls")
        print(f"{'layer':<36}" + "".join(f"{b:>12}" for b in budgets) + "  same bits")
        for name in LAYERS:
            cells = [results[b, n][name] for b in budgets]
            same = "yes" if len({sha for _, sha in cells}) == 1 else "NO"
            print(f"{name:<36}" + "".join(f"{1e3 * s:>12.2f}" for s, _ in cells) + f"  {same}")
        print("sha256 at budget " + str(budgets[0]) + ":")
        for name in LAYERS:
            print(f"  {name:<36}{results[budgets[0], n][name][1]}")


if __name__ == "__main__":
    main()
