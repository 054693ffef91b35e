"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
inline) before asserting, so a full run produces a ten-line scoreboard.
Tolerances come from the shared defaults table; statistical checks use
3*SE slack, isometry z-scores are bounded by 4, and exact identities are
held to 1e-12.
"""

import json
import time

import numpy as np
import pytest

import levyint as li
from levyint.cli import main, parse_config
from levyint.tolerances import DEFAULTS

EXACT = DEFAULTS["exact"]
Z_MAX = DEFAULTS["z_max"]


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d} {name}: {detail}")


def _se_of_mean(x):
    return np.std(x, ddof=1) / np.sqrt(x.size)


def test_criterion_01_poisson_exactness():
    start = time.perf_counter()
    rep = li.poisson_identity_check(1.0, 1.0, 1000, 101, tolerance=EXACT)
    elapsed = time.perf_counter() - start
    ok = rep.passed and elapsed < 5.0
    _report(1, "poisson pathwise identities", ok,
            f"max residual {rep.max_residual:.2e}, {elapsed:.2f}s")
    assert rep.passed
    assert elapsed < 5.0


def test_criterion_02_isometry_matrix():
    start = time.perf_counter()
    grid = li.TimeGrid.uniform(1.0, 1000)
    drivers = [
        li.Brownian(volatility=1.0),
        li.CompensatedPoisson(rate=2.0),
        li.CompoundPoisson(rate=3.0, jump_law=li.TwoPointJumps()),
    ]
    worst = 0.0
    for i, spec in enumerate(drivers):
        x = li.simulate_paths(spec, grid, 100_000, 200 + i)
        integrands = {
            "ones": li.PathEnsemble.deterministic(grid, 1.0),
            "time": li.PathEnsemble.deterministic(grid, lambda t: t),
            "driver_left_limit": li.predictable_version(x),
        }
        for name, phi in integrands.items():
            z = li.ito_isometry_check(phi, spec, x).z_score
            worst = max(worst, abs(z))
        del x, integrands, phi
    elapsed = time.perf_counter() - start
    ok = worst < Z_MAX and elapsed < 120.0
    _report(2, "isometry 3x3 matrix", ok, f"max |z| {worst:.2f}, {elapsed:.0f}s")
    assert worst < Z_MAX
    assert elapsed < 120.0


def test_criterion_03_mesh_cauchy_property():
    grid = li.TimeGrid.uniform(1.0, 2**10)
    w = li.simulate_paths(li.Brownian(volatility=1.0), grid, 10_000, 300)
    meshes = [2.0**-k for k in range(4, 11)]
    study = li.mesh_convergence_study(w, w, meshes, 1.0)
    decreasing = bool(np.all(np.diff(study.sq_differences) < 0))
    in_band = 0.7 <= study.rate_exponent <= 1.3
    _report(3, "mesh Cauchy refinement", decreasing and in_band,
            f"exponent {study.rate_exponent:.3f}, diffs {study.sq_differences[:3]}...")
    assert decreasing
    assert in_band


def test_criterion_04_brownian_ito_identity():
    h = 1e-3
    study = li.brownian_ito_identity_check(1.0, [h], 10_000, 400)
    got = study.sq_differences[0]
    target = 1.0 * h / 2.0
    ok = target / 2 <= got <= target * 2
    _report(4, "left sums vs (W_T^2 - T)/2", ok,
            f"sq distance {got:.3e} vs T*h/2 = {target:.3e}")
    assert ok


def test_criterion_05_embedding_bound():
    grid = li.TimeGrid.uniform(1.0, 100)
    curves = {
        "ones": li.PathEnsemble.deterministic(grid, 1.0),
        "ramp": li.PathEnsemble.deterministic(grid, lambda t: t),
    }
    specs = [
        li.Brownian(volatility=1.0),
        li.CompensatedPoisson(rate=2.0),
        li.CompoundPoisson(rate=3.0, jump_law=li.TwoPointJumps()),
        li.standard_poisson(rate=1.0),
        li.CompoundPoisson(rate=1.5, jump_law=li.ExponentialJumps(rate=2.0)),
    ]
    for i, spec in enumerate(specs):
        curves[f"driver_{i}"] = li.simulate_paths(spec, grid, 20_000, 500 + i)
    slack = {}
    ok = True
    for name, phi in curves.items():
        rep = li.embedding_norm_check(phi)
        ok = ok and rep.holds
        slack[name] = rep.bound - rep.time_integral
    _report(5, "time-integral bound by horizon * sup", ok,
            f"min slack {min(slack.values()):.3e}")
    assert ok


def test_criterion_06_projection_equals_left_limit():
    grid = li.TimeGrid.uniform(1.0, 100)
    specs = [
        li.Brownian(volatility=1.0),
        li.CompensatedPoisson(rate=2.0),
        li.standard_poisson(rate=1.0),
        li.CompoundPoisson(rate=3.0, jump_law=li.TwoPointJumps()),
        li.CompoundPoisson(rate=1.5, jump_law=li.ExponentialJumps(rate=2.0)),
        li.CompoundPoisson(rate=2.0, jump_law=li.NormalJumps(loc=0.3, scale=0.5)),
    ]
    worst = 0.0
    for i, spec in enumerate(specs):
        x = li.simulate_paths(spec, grid, 2000, 600 + i)
        worst = max(worst, li.projection_vs_left_limit(x))
    ok = worst < EXACT
    _report(6, "predictable representative = left limit", ok, f"max gap {worst:.2e}")
    assert ok


def test_criterion_07_picard_contraction():
    prob = li.SpdeProblem(
        operator=li.heat_operator(10),
        h0=np.ones(10),
        alpha=li.scaled_identity(0.25),
        alpha_lipschitz=0.25,
        sigmas=(li.scaled_identity(0.25),),
        sigma_lipschitz=(0.25,),
        drivers=(li.Brownian(volatility=1.0),),
    )
    grid = li.TimeGrid.uniform(1.0, 64)
    sol, rep = li.mild_solution_picard(prob, grid, 10_000, 700, tol=1e-4, max_iter=15)
    ratios_ok = all(r < 0.9 for r in rep.ratios[1:])
    ok = rep.converged and rep.iterations <= 15 and ratios_ok
    _report(7, "Picard contraction", ok,
            f"{rep.iterations} iterations, max ratio {max(rep.ratios[1:], default=0):.2f}")
    assert rep.converged
    assert rep.iterations <= 15
    assert ratios_ok


def _linear_benchmark(dim=10):
    return li.SpdeProblem(
        operator=li.heat_operator(dim),
        h0=np.zeros(dim),
        sigmas=(li.constant_map(np.ones(dim)),),
        sigma_lipschitz=(0.0,),
        drivers=(li.Brownian(volatility=1.0),),
    )


def test_criterion_08_linear_spde_oracle():
    # the left-endpoint convolution has a relative variance bias of about
    # mu_k * h, so the grid must satisfy mu_max * h << 5%; h = 2e-4 keeps the
    # worst coordinate near 2% with 1e5 paths supplying the 3*SE term
    dim, n_total, chunk = 10, 100_000, 2500
    prob = _linear_benchmark(dim)
    grid = li.TimeGrid.uniform(1.0, 5000)
    idx = {0.25: grid.index_of(0.25), 1.0: grid.index_of(1.0)}
    slices = {t: np.empty((n_total, dim)) for t in idx}
    for offset in range(0, n_total, chunk):
        sol, rep = li.mild_solution_picard(
            prob, grid, chunk, 800, tol=1e-10, max_iter=5, path_offset=offset
        )
        assert rep.converged
        for t, j in idx.items():
            slices[t][offset : offset + chunk] = sol.values[:, j, :]
        del sol
    ok = True
    worst = 0.0
    for t, vals in slices.items():
        oracle = li.linear_variance_oracle(prob.operator, np.ones(dim), prob.drivers[0], t)
        v = np.var(vals, axis=0, ddof=1)
        se = np.sqrt(2.0 / (n_total - 1)) * v
        tol = np.maximum(3.0 * se, 0.05 * oracle)
        dev = np.abs(v - oracle)
        ok = ok and bool(np.all(dev <= tol))
        worst = max(worst, float(np.max(dev / oracle)))
    _report(8, "linear mild solution variance oracle", ok,
            f"worst relative deviation {worst:.3f} (allowed 0.05)")
    assert ok


def test_criterion_09_mean_square_continuity_refinement():
    prob = _linear_benchmark(10)
    coarse = li.TimeGrid.uniform(1.0, 64)
    fine = li.TimeGrid.uniform(1.0, 128)
    sc, _ = li.mild_solution_picard(prob, coarse, 20_000, 900, tol=1e-10, max_iter=5)
    sf, _ = li.mild_solution_picard(prob, fine, 20_000, 900, tol=1e-10, max_iter=5)
    rc = li.solution_diagnostics(sc)
    rf = li.solution_diagnostics(sf)
    slack = 3.0 * (rc.modulus.max_standard_error + rf.modulus.max_standard_error)
    ok = rf.modulus.max_norm < rc.modulus.max_norm - slack
    _report(9, "solution modulus shrinks at h/2", ok,
            f"{rc.modulus.max_norm:.4f} -> {rf.modulus.max_norm:.4f} (slack {slack:.1e})")
    assert ok


def test_criterion_10_cli_determinism(tmp_path):
    cfg = {
        "seed": 5,
        "paths": 300,
        "out": str(tmp_path),
        "rate": 1.0,
        "grid": {"horizon": 1.0, "steps": 16},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["poisson-identity", "--config", str(path)]) == 0
    stem = f"poisson-identity-{parse_config({**cfg, 'experiment': 'poisson-identity'}).config_hash}"
    first = (tmp_path / f"{stem}.csv").read_bytes()
    first_manifest = (tmp_path / f"{stem}.manifest.json").read_bytes()
    assert main(["poisson-identity", "--config", str(path)]) == 0
    identical = (tmp_path / f"{stem}.csv").read_bytes() == first
    identical &= (tmp_path / f"{stem}.manifest.json").read_bytes() == first_manifest

    assert main(["poisson-identity", "--config", str(path), "--seed", "6"]) == 0
    cfg2 = {**cfg, "seed": 6, "experiment": "poisson-identity"}
    stem2 = f"poisson-identity-{parse_config(cfg2).config_hash}"
    different = (tmp_path / f"{stem2}.csv").read_bytes() != first
    ok = identical and different
    _report(10, "byte-identical reruns, seed-sensitive output", ok,
            f"rerun identical: {identical}, new seed differs: {different}")
    assert identical
    assert different
