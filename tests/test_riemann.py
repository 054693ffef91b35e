import hashlib
import json
import tracemalloc

import numpy as np
import pytest

import levyint as li
import levyint.ensembles as ens_mod
import levyint.riemann as riemann_mod
from levyint.cli import main
from levyint.errors import AdaptednessError, GridError, InsufficientDataError


def _se_of_mean(x):
    return np.std(x, ddof=1) / np.sqrt(x.size)


class TestRiemannSum:
    def test_zero_integrand(self, grid100):
        m = li.simulate_paths(li.Brownian(), grid100, 50, 1)
        phi = li.PathEnsemble.deterministic(grid100, 0.0)
        res = li.riemann_sum(phi, m, grid100)
        assert np.all(res.values == 0.0)

    def test_telescoping(self, grid100):
        m = li.simulate_paths(li.CompensatedPoisson(rate=2.0), grid100, 200, 2)
        phi = li.PathEnsemble.deterministic(grid100, 1.0)
        res = li.riemann_sum(phi, m, grid100).scalar()
        target = m.values[:, -1, 0] - m.values[:, 0, 0]
        assert np.max(np.abs(res - target)) < 1e-12

    def test_poisson_self_integral_on_separating_partition(
        self, record_ensemble_factory
    ):
        # one sampled counting path, partition refined by its own jump times
        spec = li.standard_poisson(rate=4.0)
        base = li.TimeGrid.uniform(1.0, 8)
        ens = li.simulate_paths(spec, base, 1, 17)
        rec = ens.jumps[0]
        assert rec.count >= 2
        grid = base.augmented(rec.times)
        x = record_ensemble_factory(grid, rec)
        res = li.riemann_sum(x, x, grid).scalar()[0]
        k = float(rec.count)
        assert res == pytest.approx(0.5 * (k * k - k), abs=1e-12)

    def test_unadapted_rejected(self, grid100):
        m = li.simulate_paths(li.Brownian(), grid100, 10, 3)
        phi = li.PathEnsemble(values=np.ones((10, grid100.n_points, 1)), grid=grid100)
        with pytest.raises(AdaptednessError):
            li.riemann_sum(phi, m, grid100)

    def test_partition_not_in_grid_rejected(self, grid100):
        m = li.simulate_paths(li.Brownian(), grid100, 10, 3)
        phi = li.PathEnsemble.deterministic(grid100, 1.0)
        bad = li.TimeGrid([0.0, 0.333, 1.0])
        with pytest.raises(GridError):
            li.riemann_sum(phi, m, bad)

    def test_memory_does_not_grow_with_the_block(self):
        # 93.8 MiB when each 4096-row block gathered phi, m and m's increments
        grid = li.TimeGrid.uniform(1.0, 1000)
        x = li.simulate_paths(li.CompensatedPoisson(rate=2.0), grid, 4096, 7)
        phi = li.left_limit(x)
        tracemalloc.start()
        try:
            li.riemann_sum(phi, x, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def _sum_outputs():
    """riemann_sum on every partition shape (full grid, stride, ending before
    T, not arithmetic) and every einsum branch (sampled, single-path
    integrand, single-path integrator, two coordinates), on 275 = 2 * 137 + 1
    paths: no tested block size divides it, and at 137 rows the last path
    sits alone in its block."""
    grid = li.TimeGrid.uniform(1.0, 24)
    bw = li.simulate_paths(li.Brownian(), grid, 275, 3)
    cp = li.simulate_paths(li.CompoundPoisson(rate=3.0, jump_law=li.NormalJumps(scale=0.7)), grid, 275, 4)
    two = li.PathEnsemble(np.concatenate([bw.values, cp.values], axis=2), grid, adapted=True)
    ramp = li.PathEnsemble.deterministic(grid, lambda t: t)
    curve2 = li.PathEnsemble.deterministic(grid, lambda t: np.stack([t, 1 - t * t], axis=1), dim=2)
    square = li.PathEnsemble.deterministic(grid, lambda t: t * t)
    partitions = (grid, li.uniform_partition(grid, 1.0, 4 / 24), li.uniform_partition(grid, 0.5, 2 / 24),
                  li.TimeGrid(grid.points[[0, 1, 2, 5, 11, 12, 20]]))
    pairs = ((bw, cp), (li.left_limit(cp), cp), (two, bw), (ramp, cp), (curve2, bw), (bw, square),
             (two, square))
    h = hashlib.sha256()
    for phi, m in pairs:
        for part in partitions:
            h.update(li.riemann_sum(phi, m, part).values.tobytes())
    return h.hexdigest()


_SUMS_AT_4096 = "850e73d3c860f6f344454832d3c70daff7efd3b9b4e36eec69b1c528914a9f42"


class TestRiemannSumGoldens:
    """sha256 of riemann_sum at four block sizes, recorded when it gathered
    partition columns with an index array in blocks of _CHUNK_ROWS rows; a
    change here means the sums changed.  A path alone in its block sums in
    another order, so 137 and 1 rows have their own digests."""

    @pytest.mark.parametrize(
        "rows, expect",
        [
            (4096, _SUMS_AT_4096),
            (137, "60234fae98934ce4bc8bbcc150fe6380bf8fb0551bb6aa696dd0be89c54e80c8"),
            (32, _SUMS_AT_4096),
            (1, "74b26659da16c454805a3e1cb5a0f74db4b527adff63bd8df0f407309008a059"),
        ],
    )
    def test_sums(self, monkeypatch, rows, expect):
        monkeypatch.setattr(ens_mod, "_CHUNK_ROWS", rows)
        assert _sum_outputs() == expect

    @pytest.mark.parametrize("rows", [2, 3, 32, 137, 4096])
    def test_sums_do_not_depend_on_the_rows_riemann_sum_walks(self, monkeypatch, rows):
        # 275 rows in pieces of 2 would leave the last one alone
        monkeypatch.setattr(riemann_mod, "_SUM_ROWS", rows)
        assert _sum_outputs() == _SUMS_AT_4096


class TestIntegralProcess:
    def test_constant_integrand_reproduces_integrator(self, grid100):
        m = li.simulate_paths(li.Brownian(), grid100, 100, 4)
        phi = li.PathEnsemble.deterministic(grid100, 1.0)
        y = li.integral_process(phi, m)
        assert np.max(np.abs(y.values - m.values)) < 1e-12
        assert y.adapted
        assert y.values[0, 0, 0] == 0.0

    def test_time_integrand_variance(self):
        # Var of int_0^1 t dW = int_0^1 t^2 dt = 1/3
        grid = li.TimeGrid.uniform(1.0, 1000)
        m = li.simulate_paths(li.Brownian(), grid, 100_000, 5)
        phi = li.PathEnsemble.deterministic(grid, lambda t: t)
        y1 = li.integral_process(phi, m).values[:, -1, 0]
        sq = (y1 - y1.mean()) ** 2
        assert abs(np.var(y1, ddof=1) - 1.0 / 3.0) <= 3 * _se_of_mean(sq) + 1e-3

    def test_linearity_per_path(self, grid100):
        m = li.simulate_paths(li.CompensatedPoisson(rate=1.0), grid100, 50, 6)
        w = li.simulate_paths(li.Brownian(), grid100, 50, 7)
        phi2 = li.predictable_version(w)
        phi1 = li.PathEnsemble.deterministic(grid100, lambda t: t)
        a, b = 2.0, -3.0
        combo_vals = a * np.broadcast_to(phi1.values, phi2.values.shape) + b * phi2.values
        combo = li.PathEnsemble(values=combo_vals, grid=grid100, adapted=True, continuous=True)
        lhs = li.integral_process(combo, m).values
        rhs = a * li.integral_process(phi1, m).values + b * li.integral_process(phi2, m).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_bilinearity_in_integrator(self, grid100):
        w1 = li.simulate_paths(li.Brownian(), grid100, 50, 8)
        w2 = li.simulate_paths(li.Brownian(), grid100, 50, 9)
        phi = li.PathEnsemble.deterministic(grid100, lambda t: np.cos(t))
        summed = w1.with_values(w1.values + w2.values)
        lhs = li.integral_process(phi, summed).values
        rhs = li.integral_process(phi, w1).values + li.integral_process(phi, w2).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_martingale_mean_zero(self, martingale_specs):
        grid = li.TimeGrid.uniform(1.0, 100)
        for i, spec in enumerate(martingale_specs):
            x = li.simulate_paths(spec, grid, 100_000, 50 + i)
            phi = li.predictable_version(x)
            y = li.integral_process(phi, x).values[:, -1, 0]
            assert abs(np.mean(y)) <= 3 * _se_of_mean(y)

    def test_adaptedness_consequence(self, grid100):
        x = li.simulate_paths(li.CompensatedPoisson(rate=2.0), grid100, 50_000, 51)
        phi = li.predictable_version(x)
        z = li.increment_independence_z(phi, x)
        assert np.max(np.abs(z)) < 4.5
        # a deterministic integrator's increments are independent of any
        # integrand, so every covariance is 0 up to roundoff
        w = li.simulate_paths(li.Brownian(), grid100, 5000, 52)
        curve = li.PathEnsemble.deterministic(grid100, lambda t: t * t)
        assert np.max(np.abs(li.increment_independence_z(w, curve))) < 1e-9


    def test_zero_se_with_nonzero_covariance_is_infinite(self):
        # phi * dM is 2 on both paths, so its SE is 0, yet phi and dM covary
        grid = li.TimeGrid.uniform(1.0, 1)
        phi = li.PathEnsemble(values=[[1.0, 0.0], [2.0, 0.0]], grid=grid, adapted=True)
        m = li.PathEnsemble(values=[[0.0, 2.0], [0.0, 1.0]], grid=grid, adapted=True)
        assert li.increment_independence_z(phi, m).tolist() == [-np.inf]
        assert li.increment_independence_z(phi, phi.with_values(np.zeros((2, 2, 1)))).tolist() == [0.0]

    def test_standard_error_does_not_cancel(self):
        # independent paths with drift 1e5 and spread 1e-3: phi and dM have
        # means from 2.5e4 to 7.5e4, where uncentred products (means near
        # 1e9) cancel in both the covariance and its SE.  z must be the mean
        # of the centred products over their own standard error.
        phi, m = _drifted_pair()
        z = li.increment_independence_z(phi, m)
        p, d = phi.values[:, :-1, 0], np.diff(m.values[:, :, 0], axis=1)
        u = (p - p.mean(axis=0)) * (d - d.mean(axis=0))
        # phi_0 is 0 on every path, so its centred products are exactly 0
        assert z[0] == 0.0
        se = u.std(axis=0, ddof=1) / np.sqrt(u.shape[0])
        np.testing.assert_allclose(z[1:], u.mean(axis=0)[1:] / se[1:], rtol=1e-6)

    def test_sign_does_not_depend_on_the_block_size(self, monkeypatch):
        phi, m = _drifted_pair()
        signs = []
        for rows in (4096, 137):
            monkeypatch.setattr(ens_mod, "_CHUNK_ROWS", rows)
            signs.append(np.sign(li.increment_independence_z(phi, m)).tolist())
        assert signs[0] == signs[1]

    def test_look_ahead_on_drifted_paths_is_detected(self):
        # phi_{t_i} = M_{t_{i+1}} covaries with dM_i by dM_i's variance
        _, m = _drifted_pair()
        ahead = np.concatenate([m.values[:, 1:], m.values[:, -1:]], axis=1)
        z = li.increment_independence_z(m.with_values(ahead), m)
        assert np.min(np.abs(z)) > 4


def _drifted_pair():
    """Independent drifted paths (2000 paths, 4 steps, seeds 0 and 1), as phi and M."""
    spec, grid = li.Brownian(volatility=1e-3, drift=1e5), li.TimeGrid.uniform(1.0, 4)
    return tuple(li.simulate_paths(spec, grid, 2000, seed) for seed in (0, 1))


class TestBochnerIntegral:
    def test_constant(self, grid100):
        phi = li.PathEnsemble.deterministic(grid100, 3.0)
        y = li.bochner_integral(phi)
        assert np.max(np.abs(y.values[0, :, 0] - 3.0 * grid100.points)) < 1e-12

    def test_left_rule_on_ramp(self):
        grid = li.TimeGrid.uniform(1.0, 10)
        phi = li.PathEnsemble.deterministic(grid, lambda t: t)
        y = li.bochner_integral(phi)
        assert y.values[0, -1, 0] == pytest.approx(0.5 - 0.05, abs=1e-12)

    def test_brownian_mean_zero(self, grid100):
        w = li.simulate_paths(li.Brownian(), grid100, 100_000, 52)
        y = li.bochner_integral(w).values[:, -1, 0]
        assert abs(np.mean(y)) <= 3 * _se_of_mean(y)


class TestLevyIntegral:
    def test_driftless_reduces_to_martingale_integral(self, grid100):
        spec = li.CompensatedPoisson(rate=2.0)
        x = li.simulate_paths(spec, grid100, 100, 10)
        phi = li.PathEnsemble.deterministic(grid100, lambda t: t)
        lhs = li.levy_integral(phi, spec, x).values
        rhs = li.integral_process(phi, x).values
        assert np.array_equal(lhs, rhs)

    def test_constant_integrand_telescopes(self, grid100):
        spec = li.standard_poisson(rate=1.0)
        x = li.simulate_paths(spec, grid100, 100, 11)
        phi = li.PathEnsemble.deterministic(grid100, 1.0)
        y = li.levy_integral(phi, spec, x)
        assert np.max(np.abs(y.values - (x.values - x.values[:, :1, :]))) < 1e-12

    def test_poisson_self_integral(self, record_ensemble_factory):
        spec = li.standard_poisson(rate=3.0)
        base = li.TimeGrid.uniform(1.0, 8)
        sampled = li.simulate_paths(spec, base, 1, 23)
        rec = sampled.jumps[0]
        assert rec.count >= 2
        grid = base.augmented(rec.times)
        x = record_ensemble_factory(grid, rec, spec=spec)
        y = li.levy_integral(x, spec, x)
        k = float(rec.count)
        assert y.values[0, -1, 0] == pytest.approx(0.5 * (k * k - k), abs=1e-12)


class TestMeshStudy:
    def test_constant_integrand_all_zero(self, grid100):
        m = li.simulate_paths(li.Brownian(), grid100, 200, 12)
        phi = li.PathEnsemble.deterministic(grid100, 2.0)
        study = li.mesh_convergence_study(phi, m, [0.25, 0.05, 0.01], 1.0)
        # telescoping is exact up to float roundoff of the partition sums
        assert np.all(study.sq_differences < 1e-24)

    def test_brownian_self_integral_rate(self):
        grid = li.TimeGrid.uniform(1.0, 2**9)
        w = li.simulate_paths(li.Brownian(), grid, 4000, 13)
        meshes = [2.0**-k for k in range(4, 10)]
        study = li.mesh_convergence_study(w, w, meshes, 1.0)
        assert np.all(np.diff(study.sq_differences) < 0)
        assert 0.7 <= study.rate_exponent <= 1.3

    def test_compensated_poisson_monotone(self):
        grid = li.TimeGrid.uniform(1.0, 2**9)
        spec = li.CompensatedPoisson(rate=1.0)
        x = li.simulate_paths(spec, grid, 20_000, 14)
        phi = li.predictable_version(x)
        meshes = [2.0**-k for k in range(3, 10)]
        study = li.mesh_convergence_study(phi, x, meshes, 1.0)
        assert np.all(np.diff(study.sq_differences) < 0)

    def test_too_few_meshes_rejected(self, grid100):
        m = li.simulate_paths(li.Brownian(), grid100, 10, 15)
        phi = li.PathEnsemble.deterministic(grid100, 1.0)
        with pytest.raises(InsufficientDataError):
            li.mesh_convergence_study(phi, m, [0.5, 0.25], 1.0)

    def test_reference_row_closes_table(self, grid100):
        m = li.simulate_paths(li.Brownian(), grid100, 100, 16)
        phi = li.PathEnsemble.deterministic(grid100, lambda t: t)
        study = li.mesh_convergence_study(phi, m, [0.25, 0.05, 0.01], 1.0)
        assert study.meshes.size == 3
        assert study.sq_differences[-1] == 0.0
        assert study.reference_mesh == pytest.approx(0.01)


class TestUniformPartition:
    def test_stride_partition(self):
        grid = li.TimeGrid.uniform(1.0, 100)
        part = li.uniform_partition(grid, 1.0, 0.25)
        assert np.allclose(part.points, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_nondividing_mesh_rejected(self):
        grid = li.TimeGrid.uniform(1.0, 100)
        with pytest.raises(GridError):
            li.uniform_partition(grid, 1.0, 0.3)


def _study_outputs(tmp_path):
    """Every mesh-study table and the standard-error checks of CLI manifests."""
    grid = li.TimeGrid.uniform(1.0, 64)
    meshes = [2.0**-k for k in range(7)]
    w = li.simulate_paths(li.Brownian(), grid, 300, 21)
    cp = li.simulate_paths(li.CompoundPoisson(rate=3.0, jump_law=li.TwoPointJumps()), grid, 300, 22)
    two = li.PathEnsemble(np.concatenate([w.values, cp.values], axis=2), grid, adapted=True)
    ramp = li.PathEnsemble.deterministic(grid, lambda t: t)
    studies = [li.mesh_convergence_study(phi, m, meshes, 1.0)
               for phi, m in ((w, w), (li.left_limit(cp), cp), (two, w), (ramp, cp))]
    for ms, paths in (([0.25], 200), ([0.25, 0.125], 200), ([0.25, 0.125, 0.0625], 200),
                      ([0.5, 0.25], 1)):
        studies.append(li.brownian_ito_identity_check(1.0, ms, paths, 5))
    out = []
    for s in studies:
        ref = np.nan if s.reference_mesh is None else s.reference_mesh
        out += [s.meshes, s.sq_differences, s.standard_errors, s.rate_exponent, ref]

    base = {"seed": 3, "paths": 64, "grid": {"horizon": 1.0, "steps": 32}}
    configs = [
        ("integrate", {**base, "driver": {"kind": "compensated_poisson", "rate": 2.0},
                       "integrand": "ones"}),
        ("integrate", {**base, "driver": {"kind": "brownian"}, "integrand": "driver"}),
        ("simulate", {**base, "driver": {"kind": "compound_poisson"}}),
    ]
    for i, (kind, cfg) in enumerate(configs):
        out_dir = tmp_path / f"run{i}"
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps({**cfg, "out": str(out_dir)}))
        main([kind, "--config", str(path)])
        manifest = json.loads(next(out_dir.glob("*.manifest.json")).read_text())
        out.append(np.frombuffer(json.dumps(manifest["checks"], sort_keys=True).encode(), np.uint8))
    return out


class TestStudyGoldens:
    """sha256 of every mesh-study table (finest-mesh and closed-form
    references, one-path runs included) and of the standard-error checks in
    CLI manifests; a change here means the numbers changed."""

    def test_studies(self, tmp_path):
        h = hashlib.sha256()
        for value in _study_outputs(tmp_path):
            h.update(np.asarray(value).tobytes())
        assert h.hexdigest() == "f181cdb72cafbf70502f9d8f8fc63e51931251ad47d796e21a2efb27273188f8"
