import numpy as np
import pytest

import levyint as li
from conftest import jump_table
from levyint.errors import AdaptednessError, ConsistencyError, DomainError, ParameterError


class TestPredictableVersion:
    def test_continuous_curve_is_its_own_representative(self, grid100):
        w = li.simulate_paths(li.Brownian(), grid100, 50, 1)
        p = li.predictable_version(w)
        assert np.array_equal(p.values, w.values)
        assert p.grid_predictable

    def test_counting_process_gets_left_limits(self, jump_ensemble_factory):
        rec = jump_table(([0.5], [1.0]))
        grid = li.TimeGrid.uniform(1.0, 4)
        x = jump_ensemble_factory(grid, rec)
        p = li.predictable_version(x)
        assert p.values[0, grid.index_of(0.5), 0] == 0.0

    def test_unadapted_rejected(self, grid100):
        phi = li.PathEnsemble(values=np.ones((3, grid100.n_points, 1)), grid=grid100)
        with pytest.raises(AdaptednessError):
            li.predictable_version(phi)

    def test_linearity(self, jump_ensemble_factory):
        base = li.TimeGrid.uniform(1.0, 8)
        rec1 = jump_table(([0.3], [2.0]))
        rec2 = jump_table(([0.7], [-1.0]))
        merged = jump_table(([0.3, 0.7], [2.0 * 2.0, 3.0 * -1.0]))
        grid = base.augmented(np.array([0.3, 0.7]))
        x1 = jump_ensemble_factory(grid, rec1)
        x2 = jump_ensemble_factory(grid, rec2)
        combo = li.PathEnsemble(
            values=2.0 * x1.values + 3.0 * x2.values,
            grid=grid,
            adapted=True,
            jumps=merged,
        )
        lhs = li.predictable_version(combo).values
        rhs = (
            2.0 * li.predictable_version(x1).values
            + 3.0 * li.predictable_version(x2).values
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_seminorm_preserved_off_jump_times(self, grid100):
        # simulated jump times a.s. avoid grid points, so the quadrature of
        # the second moments is unchanged by passing to left limits
        spec = li.CompoundPoisson(rate=3.0, jump_law=li.ExponentialJumps(rate=1.0))
        x = li.simulate_paths(spec, grid100, 500, 2)
        p = li.predictable_version(x)
        q_x = float(np.dot(li.second_moments(x)[:-1], grid100.dt))
        q_p = float(np.dot(li.second_moments(p)[:-1], grid100.dt))
        assert q_p == pytest.approx(q_x, rel=1e-12)


class TestEmbeddingBound:
    def test_constant_curve_tight(self):
        grid = li.TimeGrid.uniform(2.0, 50)
        phi = li.PathEnsemble.deterministic(grid, 1.0)
        rep = li.embedding_norm_check(phi)
        assert rep.time_integral == pytest.approx(2.0, abs=1e-12)
        assert rep.bound == pytest.approx(2.0, abs=1e-12)
        assert rep.holds

    def test_ramp_curve(self):
        grid = li.TimeGrid.uniform(1.0, 1000)
        phi = li.PathEnsemble.deterministic(grid, lambda t: t)
        rep = li.embedding_norm_check(phi)
        assert abs(rep.time_integral - 1.0 / 3.0) < grid.mesh
        assert rep.bound == pytest.approx(1.0, abs=1e-12)
        assert rep.holds

    def test_brownian_curve(self, grid100):
        w = li.simulate_paths(li.Brownian(), grid100, 100_000, 3)
        rep = li.embedding_norm_check(w)
        assert rep.holds
        assert rep.time_integral == pytest.approx(0.5, rel=0.05)
        assert rep.bound == pytest.approx(1.0, rel=0.05)

    def test_operator_bound_sqrt_T(self, grid100, martingale_specs):
        # seminorm (L2 in time and sample) <= sqrt(T) * sup norm
        for i, spec in enumerate(martingale_specs):
            x = li.simulate_paths(spec, grid100, 5000, 20 + i)
            rep = li.embedding_norm_check(x)
            lhs = np.sqrt(rep.time_integral)
            rhs = np.sqrt(grid100.horizon) * li.sup_l2_norm(x)
            assert lhs <= rhs + 1e-9


class TestInjectivityWitness:
    def test_zero_curve(self, grid100):
        phi = li.PathEnsemble.deterministic(grid100, 0.0)
        rep = li.injectivity_witness(phi)
        assert rep.seminorm_sq == 0.0
        assert rep.sup_norm == 0.0
        assert rep.consistent is True  # a Python bool

    def test_vanishing_ramp(self, grid100):
        phi = li.PathEnsemble.deterministic(grid100, lambda t: np.maximum(0.0, t - 1.0))
        rep = li.injectivity_witness(phi)
        assert rep.seminorm_sq == 0.0
        assert rep.sup_norm == 0.0
        assert rep.consistent

    def test_small_constant_contrapositive(self, grid100):
        eps = 1e-3
        phi = li.PathEnsemble.deterministic(grid100, eps)
        rep = li.injectivity_witness(phi)
        assert rep.seminorm_sq == pytest.approx(eps**2, rel=1e-9)
        assert rep.sup_norm == pytest.approx(eps, rel=1e-9)
        assert rep.consistent

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf")])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        phi = li.PathEnsemble.deterministic(li.TimeGrid.uniform(1.0, 8), 1.0)
        with pytest.raises(ParameterError):
            li.injectivity_witness(phi, tol=tol)


class TestItoIsometry:
    def test_constant_against_brownian(self, grid100):
        spec = li.Brownian(volatility=1.0)
        m = li.simulate_paths(spec, grid100, 20_000, 4)
        phi = li.PathEnsemble.deterministic(grid100, 1.0)
        rep = li.ito_isometry_check(phi, spec, m)
        assert rep.rhs == pytest.approx(1.0, abs=1e-12)
        assert abs(rep.z_score) < 3.0

    def test_ramp_against_brownian(self):
        grid = li.TimeGrid.uniform(1.0, 1000)
        spec = li.Brownian(volatility=1.0)
        m = li.simulate_paths(spec, grid, 20_000, 5)
        phi = li.PathEnsemble.deterministic(grid, lambda t: t)
        rep = li.ito_isometry_check(phi, spec, m)
        assert rep.lhs == pytest.approx(1.0 / 3.0, rel=0.05)
        assert rep.rhs == pytest.approx(1.0 / 3.0, rel=0.01)
        assert abs(rep.z_score) < 3.0

    def test_constant_against_compensated_poisson(self, grid100):
        spec = li.CompensatedPoisson(rate=2.0)
        m = li.simulate_paths(spec, grid100, 20_000, 6)
        phi = li.PathEnsemble.deterministic(grid100, 1.0)
        rep = li.ito_isometry_check(phi, spec, m)
        assert rep.rhs == pytest.approx(2.0, abs=1e-9)
        assert rep.lhs == pytest.approx(2.0, rel=0.05)
        assert abs(rep.z_score) < 3.0

    def test_drifted_driver_rejected(self, grid100):
        spec = li.standard_poisson(rate=1.0)
        m = li.simulate_paths(spec, grid100, 100, 7)
        phi = li.PathEnsemble.deterministic(grid100, 1.0)
        with pytest.raises(DomainError):
            li.ito_isometry_check(phi, spec, m)

    def test_paths_of_another_driver_rejected(self):
        # with the bracket rate of the wrong driver: lhs 3.92, rhs 1.0, z 24
        grid = li.TimeGrid.uniform(1.0, 100)
        m = li.simulate_paths(li.Brownian(volatility=2.0), grid, 2000, 1)
        phi = li.PathEnsemble.deterministic(grid, 1.0)
        with pytest.raises(ConsistencyError):
            li.ito_isometry_check(phi, li.Brownian(volatility=1.0), m)


class TestProjectionVsLeftLimit:
    def test_brownian_exact_zero(self, grid100):
        w = li.simulate_paths(li.Brownian(), grid100, 100, 8)
        assert li.projection_vs_left_limit(w) == 0.0

    def test_jump_drivers_zero(self, grid100, cadlag_specs):
        for i, spec in enumerate(cadlag_specs):
            x = li.simulate_paths(spec, grid100, 200, 30 + i)
            assert li.projection_vs_left_limit(x) < 1e-12
