import numpy as np
import pytest

import levyint as li
from levyint.errors import DomainError, InsufficientDataError, NumericError, ParameterError


class TestStieltjesIntegral:
    def test_no_jumps(self):
        rec = li.JumpRecord(times=np.array([]), sizes=np.array([]))
        assert li.stieltjes_integral(rec, 1.0, "left_limit") == 0.0
        assert li.stieltjes_integral(rec, 1.0, "current_value") == 0.0

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_unit_jump_formulas(self, k):
        rec = li.JumpRecord(
            times=np.linspace(0.1, 0.9, k), sizes=np.ones(k)
        )
        cur = li.stieltjes_integral(rec, 1.0, "current_value")
        left = li.stieltjes_integral(rec, 1.0, "left_limit")
        assert cur == pytest.approx(k * (k + 1) / 2, abs=1e-12)
        assert left == pytest.approx(k * (k - 1) / 2, abs=1e-12)
        assert cur - left == pytest.approx(k, abs=1e-12)

    def test_time_cutoff(self):
        rec = li.JumpRecord(times=np.array([0.2, 0.8]), sizes=np.array([1.0, 1.0]))
        assert li.stieltjes_integral(rec, 0.5, "current_value") == 1.0

    def test_unknown_rule_rejected(self):
        rec = li.JumpRecord(times=np.array([0.5]), sizes=np.array([1.0]))
        with pytest.raises(DomainError):
            li.stieltjes_integral(rec, 1.0, "midpoint")

    def test_rule_gap_is_squared_jump_mass(self):
        # current-value minus left-limit rule accumulates the squared sizes
        rec = li.JumpRecord(times=np.array([0.2, 0.6]), sizes=np.array([2.0, -1.0]))
        cur = li.stieltjes_integral(rec, 1.0, "current_value")
        left = li.stieltjes_integral(rec, 1.0, "left_limit")
        assert cur - left == pytest.approx(5.0, abs=1e-12)

    def test_left_rule_matches_riemann_sum_on_separating_partition(
        self, record_ensemble_factory
    ):
        spec = li.standard_poisson(rate=3.0)
        base = li.TimeGrid.uniform(1.0, 8)
        sampled = li.simulate_paths(spec, base, 4, 71)
        for rec in sampled.jumps:
            grid = base.augmented(rec.times)
            x = record_ensemble_factory(grid, rec)
            left_sum = li.riemann_sum(x, x, grid).scalar()[0]
            st = li.stieltjes_integral(rec, 1.0, "left_limit")
            assert abs(left_sum - st) < 1e-12


class TestPoissonIdentityCheck:
    def test_all_paths_exact(self):
        rep = li.poisson_identity_check(1.0, 1.0, 2000, 3)
        assert rep.passed
        assert rep.max_residual < 1e-12

    def test_zero_jump_paths(self):
        rep = li.poisson_identity_check(0.5, 1.0, 500, 4)
        empty = rep.terminal_counts == 0
        assert empty.any()
        assert np.all(rep.left_sum_values[empty] == 0.0)
        assert np.all(rep.stieltjes_values[empty] == 0.0)

    def test_two_jump_paths(self):
        rep = li.poisson_identity_check(2.0, 1.0, 500, 5)
        two = rep.terminal_counts == 2
        assert two.any()
        assert np.all(rep.left_sum_values[two] == 1.0)
        assert np.all(rep.stieltjes_values[two] == 3.0)

    def test_mean_of_left_sums(self):
        # E[(X_T^2 - X_T)/2] = (rate*T)^2/2
        rep = li.poisson_identity_check(1.0, 1.0, 10_000, 6)
        vals = rep.left_sum_values
        se = np.std(vals, ddof=1) / np.sqrt(vals.size)
        assert abs(np.mean(vals) - 0.5) <= 3 * se

    def test_difference_is_squared_jump_mass(self):
        rep = li.poisson_identity_check(1.5, 2.0, 1000, 7)
        gap = rep.stieltjes_values - rep.left_sum_values
        assert np.max(np.abs(gap - rep.terminal_counts)) < 1e-12

    def test_coincident_jump_guard(self, record_ensemble_factory):
        grid = li.TimeGrid.uniform(1.0, 4)
        rec = li.JumpRecord(
            times=np.array([0.5, 0.5 + 1e-16]), sizes=np.array([1.0, 1.0])
        )
        ens = record_ensemble_factory(grid, rec)
        with pytest.raises(NumericError):
            li.drivers.reject_coincident_jumps(ens)


class TestBrownianItoIdentity:
    def test_squared_distance_tracks_half_T_h(self):
        study = li.brownian_ito_identity_check(1.0, [1e-3], 5000, 8)
        expected = 1.0 * 1e-3 / 2
        assert expected / 2 <= study.sq_differences[0] <= expected * 2

    def test_halving_the_mesh(self):
        study = li.brownian_ito_identity_check(1.0, [2e-3, 1e-3], 10_000, 9)
        ratio = study.sq_differences[1] / study.sq_differences[0]
        assert 0.35 <= ratio <= 0.65

    def test_tiny_horizon_single_mesh(self):
        # smallest admissible study: one interval over a very short horizon
        study = li.brownian_ito_identity_check(1e-6, [1e-6], 200, 10)
        assert study.sq_differences[0] < 1e-10

    def test_rate_exponent(self):
        meshes = [2.0**-k for k in range(4, 10)]
        study = li.brownian_ito_identity_check(1.0, meshes, 4000, 11)
        assert 0.7 <= study.rate_exponent <= 1.3

    def test_increasing_meshes_rejected(self):
        with pytest.raises(InsufficientDataError):
            li.brownian_ito_identity_check(1.0, [1e-3, 2e-3], 100, 12)

    @pytest.mark.parametrize("meshes", [[1e-310], [0.0], [0.5, np.nan], [np.inf, 0.5]],
                             ids=["subnormal", "zero", "nan", "inf"])
    def test_unusable_mesh_rejected(self, meshes):
        with pytest.raises(ParameterError):
            li.brownian_ito_identity_check(1.0, meshes, 1, 0)
