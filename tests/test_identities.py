import hashlib

import numpy as np
import pytest

import levyint as li
from conftest import jump_table
from levyint import ensembles, identities
from levyint.errors import DomainError, InsufficientDataError, NumericError, ParameterError


def _dot_form(times, sizes, t, rule):
    """A path's Stieltjes self-integral as the per-path np.dot once formed it."""
    s = sizes[times <= t]
    post = np.cumsum(s)
    return float(np.dot(post if rule == "current_value" else post - s, s))


class TestStieltjesIntegral:
    def test_no_jumps(self):
        rec = jump_table(([], []))
        assert li.stieltjes_integral(rec, 1.0, "left_limit").tolist() == [0.0]
        assert li.stieltjes_integral(rec, 1.0, "current_value").tolist() == [0.0]
        assert li.stieltjes_integral(jump_table(), 1.0, "current_value").shape == (0,)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_unit_jump_formulas(self, k):
        rec = jump_table((np.linspace(0.1, 0.9, k), np.ones(k)))
        cur = li.stieltjes_integral(rec, 1.0, "current_value")[0]
        left = li.stieltjes_integral(rec, 1.0, "left_limit")[0]
        assert cur == pytest.approx(k * (k + 1) / 2, abs=1e-12)
        assert left == pytest.approx(k * (k - 1) / 2, abs=1e-12)
        assert cur - left == pytest.approx(k, abs=1e-12)

    def test_time_cutoff(self):
        table = jump_table(([0.2, 0.8], [1.0, 1.0]), ([0.1, 0.3, 0.5], [1.0, 2.0, 1.0]), ([0.6], [3.0]))
        assert li.stieltjes_integral(table, 0.5, "current_value").tolist() == [1.0, 1.0 + 6.0 + 4.0, 0.0]

    def test_unknown_rule_rejected(self):
        rec = jump_table(([0.5], [1.0]))
        with pytest.raises(DomainError):
            li.stieltjes_integral(rec, 1.0, "midpoint")

    def test_rule_gap_is_squared_jump_mass(self):
        # current-value minus left-limit rule accumulates the squared sizes
        rec = jump_table(([0.2, 0.6], [2.0, -1.0]))
        cur = li.stieltjes_integral(rec, 1.0, "current_value")[0]
        left = li.stieltjes_integral(rec, 1.0, "left_limit")[0]
        assert cur - left == pytest.approx(5.0, abs=1e-12)

    def test_left_rule_matches_riemann_sum_on_separating_partition(
        self, jump_ensemble_factory
    ):
        spec = li.standard_poisson(rate=3.0)
        base = li.TimeGrid.uniform(1.0, 8)
        sampled = li.simulate_paths(spec, base, 4, 71)
        for rec in sampled.jumps:
            grid = base.augmented(rec.times)
            x = jump_ensemble_factory(grid, rec)
            left_sum = li.riemann_sum(x, x, grid).scalar()[0]
            st = li.stieltjes_integral(rec, 1.0, "left_limit")[0]
            assert abs(left_sum - st) < 1e-12

    @pytest.mark.parametrize("rule", ["left_limit", "current_value"])
    @pytest.mark.parametrize("law", [li.NormalJumps(loc=0.3, scale=0.5), li.TwoPointJumps(), None],
                             ids=["normal", "two_point", "standard_poisson"])
    def test_each_path_has_the_bits_of_its_own_table(self, grid100, law, rule):
        spec = li.standard_poisson(40.0) if law is None else li.CompoundPoisson(rate=40.0, jump_law=law)
        jumps = li.simulate_paths(spec, grid100, 400, 21).jumps
        t = 0.75
        values = li.stieltjes_integral(jumps, t, rule)
        assert values.shape == (400,)
        alone = np.concatenate([li.stieltjes_integral(rec, t, rule) for rec in jumps])
        assert values.tobytes() == alone.tobytes()
        assert values[123:321].tobytes() == li.stieltjes_integral(jumps[123:321], t, rule).tobytes()
        old = np.array([_dot_form(rec.times, rec.sizes, t, rule) for rec in jumps])
        if law is None or isinstance(law, li.TwoPointJumps):
            # integer sizes: every term and partial sum is exact
            assert np.array_equal(values, old)
        else:
            assert np.max(np.abs(values - old) / np.abs(old)) < 1e-12


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

    def test_no_record_is_built_per_path(self, monkeypatch):
        # one table for the simulated paths and one per block of rows, here
        # of 256 rows of 17 points (four values a point)
        monkeypatch.setattr(ensembles, "_BLOCK_BUDGET", 256 * 4 * 17)
        built, init = [], li.JumpTable.__post_init__

        def counted(table):
            init(table)
            built.append(len(table))

        monkeypatch.setattr(li.JumpTable, "__post_init__", counted)
        assert li.poisson_identity_check(2.0, 1.0, 600, 3).passed
        assert built == [600, 256, 256, 600 - 2 * 256]

    def test_coincident_jump_guard(self, jump_ensemble_factory):
        grid = li.TimeGrid.uniform(1.0, 4)
        ens = jump_ensemble_factory(grid, jump_table(([0.5, 0.5 + 1e-16], [1.0, 1.0])))
        with pytest.raises(NumericError):
            li.drivers.reject_coincident_jumps(ens)


def _per_path_sums(points, rec):
    """A path's left sum on its jump-augmented partition and its current-value
    Stieltjes sum, formed on their own, as the check once did path by path."""
    pts = np.union1d(points, rec.times)
    x = rec.values_at(pts)[0]
    return float(np.dot(x[:-1], np.diff(x))), li.stieltjes_integral(rec, points[-1], "current_value")[0]


class TestIdentitySums:
    """The sums formed for all paths at once equal each path's own sums."""

    def test_jumps_on_and_between_base_points(self):
        points = np.linspace(0.0, 1.0, 5)
        table = jump_table(([0.25, 0.3, 0.5, 1.0], np.ones(4)),
                           ([], []),
                           ([0.1, 0.2, 0.21, 0.22], [1.0, 2.0, -1.0, 3.0]),
                           ([0.75], np.ones(1)),
                           ([1e-9, 0.9999], np.ones(2)))
        left, st = identities._identity_sums(points, table)
        want = np.array([_per_path_sums(points, rec) for rec in table])
        assert np.array_equal(left, want[:, 0]) and np.array_equal(st, want[:, 1])
        # jumps on base points are not repeated: the partition is 0, 0.25,
        # 0.3, 0.5, 0.75, 1 with values 0, 1, 2, 3, 3, 4
        assert left[0] == 0 * 1 + 1 * 1 + 2 * 1 + 3 * 0 + 3 * 1

    @pytest.mark.parametrize("rate, steps", [(0.3, 4), (5.0, 16), (40.0, 3)])
    def test_simulated_paths_on_grids_that_hold_some_jumps(self, rate, steps):
        ens = li.simulate_paths(li.standard_poisson(rate), li.TimeGrid.uniform(1.0, steps), 300, 17)
        on_grid = np.concatenate([rec.times[::3] for rec in ens.jumps[::7]])
        points = li.TimeGrid.uniform(1.0, steps).augmented(on_grid).points
        left, st = identities._identity_sums(points, ens.jumps)
        want = np.array([_per_path_sums(points, rec) for rec in ens.jumps])
        assert np.array_equal(left, want[:, 0]) and np.array_equal(st, want[:, 1])


_REPORT_FIELDS = ("left_sum_residuals", "stieltjes_residuals", "difference_residuals",
                  "left_sum_values", "stieltjes_values", "terminal_counts")


class TestIdentityGoldens:
    """sha256 of every IdentityReport array, recorded while the check still
    looped over paths one at a time; a change here means the numbers changed."""

    @pytest.mark.parametrize(
        "rate, horizon, n_paths, seed, base_steps, expect",
        [
            (1.0, 1.0, 2000, 3, 16, "07bb2a636c1370894f96c4db813b07783d7bf12cb919a8ff17e0ecee68a31d3c"),
            # most paths without a jump
            (0.05, 1.0, 300, 4, 4, "b2859d8574924877135b1258143c750f1c5475b50094bcda7b9eff4008f5905d"),
            (7.5, 2.0, 500, 5, 64, "9b82a398d09b06e39f973081a4204304ef27890c36b49d87cd13d6b78f75feec"),
            # 16 blocks of 256 rows and a lone row; one base interval
            (2.0, 0.5, 4097, 6, 1, "d7bfd843af15e1236860a762b3132178aa2a6c3324638c725ce4a680f9c4cf7b"),
            (0.7, 3.0, 1, 8, 16, "7193c47fcae331189d928b3a75e47ee9921e02bcce498c0870d370dc5ac2bd0a"),
            # about ten jumps per base interval
            (30.0, 1.0, 200, 9, 3, "cbc422c8b0ba60f5d57823b2ae2fdd447d2c0d193c2eac79f50e4ee0647ca2dc"),
        ],
        ids=["unit", "low_rate", "long_horizon_fine_grid", "lone_row", "one_path", "high_rate"],
    )
    def test_report_arrays(self, rate, horizon, n_paths, seed, base_steps, expect):
        rep = li.poisson_identity_check(rate, horizon, n_paths, seed, base_steps=base_steps)
        assert rep.passed
        h = hashlib.sha256()
        for name in _REPORT_FIELDS:
            a = getattr(rep, name)
            assert a.dtype == np.float64 and a.shape == (n_paths,)
            h.update(a.tobytes())
        assert h.hexdigest() == expect


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
