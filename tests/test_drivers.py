import hashlib

import numpy as np
import pytest

import levyint as li
from levyint.drivers import reconstruction_residual
from levyint.errors import ConsistencyError, ParameterError


def _se_of_mean(x):
    return np.std(x, ddof=1) / np.sqrt(x.size)


class TestSpecValidation:
    def test_negative_volatility_rejected(self):
        with pytest.raises(ParameterError):
            li.Brownian(volatility=-1.0)

    @pytest.mark.parametrize("rate", [0.0, -2.0])
    def test_nonpositive_intensity_rejected(self, rate):
        with pytest.raises(ParameterError):
            li.CompensatedPoisson(rate=rate)
        with pytest.raises(ParameterError):
            li.CompoundPoisson(rate=rate)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize(
        "make",
        [
            lambda v: li.Brownian(volatility=v),
            lambda v: li.Brownian(drift=v),
            lambda v: li.CompensatedPoisson(rate=v),
            lambda v: li.CompensatedPoisson(drift=v),
            lambda v: li.standard_poisson(rate=v),
            lambda v: li.CompoundPoisson(rate=v),
            lambda v: li.CompoundPoisson(drift=v),
            lambda v: li.ExponentialJumps(rate=v),
            lambda v: li.NormalJumps(loc=v, scale=1.0),
            lambda v: li.NormalJumps(scale=v),
        ],
        ids=["volatility", "brownian_drift", "poisson_rate", "poisson_drift", "standard_rate",
             "compound_rate", "compound_drift", "exponential_rate", "normal_loc", "normal_scale"],
    )
    def test_non_finite_parameter_rejected(self, make, bad):
        with pytest.raises(ParameterError):
            make(bad)

    def test_normal_loc_defaults_to_zero(self):
        assert li.NormalJumps(scale=2.0) == li.NormalJumps(loc=0.0, scale=2.0)

    def test_jump_law_moments(self):
        assert li.TwoPointJumps().second_moment() == 1.0
        assert li.ExponentialJumps(rate=2.0).second_moment() == pytest.approx(0.5)
        assert li.NormalJumps(loc=1.0, scale=2.0).second_moment() == pytest.approx(5.0)

    def test_bad_n_paths(self, grid100):
        with pytest.raises(ParameterError):
            li.simulate_paths(li.Brownian(), grid100, 0, 1)

    def test_negative_seed_rejected(self, grid100):
        with pytest.raises(ParameterError):
            li.simulate_paths(li.Brownian(), grid100, 2, -1)
        with pytest.raises(ParameterError):
            li.child_seed(-1, 0)


class TestBracketRate:
    def test_unit_brownian(self):
        assert li.Brownian(volatility=1.0).bracket_rate() == 1.0

    def test_compensated_poisson(self):
        assert li.CompensatedPoisson(rate=2.0).bracket_rate() == 2.0

    def test_two_point_compound(self):
        spec = li.CompoundPoisson(rate=3.0, jump_law=li.TwoPointJumps())
        assert spec.bracket_rate() == 3.0

    def test_exponential_compound(self):
        spec = li.CompoundPoisson(rate=3.0, jump_law=li.ExponentialJumps(rate=1.0))
        assert spec.bracket_rate() == pytest.approx(6.0)


class TestSimulation:
    def test_degenerate_brownian_is_zero(self, grid100):
        ens = li.simulate_paths(li.Brownian(volatility=0.0, drift=0.0), grid100, 4, 1)
        assert np.all(ens.values == 0.0)

    def test_compensated_poisson_terminal_moments(self, grid100):
        ens = li.simulate_paths(li.CompensatedPoisson(rate=1.0), grid100, 100_000, 21)
        xt = ens.values[:, -1, 0]
        assert abs(np.mean(xt)) <= 3 * _se_of_mean(xt)
        sq = (xt - xt.mean()) ** 2
        assert abs(np.var(xt, ddof=1) - 1.0) <= 3 * _se_of_mean(sq)

    def test_brownian_drift_mean(self, grid100):
        ens = li.simulate_paths(li.Brownian(volatility=1.0, drift=2.0), grid100, 50_000, 22)
        xt = ens.values[:, -1, 0]
        assert abs(np.mean(xt) - 2.0) <= 3 * _se_of_mean(xt)

    @pytest.mark.parametrize("spec_idx", [0, 1, 2])
    def test_martingale_variance_matches_bracket(self, martingale_specs, grid100, spec_idx):
        spec = martingale_specs[spec_idx]
        ens = li.simulate_paths(spec, grid100, 100_000, 33 + spec_idx)
        m = li.martingale_part(spec, ens)
        c = spec.bracket_rate()
        for t_idx in (50, 100):
            mt = m.values[:, t_idx, 0]
            sq = (mt - mt.mean()) ** 2
            expected = c * grid100.points[t_idx]
            assert abs(np.var(mt, ddof=1) - expected) <= 3 * _se_of_mean(sq)

    def test_jump_reconstruction_exact(self, grid100, cadlag_specs):
        for spec in cadlag_specs:
            ens = li.simulate_paths(spec, grid100, 200, 5)
            assert reconstruction_residual(spec, ens) < 1e-12

    def test_reconstruction_of_another_drivers_paths_rejected(self, grid100):
        # rebuilt with the wrong drift, the residual would be 2.0
        ens = li.simulate_paths(li.CompensatedPoisson(rate=2.0), grid100, 5, 5)
        with pytest.raises(ConsistencyError):
            reconstruction_residual(li.standard_poisson(rate=2.0), ens)

    def test_increments_uncorrelated_over_disjoint_intervals(self, grid100):
        ens = li.simulate_paths(li.CompensatedPoisson(rate=2.0), grid100, 40_000, 8)
        x = ens.values[:, :, 0]
        a = x[:, 30] - x[:, 0]
        b = x[:, 100] - x[:, 30]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 3 / np.sqrt(a.size)


class TestMartingalePart:
    def test_zero_drift_identity(self, grid100):
        spec = li.Brownian(volatility=1.0)
        ens = li.simulate_paths(spec, grid100, 10, 2)
        m = li.martingale_part(spec, ens)
        assert m is ens

    def test_standard_poisson_decomposition(self, grid100):
        # a path sitting at 3 at time 1 has martingale part 3 - rate*1
        spec = li.standard_poisson(rate=1.0)
        ens = li.simulate_paths(spec, grid100, 2000, 4)
        m = li.martingale_part(spec, ens)
        target = ens.values[:, -1, 0] - 1.0
        assert np.max(np.abs(m.values[:, -1, 0] - target)) < 1e-12
        with_three = ens.values[:, -1, 0] == 3.0
        assert with_three.any()
        assert np.allclose(m.values[with_three, -1, 0], 2.0)

    def test_drifted_brownian_martingale_mean_zero(self, grid100):
        spec = li.Brownian(volatility=1.0, drift=5.0)
        ens = li.simulate_paths(spec, grid100, 100_000, 6)
        m = li.martingale_part(spec, ens)
        mt = m.values[:, -1, 0]
        assert abs(np.mean(mt)) <= 3 * _se_of_mean(mt)

    def test_spec_mismatch_rejected(self, grid100):
        ens = li.simulate_paths(li.Brownian(volatility=1.0), grid100, 5, 1)
        with pytest.raises(ConsistencyError):
            li.martingale_part(li.Brownian(volatility=2.0), ens)

    @pytest.mark.parametrize("spec, martingale", [
        (li.standard_poisson(rate=1.0), li.CompensatedPoisson(rate=1.0)),
        (li.CompoundPoisson(rate=2.0, jump_law=li.ExponentialJumps(rate=1.0), compensated=False, drift=0.5),
         li.CompoundPoisson(rate=2.0, jump_law=li.ExponentialJumps(rate=1.0))),
    ])
    def test_records_the_martingale_driver(self, grid100, spec, martingale):
        ens = li.simulate_paths(spec, grid100, 20, 4)
        m = li.martingale_part(spec, ens)
        assert m.spec == martingale
        assert reconstruction_residual(martingale, m) < 1e-12
        # the drift is subtracted once: the martingale part is not spec's paths
        with pytest.raises(ConsistencyError):
            li.martingale_part(spec, m)

    def test_jump_records_preserved(self, grid100):
        spec = li.CompoundPoisson(rate=2.0, jump_law=li.ExponentialJumps(rate=1.0))
        ens = li.simulate_paths(spec, grid100, 20, 3)
        m = li.martingale_part(spec, ens)
        assert m.jumps is ens.jumps


class TestDeterminism:
    def test_same_seed_bit_identical(self, grid100, martingale_specs):
        for spec in martingale_specs:
            a = li.simulate_paths(spec, grid100, 300, 77)
            b = li.simulate_paths(spec, grid100, 300, 77)
            assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self, grid100):
        a = li.simulate_paths(li.Brownian(), grid100, 300, 77)
        b = li.simulate_paths(li.Brownian(), grid100, 300, 78)
        assert not np.array_equal(a.values, b.values)

    @pytest.mark.parametrize(
        "specs, idx", [("martingale_specs", i) for i in range(3)] + [("cadlag_specs", i) for i in range(5)]
    )
    def test_path_offset_reproduces_slices(self, request, grid100, specs, idx):
        spec = request.getfixturevalue(specs)[idx]
        full = li.simulate_paths(spec, grid100, 50, 13)
        lo = li.simulate_paths(spec, grid100, 30, 13, path_offset=0)
        hi = li.simulate_paths(spec, grid100, 20, 13, path_offset=30)
        assert np.array_equal(np.vstack([lo.values, hi.values]), full.values)
        if full.jumps is not None:
            for a, b in zip(lo.jumps + hi.jumps, full.jumps, strict=True):
                assert np.array_equal(a.times, b.times) and np.array_equal(a.sizes, b.sizes)


def _update(h, ens):
    h.update(ens.values.tobytes())
    for rec in ens.jumps or ():
        h.update(rec.times.tobytes())
        h.update(rec.sizes.tobytes())


class TestGoldenDigests:
    """sha256 of simulated values and jump records per driver kind, recorded
    before jump records and grid values shared one helper; a change here
    means the simulated numbers changed."""

    @pytest.mark.parametrize(
        "spec, expect",
        [
            (li.Brownian(volatility=1.5, drift=0.5),
             "c4df705c59d4f1400d09f65ee669bdf1e6e829f57ca8edfe1739253477731596"),
            (li.CompensatedPoisson(rate=2.0, drift=0.3),
             "f2dd8b33de2cd4f8231164a084b095d27644e39e8d22ff3efc425ef52b934a44"),
            (li.standard_poisson(rate=1.5),
             "2b2025f4258dcd4a5f79a009bbef78650d6ab3a66c167cde4845af0d88b3e288"),
            (li.CompoundPoisson(rate=3.0, jump_law=li.TwoPointJumps()),
             "3b4bebf31fcdcf243ab39dbd85cee0d478fd3e208e4bc5dcd2275daa655b2588"),
            (li.CompoundPoisson(rate=2.0, jump_law=li.ExponentialJumps(rate=2.0),
                                compensated=False, drift=0.1),
             "9ea909210d0b56cfc195c9c3cb882d1aca1340a5d5e16f5b014647d3b8ca6d52"),
            (li.CompoundPoisson(rate=2.5, jump_law=li.NormalJumps(loc=0.3, scale=0.5)),
             "43c69e5c5252554684138952bf062b251cd1669e6a0322a3274ebd871f10825a"),
        ],
        ids=["brownian", "compensated_poisson", "standard_poisson", "two_point",
             "exponential_uncompensated", "normal"],
    )
    def test_simulated_paths(self, spec, expect):
        ens = li.simulate_paths(spec, li.TimeGrid.uniform(1.0, 16), 8, 2024)
        h = hashlib.sha256()
        _update(h, ens)
        assert h.hexdigest() == expect

    def test_offset_chunk_with_left_limits(self):
        # long exponential loops (rate 40), 32-bit draws whose spare half
        # must not carry into the next path (two-point sizes), normal sizes;
        # then left limits without and with jump times on the grid
        grid = li.TimeGrid.uniform(1.0, 64)
        specs = [li.CompensatedPoisson(rate=40.0),
                 li.CompoundPoisson(rate=3.0, jump_law=li.TwoPointJumps()),
                 li.CompoundPoisson(rate=2.0, jump_law=li.NormalJumps(loc=0.3, scale=0.5))]
        h = hashlib.sha256()
        for spec in specs:
            ens = li.simulate_paths(spec, grid, 1500, 2025, path_offset=777)
            _update(h, ens)
            h.update(li.left_limit(ens).values.tobytes())
        hit_grid = grid.augmented(np.concatenate([rec.times for rec in ens.jumps[:40]]))
        hit = li.simulate_paths(specs[-1], hit_grid, 1500, 2025, path_offset=777)
        ll = li.left_limit(hit)
        assert not np.array_equal(ll.values, hit.values)
        _update(h, hit)
        h.update(ll.values.tobytes())
        assert h.hexdigest() == "cf75a9fd73c520099db32eb68125e660d69214ffbf58fd02bf0d4a93382a3265"
