import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levyint as li
from levyint import drivers
from levyint.drivers import reconstruction_residual, reject_coincident_jumps
from levyint.errors import ConsistencyError, NumericError, ParameterError


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

    @pytest.mark.parametrize("spec", [li.Brownian(), li.CompensatedPoisson(rate=2.0),
                                      li.CompoundPoisson(rate=3.0)],
                             ids=["brownian", "compensated_poisson", "compound_poisson"])
    def test_path_indices_past_the_counter_word_rejected(self, grid100, spec):
        for offset, n in ((2**64 - 1, 2), (np.uint64(2**64 - 1), 2), (2**64, 1), (2**70, 3)):
            with pytest.raises(ParameterError, match="64-bit counter word"):
                li.simulate_paths(spec, grid100, n, 0, path_offset=offset)
        last_two = li.simulate_paths(spec, grid100, 2, 0, path_offset=2**64 - 2)
        last = li.simulate_paths(spec, grid100, 1, 0, path_offset=2**64 - 1)
        assert np.array_equal(last_two.values[1:], last.values)


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
            for part, rows in ((lo.jumps, slice(0, 30)), (hi.jumps, slice(30, 50))):
                whole = full.jumps[rows]
                for name in ("times", "sizes", "bounds"):
                    assert np.array_equal(getattr(part, name), getattr(whole, name))


class TestTwoPointSigns:
    """Signs read from raw Philox words are the bounded integers
    ``_PM1[rng.integers(0, 2, size=n)]`` that ``TwoPointJumps.sample`` draws
    on a path stream, and ``sample`` stays right on any generator."""

    def test_raw_words_give_the_bounded_integers(self):
        key = np.random.SeedSequence(21).generate_state(2, np.uint64)
        for path in range(50):
            gaps, n = divmod(path, 10)  # 0-4 exponential draws, then 0-9 signs
            ref, raw = (np.random.Generator(np.random.Philox(key=key, counter=[0, 0, path, 0]))
                        for _ in range(2))
            for rng in (ref, raw):
                for _ in range(gaps):
                    rng.exponential(0.5)
            want = li.TwoPointJumps().sample(ref, n)
            got = drivers._two_point_signs(raw, n)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            # the same whole words are read: only the carried half can differ
            assert raw.bit_generator.state["buffer_pos"] == ref.bit_generator.state["buffer_pos"]
            assert np.array_equal(raw.bit_generator.state["state"]["counter"],
                                  ref.bit_generator.state["state"]["counter"])

    @pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.PCG64, np.random.Philox])
    def test_sample_is_the_bounded_integers_on_any_generator(self, bitgen):
        # MT19937's raw words are 32 bits wide, and a carried half is read first
        for carried in (False, True):
            ref, rng = (np.random.Generator(bitgen(8)) for _ in range(2))
            if carried:
                for g in (ref, rng):
                    g.integers(0, 2**32, dtype=np.uint32)
            want = drivers._PM1[ref.integers(0, 2, size=1001)]
            got = li.TwoPointJumps().sample(rng, 1001)
            assert got.tobytes() == want.tobytes()
            assert abs(got[1::2].mean()) < 0.2 and abs(got[::2].mean()) < 0.2


def _reference_jump_values(rec, points):
    """A record's grid values formed on its own, as a per-path fill did."""
    cum = np.concatenate(([0.0], np.cumsum(rec.sizes)))
    return cum[np.searchsorted(rec.times, points, side="right")]


def _reference_brownian(spec, grid, n_paths, seed, path_offset):
    """Brownian paths drawn and summed one path at a time."""
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    out = np.empty((n_paths, grid.n_points))
    for row, rng in zip(out, drivers._path_rngs(key, path_offset, n_paths)):
        row[0] = 0.0
        np.cumsum(rng.standard_normal(grid.n_intervals) * (spec.volatility * np.sqrt(grid.dt)), out=row[1:])
    return out + spec.drift * grid.points


_grids = st.one_of(
    st.builds(li.TimeGrid.uniform, st.sampled_from([0.5, 1.0, 3.0]), st.integers(1, 40)),
    st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=30, unique=True).map(
        lambda ts: li.TimeGrid(np.concatenate(([0.0], np.sort(ts))))),
)
_rates = st.sampled_from([0.01, 0.5, 2.0, 40.0])
_jump_specs = st.one_of(
    st.builds(li.CompensatedPoisson, rate=_rates, drift=st.sampled_from([0.0, -0.0, 0.7])),
    st.builds(li.CompoundPoisson, rate=_rates,
              jump_law=st.sampled_from([li.TwoPointJumps(), li.ExponentialJumps(rate=0.5),
                                        li.NormalJumps(loc=-0.3, scale=1.2),
                                        li.NormalJumps(loc=-0.0, scale=0.0)]),
              compensated=st.booleans(), drift=st.sampled_from([0.0, -0.0, 0.7])),
)


class TestBlockFill:
    """Grid values filled in row blocks equal each path's values formed on
    its own, bit for bit, at any block size."""

    @settings(max_examples=40, deadline=None)
    @given(spec=_jump_specs, grid=_grids, n_paths=st.integers(1, 600), offset=st.integers(0, 300),
           fill_rows=st.sampled_from([1, 2, 7, 256]))
    def test_jump_values_are_each_records_values(self, spec, grid, n_paths, offset, fill_rows):
        old = drivers._FILL_ROWS
        try:
            drivers._FILL_ROWS = fill_rows
            ens = li.simulate_paths(spec, grid, n_paths, 9, path_offset=offset)
        finally:
            drivers._FILL_ROWS = old
        drift = drivers._path_drift(spec) * grid.points
        for row, rec in zip(ens.values[:, :, 0], ens.jumps, strict=True):
            want = _reference_jump_values(rec, grid.points) + drift
            assert np.array_equal(row, want) and (np.signbit(row) == np.signbit(want)).all()
            assert np.array_equal(rec.values_at(grid.points) + drift, want)

    @settings(max_examples=20, deadline=None)
    @given(grid=_grids, n_paths=st.integers(1, 600), offset=st.integers(0, 300),
           fill_rows=st.sampled_from([1, 2, 7, 256]),
           spec=st.builds(li.Brownian, volatility=st.sampled_from([0.0, 1.5]),
                          drift=st.sampled_from([0.0, -0.4])))
    def test_brownian_values_are_each_paths_values(self, grid, n_paths, offset, fill_rows, spec):
        old = drivers._FILL_ROWS
        try:
            drivers._FILL_ROWS = fill_rows
            ens = li.simulate_paths(spec, grid, n_paths, 9, path_offset=offset)
        finally:
            drivers._FILL_ROWS = old
        want = _reference_brownian(spec, grid, n_paths, 9, offset)
        assert np.array_equal(ens.values[:, :, 0], want)
        assert (np.signbit(ens.values[:, :, 0]) == np.signbit(want)).all()

    def test_records_are_read_only_views_of_shared_arrays(self, grid100):
        spec = li.CompoundPoisson(rate=3.0, jump_law=li.NormalJumps(loc=0.3, scale=0.5))
        ens = li.simulate_paths(spec, grid100, 300, 6)
        for rec in ens.jumps:
            assert not rec.times.flags.writeable and not rec.sizes.flags.writeable
            for a in (rec.times, rec.sizes):
                with pytest.raises(ValueError):
                    a[:1] = 0.0
        full = [rec for rec in ens.jumps if rec.count]
        assert np.shares_memory(full[0].times, full[-1].times.base)
        assert np.shares_memory(full[0].sizes, full[-1].sizes.base)

    def test_negative_zero_sizes_keep_their_sign(self, grid100):
        # sizes are -0.0 + 0.0 * z: -0.0 or 0.0 by the sign of z.  Summing
        # 0.0 + -0.0 would lose a sign the path's own cumsum keeps.
        spec = li.CompoundPoisson(rate=3.0, jump_law=li.NormalJumps(loc=-0.0, scale=0.0),
                                  compensated=False, drift=-0.0)
        ens = li.simulate_paths(spec, grid100, 50, 6)
        sizes = np.concatenate([rec.sizes for rec in ens.jumps])
        assert np.signbit(sizes).any() and not np.signbit(sizes).all()
        for rec, row in zip(ens.jumps, ens.values[:, :, 0]):
            want = _reference_jump_values(rec, grid100.points)
            assert (np.signbit(rec.values_at(grid100.points)) == np.signbit(want)).all()
            assert (np.signbit(row) == np.signbit(want + -0.0 * grid100.points)).all()
        first_negative = next(rec for rec in ens.jumps if np.signbit(rec.sizes[0]))
        assert np.signbit(first_negative.values_at(first_negative.times[:1])[0])

    def test_paths_without_jumps(self, grid100):
        ens = li.simulate_paths(li.CompensatedPoisson(rate=1e-6), grid100, 5, 6)
        assert all(rec.count == 0 for rec in ens.jumps)
        assert np.array_equal(ens.values[:, :, 0], np.broadcast_to(-1e-6 * grid100.points, (5, 101)))

    def test_no_record_is_built_or_evaluated_per_path(self, monkeypatch, grid100):
        def per_path(*args, **kwargs):
            raise AssertionError("called once per path")

        monkeypatch.setattr(li.JumpRecord, "__post_init__", per_path)
        monkeypatch.setattr(li.JumpRecord, "values_at", per_path)
        ens = li.simulate_paths(li.CompensatedPoisson(rate=2.0), grid100, 300, 6)
        assert reconstruction_residual(li.CompensatedPoisson(rate=2.0), ens) == 0.0

    @pytest.mark.parametrize("spec", [li.Brownian(drift=1e308), li.CompensatedPoisson(drift=1e308)],
                             ids=["brownian", "jump"])
    def test_non_finite_values_rejected(self, spec):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
            li.simulate_paths(spec, li.TimeGrid.uniform(10.0, 10), 300, 6)

    def test_values_at_counts_a_jump_at_its_time(self):
        rec = li.JumpRecord(times=np.array([0.2, 0.6]), sizes=np.array([1.0, 2.0]))
        assert rec.values_at(np.array([0.0, 0.2, 0.2, 0.5, 0.6, 0.9])).tolist() == [0, 1, 1, 1, 3, 3]
        assert rec.values_at(np.array([0.9, 0.1])).tolist() == [3.0, 0.0]
        assert rec.values_at(np.array([])).shape == (0,)


class TestCoincidentJumps:
    def _ensemble(self, *records):
        grid = li.TimeGrid.uniform(1.0, 4)
        values = np.stack([rec.values_at(grid.points) for rec in records])
        return li.PathEnsemble(values, grid, adapted=True, jumps=records)

    def test_equal_times_on_two_paths_pass(self):
        # path 0 ends at 0.5 where path 1 starts, and an empty path between
        ens = self._ensemble(li.JumpRecord(times=np.array([0.2, 0.5]), sizes=np.ones(2)),
                             li.JumpRecord(times=np.array([]), sizes=np.array([])),
                             li.JumpRecord(times=np.array([0.5, 0.7]), sizes=np.ones(2)))
        reject_coincident_jumps(ens)

    @pytest.mark.parametrize("times, error", [([0.5, 0.5], ConsistencyError),
                                              ([0.5, np.nextafter(0.5, 1.0)], NumericError)],
                             ids=["equal", "below_separation"])
    def test_close_times_on_one_path_raise(self, times, error):
        # equal times are refused before they reach an ensemble: by a
        # record, and by the table a fill builds (TestJumpTable)
        with pytest.raises(error):
            close = li.JumpRecord(times=np.array([0.1, *times]), sizes=np.ones(3))
            ens = self._ensemble(li.JumpRecord(times=np.array([0.3]), sizes=np.ones(1)), close,
                                 li.JumpRecord(times=np.array([]), sizes=np.array([])))
            reject_coincident_jumps(ens)


def _update(h, ens):
    h.update(ens.values.tobytes())
    for rec in ens.jumps or ():
        h.update(rec.times.tobytes())
        h.update(rec.sizes.tobytes())


class TestGoldenDigests:
    """sha256 of simulated values and jump records per driver kind, recorded
    before jump records and grid values shared one helper (the
    ``test_simulated_blocks`` cases: before fills ran in row blocks); a
    change here means the simulated numbers changed."""

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

    _SQUARED = li.TimeGrid(np.linspace(0.0, 1.0, 17) ** 2)
    _UNIFORM = li.TimeGrid.uniform(1.0, 16)

    @pytest.mark.parametrize(
        "runs, expect",
        [
            # 769 paths: several 256-row fill blocks, then one lone row
            ([(li.CompoundPoisson(rate=3.0, jump_law=li.TwoPointJumps()), _UNIFORM, 769, 0)],
             "06ac219e27e570b2b4c763780fdea1bb67aaa0ed4c098fbefab6e67c52aefe24"),
            ([(li.Brownian(volatility=1.5, drift=0.5), _SQUARED, 769, 0)],
             "6674e1c638b745a902f06a60dcdc70f68bc6a9afee7938cbe7b16618e41f26ea"),
            # chunks whose starts and ends fall inside fill blocks
            ([(li.CompensatedPoisson(rate=2.0, drift=0.3), _UNIFORM, 300, 100),
              (li.CompensatedPoisson(rate=2.0, drift=0.3), _UNIFORM, 469, 400),
              (li.Brownian(volatility=0.7), _UNIFORM, 300, 100),
              (li.Brownian(volatility=0.7), _UNIFORM, 469, 400)],
             "7bd7e6d6c2cf845fb44ef67daead9723bb8e6bb8aa118c64215a2ba03ab5576c"),
            # most paths, and most blocks of paths, have no jump at all
            ([(li.CompensatedPoisson(rate=0.02), _UNIFORM, 600, 0)],
             "c9b75ef82b06be9abce2efca6ab20c047745b4091e0578f1e617e1b839f903a7"),
            # many jumps per grid interval, summed in time order
            ([(li.CompoundPoisson(rate=150.0, jump_law=li.ExponentialJumps(rate=0.5)), _UNIFORM, 300, 0)],
             "a1b4671da390cc3cc14257677b4c0756c1b03d85ebfc5c66485e8687bd9a5cd7"),
            ([(li.CompoundPoisson(rate=4.0, jump_law=li.NormalJumps(loc=-0.2, scale=1.3),
                                  compensated=False, drift=-0.4), _SQUARED, 300, 0)],
             "e799d19b325d232fdd1f3c7edfa32bd137e096743f29d13c522fb16926a55754"),
            # -0.0 sizes and drift: the signs of zeros are part of the digest
            ([(li.CompoundPoisson(rate=3.0, jump_law=li.NormalJumps(loc=-0.0, scale=0.0),
                                  compensated=False, drift=-0.0), _UNIFORM, 300, 0)],
             "7e0c041455cbdc812b1e16b75b118a11451befdc902a15b280e103c93a89b1c4"),
        ],
        ids=["jump_blocks_and_a_lone_row", "brownian_blocks_and_a_lone_row", "unaligned_offsets",
             "low_rate", "high_rate_exponential", "normal_uncompensated", "signed_zeros"],
    )
    @pytest.mark.parametrize("fill_rows", [256, 3])
    def test_simulated_blocks(self, monkeypatch, fill_rows, runs, expect):
        monkeypatch.setattr(drivers, "_FILL_ROWS", fill_rows)
        h = hashlib.sha256()
        for spec, grid, n, offset in runs:
            _update(h, li.simulate_paths(spec, grid, n, 2026, path_offset=offset))
        assert h.hexdigest() == expect
