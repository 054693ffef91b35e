import hashlib

import numpy as np
import pytest

import levyint as li
from conftest import jump_table
from levyint.drivers import reconstruction_residual
from levyint.errors import (
    ConsistencyError,
    GridError,
    MissingJumpDataError,
    NumericError,
)


class TestTimeGrid:
    def test_must_start_at_zero(self):
        with pytest.raises(GridError):
            li.TimeGrid([0.5, 1.0])

    def test_must_increase(self):
        with pytest.raises(GridError):
            li.TimeGrid([0.0, 0.5, 0.5, 1.0])

    def test_single_point_rejected(self):
        with pytest.raises(GridError):
            li.TimeGrid([0.0])

    def test_mesh_and_horizon(self):
        g = li.TimeGrid([0.0, 0.25, 1.0])
        assert g.horizon == 1.0
        assert g.mesh == 0.75
        assert g.n_intervals == 2

    def test_index_of_exact(self):
        g = li.TimeGrid.uniform(1.0, 4)
        assert g.index_of(0.5) == 2
        with pytest.raises(GridError):
            g.index_of(0.3)

    def test_augmented(self):
        g = li.TimeGrid.uniform(1.0, 2)
        g2 = g.augmented(np.array([0.25]))
        assert g2.n_points == 4
        with pytest.raises(GridError):
            g.augmented(np.array([1.5]))


# constructors that keep an array the caller passed: how to build each from
# the caller's array, and the array the object keeps
_KEEPERS = {
    "TimeGrid.points": (lambda a: li.TimeGrid(a), lambda obj: obj.points),
    "SpectralOperator.eigenvalues": (lambda a: li.SpectralOperator(a), lambda obj: obj.eigenvalues),
    "SpdeProblem.h0": (lambda a: li.SpdeProblem(li.heat_operator(3), a), lambda obj: obj.h0),
    "constant_map.value": (lambda a: li.constant_map(a), lambda obj: obj.value),
}


@pytest.mark.parametrize("name", list(_KEEPERS))
def test_constructor_keeps_a_read_only_copy(name):
    build, kept = _KEEPERS[name]
    given = np.array([0.0, 0.5, 1.0])
    obj = build(given)
    given[1] = -5.0  # would break the grid's increase and the eigenvalues' sign
    np.testing.assert_array_equal(kept(obj), [0.0, 0.5, 1.0])
    assert given.flags.writeable and not kept(obj).flags.writeable


class TestSupL2Norm:
    def test_zero_ensemble(self, grid100):
        e = li.PathEnsemble.deterministic(grid100, 0.0)
        assert li.sup_l2_norm(e) == 0.0

    def test_linear_curve(self, grid100):
        e = li.PathEnsemble.deterministic(grid100, lambda t: t)
        assert li.sup_l2_norm(e) == pytest.approx(1.0, abs=1e-12)

    def test_brownian_unit_norm(self, grid100):
        e = li.simulate_paths(li.Brownian(volatility=1.0), grid100, 100_000, 41)
        assert abs(li.sup_l2_norm(e) - 1.0) < 0.02

    def test_norm_axioms_on_random_ensembles(self, grid100):
        rng = np.random.default_rng(3)
        a_vals = rng.normal(size=(50, grid100.n_points, 2))
        b_vals = rng.normal(size=(50, grid100.n_points, 2))
        a = li.PathEnsemble(values=a_vals, grid=grid100, adapted=True)
        b = li.PathEnsemble(values=b_vals, grid=grid100, adapted=True)
        s = li.PathEnsemble(values=a_vals + b_vals, grid=grid100, adapted=True)
        assert li.sup_l2_norm(s) <= li.sup_l2_norm(a) + li.sup_l2_norm(b) + 1e-12
        for lam in (-2.5, 0.0, 0.7):
            scaled = li.PathEnsemble(values=lam * a_vals, grid=grid100, adapted=True)
            assert li.sup_l2_norm(scaled) == pytest.approx(
                abs(lam) * li.sup_l2_norm(a), abs=1e-12
            )


class TestL2Distance:
    def test_identity(self, grid100):
        e = li.simulate_paths(li.Brownian(), grid100, 100, 1)
        assert li.l2_distance(e, e) == 0.0

    def test_constant_curves(self, grid100):
        plus = li.PathEnsemble.deterministic(grid100, 1.0)
        minus = li.PathEnsemble.deterministic(grid100, -1.0)
        assert li.l2_distance(plus, minus) == pytest.approx(2.0, abs=1e-12)

    def test_deterministic_shift(self, grid100):
        w = li.simulate_paths(li.Brownian(), grid100, 500, 2)
        shifted = w.with_values(w.values + 0.1 * grid100.points[None, :, None])
        assert li.l2_distance(w, shifted) == pytest.approx(0.1, abs=1e-12)

    def test_grid_mismatch_rejected(self):
        a = li.PathEnsemble.deterministic(li.TimeGrid.uniform(1.0, 10), 1.0)
        b = li.PathEnsemble.deterministic(li.TimeGrid.uniform(1.0, 20), 1.0)
        with pytest.raises(ConsistencyError):
            li.l2_distance(a, b)

    def test_chunked_reduction_matches_direct(self, grid100):
        # reduction is chunked over paths; verify against a one-shot computation
        e = li.simulate_paths(li.Brownian(), grid100, 5000, 10)
        z = li.PathEnsemble.deterministic(grid100, 0.0)
        direct = np.sqrt(np.max(np.mean(e.values[:, :, 0] ** 2, axis=0)))
        assert abs(li.l2_distance(e, z) - direct) < 1e-9


class TestContinuityModulus:
    def test_linear_curve_gaps(self, grid100):
        e = li.PathEnsemble.deterministic(grid100, lambda t: t)
        rep = li.ms_continuity_modulus(e)
        assert np.allclose(rep.norms, 0.01, atol=1e-12)

    def test_single_point_grid_rejected(self):
        with pytest.raises(GridError):
            li.TimeGrid([0.0])

    @pytest.mark.parametrize(
        "spec, seed", [(li.Brownian(volatility=1.0), 11), (li.CompensatedPoisson(rate=1.0), 12)]
    )
    def test_sqrt_h_increments(self, grid100, spec, seed):
        e = li.simulate_paths(spec, grid100, 100_000, seed)
        rep = li.ms_continuity_modulus(e)
        # increments have RMS sqrt(c*h); allow 3 SE per interval
        target = np.sqrt(spec.bracket_rate() * 0.01)
        assert np.all(np.abs(rep.norms - target) <= 3 * rep.standard_errors + 1e-12)

    @pytest.mark.parametrize(
        "spec", [li.Brownian(volatility=1.0), li.CompensatedPoisson(rate=1.0)]
    )
    def test_modulus_shrinks_under_refinement(self, spec):
        coarse = li.TimeGrid.uniform(1.0, 50)
        fine = li.TimeGrid.uniform(1.0, 100)
        ec = li.simulate_paths(spec, coarse, 100_000, 13)
        ef = li.simulate_paths(spec, fine, 100_000, 14)
        mc = li.ms_continuity_modulus(ec)
        mf = li.ms_continuity_modulus(ef)
        slack = 3 * (mc.max_standard_error + mf.max_standard_error)
        assert mf.max_norm < mc.max_norm - slack

    @pytest.mark.parametrize("rows", [4096, 137, 1])
    def test_standard_errors_do_not_cancel(self, monkeypatch, rows):
        import levyint.ensembles as ens_mod

        # squared increments near 6.25e8 with a spread near 25: running sums
        # of x and x^2 cancel to SEs of 0, 0, 0 and 5.1e-6 here.  At every
        # block size the SE is the one _moments gives on the whole array.
        # A block row allocates 10 values: 5 points' increments and squares.
        monkeypatch.setattr(ens_mod, "_BLOCK_BUDGET", rows * 10)
        x = li.simulate_paths(li.Brownian(volatility=1e-3, drift=1e5), li.TimeGrid.uniform(1.0, 4), 2000, 0)
        rep = li.ms_continuity_modulus(x)
        sq = np.diff(x.values[:, :, 0], axis=1) ** 2
        mean, se = ens_mod._moments(lambda: [sq.copy()], 2)
        np.testing.assert_array_equal(rep.standard_errors, se / (2 * np.sqrt(mean)))
        assert np.all((rep.standard_errors > 1e-5) & (rep.standard_errors < 1.2e-5))


class TestMoments:
    def test_one_sample_has_zero_spreads(self):
        mean, *spreads = li.ensembles._moments(lambda: [np.array([[2.5, -1.0]])])
        assert mean.tolist() == [2.5, -1.0] and all(s.tolist() == [0.0, 0.0] for s in spreads)

    @pytest.mark.parametrize("samples", [[1.0, np.inf, 2.0], [1.0, np.nan], [-np.inf, np.inf],
                                         [1e308, 1e308], [1e200, -1e200], [1e100, 0.0, 3.0]],
                             ids=["inf", "nan", "both_infs", "sum_overflows", "square_overflows",
                                  "fourth_power_overflows"])
    def test_non_finite_samples_or_statistics_raise(self, samples):
        with pytest.raises(NumericError, match="not finite"):
            li.ensembles._moments(lambda: [np.array(samples)])

    def test_mean_se_reads_only_the_first_two_passes(self):
        # the fourth-power spread of these samples overflows (see above)
        b = np.array([1e100, 0.0, 3.0])
        assert li.ensembles._mean_se(b) == (np.mean(b), np.std(b, ddof=1) / np.sqrt(3))
        assert b.tolist() == [1e100, 0.0, 3.0]

    @pytest.mark.parametrize("columns", [1, 2, 5])
    def test_blocks_add_in_row_order(self, columns):
        # rows add in order whatever the blocks: the bits of numpy's sums
        # over two or more columns, and of a cumsum down a lone column
        x = np.random.default_rng(columns).standard_normal((300, columns)) * 5.0 + 1e4
        whole = li.ensembles._moments(lambda: [x.copy()])
        for rows in (1, 2, 7, 137, 299):
            blocks = li.ensembles._moments(lambda: [x[i:i + rows].copy() for i in range(0, 300, rows)])
            assert all(np.array_equal(a, b) for a, b in zip(whole, blocks))
        mean = np.cumsum(x, axis=0)[-1] / 300
        assert np.array_equal(whole[0], mean)
        if columns > 1:
            assert np.array_equal(whole[0], np.mean(x, axis=0))
            assert np.array_equal(whole[2], np.var(x, axis=0, ddof=1))
            assert np.array_equal(whole[1], np.std(x, axis=0, ddof=1) / np.sqrt(300))


class TestLeftLimit:
    def test_continuous_unchanged(self, grid100):
        e = li.simulate_paths(li.Brownian(), grid100, 10, 3)
        ll = li.left_limit(e)
        assert np.array_equal(ll.values, e.values)
        assert ll.grid_predictable

    def test_on_grid_jump_removed(self):
        grid = li.TimeGrid.uniform(1.0, 4)
        rec = jump_table(([0.5], [1.0]))
        counts = np.searchsorted(rec.times, grid.points, side="right")
        e = li.PathEnsemble(
            values=counts.astype(float)[None, :, None],
            grid=grid,
            adapted=True,
            jumps=rec,
        )
        before = e.values.copy()
        ll = li.left_limit(e)
        assert not np.shares_memory(ll.values, e.values)
        assert np.array_equal(e.values, before)
        assert ll.values[0, grid.index_of(0.5), 0] == 0.0
        assert ll.values[0, grid.index_of(0.75), 0] == 1.0
        assert ll.values[0, grid.index_of(1.0), 0] == 1.0

    def test_no_on_grid_jump_shares_values(self, grid100):
        # sampled jump times miss a uniform grid, so nothing is copied
        e = li.simulate_paths(li.CompoundPoisson(rate=3.0, jump_law=li.TwoPointJumps()),
                              grid100, 200, 8)
        ll = li.left_limit(e)
        assert np.shares_memory(ll.values, e.values)
        assert ll.grid_predictable and ll.jumps is e.jumps

    def test_on_grid_jump_drops_the_driver(self, jump_ensemble_factory):
        # a compensated Poisson path with a jump at 0.5 on a 4-step grid: its
        # left limit is no longer the driver's path
        spec = li.CompensatedPoisson(rate=1.0)
        rec = jump_table(([0.5], [1.0]))
        grid = li.TimeGrid.uniform(1.0, 4)
        x = jump_ensemble_factory(grid, rec, drift=-1.0, spec=spec)
        assert reconstruction_residual(spec, x) == 0.0
        ll = li.left_limit(x)
        assert ll.spec is None
        assert reconstruction_residual(spec, ll) == 1.0

    def test_unmoved_values_keep_the_driver(self, grid100):
        spec = li.CompensatedPoisson(rate=2.0)
        e = li.simulate_paths(spec, grid100, 50, 8)
        ll = li.left_limit(e)
        assert ll.spec == spec and ll.values is e.values

    def test_reconstruction_from_jump_record(self, jump_ensemble_factory):
        base = li.TimeGrid.uniform(1.0, 8)
        rec = jump_table(([0.3, 0.5], [2.0, -1.0]))
        grid = base.augmented(rec.times)
        e = jump_ensemble_factory(grid, rec)
        ll = li.left_limit(e)
        delta = np.zeros(grid.n_points)
        for t, s in zip(rec.times, rec.sizes):
            delta[grid.index_of(t)] = s
        assert np.max(np.abs(ll.values[0, :, 0] + delta - e.values[0, :, 0])) < 1e-12

    def test_idempotent(self, jump_ensemble_factory):
        base = li.TimeGrid.uniform(1.0, 8)
        rec = jump_table(([0.25], [1.5]))
        grid = base.augmented(rec.times)
        e = jump_ensemble_factory(grid, rec)
        once = li.left_limit(e)
        twice = li.left_limit(once)
        assert np.array_equal(once.values, twice.values)

    def test_missing_jump_data_rejected(self, grid100):
        e = li.simulate_paths(li.CompensatedPoisson(rate=1.0), grid100, 5, 4)
        stripped = li.PathEnsemble(
            values=e.values, grid=grid100, adapted=True, continuous=False, jumps=None
        )
        with pytest.raises(MissingJumpDataError):
            li.left_limit(stripped)

    def test_time_measure_of_change_shrinks(self, jump_ensemble_factory):
        # on-grid jump contributes size^2 * dt to the time quadrature of
        # ||Phi - left limit||^2; refining the grid halves it
        rec = jump_table(([0.5], [2.0]))
        out = []
        for steps in (8, 16, 32):
            grid = li.TimeGrid.uniform(1.0, steps)
            e = jump_ensemble_factory(grid, rec)
            ll = li.left_limit(e)
            sq = np.mean((e.values - ll.values)[:, :, 0] ** 2, axis=0)
            out.append(float(np.dot(sq[:-1], grid.dt)))
        assert out[0] > out[1] > out[2]
        assert out[1] == pytest.approx(out[0] / 2, rel=1e-12)


class TestPathEnsemble:
    def test_values_read_only(self, grid100):
        e = li.simulate_paths(li.Brownian(), grid100, 5, 1)
        with pytest.raises(ValueError):
            e.values[0, 0, 0] = 1.0

    def test_shape_validation(self, grid100):
        with pytest.raises(ConsistencyError):
            li.PathEnsemble(values=np.zeros((2, 5, 1)), grid=grid100)

    @pytest.mark.parametrize("rows", [137, 1])
    def test_parallel_reduction_agreement(self, grid100, monkeypatch, rows):
        # chunk size is an internal detail: paths add in row order, so
        # reductions agree across chunkings to the bit
        import levyint.ensembles as ens_mod

        e = li.simulate_paths(li.Brownian(), grid100, 5000, 15)
        full = li.sup_l2_norm(e)
        # a block row allocates 101 points' copies and squares
        monkeypatch.setattr(ens_mod, "_BLOCK_BUDGET", rows * 202)
        assert li.sup_l2_norm(e) == full

    def test_with_values_keeps_everything_but_the_values(self, grid100):
        spec = li.CompensatedPoisson(rate=2.0)
        e = li.left_limit(li.simulate_paths(spec, grid100, 5, 1))
        d = e.with_values(e.values + 1.0)
        assert np.array_equal(d.values, e.values + 1.0)
        assert (d.grid, d.adapted, d.continuous, d.grid_predictable) == (e.grid, True, False, True)
        assert d.jumps is e.jumps
        # the new values are no driver's paths
        assert d.spec is None


def _per_path_records(spec, grid, n_paths, seed, path_offset=0):
    """Each path's jump record drawn and built on its own, sharing no code
    with the simulator: a new Philox started at the path's counter block,
    one exponential gap at a time, then a compound path's sizes (two-point
    signs as ``Generator.integers`` draws them)."""
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    records = []
    for path in range(path_offset, path_offset + n_paths):
        rng = np.random.Generator(np.random.Philox(key=key, counter=[0, 0, path, 0]))
        times = []
        t = rng.exponential(1.0 / spec.rate)
        while t <= grid.horizon:
            times.append(t)
            t += rng.exponential(1.0 / spec.rate)
        t = np.asarray(times)
        if not isinstance(spec, li.CompoundPoisson):
            sizes = np.ones(t.size)
        elif isinstance(spec.jump_law, li.TwoPointJumps):
            sizes = np.array([-1.0, 1.0])[rng.integers(0, 2, size=t.size)]
        else:
            sizes = spec.jump_law.sample(rng, t.size)
        records.append(jump_table((t, sizes)))
    return records


def _same_records(a, b):
    return len(a) == len(b) and all(
        np.array_equal(x.times, y.times) and np.array_equal(x.sizes, y.sizes) for x, y in zip(a, b))


class TestJumpTable:
    """An ensemble's jumps are one table that reads like a tuple of records."""

    @pytest.mark.parametrize("spec", [li.CompensatedPoisson(rate=2.0),
                                      li.CompoundPoisson(rate=3.0, jump_law=li.NormalJumps(loc=0.3, scale=0.5))],
                             ids=["unit", "normal"])
    def test_index_slice_and_iteration_match_each_paths_record(self, grid100, spec):
        ens = li.simulate_paths(spec, grid100, 300, 5, path_offset=40)
        want = _per_path_records(spec, grid100, 300, 5, path_offset=40)
        jumps = ens.jumps
        assert isinstance(jumps, li.JumpTable) and len(jumps) == 300 and jumps
        assert _same_records(list(jumps), want)
        assert _same_records([jumps[i] for i in range(300)], want)
        assert _same_records([jumps[-1]], want[-1:])
        for i in (0, 41, -1):
            one = jumps[i]
            assert isinstance(one, li.JumpTable) and len(one) == 1 and one.count == want[i].count
            assert one.bounds.tolist() == [0, one.count]
        # paths 41 and -1 have jumps under both specs
        for one in (jumps[41], jumps[-1]):
            assert np.shares_memory(one.times, jumps.times) and np.shares_memory(one.sizes, jumps.sizes)
        for rows in (slice(None), slice(17, 171), slice(290, 400), slice(-5, None), slice(3, 60, 7),
                     slice(None, None, 7), slice(None, None, -1), slice(60, 3, -7), slice(50, 50),
                     slice(80, 20), slice(5, 2, 2)):
            part = jumps[rows]
            assert isinstance(part, li.JumpTable) and _same_records(list(part), want[rows])
            assert part.count == sum(rec.count for rec in want[rows])
        assert not jumps[50:50] and jumps[50:50].bounds.tolist() == [0]
        with pytest.raises(IndexError):
            jumps[300]
        assert jumps.times.size == sum(rec.count for rec in jumps) == jumps.bounds[-1]

    @pytest.mark.parametrize("rate", [0.01, 40.0])
    @pytest.mark.parametrize("law", [None, li.TwoPointJumps(), li.ExponentialJumps(rate=2.0),
                                     li.NormalJumps(loc=0.3, scale=0.5)],
                             ids=["standard_poisson", "two_point", "exponential", "normal"])
    def test_table_has_the_bytes_of_per_path_draws(self, grid100, law, rate):
        spec = li.standard_poisson(rate) if law is None else li.CompoundPoisson(rate=rate, jump_law=law)
        jumps = li.simulate_paths(spec, grid100, 200, 11, path_offset=37).jumps
        want = _per_path_records(spec, grid100, 200, 11, path_offset=37)
        expect = {"times": np.concatenate([np.empty(0)] + [r.times for r in want]),
                  "sizes": np.concatenate([np.empty(0)] + [r.sizes for r in want]),
                  "bounds": np.cumsum([0] + [r.count for r in want]).astype(np.intp)}
        for name, e in expect.items():
            got = getattr(jumps, name)
            assert got.dtype == e.dtype and got.shape == e.shape and got.tobytes() == e.tobytes()
        assert 0 < jumps.bounds[-1] < 5 if rate < 1 else jumps.bounds[-1] > 7000

    def test_arrays_are_read_only_and_records_are_views(self, grid100):
        jumps = li.simulate_paths(li.CompensatedPoisson(rate=2.0), grid100, 50, 5).jumps
        for a in (jumps.times, jumps.sizes, jumps.bounds, jumps[3].times, jumps[7:9].sizes):
            with pytest.raises(ValueError):
                a[:1] = 0
        rec = next(r for r in jumps if r.count)
        assert np.shares_memory(rec.times, jumps.times) and np.shares_memory(rec.sizes, jumps.sizes)
        assert np.shares_memory(jumps[10:20].times, jumps.times)

    def test_hand_built_records_are_tabled_and_validated(self):
        grid = li.TimeGrid.uniform(1.0, 4)
        table = li.JumpTable([0.3, 0.5, 0.25], [2.0, -1.0, 1.5], [0, 2, 2, 3])
        records = (jump_table(([0.3, 0.5], [2.0, -1.0])), jump_table(([], [])), jump_table(([0.25], [1.5])))
        assert _same_records(list(table), records)
        values = table.values_at(grid.points)
        assert np.array_equal(values, np.concatenate([rec.values_at(grid.points) for rec in records]))
        e = li.PathEnsemble(values, grid, adapted=True, jumps=table)
        assert e.jumps is table
        assert e.jumps.bounds.tolist() == [0, 2, 2, 3]
        assert e.jumps.times.tolist() == [0.3, 0.5, 0.25]
        assert li.left_limit(e).jumps is e.jumps
        with pytest.raises(ConsistencyError, match="a JumpTable of 3 paths, got 2"):
            li.PathEnsemble(values, grid, adapted=True, jumps=table[:2])
        # a sequence of one-path tables is not a table
        with pytest.raises(ConsistencyError, match="a JumpTable or None, got tuple"):
            li.PathEnsemble(values, grid, adapted=True, jumps=records)

    @pytest.mark.parametrize("times, sizes, bounds", [
        ([0.1, 0.2], [1.0], [0, 2]),
        ([0.1, 0.2], [1.0, 1.0], [1, 2]),
        ([0.1, 0.2], [1.0, 1.0], [0, 1]),
        ([0.1, 0.2], [1.0, 1.0], [0, 2, 1, 2]),
        ([0.1, 0.2], [1.0, 1.0], []),
        ([0.2, 0.1], [1.0, 1.0], [0, 2]),
        ([0.2, 0.2], [1.0, 1.0], [0, 2]),
    ], ids=["sizes", "first_bound", "last_bound", "falling_bounds", "no_bounds", "falling_times",
            "equal_times"])
    def test_malformed_table_rejected(self, times, sizes, bounds):
        with pytest.raises(ConsistencyError):
            li.JumpTable(np.array(times), np.array(sizes), np.array(bounds, dtype=np.intp))

    def test_times_may_repeat_across_paths(self):
        table = li.JumpTable(np.array([0.2, 0.5, 0.5, 0.7]), np.ones(4), np.array([0, 2, 2, 4]))
        assert [rec.times.tolist() for rec in table] == [[0.2, 0.5], [], [0.5, 0.7]]


def _reduction_outputs():
    """Every path reduction on fixed ensembles: sampled and deterministic
    curves on each side, a 2-coordinate integrand, and jumps on grid points.
    Returns ``(others, sums)``: ``sums`` holds riemann_sum and the isometry
    terms formed from it, ``others`` every other output."""
    grid = li.TimeGrid.uniform(1.0, 24)
    part = li.uniform_partition(grid, 1.0, 0.125)
    bw = li.simulate_paths(li.Brownian(), grid, 300, 3)
    cp_spec = li.CompoundPoisson(rate=3.0, jump_law=li.TwoPointJumps())
    cp = li.simulate_paths(cp_spec, grid, 300, 4)
    jumps = jump_table(*((grid.points[[1 + p % 20, 22]], [1.0, -0.5 * (p % 3)]) for p in range(300)))
    hit = li.PathEnsemble(jumps.values_at(grid.points), grid, adapted=True, jumps=jumps)
    two = li.PathEnsemble(np.concatenate([bw.values, hit.values], axis=2), grid,
                          adapted=True, jumps=jumps)
    ramp = li.PathEnsemble.deterministic(grid, lambda t: t)
    curve2 = li.PathEnsemble.deterministic(grid, lambda t: np.stack([t, 1 - t * t], axis=1), dim=2)
    square = li.PathEnsemble.deterministic(grid, lambda t: t * t)

    out, sums = [], []
    for x in (bw, cp, two, ramp):
        out.append(li.second_moments(x))
        rep = li.ms_continuity_modulus(x)
        out += [rep.norms, rep.standard_errors]
    for a, b in ((bw, cp), (bw, ramp), (ramp, cp), (curve2, two)):
        out.append(li.l2_distance(a, b))
    for phi, m, p in ((bw, cp, grid), (ramp, bw, part), (two, square, grid), (bw, bw, part),
                      (curve2, cp, part)):
        sums.append(li.riemann_sum(phi, m, p).values)
    for phi, m in ((bw, cp), (ramp, bw), (two, square), (ramp, square), (curve2, cp)):
        out.append(li.integral_process(phi, m).values)
    for phi in (bw, two, ramp):
        out.append(li.bochner_integral(phi).values)
    # a single-path integrator is left out here: its z-scores were miscounted
    for phi, m in ((bw, cp), (ramp, bw), (two, cp), (curve2, bw)):
        out.append(li.increment_independence_z(phi, m))
    for phi, spec, m in ((bw, li.Brownian(), bw), (ramp, li.Brownian(), bw),
                         (two, cp_spec, cp), (bw, li.Brownian(), square)):
        rep = li.ito_isometry_check(phi, spec, m)
        out.append([rep.rhs, rep.se_rhs])
        sums.append([rep.lhs, rep.se_lhs, rep.z_score])
    for phi in (cp, hit, two):
        out.append(li.projection_vs_left_limit(phi))
    return out, sums


def _identity_outputs():
    """``(identities, residuals)``: poisson_identity_check's per-path values
    and residuals, and reconstruction_residual of two jump-driven ensembles,
    exact and with an error that is largest on the last path, so a block
    left out shows."""
    rep = li.poisson_identity_check(2.0, 1.0, 300, 5)
    identities = [rep.left_sum_values, rep.stieltjes_values, rep.terminal_counts, rep.left_sum_residuals,
                  rep.stieltjes_residuals, rep.difference_residuals]
    grid, residuals = li.TimeGrid.uniform(1.0, 24), []
    for spec in (li.CompensatedPoisson(rate=2.0, drift=0.3),
                 li.CompoundPoisson(rate=3.0, jump_law=li.NormalJumps(loc=0.2, scale=0.7), drift=-0.4)):
        x = li.simulate_paths(spec, grid, 300, 6)
        residuals.append(reconstruction_residual(spec, x))
        residuals.append(reconstruction_residual(spec, x.with_values(
            x.values + np.linspace(0.0, 1e-9, 300)[:, None, None])))
    return identities, residuals


def _digest(values):
    h = hashlib.sha256()
    for value in values:
        h.update(np.asarray(value, dtype=np.float64).tobytes())
    return h.hexdigest()


# block budgets (ensembles._BLOCK_BUDGET) of the whole call, of odd row
# counts (137 rows of a one-coordinate reduction on 25 points, 91 of two
# coordinates) and of one row
_BUDGETS = pytest.mark.parametrize("budget", [2**62, 137 * 50, 1], ids=["whole", "odd", "one_row"])


class TestReductionGoldens:
    """sha256 of every path reduction at three block budgets, in three parts;
    a change here means the numbers changed.

    ``test_reductions`` covers every output not formed from riemann_sum:
    second moments, moduli, distances, integral processes, the
    increment-independence z-scores, the isometry right side and the
    projection gap.  Every mean over paths adds the paths in row order
    (``ensembles._moments``), so one digest holds at every block size.  It
    was recorded when that came to be so: the second moments, moduli and
    z-scores, and the distances and projection gaps formed from them, moved
    in their last bits, since per-block sums and merged centred sums had
    added the paths in another order.  (The digests moved twice before:
    when streamed standard errors came to merge per-block centred sums, and
    when the increment-independence covariance came to be the mean of
    centred products over their own standard error.)

    ``test_sums`` covers riemann_sum and the isometry left side and z-score
    formed from it.  Each path's sum is its own, so one digest holds at every
    block size.  It was recorded when riemann_sum came to add each path's
    terms along time alone: that reordered each path's additions, so their
    last bits moved.

    ``test_identities`` covers poisson_identity_check and
    ``test_reconstruction`` reconstruction_residual, whose blocks of paths
    give slices (or, for the residual, a max) of the same per-path numbers;
    their digests were recorded on the blocks of 256 rows that came before
    the one budget."""

    @_BUDGETS
    def test_reductions(self, monkeypatch, budget):
        import levyint.ensembles as ens_mod

        monkeypatch.setattr(ens_mod, "_BLOCK_BUDGET", budget)
        expect = "bf29df6746a3f29d8960b687d35618e9b2c6c717e14a65461ecd9b4ed93522f0"
        assert _digest(_reduction_outputs()[0]) == expect

    @_BUDGETS
    def test_sums(self, monkeypatch, budget):
        import levyint.ensembles as ens_mod

        monkeypatch.setattr(ens_mod, "_BLOCK_BUDGET", budget)
        expect = "a7a64708ab3419747d5321bbde5742511069bc7ed28192b7e0ab2c6f9798bcc4"
        assert _digest(_reduction_outputs()[1]) == expect

    @_BUDGETS
    def test_identities(self, monkeypatch, budget):
        import levyint.ensembles as ens_mod

        monkeypatch.setattr(ens_mod, "_BLOCK_BUDGET", budget)
        expect = "74e8a0cabe78c746a0846a3b9d7c5d68edfe2d62014942f54dcd1577890c9a09"
        assert _digest(_identity_outputs()[0]) == expect

    @_BUDGETS
    def test_reconstruction(self, monkeypatch, budget):
        import levyint.ensembles as ens_mod

        monkeypatch.setattr(ens_mod, "_BLOCK_BUDGET", budget)
        expect = "6eafc47c46fa85f48493aeded08f5a266898e26ac46b761af45bbd04721e3202"
        assert _digest(_identity_outputs()[1]) == expect


@pytest.mark.parametrize("loop, rows", [
    (lambda x: li.simulate_paths(li.Brownian(), x.grid, 600, 2), 261),
    (lambda x: li.simulate_paths(li.CompensatedPoisson(rate=2.0), x.grid, 600, 3), 261),
    (lambda x: li.riemann_sum(x, x, x.grid), 130),
    (lambda x: li.ito_isometry_check(x, li.Brownian(), x), 130),
], ids=["brownian_fill", "jump_fill", "riemann_sum", "isometry_rhs"])
def test_block_rows_at_1001_points(monkeypatch, loop, rows):
    # at the default budget of 2**18 values, a fill block (one value a point)
    # holds 261 rows of 1001 points and a block of paired paths (a copy or
    # difference and one more value a point) 130; the last takes the rest
    from levyint import drivers, predictability, riemann

    x = li.simulate_paths(li.Brownian(), li.TimeGrid.uniform(1.0, 1000), 600, 1)
    sizes = []

    def run_blocks(fn, blocks, *gate):
        blocks = list(blocks)
        # a fill's blocks are row slices, a paired loop's (slice, values, ...)
        slices = [b if isinstance(b, slice) else b[0] for b in blocks]
        sizes.append([sl.stop - sl.start for sl in slices])
        return [fn(block) for block in blocks]

    for module in (drivers, predictability, riemann):
        monkeypatch.setattr(module, "_run_blocks", run_blocks)
    loop(x)
    assert sizes[-1] == [rows] * (600 // rows) + [600 % rows]
