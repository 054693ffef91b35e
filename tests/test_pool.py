"""Row blocks run on threads give the bits of the same blocks run in order.

Tier-1 inputs mostly fall under the size from which a call's blocks go to
the pool, and within one block, so these tests lower that size to 0, cut
the block budget and fix the pool at two threads, then compare each pooled
result with the serial one bit for bit.
"""

import hashlib
import multiprocessing
import sys
import threading
from dataclasses import astuple

import numpy as np
import pytest

import levyint as li
from levyint import ensembles, spde
from levyint.errors import NumericError
from levyint.predictability import _isometry_samples

_SPECS = {
    "brownian": li.Brownian(volatility=1.3),
    "compensated_poisson": li.CompensatedPoisson(rate=2.0),
    "compound_poisson": li.CompoundPoisson(rate=3.0, jump_law=li.NormalJumps(loc=0.3, scale=0.5)),
}
_GRID = li.TimeGrid.uniform(1.0, 40)


@pytest.fixture
def pooled(monkeypatch):
    """``pooled(True)`` runs every call of two or more blocks on a fresh
    two-thread pool, ``pooled(False)`` runs every call in order on this thread.
    Either way the block budget is cut so that small inputs make several
    blocks: at ``_GRID``'s 41 points a fill block holds 256 rows and a
    riemann_sum block 128."""
    monkeypatch.setattr(ensembles, "_workers", lambda: 2)
    monkeypatch.setattr(ensembles, "_pool", None)
    monkeypatch.setattr(ensembles, "_BLOCK_BUDGET", 256 * _GRID.n_points)

    def use(on: bool) -> None:
        monkeypatch.setattr(ensembles, "_POOL_ELEMENTS", 0 if on else 2**62)
        monkeypatch.setattr(ensembles, "_POOL_POINTS", 0 if on else 2**62)

    yield use
    if ensembles._pool is not None:
        ensembles._pool[1].shutdown()


def _both(pooled, fn):
    """fn() run serially and on the pool, in that order."""
    pooled(False)
    serial = fn()
    pooled(True)
    return serial, fn()


def _same_tables(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        for name in ("times", "sizes", "bounds"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


def _same_ensembles(a, b):
    assert np.array_equal(a.values, b.values)
    assert (np.signbit(a.values) == np.signbit(b.values)).all()
    _same_tables(a.jumps, b.jumps)


def test_forced_pool_runs_blocks_on_two_threads(pooled):
    pooled(True)
    idents = ensembles._run_blocks(lambda block: threading.get_ident(), range(64), 1, 1)
    assert threading.get_ident() not in idents and len(set(idents)) <= 2
    pooled(False)
    assert ensembles._run_blocks(lambda block: threading.get_ident(), range(4), 1, 1) == [
        threading.get_ident()] * 4


def test_more_threads_than_cores_with_frequent_switches(pooled, monkeypatch):
    # blocks write disjoint rows of one output: a lost or misplaced write
    # would show as a difference from the serial bits
    monkeypatch.setattr(ensembles, "_workers", lambda: 4)
    x = li.simulate_paths(_SPECS["compound_poisson"], _GRID, 3000, 18)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            sim, sim_pooled = _both(pooled, lambda: li.simulate_paths(_SPECS["brownian"], _GRID, 3000, 19))
            _same_ensembles(sim, sim_pooled)
            _same_bits(*_both(pooled, lambda: li.riemann_sum(li.left_limit(x), sim, _GRID).values))
    finally:
        sys.setswitchinterval(old)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", sorted(_SPECS))
class TestPooledSimulation:
    @pytest.mark.parametrize("n_paths", [1, 2, 257, 4097, 4096 + 33])
    def test_bit_identical(self, pooled, kind, n_paths):
        _same_ensembles(*_both(pooled, lambda: li.simulate_paths(_SPECS[kind], _GRID, n_paths, 11)))

    def test_offset_chunks_are_slices_of_one_run(self, pooled, kind):
        pooled(False)
        whole = li.simulate_paths(_SPECS[kind], _GRID, 1100, 12)
        pooled(True)
        for a, b in ((0, 300), (300, 813), (813, 1100)):
            chunk = li.simulate_paths(_SPECS[kind], _GRID, b - a, 12, path_offset=a)
            assert np.array_equal(chunk.values, whole.values[a:b])
            _same_tables(chunk.jumps, whole.jumps and whole.jumps[a:b])

    @pytest.mark.parametrize("integrand", ["left_limit", "time"])
    def test_offset_chunks_sum_to_slices_of_one_run(self, pooled, kind, integrand):
        # each path's sum is its own, whether it sits alone, with a neighbour
        # or in several blocks of a chunk
        grid = li.TimeGrid.uniform(1.0, 1000)
        phi = {"left_limit": li.left_limit,
               "time": lambda x: li.PathEnsemble.deterministic(grid, lambda t: t)}[integrand]
        pooled(False)
        whole = li.simulate_paths(_SPECS[kind], grid, 1061, 15)
        sums = li.riemann_sum(phi(whole), whole, grid).values
        pooled(True)
        for a, b in ((0, 1), (1, 3), (3, 36), (36, 1061)):
            chunk = li.simulate_paths(_SPECS[kind], grid, b - a, 15, path_offset=a)
            _same_bits(li.riemann_sum(phi(chunk), chunk, grid).values, sums[a:b])


class TestPooledRiemannSum:
    @pytest.fixture(scope="class")
    def ensembles_(self):
        x = li.simulate_paths(_SPECS["compound_poisson"], _GRID, 4096 + 33, 13)
        w = li.simulate_paths(_SPECS["brownian"], _GRID, 4096 + 33, 14)
        three = li.PathEnsemble(np.concatenate([w.values, x.values, w.values * x.values], axis=2),
                                _GRID, adapted=True)
        return x, w, three

    @pytest.mark.parametrize("partition", [
        _GRID,
        li.uniform_partition(_GRID, 0.5, 0.05),
        li.TimeGrid(_GRID.points[[0, 1, 2, 7, 8, 20, 39, 40]]),
    ], ids=["grid", "uniform", "non_uniform"])
    @pytest.mark.parametrize("pair", ["paths", "one_path_phi", "one_path_integrator", "dim3"])
    def test_bit_identical(self, pooled, ensembles_, partition, pair):
        x, w, three = ensembles_
        curve = li.PathEnsemble.deterministic(_GRID, lambda t: np.cos(3 * t))
        phi, m = {"paths": (li.left_limit(x), w), "one_path_phi": (curve, x),
                  "one_path_integrator": (w, curve), "dim3": (three, x)}[pair]
        serial, out = _both(pooled, lambda: li.riemann_sum(phi, m, partition).values)
        _same_bits(serial, out)


@pytest.mark.parametrize("kind", sorted(_SPECS))
@pytest.mark.parametrize("integrand", ["ones", "time", "driver_left_limit"])
def test_pooled_isometry_is_bit_identical(pooled, kind, integrand):
    spec = _SPECS[kind]
    x = li.simulate_paths(spec, _GRID, 4096 + 33, 15)
    phi = {"ones": li.PathEnsemble.deterministic(_GRID, 1.0),
           "time": li.PathEnsemble.deterministic(_GRID, lambda t: t),
           "driver_left_limit": li.left_limit(x)}[integrand]
    serial, out = _both(pooled, lambda: (astuple(li.ito_isometry_check(phi, spec, x)),
                                         _isometry_samples(phi, spec, x)))
    _same_bits(np.array(serial[0]), np.array(out[0]))  # every field of the report
    for a, b in zip(serial[1], out[1], strict=True):  # lhs and rhs, per path
        _same_bits(a, b)


def test_pooled_error_is_the_serial_error(pooled):
    # drift times a time past 1.8 overflows in every fill block
    spec, grid = li.Brownian(drift=1e308), li.TimeGrid.uniform(10.0, 1000)
    messages = []
    for on in (False, True):
        pooled(on)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError) as err:
            li.simulate_paths(spec, grid, 1000, 16)
        messages.append(str(err.value))
    assert ensembles._pool is not None
    assert messages[0] == messages[1]


def _simulate_and_compare(expected: np.ndarray) -> None:
    got = li.simulate_paths(_SPECS["brownian"], _GRID, 600, 17).values
    if not np.array_equal(got, expected):
        raise SystemExit(1)


def test_forked_child_makes_its_own_pool(pooled):
    pooled(True)
    expected = li.simulate_paths(_SPECS["brownian"], _GRID, 600, 17).values
    assert ensembles._pool is not None
    # the child inherits the parent's executor without its threads; pooling
    # through it would wait forever
    child = multiprocessing.get_context("fork").Process(target=_simulate_and_compare, args=(expected,))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child's pooled call did not finish")
    assert child.exitcode == 0


def _heat(dim, alpha, sigma, driver=li.Brownian(volatility=1.0)):
    """Linear drift and noise on ``dim`` heat modes, started from the first mode."""
    return li.SpdeProblem(operator=li.heat_operator(dim), h0=np.eye(dim)[0],
                          alpha=li.scaled_identity(alpha), alpha_lipschitz=alpha,
                          sigmas=(li.scaled_identity(sigma),), sigma_lipschitz=(sigma,),
                          drivers=(driver,))


_TWO_DRIVERS = li.SpdeProblem(
    operator=li.heat_operator(5), h0=np.array([1.0, -0.5, 0.25, 0.0, 2.0]),
    sigmas=(li.constant_map([1.0, 0.5, 0.25, 2.0, 1.0]), li.constant_map([0.3, -0.2, 0.1, 0.0, 0.5])),
    sigma_lipschitz=(0.0, 0.0), drivers=(li.Brownian(volatility=1.0), li.CompensatedPoisson(rate=2.0)))


def _count_blocks(monkeypatch) -> list:
    """The number of path blocks of each Picard sweep run from here on."""
    blocks_per_sweep = []

    def run_blocks(fn, blocks, *gate):
        blocks_per_sweep.append(len(blocks))
        return ensembles._run_blocks(fn, blocks, *gate)

    monkeypatch.setattr(spde, "_run_blocks", run_blocks)
    return blocks_per_sweep


class TestPooledPicard:
    # (problem, paths, steps, n_blocks, path_offset): each spans two or more
    # path blocks (of 3277 rows at ten modes, 6554 at five and 10923 at three)
    @pytest.mark.parametrize("problem, n_paths, steps, n_blocks, offset", [
        (_heat(10, 0.25, 0.25), 10_000, 64, 1, 0),
        (_heat(10, 0.25, 0.25), 9000, 37, 3, 17),
        (_heat(3, 4.0, 0.5, li.CompensatedPoisson(rate=1.0)), 40_000, 64, 1, 0),
        (_TWO_DRIVERS, 13_000, 100, 2, 17),
    ], ids=["readme", "readme_offset", "stiff_dim3", "two_drivers"])
    def test_bit_identical(self, pooled, monkeypatch, problem, n_paths, steps, n_blocks, offset):
        blocks_per_sweep = _count_blocks(monkeypatch)

        def solve():
            sol, reps = li.mild_solution_restarted(problem, li.TimeGrid.uniform(1.0, steps), n_paths, 21,
                                                   tol=1e-12, max_iter=4, n_blocks=n_blocks,
                                                   path_offset=offset)
            return sol.values, [r.distances for r in reps]

        (serial, serial_d), (out, out_d) = _both(pooled, solve)
        assert min(blocks_per_sweep) >= 2
        _same_bits(serial, out)
        assert (np.signbit(serial) == np.signbit(out)).all()
        assert serial_d == out_d

    @pytest.mark.parametrize("on", [False, True], ids=["serial", "pooled"])
    def test_distance_is_the_l2_distance_of_the_iterates(self, pooled, monkeypatch, on):
        # 13000 paths at ten modes are four path blocks, each summing its own
        # squared gaps; the last distance is the sup-L2 gap between the
        # first and second iterates, whatever the order of the sums
        blocks_per_sweep = _count_blocks(monkeypatch)
        pooled(on)
        grid = li.TimeGrid.uniform(1.0, 37)
        first, _ = li.mild_solution_picard(_heat(10, 0.25, 0.25), grid, 13_000, 21, tol=1e-12, max_iter=1)
        second, report = li.mild_solution_picard(_heat(10, 0.25, 0.25), grid, 13_000, 21,
                                                 tol=1e-12, max_iter=2)
        assert report.iterations == 2 and min(blocks_per_sweep) == 4
        assert report.residual == pytest.approx(li.l2_distance(first, second), rel=1e-12, abs=0.0)

    def test_signed_zero_golden(self, pooled, monkeypatch):
        # drive terms of both zero signs (see tests/test_spde.py::TestSignedZeroGoldens);
        # 13000 paths at four modes are blocks of 8192 and 4808 rows.  The
        # solution digest was recorded on one thread, before the drive had a
        # product buffer, and is pinned apart from the distances, whose last
        # bits depend on how the blocks' sums are added.
        problem = li.SpdeProblem(
            operator=li.heat_operator(4), h0=np.array([-0.0, 1.0, -0.0, 0.5]),
            alpha=li.scaled_identity(0.5), alpha_lipschitz=0.5,
            sigmas=(li.constant_map(-0.0), li.scaled_identity(0.25)), sigma_lipschitz=(0.0, 0.25),
            drivers=(li.Brownian(volatility=1.0), li.CompensatedPoisson(rate=2.0)))
        blocks_per_sweep = _count_blocks(monkeypatch)
        pooled(True)
        sol, reps = li.mild_solution_restarted(problem, li.TimeGrid.uniform(1.0, 16), 13_000, 21,
                                               tol=1e-12, max_iter=3, n_blocks=2, path_offset=17)
        assert blocks_per_sweep and min(blocks_per_sweep) == 2
        h = hashlib.sha256(np.ascontiguousarray(sol.values).tobytes())
        assert h.hexdigest() == "c7875491cc534ce4f584c8f16c12cfa89f4a2bc121a4bd458a8688ed298597ea"
        assert tuple(r.distances for r in reps) == (
            (0.08626705255935421, 0.010877625572271673, 0.0014146420981808521),
            (0.015276543817453433, 0.0019302558050358284, 0.0002832943900918238))

    def test_diverging_problem_raises_the_serial_error(self, pooled):
        # superlinear drift: the iterates overflow within a few sweeps; 50000
        # paths at one mode are blocks of 32768 and 17232 rows
        problem = li.SpdeProblem(operator=li.SpectralOperator([0.0]), h0=np.array([1.0]),
                                 alpha=lambda t, r: r**3, alpha_lipschitz=1e12)
        messages = []
        for on in (False, True):
            pooled(on)
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError) as err:
                li.mild_solution_picard(problem, li.TimeGrid.uniform(1.0, 16), 50_000, 6,
                                        tol=1e-6, max_iter=12)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_map_raising_in_the_second_block_raises_the_serial_error(self, pooled):
        # 6500 paths at ten modes are blocks of 3277 and 3223 rows; the map
        # fails on the second only
        def sigma(t, state):
            if len(state) == 3223:
                raise ValueError(f"rejected {len(state)} rows at t={t}")
            return 0.25 * state

        problem = li.SpdeProblem(operator=li.heat_operator(10), h0=np.eye(10)[0],
                                 sigmas=(sigma,), sigma_lipschitz=(0.25,), drivers=(li.Brownian(),))
        messages = []
        for on in (False, True):
            pooled(on)
            with pytest.raises(ValueError) as err:
                li.mild_solution_picard(problem, li.TimeGrid.uniform(1.0, 32), 6500, 8, max_iter=3)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == "rejected 3223 rows at t=0.0"


class TestPicardBlocks:
    """A Picard sweep's path blocks hold ceil(2**15 / dim) rows each, the
    last the rest, and depend only on the path count and ``dim``; each block
    sums its own squared gaps, so the distances are the same on the pool
    and off it, and the last is the sup-L2 gap between the iterates."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 7, 10, 16])
    # path counts in block rows r: one path, r - 1, r, r + 1, 2r - 1, 3r - 1
    @pytest.mark.parametrize("n_paths, n_blocks", [
        (lambda r: 1, 1), (lambda r: r - 1, 1), (lambda r: r, 1), (lambda r: r + 1, 1),
        (lambda r: 2 * r - 1, 2), (lambda r: 3 * r - 1, 3),
    ], ids=["one", "r-1", "r", "r+1", "2r-1", "3r-1"])
    def test_blocks_and_distance(self, pooled, monkeypatch, dim, n_paths, n_blocks):
        rows = -(-2**15 // dim)
        n_paths = n_paths(rows)
        layouts = []

        def run_blocks(fn, blocks, *gate):
            layouts.append([(b[1], len(b[2])) for b in blocks])
            return ensembles._run_blocks(fn, blocks, *gate)

        monkeypatch.setattr(spde, "_run_blocks", run_blocks)
        problem, grid = _heat(dim, 0.25, 0.25), li.TimeGrid.uniform(1.0, 4)

        def solve(max_iter):
            return li.mild_solution_picard(problem, grid, n_paths, 5, tol=1e-12, max_iter=max_iter)

        pooled(False)
        first, _ = solve(1)
        (serial, serial_rep), (out, out_rep) = _both(pooled, lambda: solve(2))
        last = n_paths - (n_blocks - 1) * rows
        assert layouts and all(
            layout == [(i * rows, rows) for i in range(n_blocks - 1)] + [((n_blocks - 1) * rows, last)]
            for layout in layouts)
        assert n_blocks == 1 or rows / 2 <= last <= 3 * rows / 2
        _same_bits(serial.values, out.values)
        assert serial_rep.distances == out_rep.distances and len(out_rep.distances) == 2
        assert out_rep.residual == pytest.approx(li.l2_distance(first, out), rel=1e-12, abs=0.0)
