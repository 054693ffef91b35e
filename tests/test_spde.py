import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

import levyint as li
from levyint import spde
from levyint.errors import (
    ConsistencyError,
    NumericError,
    ParameterError,
)


def _linear_problem(dim, sigma=1.0, driver=None):
    op = li.heat_operator(dim)
    return li.SpdeProblem(
        operator=op,
        h0=np.zeros(dim),
        sigmas=(li.constant_map(np.full(dim, sigma)),),
        sigma_lipschitz=(0.0,),
        drivers=(driver or li.Brownian(volatility=1.0),),
    )


def _readme_problem():
    """The README's spde example: ten heat modes, linear drift and noise."""
    return li.SpdeProblem(
        operator=li.heat_operator(10),
        h0=np.eye(10)[0],
        alpha=li.scaled_identity(0.25),
        alpha_lipschitz=0.25,
        sigmas=(li.scaled_identity(0.25),),
        sigma_lipschitz=(0.25,),
        drivers=(li.Brownian(volatility=1.0),),
    )


def _stiff_problem():
    return li.SpdeProblem(
        operator=li.heat_operator(3),
        h0=np.ones(3),
        alpha=li.scaled_identity(4.0),
        alpha_lipschitz=4.0,
        sigmas=(li.scaled_identity(0.5),),
        sigma_lipschitz=(0.5,),
        drivers=(li.CompensatedPoisson(rate=1.0),),
    )


def _two_driver_problem():
    """State-free: five modes, a nonzero start, and two drivers with per-mode
    constant noise."""
    return li.SpdeProblem(
        operator=li.heat_operator(5),
        h0=np.array([1.0, -0.5, 0.25, 0.0, 2.0]),
        sigmas=(li.constant_map([1.0, 0.5, 0.25, 2.0, 1.0]),
                li.constant_map([0.3, -0.2, 0.1, 0.0, 0.5])),
        sigma_lipschitz=(0.0, 0.0),
        drivers=(li.Brownian(volatility=1.0), li.CompensatedPoisson(rate=2.0)),
    )


def _signed_zero_problem():
    """State-dependent, with drive terms of both zero signs: -0.0 modes in h0
    that stay zero, a linear drift, and a constant -0.0 noise beside a
    linear one."""
    return li.SpdeProblem(
        operator=li.heat_operator(4),
        h0=np.array([-0.0, 1.0, -0.0, 0.5]),
        alpha=li.scaled_identity(0.5),
        alpha_lipschitz=0.5,
        sigmas=(li.constant_map(-0.0), li.scaled_identity(0.25)),
        sigma_lipschitz=(0.0, 0.25),
        drivers=(li.Brownian(volatility=1.0), li.CompensatedPoisson(rate=2.0)),
    )


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


class TestSemigroup:
    def test_identity_at_zero(self):
        op = li.heat_operator(3)
        x = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(li.semigroup_apply(op, 0.0, x), x)

    def test_exponent_arithmetic(self):
        op = li.SpectralOperator([1.0, 4.0])
        out = li.semigroup_apply(op, np.log(2.0), np.array([1.0, 1.0]))
        assert out == pytest.approx([0.5, 1.0 / 16.0], abs=1e-12)

    def test_semigroup_law(self):
        op = li.heat_operator(6)
        rng = np.random.default_rng(0)
        for _ in range(20):
            t, s = rng.uniform(0, 1, 2)
            x = rng.normal(size=6)
            once = li.semigroup_apply(op, t + s, x)
            twice = li.semigroup_apply(op, t, li.semigroup_apply(op, s, x))
            assert np.max(np.abs(once - twice)) < 1e-12

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ParameterError):
            li.SpectralOperator([-1.0])


class TestContractivityBound:
    def test_heat_dim10(self):
        assert li.pseudo_contractivity_bound(li.heat_operator(10)) == -1.0

    def test_zero_spectrum(self):
        assert li.pseudo_contractivity_bound(li.SpectralOperator([0.0, 0.0])) == 0.0

    def test_min_rule(self):
        assert li.pseudo_contractivity_bound(li.SpectralOperator([3.0, 7.0])) == -3.0

    def test_sampled_operator_norm(self):
        op = li.SpectralOperator([2.0, 5.0, 11.0])
        omega = li.pseudo_contractivity_bound(op)
        rng = np.random.default_rng(1)
        for _ in range(50):
            t = rng.uniform(0, 2)
            x = rng.normal(size=3)
            x /= np.linalg.norm(x)
            assert np.linalg.norm(li.semigroup_apply(op, t, x)) <= np.exp(omega * t) + 1e-12


class TestStochasticConvolution:
    def test_zero_spectrum_reduces_to_levy_integral(self, grid100):
        spec = li.CompensatedPoisson(rate=2.0)
        x = li.simulate_paths(spec, grid100, 300, 2)
        phi = li.predictable_version(x)
        conv = li.stochastic_convolution(li.SpectralOperator([0.0]), phi, spec, x)
        direct = li.levy_integral(phi, spec, x)
        assert np.max(np.abs(conv.values - direct.values)) < 1e-12

    def test_zero_integrand(self, grid100):
        spec = li.Brownian(volatility=1.0)
        x = li.simulate_paths(spec, grid100, 50, 3)
        phi = li.PathEnsemble.deterministic(grid100, 0.0)
        conv = li.stochastic_convolution(li.SpectralOperator([1.0]), phi, spec, x)
        assert np.all(conv.values == 0.0)

    def test_relaxation_variance(self):
        # constant unit integrand, single mode mu=1: variance (1-e^{-2t})/2
        grid = li.TimeGrid.uniform(1.0, 1000)
        spec = li.Brownian(volatility=1.0)
        x = li.simulate_paths(spec, grid, 100_000, 4)
        phi = li.PathEnsemble.deterministic(grid, 1.0)
        conv = li.stochastic_convolution(li.SpectralOperator([1.0]), phi, spec, x)
        for t_idx in (500, 1000):
            t = grid.points[t_idx]
            v = conv.values[:, t_idx, 0]
            sq = (v - v.mean()) ** 2
            se = np.std(sq, ddof=1) / np.sqrt(sq.size)
            target = (1.0 - np.exp(-2.0 * t)) / 2.0
            assert abs(np.var(v, ddof=1) - target) <= 3 * se + 1e-3

    def test_dim_mismatch_rejected(self, grid100):
        spec = li.Brownian(volatility=1.0)
        x = li.simulate_paths(spec, grid100, 10, 5)
        phi = li.PathEnsemble.deterministic(grid100, 1.0, dim=2)
        with pytest.raises(ConsistencyError):
            li.stochastic_convolution(li.SpectralOperator([1.0]), phi, spec, x)


class TestLinearVarianceOracle:
    def test_flat_mode(self):
        op = li.SpectralOperator([0.0])
        out = li.linear_variance_oracle(op, np.array([1.0]), li.Brownian(volatility=1.0), 1.0)
        assert out[0] == pytest.approx(1.0, abs=1e-12)

    def test_stationary_limit(self):
        op = li.SpectralOperator([1.0])
        out = li.linear_variance_oracle(op, np.array([1.0]), li.Brownian(volatility=1.0), 50.0)
        assert out[0] == pytest.approx(0.5, abs=1e-12)

    def test_jump_driver_scaling(self):
        op = li.SpectralOperator([1.0])
        spec = li.CompensatedPoisson(rate=3.0)
        out = li.linear_variance_oracle(op, np.array([2.0]), spec, 1.0)
        assert out[0] == pytest.approx(6.0 * (1.0 - np.exp(-2.0)), abs=1e-12)

    def test_against_quadrature(self):
        # independent oracle: numerically integrate the squared kernel
        op = li.heat_operator(5)
        spec = li.CompensatedPoisson(rate=2.0)
        sig = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
        t = 0.7
        oracle = li.linear_variance_oracle(op, sig, spec, t)
        for k, mu in enumerate(op.eigenvalues):
            quad, _ = integrate.quad(lambda s: np.exp(-2 * mu * (t - s)), 0.0, t)
            assert oracle[k] == pytest.approx(spec.bracket_rate() * sig[k] ** 2 * quad, rel=1e-9)


class TestLipschitzSpotCheck:
    def test_misdeclared_constant_rejected(self):
        prob = li.SpdeProblem(
            operator=li.heat_operator(2),
            h0=np.zeros(2),
            alpha=li.scaled_identity(3.0),
            alpha_lipschitz=1.0,
            sigmas=(),
            sigma_lipschitz=(),
            drivers=(),
        )
        with pytest.raises(ParameterError):
            li.spot_check_lipschitz(prob, 1.0)

    def test_correct_constants_pass(self):
        prob = li.SpdeProblem(
            operator=li.heat_operator(2),
            h0=np.zeros(2),
            alpha=li.scaled_identity(0.5),
            alpha_lipschitz=0.5,
            sigmas=(li.constant_map(np.ones(2)),),
            sigma_lipschitz=(0.0,),
            drivers=(li.Brownian(volatility=1.0),),
        )
        li.spot_check_lipschitz(prob, 1.0)

    def test_coefficient_maps_carry_their_constants(self):
        alpha, sigma = li.scaled_identity(-3.0), li.constant_map(2.0)
        assert (alpha.lipschitz, sigma.lipschitz) == (3.0, 0.0)
        state = np.arange(4.0).reshape(2, 2)
        assert np.array_equal(alpha(0.0, state), -3.0 * state)
        assert np.array_equal(sigma(0.0, state), np.full((2, 2), 2.0))
        prob = li.SpdeProblem(
            operator=li.heat_operator(2),
            h0=np.zeros(2),
            alpha=alpha,
            alpha_lipschitz=alpha.lipschitz,
            sigmas=(sigma,),
            sigma_lipschitz=(sigma.lipschitz,),
            drivers=(li.Brownian(),),
        )
        li.spot_check_lipschitz(prob, 1.0)


class TestPicard:
    def test_noiseless_flow(self):
        op = li.heat_operator(4)
        prob = li.SpdeProblem(operator=op, h0=np.ones(4))
        grid = li.TimeGrid.uniform(1.0, 32)
        sol, rep = li.mild_solution_picard(prob, grid, 8, 1, tol=1e-10, max_iter=5)
        assert rep.iterations == 1
        assert rep.distances[0] < 1e-12
        expect = np.exp(-np.outer(grid.points, op.eigenvalues))
        assert np.max(np.abs(sol.values - expect[None])) < 1e-12

    def test_scalar_ode_oracle(self):
        a = 0.8
        prob = li.SpdeProblem(
            operator=li.SpectralOperator([0.0]),
            h0=np.array([1.0]),
            alpha=li.scaled_identity(a),
            alpha_lipschitz=a,
        )
        for steps in (64, 128):
            grid = li.TimeGrid.uniform(1.0, steps)
            sol, rep = li.mild_solution_picard(prob, grid, 2, 2, tol=1e-13, max_iter=steps + 2)
            assert rep.converged
            err = np.max(np.abs(sol.values[0, :, 0] - np.exp(a * grid.points)))
            # left-endpoint quadrature error is of order h
            assert err < 2.0 * a * np.exp(a) * grid.mesh

    def test_constant_noise_fixed_after_first_iterate(self):
        prob = _linear_problem(4)
        grid = li.TimeGrid.uniform(1.0, 64)
        sol, rep = li.mild_solution_picard(prob, grid, 500, 3, tol=1e-12, max_iter=10)
        assert rep.converged
        assert rep.iterations == 2
        assert rep.distances[1] <= 1e-12

    def test_matches_euler_maruyama_exactly(self):
        # flat spectrum: the converged iterate satisfies the explicit
        # left-endpoint recursion driven by the same increments
        a, s = 0.4, 0.3
        spec = li.CompensatedPoisson(rate=2.0)
        prob = li.SpdeProblem(
            operator=li.SpectralOperator([0.0]),
            h0=np.array([1.0]),
            alpha=li.scaled_identity(a),
            alpha_lipschitz=a,
            sigmas=(li.scaled_identity(s),),
            sigma_lipschitz=(s,),
            drivers=(spec,),
        )
        grid = li.TimeGrid.uniform(1.0, 40)
        n, seed = 50, 4
        sol, rep = li.mild_solution_picard(prob, grid, n, seed, tol=1e-13, max_iter=45)
        assert rep.converged
        x = li.simulate_paths(spec, grid, n, li.child_seed(seed, 0))
        dx = np.diff(x.values[:, :, 0], axis=1)
        y = np.ones((n, grid.n_points))
        for j in range(grid.n_intervals):
            y[:, j + 1] = y[:, j] + a * y[:, j] * grid.dt[j] + s * y[:, j] * dx[:, j]
        assert np.max(np.abs(sol.values[:, :, 0] - y)) < 1e-12

    def test_contraction_report(self):
        op = li.heat_operator(10)
        prob = li.SpdeProblem(
            operator=op,
            h0=np.ones(10),
            alpha=li.scaled_identity(0.25),
            alpha_lipschitz=0.25,
            sigmas=(li.scaled_identity(0.25),),
            sigma_lipschitz=(0.25,),
            drivers=(li.Brownian(volatility=1.0),),
        )
        grid = li.TimeGrid.uniform(1.0, 64)
        sol, rep = li.mild_solution_picard(prob, grid, 2000, 5, tol=1e-4, max_iter=15)
        assert rep.converged
        assert rep.iterations <= 15
        assert all(r < 0.9 for r in rep.ratios[1:])
        assert sol.adapted

    def test_divergent_coefficients_raise(self):
        # superlinear growth compounds across iterates until values overflow
        prob = li.SpdeProblem(
            operator=li.SpectralOperator([0.0]),
            h0=np.array([1.0]),
            alpha=lambda t, r: r**3,
            alpha_lipschitz=1e12,
        )
        grid = li.TimeGrid.uniform(1.0, 16)
        with pytest.raises(NumericError):
            li.mild_solution_picard(prob, grid, 4, 6, tol=1e-6, max_iter=12)

    def test_nonconvergence_reported_not_raised(self):
        # strong coefficients on a long horizon: the plain iteration stalls
        prob = li.SpdeProblem(
            operator=li.SpectralOperator([0.0]),
            h0=np.array([1.0]),
            alpha=li.scaled_identity(4.0),
            alpha_lipschitz=4.0,
        )
        grid = li.TimeGrid.uniform(1.0, 64)
        sol, rep = li.mild_solution_picard(prob, grid, 2, 7, tol=1e-14, max_iter=3)
        assert not rep.converged
        assert rep.iterations == 3


class TestRestartedSolver:
    def test_matches_fully_converged_single_block(self):
        # every block solves the same discrete fixed-point equation, so the
        # chained solution agrees with an exhaustively iterated plain run
        prob = _stiff_problem()
        grid = li.TimeGrid.uniform(1.0, 48)
        full, rep = li.mild_solution_picard(prob, grid, 30, 8, tol=1e-13, max_iter=60)
        assert rep.converged
        chained, reports = li.mild_solution_restarted(
            prob, grid, 30, 8, tol=1e-13, max_iter=60, n_blocks=4
        )
        assert all(r.converged for r in reports)
        assert np.max(np.abs(chained.values - full.values)) < 1e-12

    def test_blocks_converge_where_plain_budget_fails(self):
        prob = _stiff_problem()
        grid = li.TimeGrid.uniform(1.0, 64)
        _, rep = li.mild_solution_picard(prob, grid, 20, 9, tol=1e-8, max_iter=10)
        assert not rep.converged
        _, reports = li.mild_solution_restarted(
            prob, grid, 20, 9, tol=1e-8, max_iter=10, n_blocks=8
        )
        assert all(r.converged for r in reports)

    def test_bad_block_count_rejected(self):
        prob = _stiff_problem()
        grid = li.TimeGrid.uniform(1.0, 8)
        with pytest.raises(ParameterError):
            li.mild_solution_restarted(prob, grid, 4, 10, n_blocks=20)

    def test_solution_increment_independence(self):
        prob = _linear_problem(3)
        grid = li.TimeGrid.uniform(1.0, 50)
        sol, _ = li.mild_solution_picard(prob, grid, 30_000, 8, tol=1e-10, max_iter=5)
        x = li.simulate_paths(prob.drivers[0], grid, 30_000, li.child_seed(8, 0))
        z = li.increment_independence_z(sol, x)
        assert np.max(np.abs(z)) < 4.5


class TestSolverSettings:
    @pytest.mark.parametrize("solve", [li.mild_solution_picard, li.mild_solution_restarted])
    @pytest.mark.parametrize(
        "settings",
        [{"tol": 0.0}, {"tol": -1.0}, {"tol": np.nan}, {"tol": np.inf}, {"max_iter": 0}],
        ids=["tol0", "tol_negative", "tol_nan", "tol_inf", "max_iter0"],
    )
    def test_bad_settings_rejected(self, solve, settings):
        grid = li.TimeGrid.uniform(1.0, 8)
        with pytest.raises(ParameterError):
            solve(_linear_problem(2), grid, 4, 1, **settings)

    @pytest.mark.parametrize("solve", [li.mild_solution_picard, li.mild_solution_restarted])
    def test_path_indices_past_the_counter_word_rejected(self, solve):
        grid = li.TimeGrid.uniform(1.0, 8)
        with pytest.raises(ParameterError, match="64-bit counter word"):
            solve(_linear_problem(2), grid, 4, 1, path_offset=2**64 - 3)


class TestSolverEquivalence:
    def test_one_block_restart_is_plain_picard(self):
        prob = _readme_problem()
        grid = li.TimeGrid.uniform(1.0, 32)
        plain, rep = li.mild_solution_picard(prob, grid, 50, 3, tol=1e-4, max_iter=15)
        chained, (block,) = li.mild_solution_restarted(
            prob, grid, 50, 3, tol=1e-4, max_iter=15, n_blocks=1
        )
        assert np.array_equal(chained.values, plain.values)
        assert block == rep

    def test_path_offset_chunks_reproduce_slices(self):
        # the discrete operator is nilpotent: after n_steps + 1 sweeps every
        # path block sits exactly on the fixed point, whatever its size
        prob = _readme_problem()
        grid = li.TimeGrid.uniform(1.0, 16)
        kw = dict(tol=1e-300, max_iter=grid.n_intervals + 2)
        whole, rep = li.mild_solution_picard(prob, grid, 60, 5, **kw)
        assert rep.converged
        for lo, hi in ((0, 25), (25, 60), (41, 42)):
            part, _ = li.mild_solution_picard(prob, grid, hi - lo, 5, path_offset=lo, **kw)
            assert np.array_equal(part.values, whole.values[lo:hi])


class TestGoldenDigests:
    """sha256 of solver and convolution outputs, recorded before the solvers
    shared one recursion kernel; a change here means the numbers changed."""

    def test_readme_problem(self):
        grid = li.TimeGrid.uniform(1.0, 64)
        sol, rep = li.mild_solution_picard(_readme_problem(), grid, 200, 1, tol=1e-4, max_iter=15)
        expect = "5333ffecbc41fc547fe8861322fa3e403ac363250c1b9d641d04537d79f74f2d"
        assert _digest(sol.values, rep.distances) == expect

    def test_restarted_stiff_problem(self):
        grid = li.TimeGrid.uniform(1.0, 64)
        sol, reps = li.mild_solution_restarted(
            _stiff_problem(), grid, 20, 9, tol=1e-8, max_iter=10, n_blocks=8
        )
        expect = "47ff34a74667ffb559fed14acd40188482dacb74aafd4585df7af1737e4753d2"
        assert _digest(sol.values, *(r.distances for r in reps)) == expect

    def test_stochastic_convolution(self, grid100):
        spec = li.CompensatedPoisson(rate=2.0)
        x = li.simulate_paths(spec, grid100, 50, 2)
        left = li.predictable_version(x).values
        phi = li.PathEnsemble(
            values=np.repeat(left, 3, axis=2) * [1.0, -0.5, 2.0], grid=grid100, adapted=True
        )
        conv = li.stochastic_convolution(li.heat_operator(3), phi, spec, x)
        expect = "6f3e0d0afe728a405a966692472b8b60a06d04c801247512e6aa1729d641cb1e"
        assert _digest(conv.values) == expect


class TestPicardGoldens:
    """sha256 of solutions and distances, recorded when Picard held two
    iterates and swapped them after every sweep: state-dependent problems at
    1, 2 and 3 sweeps (both parities of the swap), one and three blocks, 37
    steps, a tol the first sweep meets, and a state-free problem."""

    _PROBLEMS = {"readme": _readme_problem, "stiff": _stiff_problem,
                 "linear": lambda: _linear_problem(4), "two_drivers": _two_driver_problem}

    @pytest.mark.parametrize("name, steps, max_iter, n_blocks, tol, expect", [
        ("readme", 37, 1, 1, 1e-12, "4cb1ef80ef506485b2e3569e2e3c1d314872b76e8025f34412e9d2255ca453de"),
        ("readme", 37, 2, 1, 1e-12, "1e9b7a7102b24ce699b53578138e1e4dfde2cb17a6616b243faa3a2226fcec26"),
        ("readme", 37, 3, 1, 1e-12, "4f6c4194ff35c7a2cd29ab66840b6f3b8d3e6ff7d43a335c4b50bcb0739de0a9"),
        ("readme", 37, 1, 3, 1e-12, "77c10db379648004bb517b3b9000c2dfd1cced1e4b5e574e25443bcf9a2e52c0"),
        ("readme", 37, 2, 3, 1e-12, "1de50b72e4f82e2b6e2a11b627145a2048972cfd552cfea6f591fdee5c6d1719"),
        ("readme", 37, 3, 3, 1e-12, "3ff4b88c5305b186b5d9523e7e8106ad3c74a863712bc3f04c12908451976001"),
        ("readme", 64, 15, 1, 1e-4, "bb9b69b4b646a65dff25fd6d1ac52295152949f5bee4e31329bacc86c02d9724"),
        ("stiff", 37, 3, 3, 1e-8, "f170b994766ef9a33bb2df77d717b63e11e81cb98f614c5d9efb8884ade3f562"),
        ("stiff", 37, 2, 1, 1e-8, "ac2fd89a14f3fb3804681dcd7c99757df485b4025639da9d845aa606f3b7586a"),
        # the first sweep meets tol: one distance per block, as at max_iter 1
        ("readme", 37, 5, 1, 1e3, "4cb1ef80ef506485b2e3569e2e3c1d314872b76e8025f34412e9d2255ca453de"),
        ("readme", 37, 5, 3, 1e3, "77c10db379648004bb517b3b9000c2dfd1cced1e4b5e574e25443bcf9a2e52c0"),
        ("linear", 37, 1, 1, 1e-12, "73a842f40617ca5377a7dfd94a27dfd80216acdc5675399be79c7eccba444d23"),
        ("linear", 37, 2, 3, 1e-12, "14d6dac7bd7ed787b3b76e4d1c692c398ad0dca8ac75f5dae43f1e9ec0ffef76"),
    ])
    def test_solution_and_distances(self, name, steps, max_iter, n_blocks, tol, expect):
        sol, reps = li.mild_solution_restarted(
            self._PROBLEMS[name](), li.TimeGrid.uniform(1.0, steps), 30, 7,
            tol=tol, max_iter=max_iter, n_blocks=n_blocks,
        )
        assert _digest(sol.values, *(r.distances for r in reps)) == expect

    # Two or more path blocks (of 3277 rows at ten modes, 6554 at five and
    # 10923 at three).  Each case pins the solution's sha256, recorded while
    # every sweep ran over all paths at once, apart from the distances, whose
    # last bits depend on how the blocks' sums are added.
    @pytest.mark.parametrize("name, paths, steps, offset, max_iter, n_blocks, tol, solution, distances", [
        ("readme", 9000, 37, 0, 3, 1, 1e-12,
         "f77935f22fd48254550f7efc5c27dd6f820be3dc13d9035b89e2fcb1a6ec8ca7",
         ((0.13597140167245284, 0.02930668635519438, 0.005026155378712528),)),
        ("readme", 9000, 37, 0, 3, 3, 1e-12,
         "12b9eeb294dabbe8af49553815683e71d8e4697f55ce2a220533d1cc8404c648",
         ((0.11964775568444296, 0.012968102975867047, 0.0010892238015422512),
          (0.09590700407216836, 0.01069057941214983, 0.000889898709343185),
          (0.07222689612655092, 0.007692900617291467, 0.0006140097115668882))),
        ("stiff", 40_000, 37, 0, 3, 1, 1e-8,
         "e2dbd99650e1d44324a1b8c0f06e36309b3a2efb9c1b377ceb0075398a8ac80d",
         ((1.4859034412910281, 2.9620508979860736, 3.886051664348004),)),
        ("two_drivers", 13_000, 100, 17, 1, 2, 1e-12,
         "eb60154fb091794957d970bc12387654961a08d2aadb22511567eaefca27c4c4",
         ((0.7280921102944985,), (0.7341627369431869,))),
        ("two_drivers", 13_000, 100, 17, 2, 2, 1e-12,
         "eb60154fb091794957d970bc12387654961a08d2aadb22511567eaefca27c4c4",
         ((0.7280921102944985, 0.0), (0.7341627369431869, 0.0))),
        ("two_drivers", 13_000, 100, 17, 5, 2, 1e-12,
         "eb60154fb091794957d970bc12387654961a08d2aadb22511567eaefca27c4c4",
         ((0.7280921102944985, 0.0), (0.7341627369431869, 0.0))),
        # the first sweep meets tol
        ("two_drivers", 13_000, 100, 17, 5, 2, 1e3,
         "eb60154fb091794957d970bc12387654961a08d2aadb22511567eaefca27c4c4",
         ((0.7280921102944985,), (0.7341627369431869,))),
    ])
    def test_above_one_path_block(self, name, paths, steps, offset, max_iter, n_blocks, tol,
                                  solution, distances):
        sol, reps = li.mild_solution_restarted(
            self._PROBLEMS[name](), li.TimeGrid.uniform(1.0, steps), paths, 7,
            tol=tol, max_iter=max_iter, n_blocks=n_blocks, path_offset=offset,
        )
        assert _digest(sol.values) == solution
        assert tuple(r.distances for r in reps) == distances


class TestSignedZeroGoldens:
    """sha256 of solution bytes (sign bits included) and distances, recorded
    while each step's drive terms were formed as temporaries: the drive
    starts at 0.0 and every term is added to it, so a -0.0 mode leaves row 0
    as +0.0 and stays so."""

    @pytest.mark.parametrize("n_blocks, expect", [
        (1, "c3ad82d9101143feb028e036a7ab2c54d0a9326d006b3bd0bc3507d6b4ce51b1"),
        (3, "a057995f2ece94b62b69eae895585832f089628f7b7c48e7b2a77c9dd0cba9a7"),
    ])
    def test_solution_and_distances(self, n_blocks, expect):
        sol, reps = li.mild_solution_restarted(_signed_zero_problem(), li.TimeGrid.uniform(1.0, 37), 30, 7,
                                               tol=1e-12, max_iter=3, n_blocks=n_blocks)
        zero = sol.values[:, :, [0, 2]] == 0.0
        assert zero.all() and np.signbit(sol.values[:, 0, [0, 2]]).all()
        assert not np.signbit(sol.values[:, 1:, [0, 2]]).any()
        assert _digest(sol.values, *(r.distances for r in reps)) == expect


class TestSweepCount:
    @pytest.fixture
    def sweeps(self, monkeypatch):
        """The list of sweeps run, one entry per ``_sweep`` call."""
        calls = []
        sweep = spde._sweep

        def counted(*args):
            calls.append(args)
            return sweep(*args)

        monkeypatch.setattr(spde, "_sweep", counted)
        return calls

    def test_state_free_problem_sweeps_once(self, sweeps):
        # a second sweep would reproduce the first iterate bit for bit
        sol, reps = li.mild_solution_restarted(_two_driver_problem(), li.TimeGrid.uniform(1.0, 64),
                                               500, 3, tol=1e-12, max_iter=5, n_blocks=3)
        assert len(sweeps) == 3
        assert all(r.distances[1:] == (0.0,) and r.distances[0] > 0 and r.converged for r in reps)

    def test_state_is_decided_by_type(self, sweeps):
        # a constant noise that is not a constant_map is swept again
        prob = _linear_problem(4)
        lam = replace(prob, sigmas=(lambda t, state: np.broadcast_to(1.0, state.shape),))
        grid = li.TimeGrid.uniform(1.0, 64)
        _, rep = li.mild_solution_picard(prob, grid, 200, 3, tol=1e-12, max_iter=5)
        assert len(sweeps) == 1
        _, rep_lam = li.mild_solution_picard(lam, grid, 200, 3, tol=1e-12, max_iter=5)
        assert len(sweeps) == 3
        assert rep_lam == rep

    @pytest.mark.parametrize("max_iter, tol, n_sweeps", [(3, 1e-12, 3), (15, 1e-4, 6), (5, 1e3, 1)])
    def test_state_dependent_sweep_counts(self, sweeps, max_iter, tol, n_sweeps):
        _, rep = li.mild_solution_picard(_readme_problem(), li.TimeGrid.uniform(1.0, 64), 200, 1,
                                         tol=tol, max_iter=max_iter)
        assert len(sweeps) == rep.iterations == n_sweeps


def _view_problem():
    """State-dependent, three modes, one Brownian driver: a solution whose
    every reduction applies (continuous, so it has left limits)."""
    return li.SpdeProblem(
        operator=li.heat_operator(3),
        h0=np.array([1.0, 0.5, -0.25]),
        alpha=li.scaled_identity(0.25),
        alpha_lipschitz=0.25,
        sigmas=(li.scaled_identity(0.5),),
        sigma_lipschitz=(0.5,),
        drivers=(li.Brownian(volatility=1.0),),
    )


def _reduction_outputs(sol, other, x):
    """Every public reduction of the solution ``sol`` (against ``other``, a
    second solution, and ``x``, its driver's paths), as float arrays."""
    spec, grid, op = li.Brownian(volatility=1.0), sol.grid, li.heat_operator(3)
    modulus = li.ms_continuity_modulus(sol)
    embedding = li.embedding_norm_check(sol)
    isometry = li.ito_isometry_check(sol, spec, x)
    return [
        li.second_moments(sol), li.sup_l2_norm(sol), li.l2_distance(sol, other),
        li.l2_distance(sol, li.PathEnsemble.deterministic(grid, 1.0, dim=3)),
        modulus.norms, modulus.standard_errors,
        li.riemann_sum(sol, x, grid).values,
        li.riemann_sum(sol, x, li.uniform_partition(grid, 1.0, 0.0625)).values,
        li.integral_process(sol, x).values, li.bochner_integral(sol).values,
        [embedding.time_integral, embedding.bound],
        [isometry.lhs, isometry.rhs, isometry.se_lhs, isometry.se_rhs, isometry.z_score],
        li.increment_independence_z(sol, x),
        li.stochastic_convolution(op, sol, spec, x).values,
        li.stochastic_convolution(op, li.PathEnsemble.deterministic(grid, 1.0, dim=3), spec, x).values,
    ]


class TestSolutionView:
    """A solver returns a read-only path-major view of the time-major buffer
    it swept, not a copy.  Every reduction reads such a view in contiguous
    blocks (``ensembles._blocks``), so it gives the bits it gives on a
    contiguous copy; numpy sums a strided block in another order."""

    @pytest.mark.parametrize("n_paths", [2, 300, 5000])
    def test_reductions_match_a_contiguous_copy(self, n_paths):
        grid = li.TimeGrid.uniform(1.0, 64)
        sol, _ = li.mild_solution_picard(_view_problem(), grid, n_paths, 4, tol=1e-6, max_iter=8)
        other, _ = li.mild_solution_picard(_view_problem(), grid, n_paths, 5, tol=1e-6, max_iter=8)
        assert not sol.values.flags.c_contiguous and not sol.values.flags.writeable
        assert np.moveaxis(sol.values, 1, 0).flags.c_contiguous
        x = li.simulate_paths(li.Brownian(volatility=1.0), grid, n_paths, li.child_seed(4, 0))
        copy, other_copy = (e.with_values(np.ascontiguousarray(e.values)) for e in (sol, other))
        assert copy.values.flags.c_contiguous
        for on_view, on_copy in zip(_reduction_outputs(sol, other, x),
                                    _reduction_outputs(copy, other_copy, x)):
            on_view, on_copy = (np.ascontiguousarray(a, dtype=np.float64) for a in (on_view, on_copy))
            assert on_view.tobytes() == on_copy.tobytes()

    def test_read_only_values_are_kept_as_given(self):
        grid = li.TimeGrid.uniform(1.0, 4)
        buf = np.arange(5 * 3 * 2, dtype=np.float64).reshape(5, 3, 2)
        buf.flags.writeable = False
        view = np.transpose(buf, (1, 0, 2))
        assert li.PathEnsemble(view, grid).values is view
        writable = np.transpose(np.arange(30.0).reshape(5, 3, 2), (1, 0, 2))
        kept = li.PathEnsemble(writable, grid).values
        assert kept.flags.c_contiguous and not kept.flags.writeable
        assert np.array_equal(kept, writable)


def _traced_peak(fn, *args, **kwargs):
    """Peak bytes traced while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSolutionMemory:
    """A solve holds one solution: the iterate it sweeps is the solution it
    returns, and the convolution returns the buffer its recursion wrote.
    A path-major copy of the buffer would hold one more solution at return."""

    n_paths, steps, dim = 2000, 200, 10
    solution = n_paths * (steps + 1) * dim * 8

    @pytest.mark.parametrize("problem", [
        _linear_problem(dim),
        replace(_readme_problem(), h0=np.ones(dim)),
    ], ids=["state_free", "state_dependent"])
    def test_picard_peak_is_one_solution(self, problem):
        grid = li.TimeGrid.uniform(1.0, self.steps)
        peak = _traced_peak(li.mild_solution_picard, problem, grid, self.n_paths, 3,
                            tol=1e-12, max_iter=2)
        assert peak <= 1.5 * self.solution

    def test_convolution_peak_is_its_input_and_one_solution(self):
        # the recursion reads a time-major copy of phi and writes one buffer
        grid = li.TimeGrid.uniform(1.0, self.steps)
        spec = li.Brownian(volatility=1.0)
        x = li.simulate_paths(spec, grid, self.n_paths, 6)
        phi = li.PathEnsemble(np.repeat(x.values, self.dim, axis=2), grid, adapted=True)
        peak = _traced_peak(li.stochastic_convolution, li.heat_operator(self.dim), phi, spec, x)
        assert peak <= 2.5 * self.solution


class TestSolverVariance:
    def test_linear_solution_matches_oracle(self):
        dim = 4
        prob = _linear_problem(dim)
        grid = li.TimeGrid.uniform(1.0, 2000)
        sol, _ = li.mild_solution_picard(prob, grid, 20_000, 9, tol=1e-10, max_iter=5)
        oracle = li.linear_variance_oracle(
            prob.operator, np.ones(dim), prob.drivers[0], 1.0
        )
        v = np.var(sol.values[:, -1, :], axis=0, ddof=1)
        se = np.sqrt(2.0 / (sol.n_paths - 1)) * v
        tol = np.maximum(3 * se, 0.05 * oracle)
        assert np.all(np.abs(v - oracle) <= tol)


class TestDiagnostics:
    def test_noiseless_modulus_matches_semigroup(self):
        op = li.heat_operator(3)
        prob = li.SpdeProblem(operator=op, h0=np.ones(3))
        grid = li.TimeGrid.uniform(1.0, 32)
        sol, _ = li.mild_solution_picard(prob, grid, 4, 10, tol=1e-10, max_iter=3)
        rep = li.solution_diagnostics(sol)
        curve = np.exp(-np.outer(grid.points, op.eigenvalues))
        expected = np.sqrt(np.sum(np.diff(curve, axis=0) ** 2, axis=1))
        assert np.max(np.abs(rep.modulus.norms - expected)) < 1e-12

    def test_linear_modulus_scale(self):
        # increment RMS is close to sqrt(c * sum sigma_k^2 * h) for small h
        dim, steps = 5, 512
        prob = _linear_problem(dim)
        grid = li.TimeGrid.uniform(1.0, steps)
        sol, _ = li.mild_solution_picard(prob, grid, 20_000, 11, tol=1e-10, max_iter=5)
        rep = li.solution_diagnostics(sol)
        target = np.sqrt(dim / steps)
        assert target / 2 <= rep.modulus.max_norm <= target * 2

    def test_modulus_shrinks_at_finer_grid(self):
        prob = _linear_problem(5)
        coarse = li.TimeGrid.uniform(1.0, 64)
        fine = li.TimeGrid.uniform(1.0, 128)
        sc, _ = li.mild_solution_picard(prob, coarse, 20_000, 12, tol=1e-10, max_iter=5)
        sf, _ = li.mild_solution_picard(prob, fine, 20_000, 12, tol=1e-10, max_iter=5)
        rc = li.solution_diagnostics(sc)
        rf = li.solution_diagnostics(sf)
        slack = 3 * (rc.modulus.max_standard_error + rf.modulus.max_standard_error)
        assert rf.modulus.max_norm < rc.modulus.max_norm - slack
