"""Each documented rejection of the library raises its own ToolkitError subclass."""

import numpy as np
import pytest

import levyint as li
from levyint.ensembles import _pairing
from levyint.errors import (
    AdaptednessError,
    ConsistencyError,
    DomainError,
    EmptyEnsembleError,
    GridError,
    ParameterError,
    ToolkitError,
)

_GRID = li.TimeGrid.uniform(1.0, 8)


def _paths(n=3, dim=1, grid=_GRID, adapted=True):
    values = np.arange(n * grid.n_points * dim, dtype=float).reshape(n, grid.n_points, dim)
    return li.PathEnsemble(values, grid, adapted=adapted)


def _brownian(n=3, grid=_GRID):
    return li.simulate_paths(li.Brownian(), grid, n, 1)


def _problem(**changes):
    kw = dict(operator=li.heat_operator(2), h0=np.zeros(2), sigmas=(li.constant_map(1.0),),
              sigma_lipschitz=(0.0,), drivers=(li.Brownian(),))
    return li.SpdeProblem(**{**kw, **changes})


_CASES = {
    "simulate_negative_offset": (ParameterError, "path_offset must be >= 0",
                                 lambda: li.simulate_paths(li.Brownian(), _GRID, 2, 1, path_offset=-1)),
    "convolution_not_adapted": (AdaptednessError, "must be adapted",
                                lambda: li.stochastic_convolution(li.heat_operator(2), _paths(dim=2, adapted=False),
                                                                  li.Brownian(), _brownian())),
    "convolution_other_grid": (ConsistencyError, "common grid",
                               lambda: li.stochastic_convolution(li.heat_operator(2),
                                                                 _paths(dim=2, grid=li.TimeGrid.uniform(1.0, 4)),
                                                                 li.Brownian(), _brownian())),
    "convolution_vector_driver": (ConsistencyError, "driver must be scalar",
                                  lambda: li.stochastic_convolution(li.heat_operator(2), _paths(dim=2),
                                                                    li.Brownian(), _paths(dim=2))),
    "problem_h0_dimension": (ParameterError, "h0 dimension",
                             lambda: _problem(h0=np.zeros(3))),
    "problem_unmatched_sigmas": (ParameterError, "matching sigmas",
                                 lambda: _problem(sigma_lipschitz=(0.0, 0.0))),
    "problem_alpha_lipschitz_without_alpha": (ParameterError, "alpha is absent",
                                              lambda: _problem(alpha_lipschitz=1.0)),
    "problem_negative_lipschitz": (ParameterError, r"sigma\[0\] must be finite and >= 0",
                                   lambda: _problem(sigma_lipschitz=(-1.0,))),
    "operator_without_eigenvalues": (ParameterError, "at least one eigenvalue",
                                     lambda: li.SpectralOperator([])),
    "semigroup_wrong_dimension": (ConsistencyError, "state dimension 3",
                                  lambda: li.semigroup_apply(li.heat_operator(2), 0.5, np.zeros((4, 3)))),
    "riemann_sum_vector_integrator": (ConsistencyError, "integrator must be scalar",
                                      lambda: li.riemann_sum(_paths(), _paths(dim=2), _GRID)),
    "integral_process_vector_integrator": (ConsistencyError, "integrator must be scalar",
                                           lambda: li.integral_process(_paths(), _paths(dim=2))),
    "partition_of_a_non_uniform_grid": (GridError, "uniform base grid",
                                        lambda: li.uniform_partition(li.TimeGrid([0.0, 0.25, 1.0]), 1.0, 0.25)),
    "partition_mesh_not_dividing": (GridError, "does not divide",
                                    lambda: li.uniform_partition(_GRID, 0.625, 0.25)),
    "partition_nan_mesh": (GridError, "mesh nan is not a multiple",
                           lambda: li.uniform_partition(_GRID, 1.0, np.nan)),
    "partition_infinite_mesh": (GridError, "mesh inf is not a multiple",
                                lambda: li.uniform_partition(_GRID, 1.0, np.inf)),
    "independence_one_path": (ConsistencyError, "at least two paths",
                              lambda: li.increment_independence_z(_paths(n=1), _paths(n=1))),
    "ensemble_wrong_rank": (ConsistencyError, "must have shape",
                            lambda: li.PathEnsemble(np.zeros(_GRID.n_points), _GRID)),
    "ensemble_without_paths": (EmptyEnsembleError, "at least one path",
                               lambda: li.PathEnsemble(np.zeros((0, _GRID.n_points, 1)), _GRID)),
    "pairing_dimension_mismatch": (ConsistencyError, "dimension mismatch",
                                   lambda: _pairing(_paths(dim=2), _paths(dim=3))),
    "pairing_path_count_mismatch": (ConsistencyError, "path count mismatch",
                                    lambda: _pairing(_paths(n=2), _paths(n=3))),
    "jump_record_unequal_lengths": (ConsistencyError, "equal length",
                                    lambda: li.JumpRecord(times=[0.25, 0.5], sizes=[1.0])),
    "oracle_wrong_shape": (ConsistencyError, "one entry per coordinate",
                           lambda: li.linear_variance_oracle(li.heat_operator(3), np.ones(2),
                                                             li.Brownian(), 1.0)),
    "problem_lipschitz_none": (ParameterError, r"sigma\[0\] must be finite and >= 0, got None",
                               lambda: _problem(sigma_lipschitz=(None,))),
    "problem_lipschitz_string": (ParameterError, r"sigma\[0\] must be finite and >= 0, got '0.5'",
                                 lambda: _problem(sigma_lipschitz=("0.5",))),
    "problem_lipschitz_bool": (ParameterError, r"alpha must be finite and >= 0, got True",
                               lambda: _problem(alpha=li.scaled_identity(1.0), alpha_lipschitz=True)),
    "problem_lipschitz_nan": (ParameterError, r"sigma\[0\] must be finite and >= 0, got nan",
                              lambda: _problem(sigma_lipschitz=(np.nan,))),
    "injectivity_tol_none": (ParameterError, "tol must be finite and positive, got None",
                             lambda: li.injectivity_witness(_paths(), tol=None)),
    "injectivity_tol_string": (ParameterError, "tol must be finite and positive, got '1e-3'",
                               lambda: li.injectivity_witness(_paths(), tol="1e-3")),
    "injectivity_tol_bool": (ParameterError, "tol must be finite and positive, got True",
                             lambda: li.injectivity_witness(_paths(), tol=True)),
    "grid_fractional_steps": (GridError, "n_steps must be an integer, got 2.5",
                              lambda: li.TimeGrid.uniform(1.0, 2.5)),
    "grid_string_steps": (GridError, "n_steps must be an integer, got '4'",
                          lambda: li.TimeGrid.uniform(1.0, "4")),
    "grid_bool_steps": (GridError, "n_steps must be an integer, got True",
                        lambda: li.TimeGrid.uniform(1.0, True)),
    "grid_no_steps": (GridError, "horizon must be finite and positive and n_steps >= 1",
                      lambda: li.TimeGrid.uniform(1.0, 0)),
    "grid_infinite_horizon": (GridError, "horizon must be finite and positive",
                              lambda: li.TimeGrid.uniform(np.inf, 4)),
    "grid_nan_horizon": (GridError, "horizon must be finite and positive",
                         lambda: li.TimeGrid.uniform(np.nan, 4)),
    "grid_string_horizon": (GridError, "n_steps >= 1, got '1.0' and 4",
                            lambda: li.TimeGrid.uniform("1.0", 4)),
    "grid_bool_horizon": (GridError, "n_steps >= 1, got True and 4",
                          lambda: li.TimeGrid.uniform(True, 4)),
    "grid_huge_integer_horizon": (GridError, "horizon must be finite and positive",
                                  lambda: li.TimeGrid.uniform(10**400, 4)),
}


@pytest.mark.parametrize("error, message, call", _CASES.values(), ids=_CASES.keys())
def test_rejection_raises_its_toolkit_error(error, message, call):
    assert issubclass(error, ToolkitError)
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("t", [-1.0, np.nan, np.inf, None, "0.5", True])
@pytest.mark.parametrize("call", [
    lambda t: li.semigroup_apply(li.heat_operator(3), t, np.ones(3)),
    lambda t: li.linear_variance_oracle(li.heat_operator(3), np.ones(3), li.Brownian(), t),
], ids=["semigroup", "oracle"])
def test_time_must_be_finite_and_nonnegative(call, t):
    with pytest.raises(DomainError, match="time must be finite and nonnegative"):
        call(t)


@pytest.mark.parametrize("problem", [_problem(), _problem(sigmas=(), sigma_lipschitz=(), drivers=())],
                         ids=["driver", "no_driver"])
@pytest.mark.parametrize("change, message", [
    ({"n_paths": -1}, "n_paths must be >= 1"),
    ({"n_paths": 2.5}, "n_paths must be an integer"),
    ({"n_paths": True}, "n_paths must be an integer"),
    ({"seed": -1}, "seed must be nonnegative"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"path_offset": -5}, "path_offset must be >= 0"),
    ({"max_iter": 2.5}, "max_iter must be an integer"),
    ({"n_blocks": 1.5}, "n_blocks must be an integer"),
    ({"tol": None}, "tol must be finite and positive, got None"),
    ({"tol": "1e-3"}, "tol must be finite and positive, got '1e-3'"),
    ({"tol": True}, "tol must be finite and positive, got True"),
    ({"tol": np.inf}, "tol must be finite and positive, got inf"),
], ids=["negative_paths", "fractional_paths", "bool_paths", "negative_seed", "fractional_seed",
        "negative_offset", "fractional_max_iter", "fractional_blocks", "none_tol", "string_tol",
        "bool_tol", "infinite_tol"])
def test_picard_counts_are_checked(problem, change, message):
    # the solver checks its counts itself, so a problem without drivers,
    # which simulates nothing, rejects them as one with a driver does
    kw = dict(n_paths=2, seed=1, max_iter=2, n_blocks=1, path_offset=0, tol=1e-6)
    with pytest.raises(ParameterError, match=message):
        li.mild_solution_restarted(problem, _GRID, **{**kw, **change})
