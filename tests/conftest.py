import pytest

import levyint as li


@pytest.fixture(scope="session")
def grid100():
    return li.TimeGrid.uniform(1.0, 100)


@pytest.fixture(scope="session")
def martingale_specs():
    """Drift-free drivers spanning continuous, unit-jump, and general-jump cases."""
    return [
        li.Brownian(volatility=1.0),
        li.CompensatedPoisson(rate=2.0),
        li.CompoundPoisson(rate=3.0, jump_law=li.TwoPointJumps()),
    ]


@pytest.fixture(scope="session")
def cadlag_specs():
    """Jump-carrying drivers used for left-limit and projection checks."""
    return [
        li.CompensatedPoisson(rate=2.0),
        li.standard_poisson(rate=1.0),
        li.CompoundPoisson(rate=3.0, jump_law=li.TwoPointJumps()),
        li.CompoundPoisson(rate=1.5, jump_law=li.ExponentialJumps(rate=2.0)),
        li.CompoundPoisson(rate=2.0, jump_law=li.NormalJumps(loc=0.3, scale=0.5)),
    ]


def ensemble_from_record(grid, record, drift=0.0, spec=None):
    """Single-path cadlag ensemble evaluated exactly from a jump record."""
    values = (record.values_at(grid.points) + drift * grid.points)[None, :, None]
    return li.PathEnsemble(
        values=values, grid=grid, adapted=True, jumps=(record,), spec=spec
    )


@pytest.fixture
def record_ensemble_factory():
    return ensemble_from_record
