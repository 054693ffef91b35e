"""``scripts/calibrate.py`` still runs: the check names and config keys it
reads are the CLI's.  Its 200-seed run is opt-in; this runs one seed a kind."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "calibrate", Path(__file__).resolve().parents[1] / "scripts" / "calibrate.py")
calibrate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(calibrate)


@pytest.mark.parametrize("kind", list(calibrate.CONFIGS))
def test_each_kind_gives_a_verdict_and_its_record(kind):
    passed, record = calibrate.check_of(kind, 1)
    assert isinstance(passed, bool)
    assert set(record) == {"value", "expected", "se", "z", "bound"}
