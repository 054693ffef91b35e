"""``scripts/block_sweep.py`` still runs, and at a tiny size every layer it
times gives the same bits at a budget of one row and at the default."""

import importlib.util
from pathlib import Path

from levyint import ensembles

_SPEC = importlib.util.spec_from_file_location(
    "block_sweep", Path(__file__).resolve().parents[1] / "scripts" / "block_sweep.py")
block_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(block_sweep)


def test_every_layer_has_the_same_bits_at_every_budget():
    budgets = [1, ensembles._BLOCK_BUDGET]
    results = block_sweep.sweep(budgets, paths=40, points=[9], repeats=1)
    for name in block_sweep.LAYERS:
        (t1, sha1), (t2, sha2) = (results[b, 9][name] for b in budgets)
        assert sha1 == sha2 and t1 >= 0 and t2 >= 0
