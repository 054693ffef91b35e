import hashlib
import inspect
import json
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levyint as li
from levyint import cli, drivers
from levyint.cli import (
    EXPERIMENTS,
    driver_from_config,
    driver_to_config,
    main,
    parse_config,
)
from levyint.errors import ConfigError, NumericError, ToolkitError
from levyint.tolerances import DEFAULTS

NAN, INF = float("nan"), float("inf")


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _small_configs(out_dir):
    base = {"seed": 3, "paths": 64, "out": str(out_dir)}
    grid = {"horizon": 1.0, "steps": 32}
    return {
        "simulate": {**base, "driver": {"kind": "brownian"}, "grid": grid},
        "integrate": {**base, "driver": {"kind": "compensated_poisson", "rate": 2.0},
                      "grid": grid, "integrand": "ones"},
        "isometry": {**base, "paths": 2000, "driver": {"kind": "brownian"},
                     "grid": {"horizon": 1.0, "steps": 200}, "integrand": "ones"},
        "poisson-identity": {**base, "rate": 1.0, "grid": {"horizon": 1.0, "steps": 16}},
        "converge": {**base, "paths": 500,
                     "driver": {"kind": "brownian"},
                     "meshes": [0.25, 0.125, 0.0625, 0.03125],
                     "integrand": "driver"},
        "spde": {**base, "grid": grid,
                 "spde": {"heat_dim": 3, "h0": [1.0, 0.0, 0.0],
                          "sigmas": [{"kind": "constant", "value": 1.0,
                                      "driver": {"kind": "brownian"}}],
                          "tol": 1e-8, "max_iter": 10}},
        "diagnostics": {**base, "paths": 4000, "grid": grid,
                        "spde": {"heat_dim": 3,
                                 "sigmas": [{"kind": "constant", "value": 1.0,
                                             "driver": {"kind": "brownian"}}],
                                 "tol": 1e-8, "max_iter": 10}},
    }


# the tolerances each experiment's checks read, at their default values
_APPLIED = {
    "simulate": {"se_multiplier": 3.0},
    "integrate": {"exact": 1e-12, "se_multiplier": 3.0},
    "isometry": {"z_max": 4.0},
    "poisson-identity": {"exact": 1e-12},
    "converge": {},
    "spde": {},
    "diagnostics": {"se_multiplier": 3.0},
}


class TestDriverSerialization:
    @pytest.mark.parametrize(
        "spec",
        [
            li.Brownian(volatility=1.5, drift=0.5),
            li.CompensatedPoisson(rate=2.0, drift=2.0),
            li.CompoundPoisson(rate=3.0, jump_law=li.TwoPointJumps()),
            li.CompoundPoisson(rate=1.0, jump_law=li.ExponentialJumps(rate=2.0),
                               compensated=False, drift=0.1),
            li.CompoundPoisson(rate=1.0, jump_law=li.NormalJumps(loc=0.2, scale=0.8)),
        ],
    )
    def test_round_trip(self, spec):
        assert driver_from_config(driver_to_config(spec)) == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            driver_from_config({"kind": "gamma"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            driver_from_config({"kind": "brownian", "vol": 1.0})


class TestConfigParsing:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"experiment": "simulate", "sneaky": 1})

    def test_experiment_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"experiment": "simulate"}, "isometry")

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"experiment": "simulate", "tolerances": {"bogus": 1.0}})

    def test_spde_lipschitz_constants_come_from_the_coefficients(self):
        cfg = parse_config({"experiment": "spde", "spde": {
            "heat_dim": 2, "alpha": {"kind": "linear", "coefficient": -0.5},
            "sigmas": [{"kind": "linear", "coefficient": 0.0}, {"kind": "constant", "value": 2.0}]}})
        assert cfg.problem.alpha_lipschitz == 0.5
        assert cfg.problem.sigma_lipschitz == (0.0, 0.0)

    def test_oversized_spde_is_rejected_before_its_operator_is_built(self):
        # 2**24 eigenvalues take 128 MiB; the array they imply does not fit the limit
        raw = {"experiment": "spde", "paths": 1000, "grid": {"horizon": 1.0, "steps": 64},
               "spde": {"heat_dim": 2**24}}
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="grid points"):
                parse_config(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_hash_stability(self):
        a = parse_config({"experiment": "simulate", "seed": 1})
        b = parse_config({"seed": 1, "experiment": "simulate"})
        assert a.config_hash == b.config_hash


class _ReadRecorder(dict):
    """A tolerance table that records every name looked up in it."""

    def __init__(self, table):
        super().__init__(table)
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


class TestTolerances:
    """A run accepts and records exactly the tolerances its checks read."""

    @pytest.mark.parametrize(
        "kind, patch, rejected",
        [("simulate", {"tolerances": {"z_max": 1e-9, "quadrature": 5.0, "discretization_rel": 0.9,
                                      "parallel_reduction": 3.0, "jump_separation": 0.5}}, "z_max"),
         ("poisson-identity", {"rate": 5, "tolerances": {"jump_separation": 0.5}}, "jump_separation")],
        ids=["simulate_five_unread", "identity_jump_separation"],
    )
    def test_a_name_the_experiment_does_not_read_is_config_error(self, tmp_path, capsys, kind,
                                                                  patch, rejected):
        path = _write(tmp_path, "cfg.json", {**patch, "out": str(tmp_path)})
        assert main([kind, "--config", path]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "tolerances" in err[0] and rejected in err[0]
        assert not list(tmp_path.glob("*.manifest.json"))

    @pytest.mark.parametrize("kind", ["converge", "spde"])
    @pytest.mark.parametrize("name", sorted(DEFAULTS))
    def test_no_tolerance_is_accepted_where_none_is_read(self, tmp_path, capsys, kind, name):
        cfg = {**_small_configs(tmp_path)[kind], "tolerances": {name: DEFAULTS[name]}}
        assert main([kind, "--config", _write(tmp_path, "cfg.json", cfg)]) == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["converge", "spde"])
    def test_an_empty_table_is_accepted_where_none_is_read(self, tmp_path, kind):
        cfg = {**_small_configs(tmp_path)[kind], "tolerances": {}}
        assert main([kind, "--config", _write(tmp_path, "cfg.json", cfg)]) == 0

    @pytest.mark.parametrize("kind", EXPERIMENTS)
    def test_names_read_accepted_and_recorded_agree(self, tmp_path, kind):
        configs = [_small_configs(tmp_path)[kind]]
        if kind == "integrate":  # a driftless driver and three paths or more: both checks apply
            configs.append({**configs[0], "driver": {"kind": "brownian"}})
        read = set()
        for raw in configs:
            cfg = parse_config({**raw, "experiment": kind})
            table = _ReadRecorder(cfg.tolerances)
            _, manifest_path = cli.emit_report(cli._RUNNERS[kind](replace(cfg, tolerances=table)))
            read |= table.read
            assert set(json.loads(manifest_path.read_text())["tolerances"]) == set(cli._TOLERANCES[kind])
        assert read == set(cli._TOLERANCES[kind])

    def test_every_default_is_read_outside_the_table(self):
        read = {name for names in cli._TOLERANCES.values() for name in names}
        for module in Path(cli.__file__).parent.glob("*.py"):
            if module.name != "tolerances.py":
                read |= set(re.findall(r'DEFAULTS\["(\w+)"\]', module.read_text()))
        assert read == set(DEFAULTS)


class TestExperimentCoverage:
    @pytest.mark.parametrize("kind", EXPERIMENTS)
    def test_every_kind_runs_and_passes(self, kind, tmp_path):
        cfg = _small_configs(tmp_path)[kind]
        path = _write(tmp_path, f"{kind}.json", cfg)
        status = main([kind, "--config", path])
        assert status == 0
        stem = f"{kind}-{parse_config({**cfg, 'experiment': kind}).config_hash}"
        assert (tmp_path / f"{stem}.csv").exists()
        manifest = json.loads((tmp_path / f"{stem}.manifest.json").read_text())
        assert manifest["passed"] is True
        assert manifest["tolerances"] == _APPLIED[kind]

    def test_converge_emits_one_row_per_mesh(self, tmp_path):
        cfg = _small_configs(tmp_path)["converge"]
        path = _write(tmp_path, "c.json", cfg)
        assert main(["converge", "--config", path]) == 0
        stem = f"converge-{parse_config({**cfg, 'experiment': 'converge'}).config_hash}"
        rows = (tmp_path / f"{stem}.csv").read_text().strip().splitlines()
        assert rows[0] == "mesh,sq_diff,se"
        assert len(rows) == 1 + len(cfg["meshes"])
        manifest = json.loads((tmp_path / f"{stem}.manifest.json").read_text())
        assert "rate_exponent" in manifest["extra"]

    def test_spde_manifest_carries_picard_record(self, tmp_path):
        cfg = _small_configs(tmp_path)["spde"]
        path = _write(tmp_path, "s.json", cfg)
        assert main(["spde", "--config", path]) == 0
        stem = f"spde-{parse_config({**cfg, 'experiment': 'spde'}).config_hash}"
        manifest = json.loads((tmp_path / f"{stem}.manifest.json").read_text())
        assert manifest["extra"]["picard"]["converged"] is True
        side = (tmp_path / f"{stem}.picard.csv").read_text().splitlines()
        assert side[0] == "iteration,distance"
        assert len(side) == 1 + manifest["extra"]["picard"]["iterations"]

    @pytest.mark.parametrize(
        "kind, patch",
        [("simulate", {"paths": 2}),  # no standard error: se is infinite
         ("converge", {"driver": {"kind": "brownian", "volatility": 0.0}})],  # no rate: NaN
        ids=["simulate_two_paths", "converge_zero_volatility"],
    )
    def test_manifest_is_strict_json(self, tmp_path, kind, patch):
        cfg = {**_small_configs(tmp_path)[kind], **patch}
        main([kind, "--config", _write(tmp_path, "cfg.json", cfg)])
        stem = f"{kind}-{parse_config({**cfg, 'experiment': kind}).config_hash}"

        def reject(constant):
            raise AssertionError(f"manifest holds {constant}, which is not JSON")

        text = (tmp_path / f"{stem}.manifest.json").read_text()
        assert "null" in text
        json.loads(text, parse_constant=reject)


def _main_csv(tmp_path, kind, cfg):
    """Run ``kind`` on ``cfg``; its exit status and its main CSV as a header
    and an array of the rows."""
    status = main([kind, "--config", _write(tmp_path, f"{kind}.json", cfg)])
    stem = f"{kind}-{parse_config({**cfg, 'experiment': kind}).config_hash}"
    header, *lines = (tmp_path / f"{stem}.csv").read_text().splitlines()
    return status, header, np.array([[float(c) for c in line.split(",")] for line in lines])


class TestSpdeMomentTable:
    """The main ``spde`` CSV holds one row per grid point and mode, with the
    ensemble statistics of the mild solution there."""

    @staticmethod
    def _solution(cfg):
        # the small config's problem, built from the public constructors
        problem = li.SpdeProblem(operator=li.heat_operator(3), h0=[1.0, 0.0, 0.0],
                                 sigmas=(li.constant_map(1.0),), sigma_lipschitz=(0.0,),
                                 drivers=(li.Brownian(),))
        grid = li.TimeGrid.uniform(cfg["grid"]["horizon"], cfg["grid"]["steps"])
        return li.mild_solution_picard(problem, grid, cfg["paths"], cfg["seed"],
                                       tol=cfg["spde"]["tol"], max_iter=cfg["spde"]["max_iter"])[0]

    @pytest.mark.parametrize("paths", [64, 2000])
    def test_rows_match_statistics_of_the_solution(self, tmp_path, paths):
        cfg = {**_small_configs(tmp_path)["spde"], "paths": paths}
        status, header, rows = _main_csv(tmp_path, "spde", cfg)
        assert status == 0
        assert header == "t,mode,mean,se_mean,variance,se_variance"
        x = self._solution(cfg).values
        n, points, dim = x.shape
        assert rows.shape == (points * dim, 6)
        mean = x.mean(axis=0)
        variance = x.var(axis=0, ddof=1)
        se_variance = ((x - mean) ** 2).std(axis=0, ddof=1) / np.sqrt(n)
        grid = li.TimeGrid.uniform(cfg["grid"]["horizon"], cfg["grid"]["steps"])
        np.testing.assert_array_equal(rows[:, 0], np.repeat(grid.points, dim))
        np.testing.assert_array_equal(rows[:, 1], np.tile(np.arange(dim), points))
        for column, expected in zip(rows[:, 2:].T, [mean, np.sqrt(variance / n), variance, se_variance]):
            np.testing.assert_allclose(column, expected.ravel(), rtol=1e-12, atol=0)

    def test_one_path_has_nan_spreads(self, tmp_path):
        cfg = {**_small_configs(tmp_path)["spde"], "paths": 1}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            status, _, rows = _main_csv(tmp_path, "spde", cfg)
        assert status == 0
        np.testing.assert_array_equal(rows[:, 2], self._solution(cfg).values[0].ravel())
        assert np.isnan(rows[:, 3:]).all()


class TestSimulateMomentTable:
    """The ``simulate`` CSV holds one row per grid point with the ensemble
    statistics of the driver's paths there; its check reads the variance and
    its SE from the same estimator, at the martingale part's terminal values."""

    @staticmethod
    def _paths(cfg):
        grid = li.TimeGrid.uniform(cfg["grid"]["horizon"], cfg["grid"]["steps"])
        return grid, li.simulate_paths(li.Brownian(), grid, cfg["paths"], cfg["seed"]).values[:, :, 0]

    @pytest.mark.parametrize("paths", [50, 2000])
    def test_rows_match_statistics_of_the_paths(self, tmp_path, paths):
        cfg = {**_small_configs(tmp_path)["simulate"], "paths": paths}
        status, header, rows = _main_csv(tmp_path, "simulate", cfg)
        assert status == 0
        assert header == "t,mode,mean,se_mean,variance,se_variance"
        grid, x = self._paths(cfg)
        assert rows.shape == (grid.n_points, 6)
        np.testing.assert_array_equal(rows[:, 0], grid.points)
        np.testing.assert_array_equal(rows[:, 1], 0.0)
        mean, variance = x.mean(axis=0), x.var(axis=0, ddof=1)
        se_variance = ((x - mean) ** 2).std(axis=0, ddof=1) / np.sqrt(paths)
        for column, expected in zip(rows[:, 2:].T, [mean, np.sqrt(variance / paths), variance, se_variance]):
            np.testing.assert_allclose(column, expected, rtol=1e-12, atol=0)

    def test_one_path_has_nan_spreads(self, tmp_path):
        cfg = {**_small_configs(tmp_path)["simulate"], "paths": 1}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            status, _, rows = _main_csv(tmp_path, "simulate", cfg)
        assert status == 1  # the check needs three paths
        np.testing.assert_array_equal(rows[:, 2], self._paths(cfg)[1][0])
        assert np.isnan(rows[:, 3:]).all()

    # sha256 of the manifest without its ``versions``, recorded while the CSV
    # was still one row per path and grid point
    _MANIFESTS = {
        1: "54ea719e392c40aaa539f2575c64f767db5468d738865075934c796f88b6c185",
        2: "3e4a5555e57472e40288a1120893b53c88c8dab90cae9d641e1426ab064b6368",
        3: "734cc87e2acb6fa91d3fac7f6acb260365e228e45630f445b2413d0bdedb20da",
        64: "306ed4c9f157aa357d575c8b82dfd0888102439e532d51f0aeec570ed24e3cd7",
    }

    @pytest.mark.parametrize("paths", list(_MANIFESTS))
    def test_manifest_is_unchanged(self, tmp_path, monkeypatch, paths):
        monkeypatch.chdir(tmp_path)
        cfg = {**_small_configs("out")["simulate"], "paths": paths}
        main(["simulate", "--config", _write(tmp_path, "cfg.json", cfg)])  # the digest holds the verdict
        [path] = (tmp_path / "out").glob("*.manifest.json")
        manifest = json.loads(path.read_text())
        del manifest["versions"]
        body = json.dumps(manifest, sort_keys=True, indent=2).encode()
        assert hashlib.sha256(body).hexdigest() == self._MANIFESTS[paths]
        # too few paths give a variance of 0.0 (one path) and an SE of inf
        # (below three), written as null: never nan
        detail = cli._RUNNERS["simulate"](parse_config({**cfg, "experiment": "simulate"})).checks[0][2]
        assert not np.isnan(list(detail.values())).any()
        assert (detail["variance"] == 0.0) == (paths == 1)
        assert (detail["se"] == INF) == (paths < 3)


class TestMomentBlocks:
    """``cli._moment_table`` writes the same bytes at every block size.  No
    block holds a lone grid point, so every column's paths are summed in row
    order, as numpy sums them over the whole ensemble.  It reads time-major
    values (points x paths x modes), contiguous as ``spde`` passes them or a
    view of path-major values as ``simulate`` passes them; ``_PATH_MAJOR``
    holds the sha256 of each table, recorded when it read path-major
    ensembles, so the layout does not move a bit."""

    _PATH_MAJOR = {
        (1, 2): "0deec893038794aa02403846778d54beb8f59e05c5002905fde727cd8ca8d366",
        (3, 2): "b00462e959187bcc51c330a79a0f945310f679cefd60690bb530a2bf137a74b4",
        (10, 2): "9e3838f972a347fec305839b3d6d9ca29bf640fe5048ac406f0fcf18d420fa3e",
        (1, 3): "f8aaa224e5eb7af1422560d7b3333fac050169f3c7790ad8fd7cefe80dfbe38f",
        (3, 3): "21196445f74f3b625023de8a3eef6502c4fc774afc813c43734c95e283d11ad6",
        (10, 3): "5fc63a240f1ef80f974fe293c31847742545ccf3cd7ed4c5e86fb7fe3e6d0e0d",
        (1, 65): "3a62dd219c20962692858eb65989e7a4c70bdbab87da9fc476f9c1c0df5d2c26",
        (3, 65): "e7327d03919312704517f1e31ede7ad66c80fe640c7f21fcbb170ddfabe6ebdb",
        (10, 65): "f67a71bfa60fca69087c2e5d2f532f09a519cfd54347ef000ba87c4524f115c0",
        (1, 101): "ce113f80d5fd5a4cf3f1e628ca79127809939abe6facc397c184103adac3408b",
        (3, 101): "8a396fdb46be4e366381b6c2376fcdcc6b0dccd55fbd5ced866e1014a6a98305",
        (10, 101): "38128c359ebf1259c18e45b2ac1c3874d685ae79035f2ef272cfd228463e8617",
    }

    @pytest.mark.parametrize("points", [2, 3, 65, 101])
    @pytest.mark.parametrize("dim", [1, 3, 10])
    def test_bytes_do_not_depend_on_the_block(self, monkeypatch, dim, points):
        n = 37
        x = np.random.default_rng(100 * points + dim).standard_normal((n, points, dim)).cumsum(axis=1)
        path_major = li.PathEnsemble(x.copy(), li.TimeGrid.uniform(1.0, points - 1)).values
        time_major = np.ascontiguousarray(np.moveaxis(x, 1, 0))
        t = li.TimeGrid.uniform(1.0, points - 1).points
        tables = []
        for block in (2, 3, 5, points):
            monkeypatch.setattr(cli, "_MOMENT_BLOCK_BYTES", block * 8 * n * dim)
            tables.append(cli._moment_table(t, time_major)[1])
            tables.append(cli._moment_table(t, np.moveaxis(path_major, 1, 0))[1])
        assert all(t.tobytes() == tables[0].tobytes() for t in tables)
        assert hashlib.sha256(tables[0].tobytes()).hexdigest() == self._PATH_MAJOR[(dim, points)]
        mean, std = x.mean(axis=0), x.std(axis=0, ddof=1)
        for name, expected in [("mean", mean), ("se_mean", std / np.sqrt(n)),
                               ("variance", x.var(axis=0, ddof=1)),
                               ("se_variance", ((x - mean) ** 2).std(axis=0, ddof=1) / np.sqrt(n))]:
            np.testing.assert_array_equal(tables[0][name], expected.ravel())
        np.testing.assert_array_equal(path_major, x)
        np.testing.assert_array_equal(time_major, np.moveaxis(x, 1, 0))


def _traced_peak(fn, *args):
    """Peak bytes traced while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestIsometryBlocks:
    """The ``isometry`` run simulates its paths in blocks and keeps only the
    per-path samples of each; its report is ``ito_isometry_check`` on the
    whole ensemble, bit for bit, and its memory does not grow with the paths."""

    _DRIVERS = {
        "brownian": {"kind": "brownian", "volatility": 0.7},
        "compound_poisson": {"kind": "compound_poisson", "rate": 3.0,
                             "jump_law": {"kind": "normal", "loc": 0.0, "scale": 0.5}},
    }

    @staticmethod
    def _config(driver, integrand, paths, steps):
        return parse_config({"experiment": "isometry", "driver": driver, "integrand": integrand,
                             "paths": paths, "seed": 11, "grid": {"horizon": 1.0, "steps": steps}})

    @pytest.mark.parametrize("paths", [1, 1025, 4097, 4096 + 33, 8192])
    @pytest.mark.parametrize("integrand", ["ones", "time", "driver_left_limit"])
    @pytest.mark.parametrize("driver", list(_DRIVERS))
    def test_report_is_the_whole_ensemble_check(self, driver, integrand, paths):
        cfg = self._config(self._DRIVERS[driver], integrand, paths, 16)
        result = cli._run_isometry(cfg)
        x = li.simulate_paths(cfg.driver, cfg.grid, paths, cfg.seed)
        expected = li.ito_isometry_check(cli._INTEGRANDS[integrand](x), cfg.driver, x).record()
        (_, _, detail), = result.checks
        assert list(detail) == list(expected)
        assert np.array(list(detail.values())).tobytes() == np.array(list(expected.values())).tobytes()
        row = [result.rows[c][0] for c in result.columns]
        assert np.array(row).tobytes() == np.array(list(expected.values())).tobytes()

    def test_traced_peak_does_not_grow_with_the_paths(self):
        driver = {"kind": "compensated_poisson", "rate": 2.0}
        two, eight = (_traced_peak(cli._run_isometry,
                                   self._config(driver, "driver_left_limit", blocks * cli._ISOMETRY_ROWS, 1000))
                      for blocks in (2, 8))
        assert eight < 1.5 * two


class TestSpdeMemory:
    """The ``spde`` run holds one solution: Picard iterates in one time-major
    buffer and the moment table reads it in place."""

    def test_traced_peak_is_about_one_solution(self):
        paths, steps, dim = 4000, 64, 10
        cfg = parse_config({"experiment": "spde", "paths": paths, "seed": 5,
                            "grid": {"horizon": 1.0, "steps": steps},
                            "spde": {"heat_dim": dim, "h0": [1.0] + [0.0] * (dim - 1),
                                     "alpha": {"kind": "linear", "coefficient": 0.25},
                                     "sigmas": [{"kind": "linear", "coefficient": 0.25,
                                                 "driver": {"kind": "brownian"}}],
                                     "tol": 1e-4, "max_iter": 15}})
        assert _traced_peak(cli._run_spde, cfg) <= 1.4 * paths * (steps + 1) * dim * 8


class TestRowsDoNotGrowWithPaths:
    """These experiments write statistics, never a row per path, so their
    main CSV has as many rows whatever ``paths`` is."""

    @pytest.mark.parametrize("kind", ["simulate", "spde", "diagnostics", "converge", "isometry"])
    def test_row_count(self, tmp_path, kind):
        counts = set()
        for paths in (3, 8):
            (out := tmp_path / str(paths)).mkdir()
            cfg = {**_small_configs(out)[kind], "paths": paths}
            assert main([kind, "--config", _write(out, "cfg.json", cfg)]) in (0, 1)
            stem = f"{kind}-{parse_config({**cfg, 'experiment': kind}).config_hash}"
            counts.add(len((out / f"{stem}.csv").read_text().splitlines()))
        assert len(counts) == 1


def _artifact_digest(out_dir):
    """sha256 over every artifact's name and bytes, each manifest without its
    ``versions`` entry (the only host-dependent part)."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        body = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(body)
            del manifest["versions"]
            body = json.dumps(manifest, sort_keys=True, indent=2).encode()
        h.update(path.name.encode() + b"\0" + body)
    return h.hexdigest()


class TestArtifactGoldens:
    """Digests of whole CLI runs, recorded when manifests came to list only
    the tolerances their experiment reads; every CSV was byte-identical to
    the runs before, and every manifest equal once its tolerances and
    versions were dropped.  The two ``spde`` digests were re-recorded when
    the main ``spde`` CSV became the per-(t, mode) moment table; their
    manifests and ``.picard.csv`` side tables stayed byte-identical.  The
    ``simulate`` digest was re-recorded when its CSV became the per-t moment
    table (its manifest stayed byte-identical), and ``spde_one_mode`` was
    recorded then: a one-mode table now sums the paths in row order, where
    it had summed them pairwise (the two differ in the last bits).  Float
    bits of ``np.exp`` may differ on other hardware: a mismatch there means
    re-record, not a bug."""

    _GOLDEN = {
        "simulate": "8998affc2f789b5361d10c8c1077e1b200e886014d95b3c99cda5695791c7ac4",
        "integrate": "4eabb264dc84f02bad54d583b78b58f8d0e5d99bd276840260b2d40fa6a58d9d",
        "isometry": "2388dc4aa6ec3438a575783ad7206e8c0f54cb293d35e665f401efb45fbaebfd",
        "poisson-identity": "08cb4e687c25e9eadd1ee98cc65aa746b512c350a0db43349c8726f31aac0ba7",
        "converge": "58b4e478c6a78706ce7c9dfe8df0b03ccf43a5a852f13a00f08eb1025fb95e0e",
        "spde": "113e8d43780b9d3c1314dc8ae8b2062d908c13964572aad43469e6f17fb2fd39",
        "diagnostics": "03493dd8d03b4d2e89953d36c691a44c5784ed13a89dfbd850a3e7cb07ae4523",
        "spde_eigenvalues": "b0b510c487b3f8dd792b6c8401546b8198f823f2b0b7039b8d819cda5a81d478",
        "spde_one_mode": "0d33d12efd791d9c057d7414ca9ccf4e8acade854a5d30d1f1b99e937a8bfece",
    }

    @pytest.mark.parametrize("name", list(_GOLDEN))
    def test_artifacts_match_golden(self, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        configs = _small_configs("out")
        configs["spde_eigenvalues"] = {
            **configs["spde"],
            "spde": {"eigenvalues": [0.0, 1.0, 4.0], "h0": [1.0, 0.5, 0.0],
                     "alpha": {"kind": "linear", "coefficient": 0.5},
                     "sigmas": [{"kind": "constant", "value": [1.0, 0.5, 0.25],
                                 "driver": {"kind": "compensated_poisson", "rate": 2.0}},
                                {"kind": "linear", "coefficient": 0.2}],
                     "tol": 1e-8, "max_iter": 40},
        }
        configs["spde_one_mode"] = {
            **configs["spde"],
            "spde": {"heat_dim": 1, "h0": [1.0], "tol": 1e-8, "max_iter": 10,
                     "sigmas": [{"kind": "constant", "value": 1.0, "driver": {"kind": "brownian"}}]},
        }
        kind = name.split("_")[0]
        assert main([kind, "--config", _write(tmp_path, "cfg.json", configs[name])]) == 0
        assert _artifact_digest(tmp_path / "out") == self._GOLDEN[name]


def _row_rule_csv(columns, rows):
    """The row-wise rule the block writer replaced, kept as its reference."""
    lines = [",".join(columns)]
    lines += [",".join(repr(x) if isinstance(x, float) else str(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


class TestCsvWriter:
    _BLOCK = cli._CSV_BLOCK_ROWS

    @pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_matches_the_row_rule(self, tmp_path, n):
        rng = np.random.default_rng(n)
        specials = [-0.0, 5e-324, 1e16, 0.1 + 0.2, 1.0, -2.5e-308, 1e300, INF, -INF, NAN]
        floats = np.concatenate([specials, rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)])[:n]
        ints = np.resize(np.array([0, -1, 2**53 + 1, 2**63 - 1, -2**63]), n)
        labels = np.resize(np.array(["coarse", "fine", "x"]), n)
        columns = ("count", "value", "label", "again")
        path = tmp_path / "table.csv"
        cli._write_csv(path, *cli._table(columns, ints, floats, labels, floats))
        rows = zip(ints.tolist(), floats.tolist(), labels.tolist(), floats.tolist())
        assert path.read_text() == _row_rule_csv(columns, rows)

    def test_emission_memory_does_not_grow_with_the_rows(self, tmp_path):
        # poisson-identity writes a row per path: 56000 paths x 7 columns hold
        # as many bytes as a 2000 x 65 x 3 solution; a writer that joins
        # every line at once holds several times the table
        cfg = parse_config({**_small_configs(tmp_path)["poisson-identity"],
                            "experiment": "poisson-identity", "paths": 56_000})
        result = cli._RUNNERS["poisson-identity"](cfg)
        table_bytes = result.rows.nbytes
        assert table_bytes >= 2000 * 65 * 3 * 8
        tracemalloc.start()
        try:
            cli.emit_report(result)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table_bytes / 2


class TestNoPassWithoutEvidence:
    """A check whose evidence cannot be formed fails, and so does a run with no check."""

    @pytest.mark.parametrize(
        "kind, cfg",
        [("isometry", {"paths": 1, "seed": 3, "integrand": "driver"}),  # SE 0, lhs 6.9e-7, rhs 0.398
         ("simulate", {"paths": 2, "driver": {"kind": "brownian", "volatility": 5.0}}),  # no SE
         ("integrate", {"paths": 2, "integrand": "time"}),  # no check applies
         ("diagnostics", {"paths": 1, "seed": 0, "grid": {"horizon": 1.0, "steps": 16},  # SE 0
                          "spde": {"heat_dim": 3, "tol": 1e-8, "max_iter": 10,
                                   "sigmas": [{"kind": "constant", "value": 1.0,
                                               "driver": {"kind": "brownian"}}]}})],
        ids=["isometry_one_path", "simulate_two_paths", "integrate_no_check",
             "diagnostics_one_path"],
    )
    def test_run_fails(self, tmp_path, kind, cfg):
        cfg = {**cfg, "out": str(tmp_path)}
        assert main([kind, "--config", _write(tmp_path, "cfg.json", cfg)]) == 1
        stem = f"{kind}-{parse_config({**cfg, 'experiment': kind}).config_hash}"
        assert json.loads((tmp_path / f"{stem}.manifest.json").read_text())["passed"] is False


class TestNonFiniteEvidence:
    """Samples or statistics past the float range are a numeric failure
    (exit 3), and a coefficient map that overflows when spot-checked is a
    parameter error (exit 2): one line on stderr, no warning, no verdict.
    Every warning is an error under pytest, so a warning would fail these."""

    _HUGE = {"driver": {"kind": "brownian"}, "grid": {"horizon": 1e308, "steps": 4}, "paths": 10}

    @pytest.mark.parametrize("kind, extra", [
        ("integrate", {"integrand": "driver"}),  # once passed on an infinite SE
        ("simulate", {}),
        ("isometry", {"integrand": "driver"}),
    ])
    def test_overflowed_statistic_is_a_numeric_failure(self, tmp_path, capsys, kind, extra):
        cfg = {**self._HUGE, **extra, "out": str(tmp_path)}
        assert main([kind, "--config", _write(tmp_path, "huge.json", cfg)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure: ") and "not finite" in err[0]
        assert not list(tmp_path.glob("*.manifest.json"))

    def test_unread_spread_does_not_fail_a_mean_check(self, tmp_path):
        # the fourth-power spread of these terminal values overflows, but
        # integrate reads only their mean and its SE, which are finite
        cfg = {"seed": 3, "paths": 10, "out": str(tmp_path), "integrand": "ones",
               "driver": {"kind": "brownian", "volatility": 1e100},
               "grid": {"horizon": 1.0, "steps": 4}}
        assert main(["integrate", "--config", _write(tmp_path, "wide.json", cfg)]) == 0
        stem = f"integrate-{parse_config({**cfg, 'experiment': 'integrate'}).config_hash}"
        checks = json.loads((tmp_path / f"{stem}.manifest.json").read_text())["checks"]
        assert [(c["name"], c["passed"]) for c in checks] == [
            ("telescoping", True), ("martingale_mean_zero", True)]

    def test_overflowing_map_is_not_read_as_a_broken_constant(self, tmp_path, capsys):
        cfg = _small_configs(tmp_path)["spde"]
        cfg = {**cfg, "spde": {**cfg["spde"], "alpha": {"kind": "linear", "coefficient": 1e308}}}
        assert main(["spde", "--config", _write(tmp_path, "huge_alpha.json", cfg)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: alpha is not finite")
        assert "violated" not in err[0]


class TestExitCodes:
    def test_negative_rate_is_config_error(self, tmp_path):
        cfg = {"seed": 1, "paths": 10, "out": str(tmp_path),
               "driver": {"kind": "compensated_poisson", "rate": -1.0},
               "grid": {"horizon": 1.0, "steps": 8}}
        path = _write(tmp_path, "bad.json", cfg)
        assert main(["simulate", "--config", path]) == 2

    def test_unknown_key_is_config_error(self, tmp_path):
        path = _write(tmp_path, "bad2.json", {"paths": 10, "nonsense": True})
        assert main(["simulate", "--config", path]) == 2

    def test_unreadable_config(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2

    def test_grid_of_points_runs(self, tmp_path, capsys):
        points = [0.0, 0.25, 0.5, 1.0]
        cfg = {**_small_configs(tmp_path)["simulate"], "grid": {"points": points}}
        assert main(["simulate", "--config", _write(tmp_path, "points.json", cfg)]) == 0
        assert capsys.readouterr().err == ""
        stem = f"simulate-{parse_config({**cfg, 'experiment': 'simulate'}).config_hash}"
        rows = (tmp_path / f"{stem}.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == points

    @pytest.mark.parametrize("kind, text, named", [
        ("simulate", '{"seed": 1, ', "is not valid JSON"),
        ("simulate", "[1, 2]", "must hold a JSON object"),
        ("spde", None, "spde.sigmas[0] section must be a mapping"),
    ], ids=["invalid_json", "json_array", "sigma_not_a_mapping"])
    def test_config_file_that_is_no_config_is_config_error(self, tmp_path, capsys, kind, text, named):
        path = tmp_path / "bad.json"
        if text is None:
            cfg = _small_configs(tmp_path)["spde"]
            text = json.dumps({**cfg, "spde": {**cfg["spde"], "sigmas": [5]}})
        path.write_text(text)
        assert main([kind, "--config", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and named in err[0]
        assert "Traceback" not in err[0]

    def test_failed_check_is_status_one(self, tmp_path):
        # an impossible z bound turns an honest pass into a reported failure
        cfg = {**_small_configs(tmp_path)["isometry"],
               "tolerances": {"z_max": 1e-6}}
        path = _write(tmp_path, "tight.json", cfg)
        assert main(["isometry", "--config", path]) == 1

    # each malformed input with the key path its one-line message must name
    @pytest.mark.parametrize(
        "patch, named",
        [
            ({"alpha": {"kind": "linear"}}, "spde.alpha.coefficient is required"),
            ({"sigmas": [{"kind": "linear", "driver": {"kind": "brownian"}}]},
             "spde.sigmas[0].coefficient is required"),
            ({"tol": "x"}, "spde.tol"),
            ({"heat_dim": "x"}, "spde.heat_dim"),
            ({"heat_dim": float("inf")}, "spde.heat_dim"),
            ({"alpha": 3}, "spde.alpha"),
            ({"sigmas": [{"kind": "constant", "value": [1.0, 2.0],
                          "driver": {"kind": "brownian"}}]}, "spde.sigmas[0].value"),
            ({"tol": float("nan")}, "spde.tol"),
            ({"max_iter": 0}, "spde.max_iter"),
            ({"heat_dim": 3.5}, "spde.heat_dim"),
            ({"max_iter": True}, "spde.max_iter"),
            ({"drivers": [{"kind": "brownian"}]}, "spde: ['drivers']"),
            ({"heat_dim": 2**62}, "spde.heat_dim"),
            # each of these ran a different problem from the one written
            ({"alpha": {"coefficient": 3.0}}, "spde.alpha"),
            ({"alpha": {"kind": "none", "coefficient": 3.0}}, "spde.alpha: ['coefficient']"),
            ({"sigmas": [{"kind": "constant", "coefficient": 5.0}]},
             "spde.sigmas[0]: ['coefficient']"),
            ({"sigmas": [{"kind": "linear", "coefficient": 0.5, "value": [9, 9]}]},
             "spde.sigmas[0]: ['value']"),
            ({"eigenvalues": [1.0, 4.0, 9.0]}, "'heat_dim' and 'eigenvalues'"),
            ({"alpha": {}}, "spde.alpha"),
        ],
        ids=["alpha_no_coefficient", "sigma_no_coefficient", "tol_text", "heat_dim_text",
             "heat_dim_inf", "alpha_number", "sigma_value_length", "tol_nan", "max_iter0",
             "heat_dim_fraction", "max_iter_bool", "drivers_key", "heat_dim_huge",
             "alpha_no_kind", "alpha_none_coefficient", "constant_sigma_coefficient",
             "linear_sigma_value", "heat_dim_and_eigenvalues", "alpha_empty"],
    )
    def test_malformed_spde_section_is_config_error(self, tmp_path, capsys, patch, named):
        cfg = _small_configs(tmp_path)["spde"]
        cfg = {**cfg, "spde": {**cfg["spde"], **patch}}
        path = _write(tmp_path, "bad_spde.json", cfg)
        assert main(["spde", "--config", path]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert named in err[0]

    @pytest.mark.parametrize(
        "kind, patch, named",
        [
            ("simulate", {"driver": {"kind": "compound_poisson", "jump_law": {"kind": "exponential"}}},
             "driver.jump_law.rate is required"),
            ("simulate", {"driver": {"kind": "compound_poisson", "jump_law": "two_point"}},
             "driver.jump_law"),
            ("simulate", {"driver": {"kind": "compound_poisson", "jump_law": {"kind": "normal"}}},
             "driver.jump_law.scale is required"),
            ("simulate", {"driver": {"kind": "compound_poisson", "compensated": "false"}},
             "driver.compensated"),
            ("converge", {"meshes": [0.5, "x", 0.1]}, "meshes"),
            ("converge", {"meshes": 0.5}, "meshes"),
            ("simulate", {"out": 5}, "out"),
            ("simulate", {"driver": {"kind": "compensated_poisson", "rate": NAN}}, "driver.rate"),
            ("simulate", {"driver": {"kind": "brownian", "drift": NAN}}, "driver.drift"),
            ("simulate", {"driver": {"kind": "brownian", "volatility": INF}}, "driver.volatility"),
            ("poisson-identity", {"rate": NAN}, "rate"),
            ("poisson-identity", {"tolerances": {"exact": "x"}}, "tolerances.exact"),
            ("isometry", {"tolerances": {"z_max": -1}}, "z_max"),
            ("isometry", {"tolerances": {"z_max": NAN}}, "z_max"),
            ("simulate", {"tolerances": {"se_multiplier": 0}}, "tolerances.se_multiplier"),
            ("simulate", {"tolerances": None}, "tolerances section"),
            ("simulate", {"paths": True}, "paths"),
            ("simulate", {"seed": True}, "seed"),
            ("simulate", {"paths": 10.5}, "paths"),
            ("simulate", {"grid": {"horizon": 1.0, "steps": 2.7}}, "grid.steps"),
            # counts past the array limit; numpy could not allocate these either
            ("simulate", {"paths": 2**70}, "paths"),
            ("integrate", {"paths": 2**70, "grid": {"points": [0.0, 0.5, 1.0]}}, "paths"),
            ("simulate", {"grid": {"horizon": 1.0, "steps": 2**62}}, "grid points"),
            ("converge", {"meshes": [0.5, 0.25, 2.0**-62]}, "meshes"),
            ("diagnostics", {"paths": 2**62}, "paths"),
            ("converge", {"meshes": [0.5, 0.25, 1e-310]}, "meshes"),
            ("converge", {"meshes": []}, "meshes"),
            # a grid takes one form; these ran on the points and dropped the rest
            ("simulate", {"grid": {"points": [0.0, 0.5, 1.0], "steps": 4}}, "grid takes"),
            ("simulate", {"grid": {"points": [0.0, 0.5, 1.0], "horizon": 5.0}}, "grid takes"),
            ("simulate", {"grid": {"horizon": 1.0}}, "grid.steps is required"),
        ],
        ids=["jump_law_no_rate", "jump_law_text", "normal_no_scale", "compensated_text",
             "meshes_text_entry", "meshes_number", "out_number", "rate_nan", "drift_nan",
             "volatility_inf", "identity_rate_nan", "tolerance_text", "z_max_negative",
             "z_max_nan", "se_multiplier_zero", "tolerances_null", "paths_bool", "seed_bool", "paths_fraction",
             "steps_fraction", "paths_huge", "paths_huge_points_grid", "steps_huge",
             "mesh_huge", "spde_paths_huge", "mesh_subnormal", "meshes_empty",
             "grid_points_and_steps", "grid_points_and_horizon", "grid_no_steps"],
    )
    def test_malformed_config_is_config_error(self, tmp_path, capsys, kind, patch, named):
        cfg = {**_small_configs(tmp_path)[kind], **patch}
        path = _write(tmp_path, "bad_cfg.json", cfg)
        assert main([kind, "--config", path]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert named in err[0]

    def test_unwritable_target_is_io_error(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        cfg = {**_small_configs(tmp_path)["simulate"], "out": str(blocker)}
        path = _write(tmp_path, "io.json", cfg)
        assert main(["simulate", "--config", path]) == 3


class TestThreadControl:
    """No input sets a thread count (large calls use one thread per CPU, with the same bits)."""

    @pytest.mark.parametrize(
        "source, value",
        [("flag", "abc"), ("flag", "-3"), ("flag", "2"),
         ("config", -3), ("config", 2.5), ("config", None), ("config", True), ("config", 2)],
    )
    def test_bad_thread_count_is_config_error(self, tmp_path, capsys, source, value):
        cfg = _small_configs(tmp_path)["simulate"]
        if source == "flag":
            path = _write(tmp_path, "t.json", cfg)
            with pytest.raises(SystemExit) as exc:  # argparse: unrecognized argument
                main(["simulate", "--config", path, "--threads", value])
            assert exc.value.code == 2
        else:
            path = _write(tmp_path, "t.json", {**cfg, "threads": value})
            assert main(["simulate", "--config", path]) == 2
            assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_thread_env_var_is_ignored(self, tmp_path, monkeypatch):
        cfg = _small_configs(tmp_path)["simulate"]
        path = _write(tmp_path, "t.json", cfg)
        stem = f"simulate-{parse_config({**cfg, 'experiment': 'simulate'}).config_hash}"
        artifacts = []
        for value in (None, "2", "abc"):
            if value is None:
                monkeypatch.delenv("LEVYINT_THREADS", raising=False)
            else:
                monkeypatch.setenv("LEVYINT_THREADS", value)
            assert main(["simulate", "--config", path]) == 0
            artifacts.append([(tmp_path / f"{stem}{ext}").read_bytes()
                              for ext in (".csv", ".manifest.json")])
        assert artifacts[1] == artifacts[0] and artifacts[2] == artifacts[0]


class TestDeterminism:
    def test_byte_identical_rerun(self, tmp_path):
        cfg = _small_configs(tmp_path)["poisson-identity"]
        path = _write(tmp_path, "p.json", cfg)
        assert main(["poisson-identity", "--config", path]) == 0
        stem = f"poisson-identity-{parse_config({**cfg, 'experiment': 'poisson-identity'}).config_hash}"
        first_csv = (tmp_path / f"{stem}.csv").read_bytes()
        first_manifest = (tmp_path / f"{stem}.manifest.json").read_bytes()
        assert main(["poisson-identity", "--config", path]) == 0
        assert (tmp_path / f"{stem}.csv").read_bytes() == first_csv
        assert (tmp_path / f"{stem}.manifest.json").read_bytes() == first_manifest

    def test_different_seed_changes_output(self, tmp_path):
        cfg = _small_configs(tmp_path)["simulate"]
        path = _write(tmp_path, "sim.json", cfg)
        assert main(["simulate", "--config", path]) == 0
        stem1 = f"simulate-{parse_config({**cfg, 'experiment': 'simulate'}).config_hash}"
        body1 = (tmp_path / f"{stem1}.csv").read_text()
        assert main(["simulate", "--config", path, "--seed", "99"]) == 0
        cfg2 = {**cfg, "seed": 99}
        stem2 = f"simulate-{parse_config({**cfg2, 'experiment': 'simulate'}).config_hash}"
        body2 = (tmp_path / f"{stem2}.csv").read_text()
        assert stem1 != stem2
        assert body1 != body2

    def test_seed_override_matches_inline_seed(self, tmp_path):
        cfg = _small_configs(tmp_path)["simulate"]
        inline = {**cfg, "seed": 99}
        p1 = _write(tmp_path, "a.json", cfg)
        p2 = _write(tmp_path, "b.json", inline)
        assert main(["simulate", "--config", p1, "--seed", "99"]) == 0
        assert main(["simulate", "--config", p2]) == 0
        stem = f"simulate-{parse_config({**inline, 'experiment': 'simulate'}).config_hash}"
        assert (tmp_path / f"{stem}.csv").exists()


# one config per experiment that between them hold every section and key
_FUZZ_BASES = [
    {"experiment": "simulate", "seed": 1, "paths": 8, "out": "o",
     "tolerances": {"se_multiplier": 4.0},
     "driver": {"kind": "compound_poisson", "rate": 2.0, "compensated": True, "drift": 0.0,
                "jump_law": {"kind": "normal", "loc": 0.1, "scale": 0.5}},
     "grid": {"horizon": 1.0, "steps": 8}},
    {"experiment": "integrate", "driver": {"kind": "standard_poisson", "rate": 2.0},
     "integrand": "ones", "grid": {"points": [0.0, 0.5, 1.0]}},
    {"experiment": "isometry", "driver": {"kind": "compound_poisson",
                                          "jump_law": {"kind": "exponential", "rate": 2.0}},
     "integrand": "driver_left_limit"},
    {"experiment": "poisson-identity", "rate": 1.0, "grid": {"horizon": 2.0, "steps": 4}},
    {"experiment": "converge", "driver": {"kind": "brownian", "volatility": 1.0, "drift": 0.5},
     "integrand": "driver", "meshes": [0.5, 0.25, 0.125]},
    {"experiment": "spde", "grid": {"horizon": 1.0, "steps": 8},
     "spde": {"heat_dim": 2, "h0": [1.0, 0.0], "alpha": {"kind": "linear", "coefficient": 0.5},
              "sigmas": [{"kind": "constant", "value": [1.0, 0.5],
                          "driver": {"kind": "compensated_poisson", "rate": 1.0, "drift": 0.0}}],
              "tol": 1e-6, "max_iter": 5}},
    {"experiment": "diagnostics",
     "spde": {"eigenvalues": [1.0, 4.0],
              "sigmas": [{"kind": "linear", "coefficient": 0.2, "driver": {"kind": "brownian"}}]}},
]

# Magnitudes stay small: counts allocate at parse time (a grid of `steps`
# points, `heat_dim` eigenvalues), and a huge count would allocate that much.
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1000, 1000),
    st.integers(-1000, 1000).map(lambda k: k / 8),
    st.sampled_from([NAN, INF, -INF, -0.0, 1e-3, 1e300, -1e300, 2**70, 1e200, -1e200, 1e-200, 5e-324]),
    st.text(max_size=8),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=10,
)


def _key_paths(node, prefix=()):
    """Paths to the node itself and to every section, key and list entry below it."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _key_paths(child, prefix + (key,))


def _substituted(node, path, value):
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _substituted(node[path[0]], path[1:], value)
    return copy


class TestParseFuzz:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_parse_raises_only_non_numeric_toolkit_errors(self, data):
        raw = data.draw(st.sampled_from(_FUZZ_BASES))
        for _ in range(data.draw(st.integers(1, 3))):
            path = data.draw(st.sampled_from(list(_key_paths(raw))))
            raw = _substituted(raw, path, data.draw(_JSON_VALUES))
        try:
            parse_config(raw)
        except ToolkitError as exc:
            assert not isinstance(exc, NumericError)


# magnitudes whose squares, reciprocals or products leave the float range
_EXTREMES = [1e200, -1e200, 1e-200, -1e-200, 1e-310, -1e-310, 5e-324]


def _extreme_drivers():
    """Driver sections with one float field of a driver kind or jump law at an
    extreme value, and the name of that field."""
    for kind, make in cli._DRIVERS.items():
        for name, p in inspect.signature(make).parameters.items():
            if p.annotation == "float":
                for value in _EXTREMES:
                    yield {"kind": kind, name: value}, name
    for law, make in cli._JUMP_LAWS.items():
        for name, p in inspect.signature(make).parameters.items():
            required = {n: 1.0 for n, q in inspect.signature(make).parameters.items() if q.default is q.empty}
            for value in _EXTREMES:
                yield {"kind": "compound_poisson", "jump_law": {"kind": law, **required, name: value}}, name


class TestExtremeParameters:
    """A driver whose derived moments leave the float range is refused by
    name while parsing; one that is accepted has finite moments."""

    @pytest.mark.parametrize("driver, name", list(_extreme_drivers()),
                             ids=[json.dumps(d) for d, _ in _extreme_drivers()])
    def test_refused_by_name_or_finite(self, driver, name):
        try:
            spec = parse_config({"experiment": "simulate", "paths": 8, "driver": driver}).driver
        except ToolkitError as exc:
            assert not isinstance(exc, NumericError)
            assert not str(exc).startswith("malformed config") and name in str(exc)
            return
        terms = [spec.bracket_rate(), spec.martingale_drift]
        if not isinstance(spec, li.Brownian):
            terms.append(drivers._path_drift(spec))
        if isinstance(spec, li.CompoundPoisson):
            terms += [spec.jump_law.mean(), spec.jump_law.second_moment()]
        assert np.isfinite(terms).all()

    @pytest.mark.parametrize("driver, message", [
        ({"kind": "compound_poisson", "jump_law": {"kind": "exponential", "rate": 1e-200}},
         "ExponentialJumps(rate=1e-200): its second moment is not finite"),
        ({"kind": "brownian", "volatility": 1e200},
         "Brownian(volatility=1e+200, drift=0.0): its bracket rate is not finite"),
        ({"kind": "compound_poisson", "jump_law": {"kind": "normal", "loc": 1e200, "scale": 1}},
         "NormalJumps(loc=1e+200, scale=1.0): its second moment is not finite"),
        ({"kind": "compensated_poisson", "rate": 1.7e308, "drift": -1.7e308},
         "CompensatedPoisson(rate=1.7e+308, drift=-1.7e+308): its drift rate is not finite"),
        # drift + rate * E[J] overflows, rate * E[J^2] does not
        ({"kind": "compound_poisson", "rate": 1e308, "drift": 1.5e308, "compensated": False,
          "jump_law": {"kind": "normal", "loc": 0.5, "scale": 0}}, "its drift rate is not finite"),
    ], ids=["exponential_tiny_rate", "brownian_huge_volatility", "normal_huge_loc",
            "path_drift", "uncompensated_drift"])
    def test_cli_exits_2_naming_the_fields(self, tmp_path, capsys, monkeypatch, driver, message):
        monkeypatch.setattr(cli, "simulate_paths", _no_simulation)
        path = _write(tmp_path, "extreme.json", {"driver": driver, "out": str(tmp_path)})
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ") and message in err[0]


def _no_simulation(*args, **kwargs):
    raise AssertionError("a config past a limit started a simulation")


class TestJumpLimit:
    """The expected jumps of a jump-driven driver, a time and a size each,
    must fit the array limit; parsing refuses a config past it."""

    @pytest.mark.parametrize("kind, patch", [
        ("simulate", {"driver": {"kind": "compensated_poisson", "rate": 1e12}}),
        ("integrate", {"driver": {"kind": "compound_poisson", "rate": 1e9}, "paths": 10}),
        ("isometry", {"driver": {"kind": "standard_poisson", "rate": 1e9}, "paths": 10}),
        ("poisson-identity", {"rate": 1e12}),
        ("converge", {"driver": {"kind": "compensated_poisson", "rate": 1e300}}),
        ("spde", {"spde": {"heat_dim": 1, "sigmas": [
            {"kind": "constant", "driver": {"kind": "brownian"}},
            {"kind": "constant", "driver": {"kind": "compensated_poisson", "rate": 1e12}}]}}),
        ("simulate", {"driver": {"kind": "compensated_poisson", "rate": 1e9},
                      "grid": {"horizon": 100.0, "steps": 4}, "paths": 1}),
    ], ids=["simulate", "integrate", "isometry", "poisson_identity", "converge", "spde_second_sigma",
            "long_horizon"])
    def test_past_the_limit_exits_2_before_simulating(self, tmp_path, capsys, monkeypatch, kind, patch):
        monkeypatch.setattr(cli, "simulate_paths", _no_simulation)
        monkeypatch.setattr(cli, "poisson_identity_check", _no_simulation)
        monkeypatch.setattr(cli, "mild_solution_picard", _no_simulation)
        cfg = {**_small_configs(tmp_path)[kind], **patch}
        with pytest.raises(ConfigError, match="expected jumps"):
            parse_config({**cfg, "experiment": kind})
        assert main([kind, "--config", _write(tmp_path, "jumps.json", cfg)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "paths x rate x horizon expected jumps" in err[0]

    def test_at_the_limit_parses(self):
        # 1000 paths x 1e6 jumps: 16e9 bytes of times and sizes, under 2**34
        cfg = parse_config({"experiment": "simulate", "paths": 1000,
                            "driver": {"kind": "compensated_poisson", "rate": 1e6}})
        assert cfg.driver.rate == 1e6
        with pytest.raises(ConfigError, match="expected jumps"):
            parse_config({"experiment": "simulate", "paths": 1100,
                          "driver": {"kind": "compensated_poisson", "rate": 1e6}})
