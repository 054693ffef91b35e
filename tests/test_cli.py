import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levyint as li
from levyint.cli import (
    EXPERIMENTS,
    driver_from_config,
    driver_to_config,
    main,
    parse_config,
)
from levyint.errors import ConfigError, NumericError, ToolkitError

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

    def test_hash_stability(self):
        a = parse_config({"experiment": "simulate", "seed": 1})
        b = parse_config({"seed": 1, "experiment": "simulate"})
        assert a.config_hash == b.config_hash


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
        assert manifest["tolerances"]["exact"] == 1e-12

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

    def test_failed_check_is_status_one(self, tmp_path):
        # an impossible z bound turns an honest pass into a reported failure
        cfg = {**_small_configs(tmp_path)["isometry"],
               "tolerances": {"z_max": 1e-6}}
        path = _write(tmp_path, "tight.json", cfg)
        assert main(["isometry", "--config", path]) == 1

    @pytest.mark.parametrize(
        "patch",
        [
            {"alpha": {"kind": "linear"}},
            {"sigmas": [{"kind": "linear", "driver": {"kind": "brownian"}}]},
            {"tol": "x"},
            {"heat_dim": "x"},
            {"heat_dim": float("inf")},
            {"alpha": 3},
            {"sigmas": [{"kind": "constant", "value": [1.0, 2.0],
                         "driver": {"kind": "brownian"}}]},
            {"tol": float("nan")},
            {"max_iter": 0},
            {"heat_dim": 3.5},
            {"max_iter": True},
            {"drivers": [{"kind": "brownian"}]},
            {"heat_dim": 2**62},
        ],
        ids=["alpha_no_coefficient", "sigma_no_coefficient", "tol_text", "heat_dim_text",
             "heat_dim_inf", "alpha_number", "sigma_value_length", "tol_nan", "max_iter0",
             "heat_dim_fraction", "max_iter_bool", "drivers_key", "heat_dim_huge"],
    )
    def test_malformed_spde_section_is_config_error(self, tmp_path, capsys, patch):
        cfg = _small_configs(tmp_path)["spde"]
        cfg = {**cfg, "spde": {**cfg["spde"], **patch}}
        path = _write(tmp_path, "bad_spde.json", cfg)
        assert main(["spde", "--config", path]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "kind, patch",
        [
            ("simulate", {"driver": {"kind": "compound_poisson", "jump_law": {"kind": "exponential"}}}),
            ("simulate", {"driver": {"kind": "compound_poisson", "jump_law": "two_point"}}),
            ("simulate", {"driver": {"kind": "compound_poisson", "jump_law": {"kind": "normal"}}}),
            ("simulate", {"driver": {"kind": "compound_poisson", "compensated": "false"}}),
            ("converge", {"meshes": [0.5, "x", 0.1]}),
            ("converge", {"meshes": 0.5}),
            ("simulate", {"out": 5}),
            ("simulate", {"driver": {"kind": "compensated_poisson", "rate": NAN}}),
            ("simulate", {"driver": {"kind": "brownian", "drift": NAN}}),
            ("simulate", {"driver": {"kind": "brownian", "volatility": INF}}),
            ("poisson-identity", {"rate": NAN}),
            ("isometry", {"tolerances": {"exact": "x"}}),
            ("isometry", {"tolerances": {"z_max": -1}}),
            ("isometry", {"tolerances": {"z_max": NAN}}),
            ("isometry", {"tolerances": {"se_multiplier": 0}}),
            ("simulate", {"paths": True}),
            ("simulate", {"seed": True}),
            ("simulate", {"paths": 10.5}),
            ("simulate", {"grid": {"horizon": 1.0, "steps": 2.7}}),
            # counts past the array limit; numpy could not allocate these either
            ("simulate", {"paths": 2**70}),
            ("integrate", {"paths": 2**70, "grid": {"points": [0.0, 0.5, 1.0]}}),
            ("simulate", {"grid": {"horizon": 1.0, "steps": 2**62}}),
            ("converge", {"meshes": [0.5, 0.25, 2.0**-62]}),
            ("diagnostics", {"paths": 2**62}),
            ("converge", {"meshes": [0.5, 0.25, 1e-310]}),
        ],
        ids=["jump_law_no_rate", "jump_law_text", "normal_no_scale", "compensated_text",
             "meshes_text_entry", "meshes_number", "out_number", "rate_nan", "drift_nan",
             "volatility_inf", "identity_rate_nan", "tolerance_text", "z_max_negative",
             "z_max_nan", "se_multiplier_zero", "paths_bool", "seed_bool", "paths_fraction",
             "steps_fraction", "paths_huge", "paths_huge_points_grid", "steps_huge",
             "mesh_huge", "spde_paths_huge", "mesh_subnormal"],
    )
    def test_malformed_config_is_config_error(self, tmp_path, capsys, kind, patch):
        cfg = {**_small_configs(tmp_path)[kind], **patch}
        path = _write(tmp_path, "bad_cfg.json", cfg)
        assert main([kind, "--config", path]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        if "meshes" in patch:
            assert "meshes" in err[0]

    def test_unwritable_target_is_io_error(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        cfg = {**_small_configs(tmp_path)["simulate"], "out": str(blocker)}
        path = _write(tmp_path, "io.json", cfg)
        assert main(["simulate", "--config", path]) == 3


class TestThreadControl:
    """Simulation runs on one thread; no input sets a thread count."""

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
     "tolerances": {"z_max": 4.0, "exact": 1e-12},
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
    st.sampled_from([NAN, INF, -INF, -0.0, 1e-3, 1e300, -1e300, 2**70]),
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
