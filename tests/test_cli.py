import csv
import json
import math
import re
from dataclasses import asdict, fields, replace

import pytest

from cv2xsim import config, engine, metrics
from cv2xsim.channel import ChannelModel
from cv2xsim.cli import main
from cv2xsim.dcc import SCHEMES, RangeControlConfig, RateControlConfig
from cv2xsim.engine import RunConfig
from cv2xsim.mac_sps import CrConfig, SpsConfig
from cv2xsim.metrics import MetricsConfig
from cv2xsim.mobility import PRESETS, ScenarioConfig


FAST = {"run.duration_s": "2", "run.warmup_s": "1"}


def test_resolve_scheme_preset_values():
    r = config.resolve(scenario="mini-low", scheme="dcc-std", seed=7)
    assert r["rate.density_coefficient"] == 25.0
    assert r["range.eta"] == 0.5
    assert r["range.p_min_dbm"] == 10.0 and r["range.p_max_dbm"] == 23.0
    assert r["range.u_min_pct"] == 50.0 and r["range.u_max_pct"] == 80.0
    assert r["rate.itt_max_ms"] == 600.0
    assert r["sps.th_sps_dbm"] == -85.0
    assert r["sps.slrrc_min"] == 5 and r["sps.slrrc_max"] == 15
    assert r["sps.p_resel"] == 0.2


def test_resolve_dcc7_overrides():
    r = config.resolve(scenario="mini-low", scheme="dcc-7", seed=1)
    assert r["range.p_min_dbm"] == 0.0
    assert r["rate.density_coefficient"] == 45.0
    assert r["sps.slrrc_min"] == 1 and r["sps.slrrc_max"] == 5
    assert r["sps.p_resel"] == 0.2


def test_scenario_keys_apply():
    r = config.resolve(scenario="mini-oversat", scheme="dcc-std", seed=1)
    assert r["rate.neighbor_radius_m"] == 300.0
    # explicit override still wins over the scenario's key
    r2 = config.resolve(scenario="mini-oversat", scheme="dcc-std", seed=1,
                        overrides={"rate.neighbor_radius_m": "150"})
    assert r2["rate.neighbor_radius_m"] == 150.0


def test_unknown_key_gets_suggestion():
    with pytest.raises(config.ConfigError) as err:
        config.resolve(overrides={"range.powr_max_dbm": "20"})
    assert "range.p_max_dbm" in str(err.value)


def test_cross_field_violations_name_keys():
    r = config.resolve(scenario="mini-low", scheme="dcc-std", seed=1,
                       overrides={"range.p_min_dbm": "25"})
    with pytest.raises(config.ConfigError) as err:
        config.build_run_config(r)
    assert "p_min_dbm" in str(err.value) and "p_max_dbm" in str(err.value)

    r = config.resolve(scenario="mini-low", scheme="dcc-std", seed=1,
                       overrides={"run.warmup_s": "30"})
    with pytest.raises(config.ConfigError) as err:
        config.build_run_config(r)
    assert "warmup_s" in str(err.value)


def test_each_default_is_the_dataclass_default():
    defaults = config.default_config()
    run = RunConfig()
    sections = {"channel": ChannelModel(), "sps": SpsConfig(), "rate": RateControlConfig(),
                "range": RangeControlConfig(), "cr": CrConfig(), "metrics": MetricsConfig(),
                "scenario": ScenarioConfig()}
    want = {"run.scenario": "freeway-high", "run.scheme": "baseline"}
    for f in fields(RunConfig):
        if f.name not in sections:
            want[f"run.{f.name}"] = getattr(run, f.name)
    for section, value in sections.items():
        assert getattr(run, section) == value
        want.update({f"{section}.{k}": v for k, v in asdict(value).items()})
    assert defaults == want
    assert len(defaults) == 57
    # resolving nothing builds the dataclass defaults under the baseline scheme
    # and the default scenario, which sets no key to other than its default
    assert config.build_run_config(config.resolve()) == replace(
        run, rate=RateControlConfig(itt_max_ms=100.0, pte_enabled=False),
        range=RangeControlConfig(p_min_dbm=23.0, p_max_dbm=23.0))


@pytest.mark.parametrize("scenario", list(PRESETS))
def test_each_scheme_key_reaches_the_run_config(scenario):
    # and each of the scenario's keys, mini-oversat's rate.neighbor_radius_m too
    for name, keys in SCHEMES.items():
        cfg = config.build_run_config(config.resolve(scenario=scenario, scheme=name))
        for key, value in {**keys, **PRESETS[scenario]}.items():
            section, field = key.split(".")
            assert getattr(getattr(cfg, section), field) == value, (name, key)


def test_every_named_run_round_trips_through_a_manifest(tmp_path):
    manifest = tmp_path / "manifest.json"
    for scenario in PRESETS:
        for scheme in SCHEMES:
            resolved = config.resolve(scenario=scenario, scheme=scheme)
            config.write_manifest(manifest, resolved, "0.1.0")
            assert config.resolve(config.read_config_file(str(manifest))) == resolved, \
                (scenario, scheme)


def test_ini_round_trip(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nseed = 9\nduration_s = 2\nwarmup_s = 1\n"
                   "[channel]\nshadowing_sigma_db = 0\n")
    r = config.resolve(config.read_config_file(str(ini)),
                       scenario="mini-low", scheme="baseline")
    assert r["run.seed"] == 9
    assert r["channel.shadowing_sigma_db"] == 0.0
    cfg = config.build_run_config(r)
    assert cfg.seed == 9 and cfg.channel.shadowing_sigma_db == 0.0


def test_no_key_takes_null_from_a_manifest(tmp_path):
    resolved = config.resolve(scenario="mini-low")
    manifest = tmp_path / "manifest.json"
    for key in ("run.seed", "rate.pte_enabled", "channel.breakpoint_m"):
        config.write_manifest(manifest, {**resolved, key: None}, "0.1.0")
        with pytest.raises(config.ConfigError, match=f"{key}: expected .*, got None"):
            config.resolve(config.read_config_file(str(manifest)))
    # nor a "none" from text: a single slope is exponent_beyond = exponent
    with pytest.raises(config.ConfigError, match="channel.breakpoint_m: expected a number"):
        config.resolve(overrides={"channel.breakpoint_m": "none"})


# A valid value for every key, each unlike its default
NON_DEFAULT = {
    "run.scenario": "mini-low", "run.scheme": "dcc-std", "run.duration_s": "3.5",
    "run.warmup_s": "1.5", "run.seed": "9", "run.subchannels": "3", "run.payload_bytes": "300",
    "run.mobility_tick_ms": "50", "run.density_period_ms": "500",
    "run.power_period_ms": "100", "run.cbp_window_ms": "50",
    "run.cbp_rssi_threshold_dbm": "-90.5", "run.timeseries_period_ms": "250",
    "metrics.bin_width_m": "10", "metrics.roi_radius_m": "150",
    "cr.cbp_limit": "0.5", "cr.calibration": "0:10,0.5:100,1:300",
    "channel.d0_m": "5", "channel.pl0_db": "60", "channel.exponent": "2.2",
    "channel.breakpoint_m": "200", "channel.exponent_beyond": "3.5",
    "channel.shadowing_sigma_db": "4", "channel.shadowing_mode": "static",
    "channel.fading": "nakagami", "channel.nakagami_m": "2", "channel.noise_floor_dbm": "-99",
    "channel.sensitivity_dbm": "-93", "channel.sinr_threshold_db": "3",
    "sps.t1_sf": "2", "sps.t2_sf": "50", "sps.th_sps_dbm": "-80", "sps.slrrc_min": "4",
    "sps.slrrc_max": "12", "sps.p_resel": "0.4", "sps.sensing_window_sf": "1100",
    "sps.keep_fraction": "0.3",
    "rate.density_coefficient": "30", "rate.itt_max_ms": "500", "rate.neighbor_radius_m": "150",
    "rate.pte_threshold_m": "1", "rate.pte_enabled": "false", "rate.pte_wait_limit_ms": "30",
    "range.p_min_dbm": "5", "range.p_max_dbm": "20", "range.u_min_pct": "40",
    "range.u_max_pct": "70", "range.eta": "0.6",
    "scenario.vehicle_count": "50", "scenario.speed_kmh": "100", "scenario.road_length_km": "2",
    "scenario.lanes": "4", "scenario.lane_width_m": "3.5", "scenario.wraparound": "true",
    "scenario.region": "full", "scenario.speed_sigma": "1", "scenario.speed_reversion": "0.3",
}


def test_every_key_round_trips_through_a_manifest(tmp_path, capsys):
    defaults = config.default_config()
    assert NON_DEFAULT.keys() == defaults.keys()
    sets = [arg for pair in NON_DEFAULT.items() for arg in ("--set", "=".join(pair))]
    assert main(["validate", *sets]) == 0
    by_set = config.resolve(overrides=NON_DEFAULT)
    for key, value in by_set.items():
        assert value != defaults[key], key
    manifest = tmp_path / "manifest.json"
    config.write_manifest(manifest, by_set, "0.1.0")
    by_manifest = config.resolve(config.read_config_file(str(manifest)))
    assert by_manifest == by_set
    cfg = config.build_run_config(by_manifest)
    assert cfg == config.build_run_config(by_set)
    # key section.name sets field name of the section's config
    del by_set["run.scenario"], by_set["run.scheme"]
    for key, value in by_set.items():
        section, name = key.split(".")
        owner = cfg if section == "run" else getattr(cfg, section)
        assert getattr(owner, name) == value, key


@pytest.mark.parametrize("sets,key", [
    (["cr.cbp_limit=2"], "cr.cbp_limit"),
    (["cr.calibration=0:0"], "cr.calibration"),
    (["cr.calibration=0.5:10,0.5:20"], "cr.calibration"),
    (["cr.cbp_limit=0.6", "sps.sensing_window_sf=500"], "sps.sensing_window_sf"),
    (["run.timeseries_period_ms=0"], "run.timeseries_period_ms"),
    (["run.cbp_window_ms=0"], "run.cbp_window_ms"),
    (["run.warmup_s=-1"], "run.warmup_s"),
    (["metrics.bin_width_m=0"], "metrics.bin_width_m"),
    (["metrics.roi_radius_m=-5"], "metrics.roi_radius_m"),
    # every error names the key as --set takes it
    pytest.param(["channel.fading=nakagami", "channel.nakagami_m=0"], "channel.nakagami_m",
                 id="channel.nakagami_m"),
    pytest.param(["scenario.lanes=0"], "scenario.lanes", id="scenario.lanes"),
    # the ranking grid is no longer a key: any value of it is rejected by name
    pytest.param(["sps.rank_period_sf=0"], "sps.rank_period_sf", id="sps.rank_period_sf=0"),
    pytest.param(["sps.rank_period_sf=-100"], "sps.rank_period_sf",
                 id="sps.rank_period_sf<0"),
    pytest.param(["scenario.lane_width_m=-4"], "scenario.lane_width_m",
                 id="scenario.lane_width_m"),
    pytest.param(["scenario.speed_sigma=-1"], "scenario.speed_sigma", id="scenario.speed_sigma"),
    pytest.param(["scenario.speed_reversion=-0.5"], "scenario.speed_reversion",
                 id="scenario.speed_reversion"),
    # the CR cap divides by the density at each busy fraction above the limit
    pytest.param(["cr.cbp_limit=0.6", "cr.calibration=0:0,1:0"], "cr.calibration",
                 id="cr.calibration-zero-density"),
    pytest.param(["cr.calibration=0:-50,1:100"], "cr.calibration",
                 id="cr.calibration-negative-density"),
    # a float key takes only a finite number, and the CR table only finite points
    *(pytest.param([f"{key}={value}"], key, id=f"{key}={value}") for key, value in (
        ("metrics.bin_width_m", "nan"), ("channel.shadowing_sigma_db", "nan"),
        ("rate.density_coefficient", "nan"), ("scenario.speed_kmh", "nan"),
        ("range.p_max_dbm", "inf"), ("range.p_min_dbm", "-inf"), ("run.duration_s", "nan"),
        ("cr.calibration", "0:0,1:inf"), ("cr.calibration", "0:0,nan:100,1:200"))),
    *(pytest.param([f"{key}={value}"], key, id=f"{key}={value}") for key, value in (
        ("run.subchannels", "0"), ("run.payload_bytes", "0"), ("run.cbp_window_ms", "2000"),
        ("sps.slrrc_min", "0"), ("sps.t1_sf", "0"), ("channel.exponent", "0"),
        ("scenario.region", "x"), ("rate.pte_wait_limit_ms", "-5"),
        ("rate.pte_threshold_m", "-1"))),
])
def test_validate_rejects_bad_config(sets, key, capsys):
    args = ["validate", "--scenario", "mini-low"]
    for pair in sets:
        args += ["--set", pair]
    assert main(args) == 2
    assert key in capsys.readouterr().err


def test_validate_rejects_a_run_past_the_ledger_times(capsys):
    # the ledger keeps each pair's last decode in int32 milliseconds
    assert main(["validate", "--scenario", "mini-low", "--set", "run.duration_s=2200000"]) == 2
    assert "run.duration_s" in capsys.readouterr().err


def test_sensing_window_below_cr_window_is_fine_without_cr(capsys):
    assert main(["validate", "--scenario", "mini-low", "--set", "sps.sensing_window_sf=500"]) == 0


@pytest.mark.parametrize("name, text", [
    ("no-section.ini", "seed = 3\n"),
    ("truncated.json", '{"config": {"run.seed": '),
    ("list-config.json", '{"config": [["run.seed", 3]]}'),
    ("list.json", '[["run.seed", 3]]'),
    ("missing.ini", None),
])
def test_malformed_config_file_is_a_config_error(tmp_path, capsys, name, text):
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    with pytest.raises(config.ConfigError, match=re.escape(str(path))):
        config.read_config_file(str(path))
    assert main(["validate", "--config", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[DEFAULT]\nseed = 3\n",
                                  "[DEFAULT]\nduration_s = 2\n[run]\nwarmup_s = 1\n"],
                         ids=["alone", "beside-a-section"])
def test_ini_default_section_is_a_config_error(tmp_path, capsys, text):
    # configparser drops a lone [DEFAULT] section's keys and copies them into
    # every other section
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    with pytest.raises(config.ConfigError, match=re.escape(f"{ini}: a [DEFAULT] section")):
        config.read_config_file(str(ini))
    assert main(["validate", "--config", str(ini)]) == 2
    assert str(ini) in capsys.readouterr().err


def test_ini_value_is_taken_literally(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[cr]\ncalibration = %(x)s\n")
    assert config.read_config_file(str(ini)) == {"cr.calibration": "%(x)s"}
    assert main(["validate", "--config", str(ini)]) == 2
    assert "cr.calibration" in capsys.readouterr().err


@pytest.mark.parametrize("error", [KeyError("run.seed"), FileNotFoundError("missing.csv")])
def test_key_and_file_errors_of_a_run_are_runtime_errors(tmp_path, capsys, monkeypatch, error):
    def fail(cfg):
        raise error
    monkeypatch.setattr(engine, "run", fail)
    assert main(["run", "--scenario", "mini-low", "--out", str(tmp_path / "run"),
                 *(arg for pair in FAST.items() for arg in ("--set", "=".join(pair)))]) == 3
    assert "runtime error" in capsys.readouterr().err


class TestCliCommands:
    def test_validate_ok(self, capsys):
        rc = main(["validate", "--scenario", "mini-low", "--scheme", "dcc-std"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rate.density_coefficient = 25.0" in out

    def test_validate_bad_key_exit_code(self, capsys):
        rc = main(["validate", "--scenario", "mini-low", "--scheme", "dcc-std",
                   "--set", "range.powr_max_dbm=20"])
        assert rc == 2
        assert "did you mean" in capsys.readouterr().err

    def test_validate_bad_value_exit_code(self, capsys):
        rc = main(["validate", "--scenario", "mini-low", "--scheme", "dcc-std",
                   "--set", "run.warmup_s=99"])
        assert rc == 2

    def test_negative_sinr_threshold_exit_code(self, capsys):
        rc = main(["validate", "--scenario", "mini-low",
                   "--set", "channel.sinr_threshold_db=-1"])
        assert rc == 2
        assert "channel.sinr_threshold_db" in capsys.readouterr().err

    def test_removed_key_exit_code(self, capsys):
        for key, value in (("run.mcs_index", "5"), ("run.log_rx_outcomes", "true"),
                           ("cr.enabled", "true")):
            rc = main(["validate", "--scenario", "mini-low", "--set", f"{key}={value}"])
            assert rc == 2
            assert key in capsys.readouterr().err

    def test_manifest_with_removed_key_exit_code(self, tmp_path, capsys):
        # every manifest written while run.log_rx_outcomes existed carries it
        path = tmp_path / "manifest.json"
        for key, value in (("rate.smoothing", 0.5), ("run.log_rx_outcomes", False),
                           ("cr.enabled", True)):
            config.write_manifest(path, {**config.resolve(scenario="mini-low"), key: value},
                                  "0.1.0")
            assert main(["validate", "--config", str(path)]) == 2
            assert key in capsys.readouterr().err

    def test_run_from_manifest_with_removed_sps_key_exit_code(self, tmp_path, capsys):
        # manifests written while the ranking average was a key carry it
        path, out = tmp_path / "manifest.json", tmp_path / "run"
        config.write_manifest(path, {**config.resolve(scenario="mini-low", overrides=FAST),
                                     "sps.rank_average": "mw"}, "0.1.0")
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "sps.rank_average" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_with_non_finite_value_exit_code(self, tmp_path, capsys):
        # json reads NaN, Infinity and ints past the float range, but no
        # manifest may carry them, nor a value of another type than its key's
        resolved = config.resolve(scenario="mini-low")
        with pytest.raises(ValueError):
            config.write_manifest(tmp_path / "bad.json", {**resolved, "range.eta": math.nan},
                                  "0.1.0")
        path = tmp_path / "manifest.json"
        for key, value in (("channel.shadowing_sigma_db", "NaN"), ("range.p_max_dbm", "Infinity"),
                           ("run.duration_s", "1" + "0" * 400), ("sps.t1_sf", "1.5"),
                           ("run.subchannels", "2.7"), ("rate.pte_enabled", "5"),
                           ("run.seed", "true")):
            path.write_text(f'{{"config": {{"{key}": {value}}}}}')
            assert main(["validate", "--config", str(path)]) == 2
            assert key in capsys.readouterr().err

    def test_oversized_config_exit_code(self, tmp_path, capsys):
        # fails in validation, before the run allocates or writes anything
        too_many = ["--scenario", "freeway-low", "--set", "scenario.vehicle_count=20000"]
        assert main(["validate", *too_many]) == 2
        err = capsys.readouterr().err
        assert "scenario.vehicle_count" in err and "MiB" in err
        out = tmp_path / "big"
        assert main(["run", *too_many, "--out", str(out)]) == 2
        assert "scenario.vehicle_count" in capsys.readouterr().err
        assert not out.exists()
        # the event log's rows grow with the duration, at any vehicle count
        assert main(["validate", "--scenario", "urban-medium", "--set", "run.duration_s=3000"]) == 2
        assert "run.duration_s = 3000" in capsys.readouterr().err

    def test_sweep_rejects_oversized_job_before_starting(self, tmp_path, capsys):
        root = tmp_path / "sweep"
        rc = main(["sweep", "--scenarios", "mini-low,urban-medium", "--schemes", "baseline",
                   "--seeds", "1", "--out", str(root), "--workers", "1",
                   "--set", "run.duration_s=3000"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "urban-medium/baseline/seed1" in err and "scenario.vehicle_count" in err
        assert "mini-low/" not in err
        assert not root.exists()    # not even the mini-low job ran

    @pytest.mark.parametrize("option, value, named", [
        ("--seeds", "1,x", "'x'"),
        ("--seeds", "1,1", "'1'"),
        ("--scenarios", "mini-low,mini-low", "'mini-low'"),
        ("--schemes", "baseline,baseline", "'baseline'"),
        ("--workers", "0", "at least 1, got 0"),
    ])
    def test_sweep_argument_error_before_any_job(self, tmp_path, capsys, option, value, named):
        root = tmp_path / "sweep"
        args = {"--scenarios": "mini-low", "--schemes": "baseline", "--seeds": "1",
                "--workers": "1", "--out": str(root), option: value}
        rc = main(["sweep", *(x for kv in args.items() for x in kv),
                   "--set", "run.duration_s=0.3", "--set", "run.warmup_s=0.1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert option in err and named in err
        assert not root.exists()

    def test_urban_preset_runs(self, tmp_path, capsys):
        out = tmp_path / "urban"
        rc = main(["run", "--scenario", "urban-medium", "--scheme", "baseline", "--seed", "1",
                   "--out", str(out), "--set", "run.duration_s=0.3", "--set", "run.warmup_s=0.1"])
        assert rc == 0
        for name in ("pdr_vs_distance.csv", "slt_vs_distance.csv", "ipg.csv", "blind_nodes.csv"):
            assert len((out / name).read_text().splitlines()) > 1, name

    def test_unknown_preset_exit_code(self, capsys):
        rc = main(["validate", "--scenario", "nowhere", "--scheme", "dcc-std"])
        assert rc == 2

    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "urban-ultrahigh" in out and "dcc-7" in out
        row = next(line.split() for line in out.splitlines()
                   if line.split()[:1] == ["urban-ultrahigh"])
        assert row[1:5] == ["4800", "vehicles", "111.1", "veh/(km.lane)"]
        assert "sps.slrrc_min=1  sps.slrrc_max=5  sps.p_resel=0.2" in out
        # a scenario row lists the keys its columns do not show, as a scheme row does
        oversat = next(line.split() for line in out.splitlines()
                       if line.split()[:1] == ["mini-oversat"])
        assert oversat[-2:] == ["scenario.region=full", "rate.neighbor_radius_m=300.0"]

    def test_run_writes_artifacts_and_manifest(self, tmp_path, capsys, monkeypatch):
        passes = []
        bin_pass = metrics._bin_pass
        monkeypatch.setattr(metrics, "_bin_pass", lambda *a: passes.append(a[1]) or bin_pass(*a))
        out = tmp_path / "run1"
        rc = main(["run", "--scenario", "mini-low", "--scheme", "baseline",
                   "--seed", "7", "--out", str(out),
                   "--set", "run.duration_s=2", "--set", "run.warmup_s=1"])
        assert rc == 0
        # one pass over the ledger for all outputs and the returned bins
        assert passes == [1.0]
        for name in ("manifest.json", "pdr_vs_distance.csv", "ipg.csv",
                     "slt_vs_distance.csv", "blind_nodes.csv", "timeseries.csv",
                     "txevents.csv", "summary.json"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["run.scenario"] == "mini-low"
        assert manifest["config"]["run.scheme"] == "baseline"
        assert manifest["config"]["run.seed"] == 7

    def test_run_without_post_warmup_samples_reports_null_means(self, tmp_path, capsys):
        out = tmp_path / "short"
        rc = main(["run", "--scenario", "mini-low", "--scheme", "dcc-std", "--seed", "1",
                   "--out", str(out), "--set", "run.duration_s=0.3", "--set", "run.warmup_s=0.1"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        for key in ("mean_cbp_pct", "mean_power_dbm", "mean_itt_ms"):
            assert summary[key] is None, key
        printed = capsys.readouterr().out
        assert "mean_itt=n/a mean_cbp=n/a" in printed

    def test_rerun_from_manifest_is_bit_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--scenario", "mini-low", "--scheme", "dcc-std",
                     "--seed", "3", "--out", str(a),
                     "--set", "run.duration_s=2", "--set", "run.warmup_s=1"]) == 0
        assert main(["run", "--config", str(a / "manifest.json"), "--out", str(b)]) == 0
        for name in ("pdr_vs_distance.csv", "ipg.csv", "slt_vs_distance.csv",
                     "blind_nodes.csv", "timeseries.csv", "txevents.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_sweep_layout_and_gains(self, tmp_path):
        root = tmp_path / "sweep"
        rc = main(["sweep", "--scenarios", "mini-low", "--schemes", "baseline,dcc-1,dcc-7",
                   "--seeds", "1,2", "--out", str(root), "--workers", "2",
                   "--set", "run.duration_s=2", "--set", "run.warmup_s=1"])
        assert rc == 0
        dirs = sorted(p.name for p in root.iterdir() if p.is_dir())
        assert dirs == [f"mini-low__{scheme}__seed{seed}"
                        for scheme in ("baseline", "dcc-1", "dcc-7") for seed in (1, 2)]
        for scheme in ("dcc-1", "dcc-7"):
            header = (root / f"gains__mini-low__{scheme}.csv").read_text().splitlines()[0]
            assert header == "bin_lo_m,bin_hi_m,pdr_gain_pp,slt_gain_bps,n_seeds"

        # each gains cell is the %.6g text of the mean, in seed order, of the
        # exact per-seed differences of in-process runs of the same configs
        def bins(scheme, seed):
            resolved = config.resolve(overrides=FAST, scenario="mini-low", scheme=scheme, seed=seed)
            result = engine.run(config.build_run_config(resolved))
            return [{(b.bin_lo_m, b.bin_hi_m): b.value for b in rows}
                    for rows in (metrics.pdr(result.metrics),
                                 metrics.slt(result.metrics, result.observation_s))]

        runs = {(scheme, seed): bins(scheme, seed)
                for scheme in ("baseline", "dcc-1", "dcc-7") for seed in (1, 2)}
        for scheme in ("dcc-1", "dcc-7"):
            diffs = {}      # bin -> [(PDR gain, SLT gain)], one per seed with the bin
            for seed in (1, 2):
                (s_pdr, s_slt), (b_pdr, b_slt) = runs[scheme, seed], runs["baseline", seed]
                for key in sorted(s_pdr.keys() & b_pdr.keys()):
                    diffs.setdefault(key, []).append((100.0 * (s_pdr[key] - b_pdr[key]),
                                                      s_slt.get(key, 0.0) - b_slt.get(key, 0.0)))
            with open(root / f"gains__mini-low__{scheme}.csv") as f:
                got = {(float(r["bin_lo_m"]), float(r["bin_hi_m"])): r for r in csv.DictReader(f)}
            assert sorted(got) == sorted(diffs)
            for key, d in diffs.items():
                assert got[key]["n_seeds"] == str(len(d)), key
                for col, i in (("pdr_gain_pp", 0), ("slt_gain_bps", 1)):
                    mean = sum(x[i] for x in d) / len(d)
                    assert got[key][col] == metrics.FLOAT % mean, (key, col)
            if scheme == "dcc-7":
                # a bin only one seed's runs reach, next to bins both reach
                assert {len(d) for d in diffs.values()} == {1, 2}
                assert any(x[0] for d in diffs.values() for x in d)

    def test_sweep_determinism(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        args = ["sweep", "--scenarios", "mini-low", "--schemes", "baseline,dcc-1",
                "--seeds", "4", "--workers", "1",
                "--set", "run.duration_s=2", "--set", "run.warmup_s=1"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        g1 = (out1 / "gains__mini-low__dcc-1.csv").read_bytes()
        g2 = (out2 / "gains__mini-low__dcc-1.csv").read_bytes()
        assert g1 == g2

    def test_bad_set_syntax(self, capsys):
        rc = main(["run", "--scenario", "mini-low", "--scheme", "baseline",
                   "--set", "oops"])
        assert rc == 2
