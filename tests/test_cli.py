import csv
import json
from dataclasses import asdict, fields

import pytest

from cv2xsim import config, metrics
from cv2xsim.channel import ChannelModel
from cv2xsim.cli import main
from cv2xsim.dcc import SCHEMES, RangeControlConfig, RateControlConfig
from cv2xsim.engine import RunConfig
from cv2xsim.mac_sps import SpsConfig
from cv2xsim.mobility import PRESETS


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


def test_scenario_adjustments_apply():
    r = config.resolve(scenario="mini-oversat", scheme="dcc-std", seed=1)
    assert r["rate.neighbor_radius_m"] == 300.0
    # explicit override still wins over the scenario adjustment
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
    run = RunConfig(scenario=PRESETS["freeway-high"], scheme=SCHEMES["baseline"])
    renamed = {"bin_width_m": "metrics.bin_width_m", "roi_radius_m": "metrics.roi_radius_m",
               "cr_limit_enabled": "cr.enabled", "cbp_limit": "cr.cbp_limit",
               "cr_calibration": "cr.calibration"}
    want = {"run.scenario": "freeway-high", "run.scheme": "baseline"}
    for f in fields(RunConfig):
        if f.name not in ("scenario", "scheme", "channel", "sps"):
            want[renamed.get(f.name, f"run.{f.name}")] = getattr(run, f.name)
    want["cr.calibration"] = "0:0,1:200"
    for section, value in (("channel", ChannelModel()), ("sps", SpsConfig()),
                           ("rate", RateControlConfig()), ("range", RangeControlConfig())):
        want.update({f"{section}.{k}": v for k, v in asdict(value).items()})
    want.update({f"scenario.{k}": v for k, v in asdict(PRESETS["freeway-high"]).items()
                 if k not in ("name", "adjustments")})
    assert defaults == want
    assert len(defaults) == 61
    assert config.parse_calibration(defaults["cr.calibration"]) == run.cr_calibration
    # resolving nothing builds exactly the dataclass defaults
    assert config.build_run_config(config.resolve()) == run


def test_scheme_enabled_follows_the_scheme_table():
    for name, scheme in SCHEMES.items():
        cfg = config.build_run_config(config.resolve(scenario="mini-low", scheme=name))
        assert cfg.scheme.enabled is scheme.enabled, name


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


def test_optional_key_takes_none_from_every_source(tmp_path):
    # channel.breakpoint_m is declared `float | None`; None is a single slope
    by_set = config.resolve(overrides={"channel.breakpoint_m": "none"}, scenario="mini-low")
    ini = tmp_path / "run.ini"
    ini.write_text("[channel]\nbreakpoint_m = none\n")
    by_ini = config.resolve(config.read_config_file(str(ini)), scenario="mini-low")
    manifest = tmp_path / "manifest.json"
    config.write_manifest(manifest, by_set, "0.1.0")
    by_manifest = config.resolve(config.read_config_file(str(manifest)))
    for resolved in (by_set, by_ini, by_manifest):
        assert resolved["channel.breakpoint_m"] is None
        assert config.build_run_config(resolved).channel.breakpoint_m is None
    # a number over a None layer is still a number
    again = config.resolve(config.read_config_file(str(manifest)),
                           overrides={"channel.breakpoint_m": "120"})
    assert again["channel.breakpoint_m"] == 120.0
    with pytest.raises(config.ConfigError, match="channel.exponent: expected a number"):
        config.resolve(overrides={"channel.exponent": "none"})
    # a key not declared optional takes no null from a manifest either
    for key in ("run.seed", "cr.enabled"):
        config.write_manifest(manifest, {**by_set, key: None}, "0.1.0")
        with pytest.raises(config.ConfigError, match=f"{key}: expected a value"):
            config.resolve(config.read_config_file(str(manifest)))


@pytest.mark.parametrize("sets,key", [
    (["cr.enabled=true", "cr.cbp_limit=2"], "cr.cbp_limit"),
    (["cr.calibration=0:0"], "cr.calibration"),
    (["cr.calibration=0.5:10,0.5:20"], "cr.calibration"),
    (["cr.enabled=true", "sps.sensing_window_sf=500"], "sps.sensing_window_sf"),
    (["run.timeseries_period_ms=0"], "run.timeseries_period_ms"),
    (["run.cbp_window_ms=0"], "run.cbp_window_ms"),
    (["run.warmup_s=-1"], "run.warmup_s"),
    (["metrics.bin_width_m=0"], "metrics.bin_width_m"),
    (["metrics.roi_radius_m=-5"], "metrics.roi_radius_m"),
    # a nested config's errors name the key as "[section] key"
    pytest.param(["channel.fading=nakagami", "channel.nakagami_m=0"], "[channel] nakagami_m",
                 id="channel.nakagami_m"),
    pytest.param(["scenario.lanes=0"], "[scenario] lanes", id="scenario.lanes"),
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
        assert "[channel] sinr_threshold_db" in capsys.readouterr().err

    def test_removed_key_exit_code(self, capsys):
        for key, value in (("run.mcs_index", "5"), ("run.log_rx_outcomes", "true")):
            rc = main(["validate", "--scenario", "mini-low", "--set", f"{key}={value}"])
            assert rc == 2
            assert key in capsys.readouterr().err

    def test_manifest_with_removed_key_exit_code(self, tmp_path, capsys):
        # every manifest written while run.log_rx_outcomes existed carries it
        path = tmp_path / "manifest.json"
        for key, value in (("rate.smoothing", 0.5), ("run.log_rx_outcomes", False)):
            config.write_manifest(path, {**config.resolve(scenario="mini-low"), key: value},
                                  "0.1.0")
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
        assert "sps.slrrc_min=1  sps.slrrc_max=5  sps.p_resel=0.2" in out

    def test_run_writes_artifacts_and_manifest(self, tmp_path, capsys, monkeypatch):
        builds = []
        compacted = metrics.SparseCounts.compacted
        monkeypatch.setattr(metrics.SparseCounts, "compacted",
                            lambda self: builds.append(1) or compacted(self))
        out = tmp_path / "run1"
        rc = main(["run", "--scenario", "mini-low", "--scheme", "baseline",
                   "--seed", "7", "--out", str(out),
                   "--set", "run.duration_s=2", "--set", "run.warmup_s=1"])
        assert rc == 0
        assert len(builds) == 1     # the ledger cells are built once for all outputs
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

        def read(path, col):
            with open(path) as f:
                return {(float(r["bin_lo_m"]), float(r["bin_hi_m"])): float(r[col])
                        for r in csv.DictReader(f)}

        # dcc-1 runs as baseline does on this ring, so its gains are all 0;
        # dcc-7's are checked by value against the runs' own CSVs
        want = {}       # bin -> (PDR gains, SLT gains), one per seed with the bin
        for seed in (1, 2):
            runs = [root / f"mini-low__{s}__seed{seed}" for s in ("dcc-7", "baseline")]
            s_pdr, b_pdr = (read(d / "pdr_vs_distance.csv", "pdr") for d in runs)
            s_slt, b_slt = (read(d / "slt_vs_distance.csv", "slt_bytes_per_s") for d in runs)
            for key in s_pdr.keys() & b_pdr.keys():
                pp, bps = want.setdefault(key, ([], []))
                pp.append(100.0 * (s_pdr[key] - b_pdr[key]))
                bps.append(s_slt.get(key, 0.0) - b_slt.get(key, 0.0))
        gains = root / "gains__mini-low__dcc-7.csv"
        got = {col: read(gains, col) for col in ("pdr_gain_pp", "slt_gain_bps", "n_seeds")}
        assert sorted(got["n_seeds"]) == sorted(want)
        assert set(got["n_seeds"].values()) == {2.0}
        for key, (pp, bps) in want.items():
            assert got["pdr_gain_pp"][key] == pytest.approx(sum(pp) / len(pp), rel=1e-5)
            assert got["slt_gain_bps"][key] == pytest.approx(sum(bps) / len(bps), rel=1e-5)
        assert any(got["pdr_gain_pp"].values())

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
