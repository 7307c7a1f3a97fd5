"""Golden behaviour lock: pinned event-log digests of short seeded runs.

Each case exercises one path of the simulator (shadowing mode, fading, CR
limit, ranking average, half-duplex exemption, rate control with speed
perturbation, an oversaturated ring, per-receiver outcome logging).  The
metric CSVs of the first case are pinned byte for byte as well.  When the digests were pinned, every
case with an override was checked to differ from the same run without it,
so a change to that path moves its digest.  A change that moves a digest on
purpose must say why and re-pin.
"""

import hashlib

import pytest

from cv2xsim import cli, config, engine

SHORT = {"run.duration_s": "1.5", "run.warmup_s": "0.5"}
SHORT_OVERSAT = {"run.duration_s": "1.0", "run.warmup_s": "0.5"}

# (id, scenario, scheme, seed, overrides, event-log digest)
CASES = [
    ("mini-low-baseline", "mini-low", "baseline", 1, SHORT,
     "d614c3808eb398ea26413337e55333c5719e0544a5e30da1be8c1c742de3574f"),
    ("static-shadowing", "mini-low", "baseline", 1,
     {**SHORT, "channel.shadowing_mode": "static"},
     "3c3690b0fa82c9cfa3dc0f26672ca3f612fa8c2e0a87757fae78612747febcf8"),
    ("nakagami-fading", "mini-low", "baseline", 1,
     {**SHORT, "channel.fading": "nakagami"},
     "7a5ac2a3490af5b4ce60562069d64983dfccaac28d02a0dd114265c09120ee13"),
    ("no-half-duplex-exemption", "mini-low", "baseline", 1,
     {**SHORT, "sps.unsensed_exempt": "false"},
     "8e0e9e2384000b24fcda61aa814f318162a06790c9de2c50d2a54860662b5b38"),
    ("dcc7-speed-sigma", "mini-low", "dcc-7", 1,
     {**SHORT, "scenario.speed_sigma": "1.0"},
     "33176a48bffdab4d0c090bb2deea5137db21b6f4967e5e43a3c00b51689f3c99"),
    ("mini-oversat-baseline", "mini-oversat", "baseline", 1, SHORT_OVERSAT,
     "7a7f193915b981dcf4434e15ec4f356b81f8610ec3c265aa5879b16bc72e2825"),
    ("cr-limit", "mini-oversat", "baseline", 1,
     {**SHORT_OVERSAT, "cr.enabled": "true"},
     "54c8f506e2e68cb054cd7df38fbeaaa2e2b289b14172d37969577bf4f3015510"),
    ("db-ranking", "mini-oversat", "dcc-7", 3,
     {**SHORT_OVERSAT, "sps.rank_average": "db"},
     "42ec9dad68373e8e39ee540445327ca8de9319e6dab820b3b58378076dd01ec4"),
    ("rx-outcome-log", "mini-low", "baseline", 1, {**SHORT, "run.log_rx_outcomes": "true"},
     "388fe1925f1323e10ed5530a28288d2994203a594b8df880edf50872cda599ac"),
]

# sha256 of the metric CSVs that `cli.write_outputs` writes for mini-low-baseline
CSV_PINS = {
    "pdr_vs_distance.csv": "bf4adb3853a2df295ed69525a6dfab9f5e010dce56d2327b81270791077b0466",
    "slt_vs_distance.csv": "36c48c8a6c0f1281dfc80a58e2ed9048b6787e263a9a7a0b99602f9cc278b7a6",
    "ipg.csv": "8bb4fc70f363dadd1c1c160f2c1553d749288f81048194c7cc9100801bc198c1",
    "blind_nodes.csv": "10f4cdcb3d27c3da002f2fd8f3d7ac9e408138a25a34b05bba3473b755e89c5a",
}


def test_pins_are_distinct():
    digests = [c[-1] for c in CASES]
    assert len(set(digests)) == len(digests)


@pytest.mark.parametrize("scenario,scheme,seed,overrides,digest",
                         [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_event_log_digest(scenario, scheme, seed, overrides, digest):
    resolved = config.resolve(None, overrides, scenario=scenario, scheme=scheme, seed=seed)
    result = engine.run(config.build_run_config(resolved))
    assert result.event_log.digest() == digest


def test_metric_csvs(tmp_path):
    resolved = config.resolve(None, SHORT, scenario="mini-low", scheme="baseline", seed=1)
    result = engine.run(config.build_run_config(resolved))
    cli.write_outputs(tmp_path, resolved, result)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in CSV_PINS}
    assert got == CSV_PINS
