"""Golden behaviour lock: pinned event-log digests of short seeded runs.

Each case exercises one path of the simulator (shadowing mode, fading, CR
limit, ranking average, half-duplex exemption, rate control with speed
perturbation, an oversaturated ring, a straight road whose metrics come
only from its middle-third region, and a straight road whose perturbed
vehicles respawn at its ends).  The output files of the first case and of
the first straight road are pinned byte for byte as well.
When the digests were pinned, every case with an override was checked to
differ from the same run without it, so a change to that path moves its
digest.  Two cases are also run with every transmitting subframe resolved in
a batch of its own, which must not move them.  A change that moves a digest
on purpose must say why and re-pin.
"""

import hashlib

import pytest

from cv2xsim import cli, config, engine

SHORT = {"run.duration_s": "1.5", "run.warmup_s": "0.5"}
SHORT_OVERSAT = {"run.duration_s": "1.0", "run.warmup_s": "0.5"}
SHORT_ROAD = {"run.duration_s": "1.2", "run.warmup_s": "0.5"}

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
    ("straight-road-middle-third", "freeway-high", "dcc-std", 1, SHORT_ROAD,
     "851385b9cb37a13b0bb77a4954deb7da78d0af2d09b9223f4f6bf2b3ef0438e7"),
    # speed perturbation together with respawns (4 in this run)
    ("straight-road-speed-sigma", "freeway-high", "dcc-7", 1,
     {**SHORT_ROAD, "scenario.speed_sigma": "1.0"},
     "b3e86c817ea0e03ef0807e92d0e4795633eca74f600cbcef67df4a28d8391e45"),
]

# sha256 of the files that `cli.write_outputs` writes, per case.  All but
# manifest.json (it carries the version) for mini-low-baseline; the CSVs for
# the straight road, whose metrics only its region's transmitters feed and
# whose range control writes powers other than 23 dBm into txevents.csv.
FILE_PINS = {
    "mini-low-baseline": {
        "pdr_vs_distance.csv": "bf4adb3853a2df295ed69525a6dfab9f5e010dce56d2327b81270791077b0466",
        "slt_vs_distance.csv": "36c48c8a6c0f1281dfc80a58e2ed9048b6787e263a9a7a0b99602f9cc278b7a6",
        "ipg.csv": "8bb4fc70f363dadd1c1c160f2c1553d749288f81048194c7cc9100801bc198c1",
        "blind_nodes.csv": "10f4cdcb3d27c3da002f2fd8f3d7ac9e408138a25a34b05bba3473b755e89c5a",
        "txevents.csv": "8e2abb456f3d1886edde91e601f80132fcb1af8201185e983a38d1bcc3050ba1",
        "timeseries.csv": "2df260e02d8a0c8745fe75e76dbeceb3ff5099375c049467e3f66194119b6d63",
        "summary.json": "0b3ba69503a0987d2ce8c93c9cdd6393b37f2e6d369d8c30cbed4f7082fca152",
    },
    "straight-road-middle-third": {
        "pdr_vs_distance.csv": "f0f9b01bf63cab671415417c52d8c106cc223ff3d9d1e87422a18bb9aade74c2",
        "slt_vs_distance.csv": "34db6c788717489f4f4b747640bec43b54bacbf4de9c7325429b5b6c1464d234",
        "ipg.csv": "6d5cc2e256fd8cb16bc5d932ef0964e9d0abe447688fe0ff701634c8743a9e72",
        "blind_nodes.csv": "5e9ae640209b5f6aca479465cdd7b83eefcdbf6b40f3526be8f1969f9ef1fc3b",
        "txevents.csv": "16b5fcd6cc3cd22d1cc0f43e460893c4c5df4ec2bf96143a00dd6f2eb4dd767f",
        "timeseries.csv": "0c4ed1892c1c73014ced30196b956fbf040c0d27c5f357992e185502be27a550",
    },
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


@pytest.mark.parametrize("case", ["nakagami-fading", "straight-road-middle-third"])
def test_one_subframe_per_batch(case, monkeypatch, tmp_path):
    """With a batch cap of one link, every transmitting subframe is resolved
    in a batch of its own, and the run keeps its pinned digests."""
    scenario, scheme, seed, overrides, digest = {c[0]: c[1:] for c in CASES}[case]
    monkeypatch.setattr(engine, "_BATCH_LINKS", 1)
    resolve = engine.resolve_subframe
    spans = []

    def one_subframe(tx_sf, *args):
        spans.append(len(set(tx_sf.tolist())))
        return resolve(tx_sf, *args)

    monkeypatch.setattr(engine, "resolve_subframe", one_subframe)
    resolved = config.resolve(None, overrides, scenario=scenario, scheme=scheme, seed=seed)
    result = engine.run(config.build_run_config(resolved))
    assert max(spans) == 1
    assert result.event_log.digest() == digest
    if case in FILE_PINS:
        cli.write_outputs(tmp_path, resolved, result)
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in FILE_PINS[case]} == FILE_PINS[case]


def test_metric_csvs(tmp_path):
    cases = {c[0]: c[1:5] for c in CASES}
    for case, pins in FILE_PINS.items():
        scenario, scheme, seed, overrides = cases[case]
        resolved = config.resolve(None, overrides, scenario=scenario, scheme=scheme, seed=seed)
        result = engine.run(config.build_run_config(resolved))
        out = tmp_path / case
        cli.write_outputs(out, resolved, result)
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in pins}
        assert got == pins, case
