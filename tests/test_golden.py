"""Golden behaviour lock: pinned event-log digests of short seeded runs.

Each case exercises one path of the simulator (shadowing mode, fading, CR
limit, rate control with speed perturbation, an oversaturated ring, short
reselection counters on it, a straight road whose metrics come only from
its middle-third region, a straight road whose perturbed vehicles respawn
at its ends, held grants that see the ITT change, and tracking packets
whose held grant is too far away, so it is dropped and reselected).
The output files of the first case and of the first straight road are
pinned byte for byte as well, the gap and transmission files of the
held-grant case, and the distance-binned files of the two perturbed-speed
cases, whose pairs come back to bins they left.
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
# long enough for a second density sample to move the ITT under held grants
ITT_CHANGE = {"run.duration_s": "2.5", "run.warmup_s": "1.0"}

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
    ("dcc7-speed-sigma", "mini-low", "dcc-7", 1,
     {**SHORT, "scenario.speed_sigma": "1.0"},
     "33176a48bffdab4d0c090bb2deea5137db21b6f4967e5e43a3c00b51689f3c99"),
    ("mini-oversat-baseline", "mini-oversat", "baseline", 1, SHORT_OVERSAT,
     "7a7f193915b981dcf4434e15ec4f356b81f8610ec3c265aa5879b16bc72e2825"),
    ("cr-limit", "mini-oversat", "baseline", 1,
     {**SHORT_OVERSAT, "cr.cbp_limit": "0.6"},
     "54c8f506e2e68cb054cd7df38fbeaaa2e2b289b14172d37969577bf4f3015510"),
    # short counters on a saturated ring: 400 initial and 115 counter-expiry
    # selections
    ("mini-oversat-dcc7", "mini-oversat", "dcc-7", 3, SHORT_OVERSAT,
     "de73c6eb20f14fcb3152fbec7f6bd06630f41031865b8d4a596b9f485c055dcc"),
    ("straight-road-middle-third", "freeway-high", "dcc-std", 1, SHORT_ROAD,
     "851385b9cb37a13b0bb77a4954deb7da78d0af2d09b9223f4f6bf2b3ef0438e7"),
    # speed perturbation together with respawns (4 in this run)
    ("straight-road-speed-sigma", "freeway-high", "dcc-7", 1,
     {**SHORT_ROAD, "scenario.speed_sigma": "1.0"},
     "b3e86c817ea0e03ef0807e92d0e4795633eca74f600cbcef67df4a28d8391e45"),
    # grant periods of 348-446 ms in the first second and 523-600 ms after,
    # so packets queue behind grants held across the ITT change
    ("itt-change-held-grants", "mini-oversat", "dcc-std", 1, ITT_CHANGE,
     "cd7a95237e37dce9db0b9545dbfd2c0436883e559904d20723d507a03939ea77"),
    # 400 initial selections and 31 grants dropped for a tracking packet
    # (held more than rate.pte_wait_limit_ms away), no counter expiry
    ("tracking-drops-grant", "mini-oversat", "dcc-std", 1,
     {**SHORT, "scenario.speed_sigma": "1.0"},
     "20d41816a397f0e395add3784e50edce20b0b46aad22c1391235c7e2863ae7a6"),
]

# sha256 of the files that `cli.write_outputs` writes, per case.  All but
# manifest.json (it carries the version) for mini-low-baseline; the CSVs for
# the straight road, whose metrics only its region's transmitters feed and
# whose range control writes powers other than 23 dBm into txevents.csv; the
# gaps and transmissions of the held grants, whose ITT is not 100 ms; the
# distance-binned files of the two perturbed-speed cases, where pairs come
# back to a bin they left (39 pairs on the straight road, 7 on the ring), so
# a bin adds up two or more cells of one pair.
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
    "dcc7-speed-sigma": {
        "pdr_vs_distance.csv": "ffa7c25e35d2417c1cd12c5d991018f714c4eed6fe01b2257464393f6716e162",
        "slt_vs_distance.csv": "aafb669742d9217dd2fa7351d1fd86d27eec6d97e01bc4fe27ee61e18cb7f91c",
        "blind_nodes.csv": "c94f96d505a3c7830b105e2480e702b9e3d645c5273ab895d455062c0ac6dde3",
    },
    "straight-road-speed-sigma": {
        "pdr_vs_distance.csv": "332e2a57ed5097787facb3727567a613ca2cf960dec3cfbd3f69865d47fd8eff",
        "slt_vs_distance.csv": "95b57ff3989fa6e9f5b2660a99e9a3b3f2a75e6d1ef66be8dbb01b0ad86f2a80",
        "blind_nodes.csv": "9675de08b397daeed5dd598e1c9ca3f51c4b8693e86c0f2be8c658882b98ba15",
    },
    "itt-change-held-grants": {
        "ipg.csv": "46c65849a7ed130423fadeddea016878cc8dac9a3871bbb11783856b67e4e29a",
        "txevents.csv": "53275cc7b32dbb95fa325dc9a03558abb72415b661a451727de507d896ac368b",
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
