import collections
import tracemalloc

import numpy as np
import pytest

import oracles
from cv2xsim import config, dcc, engine, mac_sps, metrics, mobility
from cv2xsim.channel import ChannelModel, Outcome
from cv2xsim.dcc import RangeControlConfig, RateControlConfig
from cv2xsim.engine import RunConfig, Simulation, run
from cv2xsim.mac_sps import SensingStore
from cv2xsim.mobility import Fleet, ScenarioConfig


def quiet_channel():
    return ChannelModel(shadowing_sigma_db=0.0)


def make_cfg(preset, scheme="baseline", seed=1, duration=2.0, warmup=1.0, **kw):
    """A RunConfig over `preset` with the rate and range configs that
    `scheme` resolves to; `rate=` and `range=` in `kw` replace them."""
    built = config.build_run_config(config.resolve(scheme=scheme))
    kw = {"rate": built.rate, "range": built.range, **kw}
    return RunConfig(scenario=preset, duration_s=duration, warmup_s=warmup, seed=seed, **kw)


def stationary(positions):
    """A fleet parked at (x, lane) positions."""
    xs, lanes = zip(*positions)
    return Fleet(xs, lanes, [0.0] * len(xs), [0.0] * len(xs))


class TestSingleUe:
    def test_ten_transmissions_per_second(self):
        preset = ScenarioConfig(1, 0.0, road_length_km=1.0, lanes=2, region="full")
        cfg = make_cfg(preset, duration=1.0, warmup=0.5, seed=3, channel=quiet_channel())
        fleet = stationary([(500.0, 0)])
        res = run(cfg, fleet)
        events = res.event_log.tx_events
        # pinned seed gives a first grant inside the first 100 ms
        assert events["subframe"][0] <= 99
        assert len(events) == 10
        gaps = np.diff(events["subframe"])
        assert np.all(gaps == 100)
        assert np.all(events["n_decoded"] == 0)    # nobody else to receive


class TestTwoUes:
    def build(self, seed=2, duration=20.0):
        preset = ScenarioConfig(2, 0.0, road_length_km=1.0, lanes=2, region="full")
        cfg = make_cfg(preset, duration=duration, warmup=10.0, seed=seed,
                       channel=quiet_channel())
        fleet = stationary([(400.0, 0), (450.0, 0)])
        return run(cfg, fleet)

    def test_clean_pair_delivery(self):
        res = self.build()
        # check the pinned seed never put both grants in the same subframe
        by_subframe = collections.Counter(res.event_log.tx_events["subframe"].tolist())
        assert all(v == 1 for v in by_subframe.values())
        rows = metrics.pdr(res.metrics)
        assert rows, "expected post-warmup traffic"
        for row in rows:
            assert row.value == 1.0
        stats = metrics.ipg_stats(res.metrics)
        mean_gap = float(np.average(stats.ecdf_gaps_ms, weights=stats.ecdf_counts))
        assert mean_gap == pytest.approx(100.0, abs=2.0)


def resolved_links(cfg, monkeypatch):
    """Run `cfg` and capture, per flush, the subframe and UE of each
    transmission and its (transmission, UE) outcome array, as the engine's
    `resolve_subframe` returns them; with the run's result."""
    resolve = engine.resolve_subframe
    batches = []

    def capture(tx_sf, tx_ue, *args):
        res = resolve(tx_sf, tx_ue, *args)
        batches.append((tx_sf, tx_ue, res.outcome))
        return res

    monkeypatch.setattr(engine, "resolve_subframe", capture)
    return run(cfg), batches


class TestHalfDuplexLog:
    """A UE that sends in a subframe hears nobody in it.  A busy ring, so
    that UEs share subframes (a two-UE run never does, see TestTwoUes)."""

    @pytest.fixture(scope="class")
    def links(self):
        """(outcome, whether the receiver also sent in that subframe) per
        link to another UE."""
        preset = ScenarioConfig(30, 30.0, road_length_km=0.4, lanes=4,
                                wraparound=True, region="full")
        with pytest.MonkeyPatch.context() as monkeypatch:
            res, batches = resolved_links(make_cfg(preset, duration=1.0, warmup=0.5, seed=8),
                                          monkeypatch)
        out = []
        for tx_sf, tx_ue, outcome in batches:
            sent = set(zip(tx_sf.tolist(), tx_ue.tolist()))
            for t, (sf, ue) in enumerate(zip(tx_sf.tolist(), tx_ue.tolist())):
                out += [(o, (sf, r) in sent) for r, o in enumerate(outcome[t].tolist())
                        if r != ue]
        assert len(out) == len(res.event_log.tx_events) * (res.n_ue - 1)
        return out

    def test_half_duplex_detectable_in_log(self, links):
        assert any(also_sent for _, also_sent in links)
        for outcome, also_sent in links:
            if also_sent:
                assert outcome == Outcome.HALF_DUPLEX_BLOCKED

    def test_transmitter_never_decodes_same_subframe(self, links):
        busy = [outcome for outcome, also_sent in links if also_sent]
        assert busy and Outcome.DECODED not in busy


class TestDeterminism:
    PRESET = ScenarioConfig(12, 50.0, road_length_km=1.2, lanes=4,
                            wraparound=True, region="full")

    def test_identical_seed_identical_log(self):
        a = run(make_cfg(self.PRESET, "dcc-std", seed=5, duration=3.0, warmup=1.0))
        b = run(make_cfg(self.PRESET, "dcc-std", seed=5, duration=3.0, warmup=1.0))
        assert a.event_log.digest() == b.event_log.digest()
        assert a.timeseries == b.timeseries

    def test_seed_changes_log(self):
        a = run(make_cfg(self.PRESET, "dcc-std", seed=5, duration=3.0, warmup=1.0))
        b = run(make_cfg(self.PRESET, "dcc-std", seed=6, duration=3.0, warmup=1.0))
        assert a.event_log.digest() != b.event_log.digest()


class TestEngineInvariants:
    def test_one_transmission_per_ue_per_subframe(self):
        preset = ScenarioConfig(30, 30.0, road_length_km=0.4, lanes=4,
                                wraparound=True, region="full")
        res = run(make_cfg(preset, duration=3.0, warmup=1.0, seed=8))
        events = res.event_log.tx_events
        pairs = list(zip(events["subframe"].tolist(), events["ue"].tolist()))
        assert len(set(pairs)) == len(pairs)

    def test_subframe_stamps_non_decreasing(self):
        preset = ScenarioConfig(20, 30.0, road_length_km=0.4, lanes=4,
                                wraparound=True, region="full")
        res = run(make_cfg(preset, duration=2.0, warmup=1.0, seed=8))
        stamps = res.event_log.tx_events["subframe"].tolist()
        assert stamps == sorted(stamps)

    def test_metrics_only_from_region_transmitters(self):
        # middle third of a 3 km road is [1000, 2000]
        preset = ScenarioConfig(4, 0.0, road_length_km=3.0, lanes=2,
                                region="middle-third")
        cfg = make_cfg(preset, duration=3.0, warmup=1.0, seed=4, channel=quiet_channel())
        fleet = stationary([(100.0, 0), (150.0, 0), (1500.0, 0), (1550.0, 0)])
        res = run(cfg, fleet)
        attempts = oracles.dense_counts(res.metrics)[0].sum(axis=1).reshape(4, 4)
        assert attempts[0].sum() == 0 and attempts[1].sum() == 0    # outside the region
        assert attempts[2].sum() > 0 and attempts[3].sum() > 0

    def test_region_bounds_are_inclusive(self):
        # the middle third of the 3.6 km road is [1200, 2400]
        preset = ScenarioConfig(5, 0.0, lanes=2, region="middle-third")
        cfg = make_cfg(preset, duration=2.0, warmup=1.0, seed=4, channel=quiet_channel())
        xs = [1800.0, 500.0, 1200.0, 2400.0, 2400.1]
        res = run(cfg, stationary([(x, 0) for x in xs]))
        attempts = oracles.dense_counts(res.metrics)[0].sum(axis=1).reshape(5, 5).sum(axis=1)
        assert (attempts > 0).tolist() == [True, False, True, True, False]

    def test_full_region_covers_the_whole_ring(self):
        preset = ScenarioConfig(2, 0.0, road_length_km=1.2, lanes=2,
                                wraparound=True, region="full")
        cfg = make_cfg(preset, duration=2.0, warmup=1.0, seed=4, channel=quiet_channel())
        res = run(cfg, stationary([(0.0, 0), (1199.0, 0)]))
        attempts = oracles.dense_counts(res.metrics)[0].sum(axis=1).reshape(2, 2)
        assert attempts[0, 1] > 0 and attempts[1, 0] > 0

    def test_queue_delay_logged_and_mostly_zero(self):
        # the cadence matches the grant period, so delay is zero except for the
        # one re-aligning transmission right after each reselection
        preset = ScenarioConfig(2, 0.0, road_length_km=1.0, lanes=2, region="full")
        cfg = make_cfg(preset, duration=5.0, warmup=1.0, seed=2, channel=quiet_channel())
        res = run(cfg, stationary([(400.0, 0), (450.0, 0)]))
        delays = res.event_log.tx_events["queue_delay_ms"].tolist()
        assert all(0 <= d <= 100 for d in delays)
        assert delays.count(0) / len(delays) > 0.8

    def test_saturated_pool_produces_collisions(self):
        # more UEs than schedulable resources: pigeonhole forces collisions
        preset = ScenarioConfig(210, 15.0, road_length_km=0.25, lanes=12,
                                wraparound=True, region="full")
        res = run(make_cfg(preset, duration=3.0, warmup=1.0, seed=1))
        assert res.event_log.tx_events["n_collided"].sum() > 0


class TestPteTrigger:
    @staticmethod
    def wobbly_pair(speed_sigma):
        # two same-direction neighbors whose rate control sits at the 600 ms
        # ceiling: only there can tracking error accrue between broadcasts
        preset = ScenarioConfig(2, 70.0, road_length_km=2.0, lanes=2,
                                wraparound=True, region="full",
                                speed_sigma=speed_sigma, speed_reversion=0.2)
        v = preset.speed_kmh / 3.6
        return preset, Fleet([500.0, 520.0], [0, 0], [v, v], [v, v])

    @staticmethod
    def dcc_pte(preset, **rate):
        return make_cfg(preset, duration=6.0, warmup=1.0, seed=12, channel=quiet_channel(),
                        rate=RateControlConfig(**rate), range=RangeControlConfig())

    def test_speed_perturbation_forces_extra_broadcasts(self):
        preset, fleet = self.wobbly_pair(speed_sigma=6.0)
        cfg = self.dcc_pte(preset, density_coefficient=0.01)
        res = run(cfg, fleet)
        per_ue = collections.Counter(res.event_log.tx_events["ue"].tolist())
        # the 600 ms cadence alone would give roughly ten broadcasts per UE
        assert max(per_ue.values()) > 15
        gaps = collections.defaultdict(list)
        for ue, sf in zip(res.event_log.tx_events["ue"].tolist(),
                          res.event_log.tx_events["subframe"].tolist()):
            gaps[ue].append(sf)
        assert any(np.min(np.diff(g)) < 300 for g in gaps.values() if len(g) > 1)

    def test_constant_speed_never_triggers(self):
        preset, fleet = self.wobbly_pair(speed_sigma=0.0)
        cfg = self.dcc_pte(preset, density_coefficient=0.01)
        res = run(cfg, fleet)
        per_ue = collections.Counter(res.event_log.tx_events["ue"].tolist())
        assert max(per_ue.values()) <= 11

    def test_disabled_trigger_ignores_tracking_error(self):
        preset, fleet = self.wobbly_pair(speed_sigma=6.0)
        cfg = self.dcc_pte(preset, density_coefficient=0.01, pte_enabled=False)
        res = run(cfg, fleet)
        per_ue = collections.Counter(res.event_log.tx_events["ue"].tolist())
        assert max(per_ue.values()) <= 11

    def test_no_perturbation_means_no_extra_traffic(self):
        preset = ScenarioConfig(2, 70.0, road_length_km=2.0, lanes=2,
                                wraparound=True, region="full")
        cfg = self.dcc_pte(preset)
        res = run(cfg)
        per_ue = collections.Counter(res.event_log.tx_events["ue"].tolist())
        assert max(per_ue.values()) <= 61


class TestRateTimer:
    def test_packet_meets_a_grant_whose_period_rounds_down(self):
        # three parked neighbors (two each) smooth to 1.5 at 1 s: an ITT of
        # 115.38 ms and a grant period of 115.  The packet must be released
        # by the grant's occurrence, not one subframe after it, where it
        # would wait out a whole period.
        preset = ScenarioConfig(3, 0.0, road_length_km=1.0, lanes=2, region="full")
        cfg = make_cfg(preset, duration=2.0, warmup=1.0, seed=3, channel=quiet_channel(),
                       rate=RateControlConfig(density_coefficient=1.3))
        events = run(cfg, stationary([(100.0, 0), (140.0, 0), (180.0, 0)])).event_log.tx_events
        late = events[events["subframe"] >= 1300]
        assert np.all(late["period_ms"] == 115)
        assert np.all(late["queue_delay_ms"] == 0)
        for ue in range(3):
            assert set(np.diff(late["subframe"][late["ue"] == ue]).tolist()) == {115}


class TestCrLimit:
    def test_occupancy_cap_skips_transmissions(self):
        preset = ScenarioConfig(3, 0.0, road_length_km=1.0, lanes=2, region="full")
        base = make_cfg(preset, duration=4.0, warmup=1.0, seed=3, channel=quiet_channel())
        free = run(base, stationary([(100.0, 0), (150.0, 0), (200.0, 0)]))
        capped_cfg = make_cfg(preset, duration=4.0, warmup=1.0, seed=3,
                              channel=quiet_channel(),
                              cr=mac_sps.CrConfig(cbp_limit=0.0001, calibration="0:1000,1:1000"))
        capped = run(capped_cfg, stationary([(100.0, 0), (150.0, 0), (200.0, 0)]))
        assert len(capped.event_log.tx_events) < len(free.event_log.tx_events)


def test_outcome_counts_match_resolved_links(monkeypatch):
    # each tx row's four counts tally its links' outcomes, the self link
    # excluded, one per other UE
    resolved = config.resolve(None, {"run.duration_s": "1.0", "run.warmup_s": "0.5"},
                              scenario="mini-oversat", scheme="baseline", seed=1)
    res, batches = resolved_links(config.build_run_config(resolved), monkeypatch)
    # the channel takes each batch's rows by (subframe, subchannel) and the
    # log keeps them in the engine's order, by UE within a subframe
    log_order = [np.lexsort((ue, sf)) for sf, ue, _ in batches]
    outcome = np.concatenate([o[r] for (_, _, o), r in zip(batches, log_order)])
    tx_ue = np.concatenate([ue[r] for (_, ue, _), r in zip(batches, log_order)])
    k = len(outcome)
    tally = np.stack([np.count_nonzero(outcome == code, axis=1) for code in
                      (Outcome.DECODED, Outcome.COLLIDED, Outcome.BELOW_SENSITIVITY,
                       Outcome.HALF_DUPLEX_BLOCKED)], axis=1)
    assert np.all(outcome[np.arange(k), tx_ue] == Outcome.HALF_DUPLEX_BLOCKED)
    tally[:, Outcome.HALF_DUPLEX_BLOCKED] -= 1   # the self link
    events = res.event_log.tx_events
    counts = np.stack([events[f] for f in ("n_decoded", "n_collided", "n_below_sensitivity",
                                           "n_half_duplex")], axis=1)
    assert np.array_equal(events["ue"], tx_ue)
    assert np.array_equal(counts, tally)
    assert np.all(counts.sum(axis=1) == res.n_ue - 1)
    assert tally[:, Outcome.HALF_DUPLEX_BLOCKED].any()


def test_every_read_finds_the_store_recorded_up_to_it(monkeypatch):
    # the queued subframes are resolved before each selection, CBP
    # measurement (at 70 ms, so most fall between mobility ticks) and CR
    # check reads the store, and before each mobility tick moves the vehicles
    resolved = config.resolve(None, {"run.duration_s": "1.0", "run.warmup_s": "0.5",
                                     "run.power_period_ms": "70", "cr.cbp_limit": "0.6"},
                              scenario="mini-oversat", scheme="dcc-7", seed=1)
    sim = Simulation(config.build_run_config(resolved))
    reads = collections.Counter()

    def checked(name, fn):
        def read(*args, **kwargs):
            n = args[1]
            assert sim.store.newest == n - 1 and not sim._queued, (name, n)
            reads[name] += 1
            return fn(*args, **kwargs)
        return read

    def checked_step(*args):
        assert not sim._queued and sim.store.newest % sim.cfg.mobility_tick_ms == \
            sim.cfg.mobility_tick_ms - 1
        reads["mobility"] += 1
        return step(*args)

    step = mobility.step
    monkeypatch.setattr(mobility, "step", checked_step)
    monkeypatch.setattr(mac_sps, "select_candidates",
                        checked("select", mac_sps.select_candidates))
    for name in ("cbp_counts", "own_tx_counts"):
        monkeypatch.setattr(SensingStore, name, checked(name, getattr(SensingStore, name)))
    sim.run()
    assert min(reads[name] for name in ("select", "cbp_counts", "own_tx_counts", "mobility")) > 0
    assert sim.store.newest == sim.total_sf - 1


def test_sensing_window_shorter_than_the_mobility_tick(monkeypatch):
    # a 30-subframe ring under the 100 ms tick: batches end where the ring
    # would wrap onto them, and resolving each subframe alone changes nothing
    resolved = config.resolve(None, {"run.duration_s": "1.0", "run.warmup_s": "0.5",
                                     "sps.sensing_window_sf": "30", "run.cbp_window_ms": "30"},
                              scenario="mini-low", scheme="baseline", seed=1)
    sim = Simulation(config.build_run_config(resolved))
    res = sim.run()
    assert sim.store.newest == sim.total_sf - 1
    assert sorted(sim.store.row_subframe.tolist()) == list(range(sim.total_sf - 30, sim.total_sf))
    monkeypatch.setattr(engine, "_BATCH_LINKS", 1)
    assert run(config.build_run_config(resolved)).event_log.digest() == res.event_log.digest()


def test_config_validation():
    preset = ScenarioConfig(2, 10.0, road_length_km=1.0, lanes=2)
    with pytest.raises(ValueError, match="run.warmup_s"):
        make_cfg(preset, duration=1.0, warmup=2.0)
    with pytest.raises(ValueError, match="run.subchannels"):
        make_cfg(preset, duration=2.0, warmup=1.0, subchannels=0)


@pytest.mark.parametrize("shadowing", ["iid", "static"])
@pytest.mark.parametrize("scenario", ["mini-low", "urban-medium"])
def test_memory_estimate_covers_scale_state(scenario, shadowing):
    # the arrays sized by the vehicle count, as a Simulation holds them after
    # its first ROI tick, plus the traced peaks of the one-shot distance builds,
    # of one flush of a batch at the link cap, every link after the warm-up,
    # and of the output pass after a short run (several ranges on urban-medium)
    short = engine.run(config.build_run_config(config.resolve(
        overrides={"channel.shadowing_mode": shadowing, "run.duration_s": "1.2",
                   "run.warmup_s": "1.0"}, scenario=scenario)))
    tracemalloc.start()
    metrics.slt(short.metrics, short.observation_s)
    metrics.pdr(short.metrics)
    metrics.blind_nodes(short.metrics)
    pass_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert metrics.pass_bytes(short.n_ue) >= pass_peak

    cfg = config.build_run_config(config.resolve(
        overrides={"channel.shadowing_mode": shadowing, "run.warmup_s": "0"},
        scenario=scenario))
    sim = Simulation(cfg)
    store, ledger = sim.store, sim.metrics
    tracemalloc.start()
    ledger.update_roi(sim.x, sim.y, sim.geometry)
    dcc.neighbor_counts(sim.x, sim.y, sim.geometry, cfg.rate.neighbor_radius_m)
    build_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    k = min(sim.n_ue, max(1, engine._BATCH_LINKS // sim.n_ue // 4))
    n = 0
    while (n + 1) * k * sim.n_ue <= engine._BATCH_LINKS:
        tx_ue = np.sort(np.random.default_rng(n).choice(sim.n_ue, k, replace=False))
        sim._queue(n, tx_ue, sim.grants.subchannel[tx_ue], np.full(k, 100))
        n += 1
    assert sim._queued_links > engine._BATCH_LINKS - k * sim.n_ue
    tracemalloc.start()
    sim._flush(n)
    flush_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(sim.log.tx_events) == n * k

    held = [store.srssi_mw, store.sensed, store.reservations, store.period_sf,
            store.row_subframe, ledger.last_rx_ms, ledger.roi_pairs, ledger._bin, ledger._tx,
            ledger._rx]
    if shadowing == "static":
        held.append(sim.static_shadow)
    assert build_peak >= 2 * 8 * sim.n_ue ** 2
    assert cfg.memory_estimate_mib() * 2 ** 20 >= \
        sum(a.nbytes for a in held) + build_peak + flush_peak + pass_peak


def test_baseline_rate_ceiling_acts():
    # baseline is a point of the rate space (a 100 ms ceiling), so raising
    # its ceiling lets the dense ring's ITT stretch (halved first sample:
    # smoothing starts from a count of 0)
    def first_itt(overrides):
        resolved = config.resolve(None, {"run.duration_s": "0.3", "run.warmup_s": "0.1",
                                         **overrides}, scenario="mini-oversat", scheme="baseline")
        return run(config.build_run_config(resolved)).timeseries[0][3]

    assert first_itt({}) == 100.0
    assert first_itt({"rate.itt_max_ms": "600"}) > 300.0
