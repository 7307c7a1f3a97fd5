import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sensing import NO_DECODES, NOISE_MW, build_window, recorded_count

from cv2xsim.core import RngStream
from cv2xsim.mac_sps import (SensingStore, SensingWindow, SpsConfig,
                             _rank_metric, compute_cr, cr_limit, on_transmission,
                             select_candidates, select_resource)


# ---------------------------------------------------------------------------
# sensing window bookkeeping

class TestSensingWindow:
    """Sensing-span bookkeeping of the store behind every SensingWindow."""

    def test_single_measurement(self):
        w = build_window([(0, (-80.0, -100.0), True, [])], span=10)
        assert recorded_count(w.store) == 1

    def test_ring_eviction_keeps_span(self):
        rows = [(n, (-80.0, -100.0), True, []) for n in range(11)]
        assert recorded_count(build_window(rows[:10], span=10).store) == 10
        store = build_window(rows, span=10).store
        assert recorded_count(store) == 10
        assert not store.recorded(0, 0).any()      # oldest evicted
        assert store.recorded(10, 10).any()

    def test_out_of_order_rejected(self):
        store = build_window([(5, (-80.0, -100.0), True, [])], span=10).store
        with pytest.raises(ValueError):
            store.record_subframe(4, np.full((1, 1, 2), NOISE_MW), np.array([[True]]),
                                  NO_DECODES)

    def test_own_transmission_marks_unsensed(self):
        store = build_window([(3, (-100.0, -100.0), False, [])], span=10).store
        assert not store.sensed[3, 0]
        assert recorded_count(store) == 1

    def test_reservation_eviction(self):
        rows = [(0, (-70.0, -100.0), True, [(0, 42, 5, -72.0)])]
        rows += [(n, (-90.0, -100.0), True, []) for n in range(1, 11)]
        assert len(oracles.reservation_records(build_window(rows[:1], span=10).store)) == 1
        store = build_window(rows, span=10).store
        assert oracles.reservation_records(store) == []
        assert not np.isfinite(store.reservations).any()    # overwritten by subframe 10

    def test_keep_threshold_compares_in_float64(self):
        # float32(-85.3000031) lies above -85.3000031: a reservation heard at
        # exactly that RSRP exceeds the threshold, so it must exempt the
        # resources it projects onto (subframes 5 and 10 on subchannel 0)
        th = -85.3000031
        assert float(np.float32(th)) > th
        cfg = toy_cfg(th_sps_dbm=th, keep_fraction=0.5, unsensed_exempt=False)
        projected = {(5, 0), (10, 0)}
        for rsrp, exempt in ((float(np.float32(th)), True), (-85.4, False)):
            # every S-RSSI at the noise floor: all survivors tie and are kept
            w = build_window([(0, (-100.0, -100.0), True, [(0, 42, 5, rsrp)])], span=10)
            result = select_candidates(w, 1, cfg, own_period_sf=100)
            assert result.escalations == 0
            picked = set(map(tuple, result.candidates.tolist()))
            assert len(picked) == result.pool_size - 2 * exempt
            assert not (projected & picked) if exempt else projected <= picked


# ---------------------------------------------------------------------------
# reselection counter lifecycle

class TestOnTransmission:
    CFG = SpsConfig()

    def test_plain_decrement(self):
        assert on_transmission(5, RngStream(1, "sps", 0), self.CFG) == 4

    def test_forced_change(self):
        cfg = SpsConfig(p_resel=1.0)
        for seed in range(20):
            assert on_transmission(1, RngStream(seed, "sps"), cfg) is None

    def test_expiry_draws_fresh_counter(self):
        cfg = SpsConfig(p_resel=0.0)
        for seed in range(20):
            out = on_transmission(1, RngStream(seed, "sps"), cfg)
            assert out is not None and cfg.slrrc_min <= out <= cfg.slrrc_max

    def test_change_probability_monte_carlo(self):
        cfg = SpsConfig(p_resel=0.2)
        rng = RngStream(9, "sps")
        trials = 100_000
        changed = sum(on_transmission(1, rng, cfg) is None
                      for _ in range(trials))
        assert changed / trials == pytest.approx(0.2, abs=0.01)

    def test_expired_counter_rejected(self):
        with pytest.raises(ValueError):
            on_transmission(0, RngStream(1, "sps"), self.CFG)

    def test_expected_transmissions_per_reservation(self):
        # mean grant lifetime = E[slrrc] / p_resel
        cfg = SpsConfig(slrrc_min=5, slrrc_max=15, p_resel=0.2)
        rng = RngStream(4, "sps")
        total = 0
        lifetimes = 10_000
        for _ in range(lifetimes):
            slrrc = rng.randint(cfg.slrrc_min, cfg.slrrc_max)
            while True:
                total += 1
                slrrc = on_transmission(slrrc, rng, cfg)
                if slrrc is None:
                    break
        expected = 10.0 / 0.2
        assert total / lifetimes == pytest.approx(expected, rel=0.05)


# ---------------------------------------------------------------------------
# channel-occupancy ratio and its limit

def own_tx_store(n, times, span=1000, n_subch=1):
    """A store that recorded subframes 0..n-1 as the engine does, in batches
    of up to a span: each UE unsensed exactly where it transmitted, at the
    subframes in times[ue]."""
    store = SensingStore(len(times), n_subch, span, NOISE_MW)
    for lo in range(0, n, span):
        sensed = np.array([[j not in t for t in times] for j in range(lo, min(lo + span, n))])
        store.record_subframe(lo, np.full(sensed.shape + (n_subch,), NOISE_MW), sensed,
                              NO_DECODES)
    return store


CALIBRATION = (np.array([0.0, 1.0]), np.array([0.0, 200.0]))


class TestComputeCr:
    def test_zero_usage(self):
        # no past transmission: the grant's occurrences in [n, n+250) alone
        assert compute_cr([0, 0], [1000, 1], 2).tolist() == [1 / 2000, 250 / 2000]

    def test_direct_count(self):
        # the past part of the window is [n-750, n-1]: n-750 counts, n-751 does not
        store = own_tx_store(1000, [{249, 250, 251, 900, 999}, set()])
        assert store.own_tx_counts(1000, np.array([0, 1])).tolist() == [4, 0]
        assert compute_cr(store.own_tx_counts(1000, np.array([0])), [1000], 2) \
            == pytest.approx((4 + 1) / 2000)

    def test_periodic_steady_state(self):
        # one subchannel every 100 subframes -> 10 slots per window
        store = own_tx_store(1000, [set(range(0, 1000, 100))])
        assert compute_cr(store.own_tx_counts(1000, np.array([0])), [100], 2) \
            == pytest.approx(0.005)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            compute_cr([0], [0], 2)
        with pytest.raises(ValueError):
            compute_cr([0], [100], 0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(750, 1000), st.data())
    def test_randomized_against_direct_count(self, span, data):
        # n before the window is full, or near the first and second ring wrap
        n = data.draw(st.one_of(st.integers(0, 749), st.integers(span - 2, span + 2),
                                st.integers(2 * span - 2, 2 * span + 2)))
        ages = st.one_of(st.integers(749, 752), st.integers(1, 1000))
        times = [sorted({n - a for a in data.draw(st.lists(ages, max_size=30)) if a <= n})
                 for _ in range(3)]
        ues = np.array(data.draw(st.permutations(range(3))))
        periods = data.draw(st.lists(st.integers(1, 300), min_size=3, max_size=3))
        n_subch = data.draw(st.integers(1, 4))
        store = own_tx_store(n, [set(t) for t in times], span)
        got = compute_cr(store.own_tx_counts(n, ues), periods, n_subch)
        assert got.tolist() == [oracles.compute_cr(n, times[ue], period, n_subch)
                                for ue, period in zip(ues.tolist(), periods)]
        assert np.all((0.0 <= got) & (got <= 1.0))


class TestCrLimit:
    def test_inactive_below_limit(self):
        assert cr_limit([0.0, 0.5, 0.6], 0.6, CALIBRATION).tolist() == [1.0, 1.0, 1.0]

    def test_direct_substitution(self):
        flat = (np.array([0.0, 1.0]), np.array([120.0, 120.0]))
        assert cr_limit([0.8], 0.6, flat)[0] == pytest.approx(0.005)

    def test_with_calibration_table(self):
        # 0.8 maps to 160 vehicles; the UE below the limit stays uncapped
        assert cr_limit([0.8, 0.5], 0.6, CALIBRATION).tolist() == \
            pytest.approx([0.00375, 1.0])

    def test_zero_density_rejected(self):
        with pytest.raises(ValueError):
            cr_limit([0.8], 0.6, (np.array([0.0, 1.0]), np.array([0.0, 0.0])))
        with pytest.raises(ValueError):
            cr_limit([1.5], 0.6, CALIBRATION)


# ---------------------------------------------------------------------------
# resource selection: spec cases plus brute-force oracle equivalence

def toy_cfg(**kw):
    base = dict(t1_sf=1, t2_sf=10, th_sps_dbm=-85.0, sensing_window_sf=30,
                keep_fraction=0.2, rank_period_sf=5)
    base.update(kw)
    return SpsConfig(**base)


def oracle_candidates(window, n, cfg, n_subch, own_period_sf):
    """Independent enumeration of the selection pipeline, candidate by candidate."""
    store, ue = window.store, window.ue_index
    lo, hi = n + cfg.t1_sf, n + cfg.t2_sf
    pool = [(t, c) for t in range(lo, hi + 1) for c in range(n_subch)]
    need = math.ceil(cfg.keep_fraction * len(pool))
    oldest = max(0, store.newest - store.span + 1)

    heard = [(rec.subframe, rec.subchannel, rec.period_sf, rec.rsrp_dbm)
             for rec in oracles.reservation_records(store)
             if oldest <= rec.subframe < n and rec.receiver == ue]
    unsensed = [j for j in range(oldest, n)
                if store.row_subframe[j % store.span] == j and not store.sensed[j % store.span, ue]]

    def is_exempt(t, c, th):
        for j, jc, period, rsrp in heard:
            if jc == c and rsrp > th and t > j and (t - j) % period == 0:
                return True
        if cfg.unsensed_exempt:
            for j in unsensed:
                if t > j and (t - j) % own_period_sf == 0:
                    return True
        return False

    th = cfg.th_sps_dbm
    while True:
        survivors = [(t, c) for t, c in pool if not is_exempt(t, c, th)]
        if len(survivors) >= need:
            break
        if not any(rsrp > th for _, _, _, rsrp in heard):
            survivors = list(pool)
            break
        th += 3.0

    def avg_rssi(t, c):
        vals = []
        m = 1
        while t - m * cfg.rank_period_sf >= oldest:
            j = t - m * cfg.rank_period_sf
            if j <= n - 1:
                row = j % store.span
                if store.row_subframe[row] == j and store.sensed[row, ue]:
                    v = float(store.srssi_mw[row, ue, c])
                    vals.append(v if cfg.rank_average == "mw" else 10.0 * math.log10(v))
            m += 1
        if not vals:
            return store.noise_mw if cfg.rank_average == "mw" else 10.0 * math.log10(store.noise_mw)
        return sum(vals) / len(vals)

    scored = sorted((avg_rssi(t, c), t, c) for t, c in survivors)
    cut = scored[min(need, len(scored)) - 1][0]
    return {(t, c) for a, t, c in scored if a <= cut}


def random_instance(rnd):
    span = rnd.randint(15, 30)
    n_subch = 2
    cfg = toy_cfg(t2_sf=rnd.randint(5, 10), sensing_window_sf=span,
                  rank_period_sf=rnd.choice([3, 5, 7]),
                  unsensed_exempt=rnd.random() < 0.8,
                  rank_average=rnd.choice(["mw", "db"]))
    own_period = rnd.choice([3, 5, 10])
    saturate = rnd.random() < 0.25
    records = []
    newest = span - 1
    for n in range(newest + 1):
        if rnd.random() < 0.1:
            continue    # gap: subframe never observed
        sensed = rnd.random() > 0.15
        srssi = (rnd.uniform(-99.0, -60.0), rnd.uniform(-99.0, -60.0))
        strongest = {}      # the UE decodes at most one transmission per subchannel
        if sensed:
            k = rnd.choice([0, 0, 0, 1, 1, 2]) if not saturate else rnd.choice([1, 2])
            for _ in range(k):
                period = rnd.choice([1, 2] if saturate else [2, 3, 5, 7, 10])
                rsrp = rnd.uniform(-70.0, -55.0) if saturate else rnd.uniform(-110.0, -60.0)
                subch, source = rnd.randrange(n_subch), rnd.randrange(50)
                if subch not in strongest or rsrp > strongest[subch][3]:
                    strongest[subch] = (subch, source, period, rsrp)
        records.append((n, srssi, sensed, list(strongest.values())))
    return build_window(records, span, n_subch), newest + 1, cfg, n_subch, own_period


class TestSelection:
    def test_empty_window_offers_whole_pool(self):
        w = SensingWindow(SensingStore(1, 2, 1000, NOISE_MW), 0)
        cfg = SpsConfig()
        result = select_candidates(w, 0, cfg, own_period_sf=100)
        assert result.pool_size == 200
        assert len(result.candidates) == 200
        assert result.escalations == 0
        # uniform choice over the whole pool: many distinct picks across draws
        rng = RngStream(3, "sps")
        picks = {select_resource(w, 0, cfg, rng, own_period_sf=100) for _ in range(600)}
        assert len(picks) > 150

    def test_selected_resource_inside_window(self):
        rnd = random.Random(5)
        for _ in range(50):
            w, n, cfg, n_subch, own = random_instance(rnd)
            subframe, subch = select_resource(w, n, cfg, RngStream(rnd.randrange(999), "sps"),
                                              own_period_sf=own)
            assert n + cfg.t1_sf <= subframe <= n + cfg.t2_sf
            assert 0 <= subch < n_subch

    def test_saturated_reservations_escalate(self):
        # period-1 reservations above threshold on both subchannels cover
        # every candidate, so at least one 3 dB raise must happen
        records = [(n, (-70.0, -70.0), True,
                    [(0, 7, 1, -60.0), (1, 8, 1, -60.0)] if n == 5 else [])
                   for n in range(10)]
        w = build_window(records, span=30)
        result = select_candidates(w, 10, toy_cfg(), own_period_sf=5)
        assert result.escalations >= 1
        assert result.threshold_dbm == pytest.approx(-85.0 + 3.0 * result.escalations)

    def test_escalation_steps_are_three_db(self):
        rnd = random.Random(11)
        seen = 0
        for _ in range(200):
            w, n, cfg, n_subch, own = random_instance(rnd)
            result = select_candidates(w, n, cfg, own_period_sf=own)
            assert result.threshold_dbm == pytest.approx(cfg.th_sps_dbm + 3.0 * result.escalations)
            seen += result.escalations > 0
        assert seen > 0

    def test_keep_size_with_distinct_rssi(self):
        # generic instances (continuous random RSSI) keep exactly
        # ceil(keep_fraction * pool) candidates when enough survive
        rnd = random.Random(23)
        for _ in range(100):
            w, n, cfg, n_subch, own = random_instance(rnd)
            result = select_candidates(w, n, cfg, own_period_sf=own)
            need = math.ceil(cfg.keep_fraction * result.pool_size)
            assert len(result.candidates) >= min(need, result.pool_size)

    def test_exempted_quiet_resource_is_skipped(self):
        # the quietest resource would win the ranking, but a decoded
        # reservation above threshold projects exactly onto it
        records = []
        for n in range(10):
            srssi = (-65.0, -65.0)
            reservations = []
            if n == 4:
                srssi = (-95.0, -65.0)               # subframe 14 ranks quietest via period 5
                reservations = [(0, 3, 5, -70.0)]    # and is reserved with period 5
            records.append((n, srssi, True, reservations))
        w = build_window(records, span=30)
        cfg = toy_cfg(rank_period_sf=5, unsensed_exempt=False)
        result = select_candidates(w, 10, cfg, own_period_sf=5)
        assert [14, 0] not in result.candidates.tolist()

    def test_unsensed_subframe_exempts_projection(self):
        records = []
        for n in range(10):
            sensed = n != 4
            records.append((n, (-65.0, -65.0), sensed, []))
        w = build_window(records, span=30)
        cfg = toy_cfg(unsensed_exempt=True)
        result = select_candidates(w, 10, cfg, own_period_sf=5)
        picked = set(map(tuple, result.candidates.tolist()))
        # 14 and 19 project onto the unsensed subframe 4 with period 5
        assert not ({(14, 0), (14, 1), (19, 0), (19, 1)} & picked)
        relaxed = select_candidates(w, 10, toy_cfg(unsensed_exempt=False), own_period_sf=5)
        assert len(relaxed.candidates) >= len(result.candidates)

    def test_malformed_inputs_fail_loudly(self):
        w = build_window([(0, (-70.0, -70.0), True, [(0, 7, 0, -60.0)])], span=30)
        with pytest.raises(ValueError, match="period"):
            select_candidates(w, 1, toy_cfg(), own_period_sf=100)

    def test_oracle_equivalence_quick(self):
        rnd = random.Random(99)
        escalated = 0
        for _ in range(200):
            w, n, cfg, n_subch, own = random_instance(rnd)
            result = select_candidates(w, n, cfg, own_period_sf=own)
            got = set(map(tuple, result.candidates.tolist()))
            want = oracle_candidates(w, n, cfg, n_subch, own)
            assert got == want
            escalated += result.escalations > 0
            choice = select_resource(w, n, cfg, RngStream(7, "sps"), own_period_sf=own)
            assert choice in want
        assert escalated > 0


def test_sps_config_validation():
    with pytest.raises(ValueError):
        SpsConfig(t1_sf=0)
    with pytest.raises(ValueError):
        SpsConfig(slrrc_min=10, slrrc_max=5)
    with pytest.raises(ValueError):
        SpsConfig(p_resel=1.5)
    with pytest.raises(ValueError):
        SpsConfig(rank_average="median")


# ---------------------------------------------------------------------------
# columnar store and array selection against the resource-by-resource reference

TH_CHOICES = [-85.0, -85.3, -85.3000031, -90.7, -79.9]


@st.composite
def sensing_histories(draw):
    """A store filled through record_subframe with a known list of decodes.

    Histories run past the span (eviction, ring reuse), skip subframes
    (gaps), leave subframes without transmissions (their rows must lose the
    decodes of one span earlier), leave UEs unsensed (half-duplex), draw
    periods up to several selection windows long, put RSRP values on and
    next to the float32 rounding of the threshold, and in saturated histories
    reserve almost everything above it so the threshold must escalate.  Each
    UE decodes at most one of the transmissions on a subchannel, as the
    channel does at SINR thresholds of 0 dB and above, so receivers of
    different transmissions on one subchannel hold different periods.
    """
    rnd = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    th = draw(st.sampled_from(TH_CHOICES))
    saturated = draw(st.booleans())
    cfg = toy_cfg(t1_sf=draw(st.integers(1, 3)), t2_sf=draw(st.integers(4, 14)),
                  th_sps_dbm=th, keep_fraction=draw(st.sampled_from([0.2, 0.5, 1.0])),
                  rank_period_sf=draw(st.integers(1, 9)),
                  rank_average=draw(st.sampled_from(["mw", "db"])),
                  unsensed_exempt=draw(st.booleans()))
    n_ue, n_subch = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    span = draw(st.integers(12, 40))
    near = [float(v) for v in (np.float32(th), np.nextafter(np.float32(th), np.float32(-np.inf)),
                               np.nextafter(np.float32(th), np.float32(np.inf)))]
    store = SensingStore(n_ue, n_subch, span, NOISE_MW)
    decodes = []      # (subframe, receiver, subchannel, period, rsrp) in that order
    last = rnd.randint(span // 2, 3 * span)
    levels = [-99.0, -90.0, -80.0, -70.0]
    for n in range(last + 1):
        if rnd.random() < 0.1:
            continue
        srssi = np.array([[10 ** (rnd.choice(levels + [rnd.uniform(-99.0, -60.0)]) / 10.0)
                           for _ in range(n_subch)] for _ in range(n_ue)])
        sensed = np.array([rnd.random() > 0.15 for _ in range(n_ue)])
        k = rnd.choice([1, 2, 3] if saturated else [0, 0, 0, 1, 2])
        subch = [rnd.randrange(n_subch) for _ in range(k)]
        period = [rnd.choice([1, 2] if saturated else [2, 3, 5, 7, 20, 50]) for _ in range(k)]
        heard = []
        for u in range(n_ue):
            for c in sorted(set(subch)):
                if rnd.random() < 0.7:
                    i = rnd.choice([i for i in range(k) if subch[i] == c])
                    rsrp = rnd.choice(near + [rnd.uniform(-70.0, -55.0) if saturated
                                              else rnd.uniform(-110.0, -60.0)])
                    heard.append((n, u, c, period[i], float(np.float32(rsrp))))
        # (subframe offset, receiver, subchannel, period, rsrp) columns
        columns = [np.array(col) for col in zip(*heard)]
        store.record_subframe(n, srssi[None], sensed[None],
                              (columns[0] - n, *columns[1:]) if heard else NO_DECODES)
        decodes += heard
    n = last + 1 + draw(st.integers(0, 2))
    ue = draw(st.integers(0, n_ue - 1))
    own_period = draw(st.integers(1, 3 * span))
    return store, decodes, n, ue, cfg, own_period


@settings(max_examples=150, deadline=None)
@given(sensing_histories())
def test_store_keeps_exactly_the_live_decodes(history):
    store, decodes, *_ = history
    horizon = store.newest - store.span
    assert oracles.reservation_records(store) == [d for d in decodes if d[0] > horizon]
    assert store.reservations.shape == store.period_sf.shape == store.srssi_mw.shape


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(2, 12), st.data())
def test_batched_record_matches_per_subframe_writes(n_ue, n_subch, span, data):
    """Consecutive subframes recorded a batch at a time, batches of 1 to
    `span` subframes that cross the ring's wrap and overwrite earlier
    decodes, leave every array as recording them one at a time does."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    first = data.draw(st.integers(0, 2 * span))
    count = data.draw(st.integers(1, 4 * span))
    srssi = NOISE_MW * rng.uniform(1.0, 1e4, size=(count, n_ue, n_subch))
    sensed = rng.random((count, n_ue)) < 0.8
    offset, rx, subch = np.nonzero(rng.random((count, n_ue, n_subch)) < 0.3)
    period = rng.integers(1, 50, size=offset.size)
    rsrp = rng.uniform(-110.0, -60.0, size=offset.size).astype(np.float32)
    batched, single = (SensingStore(n_ue, n_subch, span, NOISE_MW) for _ in range(2))
    lo = 0
    while lo < count:
        hi = min(count, lo + data.draw(st.integers(1, span)))
        at = (lo <= offset) & (offset < hi)
        batched.record_subframe(first + lo, srssi[lo:hi], sensed[lo:hi],
                                (offset[at] - lo, rx[at], subch[at], period[at], rsrp[at]))
        lo = hi
    for j in range(count):
        at = offset == j
        single.record_subframe(first + j, srssi[j:j + 1], sensed[j:j + 1],
                               (offset[at] - j, rx[at], subch[at], period[at], rsrp[at]))
    for name in ("srssi_mw", "sensed", "reservations", "period_sf", "row_subframe", "newest"):
        assert np.array_equal(getattr(batched, name), getattr(single, name)), name
    with pytest.raises(ValueError, match="1 to"):
        batched.record_subframe(first + count, np.zeros((span + 1, n_ue, n_subch)),
                                np.ones((span + 1, n_ue), dtype=bool), NO_DECODES)


@settings(max_examples=300, deadline=None)
@given(sensing_histories())
def test_selection_matches_reference(history):
    store, _, n, ue, cfg, own_period = history
    w = SensingWindow(store, ue)
    got = select_candidates(w, n, cfg, own_period_sf=own_period)
    want = oracles.select_candidates(w, n, cfg, own_period_sf=own_period)
    assert got.candidates.dtype == np.int64 and got.candidates.shape == (len(want.candidates), 2)
    assert list(map(tuple, got.candidates.tolist())) == want.candidates
    assert (got.escalations, got.threshold_dbm, got.pool_size) == \
        (want.escalations, want.threshold_dbm, want.pool_size)
    pick = select_resource(w, n, cfg, RngStream(7, "sps"), own_period_sf=own_period)
    assert pick == RngStream(7, "sps").choice(want.candidates)
    assert all(type(v) is int for v in pick)
    # every pool cell's ranking average, bit for bit
    ts = np.arange(n + cfg.t1_sf, n + cfg.t2_sf + 1)
    oldest = store.oldest_valid()
    metric = _rank_metric(store, ue, ts, cfg, oldest, n - 1)
    assert metric.tolist() == [[oracles._rank_metric(w, int(t), c, cfg, oldest, n - 1)
                                for c in range(store.n_subch)] for t in ts]


@settings(max_examples=100, deadline=None)
@given(sensing_histories(), st.integers(1, 60), st.floats(1e-11, 1e-6))
def test_cbp_counts_match_per_subframe_count(history, window_sf, threshold_mw):
    store, _, n, *_ = history
    window_sf = min(window_sf, store.span)
    busy, slots = store.cbp_counts(n, window_sf, threshold_mw)
    want_busy = np.zeros(store.n_ue, dtype=np.int64)
    want_slots = np.zeros(store.n_ue, dtype=np.int64)
    for j in oracles.valid_subframes(store, n - window_sf, n - 1):
        row = j % store.span
        want_slots += store.sensed[row] * store.n_subch
        want_busy += np.sum(store.srssi_mw[row] > threshold_mw, axis=1) * store.sensed[row]
    assert busy.tolist() == want_busy.tolist() and slots.tolist() == want_slots.tolist()
