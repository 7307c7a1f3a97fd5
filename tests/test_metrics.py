import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cv2xsim.core import RoadGeometry
from cv2xsim.metrics import (BinValue, MetricsStore, SparseCounts, blind_nodes, gains,
                             ipg_stats, pdr, slt)
from roads import road_ticks

ROI_M = 100.0


def store(n_ue=4, bin_width=25.0, max_range=500.0, payload=190):
    return MetricsStore(n_ue, bin_width, max_range, payload, ROI_M)


def update_roi(sparse, dense, x, y, geometry):
    """One mobility tick: the ledger measures the positions itself, the
    dense oracle takes the in-range mask of the reference distances."""
    sparse.update_roi(x, y, geometry)
    dense.update_roi(oracles.pair_distances(x, y, geometry) <= dense.roi_radius_m)


def record(s, now, tx, rx, dist, ok):
    s.record_arrays(np.array([now]), np.array([tx * s.n_ue + rx]), np.array([float(dist)]),
                    np.array([bool(ok)]))


def random_ledger(seed, n_ue=5, sends=100):
    """A ledger fed one random broadcast (toward every other UE) per call."""
    rng = np.random.default_rng(seed)
    s = store(n_ue=n_ue)
    for t in range(sends):
        tx = int(rng.integers(0, n_ue))
        rx = np.array([r for r in range(n_ue) if r != tx])
        s.record_arrays(np.full(rx.size, 10 * t), tx * n_ue + rx,
                        rng.uniform(1.0, 400.0, rx.size), rng.random(rx.size) < 0.6)
    return s


class TestPdr:
    def test_everything_decoded(self):
        s = store()
        for t in range(10):
            record(s, 100 * t, 0, 1, 30.0, True)
            record(s, 100 * t, 0, 2, 130.0, True)
        rows = pdr(s)
        assert all(r.value == 1.0 for r in rows)

    def test_pair_ratio(self):
        s = store()
        for t in range(10):
            record(s, 100 * t, 0, 1, 30.0, t < 4)
        [row] = pdr(s)
        assert row.value == pytest.approx(0.4)
        assert (row.bin_lo_m, row.bin_hi_m) == (25.0, 50.0)

    def test_pair_mean_not_pooled(self):
        # one pair delivers everything, the other nothing -> bin mean is 0.5
        s = store()
        for t in range(10):
            record(s, 100 * t, 0, 1, 30.0, True)
        for t in range(90):
            record(s, 100 * t, 2, 3, 30.0, False)
        [row] = pdr(s)
        assert row.value == pytest.approx(0.5)
        assert row.n_pairs == 2

    def test_empty_bins_omitted(self):
        s = store()
        record(s, 0, 0, 1, 30.0, True)
        assert len(pdr(s)) == 1


class TestIpg:
    def test_steady_stream(self):
        s = store()
        for t in range(50):
            record(s, 100 * t, 0, 1, 30.0, True)
        stats = ipg_stats(s)
        assert stats.p80_ms == 100.0
        [row] = stats.bins
        assert row.value == pytest.approx(100.0)

    def test_hand_case(self):
        s = store()
        for t, ok in ((0, True), (100, True), (200, False), (300, True)):
            record(s, t, 0, 1, 30.0, ok)
        stats = ipg_stats(s)
        assert sorted(stats.ecdf_gaps_ms.tolist()) == [100, 200]
        assert stats.bins[0].value == pytest.approx(150.0)

    def test_thinning_doubles_gaps(self):
        s = store()
        for t in range(40):
            record(s, 100 * t, 0, 1, 30.0, t % 2 == 0)
        stats = ipg_stats(s)
        assert set(stats.ecdf_gaps_ms.tolist()) == {200}

    def test_ecdf_monotone_and_p80(self):
        s = store()
        gaps = [100, 100, 100, 100, 100, 100, 100, 100, 300, 500]
        t = 0
        for g in gaps:
            record(s, t, 0, 1, 30.0, True)
            t += g
        stats = ipg_stats(s)
        assert np.all(np.diff(stats.ecdf_gaps_ms) >= 0)
        # smallest gap with cumulative probability k/N >= 0.8
        probs = np.arange(1, len(gaps) + 1) / len(gaps)
        assert stats.p80_ms == stats.ecdf_gaps_ms[np.searchsorted(probs, 0.8)]

    def test_single_reception_contributes_no_gap(self):
        s = store()
        record(s, 0, 0, 1, 30.0, True)
        stats = ipg_stats(s)
        assert stats.ecdf_gaps_ms.size == 0 and stats.p80_ms is None


class TestSlt:
    def test_ten_hertz_stream(self):
        s = store()
        for t in range(100):
            record(s, 100 * t, 0, 1, 30.0, True)
        [row] = slt(s, 10.0)
        assert row.value == pytest.approx(1900.0)

    def test_slow_stream(self):
        s = store()
        for t in range(20):
            record(s, 600 * t, 0, 1, 30.0, True)
        [row] = slt(s, 12.0)
        assert row.value == pytest.approx(316.7, abs=1.0)

    def test_zero_receptions(self):
        s = store()
        for t in range(10):
            record(s, 100 * t, 0, 1, 30.0, False)
        [row] = slt(s, 1.0)
        assert row.value == 0.0

    def test_bytes_conservation(self):
        rng = np.random.default_rng(5)
        s = store(n_ue=6)
        decoded_total = 0
        for t in range(200):
            tx = int(rng.integers(0, 6))
            rx = np.array([r for r in range(6) if r != tx])
            d = rng.uniform(5.0, 400.0, size=rx.size)
            ok = rng.random(rx.size) < 0.5
            decoded_total += int(ok.sum())
            s.record_arrays(np.full(rx.size, 10 * t), tx * 6 + rx, d, ok)
        assert int(s.cells().rx.sum()) == decoded_total


class TestBlindNodes:
    def test_perfect_channel_no_blind(self):
        s = store()
        for t in range(10):
            record(s, 100 * t, 0, 1, 30.0, True)
        report = blind_nodes(s)
        assert report.blind_ue_count == 0 and report.pairs == []

    def test_all_collisions_is_blind(self):
        s = store()
        for t in range(10):
            record(s, 100 * t, 0, 1, 30.0, False)
        report = blind_nodes(s)
        assert (0, 1) in report.pairs
        assert report.blind_ue_count == 1

    def test_blind_pair_has_no_throughput_and_no_gaps(self):
        s = store()
        for t in range(10):
            record(s, 100 * t, 0, 1, 30.0, False)
        assert blind_nodes(s).pairs == [(0, 1)]
        [slt_row] = slt(s, 1.0)
        assert slt_row.value == 0.0
        assert ipg_stats(s).ecdf_gaps_ms.size == 0   # mean gap undefined

    def test_roi_mask_excludes_distant_pairs(self):
        s = store()
        for t in range(10):
            record(s, 100 * t, 0, 1, 30.0, False)
        road, y = RoadGeometry(1000.0, 1, 4.0, False), np.full(4, 2.0)
        s.update_roi(np.array([0.0, 30.0, 500.0, 800.0]), y, road)
        assert s.roi_pairs.tolist() == [0 * 4 + 1, 1 * 4 + 0]
        assert blind_nodes(s).pairs == [(0, 1)]
        # the receiver leaves the region of interest: it does not come back
        for x1 in (130.0, 30.0):
            s.update_roi(np.array([0.0, x1, 500.0, 800.0]), y, road)
            assert s.roi_pairs.tolist() == [] and blind_nodes(s).pairs == []

    def test_without_a_tick_every_silent_pair_counts(self):
        s = store()
        record(s, 0, 0, 3, 490.0, False)
        record(s, 0, 2, 1, 30.0, True)
        assert s.roi_pairs is None
        assert blind_nodes(s).pairs == [(0, 3)]


class TestGains:
    def bins(self, values, width=25.0):
        return [BinValue(i * width, (i + 1) * width, v, 1) for i, v in enumerate(values)]

    def test_identical_runs_zero_gain(self):
        p = self.bins([0.9, 0.7])
        s = self.bins([1000.0, 400.0])
        for g in gains(p, s, p, s):
            assert g.pdr_gain_pp == 0.0 and g.slt_gain_bps == 0.0

    def test_difference_direction(self):
        rows = gains(self.bins([0.6]), self.bins([500.0]),
                     self.bins([0.4]), self.bins([800.0]))
        assert rows[0].pdr_gain_pp == pytest.approx(20.0)
        assert rows[0].slt_gain_bps == pytest.approx(-300.0)

    def test_bin_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gains(self.bins([0.5]), self.bins([1.0]),
                  self.bins([0.5], width=50.0), self.bins([1.0], width=50.0))


def test_metrics_are_pure_functions_of_the_ledger():
    s = random_ledger(9)
    first = [(r.bin_lo_m, r.value, r.n_pairs) for r in pdr(s)]
    second = [(r.bin_lo_m, r.value, r.n_pairs) for r in pdr(s)]
    assert first == second


def test_store_guards():
    with pytest.raises(ValueError):
        MetricsStore(4, 0.0, 500.0, 190, ROI_M)
    with pytest.raises(ValueError):
        slt(store(), 0.0)


def test_batched_recording_matches_per_link_accumulation():
    """record_arrays over whole subframes equals adding every link one by one."""
    rng = np.random.default_rng(11)
    n_ue = 7
    s = store(n_ue=n_ue)
    tx_count = np.zeros((n_ue * n_ue, s.n_bins), dtype=np.int64)
    rx_count = np.zeros_like(tx_count)
    gap_sum, gap_count = np.zeros(s.n_bins), np.zeros(s.n_bins, dtype=np.int64)
    last = {}
    for now in range(0, 3000, 7):
        senders = rng.choice(n_ue, size=int(rng.integers(1, 4)), replace=False)
        pairs = np.concatenate([tx * n_ue + np.delete(np.arange(n_ue), tx) for tx in senders])
        dist = rng.uniform(1.0, 600.0, pairs.size)
        ok = rng.random(pairs.size) < 0.6
        s.record_arrays(np.full(pairs.size, now), pairs, dist, ok)
        for p, d, o in zip(pairs.tolist(), dist.tolist(), ok.tolist()):
            b = min(int(d / s.bin_width_m), s.n_bins - 1)
            tx_count[p, b] += 1
            if o:
                rx_count[p, b] += 1
                if p in last:
                    gap_sum[b] += now - last[p]
                    gap_count[b] += 1
                last[p] = now
    got_tx, got_rx = oracles.dense_counts(s)
    assert np.array_equal(got_tx, tx_count) and np.array_equal(got_rx, rx_count)
    assert s.gap_sum_ms.tolist() == gap_sum.tolist()
    assert s.gap_count.tolist() == gap_count.tolist()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(0, 40), max_size=30), max_size=30),
       st.integers(1, 16), st.integers(1, 8))
def test_sparse_counts_match_a_counter(batches, buffer_keys, min_fold):
    counts = SparseCounts(buffer_keys, min_fold)
    want = collections.Counter()
    for batch in batches:
        counts.add(np.array(batch, dtype=np.int64))
        want.update(batch)
    keys, n = counts.compacted()
    assert keys.tolist() == sorted(want)
    assert n.tolist() == [want[k] for k in sorted(want)]


class SmallBuffer(MetricsStore):
    # a few links per merge, so short runs cross many, and a limit that
    # grows with the compacted set until the buffer caps it
    BUFFER_KEYS = 24
    MIN_FOLD = 3


@st.composite
def ledger_calls(draw):
    """(n_ue, max_range_m, calls, roi ticks): per call a time step, the
    senders, and each link's distance and decode flag.  Distances reach past
    the range into the clamped last bin, and decode rates run from never to
    always.  Each tick places the UEs along one lane of a 300 m road."""
    n_ue = draw(st.integers(2, 6))
    max_range = draw(st.sampled_from([50.0, 110.0, 260.0]))
    p_decode = draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]))
    calls = []
    for _ in range(draw(st.integers(0, 25))):
        step = draw(st.integers(1, 300))
        senders = draw(st.lists(st.integers(0, n_ue - 1), min_size=1, max_size=n_ue,
                                unique=True))
        links = []
        for tx in senders:
            for rx in range(n_ue):
                if rx != tx:
                    dist = draw(st.floats(0.0, 1.5 * max_range))
                    links.append((tx * n_ue + rx, dist, draw(st.floats(0.0, 1.0)) < p_decode))
        calls.append((step, links))
    ticks = draw(st.lists(st.lists(st.integers(0, 300), min_size=n_ue, max_size=n_ue),
                          max_size=2))
    return n_ue, max_range, calls, ticks


@settings(max_examples=150, deadline=None)
@given(ledger_calls(), st.sampled_from([SmallBuffer, MetricsStore]))
def test_sparse_ledger_matches_dense_oracle(case, cls):
    """Every cell count and every metric equals the dense ledger's, bit for bit."""
    n_ue, max_range, calls, ticks = case
    sparse = cls(n_ue, 25.0, max_range, 190, ROI_M)
    dense = oracles.DenseMetricsStore(n_ue, 25.0, max_range, 190, ROI_M)
    now = 0
    for i, (step, links) in enumerate(calls):
        now += step
        pairs = np.array([p for p, _, _ in links], dtype=np.int64)
        dist = np.array([d for _, d, _ in links])
        ok = np.array([o for _, _, o in links], dtype=bool)
        sparse.record_arrays(np.full(pairs.size, now), pairs, dist, ok)
        dense.record_arrays(now, pairs, dist, ok)
        if i == len(calls) // 2:
            # cells built halfway must not hide the links recorded after
            assert pdr(sparse) == oracles.pdr(dense)
    for x in ticks:
        update_roi(sparse, dense, np.array(x, dtype=float), np.full(n_ue, 2.0),
                   RoadGeometry(300.0, 1, 4.0, False))

    tx, rx = oracles.dense_counts(sparse)
    assert np.array_equal(tx, dense.tx_count) and np.array_equal(rx, dense.rx_count)
    cells = sparse.cells()
    assert (cells.tx > 0).all()
    assert pdr(sparse) == oracles.pdr(dense)
    assert slt(sparse, 3.0) == oracles.slt(dense, 3.0)
    assert blind_nodes(sparse) == oracles.blind_nodes(dense)
    got, want = ipg_stats(sparse), ipg_stats(dense)
    assert got.bins == want.bins and got.p80_ms == want.p80_ms
    assert np.array_equal(got.ecdf_gaps_ms, want.ecdf_gaps_ms)


@settings(max_examples=150, deadline=None)
@given(ledger_calls(), st.sampled_from([SmallBuffer, MetricsStore]), st.data())
def test_batched_recording_matches_per_subframe_calls(case, cls, data):
    """Links of several subframes recorded in one call, with the warm-up
    cut inside a batch as the engine cuts it, equal the dense ledger fed one
    subframe at a time from the warm-up on: counts, gaps of pairs decoded in
    several subframes of a batch, and each pair's last decode."""
    n_ue, max_range, calls, _ = case
    times = np.cumsum([step for step, _ in calls], dtype=np.int64)
    warmup = data.draw(st.integers(0, int(times[-1]) + 1)) if calls else 0
    cuts = sorted(data.draw(st.sets(st.integers(1, len(calls) - 1)))) if len(calls) > 1 else []
    sparse = cls(n_ue, 25.0, max_range, 190, ROI_M)
    dense = oracles.DenseMetricsStore(n_ue, 25.0, max_range, 190, ROI_M)
    columns = []        # per subframe: (time, pair, distance, decoded) per link
    for now, (_, links) in zip(times.tolist(), calls):
        pairs = np.array([p for p, _, _ in links], dtype=np.int64)
        dist = np.array([d for _, d, _ in links])
        ok = np.array([o for _, _, o in links], dtype=bool)
        if now >= warmup:
            dense.record_arrays(now, pairs, dist, ok)
        columns.append((np.full(pairs.size, now), pairs, dist, ok))
    for lo, hi in zip([0] + cuts, cuts + [len(calls)]):
        if lo == hi:        # no calls at all
            continue
        t, pairs, dist, ok = (np.concatenate(col) for col in zip(*columns[lo:hi]))
        kept = t >= warmup
        if kept.any():
            sparse.record_arrays(t[kept], pairs[kept], dist[kept], ok[kept])

    tx, rx = oracles.dense_counts(sparse)
    assert np.array_equal(tx, dense.tx_count) and np.array_equal(rx, dense.rx_count)
    assert sparse.last_rx_ms.tolist() == dense.last_rx_ms.tolist()
    got, want = ipg_stats(sparse), ipg_stats(dense)
    assert got.bins == want.bins and got.p80_ms == want.p80_ms
    assert np.array_equal(got.ecdf_gaps_ms, want.ecdf_gaps_ms)
    assert pdr(sparse) == oracles.pdr(dense) and slt(sparse, 3.0) == oracles.slt(dense, 3.0)


@settings(max_examples=200, deadline=None)
@given(road_ticks(), st.sampled_from([0.0, 0.5]), st.integers(0, 2 ** 32 - 1))
def test_roi_and_blind_nodes_match_dense_oracle(case, p_decode, seed):
    """The kept ROI keys are the dense mask's pairs after every tick, on ring
    and straight roads, with pairs exactly at the radius and respawns; and
    blind_nodes equals the dense ledger's, with or without a tick."""
    geometry, start, ticks, radius = case
    n_ue = len(start[0])
    sparse = MetricsStore(n_ue, 25.0, 1000.0, 190, radius)
    dense = oracles.DenseMetricsStore(n_ue, 25.0, 1000.0, 190, radius)
    rng = np.random.default_rng(seed)
    for tx in range(n_ue):      # each UE broadcasts once
        pairs = tx * n_ue + np.delete(np.arange(n_ue), tx)
        dist, ok = rng.uniform(0.0, 900.0, pairs.size), rng.random(pairs.size) < p_decode
        sparse.record_arrays(np.full(pairs.size, 10 * tx), pairs, dist, ok)
        dense.record_arrays(10 * tx, pairs, dist, ok)
    for x, y in ticks:
        update_roi(sparse, dense, x, y, geometry)
        assert sparse.roi_pairs.tolist() == np.flatnonzero(dense.roi_always).tolist()
    assert blind_nodes(sparse) == oracles.blind_nodes(dense)


def test_cells_built_once_until_the_next_record(monkeypatch):
    """pdr, slt and blind_nodes share one build of the cells; recording a
    link drops it, and the next build counts that link."""
    builds = []
    compacted = SparseCounts.compacted
    monkeypatch.setattr(SparseCounts, "compacted", lambda self: builds.append(1) or compacted(self))
    s = random_ledger(4)
    before = pdr(s), slt(s, 2.0), blind_nodes(s)
    assert len(builds) == 1
    attempts = int(s.cells().tx.sum())
    record(s, 5000, 0, 1, 30.0, True)
    assert int(s.cells().tx.sum()) == attempts + 1
    after = pdr(s), slt(s, 2.0), blind_nodes(s)
    assert len(builds) == 2 and after[1] != before[1]


def test_call_larger_than_the_buffer():
    """One call of more links than the buffer holds, on top of a part-filled
    buffer and a merged history, is counted exactly."""
    n_ue = 8
    sparse = SmallBuffer(n_ue, 25.0, 100.0, 190, ROI_M)
    dense = oracles.DenseMetricsStore(n_ue, 25.0, 100.0, 190, ROI_M)
    rng = np.random.default_rng(3)
    for now, n_pairs in ((0, 4), (10, 5), (20, 3), (30, n_ue * (n_ue - 1)), (40, 2)):
        pairs = rng.choice(np.delete(np.arange(n_ue * n_ue), np.arange(0, n_ue * n_ue, n_ue + 1)),
                           size=n_pairs, replace=False)
        dist = rng.uniform(0.0, 150.0, n_pairs)
        ok = rng.random(n_pairs) < 0.5
        sparse.record_arrays(np.full(n_pairs, now), pairs, dist, ok)
        dense.record_arrays(now, pairs, dist, ok)
    tx, rx = oracles.dense_counts(sparse)
    assert np.array_equal(tx, dense.tx_count) and np.array_equal(rx, dense.rx_count)
    assert pdr(sparse) == oracles.pdr(dense)


def test_empty_ledger():
    s = store()
    cells = s.cells()
    assert all(a.size == 0 for a in cells)
    assert pdr(s) == [] and slt(s, 1.0) == []
    assert blind_nodes(s) == oracles.blind_nodes(oracles.DenseMetricsStore(4, 25.0, 500.0, 190,
                                                                           ROI_M))
    stats = ipg_stats(s)
    assert stats.bins == [] and stats.ecdf_gaps_ms.size == 0 and stats.p80_ms is None
