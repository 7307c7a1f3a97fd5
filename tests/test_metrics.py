import collections
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import test_golden
from cv2xsim import config, engine, metrics
from cv2xsim.core import RoadGeometry
from cv2xsim.metrics import (BinValue, MetricsStore, blind_nodes, gains, ipg_stats, pdr,
                             slt)
from roads import road_ticks

ROI_M = 100.0


def one_cell_ranges():
    """The output pass with a budget of one cell: every bin with a cell is a
    range of its own, and one with two or more holds more than the budget.
    Closed chunks then never merge."""
    return mock.patch.object(metrics, "_RANGE_CELLS", 1)


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
        assert stats.ecdf_gaps_ms.tolist() == [100, 200] and stats.ecdf_counts.tolist() == [1, 1]
        assert stats.bins[0].value == pytest.approx(150.0)

    def test_thinning_doubles_gaps(self):
        s = store()
        for t in range(40):
            record(s, 100 * t, 0, 1, 30.0, t % 2 == 0)
        stats = ipg_stats(s)
        assert stats.ecdf_gaps_ms.tolist() == [200] and stats.ecdf_counts.tolist() == [19]

    def test_ecdf_monotone_and_p80(self):
        s = store()
        gaps = [100, 100, 100, 100, 100, 100, 100, 100, 300, 500]
        t = 0
        for g in gaps:
            record(s, t, 0, 1, 30.0, True)
            t += g
        stats = ipg_stats(s)
        # the last gap is never closed by a reception
        assert stats.ecdf_gaps_ms.tolist() == [100, 300] and stats.ecdf_counts.tolist() == [8, 1]
        # smallest gap with cumulative probability k/N >= 0.8
        probs = np.cumsum(stats.ecdf_counts) / stats.ecdf_counts.sum()
        assert stats.p80_ms == stats.ecdf_gaps_ms[np.searchsorted(probs, 0.8)] == 100

    def test_single_reception_contributes_no_gap(self):
        s = store()
        record(s, 0, 0, 1, 30.0, True)
        stats = ipg_stats(s)
        assert stats.ecdf_gaps_ms.size == stats.ecdf_counts.size == 0 and stats.p80_ms is None


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
        assert int(oracles.ledger_cells(s).rx.sum()) == decoded_total


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
        stats = ipg_stats(s)     # mean gap undefined
        assert stats.bins == [] and stats.ecdf_counts.size == 0

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
        run = (self.bins([0.9, 0.7]), self.bins([1000.0, 400.0]))
        for g in gains([(run, run)]):
            assert g.pdr_gain_pp == 0.0 and g.slt_gain_bps == 0.0 and g.n_seeds == 1

    def test_difference_direction(self):
        rows = gains([((self.bins([0.6]), self.bins([500.0])),
                       (self.bins([0.4]), self.bins([800.0])))])
        assert rows[0].pdr_gain_pp == pytest.approx(20.0)
        assert rows[0].slt_gain_bps == pytest.approx(-300.0)

    def test_seeds_counted_per_bin(self):
        # seed 2's scheme run lacks the second bin, so that bin's row is seed
        # 1's difference alone; the first bin's is the mean over both seeds
        seed1 = ((self.bins([0.6, 0.5]), self.bins([500.0, 300.0])),
                 (self.bins([0.4, 0.2]), self.bins([800.0, 100.0])))
        seed2 = ((self.bins([0.9]), self.bins([700.0])),
                 (self.bins([0.3, 0.1]), self.bins([200.0, 50.0])))
        first, second = gains([seed1, seed2])
        assert (first.bin_lo_m, first.n_seeds) == (0.0, 2)
        assert first.pdr_gain_pp == (100.0 * (0.6 - 0.4) + 100.0 * (0.9 - 0.3)) / 2
        assert first.slt_gain_bps == ((500.0 - 800.0) + (700.0 - 200.0)) / 2
        assert (second.bin_lo_m, second.n_seeds) == (25.0, 1)
        assert second.pdr_gain_pp == 100.0 * (0.5 - 0.2)
        assert second.slt_gain_bps == 300.0 - 100.0

    @pytest.mark.parametrize("width", [7.3, 0.1])
    def test_fractional_bin_width_accepted(self, width):
        # b * width to (b + 1) * width: the widths of these bins differ in
        # the last bits, their shared edges do not
        s = MetricsStore(4, width, 300.0, 190, 100.0)
        edges = [s.bin_edges(b) for b in range(s.n_bins)]
        assert len({hi - lo for lo, hi in edges}) > 1
        run = ([BinValue(lo, hi, 0.5, 1) for lo, hi in edges],) * 2
        rows = gains([(run, run), (run, run)])
        assert [(g.bin_lo_m, g.bin_hi_m) for g in rows] == edges
        assert all(g.pdr_gain_pp == 0.0 and g.n_seeds == 2 for g in rows)

    def test_bin_mismatch_rejected(self):
        # within one seed's pair of runs, and across seeds
        run = (self.bins([0.5]), self.bins([1.0]))
        wide = (self.bins([0.5], width=50.0), self.bins([1.0], width=50.0))
        for pairs in ([(run, wide)], [(run, run), (wide, wide)]):
            with pytest.raises(ValueError):
                gains(pairs)

    def test_overlapping_bins_rejected(self):
        # no lower edge in common, but 25 to 50 m lies inside 0 to 50 m
        narrow = (self.bins([0.5, 0.5])[1:], self.bins([1.0, 1.0])[1:])
        wide = (self.bins([0.5], width=50.0), self.bins([1.0], width=50.0))
        with pytest.raises(ValueError, match="bin mismatch"):
            gains([(narrow, wide)])


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
    gap_hist = collections.Counter()
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
                    gap_hist[now - last[p]] += 1
                last[p] = now
    got_tx, got_rx = oracles.dense_counts(s)
    assert np.array_equal(got_tx, tx_count) and np.array_equal(got_rx, rx_count)
    assert s.gap_sum_ms.tolist() == gap_sum.tolist()
    assert s.gap_count.tolist() == gap_count.tolist()
    # one count per gap value, up to the longest gap
    assert s.gap_hist.tolist() == [gap_hist[g] for g in range(max(gap_hist) + 1)]


def assert_ipg_matches(got, want: oracles.IpgSamples) -> None:
    """The histogram statistics hold every sorted sample as a (gap, count) run."""
    assert got.bins == want.bins and got.p80_ms == want.p80_ms
    gaps, counts = np.unique(want.gaps_ms, return_counts=True)
    assert np.array_equal(got.ecdf_gaps_ms, gaps) and np.array_equal(got.ecdf_counts, counts)


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


# pair 1 leaves bin 0 for bin 2 and comes back to each; pair 2 reaches the
# clamped last bin
COME_BACK = (2, 110.0, [(5, [(1, 10.0, True), (2, 80.0, False)]), (100, [(1, 60.0, True)]),
                        (100, [(1, 15.0, False), (2, 80.0, True)]),
                        (100, [(2, 120.0, True), (1, 55.0, True)]), (100, [(1, 5.0, True)])],
             [])


@settings(max_examples=150, deadline=None)
@given(ledger_calls())
@example(COME_BACK)
def test_sparse_ledger_matches_dense_oracle(case):
    """Every cell count and every metric equals the dense ledger's, bit for bit."""
    check_sparse_ledger(case)


@settings(max_examples=100, deadline=None)
@given(ledger_calls())
@example(COME_BACK)
def test_sparse_ledger_matches_dense_oracle_in_one_cell_ranges(case):
    """As above, with every bin a range of its own and no chunk merged."""
    with one_cell_ranges():
        check_sparse_ledger(case)


def check_sparse_ledger(case):
    n_ue, max_range, calls, ticks = case
    sparse = MetricsStore(n_ue, 25.0, max_range, 190, ROI_M)
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
    assert (oracles.ledger_cells(sparse).tx > 0).all()
    for keys, _, _ in sparse._closed:
        assert (np.diff(keys) >= 0).all()
    assert pdr(sparse) == oracles.pdr(dense)
    assert slt(sparse, 3.0) == oracles.slt(dense, 3.0)
    assert blind_nodes(sparse) == oracles.blind_nodes(dense)
    assert_ipg_matches(ipg_stats(sparse), oracles.ipg_stats(dense))


@settings(max_examples=150, deadline=None)
@given(ledger_calls(), st.data())
def test_batched_recording_matches_per_subframe_calls(case, data):
    """Links of several subframes recorded in one call, with the warm-up
    cut inside a batch as the engine cuts it, equal the dense ledger fed one
    subframe at a time from the warm-up on: counts, gaps of pairs decoded in
    several subframes of a batch, and each pair's last decode.  As in the
    engine, where a batch ends at a mobility tick, a pair keeps one distance
    through a batch."""
    n_ue, max_range, calls, _ = case
    times = np.cumsum([step for step, _ in calls], dtype=np.int64)
    warmup = data.draw(st.integers(0, int(times[-1]) + 1)) if calls else 0
    cuts = sorted(data.draw(st.sets(st.integers(1, len(calls) - 1)))) if len(calls) > 1 else []
    sparse = MetricsStore(n_ue, 25.0, max_range, 190, ROI_M)
    dense = oracles.DenseMetricsStore(n_ue, 25.0, max_range, 190, ROI_M)
    for lo, hi in zip([0] + cuts, cuts + [len(calls)]):
        if lo == hi:        # no calls at all
            continue
        dist_of = {}        # each pair's first distance in the batch
        columns = []        # per subframe: (time, pair, distance, decoded) per link
        for now, (_, links) in zip(times[lo:hi].tolist(), calls[lo:hi]):
            pairs = np.array([p for p, _, _ in links], dtype=np.int64)
            dist = np.array([dist_of.setdefault(p, d) for p, d, _ in links])
            ok = np.array([o for _, _, o in links], dtype=bool)
            if now >= warmup:
                dense.record_arrays(now, pairs, dist, ok)
            columns.append((np.full(pairs.size, now), pairs, dist, ok))
        t, pairs, dist, ok = (np.concatenate(col) for col in zip(*columns))
        kept = t >= warmup
        if kept.any():
            sparse.record_arrays(t[kept], pairs[kept], dist[kept], ok[kept])

    tx, rx = oracles.dense_counts(sparse)
    assert np.array_equal(tx, dense.tx_count) and np.array_equal(rx, dense.rx_count)
    assert sparse.last_rx_ms.tolist() == dense.last_rx_ms.tolist()
    assert_ipg_matches(ipg_stats(sparse), oracles.ipg_stats(dense))
    assert pdr(sparse) == oracles.pdr(dense) and slt(sparse, 3.0) == oracles.slt(dense, 3.0)


@settings(max_examples=200, deadline=None)
@given(road_ticks(), st.sampled_from([0.0, 0.5]), st.integers(0, 2 ** 32 - 1))
def test_roi_and_blind_nodes_match_dense_oracle(case, p_decode, seed):
    """The kept ROI keys are the dense mask's pairs after every tick, on ring
    and straight roads, with pairs exactly at the radius and respawns; and
    blind_nodes equals the dense ledger's, with or without a tick."""
    check_roi_and_blind_nodes(case, p_decode, seed)


@settings(max_examples=100, deadline=None)
@given(road_ticks(), st.sampled_from([0.0, 0.5]), st.integers(0, 2 ** 32 - 1))
def test_roi_and_blind_nodes_match_dense_oracle_in_one_cell_ranges(case, p_decode, seed):
    """As above, with every bin a range of its own and no chunk merged."""
    with one_cell_ranges():
        check_roi_and_blind_nodes(case, p_decode, seed)


def check_roi_and_blind_nodes(case, p_decode, seed):
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
    assert pdr(sparse) == oracles.pdr(dense) and slt(sparse, 1.0) == oracles.slt(dense, 1.0)


def test_cells_built_once_until_the_next_record(monkeypatch):
    """slt, pdr and blind_nodes share one pass over the cells: slt's pass
    gives pdr's bins, and blind_nodes reads the per-pair arrays.  Recording a
    link drops the pass, and the next one counts that link.  A pdr before any
    slt passes without the SLT bins, and an slt over another observation
    time passes again."""
    passes = []
    bin_pass = metrics._bin_pass
    monkeypatch.setattr(metrics, "_bin_pass", lambda *a: passes.append(a[1]) or bin_pass(*a))
    s = random_ledger(4)
    before = slt(s, 2.0), pdr(s), blind_nodes(s)
    assert passes == [2.0]
    assert (slt(s, 2.0), pdr(s), blind_nodes(s)) == before and passes == [2.0]
    attempts = int(oracles.ledger_cells(s).tx.sum())
    record(s, 5000, 0, 1, 30.0, True)
    assert int(oracles.ledger_cells(s).tx.sum()) == attempts + 1
    after = pdr(s), slt(s, 2.0), blind_nodes(s)
    assert passes == [2.0, None, 2.0] and after[1] != before[0]
    assert slt(s, 4.0) != after[1] and pdr(s) == after[0] and passes == [2.0, None, 2.0, 4.0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=30), st.integers(1, 60))
def test_bin_ranges_cover_the_bins_within_the_budget(counts, budget):
    """The ranges run back to back over every bin; each holds at most the
    budget, or one bin with cells that holds more, and no range could take
    its next bin without passing the budget."""
    ranges = metrics._bin_ranges(np.array(counts), budget)
    assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
    assert ranges[-1][1] == len(counts) and all(lo < hi for lo, hi in ranges)
    for (lo, hi), nxt in zip(ranges, ranges[1:] + [None]):
        total = sum(counts[lo:hi])
        assert total <= budget or np.count_nonzero(counts[lo:hi]) == 1
        if nxt is not None and total:
            assert total + counts[hi] > budget


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 300), max_size=80), st.integers(1, 2000), st.integers(1, 6))
def test_closed_chunks_stay_key_sorted_and_few(sizes, budget, tail):
    """Closed chunks merge as they come: each stays sorted by key and every
    cell is kept, and at most `_TAIL_CHUNKS` chunks below the budget follow
    the last one that reached it."""
    rng = np.random.default_rng(len(sizes))
    s = store(n_ue=30)
    closed = collections.Counter()
    with mock.patch.multiple(metrics, _RANGE_CELLS=budget, _TAIL_CHUNKS=tail):
        for k in sizes:
            keys = np.sort(rng.integers(0, s.n_bins * 900, k))
            counts = rng.integers(1, 9, k, dtype=np.int32)
            s._close(keys, counts, counts // 2)
            closed.update(zip(keys.tolist(), counts.tolist()))
    kept = [keys.size for keys, _, _ in s._closed]
    assert 0 not in kept
    full = [i for i, n in enumerate(kept) if n >= budget]
    assert len(kept) - (full[-1] + 1 if full else 0) <= tail
    got = collections.Counter()
    for keys, tx, rx in s._closed:
        assert (np.diff(keys) >= 0).all() and np.array_equal(rx, tx // 2)
        got.update(zip(keys.tolist(), tx.tolist()))
    assert got == closed


def test_output_pass_peak_is_bounded_per_range_cell_and_pair():
    """The traced peak of slt, pdr and blind_nodes on the run of golden case
    straight-road-speed-sigma (300 UEs, about 57,600 cells) stays under the
    design's bound, fixed before it was run: 56 B per cell of one range of
    `_RANGE_CELLS` (the joined keys and counts, their sort order and sorted
    copies, the value arrays), 2 B per pair (the two masks that pick a
    range's open cells), and 64 KiB for the rows.  A sort of the whole
    ledger at once held about 41 B per cell, 2.4 MB here."""
    scenario, scheme, seed, overrides, _ = {c[0]: c[1:] for c in test_golden.CASES}[
        "straight-road-speed-sigma"]
    result = engine.run(config.build_run_config(config.resolve(
        None, overrides, scenario=scenario, scheme=scheme, seed=seed)))
    s = result.metrics
    cells = oracles.ledger_cells(s)
    # several ranges, none of them a bin above the budget
    assert cells.bin.size > 3 * metrics._RANGE_CELLS
    assert np.bincount(cells.bin).max() < metrics._RANGE_CELLS
    tracemalloc.start()
    slt(s, result.observation_s), pdr(s), blind_nodes(s)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 56 * metrics._RANGE_CELLS + 2 * s.n_ue ** 2 + 2 ** 16


def test_pair_in_two_bins_in_one_call_is_rejected():
    """A call whose links put one pair in two distance bins raises and
    leaves the ledger as it was; one bin per pair, as the engine's batches
    give, is accepted, also where the pair moved since the last call."""
    s = random_ledger(5)
    before = oracles.ledger_cells(s)
    with pytest.raises(ValueError, match="two distance bins"):
        s.record_arrays(np.array([6000, 6010]), np.array([1, 1]), np.array([30.0, 80.0]),
                        np.array([True, True]))
    assert all(np.array_equal(a, b) for a, b in zip(oracles.ledger_cells(s), before))
    s.record_arrays(np.array([6000, 6010]), np.array([1, 1]), np.array([455.0, 460.0]),
                    np.array([True, False]))
    tx, rx = oracles.dense_counts(s)
    assert tx[1, 18] == 2 and rx[1, 18] == 1


def test_empty_ledger():
    s = store()
    cells = oracles.ledger_cells(s)
    assert all(a.size == 0 for a in cells)
    assert pdr(s) == [] and slt(s, 1.0) == []
    assert blind_nodes(s) == oracles.blind_nodes(oracles.DenseMetricsStore(4, 25.0, 500.0, 190,
                                                                           ROI_M))
    stats = ipg_stats(s)
    assert stats.bins == [] and stats.ecdf_gaps_ms.size == stats.ecdf_counts.size == 0
    assert stats.p80_ms is None
