"""Evaluation metrics computed from reception ledgers: distance-binned packet
delivery ratio, inter-packet gap statistics with ECDF, sidelink throughput,
blind-node detection, and scheme-vs-baseline gains."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import RoadGeometry


# Every float of every output CSV row: 6 significant digits
FLOAT = "%.6g"


class SparseCounts:
    """Exact occurrence counts of int64 keys.

    Keys are appended to a preallocated buffer of `buffer_keys`.  Once it
    holds as many keys as the compacted set (at least `min_fold`, at most
    the whole buffer), the buffer alone is reduced with `np.unique` and
    merged into the sorted unique keys and their counts; so a merge's
    copy of the compacted arrays is paid for by as many new keys, and a
    small ledger never touches more of the buffer than it needs.  A batch
    above that limit is merged directly.
    """

    def __init__(self, buffer_keys: int, min_fold: int):
        self._buf = np.empty(buffer_keys, dtype=np.int64)
        self._min_fold = min_fold
        self._fill = 0
        self._keys = np.zeros(0, dtype=np.int64)
        self._counts = np.zeros(0, dtype=np.int64)

    def add(self, keys: np.ndarray) -> None:
        k = keys.size
        limit = min(self._buf.size, max(self._min_fold, self._keys.size))
        if self._fill + k > limit:
            self._fold_buffer()
            if k > limit:
                self._merge(keys)
                return
        self._buf[self._fill:self._fill + k] = keys
        self._fill += k

    def compacted(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted unique keys and their counts, the buffer included."""
        self._fold_buffer()
        return self._keys, self._counts

    def _fold_buffer(self) -> None:
        if self._fill:
            self._merge(self._buf[:self._fill])
            self._fill = 0

    def _merge(self, keys: np.ndarray) -> None:
        new, counts = np.unique(keys, return_counts=True)
        pos = np.searchsorted(self._keys, new)
        hit = pos < self._keys.size
        hit[hit] = self._keys[pos[hit]] == new[hit]
        self._counts[pos[hit]] += counts[hit]
        miss = ~hit
        if not miss.any():
            return
        # the merged layout: the i-th missing key lands at its insertion
        # point plus the i missing keys before it, the old keys in between.
        # One array at a time, so the old keys go before the counts are copied
        dest = pos[miss] + np.arange(np.count_nonzero(miss))
        old = np.ones(self._keys.size + dest.size, dtype=bool)
        old[dest] = False
        self._keys = _interleave(self._keys, new[miss], old, dest)
        self._counts = _interleave(self._counts, counts[miss], old, dest)


def _interleave(old_values: np.ndarray, new_values: np.ndarray, old: np.ndarray,
                dest: np.ndarray) -> np.ndarray:
    """The array holding `old_values` where `old` is True and `new_values`
    at `dest`, the indices where it is False."""
    out = np.empty(old.size, dtype=old_values.dtype)
    out[old], out[dest] = old_values, new_values
    return out


class LedgerCells(NamedTuple):
    """The (pair, distance bin) cells with at least one attempt, ordered by
    bin and, inside a bin, by pair (tx*n_ue+rx)."""

    pair: np.ndarray
    bin: np.ndarray
    tx: np.ndarray       # attempts
    rx: np.ndarray       # decodes


class MetricsStore:
    """Pairwise reception ledger with distance-binned accumulators.

    Pairs are ordered (transmitter, receiver) flattened to tx*n_ue+rx; bins
    are distances at transmission time.  Each link is counted under the key
    2*cell + decoded of its (pair, bin) cell, cell = bin*n_ue**2 + pair, so
    only cells that saw an attempt take memory, and the sorted keys list the
    cells bin by bin with pairs ascending.  Gap statistics pool all pairs.
    `roi_pairs` holds the sorted keys of the pairs (tx != rx) that were within
    `roi_radius_m` on every mobility tick of the observation window, so
    blind-node detection only reports pairs that stayed in range; it is None
    until the first tick.
    """

    BUFFER_KEYS = 1 << 18    # most links held between merges
    MIN_FOLD = 1 << 13       # fewest links held between merges

    def __init__(self, n_ue: int, bin_width_m: float, max_range_m: float,
                 payload_bytes: int, roi_radius_m: float):
        if bin_width_m <= 0 or max_range_m <= 0:
            raise ValueError("bin_width_m and max_range_m must be positive")
        self.n_ue = n_ue
        self.bin_width_m = bin_width_m
        self.n_bins = int(math.ceil(max_range_m / bin_width_m))
        self.payload_bytes = payload_bytes
        self.roi_radius_m = roi_radius_m
        self._links = SparseCounts(self.BUFFER_KEYS, self.MIN_FOLD)
        self._cells: LedgerCells | None = None
        self.gap_sum_ms = np.zeros(self.n_bins)
        self.gap_count = np.zeros(self.n_bins, dtype=np.int64)
        self._gap_chunks: list[np.ndarray] = []
        self.last_rx_ms = np.full(n_ue * n_ue, -1, dtype=np.int32)   # ms stay below 2**31
        self.roi_pairs: np.ndarray | None = None

    def record_arrays(self, times_ms: np.ndarray, pair_ids: np.ndarray, dist_m: np.ndarray,
                      decoded: np.ndarray) -> None:
        """Account links: an attempt toward each pair's current distance bin,
        a reception (and possibly a gap sample) where it decoded.  Link i was
        sent at `times_ms[i]`, the times non-decreasing; pair ids are
        flattened tx*n_ue+rx, and a pair appears at most once per time."""
        bins = np.minimum((dist_m / self.bin_width_m).astype(np.int64), self.n_bins - 1)
        self._cells = None
        self._links.add(2 * (bins * (self.n_ue * self.n_ue) + pair_ids) + decoded)
        if decoded.any():
            # the decodes pair by pair, each pair's in time order: a decode's
            # previous one is the decode before it in its pair's run, or the
            # ledger's last for the run's first
            dp = pair_ids[decoded]
            order = np.argsort(dp, kind="stable")
            dp, db, dt = dp[order], bins[decoded][order], times_ms[decoded][order]
            opens = np.empty(dp.size, dtype=bool)
            opens[0] = True
            np.not_equal(dp[1:], dp[:-1], out=opens[1:])
            prev = np.empty(dp.size, dtype=np.int64)
            prev[1:] = dt[:-1]
            prev[opens] = self.last_rx_ms[dp[opens]]
            has_prev = prev >= 0
            if has_prev.any():
                gaps = dt[has_prev] - prev[has_prev]
                # gaps are whole milliseconds, so the float sums stay exact
                # whatever the order of addition
                self.gap_sum_ms += np.bincount(db[has_prev], weights=gaps,
                                               minlength=self.n_bins)
                self.gap_count += np.bincount(db[has_prev], minlength=self.n_bins)
                self._gap_chunks.append(gaps)
            closes = np.append(opens[1:], True)
            self.last_rx_ms[dp[closes]] = dt[closes]

    def cells(self) -> LedgerCells:
        """Attempt and decode counts of every cell that saw an attempt, built
        once and kept until the next `record_arrays`."""
        if self._cells is None:
            keys, counts = self._links.compacted()
            # a cell's keys 2*cell and 2*cell+1 are adjacent when both occur,
            # so a key opens a cell unless it is the decoded twin of the one
            # before it; of the key-sized temporaries only `cell` is int64
            cell = keys >> 1
            opens = np.empty(keys.size, dtype=bool)
            opens[:1] = True
            np.not_equal(cell[1:], cell[:-1], out=opens[1:])
            del cell
            starts = np.flatnonzero(opens)
            # each cell's last key, which is its decoded one if it has one
            last = np.flatnonzero(np.append(opens[1:], keys.size > 0))
            tx = np.add.reduceat(counts, starts)
            rx = counts[last] * (keys[last] & 1)
            b, pair = np.divmod(keys[starts] >> 1, self.n_ue * self.n_ue)
            self._cells = LedgerCells(pair, b, tx, rx)
            for a in self._cells:
                a.flags.writeable = False   # every caller shares these arrays
        return self._cells

    def update_roi(self, x: np.ndarray, y: np.ndarray, geometry: RoadGeometry) -> None:
        """Keep the pairs still within `roi_radius_m` at this tick's
        positions.  The first tick measures every pair; a later one only the
        pairs kept so far."""
        if self.roi_pairs is None:
            within = geometry.within(x, y, self.roi_radius_m)
            within.flat[::self.n_ue + 1] = False
            self.roi_pairs = np.flatnonzero(within)
        else:
            tx, rx = np.divmod(self.roi_pairs, self.n_ue)
            kept = geometry.distance(x[tx], y[tx], x[rx], y[rx]) <= self.roi_radius_m
            self.roi_pairs = self.roi_pairs[kept]

    def gap_samples(self) -> np.ndarray:
        """Every gap sample in one array, which replaces the chunks, so the
        samples are held once; their order carries nothing."""
        if len(self._gap_chunks) != 1:
            self._gap_chunks[:] = [np.concatenate(self._gap_chunks) if self._gap_chunks
                                   else np.zeros(0, dtype=np.int64)]
        return self._gap_chunks[0]

    def bin_edges(self, b: int) -> tuple[float, float]:
        return (b * self.bin_width_m, (b + 1) * self.bin_width_m)


@dataclass(frozen=True)
class BinValue:
    bin_lo_m: float
    bin_hi_m: float
    value: float
    n_pairs: int


def _bin_means(store: MetricsStore, cells: LedgerCells, values: np.ndarray) -> list[BinValue]:
    """Mean of `values` (one per cell) over the pairs of each bin, summed in
    pair order; bins without an attempt are omitted."""
    starts = np.flatnonzero(np.diff(cells.bin, prepend=-1))
    ends = np.append(starts[1:], cells.bin.size)
    out = []
    for b, lo_i, hi_i in zip(cells.bin[starts].tolist(), starts.tolist(), ends.tolist()):
        lo, hi = store.bin_edges(b)
        out.append(BinValue(lo, hi, float(values[lo_i:hi_i].mean()), hi_i - lo_i))
    return out


def pdr(store: MetricsStore) -> list[BinValue]:
    """Per-bin delivery ratio: each pair's received/transmitted inside the
    bin, averaged over pairs with at least one attempt there.  Empty bins are
    omitted."""
    cells = store.cells()
    return _bin_means(store, cells, cells.rx / cells.tx)


@dataclass(frozen=True)
class IpgStats:
    bins: list[BinValue]            # mean gap (ms) per distance bin at reception time
    ecdf_gaps_ms: np.ndarray        # sorted pooled gap samples; the k-th has probability k/N
    p80_ms: float | None


def ipg_stats(store: MetricsStore) -> IpgStats:
    """Gaps between consecutive receptions per ordered pair, binned by the
    distance at the later reception, pooled into one ECDF with its 80th
    percentile (smallest gap with cumulative probability >= 0.8)."""
    bins = []
    for b in range(store.n_bins):
        if store.gap_count[b] == 0:
            continue
        lo, hi = store.bin_edges(b)
        bins.append(BinValue(lo, hi, float(store.gap_sum_ms[b] / store.gap_count[b]),
                             int(store.gap_count[b])))
    gaps = store.gap_samples()
    gaps.sort()     # in place: the store's one copy of the samples
    p80 = float(gaps[math.ceil(0.8 * gaps.size) - 1]) if gaps.size else None
    return IpgStats(bins, gaps, p80)


def slt(store: MetricsStore, observation_s: float) -> list[BinValue]:
    """Per-bin throughput: bytes each pair delivered inside the bin divided
    by the observation time, averaged over pairs with an attempt there."""
    if observation_s <= 0:
        raise ValueError("observation_s must be positive")
    cells = store.cells()
    return _bin_means(store, cells, cells.rx * store.payload_bytes / observation_s)


@dataclass(frozen=True)
class BlindReport:
    blind_ue_count: int                 # receivers that missed everything from somebody in range
    pairs: list[tuple[int, int]]        # (transmitter, deaf receiver)


def blind_nodes(store: MetricsStore) -> BlindReport:
    """Pairs that stayed inside the region of interest for the whole window,
    saw at least one attempt, and decoded nothing."""
    cells = store.cells()
    silent = np.zeros(store.n_ue * store.n_ue, dtype=bool)
    silent[cells.pair] = True
    silent[cells.pair[cells.rx > 0]] = False
    keys = store.roi_pairs
    # without a mobility tick in the window every silent pair counts
    keys = np.flatnonzero(silent) if keys is None else keys[silent[keys]]
    tx, rx = np.divmod(keys, store.n_ue)
    return BlindReport(len(set(rx.tolist())), list(zip(tx.tolist(), rx.tolist())))


@dataclass(frozen=True)
class GainBin:
    bin_lo_m: float
    bin_hi_m: float
    pdr_gain_pp: float      # percentage points, scheme minus baseline
    slt_gain_bps: float     # bytes per second, scheme minus baseline


def gains(scheme_pdr: list[BinValue], scheme_slt: list[BinValue],
          base_pdr: list[BinValue], base_slt: list[BinValue]) -> list[GainBin]:
    """Elementwise scheme-minus-baseline differences over bins present in
    both runs; the two runs must share binning."""
    def index(rows):
        return {(r.bin_lo_m, r.bin_hi_m): r.value for r in rows}

    sp, ss, bp, bs = index(scheme_pdr), index(scheme_slt), index(base_pdr), index(base_slt)
    for a, b in ((sp, bp), (ss, bs)):
        shared_widths = {hi - lo for lo, hi in list(a) + list(b)}
        if len(shared_widths) > 1:
            raise ValueError("bin mismatch: runs use different bin widths")
    out = []
    for key in sorted(set(sp) & set(bp)):
        lo, hi = key
        out.append(GainBin(lo, hi, 100.0 * (sp[key] - bp[key]),
                           ss.get(key, 0.0) - bs.get(key, 0.0)))
    return out


# ---------------------------------------------------------------------------
# CSV emission (one file per metric): each row is a `%` template, floats as
# FLOAT and ints as %d, lines ended by "\r\n"

def _write(path, header: str, row: str, values) -> None:
    """`header`, then `row` filled with each tuple of `values`."""
    with open(path, "w", newline="") as f:
        f.write(header + "\r\n")
        f.writelines(row % v for v in values)


def write_bin_csv(path, rows: list[BinValue], value_col: str) -> None:
    """One row per distance bin, its value under the header `value_col`."""
    _write(path, f"bin_lo_m,bin_hi_m,{value_col},n_pairs", f"{FLOAT},{FLOAT},{FLOAT},%d\r\n",
           ((r.bin_lo_m, r.bin_hi_m, r.value, r.n_pairs) for r in rows))


_ECDF_CHUNK = 1 << 10


def write_ipg_csv(path, stats: IpgStats) -> None:
    """Single file with three row kinds: per-bin means, the pooled ECDF, and
    the 80th percentile."""
    with open(path, "w", newline="") as f:
        f.write("kind,bin_lo_m,bin_hi_m,gap_ms,value\r\n")
        f.writelines(f"bin_mean,{FLOAT},{FLOAT},{FLOAT},%d\r\n"
                     % (r.bin_lo_m, r.bin_hi_m, r.value, r.n_pairs) for r in stats.bins)
        # gaps are whole ms, written as ints.  The gaps are sorted, so each
        # run of equal gaps, found by a binary search, shares one row
        # template, filled a chunk of probabilities k/N at a time
        gaps = stats.ecdf_gaps_ms
        lo = 0
        while lo < gaps.size:
            hi = int(gaps.searchsorted(gaps[lo], side="right"))
            row = f"ecdf,,,{gaps[lo]},{FLOAT}\r\n"
            for i in range(lo, hi, _ECDF_CHUNK):
                p = (np.arange(i + 1.0, min(i + _ECDF_CHUNK, hi) + 1.0) / gaps.size).tolist()
                f.write((row * len(p)) % tuple(p))
            lo = hi
        if stats.p80_ms is not None:
            f.write(f"p80,,,{FLOAT},\r\n" % stats.p80_ms)


def write_blind_csv(path, report: BlindReport) -> None:
    _write(path, "tx_ue,rx_ue", "%d,%d\r\n", report.pairs)


def write_timeseries_csv(path, rows: list[tuple]) -> None:
    _write(path, "t_s,mean_cbp_pct,mean_power_dbm,mean_itt_ms",
           ",".join([FLOAT] * 4) + "\r\n", rows)


def write_gains_csv(path, rows: list[GainBin], n_seeds: int = 1) -> None:
    _write(path, "bin_lo_m,bin_hi_m,pdr_gain_pp,slt_gain_bps,n_seeds",
           f"{FLOAT},{FLOAT},{FLOAT},{FLOAT},%d\r\n",
           ((r.bin_lo_m, r.bin_hi_m, r.pdr_gain_pp, r.slt_gain_bps, n_seeds) for r in rows))
