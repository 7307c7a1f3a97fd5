"""Evaluation metrics computed from reception ledgers: distance-binned packet
delivery ratio, inter-packet gap statistics with ECDF, sidelink throughput,
blind-node detection, and scheme-vs-baseline gains.

PDR and SLT come from one pass over the ledger (`_bin_pass`), which joins
and sorts the cells of a range of bins at a time, so the output never holds
a sorted copy of the whole ledger.  The pass is kept on the store until the
next `record_arrays`."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import RoadGeometry


# Every float of every output CSV row: 6 significant digits
FLOAT = "%.6g"
# Cells the output pass joins and sorts at once: a range of bins holds about
# this many, or is one bin that holds more.  A closed-cell chunk this large
# merges no more.
_RANGE_CELLS = 1 << 14
# Closed-cell chunks below `_RANGE_CELLS` that may follow the last larger
# one; one more, and they merge into one
_TAIL_CHUNKS = 16
# Bytes the pass holds per cell of a range at its peak, 40 of them traced:
# the joined keys and counts (16), with either the open cells' pair ids and
# columns they are joined from (24) or the sort order and sorted copies (24)
_PASS_BYTES_PER_CELL = 56


@dataclass(frozen=True)
class MetricsConfig:
    bin_width_m: float = 25.0       # width of a distance bin
    roi_radius_m: float = 100.0     # a pair stays in the blind-node ROI while this close

    def __post_init__(self):
        for name in ("bin_width_m", "roi_radius_m"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def pass_bytes(n_ue: int) -> int:
    """Peak bytes of the output pass on `n_ue` UEs, while no bin holds more
    than `_RANGE_CELLS` cells: two (n_ue**2,) masks that pick each range's
    open cells, and one range."""
    return 2 * n_ue * n_ue + _PASS_BYTES_PER_CELL * _RANGE_CELLS


class MetricsStore:
    """Pairwise reception ledger with distance-binned accumulators.

    Pairs are ordered (transmitter, receiver) flattened to tx*n_ue+rx; bins
    are distances at transmission time.  Vehicles move only at mobility
    ticks, so a pair has one open cell: its bin (`_bin`) and that cell's
    attempt and decode counts (`_tx`, `_rx`).  A pair that ever had an attempt
    keeps an open cell, so `_tx > 0` marks it, and `last_rx_ms >= 0` marks a
    pair that decoded something.  A link toward another bin closes the cell
    into `_closed`, a list of chunks of (bin*n_ue**2 + pair, attempts,
    decodes) arrays, each sorted by that key, so the cells of a range of bins
    are one slice of each chunk.  A pair that comes back to a bin closes a
    second cell there; the output pass adds them up.  Small chunks merge as
    they come (`_close`), so the chunks stay few.  Gap statistics pool
    all pairs.  `roi_pairs` holds the sorted keys of the pairs (tx != rx)
    that were within `roi_radius_m` on every mobility tick of the
    observation window, so blind-node detection only reports pairs that
    stayed in range; it is None until the first tick.
    """

    def __init__(self, n_ue: int, bin_width_m: float, max_range_m: float,
                 payload_bytes: int, roi_radius_m: float):
        if bin_width_m <= 0 or max_range_m <= 0:
            raise ValueError("bin_width_m and max_range_m must be positive")
        self.n_ue = n_ue
        self.bin_width_m = bin_width_m
        self.n_bins = int(math.ceil(max_range_m / bin_width_m))
        self.payload_bytes = payload_bytes
        self.roi_radius_m = roi_radius_m
        # a pair's cell is open once it has an attempt; bins in the narrowest type
        self._bin = np.zeros(n_ue * n_ue, dtype=np.min_scalar_type(self.n_bins - 1))
        self._tx = np.zeros(n_ue * n_ue, dtype=np.int32)
        self._rx = np.zeros(n_ue * n_ue, dtype=np.int32)
        self._closed: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._pass: _BinPass | None = None
        self.gap_sum_ms = np.zeros(self.n_bins)
        self.gap_count = np.zeros(self.n_bins, dtype=np.int64)
        self.gap_hist = np.zeros(0, dtype=np.int64)    # pooled gap samples per gap in ms
        self.last_rx_ms = np.full(n_ue * n_ue, -1, dtype=np.int32)   # ms stay below 2**31
        self.roi_pairs: np.ndarray | None = None

    def record_arrays(self, times_ms: np.ndarray, pair_ids: np.ndarray, dist_m: np.ndarray,
                      decoded: np.ndarray) -> None:
        """Account links: an attempt toward each pair's current distance bin,
        a reception (and possibly a gap sample) where it decoded.  Link i was
        sent at `times_ms[i]`, the times non-decreasing; pair ids are
        flattened tx*n_ue+rx, and a pair appears at most once per time.  All
        links of a pair in one call lie in one bin (the engine's batches end
        at mobility ticks); a call that breaks this raises ValueError."""
        bins = np.minimum((dist_m / self.bin_width_m).astype(np.int64), self.n_bins - 1)
        self._pass = None
        moved = self._bin[pair_ids] != bins
        if moved.any():
            pairs, first = np.unique(pair_ids[moved], return_index=True)
            old = self._bin[pairs]
            self._bin[pairs] = bins[moved][first]
            if (self._bin[pair_ids] != bins).any():
                self._bin[pairs] = old
                raise ValueError("record_arrays: a pair has links in two distance bins")
            was_open = self._tx[pairs] > 0
            # the closed cells by (bin, pair): a stable sort of the bins of
            # the sorted pairs, a radix sort on the narrow bin type
            old, pairs = old[was_open], pairs[was_open]
            order = old.argsort(kind="stable")
            old, pairs = old[order], pairs[order]
            self._close(old * np.int64(self.n_ue * self.n_ue) + pairs,
                        self._tx[pairs], self._rx[pairs])
            self._tx[pairs] = self._rx[pairs] = 0
        # a NumPy scalar: np.add.at takes its fast path only on a matching dtype
        np.add.at(self._tx, pair_ids, np.int32(1))
        if decoded.any():
            dp = pair_ids[decoded]
            np.add.at(self._rx, dp, np.int32(1))
            # the decodes pair by pair, each pair's in time order: a decode's
            # previous one is the decode before it in its pair's run, or the
            # ledger's last for the run's first
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
                hist = np.bincount(gaps, minlength=self.gap_hist.size)
                hist[:self.gap_hist.size] += self.gap_hist
                self.gap_hist = hist
            closes = np.append(opens[1:], True)
            self.last_rx_ms[dp[closes]] = dt[closes]

    def _close(self, keys: np.ndarray, tx: np.ndarray, rx: np.ndarray) -> None:
        """Append a key-sorted chunk of closed cells.  Once more than
        `_TAIL_CHUNKS` chunks below `_RANGE_CELLS` cells end the list, they
        merge into one, so the chunks stay few and a cell is copied only
        until its chunk is full."""
        chunks = self._closed
        if not keys.size:
            return
        chunks.append((keys, tx, rx))
        tail = len(chunks)
        while tail and chunks[tail - 1][0].size < _RANGE_CELLS:
            tail -= 1
        if len(chunks) - tail > _TAIL_CHUNKS:
            merged = [np.concatenate(column) for column in zip(*chunks[tail:])]
            del chunks[tail:]
            # a stable sort of sorted runs merges them
            order = merged[0].argsort(kind="stable")
            for i in range(3):
                merged[i] = merged[i][order]
            chunks.append(tuple(merged))

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

    def bin_edges(self, b: int) -> tuple[float, float]:
        return (b * self.bin_width_m, (b + 1) * self.bin_width_m)


@dataclass(frozen=True)
class BinValue:
    bin_lo_m: float
    bin_hi_m: float
    value: float
    n_pairs: int


class _BinPass(NamedTuple):
    """PDR bins, and SLT bins over `observation_s` unless it is None."""

    observation_s: float | None
    pdr: list[BinValue]
    slt: list[BinValue] | None


def _bin_ranges(counts: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Consecutive [lo, hi) ranges of bins that cover all of `counts` (cells
    per bin): each holds at most `budget` cells, or one bin with cells that
    holds more."""
    ranges, lo, total = [], 0, 0
    for b, c in enumerate(counts.tolist()):
        if total and total + c > budget:
            ranges.append((lo, b))
            lo, total = b, 0
        total += c
    ranges.append((lo, len(counts)))
    return ranges


def _open_pairs(store: MetricsStore, lo: int, hi: int, mask: np.ndarray,
                scratch: np.ndarray) -> np.ndarray:
    """The pairs whose open cell lies in bins [lo, hi), ascending, picked
    through the (n_ue**2,) bool buffers `mask` and `scratch`.  A pair that
    never had an attempt holds bin 0, so bin 0's are picked by attempts."""
    if lo:
        np.greater_equal(store._bin, lo, out=mask)
    else:
        np.greater(store._tx, 0, out=mask)
    if hi < store.n_bins:
        mask &= np.less(store._bin, hi, out=scratch)
    return np.flatnonzero(mask)


def _bin_pass(store: MetricsStore, observation_s: float | None) -> _BinPass:
    """PDR and SLT bins from one pass over the ledger's cells, a range of
    bins at a time (`_bin_ranges` over `_RANGE_CELLS`)."""
    n2 = store.n_ue * store.n_ue
    chunks = store._closed
    # where each bin starts in each chunk, and the cells of each bin
    edges = np.arange(store.n_bins + 1) * np.int64(n2)
    cuts = [k.searchsorted(edges) for k, _, _ in chunks]
    counts = np.zeros(store.n_bins, dtype=np.int64)
    for c in cuts:
        counts += np.diff(c)
    for i in range(0, n2, _RANGE_CELLS):
        counts += np.bincount(store._bin[i:i + _RANGE_CELLS], minlength=store.n_bins)
    counts[0] -= n2 - np.count_nonzero(store._tx)
    mask, scratch = np.empty(n2, dtype=bool), np.empty(n2, dtype=bool)
    pdr_rows: list[BinValue] = []
    slt_rows: list[BinValue] = []
    for lo, hi in _bin_ranges(counts, _RANGE_CELLS):
        _add_rows(store, lo, hi, [(k[c[lo]:c[hi]], t[c[lo]:c[hi]], r[c[lo]:c[hi]])
                                  for (k, t, r), c in zip(chunks, cuts)],
                  _open_pairs(store, lo, hi, mask, scratch), observation_s, pdr_rows, slt_rows)
    return _BinPass(observation_s, pdr_rows, slt_rows if observation_s is not None else None)


def _add_rows(store: MetricsStore, lo: int, hi: int, parts: list, pairs: np.ndarray,
              observation_s: float | None, pdr_rows: list, slt_rows: list) -> None:
    """Append the PDR (and, with an observation time, SLT) rows of bins
    [lo, hi), from their cells: the closed chunks' slices `parts` and the open
    cells of `pairs`.  They are sorted by (bin, pair), and a pair's cells of
    one bin added up, so each bin's value is the `.mean()` of its pairs'
    values in pair order, as from a sort of the whole ledger."""
    n2 = store.n_ue * store.n_ue
    keys, tx, rx = (np.concatenate([p[i] for p in parts] + [column])
                    for i, column in enumerate((store._bin[pairs] * np.int64(n2) + pairs,
                                                store._tx[pairs], store._rx[pairs])))
    del parts, pairs
    if not keys.size:
        return
    order = keys.argsort()
    keys, tx, rx = keys[order], tx[order], rx[order]
    del order
    starts = np.empty(keys.size, dtype=bool)
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    if not starts.all():
        # a pair that came back to a bin: its cells there add up
        starts = np.flatnonzero(starts)
        keys = keys[starts]
        tx = np.add.reduceat(tx, starts, dtype=np.int32)
        rx = np.add.reduceat(rx, starts, dtype=np.int32)
    del starts
    first = keys.searchsorted(np.arange(lo, hi + 1) * np.int64(n2)).tolist()
    del keys
    ratio = rx / tx
    if observation_s is not None:
        # in float64: int32 decodes times the payload could overflow int32,
        # and each product is the exact one rounded once, as from int64
        rate = rx * float(store.payload_bytes)
        rate /= observation_s
    for b in range(lo, hi):
        i, j = first[b - lo], first[b - lo + 1]
        if i < j:
            edge_lo, edge_hi = store.bin_edges(b)
            pdr_rows.append(BinValue(edge_lo, edge_hi, float(ratio[i:j].mean()), j - i))
            if observation_s is not None:
                slt_rows.append(BinValue(edge_lo, edge_hi, float(rate[i:j].mean()), j - i))


def pdr(store: MetricsStore) -> list[BinValue]:
    """Per-bin delivery ratio: each pair's received/transmitted inside the
    bin, averaged over pairs with at least one attempt there.  Empty bins are
    omitted.  Reads the store's last pass, whatever its observation time, so
    an `slt` before it leaves nothing to recompute."""
    if store._pass is None:
        store._pass = _bin_pass(store, None)
    return list(store._pass.pdr)


@dataclass(frozen=True)
class IpgStats:
    bins: list[BinValue]            # mean gap (ms) per distance bin at reception time
    ecdf_gaps_ms: np.ndarray        # distinct pooled gaps, ascending
    ecdf_counts: np.ndarray         # samples at each gap; the k-th sample has probability k/N
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
    gaps = np.flatnonzero(store.gap_hist)
    counts = store.gap_hist[gaps]
    # the ceil(0.8 N)-th sample is the first gap whose cumulative count reaches it
    cum = np.cumsum(counts)
    p80 = float(gaps[cum.searchsorted(math.ceil(0.8 * int(cum[-1])))]) if gaps.size else None
    return IpgStats(bins, gaps, counts, p80)


def slt(store: MetricsStore, observation_s: float) -> list[BinValue]:
    """Per-bin throughput: bytes each pair delivered inside the bin divided
    by the observation time, averaged over pairs with an attempt there.  The
    pass that gives these bins gives `pdr`'s too."""
    if observation_s <= 0:
        raise ValueError("observation_s must be positive")
    if store._pass is None or store._pass.observation_s != observation_s:
        store._pass = _bin_pass(store, observation_s)
    return list(store._pass.slt)


@dataclass(frozen=True)
class BlindReport:
    blind_ue_count: int                 # receivers that missed everything from somebody in range
    pairs: list[tuple[int, int]]        # (transmitter, deaf receiver)


def blind_nodes(store: MetricsStore) -> BlindReport:
    """Pairs that stayed inside the region of interest for the whole window,
    saw at least one attempt, and decoded nothing.  Read from the per-pair
    arrays: an open cell marks the attempts, a last decode time any decode."""
    keys = store.roi_pairs
    if keys is None:
        # without a mobility tick in the window every silent pair counts
        silent = store._tx > 0
        silent &= store.last_rx_ms < 0
        keys = np.flatnonzero(silent)
    else:
        keys = keys[(store._tx[keys] > 0) & (store.last_rx_ms[keys] < 0)]
    tx, rx = np.divmod(keys, store.n_ue)
    return BlindReport(len(set(rx.tolist())), list(zip(tx.tolist(), rx.tolist())))


@dataclass(frozen=True)
class GainBin:
    bin_lo_m: float
    bin_hi_m: float
    pdr_gain_pp: float      # percentage points, scheme minus baseline
    slt_gain_bps: float     # bytes per second, scheme minus baseline
    n_seeds: int            # seeds whose scheme and baseline runs both have the bin


RunBins = tuple[list[BinValue], list[BinValue]]     # one run's (PDR, SLT) bins


def gains(pairs: list[tuple[RunBins, RunBins]]) -> list[GainBin]:
    """Scheme-minus-baseline differences from one (scheme, baseline) pair of
    runs per seed.  For each bin that both runs of at least one seed have:
    the mean difference over those seeds, summed in seed order, and how many
    seeds that is.  All runs must share binning: no two distinct bins of
    theirs overlap.  (Edges are compared, not widths: `hi - lo` of the bins
    of one width varies in the last bits.)"""
    def index(rows):
        return {(r.bin_lo_m, r.bin_hi_m): r.value for r in rows}

    edges = set()
    diffs: dict[tuple[float, float], list[tuple[float, float]]] = {}
    for (scheme_pdr, scheme_slt), (base_pdr, base_slt) in pairs:
        sp, ss, bp, bs = index(scheme_pdr), index(scheme_slt), index(base_pdr), index(base_slt)
        edges.update([*sp, *ss, *bp, *bs])
        for key in sp.keys() & bp.keys():
            diffs.setdefault(key, []).append((100.0 * (sp[key] - bp[key]),
                                              ss.get(key, 0.0) - bs.get(key, 0.0)))
    bins = sorted(edges)
    if any(hi > next_lo for (_, hi), (next_lo, _) in zip(bins, bins[1:])):
        raise ValueError("bin mismatch: runs use different bin widths")
    out = []
    for (lo, hi), d in sorted(diffs.items()):
        n = len(d)
        out.append(GainBin(lo, hi, sum(pp for pp, _ in d) / n, sum(bps for _, bps in d) / n, n))
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
        # gaps are whole ms, written as ints.  The samples of one gap, the
        # lo+1-th to the hi-th, share one row template, filled a chunk of
        # probabilities k/N at a time
        n, hi = int(stats.ecdf_counts.sum()), 0
        for gap, count in zip(stats.ecdf_gaps_ms.tolist(), stats.ecdf_counts.tolist()):
            lo, hi = hi, hi + count
            row = f"ecdf,,,{gap},{FLOAT}\r\n"
            for i in range(lo, hi, _ECDF_CHUNK):
                p = (np.arange(i + 1.0, min(i + _ECDF_CHUNK, hi) + 1.0) / n).tolist()
                f.write((row * len(p)) % tuple(p))
        if stats.p80_ms is not None:
            f.write(f"p80,,,{FLOAT},\r\n" % stats.p80_ms)


def write_blind_csv(path, report: BlindReport) -> None:
    _write(path, "tx_ue,rx_ue", "%d,%d\r\n", report.pairs)


def write_timeseries_csv(path, rows: list[tuple]) -> None:
    _write(path, "t_s,mean_cbp_pct,mean_power_dbm,mean_itt_ms",
           ",".join([FLOAT] * 4) + "\r\n", rows)


def write_gains_csv(path, rows: list[GainBin]) -> None:
    _write(path, "bin_lo_m,bin_hi_m,pdr_gain_pp,slt_gain_bps,n_seeds",
           f"{FLOAT},{FLOAT},{FLOAT},{FLOAT},%d\r\n",
           ((r.bin_lo_m, r.bin_hi_m, r.pdr_gain_pp, r.slt_gain_bps, r.n_seeds) for r in rows))
