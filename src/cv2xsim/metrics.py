"""Evaluation metrics computed from reception ledgers: distance-binned packet
delivery ratio, inter-packet gap statistics with ECDF, sidelink throughput,
blind-node detection, and scheme-vs-baseline gains."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


def fmt(v) -> str:
    """CSV number formatting: floats at 6 significant digits."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.6g}"


class MetricsStore:
    """Pairwise reception ledger with distance-binned accumulators.

    Rows are ordered (transmitter, receiver) pairs flattened to tx*n_ue+rx;
    columns are distance bins at transmission time.  Gap statistics pool all
    pairs; the region-of-interest mask is ANDed down over time so blind-node
    detection only reports pairs that stayed in range for the whole
    observation window.
    """

    def __init__(self, n_ue: int, bin_width_m: float = 25.0, max_range_m: float = 1000.0,
                 payload_bytes: int = 190, roi_radius_m: float = 100.0):
        if bin_width_m <= 0 or max_range_m <= 0:
            raise ValueError("bin_width_m and max_range_m must be positive")
        self.n_ue = n_ue
        self.bin_width_m = bin_width_m
        self.n_bins = int(math.ceil(max_range_m / bin_width_m))
        self.payload_bytes = payload_bytes
        self.roi_radius_m = roi_radius_m
        cells = n_ue * n_ue * self.n_bins
        if cells > 200_000_000:
            raise MemoryError(
                f"{n_ue} UEs x {self.n_bins} bins needs {cells} ledger cells; "
                "raise bin_width_m or lower max_range_m")
        self.tx_count = np.zeros((n_ue * n_ue, self.n_bins), dtype=np.int32)
        self.rx_count = np.zeros((n_ue * n_ue, self.n_bins), dtype=np.int32)
        self.gap_sum_ms = np.zeros(self.n_bins)
        self.gap_count = np.zeros(self.n_bins, dtype=np.int64)
        self._gap_chunks: list[np.ndarray] = []
        self.last_rx_ms = np.full(n_ue * n_ue, -1, dtype=np.int64)
        self.roi_always = ~np.eye(n_ue, dtype=bool)
        self.observation_s = 0.0

    def record_arrays(self, now_ms: int, pair_ids: np.ndarray, dist_m: np.ndarray,
                      decoded: np.ndarray) -> None:
        """Account the links of one subframe: an attempt toward each pair's
        current distance bin, a reception (and possibly a gap sample) where it
        decoded.  Pair ids are flattened tx*n_ue+rx, and every pair may
        appear at most once per call."""
        bins = np.minimum((dist_m / self.bin_width_m).astype(np.int64), self.n_bins - 1)
        # pairs are unique within a call, so no (pair, bin) cell repeats
        self.tx_count[pair_ids, bins] += 1
        if decoded.any():
            dp, db = pair_ids[decoded], bins[decoded]
            self.rx_count[dp, db] += 1
            prev = self.last_rx_ms[dp]
            has_prev = prev >= 0
            if has_prev.any():
                gaps = (now_ms - prev[has_prev]).astype(np.int64)
                # gaps are whole milliseconds, so the float sums stay exact
                # whatever the order of addition
                self.gap_sum_ms += np.bincount(db[has_prev], weights=gaps,
                                               minlength=self.n_bins)
                self.gap_count += np.bincount(db[has_prev], minlength=self.n_bins)
                self._gap_chunks.append(gaps)
            self.last_rx_ms[dp] = now_ms

    def update_roi(self, within_roi: np.ndarray) -> None:
        """AND the (n_ue, n_ue) in-range mask into the whole-window ROI mask."""
        self.roi_always &= within_roi

    def gap_samples(self) -> np.ndarray:
        if not self._gap_chunks:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(self._gap_chunks)

    def bin_edges(self, b: int) -> tuple[float, float]:
        return (b * self.bin_width_m, (b + 1) * self.bin_width_m)


@dataclass(frozen=True)
class BinValue:
    bin_lo_m: float
    bin_hi_m: float
    value: float
    n_pairs: int


def pdr(store: MetricsStore) -> list[BinValue]:
    """Per-bin delivery ratio: each pair's received/transmitted inside the
    bin, averaged over pairs with at least one attempt there.  Empty bins are
    omitted."""
    out = []
    for b in range(store.n_bins):
        tx = store.tx_count[:, b]
        mask = tx > 0
        n = int(mask.sum())
        if n == 0:
            continue
        ratios = store.rx_count[mask, b] / tx[mask]
        lo, hi = store.bin_edges(b)
        out.append(BinValue(lo, hi, float(ratios.mean()), n))
    return out


@dataclass(frozen=True)
class IpgStats:
    bins: list[BinValue]            # mean gap (ms) per distance bin at reception time
    ecdf_gaps_ms: np.ndarray        # sorted pooled gap samples
    ecdf_probs: np.ndarray
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
    gaps = np.sort(store.gap_samples())
    if gaps.size:
        probs = np.arange(1, gaps.size + 1) / gaps.size
        p80 = float(gaps[math.ceil(0.8 * gaps.size) - 1])
    else:
        probs = np.zeros(0)
        p80 = None
    return IpgStats(bins, gaps, probs, p80)


def slt(store: MetricsStore, observation_s: float) -> list[BinValue]:
    """Per-bin throughput: bytes each pair delivered inside the bin divided
    by the observation time, averaged over pairs with an attempt there."""
    if observation_s <= 0:
        raise ValueError("observation_s must be positive")
    out = []
    for b in range(store.n_bins):
        tx = store.tx_count[:, b]
        mask = tx > 0
        n = int(mask.sum())
        if n == 0:
            continue
        rates = store.rx_count[mask, b] * store.payload_bytes / observation_s
        lo, hi = store.bin_edges(b)
        out.append(BinValue(lo, hi, float(rates.mean()), n))
    return out


@dataclass(frozen=True)
class BlindReport:
    blind_ue_count: int                 # receivers that missed everything from somebody in range
    pairs: list[tuple[int, int]]        # (transmitter, deaf receiver)


def blind_nodes(store: MetricsStore) -> BlindReport:
    """Pairs that stayed inside the region of interest for the whole window,
    saw at least one attempt, and decoded nothing."""
    attempts = store.tx_count.sum(axis=1).reshape(store.n_ue, store.n_ue)
    decodes = store.rx_count.sum(axis=1).reshape(store.n_ue, store.n_ue)
    blind = store.roi_always & (attempts > 0) & (decodes == 0)
    pairs = [(int(a), int(b)) for a, b in np.argwhere(blind)]
    return BlindReport(int(np.unique([b for _, b in pairs]).size) if pairs else 0, pairs)


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
# CSV emission (6 significant digits; one file per metric)

def write_pdr_csv(path, rows: list[BinValue]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["bin_lo_m", "bin_hi_m", "pdr", "n_pairs"])
        for r in rows:
            w.writerow([fmt(r.bin_lo_m), fmt(r.bin_hi_m), fmt(r.value), r.n_pairs])


def write_slt_csv(path, rows: list[BinValue]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["bin_lo_m", "bin_hi_m", "slt_bytes_per_s", "n_pairs"])
        for r in rows:
            w.writerow([fmt(r.bin_lo_m), fmt(r.bin_hi_m), fmt(r.value), r.n_pairs])


def write_ipg_csv(path, stats: IpgStats) -> None:
    """Single file with three row kinds: per-bin means, the pooled ECDF, and
    the 80th percentile."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["kind", "bin_lo_m", "bin_hi_m", "gap_ms", "value"])
        for r in stats.bins:
            w.writerow(["bin_mean", fmt(r.bin_lo_m), fmt(r.bin_hi_m), fmt(r.value), r.n_pairs])
        for g, p in zip(stats.ecdf_gaps_ms, stats.ecdf_probs):
            w.writerow(["ecdf", "", "", fmt(g), fmt(p)])
        if stats.p80_ms is not None:
            w.writerow(["p80", "", "", fmt(stats.p80_ms), ""])


def write_blind_csv(path, report: BlindReport) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["tx_ue", "rx_ue"])
        for a, b in report.pairs:
            w.writerow([a, b])


def write_timeseries_csv(path, rows: list[tuple]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t_s", "mean_cbp_pct", "mean_power_dbm", "mean_itt_ms"])
        for row in rows:
            w.writerow([fmt(v) for v in row])


def write_gains_csv(path, rows: list[GainBin], n_seeds: int = 1) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["bin_lo_m", "bin_hi_m", "pdr_gain_pp", "slt_gain_bps", "n_seeds"])
        for r in rows:
            w.writerow([fmt(r.bin_lo_m), fmt(r.bin_hi_m), fmt(r.pdr_gain_pp),
                        fmt(r.slt_gain_bps), n_seeds])
