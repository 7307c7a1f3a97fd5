"""Sensing-based semi-persistent scheduling.

Maintains the trailing 1000 ms sensing window, performs resource
(re)selection from it, manages the reselection counter lifecycle, and
computes the channel-occupancy ratio and its congestion limit.  A grant is
not an object here: the engine keeps each UE's next occurrence, subchannel,
period and counter in arrays, `select_resource` returns a (subframe,
subchannel) pair, `draw_counter` a fresh counter and `on_transmission` the
next counter value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# The occupancy window of `compute_cr` reaches this far into the past of n
# and into its future
CR_PAST_SF, CR_FUTURE_SF = 750, 250


@dataclass(frozen=True)
class SpsConfig:
    t1_sf: int = 1
    t2_sf: int = 100
    th_sps_dbm: float = -85.0       # PSSCH-RSRP exemption threshold
    slrrc_min: int = 5
    slrrc_max: int = 15
    p_resel: float = 0.2            # probability the reservation CHANGES at counter expiry
    sensing_window_sf: int = 1000
    keep_fraction: float = 0.20
    rank_period_sf: int = 100       # grid used to project a candidate onto past occurrences
    rank_average: str = "mw"        # "mw" (linear) or "db"
    unsensed_exempt: bool = True    # half-duplex subframes exempt their projected candidates

    def __post_init__(self):
        if not 0 < self.t1_sf <= self.t2_sf:
            raise ValueError("t1_sf must be at least 1 and at most t2_sf")
        if self.slrrc_min > self.slrrc_max or self.slrrc_min < 1:
            raise ValueError("slrrc_min must be at least 1 and at most slrrc_max")
        if not 0.0 <= self.p_resel <= 1.0:
            raise ValueError("p_resel must be in [0, 1]")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in (0, 1]")
        if self.rank_period_sf < 1:
            raise ValueError("rank_period_sf must be at least 1")
        if self.rank_average not in ("mw", "db"):
            raise ValueError(f"rank_average must be 'mw' or 'db', not {self.rank_average!r}")


@dataclass(frozen=True)
class CrConfig:
    """The channel-occupancy limit: a UE lets a grant occurrence pass unused
    while its occupancy ratio exceeds `cr_limit`'s cap.  No busy fraction
    exceeds a `cbp_limit` of 1, so at 1 the limit is off.  `calibration` maps
    a busy fraction to a vehicle count by piecewise-linear interpolation in
    comma-separated cbp:density points."""

    cbp_limit: float = 1.0
    calibration: str = "0:0,1:200"

    def __post_init__(self):
        if not 0.0 <= self.cbp_limit <= 1.0:
            raise ValueError("cbp_limit must be in [0, 1]")
        cbps, densities = self.points()
        if len(cbps) < 2:
            raise ValueError("calibration needs at least two cbp:density points")
        if np.any(np.diff(cbps) <= 0):
            raise ValueError("calibration busy fractions must be strictly increasing")
        # so that the density interpolated at any busy fraction above the
        # limit, the cap's divisor, is positive
        if np.any(densities < 0) or np.any(densities[cbps > self.cbp_limit] <= 0) \
                or densities[-1] <= 0:
            raise ValueError("calibration densities must be at least 0, and positive at "
                             "its last point and at each point above cbp_limit")

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """The calibration as (busy fractions, densities), sorted by fraction."""
        points = []
        for part in self.calibration.split(","):
            cbp, _, density = part.partition(":")
            try:
                point = (float(cbp), float(density))
            except ValueError:
                point = (math.nan, math.nan)
            if not all(map(math.isfinite, point)):
                raise ValueError(f"calibration point {part!r} is not a finite cbp:density pair")
            points.append(point)
        return tuple(np.array(sorted(points)).T)


class SensingStore:
    """Rolling per-subframe, per-subchannel channel memory shared by all UEs.

    Every array is a ring of `span` subframe rows; a row is valid only while
    its stamped subframe (`row_subframe`) is the one currently mapped to that
    slot.  Each row holds, per (UE, subchannel), the S-RSSI, and in
    `reservations` the PSSCH-RSRP in dBm of the transmission that UE decoded
    there (float32, -inf where it decoded none) with its announced period in
    `period_sf`.  One cell is enough because a receiver decodes at most one
    transmission per subchannel and subframe while the SINR threshold is at
    least 0 dB (`ChannelModel` enforces it).  `sensed` is False exactly where
    the UE was transmitting (half duplex), which makes it the one record of
    each UE's own transmissions.  Subframes are recorded a run of consecutive
    ones at a time; recording a subframe overwrites its row, which evicts the
    subframe one span older.
    """

    def __init__(self, n_ue: int, n_subch: int, span: int, noise_mw: float):
        self.n_ue = n_ue
        self.n_subch = n_subch
        self.span = span
        self.noise_mw = noise_mw
        self.srssi_mw = np.full((span, n_ue, n_subch), noise_mw)
        self.sensed = np.zeros((span, n_ue), dtype=bool)
        self.reservations = np.full((span, n_ue, n_subch), -np.inf, dtype=np.float32)
        self.period_sf = np.zeros((span, n_ue, n_subch), dtype=np.int32)
        self.row_subframe = np.full(span, -1, dtype=np.int64)
        self.newest = -1

    def record_subframe(self, n: int, srssi_mw: np.ndarray, sensed_mask: np.ndarray,
                        decodes: tuple[np.ndarray, ...]) -> None:
        """Store the measurements of subframes n, n+1, ..., n+m-1 in their
        ring rows, clearing the decodes those rows held: `srssi_mw` is
        (m, n_ue, n_subch) and `sensed_mask` (m, n_ue), with 1 <= m <= span.
        `decodes` is (subframe offset, receiver, subchannel, period,
        PSSCH-RSRP dBm) arrays, one entry per decoded link and at most one
        per (subframe, receiver, subchannel)."""
        m = len(srssi_mw)
        if n < self.newest:
            raise ValueError(f"out-of-order sensing record: {n} < newest {self.newest}")
        if not 1 <= m <= self.span:
            raise ValueError(f"a record covers 1 to {self.span} subframes, not {m}")
        subframes = np.arange(n, n + m)
        rows = subframes % self.span
        self.row_subframe[rows] = subframes
        self.srssi_mw[rows] = srssi_mw
        self.sensed[rows] = sensed_mask
        self.reservations[rows] = -np.inf
        offset, rx, subch, period, rsrp_dbm = decodes
        self.reservations[rows[offset], rx, subch] = rsrp_dbm
        self.period_sf[rows[offset], rx, subch] = period
        self.newest = n + m - 1

    def oldest_valid(self) -> int:
        return max(0, self.newest - self.span + 1)

    def recorded(self, lo: int, hi: int) -> np.ndarray:
        """(span,) mask of the ring rows holding a recorded subframe j, lo <= j <= hi."""
        return (self.row_subframe >= max(lo, 0)) & (self.row_subframe <= hi)

    def cbp_counts(self, n: int, window_sf: int, threshold_mw: float):
        """(busy slot count, sensed slot count) per UE over [n-window, n-1]."""
        rows = self.recorded(n - window_sf, n - 1)
        sensed = self.sensed[rows]
        busy = (np.sum(self.srssi_mw[rows] > threshold_mw, axis=2) * sensed).sum(axis=0)
        slots = sensed.sum(axis=0, dtype=np.int64) * self.n_subch
        return busy, slots

    def own_tx_counts(self, n: int, ues: np.ndarray) -> np.ndarray:
        """Per UE in `ues`, its own transmissions in [n-750, n-1]: the recorded
        subframes it did not sense, because it was transmitting.  The span
        must cover the 750 subframes."""
        rows = self.recorded(n - CR_PAST_SF, n - 1)
        return np.count_nonzero(~self.sensed[:, ues][rows], axis=0)


class SensingWindow(NamedTuple):
    """One UE's view of a SensingStore (its column of measurements and masks)."""

    store: SensingStore
    ue_index: int


@dataclass
class SelectionResult:
    candidates: np.ndarray     # (m, 2) int64 [subframe, subchannel] rows of the keep set
    escalations: int           # number of 3 dB threshold raises that were needed
    threshold_dbm: float       # working exemption threshold actually used
    pool_size: int             # size of the initial candidate set


def select_candidates(window: SensingWindow, n: int, cfg: SpsConfig, *,
                      own_period_sf: int) -> SelectionResult:
    """Run the selection pipeline and return the final candidate set.

    1. Pool every resource in the selection window [n+T1, n+T2].
    2. Exempt resources whose past occurrences (congruent modulo the
       reserving UE's announced period) carry a decoded reservation above the
       working threshold; when enabled, also exempt resources projecting onto
       subframes this UE could not sense because it was transmitting (the
       projection uses the UE's own reservation period).
    3. While fewer than keep_fraction of the pool survives, raise the working
       threshold by 3 dB and redo step 2.  Once no reservation clears the
       threshold, the half-duplex exemptions are lifted as well so the loop
       always terminates.
    4. Rank survivors by average S-RSSI over their past projections
       (most recent first; unsensed occurrences skipped, no data counts as
       noise floor) and keep the lowest ceil(keep_fraction * pool) of them.
       Ties at the keep boundary are kept, so indistinguishable resources
       stay equally likely.

    The pool is a (T2-T1+1, n_subch) grid, subframe-major.  Every step is
    array code over it, and the result is exactly that of enumerating the
    rules resource by resource (tests/oracles.py keeps that reference):

    - Each cell's `cover` is the strongest RSRP, in float64, among this UE's
      reservation cells on that subchannel in the recorded subframes of the
      sensing window whose occurrences, stepped by the cell's period, reach
      the cell's subframe.  Only reservations above th_sps_dbm can ever
      exempt, because the working threshold only rises, so each threshold
      level is the single comparison `cover > threshold`.
    - A half-duplex subframe j exempts subframe t iff t = j (mod own period):
      t > j holds for every t in the window.
    - The ranking sum is accumulated lag by lag, newest first, in the order a
      sequential sum over the projections adds them, so the averages are
      bit-equal.  Survivors are enumerated in (subframe, subchannel) order and
      sorted stably by average, which is the (average, subframe, subchannel)
      order.
    """
    store = window.store
    ue = window.ue_index
    lo, hi = n + cfg.t1_sf, n + cfg.t2_sf
    ts = np.arange(lo, hi + 1)
    pool_size = len(ts) * store.n_subch
    need = math.ceil(cfg.keep_fraction * pool_size)
    oldest = store.oldest_valid()

    # strongest covering reservation per cell; the cast to float64 keeps the
    # threshold comparisons exact for thresholds a float32 cannot hold
    rsrp = store.reservations[:, ue].astype(np.float64)
    rows, subch = np.nonzero((rsrp > cfg.th_sps_dbm) & store.recorded(oldest, n - 1)[:, None])
    period, rsrp = store.period_sf[rows, ue, subch], rsrp[rows, subch]
    if np.any(period < 1):
        raise ValueError("reservation periods must be at least one subframe")
    t = lo + (store.row_subframe[rows] - lo) % period
    cover = np.full((len(ts), store.n_subch), -np.inf)
    while t.size:
        inside = t <= hi
        t, period, subch, rsrp = t[inside], period[inside], subch[inside], rsrp[inside]
        np.maximum.at(cover, (t - lo, subch), rsrp)
        t = t + period

    half_duplex = np.zeros(len(ts), dtype=bool)
    if cfg.unsensed_exempt and own_period_sf > 0:
        unsensed = store.row_subframe[store.recorded(max(oldest, n - store.span), n - 1)
                                      & ~store.sensed[:, ue]]
        if unsensed.size:
            residue = np.zeros(own_period_sf, dtype=bool)
            residue[unsensed % own_period_sf] = True
            half_duplex = residue[ts % own_period_sf]

    threshold = cfg.th_sps_dbm
    escalations = 0
    while True:
        exempt = cover > threshold
        survivors = ~(exempt | half_duplex[:, None])
        if np.count_nonzero(survivors) >= need:
            break
        if not exempt.any():
            # threshold exhausted; lifting the half-duplex exemptions is the
            # only remaining way to reach the required pool fraction
            survivors[:] = True
            break
        threshold += 3.0
        escalations += 1

    metric = _rank_metric(store, ue, ts, cfg, oldest, n - 1)
    t_idx, c_idx = np.nonzero(survivors)
    ranked = metric[t_idx, c_idx]
    order = np.argsort(ranked, kind="stable")
    ranked = ranked[order]
    cut = ranked[min(need, len(ranked)) - 1]
    kept = order[:np.searchsorted(ranked, cut, side="right")]
    candidates = np.column_stack((ts[t_idx[kept]], c_idx[kept]))
    return SelectionResult(candidates, escalations, threshold, pool_size)


def _rank_metric(store: SensingStore, ue: int, ts: np.ndarray, cfg: SpsConfig,
                 oldest: int, latest: int) -> np.ndarray:
    """(len(ts), n_subch) average S-RSSI over each resource's past projections,
    newest first.  Only subframes strictly before the selection instant count."""
    stamp = store.row_subframe
    usable = store.recorded(oldest, latest) & store.sensed[:, ue]       # per ring row
    lags = cfg.rank_period_sf * np.arange(1, max(0, (ts[-1] - oldest) // cfg.rank_period_sf) + 1)
    js = ts[None, :] - lags[:, None]                  # (lag, subframe), newest first
    rows = js % store.span
    ok = (stamp[rows] == js) & usable[rows]
    values = np.where(ok[..., None], store.srssi_mw[:, ue][rows], 0.0)
    if cfg.rank_average == "db":
        values[ok] = 10.0 * _log10(values[ok])
    total = np.zeros((len(ts), store.n_subch))
    for v in values:        # one lag at a time: the order a sequential sum adds them
        total += v          # (adding 0.0 for a skipped projection changes nothing)
    count = ok.sum(axis=0)[:, None]
    empty = store.noise_mw if cfg.rank_average == "mw" else 10.0 * math.log10(store.noise_mw)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(count > 0, total / count, empty)


def _log10(values: np.ndarray) -> np.ndarray:
    # math.log10 is the C library's; NumPy's vectorised log10 may differ from
    # it in the last bit depending on the CPU's instruction set
    return np.array([math.log10(v) for v in values.ravel().tolist()]).reshape(values.shape)


def select_resource(window: SensingWindow, n: int, cfg: SpsConfig, rng: np.random.Generator,
                    *, own_period_sf: int) -> tuple[int, int]:
    """Pick uniformly at random from the selection pipeline's candidate set;
    returns (subframe, subchannel)."""
    candidates = select_candidates(window, n, cfg, own_period_sf=own_period_sf).candidates
    # the row `rng.choice(candidates)` returns, drawn at a quarter of its cost
    subframe, subchannel = candidates[rng.integers(len(candidates))].tolist()
    return subframe, subchannel


def draw_counter(rng: np.random.Generator, cfg: SpsConfig) -> int:
    """A fresh reselection counter, uniform on [slrrc_min, slrrc_max]."""
    return int(rng.integers(cfg.slrrc_min, cfg.slrrc_max + 1))


def on_transmission(slrrc: int, rng: np.random.Generator, cfg: SpsConfig) -> int | None:
    """Advance a grant's reselection counter after a transmission.

    Returns the new counter, or None when the reservation must change
    (counter expired and the change probability fired).  A kept grant whose
    counter expired gets a fresh counter drawn uniformly from the range.
    """
    if slrrc < 1:
        raise ValueError("on_transmission called with an expired counter")
    slrrc -= 1
    if slrrc > 0:
        return slrrc
    if rng.random() < cfg.p_resel:
        return None
    return draw_counter(rng, cfg)


def compute_cr(past, period_sf, n_subch: int) -> np.ndarray:
    """Channel-occupancy ratio per UE over the window [n-750, n+250) (ETSI TS
    103 574): its own transmissions in [n-750, n-1] (`past`, as
    `SensingStore.own_tx_counts` counts them) plus its grant's occurrences n,
    n+period_sf, ... before n+250, over the window's
    (CR_PAST_SF + CR_FUTURE_SF) * n_subch subchannel slots."""
    period_sf = np.asarray(period_sf)
    if np.any(period_sf < 1) or n_subch < 1:
        raise ValueError("period_sf and n_subch must be at least 1")
    future = -(-CR_FUTURE_SF // period_sf)
    return (np.asarray(past) + future) / ((CR_PAST_SF + CR_FUTURE_SF) * n_subch)


def cr_limit(cbp, cbp_limit: float, points: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Occupancy cap per UE from busy-fraction feedback: cbp_limit / density
    where the measured busy fraction exceeds the limit, otherwise 1 (no cap).
    The density is interpolated piecewise-linearly in the calibration
    `points`, (busy fractions, vehicle counts) with the fractions sorted."""
    cbp = np.asarray(cbp, dtype=float)
    if np.any((cbp < 0.0) | (cbp > 1.0)):
        raise ValueError("cbp must be in [0, 1]")
    cap = np.ones(cbp.shape)
    over = cbp > cbp_limit
    density = np.interp(cbp[over], *points)
    if np.any(density == 0):
        raise ValueError("calibration maps this busy fraction to zero density")
    cap[over] = cbp_limit / density
    return cap
