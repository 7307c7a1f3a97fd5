"""Sensing-based semi-persistent scheduling.

Maintains the trailing 1000 ms sensing window, selects resources from it,
and computes the channel-occupancy ratio and its congestion limit.
`Grants` holds every UE's grant as four arrays (next occurrence,
subchannel, period and reselection counter) and runs the whole grant
lifecycle in one step per subframe: when a packet selects a grant, when an
occurrence passes unused, and how the counter steps after a transmission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# The occupancy window of `compute_cr` reaches this far into the past of n
# and into its future
CR_PAST_SF, CR_FUTURE_SF = 750, 250
# P_step of TS 36.213 §14.1.1.6 step 8: the S-RSSI ranking averages the
# subframes this far apart, or an own period apart where that is shorter
P_STEP_SF = 100


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

    def __post_init__(self):
        if not 0 < self.t1_sf <= self.t2_sf:
            raise ValueError("t1_sf must be at least 1 and at most t2_sf")
        if self.slrrc_min > self.slrrc_max or self.slrrc_min < 1:
            raise ValueError("slrrc_min must be at least 1 and at most slrrc_max")
        if not 0.0 <= self.p_resel <= 1.0:
            raise ValueError("p_resel must be in [0, 1]")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in (0, 1]")


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

    Every array is a ring of `span` subframe rows, UE-major so that one UE's
    whole sensing history is one contiguous block: `srssi_mw`, `reservations`
    and `period_sf` are (n_ue, span, n_subch), `sensed` is (n_ue, span).  A
    row is valid only while its stamp (`row_subframe`) is the subframe mapped
    to it.  Per (UE, subchannel) a row holds the S-RSSI, and in
    `reservations` the PSSCH-RSRP in dBm of the transmission that UE decoded
    there (float32, -inf where none) with its announced period in
    `period_sf`; a receiver decodes at most one per subchannel and subframe
    while the SINR threshold is at least 0 dB (`ChannelModel` enforces it).
    `sensed` is False exactly where the UE was transmitting (half duplex),
    the one record of each UE's own transmissions.  Recording a subframe
    overwrites its row, which evicts the subframe one span older.
    """

    def __init__(self, n_ue: int, n_subch: int, span: int, noise_mw: float):
        self.n_ue, self.n_subch, self.span, self.noise_mw = n_ue, n_subch, span, noise_mw
        self.srssi_mw = np.full((n_ue, span, n_subch), noise_mw)
        self.sensed = np.zeros((n_ue, span), dtype=bool)
        self.reservations = np.full((n_ue, span, n_subch), -np.inf, dtype=np.float32)
        self.period_sf = np.zeros((n_ue, span, n_subch), dtype=np.int32)
        self.row_subframe = np.full(span, -1, dtype=np.int64)
        self.newest = -1

    def record_subframe(self, n: int, *, srssi_mw: np.ndarray, sensed_mask: np.ndarray,
                        decodes: tuple[np.ndarray, ...]) -> None:
        """Store the measurements of subframes n, n+1, ..., n+m-1 in their
        ring rows, clearing the decodes those rows held.  `sensed_mask` is
        (m, n_ue), with 1 <= m <= span, and `srssi_mw` is UE-major,
        (n_ue, m, n_subch), as `resolve_subframe` emits it; each UE's block
        is copied as one slab, two where the batch wraps the ring.
        `decodes` is (subframe offset, receiver, subchannel, period,
        PSSCH-RSRP dBm) arrays, one entry per decoded link and at most one
        per (subframe, receiver, subchannel).  n must follow the newest
        recorded subframe: a subframe is recorded once.  The arrays are
        passed by name: at m = n_ue no shape check tells (n_ue, m, n_subch)
        from (m, n_ue, n_subch), so the name carries the layout."""
        m = len(sensed_mask)
        if n <= self.newest:
            raise ValueError(f"out-of-order sensing record: {n} <= newest {self.newest}")
        if not 1 <= m <= self.span:
            raise ValueError(f"a record covers 1 to {self.span} subframes, not {m}")
        for name, array, shape in (("sensed_mask", sensed_mask, (m, self.n_ue)),
                                   ("srssi_mw", srssi_mw, (self.n_ue, m, self.n_subch))):
            if np.shape(array) != shape:
                raise ValueError(f"{name} of {m} subframes must have shape {shape}, "
                                 f"not {np.shape(array)}")
        subframes = np.arange(n, n + m)
        rows = subframes % self.span
        offset, rx, subch, period, rsrp_dbm = decodes
        # one flat index serves both decode arrays; it is bounds-checked per
        # axis, so a decode outside the store fails before anything is written
        cell = np.ravel_multi_index((rx, rows[offset], subch), self.reservations.shape)
        self.row_subframe[rows] = subframes
        first = n % self.span
        split = min(m, self.span - first)
        slabs = [(slice(first, first + split), slice(0, split))]
        if split < m:
            slabs.append((slice(0, m - split), slice(split, m)))
        for ring, batch in slabs:
            self.srssi_mw[:, ring] = srssi_mw[:, batch]
            self.sensed[:, ring] = sensed_mask[batch].T
            self.reservations[:, ring] = -np.inf
        self.reservations.ravel()[cell] = rsrp_dbm
        self.period_sf.ravel()[cell] = period
        self.newest = n + m - 1

    def oldest_valid(self) -> int:
        return max(0, self.newest - self.span + 1)

    def recorded(self, lo: int, hi: int) -> np.ndarray:
        """(span,) mask of the ring rows holding a recorded subframe j, lo <= j <= hi."""
        return (self.row_subframe >= max(lo, 0)) & (self.row_subframe <= hi)

    def cbp_counts(self, n: int, window_sf: int, threshold_mw: float):
        """(busy slot count, sensed slot count) per UE over [n-window, n-1]."""
        rows = np.flatnonzero(self.recorded(n - window_sf, n - 1))
        sensed = np.take(self.sensed, rows, axis=1)
        busy = np.take(self.srssi_mw, rows, axis=1) > threshold_mw
        busy &= sensed[..., None]
        return np.count_nonzero(busy, axis=(1, 2)), np.count_nonzero(sensed, axis=1) * self.n_subch

    def own_tx_counts(self, n: int, ues: np.ndarray) -> np.ndarray:
        """Per UE in `ues`, its own transmissions in [n-750, n-1]: the recorded
        subframes it did not sense, because it was transmitting.  The span
        must cover the 750 subframes."""
        rows = self.recorded(n - CR_PAST_SF, n - 1)
        return np.count_nonzero(rows & ~self.sensed[ues], axis=1)


class SensingWindow(NamedTuple):
    """One UE's view of a SensingStore (its block of measurements and masks)."""

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
    """The TS 36.213 §14.1.1.6 candidate set, for a UE whose own period is
    `own_period_sf`, of the pool of every resource in [n+T1, n+T2].  Step 5
    exempts the resources that project, by the own period, onto a subframe
    the UE could not sense while transmitting.  Step 6 exempts those onto
    which a decoded reservation above the working threshold projects.  Step
    7 raises that threshold by 3 dB and redoes step 6 while fewer than
    keep_fraction of the pool survives; once no reservation clears it, the
    half-duplex exemptions are lifted too, so the loop always ends.  Step 8
    ranks the survivors by linear average S-RSSI over the subframes
    min(P_STEP_SF, own period) apart before them (unsensed ones skipped, no
    data counts as noise floor) and keeps the lowest ceil(keep_fraction *
    pool), ties at the boundary included.

    The pool is a (T2-T1+1, n_subch) grid, subframe-major.  Every step is
    array code over it, and the result is exactly that of enumerating the
    rules resource by resource (tests/oracles.py keeps that reference):

    - A sensing window with no recorded subframe (in a run, each selection
      at subframe 0) exempts nothing and ranks every resource at the noise
      floor: the result, returned without the steps below, is the whole pool
      in (subframe, subchannel) order, no escalation, threshold th_sps_dbm.
    - Each cell's `cover` is the strongest RSRP, in float64, among this UE's
      reservation cells on that subchannel in the recorded subframes of the
      sensing window whose occurrences, stepped by the cell's period, reach
      the cell's subframe.  Only reservations above th_sps_dbm can ever
      exempt, because the working threshold only rises, so each threshold
      level is the single comparison `cover > threshold`.
    - A half-duplex subframe j exempts subframe t iff t = j (mod own period):
      t > j holds for every t in the window.
    - The ranking sum is accumulated lag by lag, newest first, as a
      sequential sum over the projections adds them, so the averages are
      bit-equal.  Survivors in (subframe, subchannel) order are sorted stably
      by average: the (average, subframe, subchannel) order.
    """
    if own_period_sf < 1:
        raise ValueError(f"own_period_sf must be at least 1, not {own_period_sf}")
    store, ue = window
    n_subch = store.n_subch
    lo, hi = n + cfg.t1_sf, n + cfg.t2_sf
    ts = np.arange(lo, hi + 1)
    pool_size = len(ts) * n_subch
    need = math.ceil(cfg.keep_fraction * pool_size)
    oldest = store.oldest_valid()
    stamp = store.row_subframe
    # the one mask of the sensing window's rows; every read below takes the
    # UE's contiguous block of the store
    recorded = store.recorded(oldest, n - 1)
    if not recorded.any():
        t_idx, c_idx = np.divmod(np.arange(pool_size), n_subch)
        return SelectionResult(np.column_stack((lo + t_idx, c_idx)), 0, cfg.th_sps_dbm, pool_size)

    # strongest covering reservation per pool cell, the pool flattened to
    # (subframe - lo) * n_subch + subchannel as the UE's block is to
    # row * n_subch + subchannel; the cast to float64 keeps the threshold
    # comparisons exact for thresholds a float32 cannot hold
    rsrp = store.reservations[ue].astype(np.float64).ravel()
    cells = np.flatnonzero(rsrp > cfg.th_sps_dbm)
    rows = cells // n_subch
    heard = recorded[rows]
    cells, rows = cells[heard], rows[heard]
    period = store.period_sf[ue].ravel()[cells]
    if np.any(period < 1):
        raise ValueError("reservation periods must be at least one subframe")
    rsrp = rsrp[cells]
    # each reservation's first occurrence at or after lo, as a pool cell
    at = (stamp[rows] - lo) % period * n_subch + (cells - rows * n_subch)
    step = period * np.int64(n_subch)
    cover = np.full(pool_size, -np.inf)
    while at.size:
        inside = at < pool_size
        at, step, rsrp = at[inside], step[inside], rsrp[inside]
        np.maximum.at(cover, at, rsrp)
        at = at + step

    free = np.ones(pool_size, dtype=bool)       # not exempt by half duplex
    unsensed = stamp[recorded & ~store.sensed[ue]]
    unsensed = unsensed[unsensed >= n - store.span]
    if unsensed.size:
        residue = np.zeros(own_period_sf, dtype=bool)
        residue[unsensed % own_period_sf] = True
        free = np.repeat(~residue[ts % own_period_sf], n_subch)

    threshold = cfg.th_sps_dbm
    escalations = 0
    while True:
        exempt = cover > threshold
        survivors = free & ~exempt
        if np.count_nonzero(survivors) >= need:
            break
        if not exempt.any():
            # threshold exhausted; lifting the half-duplex exemptions is the
            # only remaining way to reach the required pool fraction
            survivors[:] = True
            break
        threshold += 3.0
        escalations += 1

    cells = np.flatnonzero(survivors)
    ranked = _rank_metric(store, ue, ts, own_period_sf, oldest, recorded).ravel()[cells]
    order = np.argsort(ranked, kind="stable")
    ranked = ranked[order]
    cut = ranked[min(need, len(ranked)) - 1]
    t_idx, c_idx = np.divmod(cells[order[:np.searchsorted(ranked, cut, side="right")]], n_subch)
    candidates = np.column_stack((lo + t_idx, c_idx))
    return SelectionResult(candidates, escalations, threshold, pool_size)


def _rank_metric(store: SensingStore, ue: int, ts: np.ndarray, own_period_sf: int,
                 oldest: int, recorded: np.ndarray) -> np.ndarray:
    """(len(ts), n_subch) average S-RSSI over each resource's past projections,
    min(P_STEP_SF, own_period_sf) apart, newest first.  `recorded` is the
    (span,) mask of the rows recorded in [oldest, latest], latest the
    subframe before the selection instant: only subframes before it count."""
    stamp = store.row_subframe
    usable = recorded & store.sensed[ue]                # per ring row
    grid = min(P_STEP_SF, own_period_sf)
    lags = np.arange(grid, ts[-1] - oldest + 1, grid)
    js = ts[None, :] - lags[:, None]                  # (lag, subframe), newest first
    rows = js % store.span
    ok = (stamp[rows] == js) & usable[rows]
    # the rows of the UE's block; `take` copies whole rows, where indexing
    # gathers them element by element
    values = np.take(store.srssi_mw[ue], rows, axis=0)
    values[~ok] = 0.0
    # lag by lag, newest first, the order a sequential sum adds them: NumPy
    # sums pairwise only along the contiguous axis (adding 0.0 for a skipped
    # projection changes nothing)
    total = np.add.reduce(values, axis=0)
    count = ok.sum(axis=0)[:, None]
    return np.divide(total, count, out=np.full(total.shape, store.noise_mw), where=count > 0)


def select_resource(window: SensingWindow, n: int, cfg: SpsConfig, rng: np.random.Generator,
                    *, own_period_sf: int) -> tuple[int, int]:
    """A (subframe, subchannel) drawn uniformly from `select_candidates`' set."""
    candidates = select_candidates(window, n, cfg, own_period_sf=own_period_sf).candidates
    # the row `rng.choice(candidates)` returns, drawn at a quarter of its cost
    return tuple(candidates[rng.integers(len(candidates))].tolist())


def draw_counter(rng: np.random.Generator, cfg: SpsConfig) -> int:
    """A fresh reselection counter, uniform on [slrrc_min, slrrc_max]."""
    return int(rng.integers(cfg.slrrc_min, cfg.slrrc_max + 1))


def on_transmission(slrrc: int, rng: np.random.Generator, cfg: SpsConfig) -> int | None:
    """Advance a grant's reselection counter after a transmission: the new
    counter, or None when the reservation must change (the counter expired
    and the change probability fired).  A kept grant whose counter expired
    gets a fresh counter drawn uniformly from the range."""
    if slrrc < 1:
        raise ValueError("on_transmission called with an expired counter")
    slrrc -= 1
    if slrrc > 0:
        return slrrc
    if rng.random() < cfg.p_resel:
        return None
    return draw_counter(rng, cfg)


def grant_period(itt_ms: np.ndarray) -> np.ndarray:
    """The period of a grant taken at each ITT: the ITT rounded (half to
    even) to whole subframes, at least one."""
    return np.maximum(1, np.rint(itt_ms)).astype(np.int64)


# Why a UE selects a grant, each a rule of `Grants.step`
INITIAL, TRACKING, EXPIRY = "initial", "tracking", "expiry"


class Grants:
    """Every UE's SPS grant: its next occurrence `next_tx` (-1 before the
    first selection), `subchannel`, `period` and reselection `counter`, as
    arrays indexed by UE.  `pick(ue, n, period, rng)` returns the (subframe,
    subchannel) of a resource selected at n; `cr_allows(n, ues, period)`
    masks the due UEs that may send within their occupancy limit (None: no
    limit).  UE u draws from `rngs.stream("sps", u)`."""

    def __init__(self, n_ue: int, cfg: SpsConfig, wait_limit_sf: int, rngs, pick, cr_allows):
        self.next_tx = np.full(n_ue, -1, dtype=np.int64)
        self.subchannel, self.period, self.counter = np.zeros((3, n_ue), dtype=np.int64)
        self.cfg, self.wait_limit_sf, self.rngs = cfg, wait_limit_sf, rngs
        self.pick, self.cr_allows = pick, cr_allows

    def due(self, n: int) -> np.ndarray:
        """The UEs whose grant has an occurrence at n, ascending."""
        return (self.next_tx == n).nonzero()[0]

    def step(self, n: int, due: np.ndarray, timer: np.ndarray, tracking: np.ndarray | None,
             pending: np.ndarray, period_sf: np.ndarray) -> tuple:
        """Serve the grants `due` at n, then select the new ones.  `timer` and
        `tracking` mask the UEs releasing a packet at n (`tracking` None while
        that trigger is off), `pending` those with one waiting, and `period_sf`
        is the period a grant takes at a selection or a transmission.  Returns
        the UEs that send (ascending), each one's subchannel and announced
        period, and {UE: cause} of the UEs that selected a grant.

        A waiting packet selects a grant if its UE holds none, and so does one
        released by tracking alone if the held grant's next occurrence is more
        than `wait_limit_sf` after n (no such UE is due: the limit is at least
        0).  A due grant sends while a packet waits and `cr_allows`, asked with
        `period_sf`, lets it; otherwise the occurrence passes unused, the next
        a period on, and the counter (it counts transmissions) does not step.
        After a transmission `on_transmission` steps it, and the grant keeps
        its resource at `period_sf` or selects anew.  Per UE, the draws are
        `on_transmission`'s, then `pick`'s, then the new counter."""
        next_tx = self.next_tx
        selected = dict.fromkeys((pending & (next_tx < 0)).nonzero()[0].tolist(), INITIAL)
        if tracking is not None:
            late = tracking & ~timer & (next_tx > n + self.wait_limit_sf)
            selected.update(dict.fromkeys(late.nonzero()[0].tolist(), TRACKING))
        tx_ue = subchannel = period = due
        if due.size:
            send = pending[due]
            if self.cr_allows is not None:
                ues = due[send]
                # the period the grant keeps, or reselects at, after this transmission
                send[send] = self.cr_allows(n, ues, period_sf[ues])
            if np.count_nonzero(send) < due.size:
                skipped, tx_ue = due[~send], due[send]
                next_tx[skipped] = n + self.period[skipped]
            subchannel, period = self.subchannel[tx_ue], period_sf[tx_ue]
            for ue, p in zip(tx_ue.tolist(), period.tolist()):
                counter = on_transmission(int(self.counter[ue]), self.rngs.stream("sps", ue),
                                          self.cfg)
                if counter is None:
                    selected[ue] = EXPIRY
                else:
                    self.counter[ue], self.period[ue], next_tx[ue] = counter, p, n + p

        for ue in selected:
            rng, p = self.rngs.stream("sps", ue), int(period_sf[ue])
            next_tx[ue], self.subchannel[ue] = self.pick(ue, n, p, rng)
            self.period[ue], self.counter[ue] = p, draw_counter(rng, self.cfg)
        return tx_ue, subchannel, period, selected


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
