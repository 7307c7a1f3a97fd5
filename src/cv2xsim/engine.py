"""Deterministic per-subframe simulation loop.

Each 1 ms subframe advances mobility (on its tick), updates every UE's
congestion controller, releases packets and serves the due grants.  Every
piece of per-UE state is an array indexed by UE id: the fleet's positions
and speeds, the controllers' outputs, and each UE's grant as its next
occurrence (`next_tx`, -1 before the first selection), subchannel, period
and reselection counter.  Release and grant service are mask operations
over those arrays; only the draws from each UE's own RNG stream (resource
selection and the counter after a transmission) loop over the UEs concerned.
A UE's own transmissions are recorded once, as the subframes the sensing
store marks it unsensed, and its channel-occupancy ratio counts them there.

The channel is resolved a batch of subframes at a time.  Grant service
queues each transmitting subframe's arrays (UE, subchannel, power, period,
queue delay); nothing reads a subframe's outcomes until the sensing store is
next read or the vehicles move.  So the engine flushes the queue just before
each of those: a resource selection, a CBP measurement, a CR check, a
mobility tick, and the end of the run.  It also flushes before the queued
(transmission, UE) links would pass `_BATCH_LINKS`, and before a batch would
span more subframes than the sensing ring holds.  A flush resolves every
subframe since the last one, those without a transmission included, in one
`resolve_subframe` call, which turns them into (transmission, UE) outcome
arrays.  From those the batch's rows go to the event log as one chunk, its
in-region links after the warm-up to the metrics ledger and its
measurements and decodes to the sensing store, without a loop over
subframes, transmissions or receivers.  The shadowing and fading streams
are drawn in the order resolving one subframe at a time draws them, so the
batches leave every output as it would be.  Everything is driven by named
RNG streams, so one seed fixes the whole run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import dcc, mac_sps, metrics, mobility
from .channel import ChannelModel, Outcome, resolve_subframe
from .core import RngPool, dbm_to_mw
from .mac_sps import SensingStore, SensingWindow, SpsConfig

# One event-log row per transmission, fields in the order `EventLog.digest`
# hashes them; the row index is the event id.
TX_DTYPE = np.dtype([
    ("subframe", np.int64), ("ue", np.int32), ("subchannel", np.int32),
    ("power_dbm", np.float64), ("x_m", np.float64), ("lane", np.int32),
    ("period_ms", np.int32), ("queue_delay_ms", np.int32), ("n_decoded", np.int32),
    ("n_collided", np.int32), ("n_below_sensitivity", np.int32), ("n_half_duplex", np.int32)])
# Rows hashed or formatted per step, so few Python objects are alive at once
_LOG_CHUNK = 1 << 10
# Most (transmission, UE) links resolved in one batch; a subframe with more
# is resolved on its own
_BATCH_LINKS = 1 << 15
# Bytes per link that a flush holds at its peak: the (k, n_ue) arrays of
# `resolve_subframe` and of the hand-off to the log and the ledger (traced at
# the cap: 77 to 95 on mini-low, freeway-low and urban-medium)
_FLUSH_BYTES_PER_LINK = 128
# A flush with nothing queued resolves no transmission
_NO_TX = (np.zeros(0, dtype=np.int64),) * 5
# A txevents.csv line: the event id, then each field, floats as `metrics.FLOAT`
_CSV_ROW = ",".join(["%d"] + [metrics.FLOAT if TX_DTYPE[name].kind == "f" else "%d"
                              for name in TX_DTYPE.names]) + "\r\n"


@dataclass
class RunConfig:
    scenario: mobility.ScenarioPreset
    scheme: dcc.DccScheme
    channel: ChannelModel = field(default_factory=ChannelModel)
    sps: SpsConfig = field(default_factory=SpsConfig)
    duration_s: float = 20.0
    warmup_s: float = 10.0
    seed: int = 1
    subchannels: int = 2
    payload_bytes: int = 190
    mobility_tick_ms: int = 100
    density_period_ms: int = 1000
    power_period_ms: int = 200
    cbp_window_ms: int = 100
    cbp_rssi_threshold_dbm: float = -94.0
    timeseries_period_ms: int = 1000
    bin_width_m: float = 25.0
    roi_radius_m: float = 100.0
    cr_limit_enabled: bool = False
    cbp_limit: float = 0.6
    cr_calibration: tuple[tuple[float, float], ...] = ((0.0, 0.0), (1.0, 200.0))

    def validate(self) -> None:
        if not 0 <= self.warmup_s < self.duration_s:
            raise ValueError("run.warmup_s must be at least 0 and below run.duration_s")
        if self.duration_s * 1000 >= 2 ** 31:
            raise ValueError("run.duration_s must stay below 2**31 ms (the ledger's int32 times)")
        if self.subchannels < 1:
            raise ValueError("subchannels must be at least 1")
        if self.payload_bytes < 1:
            raise ValueError("payload_bytes must be positive")
        for name in ("mobility_tick_ms", "density_period_ms", "power_period_ms",
                     "cbp_window_ms", "timeseries_period_ms"):
            if getattr(self, name) < 1:
                raise ValueError(f"run.{name} must be at least 1")
        if self.cbp_window_ms > self.sps.sensing_window_sf:
            raise ValueError("cbp_window_ms cannot exceed the sensing window span")
        for key, value in (("metrics.bin_width_m", self.bin_width_m),
                           ("metrics.roi_radius_m", self.roi_radius_m)):
            if value <= 0:
                raise ValueError(f"{key} must be positive")
        if not 0.0 <= self.cbp_limit <= 1.0:
            raise ValueError("cr.cbp_limit must be in [0, 1]")
        if len(self.cr_calibration) < 2:
            raise ValueError("cr.calibration needs at least two cbp:density points")
        if np.any(np.diff(sorted(cbp for cbp, _ in self.cr_calibration)) <= 0):
            raise ValueError("cr.calibration busy fractions must be strictly increasing")
        if self.cr_limit_enabled and self.sps.sensing_window_sf < mac_sps.CR_PAST_SF:
            # the CR counts each UE's own transmissions in the sensing store
            raise ValueError(f"sps.sensing_window_sf must be at least {mac_sps.CR_PAST_SF} "
                             "with cr.enabled")

    def memory_estimate_mib(self) -> dict[str, float]:
        """Estimated peak size of the state that grows with the run's scale,
        in MiB, split by the config key that drives each part.

        `scenario.vehicle_count`: per ordered pair, 36 bytes: the ledger's
        `last_rx_ms` (int32); the ledger's `roi_pairs` (int64 keys) in the
        worst case, where every pair stays in range; and the one-shot
        distance build of `dcc.neighbor_counts` and the first ROI tick,
        whose peak holds three float64 arrays (the longitudinal and lateral
        separations and their `hypot`).  A later ROI tick holds about 80
        bytes per kept pair for a moment, which this covers while at most a
        third of the pairs stay in range (5 % on urban-medium's road at
        100 m).  Plus 8 bytes for the static shadowing draws when enabled.
        Sensing: the (span, n, subchannels) rings of S-RSSI (float64),
        reservation RSRP (float32) and period (int32), and the (span, n)
        sensed mask.  The event log's tx rows, at one per vehicle per 100 ms
        (the shortest inter-transmit time) over the whole run.  A flush's
        transient: `_FLUSH_BYTES_PER_LINK` for each of up to `_BATCH_LINKS`
        links, and the S-RSSI and the transmitter and sensed masks of each
        subframe of the batch, which ends at the next mobility tick and spans
        at most the sensing window.  A subframe with more links than the cap
        is resolved alone, and its transient exceeds this term.  The tx rows
        count twice: the per-batch chunks and the array they are joined into.
        """
        n = self.scenario.vehicle_count
        per_pair = 4 + 8 + 3 * 8
        if self.channel.shadowing_mode == "static" and self.channel.shadowing_sigma_db > 0:
            per_pair += 8
        span = self.sps.sensing_window_sf
        sensing = span * n * (8 * self.subchannels + 1 + 8 * self.subchannels)
        tx_rows = n * int(round(self.duration_s * 1000)) // int(dcc.BASE_ITT_MS)
        flush = _BATCH_LINKS * _FLUSH_BYTES_PER_LINK \
            + min(span, self.mobility_tick_ms) * n * (8 * self.subchannels + 2)
        return {
            "scenario.vehicle_count": (n * n * per_pair + sensing + flush
                                       + 2 * tx_rows * TX_DTYPE.itemsize) / 2 ** 20,
        }


def _grant_period(itt_ms: np.ndarray) -> np.ndarray:
    """The period of a grant selected at each ITT: the ITT rounded (half to
    even) to whole subframes, at least one."""
    return np.maximum(1, np.rint(itt_ms)).astype(np.int64)


def _rows(dtype: np.dtype, n_rows: int, *columns) -> np.ndarray:
    """Structured array of `dtype` whose fields, in order, are `columns`
    (each an array of `n_rows` or a scalar)."""
    out = np.empty(n_rows, dtype)
    for name, col in zip(dtype.names, columns):
        out[name] = col
    return out


def _joined(chunks: list[bytes], dtype: np.dtype) -> np.ndarray:
    """The rows of the chunks as one read-only array; the list is left
    holding just their joined bytes.  (Joining bytes is a memcpy, where
    `np.concatenate` of many small structured arrays copies field by field.)"""
    if len(chunks) != 1:
        chunks[:] = [b"".join(chunks)]
    return np.frombuffer(chunks[0], dtype)


class EventLog:
    """Append-only transmission record with per-event outcome tallies.

    `tx_events` is a TX_DTYPE array with one row per transmission; its row
    index is the event id.  Each row counts its links by outcome; the
    per-link outcomes are not kept (a caller that needs them wraps
    `resolve_subframe`).  The engine appends one chunk per batch, and reading
    `tx_events` joins the chunks.
    """

    def __init__(self):
        self._tx: list[bytes] = []

    def append(self, tx: np.ndarray) -> None:
        """Add one batch's TX_DTYPE rows."""
        self._tx.append(tx.tobytes())

    @property
    def tx_events(self) -> np.ndarray:
        return _joined(self._tx, TX_DTYPE)

    def digest(self) -> str:
        """sha256 over `repr` of each tx row's tuple."""
        h = hashlib.sha256()
        rows = self.tx_events
        for i in range(0, len(rows), _LOG_CHUNK):
            h.update("".join(map(repr, rows[i:i + _LOG_CHUNK].tolist())).encode())
        return h.hexdigest()

    def write_csv(self, path) -> None:
        """One line per transmission, as the `_CSV_ROW` template.  Each chunk
        of rows is one `%` operation over its values, flattened row by row."""
        events = self.tx_events
        with open(path, "w", newline="") as f:
            f.write("event_id," + ",".join(TX_DTYPE.names) + "\r\n")
            for i in range(0, len(events), _LOG_CHUNK):
                rows = events[i:i + _LOG_CHUNK]
                columns = [range(i, i + len(rows))] + [rows[n].tolist() for n in TX_DTYPE.names]
                f.write((_CSV_ROW * len(rows)) % tuple(chain.from_iterable(zip(*columns))))


@dataclass
class RunResult:
    config: RunConfig
    event_log: EventLog
    metrics: metrics.MetricsStore
    timeseries: list[tuple]
    n_ue: int
    observation_s: float

    def collided_by_second(self) -> dict[int, int]:
        """Collided links per simulated second, for the seconds with a transmission."""
        events = self.event_log.tx_events
        second = events["subframe"] // 1000
        collided = np.bincount(second, weights=events["n_collided"])
        return {int(s): int(collided[s]) for s in np.flatnonzero(np.bincount(second))}


class Simulation:
    """One seeded run over a scenario with a congestion-control scheme."""

    def __init__(self, cfg: RunConfig, fleet: mobility.Fleet | None = None):
        cfg.validate()
        self.cfg = cfg
        self.preset = cfg.scenario
        self.geometry = self.preset.geometry
        self.rngs = RngPool(cfg.seed)
        self.fleet = fleet if fleet is not None \
            else mobility.generate_scenario(self.preset, self.rngs.stream("mobility"))
        # views of the fleet's arrays, which mobility.step updates in place
        self.x, self.speed, self.lane = self.fleet.x, self.fleet.speed_mps, self.fleet.lane
        self.n_ue = len(self.x)
        self.scheme = cfg.scheme

        n = self.n_ue
        self.y = self.geometry.lane_y(self.lane)

        self.itt_ms = np.full(n, dcc.BASE_ITT_MS)
        self.itt_sf = _grant_period(self.itt_ms)
        self.power_dbm = np.full(n, self.scheme.range.p_max_dbm)
        self.n_sta_s = np.zeros(n)
        self.cbp_pct = np.zeros(n)
        self.last_tx = np.full(n, -(10 ** 9), dtype=np.int64)
        self.pending = np.zeros(n, dtype=bool)
        self.gen_time = np.zeros(n, dtype=np.int64)
        self.next_tx = np.full(n, -1, dtype=np.int64)
        self.grant_subch = np.zeros(n, dtype=np.int64)
        self.grant_period = np.zeros(n, dtype=np.int64)
        self.slrrc = np.zeros(n, dtype=np.int64)
        self.bcast_x = self.x.copy()
        self.bcast_v = self.speed.copy()
        self.bcast_t = np.zeros(n, dtype=np.int64)

        self.store = SensingStore(n, cfg.subchannels, cfg.sps.sensing_window_sf,
                                  cfg.channel.noise_mw)
        # per transmitting subframe since the last flush: (subframe, UE,
        # subchannel, power, period, queue delay); the subframes up to the
        # store's newest are resolved and recorded
        self._queued: list[tuple] = []
        self._queued_links = 0

        if cfg.channel.shadowing_mode == "static" and cfg.channel.shadowing_sigma_db > 0:
            self.static_shadow = self.rngs.stream("shadow-static").normal(
                0.0, cfg.channel.shadowing_sigma_db, size=(n, n))
        else:
            self.static_shadow = None

        max_range = self.geometry.length_m / 2.0 if self.geometry.wraparound else self.geometry.length_m
        max_range += self.preset.lanes * self.preset.lane_width_m
        self.metrics = metrics.MetricsStore(n, cfg.bin_width_m, max_range,
                                            cfg.payload_bytes, cfg.roi_radius_m)
        self.log = EventLog()
        self.timeseries: list[tuple] = []
        # the CR calibration as (busy fractions, densities), sorted by fraction
        self._cr_points = tuple(np.array(c) for c in zip(*sorted(cfg.cr_calibration))) \
            if cfg.cr_limit_enabled else None

        self.warmup_sf = int(round(cfg.warmup_s * 1000))
        self.total_sf = int(round(cfg.duration_s * 1000))
        lo, hi = self.preset.region_bounds_m
        self._region = (lo, hi)

    def _select_grant(self, ue: int, n: int) -> None:
        self._flush(n)
        period = int(self.itt_sf[ue])
        sps = self.cfg.sps
        subframe, subch = mac_sps.select_resource(SensingWindow(self.store, ue), n, sps,
                                                  self.rngs.stream("sps", ue),
                                                  own_period_sf=period)
        slrrc = self.rngs.stream("sps", ue).randint(sps.slrrc_min, sps.slrrc_max)
        self.next_tx[ue], self.grant_subch[ue] = subframe, subch
        self.grant_period[ue], self.slrrc[ue] = period, slrrc

    def _queue(self, n: int, tx_ue: np.ndarray, tx_subch: np.ndarray,
               tx_period: np.ndarray) -> None:
        """Queue subframe n's transmissions for the next flush, first
        flushing the queue if their links would take it past `_BATCH_LINKS`."""
        links = len(tx_ue) * self.n_ue
        if self._queued_links + links > _BATCH_LINKS:
            self._flush(n)
        self._queued.append((n, tx_ue, tx_subch, self.power_dbm[tx_ue], tx_period,
                             n - self.gen_time[tx_ue]))
        self._queued_links += links

    def _flush(self, end: int) -> None:
        """Resolve the subframes from the last flush up to `end` (excluded)
        with their queued transmissions, and hand the outcome arrays to the
        event log, the metrics ledger and the sensing store."""
        start = self.store.newest + 1
        if end <= start:
            return
        cfg, n_ue = self.cfg, self.n_ue
        subframes, *columns = zip(*(self._queued or [(start, *_NO_TX)]))
        self._queued, self._queued_links = [], 0
        subframe = np.repeat(subframes, [len(ue) for ue in columns[0]])
        tx_ue, tx_subch, tx_power, tx_period, delay = map(np.concatenate, columns)
        tx_sf = subframe - start
        res = resolve_subframe(tx_sf, tx_ue, tx_subch, tx_power, self.x, self.y, cfg.channel,
                               self.rngs.stream("shadow"), self.geometry, cfg.subchannels,
                               self.static_shadow, self.rngs.stream("fading"), end - start)
        k = len(tx_ue)
        rows = np.arange(k)
        counts = np.bincount((4 * rows[:, None] + res.outcome).ravel(),
                             minlength=4 * k).reshape(k, 4)
        counts[:, Outcome.HALF_DUPLEX_BLOCKED] -= 1   # the self pair
        others = np.ones((k, n_ue), dtype=bool)
        others[rows, tx_ue] = False

        tx_x = self.x[tx_ue]
        self.log.append(_rows(TX_DTYPE, k, subframe, tx_ue, tx_subch, tx_power, tx_x,
                              self.lane[tx_ue], tx_period, delay, *counts.T))

        region_lo, region_hi = self._region
        recorded = (region_lo <= tx_x) & (tx_x <= region_hi) & (subframe >= self.warmup_sf)
        if recorded.any():
            links = others & recorded[:, None]
            t, r = np.nonzero(links)
            self.metrics.record_arrays(subframe[t], tx_ue[t] * n_ue + r, res.distance_m[links],
                                       res.outcome[links] == Outcome.DECODED)

        t, r = np.nonzero(res.outcome == Outcome.DECODED)
        self.store.record_subframe(start, res.srssi_mw, ~res.is_transmitting,
                                   (tx_sf[t], r, tx_subch[t], tx_period[t], res.rx_power_dbm[t, r]))

    def run(self) -> RunResult:
        cfg, n_ue = self.cfg, self.n_ue
        scheme, rate_cfg, range_cfg = self.scheme, self.scheme.rate, self.scheme.range
        cbp_thresh_mw = dbm_to_mw(cfg.cbp_rssi_threshold_dbm)
        pte_on = scheme.enabled and rate_cfg.pte_enabled
        perturb_rng = self.rngs.stream("perturb")
        span_sf = self.store.span

        for n in range(self.total_sf):
            # a batch never spans more subframes than the sensing ring holds
            if n - self.store.newest > span_sf:
                self._flush(n)

            # mobility tick: move vehicles, then narrow the region of interest
            if n > 0 and n % cfg.mobility_tick_ms == 0:
                self._flush(n)
                respawned = mobility.step(self.fleet, cfg.mobility_tick_ms / 1000.0,
                                          self.preset, perturb_rng)
                # a respawned vehicle re-enters as a fresh participant
                self.bcast_x[respawned] = self.x[respawned]
                self.bcast_v[respawned] = self.speed[respawned]
                self.bcast_t[respawned] = n
                if n >= self.warmup_sf:
                    self.metrics.update_roi(self.x, self.y, self.geometry)

            # density sample -> smoothed neighbor count -> rate control
            if n % cfg.density_period_ms == 0:
                counts = dcc.neighbor_counts(self.x, self.y, self.geometry,
                                             rate_cfg.neighbor_radius_m)
                self.n_sta_s = dcc.smooth_density(counts, self.n_sta_s)
                if scheme.enabled:
                    self.itt_ms = dcc.compute_itt(self.n_sta_s, rate_cfg)
                    self.itt_sf = _grant_period(self.itt_ms)

            # busy measurement -> range control
            if n % cfg.power_period_ms == 0 and n > 0:
                self._flush(n)
                busy, slots = self.store.cbp_counts(n, cfg.cbp_window_ms, cbp_thresh_mw)
                self.cbp_pct = dcc.busy_percentage(busy, slots, self.cbp_pct)
                if scheme.enabled:
                    self.power_dbm = dcc.update_power(self.power_dbm, self.cbp_pct, range_cfg)

            # packet release: rate timer, plus the tracking-error override.
            # Kinematic state is continuous even though propagation samples
            # positions on the mobility tick: constant-speed motion must give
            # exactly zero tracking error.
            x_true, pte = self.x, None
            if pte_on:
                frac_s = (n % cfg.mobility_tick_ms) / 1000.0
                x_true = self.geometry.wrap_x(self.x + self.speed * frac_s)
                pte = dcc.tracking_error(x_true, self.bcast_x, self.bcast_v,
                                         n - self.bcast_t, self.geometry)
            ready, pte_fire = dcc.release_triggers(self.pending, n - self.last_tx, self.itt_ms,
                                                   pte, rate_cfg.pte_threshold_m)
            gen = ready if pte_fire is None else ready | pte_fire
            # np.count_nonzero for .any() and .all(): half the cost on arrays this small
            if np.count_nonzero(gen):
                self.pending |= gen
                self.gen_time[gen] = n
                select = gen & (self.next_tx < 0)
                if pte_on:
                    # the grant lands too late for a tracking update: reselect now
                    select |= pte_fire & ~ready & (self.next_tx > n + rate_cfg.pte_wait_limit_ms)
                for ue in select.nonzero()[0].tolist():
                    self._select_grant(ue, n)

            # grant occurrences: transmit when a packet waits and the occupancy
            # is within its congestion limit, otherwise let the reservation slot
            # pass unused (the counter only counts transmissions)
            tx_ue = due = (self.next_tx == n).nonzero()[0]
            if due.size:
                send = self.pending[due]
                if self._cr_points is not None:
                    self._flush(n)
                    ues = due[send]
                    cr = mac_sps.compute_cr(self.store.own_tx_counts(n, ues),
                                            self.grant_period[ues], cfg.subchannels)
                    cbp = np.minimum(self.cbp_pct[ues] / 100.0, 1.0)
                    send[send] = cr <= mac_sps.cr_limit(cbp, cfg.cbp_limit, self._cr_points)
                if np.count_nonzero(send) < due.size:
                    skipped, tx_ue = due[~send], due[send]
                    self.next_tx[skipped] = n + self.grant_period[skipped]

            # queued for channel resolution, logging, metrics and sensing
            if tx_ue.size:
                tx_subch = self.grant_subch[tx_ue]
                tx_period = self.itt_sf[tx_ue]
                self.pending[tx_ue] = False
                self.last_tx[tx_ue] = n
                self.bcast_x[tx_ue] = x_true[tx_ue]
                self.bcast_v[tx_ue], self.bcast_t[tx_ue] = self.speed[tx_ue], n
                for ue, period in zip(tx_ue.tolist(), tx_period.tolist()):
                    slrrc = mac_sps.on_transmission(int(self.slrrc[ue]),
                                                    self.rngs.stream("sps", ue), cfg.sps)
                    if slrrc is None:
                        # the new grant's period comes from the same itt_sf as `period`
                        self._select_grant(ue, n)
                    else:
                        self.slrrc[ue], self.grant_period[ue] = slrrc, period
                        self.next_tx[ue] = n + period
                self._queue(n, tx_ue, tx_subch, tx_period)

            if n % cfg.timeseries_period_ms == 0:
                self.timeseries.append((n / 1000.0, float(self.cbp_pct.mean()),
                                        float(self.power_dbm.mean()), float(self.itt_ms.mean())))

        self._flush(self.total_sf)
        return RunResult(cfg, self.log, self.metrics, self.timeseries, n_ue,
                         cfg.duration_s - cfg.warmup_s)


def run(cfg: RunConfig, fleet: mobility.Fleet | None = None) -> RunResult:
    """Build and execute one simulation."""
    return Simulation(cfg, fleet).run()
