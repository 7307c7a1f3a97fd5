"""Deterministic per-subframe simulation loop.

Each 1 ms subframe advances mobility (on its tick), updates every UE's
congestion controller and releases packets; on a subframe with a release or
a due grant occurrence, `mac_sps.Grants.step` then serves the grants and
selects new ones.  Per-UE state is arrays indexed by UE id: the fleet's,
the controllers' outputs, the waiting packet with its release time and last
broadcast state, and in `Grants` each UE's grant.

The channel is resolved a batch of subframes at a time.  Each transmitting
subframe's arrays (UE, subchannel, power, period, queue delay) are queued,
and the queue is flushed just before the sensing store is read (a resource
selection, a CBP measurement, a CR check), at a mobility tick, at the end of
the run, before its (transmission, UE) links would pass `_BATCH_LINKS`, and
before a batch would span more subframes than the sensing ring holds.  A
flush resolves every subframe since the last one in one `resolve_subframe`
call, the rows sorted by (subframe, subchannel) as it requires.  The rows,
their links counted by outcome, go to the event log in event order (by UE
within a subframe); the links of the rows sent inside the region after the
warm-up go to the metrics ledger, and the decoded links with their
measurements to the sensing store, each taken by flat index.  The shadowing
and fading streams are drawn in the order resolving one subframe at a time
draws them, so the batches leave every output as it would be.
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
# `resolve_subframe` and of the hand-off to the ledger (traced at the cap
# with the rows sorted by (subframe, subchannel): 45 on freeway-low and 48
# on urban-medium, where resolving sets the peak, and 105 on mini-low, where
# every link goes to the ledger and the hand-off and `record_arrays` set it)
_FLUSH_BYTES_PER_LINK = 128
# A flush with nothing queued resolves no transmission
_NO_TX = (np.zeros(0, dtype=np.int64),) * 5
# A txevents.csv line: the event id, then each field, floats as `metrics.FLOAT`
_CSV_ROW = ",".join(["%d"] + [metrics.FLOAT if TX_DTYPE[name].kind == "f" else "%d"
                              for name in TX_DTYPE.names]) + "\r\n"


@dataclass(frozen=True)
class RunConfig:
    scenario: mobility.ScenarioConfig = field(default_factory=mobility.ScenarioConfig)
    channel: ChannelModel = field(default_factory=ChannelModel)
    sps: SpsConfig = field(default_factory=SpsConfig)
    rate: dcc.RateControlConfig = field(default_factory=dcc.RateControlConfig)
    range: dcc.RangeControlConfig = field(default_factory=dcc.RangeControlConfig)
    cr: mac_sps.CrConfig = field(default_factory=mac_sps.CrConfig)
    metrics: metrics.MetricsConfig = field(default_factory=metrics.MetricsConfig)
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

    def __post_init__(self):
        """Checks the [run] keys, and the rules that span sections; each
        section's config checks its own keys."""
        if not 0 <= self.warmup_s < self.duration_s:
            raise ValueError("run.warmup_s must be at least 0 and below run.duration_s")
        if self.duration_s * 1000 >= 2 ** 31:
            raise ValueError("run.duration_s must stay below 2**31 ms (the ledger's int32 times)")
        for name in ("subchannels", "payload_bytes", "mobility_tick_ms", "density_period_ms",
                     "power_period_ms", "cbp_window_ms", "timeseries_period_ms"):
            if getattr(self, name) < 1:
                raise ValueError(f"run.{name} must be at least 1")
        if self.cbp_window_ms > self.sps.sensing_window_sf:
            raise ValueError("run.cbp_window_ms cannot exceed sps.sensing_window_sf")
        if self.cr.cbp_limit < 1.0 and self.sps.sensing_window_sf < mac_sps.CR_PAST_SF:
            # the CR counts each UE's own transmissions in the sensing store
            raise ValueError(f"sps.sensing_window_sf must be at least {mac_sps.CR_PAST_SF} "
                             "with cr.cbp_limit below 1")

    def memory_estimate_mib(self) -> float:
        """Estimated peak size of the state that grows with the run's scale,
        in MiB.  It grows with `scenario.vehicle_count`, and the event log's
        tx rows also with `run.duration_s`.

        Per ordered pair, 40 bytes: the ledger's `last_rx_ms` and its open
        cell's bin, attempts and decodes (int32 at most each); the ledger's
        `roi_pairs` (int64 keys) in the worst case, where every pair stays
        in range; and the one-shot distance build of
        `dcc.neighbor_counts` and the first ROI tick,
        whose peak holds two float64 arrays (the lateral separation, and the
        longitudinal one that `RoadGeometry.distance` wraps and turns into
        the distance in place).  A later ROI tick holds about 64 bytes per
        kept pair for a moment, which this covers while at most a quarter of
        the pairs stay in range (5 % on urban-medium's road at 100 m).  Plus
        8 bytes for the static shadowing draws when enabled.  Sensing: the
        UE-major (n, span, subchannels) rings of S-RSSI (float64),
        reservation RSRP (float32) and period (int32), and the (n, span)
        sensed mask.  The event log's tx rows, at one per vehicle per 100 ms
        (the shortest inter-transmit time) over the whole run.  A flush's
        transient: `_FLUSH_BYTES_PER_LINK` for each of up to `_BATCH_LINKS`
        links, and the S-RSSI and the transmitter and sensed masks of each
        subframe of the batch, which ends at the next mobility tick and spans
        at most the sensing window.  A subframe with more links than the cap
        is resolved alone, and its transient exceeds this term.  The tx rows
        count twice: the per-batch chunks and the array they are joined into.
        The output pass (`metrics.pass_bytes`): two bool masks per pair, and
        one range of `metrics._RANGE_CELLS` cells.  Left out: the ledger's
        closed cells, 16 bytes per cell a pair left, which grow with the
        observed time; and a bin with more cells than a range holds, which the
        pass takes whole.
        """
        n = self.scenario.vehicle_count
        per_pair = 4 * 4 + 8 + 2 * 8
        if self.channel.shadowing_mode == "static" and self.channel.shadowing_sigma_db > 0:
            per_pair += 8
        span = self.sps.sensing_window_sf
        sensing = span * n * (8 * self.subchannels + 1 + 8 * self.subchannels)
        tx_rows = n * int(round(self.duration_s * 1000)) // int(dcc.BASE_ITT_MS)
        flush = _BATCH_LINKS * _FLUSH_BYTES_PER_LINK \
            + min(span, self.mobility_tick_ms) * n * (8 * self.subchannels + 2)
        return (n * n * per_pair + sensing + flush + 2 * tx_rows * TX_DTYPE.itemsize
                + metrics.pass_bytes(n)) / 2 ** 20


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
        """The rows as one read-only array; the chunk list is left holding
        just their joined bytes.  (Joining bytes is a memcpy, where
        `np.concatenate` of many small structured arrays copies field by field.)"""
        if len(self._tx) != 1:
            self._tx[:] = [b"".join(self._tx)]
        return np.frombuffer(self._tx[0], TX_DTYPE)

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
    """One seeded run over a scenario.  Rate and range control always run,
    with the configs that the scheme's keys set (`dcc.SCHEMES`)."""

    def __init__(self, cfg: RunConfig, fleet: mobility.Fleet | None = None):
        self.cfg = cfg
        self.scenario = cfg.scenario
        self.geometry = self.scenario.geometry
        self.rngs = RngPool(cfg.seed)
        self.fleet = fleet if fleet is not None \
            else mobility.generate_scenario(self.scenario, self.rngs.stream("mobility"))
        # views of the fleet's arrays, which mobility.step updates in place
        self.x, self.speed, self.lane = self.fleet.x, self.fleet.speed_mps, self.fleet.lane
        self.n_ue = n = len(self.x)
        self.y = self.geometry.lane_y(self.lane)

        self.itt_ms = np.full(n, dcc.BASE_ITT_MS)
        self.itt_sf = mac_sps.grant_period(self.itt_ms)
        self.power_dbm = np.full(n, cfg.range.p_max_dbm)
        self.n_sta_s = np.zeros(n)
        self.cbp_pct = np.zeros(n)
        self.last_tx = np.full(n, -(10 ** 9), dtype=np.int64)
        self.pending = np.zeros(n, dtype=bool)
        self.gen_time = np.zeros(n, dtype=np.int64)
        self.bcast_x, self.bcast_v = self.x.copy(), self.speed.copy()
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
        max_range += self.scenario.lanes * self.scenario.lane_width_m
        self.metrics = metrics.MetricsStore(n, cfg.metrics.bin_width_m, max_range,
                                            cfg.payload_bytes, cfg.metrics.roi_radius_m)
        self.log = EventLog()
        self.timeseries: list[tuple] = []
        self._cr_points = cfg.cr.points() if cfg.cr.cbp_limit < 1.0 else None
        cr_allows = None if self._cr_points is None else self._cr_allows
        self.grants = mac_sps.Grants(n, cfg.sps, cfg.rate.pte_wait_limit_ms, self.rngs,
                                     self._pick, cr_allows)

        self.warmup_sf = int(round(cfg.warmup_s * 1000))
        self.total_sf = int(round(cfg.duration_s * 1000))
        self._region = self.scenario.region_bounds_m

    def _pick(self, ue: int, n: int, period: int, rng) -> tuple[int, int]:
        """`Grants.pick`: a resource from UE ue's sensing window at n."""
        self._flush(n)
        return mac_sps.select_resource(SensingWindow(self.store, ue), n, self.cfg.sps, rng,
                                       own_period_sf=period)

    def _cr_allows(self, n: int, ues: np.ndarray, period: np.ndarray) -> np.ndarray:
        """`Grants.cr_allows`: which UEs' occupancy ratio at n is within its limit."""
        self._flush(n)
        cr = mac_sps.compute_cr(self.store.own_tx_counts(n, ues), period, self.cfg.subchannels)
        cbp = np.minimum(self.cbp_pct[ues] / 100.0, 1.0)
        return cr <= mac_sps.cr_limit(cbp, self.cfg.cr.cbp_limit, self._cr_points)

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
        # the channel takes the rows in (subframe, subchannel) order, and the
        # log keeps them in event order, by UE within a subframe
        order = np.argsort(tx_sf * cfg.subchannels + tx_subch, kind="stable")
        subframe, tx_sf, tx_ue, tx_subch, tx_power, tx_period, delay = (
            a[order] for a in (subframe, tx_sf, tx_ue, tx_subch, tx_power, tx_period, delay))
        res = resolve_subframe(tx_sf, tx_ue, tx_subch, tx_power, self.x, self.y, cfg.channel,
                               self.rngs.stream("shadow"), self.geometry, cfg.subchannels,
                               self.static_shadow, self.rngs.stream("fading"), end - start)
        k = len(tx_ue)
        # each row's links by outcome; the UEs sending in its subframe, its
        # own among them, are the half-duplex blocked ones
        decoded = res.outcome == Outcome.DECODED
        n_decoded = decoded.sum(axis=1, dtype=np.int32)
        n_collided = (res.outcome == Outcome.COLLIDED).sum(axis=1, dtype=np.int32)
        sending = res.is_transmitting.sum(axis=1, dtype=np.int32)[tx_sf]
        n_below = n_ue - sending - n_decoded - n_collided

        tx_x = self.x[tx_ue]
        # field by field: a third of the cost of np.rec.fromarrays on a batch
        log_rows = np.empty(k, TX_DTYPE)
        for name, col in zip(TX_DTYPE.names, (subframe, tx_ue, tx_subch, tx_power, tx_x,
                                              self.lane[tx_ue], tx_period, delay, n_decoded,
                                              n_collided, n_below, sending - 1)):
            log_rows[name][order] = col
        self.log.append(log_rows)

        # the links of the recorded rows to every other UE, as flat indices
        # into the (k, n_ue) arrays
        region_lo, region_hi = self._region
        rec = np.flatnonzero((region_lo <= tx_x) & (tx_x <= region_hi)
                             & (subframe >= self.warmup_sf))
        if rec.size:
            # each row's receivers: every UE but its transmitter
            rx = np.arange(n_ue - 1)
            rx = rx + (rx >= tx_ue[rec, None])
            flat = (rec[:, None] * n_ue + rx).ravel()
            self.metrics.record_arrays(np.repeat(subframe[rec], n_ue - 1),
                                       (tx_ue[rec, None] * n_ue + rx).ravel(),
                                       res.distance_m.ravel()[flat], decoded.ravel()[flat])

        flat = np.flatnonzero(decoded)
        t = flat // n_ue
        self.store.record_subframe(start, srssi_mw=res.srssi_mw,
                                   sensed_mask=~res.is_transmitting,
                                   decodes=(tx_sf[t], flat - t * n_ue, tx_subch[t], tx_period[t],
                                            res.rx_power_dbm.ravel()[flat]))

    def run(self) -> RunResult:
        cfg, n_ue = self.cfg, self.n_ue
        rate_cfg, range_cfg = cfg.rate, cfg.range
        cbp_thresh_mw = dbm_to_mw(cfg.cbp_rssi_threshold_dbm)
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
                                          self.scenario, perturb_rng)
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
                self.itt_ms = dcc.compute_itt(self.n_sta_s, rate_cfg)
                self.itt_sf = mac_sps.grant_period(self.itt_ms)

            # busy measurement -> range control
            if n % cfg.power_period_ms == 0 and n > 0:
                self._flush(n)
                busy, slots = self.store.cbp_counts(n, cfg.cbp_window_ms, cbp_thresh_mw)
                self.cbp_pct = dcc.busy_percentage(busy, slots, self.cbp_pct)
                self.power_dbm = dcc.update_power(self.power_dbm, self.cbp_pct, range_cfg)

            # packet release: rate timer, plus the tracking-error override.
            # Kinematic state is continuous even though propagation samples
            # positions on the mobility tick: constant-speed motion must give
            # exactly zero tracking error.
            x_true, pte = self.x, None
            if rate_cfg.pte_enabled:
                frac_s = (n % cfg.mobility_tick_ms) / 1000.0
                x_true = self.geometry.wrap_x(self.x + self.speed * frac_s)
                pte = dcc.tracking_error(x_true, self.bcast_x, self.bcast_v,
                                         n - self.bcast_t, self.geometry)
            ready, pte_fire = dcc.release_triggers(self.pending, n - self.last_tx, self.itt_sf,
                                                   pte, rate_cfg.pte_threshold_m)
            gen = ready if pte_fire is None else ready | pte_fire
            # np.count_nonzero for .any() and .all(): half the cost on arrays this small
            released = np.count_nonzero(gen)
            if released:
                self.pending |= gen
                self.gen_time[gen] = n
            due = self.grants.due(n)
            if released or due.size:
                tx_ue, tx_subch, tx_period, _ = self.grants.step(n, due, ready, pte_fire,
                                                                 self.pending, self.itt_sf)
                # queued for channel resolution, logging, metrics and sensing
                if tx_ue.size:
                    self.pending[tx_ue], self.last_tx[tx_ue] = False, n
                    self.bcast_x[tx_ue] = x_true[tx_ue]
                    self.bcast_v[tx_ue], self.bcast_t[tx_ue] = self.speed[tx_ue], n
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
