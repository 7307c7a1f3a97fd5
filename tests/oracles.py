"""Reference implementations the array code in cv2xsim is checked against.

`compute_itt`, `power_target` and `update_power` are the one-UE, branch by
branch form of the congestion-control rules in `cv2xsim.dcc`.

`compute_cr` is the table form of `cv2xsim.mac_sps.compute_cr` over the
counts of `SensingStore.own_tx_counts`: (1000, n_subch) indicator tables of
the resource pool and of the slots the UE used, listed by time, or reserved
over the occupancy window.

`select_candidates` and `_rank_metric` are the resource-by-resource form of
`cv2xsim.mac_sps.select_candidates`: sets of exempt resources, a Python sort
over (average, subframe, subchannel) and a sequential sum per candidate.
They read the same `SensingStore`, through `reservation_records`, which
walks its reservation cells subframe by subframe, checking each row's stamp,
and lists one record per decode.

`DenseMetricsStore`, `pdr`, `slt` and `blind_nodes` are the dense form of
the reception ledger in `cv2xsim.metrics`: two (n_ue**2, n_bins) count
tables written cell by cell and swept column by column, and an (n_ue, n_ue)
region-of-interest mask that each tick's in-range mask is ANDed into.
`dense_counts` lays the sparse ledger's cells out in the same tables.

`resolve_subframe` is the subframe-by-subframe form of
`cv2xsim.channel.resolve_subframe`: one call per subframe, with a draw and
a `sum(axis=0)` per subchannel.

`pair_distances` is the (n, n) matrix of every pair's distance, computed at
once: the reference for the distances that `cv2xsim.dcc.neighbor_counts`
and `MetricsStore.update_roi` compute where they read them.

`Vehicle`, `generate_scenario` and `step` are the vehicle-by-vehicle form
of `cv2xsim.mobility`: one object per vehicle, moved in a Python loop with
one scalar normal draw per vehicle.

`fmt` and the `csv.writer` writers `write_bin_csv`, `write_blind_csv`,
`write_timeseries_csv` and `write_gains_csv` are the reference for the `%`
row templates of the CSV writers in `cv2xsim.metrics`: `fmt` writes an int
as `str` and a float at 6 significant digits.  `write_ipg_csv` and
`write_txevents_csv` are the row-by-row form of
`cv2xsim.metrics.write_ipg_csv` and `cv2xsim.engine.EventLog.write_csv`:
one f-string per ECDF sample, with its probability k/N, and per
transmission.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from cv2xsim.channel import ChannelModel, Outcome, SubframeResolution, pathloss
from cv2xsim.core import RngStream, RoadGeometry
from cv2xsim.dcc import RangeControlConfig, RateControlConfig
from cv2xsim.engine import TX_DTYPE, EventLog
from cv2xsim.metrics import BinValue, BlindReport, GainBin, IpgStats, MetricsStore
from cv2xsim.mac_sps import SelectionResult, SensingStore, SensingWindow, SpsConfig
from cv2xsim.mobility import ScenarioPreset


class Record(NamedTuple):
    """One transmission decoded by one receiver."""

    subframe: int
    receiver: int
    subchannel: int
    period_sf: int
    rsrp_dbm: float        # a float32 value


def reservation_records(store: SensingStore) -> list[Record]:
    """The decodes of the store's recorded subframes, ordered by (subframe,
    receiver, subchannel)."""
    records = []
    for j in valid_subframes(store, store.oldest_valid(), store.newest):
        row = j % store.span
        for r in range(store.n_ue):
            for c in range(store.n_subch):
                rsrp = store.reservations[row, r, c]
                if rsrp > -np.inf:
                    records.append(Record(j, r, c, int(store.period_sf[row, r, c]), float(rsrp)))
    return records


def valid_subframes(store: SensingStore, lo: int, hi: int) -> list[int]:
    """Recorded subframes j with lo <= j <= hi, ascending."""
    lo = max(lo, 0)
    return [j for j in range(lo, hi + 1) if store.row_subframe[j % store.span] == j]


def _projected_candidates(j: int, period: int, lo: int, hi: int):
    """Future subframes t in [lo, hi] with t = j + m*period, m >= 1."""
    if period <= 0:
        return
    m = (lo - j + period - 1) // period
    if m < 1:
        m = 1
    t = j + m * period
    while t <= hi:
        yield t
        t += period


def select_candidates(window: SensingWindow, n: int, cfg: SpsConfig, *,
                      own_period_sf: int) -> SelectionResult:
    """Resource-by-resource form of `cv2xsim.mac_sps.select_candidates`; its
    candidates are a list of (subframe, subchannel) tuples."""
    store = window.store
    ue = window.ue_index
    n_subch = store.n_subch
    lo, hi = n + cfg.t1_sf, n + cfg.t2_sf
    pool = [(t, c) for t in range(lo, hi + 1) for c in range(n_subch)]
    need = math.ceil(cfg.keep_fraction * len(pool))
    oldest = store.oldest_valid()

    # Reservations heard in the same congruence class exempt the same future
    # resources, so only the strongest occurrence per class matters at every
    # threshold level.
    classes: dict[tuple[int, int, int], float] = {}
    for rec in reservation_records(store):
        if oldest <= rec.subframe < n and rec.receiver == ue:
            key = (rec.subframe % rec.period_sf, rec.subchannel, rec.period_sf)
            if classes.get(key, -math.inf) < rec.rsrp_dbm:
                classes[key] = rec.rsrp_dbm

    unsensed_exempt: set[tuple[int, int]] = set()
    if cfg.unsensed_exempt:
        for j in valid_subframes(store, max(oldest, n - store.span), n - 1):
            if not store.sensed[j % store.span, ue]:
                for t in _projected_candidates(j, own_period_sf, lo, hi):
                    for c in range(n_subch):
                        unsensed_exempt.add((t, c))

    threshold = cfg.th_sps_dbm
    escalations = 0
    while True:
        rsrp_exempt: set[tuple[int, int]] = set()
        for (residue, c, period), rsrp in classes.items():
            if rsrp > threshold:
                first = lo + (residue - lo) % period
                for t in range(first, hi + 1, period):
                    rsrp_exempt.add((t, c))
        survivors = [csr for csr in pool if csr not in rsrp_exempt and csr not in unsensed_exempt]
        if len(survivors) >= need:
            break
        if not rsrp_exempt:
            # threshold exhausted; lifting the half-duplex exemptions is the
            # only remaining way to reach the required pool fraction
            survivors = list(pool)
            break
        threshold += 3.0
        escalations += 1

    ranked = sorted(((_rank_metric(window, t, c, cfg, oldest, n - 1), t, c, (t, c))
                     for t, c in survivors), key=lambda e: e[:3])
    cut = ranked[min(need, len(ranked)) - 1][0]
    kept = [e[3] for e in ranked if e[0] <= cut]
    return SelectionResult(kept, escalations, threshold, len(pool))


def _rank_metric(window: SensingWindow, subframe: int, subchannel: int, cfg: SpsConfig,
                 oldest: int, latest: int) -> float:
    """Average S-RSSI over the candidate's past projections, newest first.
    Only subframes strictly before the selection instant count."""
    store, ue = window.store, window.ue_index
    values = []
    j = subframe - cfg.rank_period_sf
    while j >= oldest:
        if j <= latest:
            row = j % store.span
            if store.row_subframe[row] == j and store.sensed[row, ue]:
                v = float(store.srssi_mw[row, ue, subchannel])
                values.append(v if cfg.rank_average == "mw" else 10.0 * math.log10(v))
        j -= cfg.rank_period_sf
    if not values:
        return store.noise_mw if cfg.rank_average == "mw" else 10.0 * math.log10(store.noise_mw)
    return sum(values) / len(values)


def compute_itt(n_sta_smoothed: float, cfg: RateControlConfig) -> float:
    """Inter-transmit time in ms from one UE's smoothed neighbor count."""
    if n_sta_smoothed < 0:
        raise ValueError("neighbor count cannot be negative")
    b = cfg.density_coefficient
    if n_sta_smoothed <= b:
        return 100.0
    if n_sta_smoothed < (cfg.itt_max_ms / 100.0) * b:
        return (n_sta_smoothed / b) * 100.0
    return cfg.itt_max_ms


def power_target(cbp_pct: float, cfg: RangeControlConfig) -> float:
    """Piecewise-linear busy-percentage-to-power map for one UE."""
    if cbp_pct < cfg.u_min_pct:
        return cfg.p_max_dbm
    if cbp_pct >= cfg.u_max_pct:
        return cfg.p_min_dbm
    frac = (cfg.u_max_pct - cbp_pct) / (cfg.u_max_pct - cfg.u_min_pct)
    return cfg.p_min_dbm + frac * (cfg.p_max_dbm - cfg.p_min_dbm)


def update_power(p_k_dbm: float, cbp_pct: float, cfg: RangeControlConfig) -> float:
    """One smoothed step of one UE's power feedback loop."""
    return p_k_dbm + cfg.eta * (power_target(cbp_pct, cfg) - p_k_dbm)


def occupancy_ratio(n: int, pool: np.ndarray, used: np.ndarray, window: tuple[int, int]) -> float:
    """Channel-occupancy ratio over a half-open window [tau1, tau2) from
    pool-membership and used-or-reserved indicator tables."""
    tau1, tau2 = window
    if tau2 - tau1 != 1000:
        raise ValueError("occupancy window must cover exactly 1000 subframes")
    if n - tau1 <= (tau2 - tau1) / 2:
        raise ValueError("occupancy window must have its majority in the past of n")
    if pool.shape != used.shape or pool.shape[0] != tau2 - tau1:
        raise ValueError("pool/used tables must both cover the window")
    denom = int(pool.sum())
    if denom == 0:
        raise ValueError("resource pool is empty over the window")
    return float((pool * used).sum()) / denom


def compute_cr(n: int, past_tx: list[int], period_sf: int, n_subch: int) -> float:
    """One UE's occupancy at n: its past transmissions and its grant's future
    occurrences marked on subchannel 0 of a table of the window [n-750, n+250)."""
    tau1, tau2 = n - 750, n + 250
    used = np.zeros((tau2 - tau1, n_subch), dtype=int)
    for t in list(past_tx) + list(range(n, tau2, period_sf)):
        if tau1 <= t < tau2:
            used[t - tau1, 0] = 1
    return occupancy_ratio(n, np.ones_like(used), used, (tau1, tau2))


def resolve_subframe(tx_ue: np.ndarray, tx_subch: np.ndarray, tx_power_dbm: np.ndarray,
                     x: np.ndarray, y: np.ndarray, model: ChannelModel, rng: RngStream,
                     geometry: RoadGeometry, n_subch: int, static_shadow: np.ndarray | None,
                     fading_rng: RngStream) -> SubframeResolution:
    """Per-subframe form of `cv2xsim.channel.resolve_subframe`: the result
    of one subframe, as a batch of one, with a draw of each stream and a
    `sum(axis=0)` per subchannel."""
    k, nrx = len(tx_ue), len(x)
    noise_mw = model.noise_mw
    srssi_mw = np.full((nrx, n_subch), noise_mw)
    rxp_dbm = np.zeros((k, nrx))
    codes = np.zeros((k, nrx), dtype=np.int8)
    dists = np.zeros((k, nrx))

    is_tx = np.zeros(nrx, dtype=bool)
    is_tx[tx_ue] = True

    for subch in range(n_subch):
        rows = np.flatnonzero(tx_subch == subch)
        if not rows.size:
            continue
        ues = tx_ue[rows]
        d = geometry.distance(x[ues][:, None], y[ues][:, None], x[None, :], y[None, :])

        if model.shadowing_sigma_db > 0.0:
            if model.shadowing_mode == "static":
                if static_shadow is None:
                    raise ValueError("static shadowing mode needs a pair table")
                sh = static_shadow[ues]
            else:
                sh = rng.normal(0.0, model.shadowing_sigma_db, size=d.shape)
        else:
            sh = 0.0

        if model.fading == "nakagami":
            gain = fading_rng.gamma(model.nakagami_m, 1.0 / model.nakagami_m, size=d.shape)
            fade = -10.0 * np.log10(np.maximum(gain, 1e-12))
        else:
            fade = 0.0

        p_dbm = tx_power_dbm[rows][:, None] - pathloss(d, model) - sh - fade
        p_mw = 10.0 ** (p_dbm / 10.0)
        # own signal does not reach own receiver chain
        p_mw[np.arange(rows.size), ues] = 0.0

        total_mw = p_mw.sum(axis=0)
        interference_mw = total_mw[None, :] - p_mw
        with np.errstate(divide="ignore"):
            sinr = p_mw / (interference_mw + noise_mw)
            sinr_row_db = 10.0 * np.log10(np.maximum(sinr, 1e-300))

        decodable = (p_dbm >= model.sensitivity_dbm)
        sinr_ok = sinr_row_db >= model.sinr_threshold_db
        code = np.where(is_tx[None, :], Outcome.HALF_DUPLEX_BLOCKED,
                        np.where(~decodable, Outcome.BELOW_SENSITIVITY,
                                 np.where(~sinr_ok, Outcome.COLLIDED, Outcome.DECODED)))

        srssi_mw[:, subch] += total_mw
        rxp_dbm[rows] = p_dbm
        codes[rows] = code
        dists[rows] = d

    return SubframeResolution(rxp_dbm, codes, dists, srssi_mw[None], is_tx[None])


def pair_distances(x: np.ndarray, y: np.ndarray, geometry: RoadGeometry) -> np.ndarray:
    """(n, n) distances between the vehicles at (x, y), entry [i, j] from i to j."""
    dx = geometry.dx(x[:, None], x[None, :])
    dy = y[:, None] - y[None, :]
    return np.hypot(dx, dy)


class DenseMetricsStore:
    """Reception ledger with a dense (n_ue**2, n_bins) table per count."""

    def __init__(self, n_ue: int, bin_width_m: float, max_range_m: float,
                 payload_bytes: int, roi_radius_m: float):
        if bin_width_m <= 0 or max_range_m <= 0:
            raise ValueError("bin_width_m and max_range_m must be positive")
        self.n_ue = n_ue
        self.bin_width_m = bin_width_m
        self.n_bins = int(math.ceil(max_range_m / bin_width_m))
        self.payload_bytes = payload_bytes
        self.roi_radius_m = roi_radius_m
        self.tx_count = np.zeros((n_ue * n_ue, self.n_bins), dtype=np.int32)
        self.rx_count = np.zeros((n_ue * n_ue, self.n_bins), dtype=np.int32)
        self.gap_sum_ms = np.zeros(self.n_bins)
        self.gap_count = np.zeros(self.n_bins, dtype=np.int64)
        self._gap_chunks: list[np.ndarray] = []
        self.last_rx_ms = np.full(n_ue * n_ue, -1, dtype=np.int64)
        self.roi_always = ~np.eye(n_ue, dtype=bool)

    def record_arrays(self, now_ms: int, pair_ids: np.ndarray, dist_m: np.ndarray,
                      decoded: np.ndarray) -> None:
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
                self.gap_sum_ms += np.bincount(db[has_prev], weights=gaps,
                                               minlength=self.n_bins)
                self.gap_count += np.bincount(db[has_prev], minlength=self.n_bins)
                self._gap_chunks.append(gaps)
            self.last_rx_ms[dp] = now_ms

    def update_roi(self, within_roi: np.ndarray) -> None:
        self.roi_always &= within_roi

    def gap_samples(self) -> np.ndarray:
        if not self._gap_chunks:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(self._gap_chunks)

    def bin_edges(self, b: int) -> tuple[float, float]:
        return (b * self.bin_width_m, (b + 1) * self.bin_width_m)


def pdr(store: DenseMetricsStore) -> list[BinValue]:
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


def slt(store: DenseMetricsStore, observation_s: float) -> list[BinValue]:
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


def blind_nodes(store: DenseMetricsStore) -> BlindReport:
    attempts = store.tx_count.sum(axis=1).reshape(store.n_ue, store.n_ue)
    decodes = store.rx_count.sum(axis=1).reshape(store.n_ue, store.n_ue)
    blind = store.roi_always & (attempts > 0) & (decodes == 0)
    pairs = [(int(a), int(b)) for a, b in np.argwhere(blind)]
    return BlindReport(int(np.unique([b for _, b in pairs]).size) if pairs else 0, pairs)


def dense_counts(store: MetricsStore) -> tuple[np.ndarray, np.ndarray]:
    """(attempts, decodes) of a sparse ledger as (n_ue**2, n_bins) tables."""
    cells = store.cells()
    tx = np.zeros((store.n_ue * store.n_ue, store.n_bins), dtype=np.int64)
    rx = np.zeros_like(tx)
    tx[cells.pair, cells.bin] = cells.tx
    rx[cells.pair, cells.bin] = cells.rx
    return tx, rx


def fmt(v) -> str:
    """CSV number formatting: floats at 6 significant digits."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.6g}"


def write_bin_csv(path, rows: list[BinValue], value_col: str) -> None:
    """One row per distance bin, its value under the header `value_col`."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["bin_lo_m", "bin_hi_m", value_col, "n_pairs"])
        for r in rows:
            w.writerow([fmt(r.bin_lo_m), fmt(r.bin_hi_m), fmt(r.value), r.n_pairs])


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


_ECDF_CHUNK = 1 << 12


def write_ipg_csv(path, stats: IpgStats) -> None:
    """Single file with three row kinds: per-bin means, the pooled ECDF, and
    the 80th percentile."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["kind", "bin_lo_m", "bin_hi_m", "gap_ms", "value"])
        for r in stats.bins:
            w.writerow(["bin_mean", fmt(r.bin_lo_m), fmt(r.bin_hi_m), fmt(r.value), r.n_pairs])
        # the rows csv.writer would emit (gaps are whole ms, so fmt gives
        # str(int)), formatted a chunk at a time to keep few strings alive;
        # the k-th sorted gap has probability k/N
        gaps = stats.ecdf_gaps_ms
        for i in range(0, gaps.size, _ECDF_CHUNK):
            f.writelines(f"ecdf,,,{g},{(i + j + 1) / gaps.size:.6g}\r\n"
                         for j, g in enumerate(gaps[i:i + _ECDF_CHUNK].tolist()))
        if stats.p80_ms is not None:
            w.writerow(["p80", "", "", fmt(stats.p80_ms), ""])


_LOG_CHUNK = 65536


def write_txevents_csv(log: EventLog, path) -> None:
    """One line per transmission; floats at 6 significant digits, as `fmt`
    writes them."""
    events = log.tx_events
    with open(path, "w", newline="") as f:
        f.write("event_id," + ",".join(TX_DTYPE.names) + "\r\n")
        for i in range(0, len(events), _LOG_CHUNK):
            f.writelines(f"{i + j},{sf},{ue},{ch},{p:.6g},{x:.6g},{lane},{per},{qd},"
                         f"{dec},{col},{below},{hd}\r\n"
                         for j, (sf, ue, ch, p, x, lane, per, qd, dec, col, below, hd)
                         in enumerate(events[i:i + _LOG_CHUNK].tolist()))


@dataclass
class Vehicle:
    x: float
    lane: int
    speed_mps: float        # signed by travel direction
    nominal_mps: float      # constant cruise speed the perturbation reverts to


def generate_scenario(preset: ScenarioPreset, rng: RngStream) -> list[Vehicle]:
    """Vehicle-by-vehicle form of `cv2xsim.mobility.generate_scenario`."""
    count, lanes = preset.vehicle_count, preset.lanes
    length_m = preset.road_length_km * 1000.0
    speed = preset.speed_kmh / 3.6
    per_lane = [count // lanes + (1 if i < count % lanes else 0) for i in range(lanes)]
    vehicles = []
    for lane, k in enumerate(per_lane):
        direction = 1.0 if lane < lanes // 2 else -1.0
        for x in rng.uniform_array(0.0, length_m, size=k):
            vehicles.append(Vehicle(float(x), lane, direction * speed, direction * speed))
    return vehicles


def step(vehicles: list[Vehicle], dt_s: float, preset: ScenarioPreset,
         rng: RngStream) -> list[int]:
    """Vehicle-by-vehicle form of `cv2xsim.mobility.step`."""
    if dt_s <= 0:
        raise ValueError("dt_s must be positive")
    length_m = preset.road_length_km * 1000.0
    respawned = []
    perturb = preset.speed_sigma > 0.0
    for i, v in enumerate(vehicles):
        if perturb:
            dv = preset.speed_reversion * (v.nominal_mps - v.speed_mps) * dt_s \
                + preset.speed_sigma * math.sqrt(dt_s) * rng.normal(size=1)[0]
            speed = v.speed_mps + dv
            cap = 1.2 * abs(v.nominal_mps)
            sign = 1.0 if v.nominal_mps >= 0 else -1.0
            v.speed_mps = sign * min(max(sign * speed, 0.0), cap)
        x = v.x + v.speed_mps * dt_s
        if preset.wraparound:
            x %= length_m
        elif x >= length_m or x < 0.0:
            x %= length_m
            respawned.append(i)
        v.x = x
    return respawned
