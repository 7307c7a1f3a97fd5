"""Propagation and reception: pathloss, shadowing, SINR, decode outcomes, and
the S-RSSI / PSSCH-RSRP measurements consumed by sensing and congestion control."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RngStream, RoadGeometry, dbm_to_mw


@dataclass(frozen=True)
class ChannelModel:
    """Dual-slope log-distance channel with lognormal shadowing.

    Pathloss follows exponent `exponent` from the reference distance out to
    `breakpoint_m` and `exponent_beyond` past it (set breakpoint_m=None for a
    single slope).  Distances under d0 clamp to the reference loss.
    """

    d0_m: float = 10.0
    pl0_db: float = 67.8            # free-space loss at 10 m, 5.86 GHz
    exponent: float = 2.0
    breakpoint_m: float | None = 150.0
    exponent_beyond: float = 3.8
    shadowing_sigma_db: float = 3.0
    shadowing_mode: str = "iid"     # "iid" per (tx, rx, subframe) or "static" per pair
    fading: str = "none"            # "none" | "nakagami"
    nakagami_m: float = 3.0
    noise_floor_dbm: float = -98.0
    sensitivity_dbm: float = -92.0
    sinr_threshold_db: float = 2.5  # decode threshold for the configured MCS

    def __post_init__(self):
        if self.d0_m <= 0:
            raise ValueError("d0_m must be positive")
        if self.exponent <= 0 or self.exponent_beyond <= 0:
            raise ValueError("pathloss exponents must be positive")
        if self.shadowing_sigma_db < 0:
            raise ValueError("shadowing_sigma_db must be non-negative")
        if self.sensitivity_dbm < self.noise_floor_dbm:
            raise ValueError("sensitivity_dbm must be at or above noise_floor_dbm")
        if self.shadowing_mode not in ("iid", "static"):
            raise ValueError(f"unknown shadowing_mode {self.shadowing_mode!r}")
        if self.fading not in ("none", "nakagami"):
            raise ValueError(f"unknown fading {self.fading!r}")
        if self.nakagami_m <= 0:
            raise ValueError("nakagami_m must be positive")
        if self.sinr_threshold_db < 0:
            raise ValueError("sinr_threshold_db must be at least 0 dB: the sensing store keeps "
                             "one decode per (subframe, receiver, subchannel), and below 0 dB "
                             "a receiver can decode two transmissions on one subchannel")

    @property
    def noise_mw(self) -> float:
        return float(dbm_to_mw(self.noise_floor_dbm))


def pathloss(d_m: np.ndarray, model: ChannelModel) -> np.ndarray:
    """Pathloss in dB at each distance of d_m, clamped below d0."""
    d = np.maximum(np.asarray(d_m, dtype=float), model.d0_m)
    pl = model.pl0_db + 10.0 * model.exponent * np.log10(d / model.d0_m)
    if model.breakpoint_m is not None:
        bp = max(model.breakpoint_m, model.d0_m)
        pl_bp = model.pl0_db + 10.0 * model.exponent * np.log10(bp / model.d0_m)
        beyond = pl_bp + 10.0 * model.exponent_beyond * np.log10(d / bp)
        pl = np.where(d > bp, beyond, pl)
    return pl


class Outcome:
    """Reception outcome codes of one link, as stored in
    `SubframeResolution.outcome`.  Plain ints, which NumPy takes as they are."""

    DECODED = 0
    COLLIDED = 1
    BELOW_SENSITIVITY = 2
    HALF_DUPLEX_BLOCKED = 3


@dataclass
class SubframeResolution:
    """Array-backed result of resolving a batch of consecutive subframes.

    Row t is the transmission of UE `tx_ue[t]` in subframe `tx_sf[t]` of the
    batch, as passed to `resolve_subframe`; column r is UE r, since every UE
    receives.  The per-subframe arrays have one entry per subframe of the
    batch, those without a transmission included.
    """

    rx_power_dbm: np.ndarray      # (k, n_ue)
    outcome: np.ndarray           # (k, n_ue) int8 Outcome codes
    distance_m: np.ndarray        # (k, n_ue)
    srssi_mw: np.ndarray          # (n_sf, n_ue, n_subch) total arrivals + noise
    is_transmitting: np.ndarray   # (n_sf, n_ue) bool, one True per transmission


def resolve_subframe(tx_sf: np.ndarray, tx_ue: np.ndarray, tx_subch: np.ndarray,
                     tx_power_dbm: np.ndarray, x: np.ndarray, y: np.ndarray,
                     model: ChannelModel, rng: RngStream, geometry: RoadGeometry, n_subch: int,
                     static_shadow: np.ndarray | None, fading_rng: RngStream,
                     n_sf: int) -> SubframeResolution:
    """Resolve every transmission of a batch of `n_sf` subframes against
    every UE, each subframe on its own.

    Transmission t is sent in subframe `tx_sf[t]` (0 <= tx_sf[t] < n_sf, rows
    ordered by subframe) by UE `tx_ue[t]` on subchannel `tx_subch[t]` at
    `tx_power_dbm[t]`; UE r stands at (`x[r]`, `y[r]`) throughout the batch.
    For each (transmission, receiver) link the signal is the received power
    of that transmission; interference is the mW sum of all other received
    powers on the same subframe and subchannel.  A link decodes iff the
    receiver is not itself transmitting in that subframe, the signal is at or
    above sensitivity, and signal / (interference + noise) clears the SINR
    threshold; the first failing condition names the outcome.  Every
    receiver also obtains a per-subframe, per-subchannel S-RSSI (total
    arrivals + noise, own signal excluded).

    Shadowing is drawn here per (tx, rx) from `rng` in iid mode; in static
    mode it is looked up from `static_shadow[tx_ue, rx_ue]` (None when the
    mode is off).  Fast fading, when enabled, draws from `fading_rng`, so
    toggling it leaves the shadowing realization untouched.  Each stream is
    drawn once per batch, its rows taken in (subframe, subchannel, row)
    order: on Philox one draw of the joined size equals the draws of the
    (subframe, subchannel) groups in turn, which is what resolving the
    subframes one at a time takes.  Each group's total is likewise summed row
    by row in row order, as `sum(axis=0)` adds the rows of one group.
    """
    k, nrx = len(tx_ue), len(x)
    is_tx = np.zeros((n_sf, nrx), dtype=bool)
    is_tx[tx_sf, tx_ue] = True

    # the (subframe, subchannel) groups: `order` lists the rows group by
    # group, each group's rows in row order; `first` is where each group
    # starts in it
    group = tx_sf * n_subch + tx_subch
    order = np.argsort(group, kind="stable")
    first = np.flatnonzero(np.diff(group[order], prepend=-1))
    size = np.diff(first, append=k)

    d = geometry.distance(x[tx_ue][:, None], y[tx_ue][:, None], x[None, :], y[None, :])

    if model.shadowing_sigma_db > 0.0:
        if model.shadowing_mode == "static":
            if static_shadow is None:
                raise ValueError("static shadowing mode needs a pair table")
            sh = static_shadow[tx_ue]
        else:
            sh = np.empty((k, nrx))
            sh[order] = rng.normal(0.0, model.shadowing_sigma_db, size=(k, nrx))
    else:
        sh = 0.0

    if model.fading == "nakagami":
        gain = np.empty((k, nrx))
        gain[order] = fading_rng.gamma(model.nakagami_m, 1.0 / model.nakagami_m, size=(k, nrx))
        fade = -10.0 * np.log10(np.maximum(gain, 1e-12))
    else:
        fade = 0.0

    p_dbm = tx_power_dbm[:, None] - pathloss(d, model) - sh - fade
    p_mw = dbm_to_mw(p_dbm)
    # own signal does not reach own receiver chain
    p_mw[np.arange(k), tx_ue] = 0.0

    # each group's total over its rows, added one position at a time
    total_mw = np.zeros((first.size, nrx))
    for j in range(size.max(initial=0)):
        g = np.flatnonzero(size > j)
        total_mw[g] += p_mw[order[first[g] + j]]
    row_group = np.empty(k, dtype=np.int64)
    row_group[order] = np.repeat(np.arange(first.size), size)
    interference_mw = total_mw[row_group] - p_mw
    with np.errstate(divide="ignore"):
        sinr = p_mw / (interference_mw + model.noise_mw)
        sinr_row_db = 10.0 * np.log10(np.maximum(sinr, 1e-300))

    decodable = (p_dbm >= model.sensitivity_dbm)
    sinr_ok = sinr_row_db >= model.sinr_threshold_db
    code = np.where(is_tx[tx_sf], Outcome.HALF_DUPLEX_BLOCKED,
                    np.where(~decodable, Outcome.BELOW_SENSITIVITY,
                             np.where(~sinr_ok, Outcome.COLLIDED, Outcome.DECODED)))

    srssi_mw = np.full((n_sf, nrx, n_subch), model.noise_mw)
    group_sf, group_subch = np.divmod(group[order[first]], n_subch)
    srssi_mw[group_sf, :, group_subch] += total_mw

    return SubframeResolution(p_dbm, code.astype(np.int8), d, srssi_mw, is_tx)
