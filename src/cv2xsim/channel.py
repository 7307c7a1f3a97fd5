"""Propagation and reception: pathloss, shadowing, SINR, decode outcomes, and
the S-RSSI / PSSCH-RSRP measurements consumed by sensing and congestion control."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RoadGeometry, dbm_to_mw


@dataclass(frozen=True)
class ChannelModel:
    """Dual-slope log-distance channel with lognormal shadowing.

    Pathloss follows exponent `exponent` from the reference distance out to
    `breakpoint_m` and `exponent_beyond` past it, one slope if they are equal.
    Distances under d0 clamp to the reference loss.
    """

    d0_m: float = 10.0
    pl0_db: float = 67.8            # free-space loss at 10 m, 5.86 GHz
    exponent: float = 2.0
    breakpoint_m: float = 150.0
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
        for name in ("exponent", "exponent_beyond"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.shadowing_sigma_db < 0:
            raise ValueError("shadowing_sigma_db must be non-negative")
        if self.sensitivity_dbm < self.noise_floor_dbm:
            raise ValueError("sensitivity_dbm must be at or above noise_floor_dbm")
        if self.shadowing_mode not in ("iid", "static"):
            raise ValueError("shadowing_mode must be 'iid' or 'static', "
                             f"not {self.shadowing_mode!r}")
        if self.fading not in ("none", "nakagami"):
            raise ValueError(f"fading must be 'none' or 'nakagami', not {self.fading!r}")
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
    """Pathloss in dB at each distance of d_m, clamped below d0, in a new
    array that the caller may write to.

    The slope beyond the breakpoint is taken in place over every clamped
    distance, and the near slope only over the distances at or inside the
    breakpoint, whose losses it then overwrites, so each loss is its own
    slope's arithmetic.  The near distances are few on a road much longer
    than the breakpoint, and gathering the far ones would cost more than
    the near ones' share of the far slope."""
    bp = max(model.breakpoint_m, model.d0_m)
    pl_bp = model.pl0_db + 10.0 * model.exponent * np.log10(bp / model.d0_m)
    pl = np.maximum(d_m, model.d0_m, out=np.empty(np.shape(d_m)))
    near = np.flatnonzero(pl <= bp)
    d_near = pl.ravel()[near]
    np.divide(pl, bp, out=pl)
    np.log10(pl, out=pl)
    pl *= 10.0 * model.exponent_beyond
    pl += pl_bp
    if near.size:
        d_near /= model.d0_m
        np.log10(d_near, out=d_near)
        d_near *= 10.0 * model.exponent
        d_near += model.pl0_db
        pl.ravel()[near] = d_near
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
    batch, those without a transmission included.  `outcome` is built as
    int8 from the failing conditions' masks, and the engine takes the links
    it hands on from the (k, n_ue) arrays by flat index, t * n_ue + r.
    `srssi_mw` is UE-major, (n_ue, n_sf, n_subch), the layout of the sensing
    store's rings: each UE's measurements of the batch are one block.
    """

    rx_power_dbm: np.ndarray      # (k, n_ue)
    outcome: np.ndarray           # (k, n_ue) int8 Outcome codes
    distance_m: np.ndarray        # (k, n_ue)
    srssi_mw: np.ndarray          # (n_ue, n_sf, n_subch) total arrivals + noise
    is_transmitting: np.ndarray   # (n_sf, n_ue) bool, one True per transmission


def resolve_subframe(tx_sf: np.ndarray, tx_ue: np.ndarray, tx_subch: np.ndarray,
                     tx_power_dbm: np.ndarray, x: np.ndarray, y: np.ndarray,
                     model: ChannelModel, rng: np.random.Generator, geometry: RoadGeometry,
                     n_subch: int, static_shadow: np.ndarray | None,
                     fading_rng: np.random.Generator, n_sf: int) -> SubframeResolution:
    """Resolve every transmission of a batch of `n_sf` subframes against
    every UE, each subframe on its own.

    Transmission t is sent in subframe `tx_sf[t]` (0 <= tx_sf[t] < n_sf)
    by UE `tx_ue[t]` on subchannel `tx_subch[t]` at `tx_power_dbm[t]`; the
    rows are ordered by (subframe, subchannel).  UE r stands at (`x[r]`,
    `y[r]`) throughout the batch.  For each (transmission, receiver) link
    the signal is the received power of that transmission; interference is
    the mW sum of all other received powers on the same subframe and
    subchannel.  A link decodes iff the receiver is not itself
    transmitting in that subframe, the signal is at or above sensitivity,
    and signal / (interference + noise) clears the SINR threshold; the
    first failing condition names the outcome.  Every receiver also
    obtains a per-subframe, per-subchannel S-RSSI (total arrivals + noise,
    own signal excluded).

    In that order each (subframe, subchannel) group is one run of rows; a
    call that breaks it raises ValueError, and within a group the rows may
    come in any order.  Shadowing is drawn here per (tx, rx) from `rng` in
    iid mode; in static mode it is looked up from
    `static_shadow[tx_ue, rx_ue]` (None when the mode is off).  Fast
    fading, when enabled, draws from `fading_rng`, so toggling it leaves
    the shadowing realization untouched.  Each stream is drawn once per
    batch, row by row: on Philox one draw of the joined size equals the
    draws of the groups in turn, which is what resolving the subframes one
    at a time takes.  Each group's total is `sum(axis=0)` over its rows,
    which adds them one at a time in row order, as resolving one subframe
    at a time sums each subchannel.
    """
    k, nrx = len(tx_ue), len(x)
    group = tx_sf * n_subch + tx_subch
    if np.any(group[1:] < group[:-1]):
        raise ValueError("resolve_subframe: rows must be ordered by (subframe, subchannel)")
    is_tx = np.zeros((n_sf, nrx), dtype=bool)
    is_tx[tx_sf, tx_ue] = True
    # where each group's run of rows starts, and its length
    first = np.flatnonzero(np.diff(group, prepend=-1))
    size = np.diff(first, append=k)

    d = geometry.distance(x[tx_ue][:, None], y[tx_ue][:, None], x[None, :], y[None, :])
    # the received power, built in pathloss's buffer
    p_dbm = pathloss(d, model)
    np.subtract(tx_power_dbm[:, None], p_dbm, out=p_dbm)

    if model.shadowing_sigma_db > 0.0:
        if model.shadowing_mode == "static":
            if static_shadow is None:
                raise ValueError("static shadowing mode needs a pair table")
            sh = static_shadow[tx_ue]
        else:
            # the draws of `rng.normal(0.0, sigma)`, which adds the 0.0
            sh = rng.standard_normal((k, nrx))
            sh *= model.shadowing_sigma_db
        p_dbm -= sh

    if model.fading == "nakagami":
        fade = fading_rng.gamma(model.nakagami_m, 1.0 / model.nakagami_m, size=(k, nrx))
        np.maximum(fade, 1e-12, out=fade)
        np.log10(fade, out=fade)
        fade *= -10.0
        p_dbm -= fade

    p_mw = np.divide(p_dbm, 10.0)
    np.power(10.0, p_mw, out=p_mw)       # dbm_to_mw, in place
    # own signal does not reach own receiver chain
    p_mw[np.arange(k), tx_ue] = 0.0

    # each group's total over its run of rows, a group of one row being
    # that row (`np.add.reduceat` gives sums that differ in the last bit)
    total_mw = p_mw[first]
    for g in np.flatnonzero(size > 1).tolist():
        p_mw[first[g]:first[g] + size[g]].sum(axis=0, out=total_mw[g])
    # signal / (interference + noise) in dB, the interference being the
    # group's total less the signal
    sinr_db = np.repeat(total_mw, size, axis=0)
    sinr_db -= p_mw
    sinr_db += model.noise_mw
    with np.errstate(divide="ignore"):
        np.divide(p_mw, sinr_db, out=sinr_db)
    np.maximum(sinr_db, 1e-300, out=sinr_db)
    np.log10(sinr_db, out=sinr_db)
    sinr_db *= 10.0

    # the codes rise in the order the conditions are tested, so the first
    # failing one is the largest code among the failing ones
    outcome = np.less(sinr_db, model.sinr_threshold_db).view(np.int8)
    failing = np.less(p_dbm, model.sensitivity_dbm).view(np.int8)
    failing *= Outcome.BELOW_SENSITIVITY
    np.maximum(outcome, failing, out=outcome)
    failing = is_tx[tx_sf].view(np.int8)
    failing *= Outcome.HALF_DUPLEX_BLOCKED
    np.maximum(outcome, failing, out=outcome)

    # UE-major, so that the sensing store copies each UE's block as it is;
    # a group's number is its column in the (subframe, subchannel) plane
    srssi_mw = np.full((nrx, n_sf, n_subch), model.noise_mw)
    srssi_mw.reshape(nrx, n_sf * n_subch)[:, group[first]] += total_mw.T

    return SubframeResolution(p_dbm, outcome, d, srssi_mw, is_tx)
