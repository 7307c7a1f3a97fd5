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
    """Array-backed result of resolving one subframe.

    Row t is the transmission of UE `tx_ue[t]` as passed to
    `resolve_subframe`; column r is UE r, since every UE receives.
    """

    rx_power_dbm: np.ndarray      # (k, n_ue)
    outcome: np.ndarray           # (k, n_ue) int8 Outcome codes
    distance_m: np.ndarray        # (k, n_ue)
    srssi_mw: np.ndarray          # (n_ue, n_subch) total arrivals + noise
    is_transmitting: np.ndarray   # (n_ue,) bool


def resolve_subframe(tx_ue: np.ndarray, tx_subch: np.ndarray, tx_power_dbm: np.ndarray,
                     x: np.ndarray, y: np.ndarray, model: ChannelModel, rng: RngStream,
                     geometry: RoadGeometry, n_subch: int, static_shadow: np.ndarray | None,
                     fading_rng: RngStream) -> SubframeResolution:
    """Resolve every transmission of one subframe against every UE.

    Transmission t is sent by UE `tx_ue[t]` on subchannel `tx_subch[t]` at
    `tx_power_dbm[t]`; UE r stands at (`x[r]`, `y[r]`).  For each
    (transmission, receiver) link the signal is the received power of
    that transmission; interference is the mW sum of all other same-subchannel
    received powers.  A link decodes iff the receiver is not itself
    transmitting, the signal is at or above sensitivity, and
    signal / (interference + noise) clears the SINR threshold; the first
    failing condition names the outcome.  Every receiver also obtains a
    per-subchannel S-RSSI (total arrivals + noise, own signal excluded).

    Shadowing is drawn here per (tx, rx) from `rng` in iid mode; in static
    mode it is looked up from `static_shadow[tx_ue, rx_ue]` (None when the
    mode is off).  Fast fading, when enabled, draws from `fading_rng`, so
    toggling it leaves the shadowing realization untouched.
    """
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

    return SubframeResolution(rxp_dbm, codes, dists, srssi_mw, is_tx)
