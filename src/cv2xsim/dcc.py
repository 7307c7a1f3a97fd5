"""Distributed congestion control: transmission rate control driven by
neighbor density, transmission range control driven by channel busy
percentage, and the position-tracking-error transmit trigger.

Every scheme runs these same rules.  A scheme is just the config keys it
sets (`SCHEMES`).  Baseline sets the ITT ceiling to the ITT floor and
P_min to P_max, so `compute_itt` and `update_power` return constants, and
it turns the tracking trigger off."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RoadGeometry

# The inter-transmit time at low density: the floor of rate control
BASE_ITT_MS = 100.0


@dataclass(frozen=True)
class RateControlConfig:
    density_coefficient: float = 25.0   # vehicle count where the rate starts stretching
    itt_max_ms: float = 600.0
    neighbor_radius_m: float = 100.0
    pte_threshold_m: float = 0.5
    pte_enabled: bool = True
    pte_wait_limit_ms: int = 20         # ride the existing grant if it lands this soon

    def __post_init__(self):
        if self.density_coefficient <= 0:
            raise ValueError("density_coefficient must be positive")
        if self.itt_max_ms < BASE_ITT_MS:
            raise ValueError(f"itt_max_ms must be at least {BASE_ITT_MS:g} ms")
        if self.neighbor_radius_m <= 0:
            raise ValueError("neighbor_radius_m must be positive")
        for name in ("pte_threshold_m", "pte_wait_limit_ms"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0")


@dataclass(frozen=True)
class RangeControlConfig:
    p_min_dbm: float = 10.0
    p_max_dbm: float = 23.0
    u_min_pct: float = 50.0
    u_max_pct: float = 80.0
    eta: float = 0.5

    def __post_init__(self):
        if self.p_min_dbm > self.p_max_dbm:
            raise ValueError("p_min_dbm must not exceed p_max_dbm")
        if self.u_min_pct >= self.u_max_pct:
            raise ValueError("u_min_pct must be below u_max_pct")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")


def neighbor_counts(x: np.ndarray, y: np.ndarray, geometry: RoadGeometry,
                    radius_m: float) -> np.ndarray:
    """Vehicles within radius_m of each vehicle at (x, y) (boundary
    inclusive), itself excluded.  Builds the (n, n) distances for the call."""
    return (np.sum(geometry.within(x, y, radius_m), axis=1) - 1).astype(float)


def smooth_density(n_new: float, n_prev_smoothed: float) -> float:
    """Single-step memory with a 1/2 smoothing factor."""
    return (n_new + n_prev_smoothed) / 2.0


def busy_percentage(busy: np.ndarray, slots: np.ndarray, previous_pct: np.ndarray) -> np.ndarray:
    """CBP in percent per UE: busy over sensed subchannel slots of the
    measurement window.  A UE that sensed no slot keeps its previous value."""
    return np.where(slots > 0, 100.0 * busy / np.maximum(slots, 1), previous_pct)


def compute_itt(n_sta_smoothed, cfg: RateControlConfig):
    """Inter-transmit time in ms from the smoothed neighbor count.

    Flat at BASE_ITT_MS up to the density coefficient, then linear, then
    capped at itt_max_ms once the count reaches (itt_max / BASE_ITT_MS) times
    the coefficient.
    Takes an array of counts (one per UE) and returns one ITT per count.
    """
    n = np.asarray(n_sta_smoothed, dtype=float)
    if np.any(n < 0):
        raise ValueError("neighbor count cannot be negative")
    b = cfg.density_coefficient
    return np.where(n <= b, BASE_ITT_MS,
                    np.where(n < (cfg.itt_max_ms / BASE_ITT_MS) * b, (n / b) * BASE_ITT_MS,
                             cfg.itt_max_ms))


def power_target(cbp_pct, cfg: RangeControlConfig):
    """Piecewise-linear busy-percentage-to-power map: full power below u_min,
    minimum power at and above u_max, linear in between, per UE."""
    c = np.asarray(cbp_pct, dtype=float)
    frac = (cfg.u_max_pct - c) / (cfg.u_max_pct - cfg.u_min_pct)
    return np.where(c < cfg.u_min_pct, cfg.p_max_dbm,
                    np.where(c >= cfg.u_max_pct, cfg.p_min_dbm,
                             cfg.p_min_dbm + frac * (cfg.p_max_dbm - cfg.p_min_dbm)))


def update_power(p_k_dbm, cbp_pct, cfg: RangeControlConfig):
    """One smoothed step of the power feedback loop:
    p_{k+1} = p_k + eta * (target(cbp) - p_k), per UE."""
    p = np.asarray(p_k_dbm, dtype=float)
    return p + cfg.eta * (power_target(cbp_pct, cfg) - p)


def tracking_error(x_m: np.ndarray, last_x_m: np.ndarray, last_speed_mps: np.ndarray,
                   elapsed_ms: np.ndarray, geometry: RoadGeometry) -> np.ndarray:
    """Position tracking error: how far each vehicle (at x_m, on the road)
    has drifted from the constant-velocity extrapolation of its last
    broadcast state, elapsed_ms after that broadcast."""
    if np.any(elapsed_ms < 0):
        raise ValueError("elapsed time since the last broadcast cannot be negative")
    predicted = geometry.wrap_x(last_x_m + last_speed_mps * (elapsed_ms / 1000.0))
    return geometry.dx(predicted, x_m)


def release_triggers(pending: np.ndarray, elapsed_ms: np.ndarray, period_ms: np.ndarray,
                     pte_m: np.ndarray | None, pte_threshold_m: float):
    """Masks of the UEs that release a packet now, as (timer, tracking).

    Only UEs with no packet pending release.  The rate timer fires once
    elapsed_ms since the last transmission reaches period_ms, the ITT as the
    whole subframes of a grant's period, so the packet is ready by the
    grant's occurrence; the tracking trigger fires where the tracking error
    exceeds the threshold.  With no tracking error (pte_m None) there is no
    tracking mask: it is None.
    """
    idle = ~pending
    timer = idle & (elapsed_ms >= period_ms)
    return timer, None if pte_m is None else idle & (pte_m > pte_threshold_m)


# Config keys each scheme sets over the defaults, as each scenario does
# (`mobility.PRESETS`).  Each dcc-* entry is a row of the paper's table.
SCHEMES: dict[str, dict[str, object]] = {
    "baseline": {"rate.itt_max_ms": BASE_ITT_MS, "rate.pte_enabled": False,
                 "range.p_min_dbm": 23.0, "range.p_max_dbm": 23.0},
    "dcc-std": {"range.p_max_dbm": 23.0, "range.p_min_dbm": 10.0, "range.u_max_pct": 80.0,
                "range.u_min_pct": 50.0, "rate.density_coefficient": 25.0},
    "dcc-1": {"range.p_max_dbm": 23.0, "range.p_min_dbm": 23.0, "range.u_max_pct": 80.0,
              "range.u_min_pct": 50.0, "rate.density_coefficient": 25.0},
    "dcc-2": {"range.p_max_dbm": 23.0, "range.p_min_dbm": 10.0, "range.u_max_pct": 50.0,
              "range.u_min_pct": 30.0, "rate.density_coefficient": 25.0},
    "dcc-3": {"range.p_max_dbm": 23.0, "range.p_min_dbm": 5.0, "range.u_max_pct": 50.0,
              "range.u_min_pct": 30.0, "rate.density_coefficient": 25.0},
    "dcc-4": {"range.p_max_dbm": 23.0, "range.p_min_dbm": 5.0, "range.u_max_pct": 50.0,
              "range.u_min_pct": 30.0, "rate.density_coefficient": 35.0},
    "dcc-5": {"range.p_max_dbm": 23.0, "range.p_min_dbm": 5.0, "range.u_max_pct": 50.0,
              "range.u_min_pct": 30.0, "rate.density_coefficient": 45.0},
    "dcc-6": {"range.p_max_dbm": 23.0, "range.p_min_dbm": 5.0, "range.u_max_pct": 50.0,
              "range.u_min_pct": 30.0, "rate.density_coefficient": 55.0},
    "dcc-7": {"range.p_max_dbm": 23.0, "range.p_min_dbm": 0.0, "range.u_max_pct": 50.0,
              "range.u_min_pct": 30.0, "rate.density_coefficient": 45.0,
              "sps.slrrc_min": 1, "sps.slrrc_max": 5, "sps.p_resel": 0.2},
}
