"""Distributed congestion control: transmission rate control driven by
neighbor density, transmission range control driven by channel busy
percentage, and the position-tracking-error transmit trigger."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import RoadGeometry


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
        if self.itt_max_ms < 100.0:
            raise ValueError("itt_max_ms must be at least 100 ms")
        if self.neighbor_radius_m <= 0:
            raise ValueError("neighbor_radius_m must be positive")


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
    within = geometry.distance(x[:, None], y[:, None], x[None, :], y[None, :]) <= radius_m
    return (np.sum(within, axis=1) - 1).astype(float)


def smooth_density(n_new: float, n_prev_smoothed: float) -> float:
    """Single-step memory with a 1/2 smoothing factor."""
    return (n_new + n_prev_smoothed) / 2.0


def busy_percentage(busy: np.ndarray, slots: np.ndarray, previous_pct: np.ndarray) -> np.ndarray:
    """CBP in percent per UE: busy over sensed subchannel slots of the
    measurement window.  A UE that sensed no slot keeps its previous value."""
    return np.where(slots > 0, 100.0 * busy / np.maximum(slots, 1), previous_pct)


def compute_itt(n_sta_smoothed, cfg: RateControlConfig):
    """Inter-transmit time in ms from the smoothed neighbor count.

    Flat at 100 ms up to the density coefficient, then linear, then capped at
    itt_max_ms once the count reaches (itt_max / 100 ms) times the coefficient.
    Takes an array of counts (one per UE) and returns one ITT per count.
    """
    n = np.asarray(n_sta_smoothed, dtype=float)
    if np.any(n < 0):
        raise ValueError("neighbor count cannot be negative")
    b = cfg.density_coefficient
    return np.where(n <= b, 100.0,
                    np.where(n < (cfg.itt_max_ms / 100.0) * b, (n / b) * 100.0, cfg.itt_max_ms))


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


def release_triggers(pending: np.ndarray, elapsed_ms: np.ndarray, itt_ms: np.ndarray,
                     pte_m: np.ndarray | None, pte_threshold_m: float):
    """Masks of the UEs that release a packet now, as (timer, tracking).

    Only UEs with no packet pending release.  The rate timer fires once
    elapsed_ms since the last transmission reaches itt_ms; the tracking
    trigger fires where the tracking error exceeds the threshold, and never
    when there is no tracking error (pte_m None).
    """
    idle = ~pending
    timer = idle & (elapsed_ms >= itt_ms)
    if pte_m is None:
        return timer, np.zeros_like(timer)
    return timer, idle & (pte_m > pte_threshold_m)


@dataclass(frozen=True)
class DccScheme:
    """A named congestion-control configuration; baseline disables everything
    (fixed 100 ms rate, fixed maximum power, no tracking-error trigger)."""

    name: str
    enabled: bool = True
    rate: RateControlConfig = field(default_factory=RateControlConfig)
    range: RangeControlConfig = field(default_factory=RangeControlConfig)
    adjustments: dict = field(default_factory=dict)  # config overrides this scheme needs


def _scheme(name, p_max, p_min, u_max, u_min, b, **kw):
    return DccScheme(name=name,
                     rate=RateControlConfig(density_coefficient=b),
                     range=RangeControlConfig(p_min_dbm=p_min, p_max_dbm=p_max,
                                              u_min_pct=u_min, u_max_pct=u_max),
                     **kw)


SCHEMES: dict[str, DccScheme] = {
    "baseline": DccScheme(name="baseline", enabled=False,
                          rate=RateControlConfig(pte_enabled=False)),
    "dcc-std": _scheme("dcc-std", p_max=23.0, p_min=10.0, u_max=80.0, u_min=50.0, b=25.0),
    "dcc-1": _scheme("dcc-1", p_max=23.0, p_min=23.0, u_max=80.0, u_min=50.0, b=25.0),
    "dcc-2": _scheme("dcc-2", p_max=23.0, p_min=10.0, u_max=50.0, u_min=30.0, b=25.0),
    "dcc-3": _scheme("dcc-3", p_max=23.0, p_min=5.0, u_max=50.0, u_min=30.0, b=25.0),
    "dcc-4": _scheme("dcc-4", p_max=23.0, p_min=5.0, u_max=50.0, u_min=30.0, b=35.0),
    "dcc-5": _scheme("dcc-5", p_max=23.0, p_min=5.0, u_max=50.0, u_min=30.0, b=45.0),
    "dcc-6": _scheme("dcc-6", p_max=23.0, p_min=5.0, u_max=50.0, u_min=30.0, b=55.0),
    "dcc-7": _scheme("dcc-7", p_max=23.0, p_min=0.0, u_max=50.0, u_min=30.0, b=45.0,
                     adjustments={"sps.slrrc_min": 1, "sps.slrrc_max": 5, "sps.p_resel": 0.2}),
}


def scheme_by_name(name: str) -> DccScheme:
    try:
        return SCHEMES[name]
    except KeyError:
        raise KeyError(f"unknown scheme {name!r}; available: {', '.join(SCHEMES)}") from None
