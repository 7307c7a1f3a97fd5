"""Highway scenario generation and vehicle kinematics.

A scenario is just the config keys it sets over the defaults (`PRESETS`),
as a scheme is (`dcc.SCHEMES`).  The paper-scale scenarios model a 3.6 km,
12-lane highway at five traffic densities; the mini-* scenarios are
desk-scale rings sized so the full test suite runs in minutes.  A `Fleet`
holds every vehicle's position, lane and speed as arrays indexed by UE id,
and `step` moves them all at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RoadGeometry


@dataclass(frozen=True)
class ScenarioConfig:
    vehicle_count: int = 300
    speed_kmh: float = 140.0
    road_length_km: float = 3.6
    lanes: int = 12
    lane_width_m: float = 4.0
    wraparound: bool = False
    region: str = "middle-third"        # metrics draw only from this stretch
    speed_sigma: float = 0.0            # mean-reverting speed noise (m/s), 0 = constant speed
    speed_reversion: float = 0.5        # pull back toward the nominal speed, 1/s

    def __post_init__(self):
        if self.vehicle_count < 1:
            raise ValueError("vehicle_count must be positive")
        if self.region not in ("middle-third", "full"):
            raise ValueError(f"region must be 'middle-third' or 'full', not {self.region!r}")
        if self.lanes < 1:
            raise ValueError("lanes must be at least 1")
        if self.lane_width_m <= 0:
            raise ValueError("lane_width_m must be positive")
        for name in ("speed_sigma", "speed_reversion"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative")
        per_lane = math.ceil(self.vehicle_count / self.lanes)
        if per_lane > self.road_length_km * 1000.0:
            raise ValueError("vehicle_count is above jam density (under 1 m headway per lane)")

    @property
    def density_veh_km_lane(self) -> float:
        return self.vehicle_count / (self.road_length_km * self.lanes)

    @property
    def geometry(self) -> RoadGeometry:
        return RoadGeometry(self.road_length_km * 1000.0, self.lanes,
                            self.lane_width_m, self.wraparound)

    @property
    def region_bounds_m(self) -> tuple[float, float]:
        length = self.road_length_km * 1000.0
        if self.region == "full":
            return (0.0, length)
        return (length / 3.0, 2.0 * length / 3.0)


@dataclass
class Fleet:
    """Every vehicle's kinematic state, one array entry per vehicle (= UE id)."""

    x: np.ndarray             # metres along the road, float64
    lane: np.ndarray          # lane index, int
    speed_mps: np.ndarray     # signed by travel direction, float64
    nominal_mps: np.ndarray   # cruise speed the perturbation reverts to, float64

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.lane = np.asarray(self.lane, dtype=np.int64)
        self.speed_mps = np.asarray(self.speed_mps, dtype=np.float64)
        self.nominal_mps = np.asarray(self.nominal_mps, dtype=np.float64)
        if not len(self.x) == len(self.lane) == len(self.speed_mps) == len(self.nominal_mps):
            raise ValueError("fleet arrays must have one entry per vehicle")


def generate_scenario(scenario: ScenarioConfig, rng: np.random.Generator) -> Fleet:
    """Place vehicles uniformly at random per lane at the scenario's density.

    Vehicles are numbered lane by lane.  Half the lanes run in each
    direction; every vehicle starts at the scenario's cruise speed with its
    lane's direction sign.
    """
    count, lanes = scenario.vehicle_count, scenario.lanes
    length_m = scenario.road_length_km * 1000.0
    per_lane = [count // lanes + (1 if i < count % lanes else 0) for i in range(lanes)]
    x = np.concatenate([rng.uniform(0.0, length_m, size=k) for k in per_lane])
    lane = np.repeat(np.arange(lanes), per_lane)
    speed = np.where(lane < lanes // 2, 1.0, -1.0) * (scenario.speed_kmh / 3.6)
    return Fleet(x, lane, speed, speed.copy())


def step(fleet: Fleet, dt_s: float, scenario: ScenarioConfig,
         rng: np.random.Generator) -> np.ndarray:
    """Advance every vehicle by dt_s in place; returns the indices that respawned.

    Vehicles leaving a non-wraparound road re-enter at the opposite end of
    their own lane, which keeps per-lane population (and so density) exact.
    With `speed_sigma` set, speeds follow a mean-reverting walk clamped to
    [0, 1.2x] the nominal magnitude, giving the tracking-error trigger
    something to react to, with one normal draw from `rng` per vehicle, in
    vehicle order; without it `rng` is not drawn from.
    """
    if dt_s <= 0:
        raise ValueError("dt_s must be positive")
    length_m = scenario.road_length_km * 1000.0
    if scenario.speed_sigma > 0.0:
        nominal, speed = fleet.nominal_mps, fleet.speed_mps
        dv = scenario.speed_reversion * (nominal - speed) * dt_s \
            + scenario.speed_sigma * math.sqrt(dt_s) * rng.normal(size=len(speed))
        speed = speed + dv
        cap = 1.2 * np.abs(nominal)
        sign = np.where(nominal >= 0, 1.0, -1.0)
        fleet.speed_mps[:] = sign * np.minimum(np.maximum(sign * speed, 0.0), cap)
    x = fleet.x
    x += fleet.speed_mps * dt_s
    if scenario.wraparound:
        x %= length_m
        return np.zeros(0, dtype=np.int64)
    respawned = np.flatnonzero((x >= length_m) | (x < 0.0))
    x[respawned] %= length_m
    return respawned


# Config keys each scenario sets over the defaults, as each scheme does
PRESETS: dict[str, dict[str, object]] = {
    # nominal densities: 7 / 14 / 28 / 56 / 111 vehicles per km per lane
    "freeway-high": {"scenario.vehicle_count": 300, "scenario.speed_kmh": 140.0},
    "freeway-low": {"scenario.vehicle_count": 600, "scenario.speed_kmh": 70.0},
    "urban-medium": {"scenario.vehicle_count": 1200, "scenario.speed_kmh": 15.0},
    "urban-high": {"scenario.vehicle_count": 2400, "scenario.speed_kmh": 15.0},
    "urban-ultrahigh": {"scenario.vehicle_count": 4800, "scenario.speed_kmh": 15.0},
    # desk-scale rings: wraparound removes road-edge effects, so metrics can
    # use the whole road instead of the middle third
    "mini-low": {"scenario.vehicle_count": 40, "scenario.speed_kmh": 70.0,
                 "scenario.road_length_km": 1.2, "scenario.wraparound": True,
                 "scenario.region": "full"},
    "mini-sat": {"scenario.vehicle_count": 250, "scenario.speed_kmh": 15.0,
                 "scenario.road_length_km": 0.3, "scenario.wraparound": True,
                 "scenario.region": "full"},
    # 400 vehicles on a 1.2 km ring is twice the schedulable load; the wider
    # density-sensing radius compensates for the compressed geometry so the
    # rate controller sees a genuinely over-saturated neighborhood
    "mini-oversat": {"scenario.vehicle_count": 400, "scenario.speed_kmh": 15.0,
                     "scenario.road_length_km": 1.2, "scenario.wraparound": True,
                     "scenario.region": "full", "rate.neighbor_radius_m": 300.0},
}
