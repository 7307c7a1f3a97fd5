"""Highway scenario generation and vehicle kinematics.

Paper-scale presets model a 3.6 km, 12-lane highway at five traffic
densities; the mini-* presets are desk-scale rings sized so the full test
suite runs in minutes.  A `Fleet` holds every vehicle's position, lane and
speed as arrays indexed by UE id, and `step` moves them all at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import RoadGeometry


@dataclass(frozen=True)
class ScenarioPreset:
    name: str
    vehicle_count: int
    speed_kmh: float
    road_length_km: float = 3.6
    lanes: int = 12
    lane_width_m: float = 4.0
    wraparound: bool = False
    region: str = "middle-third"        # metrics draw only from this stretch
    speed_sigma: float = 0.0            # mean-reverting speed noise (m/s), 0 = constant speed
    speed_reversion: float = 0.5        # pull back toward the nominal speed, 1/s
    adjustments: dict = field(default_factory=dict)  # config overrides this scenario needs

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


def generate_scenario(preset: ScenarioPreset, rng: np.random.Generator) -> Fleet:
    """Place vehicles uniformly at random per lane at the preset density.

    Vehicles are numbered lane by lane.  Half the lanes run in each
    direction; every vehicle starts at the preset cruise speed with its
    lane's direction sign.
    """
    count, lanes = preset.vehicle_count, preset.lanes
    length_m = preset.road_length_km * 1000.0
    per_lane = [count // lanes + (1 if i < count % lanes else 0) for i in range(lanes)]
    x = np.concatenate([rng.uniform(0.0, length_m, size=k) for k in per_lane])
    lane = np.repeat(np.arange(lanes), per_lane)
    speed = np.where(lane < lanes // 2, 1.0, -1.0) * (preset.speed_kmh / 3.6)
    return Fleet(x, lane, speed, speed.copy())


def step(fleet: Fleet, dt_s: float, preset: ScenarioPreset,
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
    length_m = preset.road_length_km * 1000.0
    if preset.speed_sigma > 0.0:
        nominal, speed = fleet.nominal_mps, fleet.speed_mps
        dv = preset.speed_reversion * (nominal - speed) * dt_s \
            + preset.speed_sigma * math.sqrt(dt_s) * rng.normal(size=len(speed))
        speed = speed + dv
        cap = 1.2 * np.abs(nominal)
        sign = np.where(nominal >= 0, 1.0, -1.0)
        fleet.speed_mps[:] = sign * np.minimum(np.maximum(sign * speed, 0.0), cap)
    x = fleet.x
    x += fleet.speed_mps * dt_s
    if preset.wraparound:
        x %= length_m
        return np.zeros(0, dtype=np.int64)
    respawned = np.flatnonzero((x >= length_m) | (x < 0.0))
    x[respawned] %= length_m
    return respawned


PRESETS: dict[str, ScenarioPreset] = {
    # nominal densities: 7 / 14 / 28 / 56 / 111 vehicles per km per lane
    "freeway-high": ScenarioPreset("freeway-high", 300, 140.0),
    "freeway-low": ScenarioPreset("freeway-low", 600, 70.0),
    "urban-medium": ScenarioPreset("urban-medium", 1200, 15.0),
    "urban-high": ScenarioPreset("urban-high", 2400, 15.0),
    "urban-ultrahigh": ScenarioPreset("urban-ultrahigh", 4800, 15.0),
    # desk-scale rings: wraparound removes road-edge effects, so metrics can
    # use the whole road instead of the middle third
    "mini-low": ScenarioPreset("mini-low", 40, 70.0, road_length_km=1.2,
                               wraparound=True, region="full"),
    "mini-sat": ScenarioPreset("mini-sat", 250, 15.0, road_length_km=0.3,
                               wraparound=True, region="full"),
    # 400 vehicles on a 1.2 km ring is twice the schedulable load; the wider
    # density-sensing radius compensates for the compressed geometry so the
    # rate controller sees a genuinely over-saturated neighborhood
    "mini-oversat": ScenarioPreset("mini-oversat", 400, 15.0, road_length_km=1.2,
                                   wraparound=True, region="full",
                                   adjustments={"rate.neighbor_radius_m": 300.0}),
}


def preset_by_name(name: str) -> ScenarioPreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; available: {', '.join(PRESETS)}") from None
