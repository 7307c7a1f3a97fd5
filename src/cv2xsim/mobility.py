"""Highway scenario generation and vehicle kinematics.

Paper-scale presets model a 3.6 km, 12-lane highway at five traffic
densities; the mini-* presets are desk-scale rings sized so the full test
suite runs in minutes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import Position, RngStream, RoadGeometry


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
            raise ValueError(f"unknown region mode {self.region!r}")
        per_lane = math.ceil(self.vehicle_count / self.lanes)
        if per_lane > self.road_length_km * 1000.0:
            raise ValueError("density above jam density (under 1 m headway per lane)")

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
class VehicleKinematics:
    position: Position
    speed_mps: float        # signed by travel direction
    nominal_mps: float      # constant cruise speed the perturbation reverts to
    respawned: bool = False # set for one step when the vehicle re-entered the road


def generate_scenario(preset: ScenarioPreset, rng: RngStream) -> list[VehicleKinematics]:
    """Place vehicles uniformly at random per lane at the preset density.

    Half the lanes run in each direction; every vehicle starts at the preset
    cruise speed with its lane's direction sign.
    """
    count, lanes = preset.vehicle_count, preset.lanes
    length_m = preset.road_length_km * 1000.0
    speed = preset.speed_kmh / 3.6
    per_lane = [count // lanes + (1 if i < count % lanes else 0) for i in range(lanes)]
    vehicles = []
    for lane, k in enumerate(per_lane):
        direction = 1.0 if lane < lanes // 2 else -1.0
        for x in rng.uniform_array(0.0, length_m, size=k):
            vehicles.append(VehicleKinematics(Position(float(x), lane),
                                              direction * speed, direction * speed))
    return vehicles


def step(vehicles: list[VehicleKinematics], dt_s: float, preset: ScenarioPreset,
         rng: RngStream | None = None) -> list[int]:
    """Advance all vehicles by dt_s in place; returns indices that respawned.

    Vehicles leaving a non-wraparound road re-enter at the opposite end of
    their own lane, which keeps per-lane population (and so density) exact.
    With `speed_sigma` set, speeds follow a mean-reverting walk clamped to
    [0, 1.2x] the nominal magnitude, giving the tracking-error trigger
    something to react to.
    """
    if dt_s <= 0:
        raise ValueError("dt_s must be positive")
    length_m = preset.road_length_km * 1000.0
    respawned = []
    perturb = preset.speed_sigma > 0.0 and rng is not None
    for i, v in enumerate(vehicles):
        if perturb:
            dv = preset.speed_reversion * (v.nominal_mps - v.speed_mps) * dt_s \
                + preset.speed_sigma * math.sqrt(dt_s) * rng.normal()
            speed = v.speed_mps + dv
            cap = 1.2 * abs(v.nominal_mps)
            sign = 1.0 if v.nominal_mps >= 0 else -1.0
            v.speed_mps = sign * min(max(sign * speed, 0.0), cap)
        x = v.position.x + v.speed_mps * dt_s
        v.respawned = False
        if preset.wraparound:
            x %= length_m
        elif x >= length_m or x < 0.0:
            x %= length_m
            v.respawned = True
            respawned.append(i)
        v.position = Position(x, v.position.lane)
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
