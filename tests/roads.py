"""Vehicles on a ring or a straight road for the pair-distance tests.

Positions and speeds are whole metres (per second), and every lane is 4 m
wide, so separations are exact and many pairs sit exactly at a radius drawn
from their own distances.  `mobility.step` moves the fleet one second per
tick, so on a straight road vehicles leave and respawn at the other end.
"""

import numpy as np
from hypothesis import strategies as st

import oracles
from cv2xsim.core import rng_stream
from cv2xsim.mobility import Fleet, ScenarioConfig, step


@st.composite
def road_ticks(draw, max_ticks=4):
    """(geometry, start, ticks, radius_m): the (x, y) arrays at the start and
    after each of 0..max_ticks mobility ticks, and a radius that is one of
    the pair distances when there is a pair."""
    n = draw(st.integers(1, 8))
    lanes = draw(st.integers(1, 3))
    length_km = draw(st.sampled_from([0.04, 0.15, 0.6]))
    preset = ScenarioConfig(n, 0.0, road_length_km=length_km, lanes=lanes,
                            wraparound=draw(st.booleans()), region="full")
    geometry = preset.geometry
    assert geometry.length_m == int(geometry.length_m)
    x = draw(st.lists(st.integers(0, int(geometry.length_m) - 1), min_size=n, max_size=n))
    lane = draw(st.lists(st.integers(0, lanes - 1), min_size=n, max_size=n))
    speed = draw(st.lists(st.integers(-80, 80), min_size=n, max_size=n))
    fleet = Fleet(x, lane, speed, speed)
    y = geometry.lane_y(fleet.lane)
    start = (fleet.x.copy(), y)
    ticks = []
    for _ in range(draw(st.integers(0, max_ticks))):
        step(fleet, 1.0, preset, rng_stream(0, "perturb"))    # no speed noise: no draws
        ticks.append((fleet.x.copy(), y))
    d = oracles.pair_distances(*start, geometry)
    distances = sorted(set(d[~np.eye(n, dtype=bool)].tolist()) - {0.0})
    radius = draw(st.sampled_from(distances + [1.0, 1000.0]))
    return geometry, start, ticks, radius
