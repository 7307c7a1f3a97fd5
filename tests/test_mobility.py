import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cv2xsim import config
from cv2xsim.core import rng_stream
from cv2xsim.mobility import Fleet, ScenarioConfig, generate_scenario, step


def resolved_scenario(name: str) -> ScenarioConfig:
    """The scenario config a run of the named scenario builds."""
    return ScenarioConfig(**config.section(config.resolve(scenario=name), "scenario"))


class TestPresets:
    def test_paper_scale_counts_and_speeds(self):
        expect = {
            "freeway-high": (300, 140.0),
            "freeway-low": (600, 70.0),
            "urban-medium": (1200, 15.0),
            "urban-high": (2400, 15.0),
            "urban-ultrahigh": (4800, 15.0),
        }
        for name, (count, speed) in expect.items():
            p = resolved_scenario(name)
            assert p.vehicle_count == count
            assert p.speed_kmh == speed
            assert p.road_length_km == 3.6 and p.lanes == 12

    def test_density_consistency(self):
        # count ~ density * length * lanes within 1%
        for name, nominal in [("freeway-high", 7), ("freeway-low", 14),
                              ("urban-medium", 28), ("urban-high", 56),
                              ("urban-ultrahigh", 111)]:
            p = resolved_scenario(name)
            derived = p.density_veh_km_lane * p.road_length_km * p.lanes
            assert derived == pytest.approx(p.vehicle_count, rel=1e-9)
            assert p.density_veh_km_lane == pytest.approx(nominal, rel=0.01)

    def test_ultrahigh_density_label(self):
        p = resolved_scenario("urban-ultrahigh")
        assert round(p.density_veh_km_lane) == 111

    def test_jam_density_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(vehicle_count=50_000, speed_kmh=5.0,
                           road_length_km=1.0, lanes=12)

    def test_unknown_preset(self):
        with pytest.raises(config.ConfigError,
                           match="unknown scenario 'downtown'; available: freeway-high, "):
            config.resolve(scenario="downtown")


class TestGenerateScenario:
    def test_count_and_lane_split(self):
        p = resolved_scenario("freeway-high")
        fleet = generate_scenario(p, rng_stream(1, "mobility"))
        assert len(fleet.x) == 300
        assert np.bincount(fleet.lane).tolist() == [25] * 12
        assert np.all((0.0 <= fleet.x) & (fleet.x <= 3600.0))
        assert np.allclose(np.abs(fleet.speed_mps), p.speed_kmh / 3.6)
        assert np.array_equal(fleet.speed_mps > 0, fleet.lane < 6)
        assert np.array_equal(fleet.nominal_mps, fleet.speed_mps)

    def test_reproducible_placement(self):
        p = resolved_scenario("mini-low")
        a = generate_scenario(p, rng_stream(4, "mobility"))
        b = generate_scenario(p, rng_stream(4, "mobility"))
        assert a.x.tolist() == b.x.tolist()

    @pytest.mark.parametrize("p", [
        *(pytest.param(resolved_scenario(name), id=name)
          for name in ("freeway-high", "mini-low", "mini-oversat")),
        pytest.param(ScenarioConfig(5, 70.0, road_length_km=1.0, lanes=12),   # empty lanes
                     id="sparse")])
    def test_matches_reference(self, p):
        fleet = generate_scenario(p, rng_stream(5, "mobility"))
        want = oracles.generate_scenario(p, rng_stream(5, "mobility"))
        assert fleet.x.tolist() == [v.x for v in want]
        assert fleet.lane.tolist() == [v.lane for v in want]
        assert fleet.speed_mps.tolist() == [v.speed_mps for v in want]
        assert fleet.nominal_mps.tolist() == [v.nominal_mps for v in want]



# a perturbation stream for presets without speed noise, which never draw from it
STILL = rng_stream(0, "perturb")


class TestStep:
    def test_displacement_unit_conversion(self):
        p = ScenarioConfig(2, 140.0, road_length_km=10.0, lanes=2)
        fleet = generate_scenario(p, rng_stream(1, "mobility"))
        x0 = fleet.x.copy()
        step(fleet, 0.1, p, STILL)
        # 140 km/h over 0.1 s, signed by lane direction
        assert fleet.x[0] - x0[0] == pytest.approx(3.889, abs=1e-3)
        assert fleet.x[1] - x0[1] == pytest.approx(-3.889, abs=1e-3)

    def test_zero_speed_stays_put(self):
        p = resolved_scenario("mini-low")
        fleet = generate_scenario(p, rng_stream(1, "mobility"))
        fleet.speed_mps[:] = 0.0
        xs = fleet.x.tolist()
        step(fleet, 1.0, p, STILL)
        assert fleet.x.tolist() == xs

    def test_population_and_lane_conserved_with_respawn(self):
        p = ScenarioConfig(60, 140.0, road_length_km=0.5, lanes=6)
        fleet = generate_scenario(p, rng_stream(2, "mobility"))
        lanes_before = fleet.lane.tolist()
        respawns = 0
        for _ in range(200):
            respawns += len(step(fleet, 0.1, p, STILL))
        assert len(fleet.x) == 60 and respawns > 0
        assert fleet.lane.tolist() == lanes_before
        assert np.all((0.0 <= fleet.x) & (fleet.x <= 500.0))

    def test_respawned_indices(self):
        # only the vehicles that left the road come back, each at the
        # opposite end of its own lane
        p = ScenarioConfig(4, 0.0, road_length_km=0.1, lanes=1)
        fleet = Fleet([99.0, 50.0, 1.0, 99.5], [0] * 4, [20.0, 20.0, -20.0, 0.0],
                      [20.0, 20.0, -20.0, 0.0])
        respawned = step(fleet, 0.1, p, STILL)
        assert respawned.tolist() == [0, 2]
        assert fleet.x.tolist() == pytest.approx([1.0, 52.0, 99.0, 99.5])
        assert step(fleet, 0.1, p, STILL).tolist() == []

    def test_linear_trajectory_without_perturbation(self):
        p = ScenarioConfig(5, 70.0, road_length_km=100.0, lanes=1)
        fleet = generate_scenario(p, rng_stream(7, "mobility"))
        x0, v0 = fleet.x.copy(), fleet.speed_mps.copy()
        for k in range(100):
            step(fleet, 0.1, p, STILL)
        assert fleet.x == pytest.approx(x0 + v0 * 10.0, abs=1e-6)

    def test_perturbation_respects_speed_cap(self):
        p = ScenarioConfig(20, 70.0, road_length_km=5.0, lanes=2,
                           speed_sigma=5.0, speed_reversion=0.5)
        fleet = generate_scenario(p, rng_stream(8, "mobility"))
        rng = rng_stream(8, "perturb")
        moved = False
        for _ in range(300):
            step(fleet, 0.1, p, rng)
            assert np.all(np.abs(fleet.speed_mps) <= 1.2 * np.abs(fleet.nominal_mps) + 1e-9)
            assert np.all(np.sign(fleet.speed_mps) * np.sign(fleet.nominal_mps) >= 0)
            moved = moved or bool(np.any(fleet.speed_mps != fleet.nominal_mps))
        assert moved

    def test_bad_dt(self):
        p = resolved_scenario("mini-low")
        with pytest.raises(ValueError):
            step(Fleet([], [], [], []), 0.0, p, STILL)

    def test_mismatched_fleet_arrays_rejected(self):
        with pytest.raises(ValueError, match="one entry per vehicle"):
            Fleet([1.0, 2.0], [0], [0.0, 0.0], [0.0, 0.0])


ROAD_M = 200.0
# positions on and next to both road ends, plus anywhere on the road
positions = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-9, 0.5, ROAD_M - 0.5, ROAD_M - 1e-9,
                     float(np.nextafter(ROAD_M, 0.0))]),
    st.floats(0.0, ROAD_M, exclude_max=True))
speeds = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-60.0, 60.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(positions, st.integers(0, 3), speeds, speeds), min_size=1,
                max_size=40),
       st.booleans(), st.sampled_from([0.0, 0.3, 4.0]), st.floats(0.0, 2.0),
       st.floats(0.0, 1.0, exclude_min=True), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_step_matches_reference(vehicles, wraparound, sigma, reversion, dt_s, steps, seed):
    p = ScenarioConfig(len(vehicles), 0.0, road_length_km=ROAD_M / 1000.0, lanes=4,
                       wraparound=wraparound, speed_sigma=sigma, speed_reversion=reversion)
    fleet = Fleet(*map(list, zip(*vehicles)))
    want = [oracles.Vehicle(*v) for v in vehicles]
    rng, want_rng = rng_stream(seed, "perturb"), rng_stream(seed, "perturb")
    for _ in range(steps):
        respawned = step(fleet, dt_s, p, rng)
        assert respawned.tolist() == oracles.step(want, dt_s, p, want_rng)
        # bit for bit, including the sign of zero
        assert fleet.x.tobytes() == np.array([v.x for v in want]).tobytes()
        assert fleet.speed_mps.tobytes() == np.array([v.speed_mps for v in want]).tobytes()


class TestMeasurementRegion:
    # which transmitters the engine records from these bounds: test_engine.py
    def test_middle_third_of_default_road(self):
        assert resolved_scenario("freeway-high").region_bounds_m == (1200.0, 2400.0)

    def test_full_region_on_ring_presets(self):
        assert resolved_scenario("mini-oversat").region_bounds_m == (0.0, 1200.0)

    def test_mini_presets_shape(self):
        assert resolved_scenario("mini-sat").vehicle_count == 250
        assert resolved_scenario("mini-sat").wraparound
        assert resolved_scenario("mini-oversat").vehicle_count == 400
        assert config.resolve(scenario="mini-oversat")["rate.neighbor_radius_m"] == 300.0
        assert resolved_scenario("mini-low").vehicle_count == 40
