import collections

import pytest

from cv2xsim.core import RngStream
from cv2xsim.mobility import PRESETS, ScenarioPreset, generate_scenario, preset_by_name, step


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
            p = preset_by_name(name)
            assert p.vehicle_count == count
            assert p.speed_kmh == speed
            assert p.road_length_km == 3.6 and p.lanes == 12

    def test_density_consistency(self):
        # count ~ density * length * lanes within 1%
        for name, nominal in [("freeway-high", 7), ("freeway-low", 14),
                              ("urban-medium", 28), ("urban-high", 56),
                              ("urban-ultrahigh", 111)]:
            p = preset_by_name(name)
            derived = p.density_veh_km_lane * p.road_length_km * p.lanes
            assert derived == pytest.approx(p.vehicle_count, rel=1e-9)
            assert p.density_veh_km_lane == pytest.approx(nominal, rel=0.01)

    def test_ultrahigh_density_label(self):
        p = preset_by_name("urban-ultrahigh")
        assert round(p.density_veh_km_lane) == 111

    def test_jam_density_rejected(self):
        with pytest.raises(ValueError):
            ScenarioPreset("too-dense", vehicle_count=50_000, speed_kmh=5.0,
                           road_length_km=1.0, lanes=12)

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset_by_name("downtown")


class TestGenerateScenario:
    def test_count_and_lane_split(self):
        p = preset_by_name("freeway-high")
        vehicles = generate_scenario(p, RngStream(1, "mobility"))
        assert len(vehicles) == 300
        per_lane = collections.Counter(v.position.lane for v in vehicles)
        assert all(per_lane[lane] == 25 for lane in range(12))
        for v in vehicles:
            assert 0.0 <= v.position.x <= 3600.0
            expected = p.speed_kmh / 3.6
            assert abs(v.speed_mps) == pytest.approx(expected)
            assert (v.speed_mps > 0) == (v.position.lane < 6)

    def test_reproducible_placement(self):
        p = preset_by_name("mini-low")
        a = generate_scenario(p, RngStream(4, "mobility"))
        b = generate_scenario(p, RngStream(4, "mobility"))
        assert [v.position.x for v in a] == [v.position.x for v in b]


class TestStep:
    def test_displacement_unit_conversion(self):
        p = ScenarioPreset("one", 2, 140.0, road_length_km=10.0, lanes=2)
        vehicles = generate_scenario(p, RngStream(1, "mobility"))
        x0 = [v.position.x for v in vehicles]
        step(vehicles, 0.1, p)
        # 140 km/h over 0.1 s, signed by lane direction
        assert vehicles[0].position.x - x0[0] == pytest.approx(3.889, abs=1e-3)
        assert vehicles[1].position.x - x0[1] == pytest.approx(-3.889, abs=1e-3)

    def test_zero_speed_stays_put(self):
        p = preset_by_name("mini-low")
        vehicles = generate_scenario(p, RngStream(1, "mobility"))
        for v in vehicles:
            v.speed_mps = 0.0
        xs = [v.position.x for v in vehicles]
        step(vehicles, 1.0, p)
        assert [v.position.x for v in vehicles] == xs

    def test_population_and_lane_conserved_with_respawn(self):
        p = ScenarioPreset("short", 60, 140.0, road_length_km=0.5, lanes=6)
        vehicles = generate_scenario(p, RngStream(2, "mobility"))
        lanes_before = collections.Counter(v.position.lane for v in vehicles)
        for _ in range(200):
            step(vehicles, 0.1, p)
        assert len(vehicles) == 60
        assert collections.Counter(v.position.lane for v in vehicles) == lanes_before
        assert all(0.0 <= v.position.x <= 500.0 for v in vehicles)

    def test_respawn_flag_set_once(self):
        p = ScenarioPreset("tiny", 1, 140.0, road_length_km=0.1, lanes=1)
        vehicles = generate_scenario(p, RngStream(3, "mobility"))
        seen = False
        for _ in range(50):
            respawned = step(vehicles, 0.1, p)
            if respawned:
                seen = True
                assert vehicles[0].respawned
        assert seen

    def test_linear_trajectory_without_perturbation(self):
        p = ScenarioPreset("line", 5, 70.0, road_length_km=100.0, lanes=1)
        vehicles = generate_scenario(p, RngStream(7, "mobility"))
        x0 = [v.position.x for v in vehicles]
        v0 = [v.speed_mps for v in vehicles]
        for k in range(100):
            step(vehicles, 0.1, p)
        for i, v in enumerate(vehicles):
            assert v.position.x == pytest.approx(x0[i] + v0[i] * 10.0, abs=1e-6)

    def test_perturbation_respects_speed_cap(self):
        p = ScenarioPreset("wobble", 20, 70.0, road_length_km=5.0, lanes=2,
                           speed_sigma=5.0, speed_reversion=0.5)
        vehicles = generate_scenario(p, RngStream(8, "mobility"))
        rng = RngStream(8, "perturb")
        moved = False
        for _ in range(300):
            step(vehicles, 0.1, p, rng)
            for v in vehicles:
                assert 0.0 <= abs(v.speed_mps) <= 1.2 * abs(v.nominal_mps) + 1e-9
                moved = moved or v.speed_mps != v.nominal_mps
        assert moved

    def test_bad_dt(self):
        p = preset_by_name("mini-low")
        with pytest.raises(ValueError):
            step([], 0.0, p)


class TestMeasurementRegion:
    # which transmitters the engine records from these bounds: test_engine.py
    def test_middle_third_of_default_road(self):
        assert preset_by_name("freeway-high").region_bounds_m == (1200.0, 2400.0)

    def test_full_region_on_ring_presets(self):
        assert preset_by_name("mini-oversat").region_bounds_m == (0.0, 1200.0)

    def test_mini_presets_shape(self):
        assert PRESETS["mini-sat"].vehicle_count == 250
        assert PRESETS["mini-sat"].wraparound
        assert PRESETS["mini-oversat"].vehicle_count == 400
        assert PRESETS["mini-oversat"].adjustments["rate.neighbor_radius_m"] == 300.0
        assert PRESETS["mini-low"].vehicle_count == 40
