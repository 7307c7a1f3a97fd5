import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from roads import road_ticks
from sensing import build_window

from cv2xsim import config
from cv2xsim.core import RoadGeometry, dbm_to_mw, rng_stream
from cv2xsim.dcc import (BASE_ITT_MS, RangeControlConfig, RateControlConfig, SCHEMES,
                         busy_percentage, compute_itt, neighbor_counts, power_target,
                         release_triggers, smooth_density, tracking_error,
                         update_power)

GEO = RoadGeometry(length_m=100_000.0, lanes=12, lane_width_m=4.0, wraparound=False)
RATE = RateControlConfig()     # B=25, itt_max=600
RANGE = RangeControlConfig()   # P [10,23], U [50,80], eta 0.5
# The RunConfig that each scheme's keys build
BUILT = {name: config.build_run_config(config.resolve(scheme=name)) for name in SCHEMES}


class TestMeasureCbp:
    """The engine's CBP: `SensingStore.cbp_counts` over the trailing window,
    turned into a percentage by `busy_percentage`."""

    def build(self, srssi_rows, span=200, sensed=None):
        sensed = sensed or [True] * len(srssi_rows)
        return build_window([(n, row, ok, []) for n, (row, ok) in
                             enumerate(zip(srssi_rows, sensed))], span=span).store

    def cbp(self, store, n, threshold_dbm, window_sf, previous=0.0):
        busy, slots = store.cbp_counts(n, window_sf, dbm_to_mw(threshold_dbm))
        return float(busy_percentage(busy, slots, np.array([previous]))[0])

    def test_quiet_channel_is_zero(self):
        store = self.build([(-100.0, -100.0)] * 100)
        assert self.cbp(store, 100, -94.0, 100) == 0.0

    def test_direct_count(self):
        # 120 of 200 slots busy -> 60%
        rows = [(-60.0, -60.0)] * 60 + [(-100.0, -100.0)] * 40
        store = self.build(rows)
        assert self.cbp(store, 100, -94.0, 100) == pytest.approx(60.0)

    def test_saturated_channel(self):
        store = self.build([(-60.0, -55.0)] * 100)
        assert self.cbp(store, 100, -94.0, 100) == pytest.approx(100.0)

    def test_unsensed_excluded_from_both_counts(self):
        store = self.build([(-60.0, -60.0)] * 100, sensed=[True] * 50 + [False] * 50)
        assert self.cbp(store, 100, -94.0, 100) == pytest.approx(100.0)

    def test_no_sensed_slots_keeps_previous_value(self):
        store = self.build([(-60.0, -60.0)], span=50, sensed=[False])
        assert self.cbp(store, 1, -94.0, 100, previous=37.5) == 37.5
        busy, slots = np.array([3, 0, 5]), np.array([4, 0, 10])
        assert busy_percentage(busy, slots, np.array([1.0, 2.0, 3.0])).tolist() == \
            [75.0, 2.0, 50.0]

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rows = [tuple(rng.uniform(-100, -50, size=2)) for _ in range(30)]
            store = self.build(rows, span=64)
            assert 0.0 <= self.cbp(store, 30, -80.0, 30) <= 100.0


def positions(xs, lanes, geometry=GEO):
    """(x, y) arrays of vehicles at xs on lanes."""
    return np.asarray(xs, dtype=float), geometry.lane_y(np.asarray(lanes))


def pair_distances(xs, lanes, geometry=GEO):
    """The reference (n, n) distance matrix of vehicles at xs on lanes."""
    return oracles.pair_distances(*positions(xs, lanes, geometry), geometry)


def counts(xs, lanes, radius_m, geometry=GEO):
    return neighbor_counts(*positions(xs, lanes, geometry), geometry, radius_m).tolist()


class TestCountNeighbors:
    """`neighbor_counts` over vehicle positions, against the reference
    pair-distance matrix."""

    def test_alone(self):
        assert counts([0.0], [0], 100.0) == [0.0]

    def test_boundary_inclusive(self):
        assert counts([0.0, 50.0, 99.0, 101.0], [0, 0, 0, 0], 100.0)[0] == 2
        assert counts([0.0, 100.0], [0, 0], 100.0) == [1, 1]

    def test_lane_offset_counts(self):
        # one lane (4 m) across: 99 m along is 99.08 m away, 99.95 m along 100.03 m
        xs, lanes = [0.0, 99.0, 99.95], [0, 1, 1]
        assert pair_distances(xs, lanes)[0, 1:] == pytest.approx([99.08, 100.03], abs=0.005)
        assert counts(xs, lanes, 100.0) == [1.0, 2.0, 1.0]
        assert counts(xs, lanes, 99.0) == [0.0, 1.0, 1.0]

    def test_ring_wraps(self):
        ring = RoadGeometry(length_m=1000.0, lanes=1, lane_width_m=4.0, wraparound=True)
        assert counts([5.0, 905.0, 500.0], [0, 0, 0], 100.0, ring) == [1.0, 1.0, 0.0]
        assert counts([5.0, 905.0, 500.0], [0, 0, 0], 100.0) == [0.0, 0.0, 0.0]

    def test_uniform_density_monte_carlo(self):
        # density rho on a line -> mean count ~ 200 * rho within a 100 m radius
        rho = 0.5
        rng = rng_stream(8, "mc")
        length = 1000.0
        total = 0
        trials = 200
        for _ in range(trials):
            xs = np.concatenate([[length / 2.0],
                                 rng.uniform(0.0, length, size=int(rho * length))])
            total += counts(xs, np.zeros(xs.size, dtype=int), 100.0)[0]
        assert total / trials == pytest.approx(200.0 * rho, rel=0.05)

    @settings(max_examples=200, deadline=None)
    @given(road_ticks())
    def test_matches_reference_distances(self, case):
        geometry, start, ticks, radius = case
        for x, y in [start, *ticks]:
            d = oracles.pair_distances(x, y, geometry)
            want = [sum(1 for j in range(len(x)) if j != i and d[i, j] <= radius)
                    for i in range(len(x))]
            assert neighbor_counts(x, y, geometry, radius).tolist() == want

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            RateControlConfig(neighbor_radius_m=0.0)


class TestSmoothing:
    def test_fixed_point(self):
        assert smooth_density(40.0, 40.0) == 40.0

    def test_half_step(self):
        assert smooth_density(100.0, 0.0) == 50.0

    def test_geometric_convergence(self):
        c = 80.0
        s = 0.0
        for k in range(1, 21):
            s = smooth_density(c, s)
            assert abs(s - c) == pytest.approx(c / 2 ** k, rel=1e-12)
        assert abs(s - c) < 1e-4 * c


class TestComputeItt:
    def test_boundary_values(self):
        assert compute_itt(25.0, RATE) == 100.0
        assert compute_itt(50.0, RATE) == pytest.approx(200.0)
        assert compute_itt(150.0, RATE) == 600.0        # third-branch boundary
        assert compute_itt(1000.0, RATE) == 600.0

    def test_continuity_at_branch_edges(self):
        eps = 1e-9
        assert compute_itt(25.0 + eps, RATE) == pytest.approx(100.0, abs=1e-6)
        assert compute_itt(150.0 - eps, RATE) == pytest.approx(600.0, abs=1e-6)

    def test_monotone(self):
        values = [compute_itt(float(n), RATE) for n in range(0, 400)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            compute_itt(-1.0, RATE)
        with pytest.raises(ValueError):
            compute_itt(np.array([30.0, -1.0, 200.0]), RATE)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=50),
           st.sampled_from([25.0, 35.0, 45.0, 55.0]))
    def test_array_matches_reference(self, counts, b):
        cfg = RateControlConfig(density_coefficient=b)
        counts += [b, 6.0 * b]      # the branch edges
        got = compute_itt(np.array(counts), cfg)
        assert got.tolist() == [oracles.compute_itt(c, cfg) for c in counts]
        assert compute_itt(counts[0], cfg) == oracles.compute_itt(counts[0], cfg)


class TestUpdatePower:
    def test_below_umin_holds_max_power(self):
        assert power_target(40.0, RANGE) == 23.0
        assert update_power(23.0, 40.0, RANGE) == pytest.approx(23.0)

    def test_above_umax_steps_toward_min(self):
        assert power_target(90.0, RANGE) == 10.0
        assert update_power(23.0, 90.0, RANGE) == pytest.approx(16.5)

    def test_middle_branch_fixed_point(self):
        # target(65%) = 10 + ((80-65)/30) * 13 = 16.5
        assert power_target(65.0, RANGE) == pytest.approx(16.5)
        assert update_power(16.5, 65.0, RANGE) == pytest.approx(16.5)

    def test_target_non_increasing_in_cbp(self):
        targets = [power_target(c, RANGE) for c in np.linspace(0, 100, 401)]
        assert all(b <= a + 1e-12 for a, b in zip(targets, targets[1:]))

    def test_output_stays_in_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            p = rng.uniform(RANGE.p_min_dbm, RANGE.p_max_dbm)
            c = rng.uniform(0.0, 100.0)
            out = update_power(p, c, RANGE)
            assert RANGE.p_min_dbm - 1e-12 <= out <= RANGE.p_max_dbm + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 23.0), st.floats(0.0, 100.0)),
                    min_size=1, max_size=50),
           st.sampled_from(list(SCHEMES)))
    def test_array_matches_reference(self, rows, scheme):
        cfg = BUILT[scheme].range
        rows += [(23.0, cfg.u_min_pct), (23.0, cfg.u_max_pct)]     # the branch edges
        power, cbp = np.array(rows).T
        assert power_target(cbp, cfg).tolist() == [oracles.power_target(c, cfg) for _, c in rows]
        assert update_power(power, cbp, cfg).tolist() == \
            [oracles.update_power(p, c, cfg) for p, c in rows]
        p, c = rows[0]
        assert update_power(p, c, cfg) == oracles.update_power(p, c, cfg)

    def test_geometric_convergence_to_target(self):
        p = 23.0
        for _ in range(20):
            p = update_power(p, 90.0, RANGE)
        assert abs(p - 10.0) < 1e-4


def pte(x, last_x, last_speed, elapsed_ms, geometry=GEO):
    return float(tracking_error(np.array([x]), np.array([last_x]), np.array([last_speed]),
                                np.array([elapsed_ms]), geometry)[0])


class TestUpdatePte:
    """`tracking_error`, the position tracking error."""

    def test_exact_extrapolation_is_zero(self):
        # constant velocity since the broadcast
        assert pte(100.0 + 20.0 * 2.0, 100.0, 20.0, 2000) == pytest.approx(0.0)

    def test_motion_after_stationary_broadcast(self):
        error = pte(1.0, 0.0, 0.0, 500)
        assert error == pytest.approx(1.0)
        assert error > 0.5

    def test_deceleration_boundary(self):
        # 1 m/s^2 for 1 s after a constant-velocity broadcast: error = a t^2 / 2
        v0, a, t = 20.0, -1.0, 1.0
        actual_x = v0 * t + 0.5 * a * t * t
        assert pte(actual_x, 0.0, v0, 1000) == pytest.approx(0.5, abs=1e-9)

    def test_rejects_time_travel(self):
        with pytest.raises(ValueError):
            pte(0.0, 0.0, 0.0, -50)

    def test_wraparound_extrapolation(self):
        ring = RoadGeometry(1200.0, 2, 4.0, wraparound=True)
        assert pte(10.0, 1190.0, 20.0, 1000, ring) == pytest.approx(0.0)
        # more than one lap since the broadcast
        assert pte(10.0, 1190.0, 20.0, 61_000, ring) == pytest.approx(0.0)

    def test_one_error_per_vehicle(self):
        got = tracking_error(np.array([10.0, 25.0, 0.0]), np.array([0.0, 0.0, 5.0]),
                             np.array([10.0, 20.0, 0.0]), np.array([1000, 1000, 0]), GEO)
        assert got.tolist() == pytest.approx([0.0, 5.0, 5.0])


class TestShouldTransmit:
    """`release_triggers`: the rate timer and the tracking-error override."""

    IDLE = np.array([False])

    def test_timer_expiry(self):
        assert release_triggers(self.IDLE, np.array([100]), np.array([100.0]), None, 0.5)[0][0]
        assert not release_triggers(self.IDLE, np.array([99]), np.array([100.0]), None, 0.5)[0][0]

    def test_tracking_error_override(self):
        itt = np.array([100.0])
        timer, tracking = release_triggers(self.IDLE, np.array([50]), itt, np.array([0.6]), 0.5)
        assert tracking[0] and not timer[0]
        _, tracking = release_triggers(self.IDLE, np.array([50]), itt, np.array([0.4]), 0.5)
        assert not tracking[0]

    def test_override_disabled(self):
        # the engine passes no tracking error when the trigger is off, and
        # gets no tracking mask back
        timer, tracking = release_triggers(self.IDLE, np.array([50]), np.array([100.0]), None, 0.5)
        assert not timer[0] and tracking is None
        timer, tracking = release_triggers(self.IDLE, np.array([100]), np.array([100.0]), None, 0.5)
        assert timer[0] and tracking is None

    def test_pending_packet_blocks_release(self):
        timer, tracking = release_triggers(np.array([True, False]), np.array([500, 500]),
                                           np.array([100.0, 100.0]), np.array([9.0, 9.0]), 0.5)
        assert timer.tolist() == [False, True] and tracking.tolist() == [False, True]


class TestSchemes:
    def test_standard_scheme_values(self):
        s = BUILT["dcc-std"]
        assert s.rate.density_coefficient == 25.0
        assert s.rate.itt_max_ms == 600.0
        assert s.range.eta == 0.5
        assert (s.range.p_min_dbm, s.range.p_max_dbm) == (10.0, 23.0)
        assert (s.range.u_min_pct, s.range.u_max_pct) == (50.0, 80.0)

    def test_numbered_schemes(self):
        rows = {
            "dcc-1": (23.0, 23.0, 80.0, 50.0, 25.0),
            "dcc-2": (23.0, 10.0, 50.0, 30.0, 25.0),
            "dcc-3": (23.0, 5.0, 50.0, 30.0, 25.0),
            "dcc-4": (23.0, 5.0, 50.0, 30.0, 35.0),
            "dcc-5": (23.0, 5.0, 50.0, 30.0, 45.0),
            "dcc-6": (23.0, 5.0, 50.0, 30.0, 55.0),
            "dcc-7": (23.0, 0.0, 50.0, 30.0, 45.0),
        }
        for name, (p_max, p_min, u_max, u_min, b) in rows.items():
            s = BUILT[name]
            assert s.range.p_max_dbm == p_max, name
            assert s.range.p_min_dbm == p_min, name
            assert s.range.u_max_pct == u_max, name
            assert s.range.u_min_pct == u_min, name
            assert s.rate.density_coefficient == b, name
        s7 = BUILT["dcc-7"].sps
        assert (s7.slrrc_min, s7.slrrc_max, s7.p_resel) == (1, 5, 0.2)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 1e6), st.floats(0.0, 100.0)),
                    min_size=1, max_size=50))
    def test_baseline_holds_the_rate_and_the_power(self, rows):
        # at any neighbor count and CBP: the 100 ms ITT and the initial 23 dBm
        base = BUILT["baseline"]
        counts, cbp = np.array(rows).T
        assert compute_itt(counts, base.rate).tolist() == [BASE_ITT_MS] * len(rows)
        power = np.full(len(rows), base.range.p_max_dbm)
        assert update_power(power, cbp, base.range).tolist() == [23.0] * len(rows)
        assert base.rate.pte_enabled is False

    def test_unknown_scheme(self):
        with pytest.raises(config.ConfigError, match="unknown scheme 'dcc-99'"):
            config.resolve(scheme="dcc-99")
        assert set(SCHEMES) == {"baseline", "dcc-std", "dcc-1", "dcc-2", "dcc-3",
                                "dcc-4", "dcc-5", "dcc-6", "dcc-7"}


def test_config_validation():
    with pytest.raises(ValueError):
        RateControlConfig(density_coefficient=0.0)
    with pytest.raises(ValueError):
        RateControlConfig(itt_max_ms=50.0)
    with pytest.raises(ValueError):
        RangeControlConfig(p_min_dbm=24.0, p_max_dbm=23.0)
    with pytest.raises(ValueError):
        RangeControlConfig(u_min_pct=80.0, u_max_pct=50.0)
    with pytest.raises(ValueError):
        RangeControlConfig(eta=0.0)
