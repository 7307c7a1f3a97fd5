import math
import random
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sensing import NO_DECODES, NOISE_MW, build_window, recorded_count

from cv2xsim.core import RngPool, rng_stream
from cv2xsim.mac_sps import (Grants, SensingStore, SensingWindow, SpsConfig,
                             _rank_metric, compute_cr, cr_limit, draw_counter, on_transmission,
                             select_candidates, select_resource)


# ---------------------------------------------------------------------------
# sensing window bookkeeping

class TestSensingWindow:
    """Sensing-span bookkeeping of the store behind every SensingWindow."""

    def test_single_measurement(self):
        w = build_window([(0, (-80.0, -100.0), True, [])], span=10)
        assert recorded_count(w.store) == 1

    def test_ring_eviction_keeps_span(self):
        rows = [(n, (-80.0, -100.0), True, []) for n in range(11)]
        assert recorded_count(build_window(rows[:10], span=10).store) == 10
        store = build_window(rows, span=10).store
        assert recorded_count(store) == 10
        assert not store.recorded(0, 0).any()      # oldest evicted
        assert store.recorded(10, 10).any()

    def test_out_of_order_rejected(self):
        store = build_window([(5, (-80.0, -100.0), True, [])], span=10).store
        with pytest.raises(ValueError):
            store.record_subframe(4, srssi_mw=np.full((1, 1, 2), NOISE_MW),
                                  sensed_mask=np.array([[True]]), decodes=NO_DECODES)

    def test_rerecording_newest_rejected(self):
        # a subframe is recorded once: a second record of the newest one
        # would replace its decodes
        store = build_window([(5, (-80.0, -100.0), True, [(0, 42, 5, -72.0)])], span=10).store
        with pytest.raises(ValueError, match="newest 5"):
            store.record_subframe(5, srssi_mw=np.full((1, 1, 2), NOISE_MW),
                                  sensed_mask=np.array([[True]]), decodes=NO_DECODES)
        assert oracles.reservation_records(store) == [(5, 0, 0, 5, -72.0)]

    def test_malformed_record_rejected_whole(self):
        # two UEs, two subchannels, three subframes: the S-RSSI must be
        # (n_ue, m, n_subch) and the sensed mask (m, n_ue); the arrays go by
        # name, so a call that passes them by place fails even where m = n_ue;
        # a decode outside the store fails too, and none of them writes
        store = SensingStore(2, 2, 10, NOISE_MW)
        good = dict(srssi_mw=np.full((2, 3, 2), NOISE_MW),
                    sensed_mask=np.ones((3, 2), dtype=bool), decodes=NO_DECODES)
        with pytest.raises(ValueError, match=r"srssi_mw of 3 subframes must have shape "
                                             r"\(2, 3, 2\), not \(3, 2, 2\)"):
            store.record_subframe(0, **{**good, "srssi_mw": np.full((3, 2, 2), NOISE_MW)})
        with pytest.raises(ValueError, match=r"sensed_mask of 2 subframes must have shape "
                                             r"\(2, 2\), not \(2, 3\)"):
            store.record_subframe(0, **{**good, "sensed_mask": np.ones((2, 3), dtype=bool)})
        with pytest.raises(TypeError):
            store.record_subframe(0, np.full((2, 2, 2), NOISE_MW), np.ones((2, 2), dtype=bool),
                                  NO_DECODES)
        one = (np.array([2]), np.array([1]), np.array([2]), np.array([5]), np.array([-70.0]))
        with pytest.raises(ValueError):         # subchannel 2 of 2
            store.record_subframe(0, **{**good, "decodes": one})
        assert store.newest == -1 and recorded_count(store) == 0
        assert not store.sensed.any() and not np.isfinite(store.reservations).any()
        store.record_subframe(0, **good)
        assert recorded_count(store) == 3

    def test_own_transmission_marks_unsensed(self):
        store = build_window([(3, (-100.0, -100.0), False, [])], span=10).store
        assert not oracles.ring_cells(store.sensed, 3, 0)
        assert recorded_count(store) == 1

    def test_reservation_eviction(self):
        rows = [(0, (-70.0, -100.0), True, [(0, 42, 5, -72.0)])]
        rows += [(n, (-90.0, -100.0), True, []) for n in range(1, 11)]
        assert len(oracles.reservation_records(build_window(rows[:1], span=10).store)) == 1
        store = build_window(rows, span=10).store
        assert oracles.reservation_records(store) == []
        assert not np.isfinite(store.reservations).any()    # overwritten by subframe 10

    def test_keep_threshold_compares_in_float64(self):
        # float32(-85.3000031) lies above -85.3000031: a reservation heard at
        # exactly that RSRP exceeds the threshold, so it must exempt the
        # resources it projects onto (subframes 5 and 10 on subchannel 0)
        th = -85.3000031
        assert float(np.float32(th)) > th
        cfg = toy_cfg(th_sps_dbm=th, keep_fraction=0.5)
        projected = {(5, 0), (10, 0)}
        for rsrp, exempt in ((float(np.float32(th)), True), (-85.4, False)):
            # every S-RSSI at the noise floor: all survivors tie and are kept
            w = build_window([(0, (-100.0, -100.0), True, [(0, 42, 5, rsrp)])], span=10)
            result = select_candidates(w, 1, cfg, own_period_sf=100)
            assert result.escalations == 0
            picked = set(map(tuple, result.candidates.tolist()))
            assert len(picked) == result.pool_size - 2 * exempt
            assert not (projected & picked) if exempt else projected <= picked


# ---------------------------------------------------------------------------
# reselection counter lifecycle

class TestOnTransmission:
    CFG = SpsConfig()

    def test_plain_decrement(self):
        assert on_transmission(5, rng_stream(1, "sps", 0), self.CFG) == 4

    def test_forced_change(self):
        cfg = SpsConfig(p_resel=1.0)
        for seed in range(20):
            assert on_transmission(1, rng_stream(seed, "sps"), cfg) is None

    def test_expiry_draws_fresh_counter(self):
        cfg = SpsConfig(p_resel=0.0)
        for seed in range(20):
            out = on_transmission(1, rng_stream(seed, "sps"), cfg)
            assert out is not None and cfg.slrrc_min <= out <= cfg.slrrc_max

    def test_change_probability_monte_carlo(self):
        cfg = SpsConfig(p_resel=0.2)
        rng = rng_stream(9, "sps")
        trials = 100_000
        changed = sum(on_transmission(1, rng, cfg) is None
                      for _ in range(trials))
        assert changed / trials == pytest.approx(0.2, abs=0.01)

    def test_expired_counter_rejected(self):
        with pytest.raises(ValueError):
            on_transmission(0, rng_stream(1, "sps"), self.CFG)

    def test_expected_transmissions_per_reservation(self):
        # mean grant lifetime = E[slrrc] / p_resel
        cfg = SpsConfig(slrrc_min=5, slrrc_max=15, p_resel=0.2)
        rng = rng_stream(4, "sps")
        total = 0
        lifetimes = 10_000
        for _ in range(lifetimes):
            slrrc = draw_counter(rng, cfg)
            while True:
                total += 1
                slrrc = on_transmission(slrrc, rng, cfg)
                if slrrc is None:
                    break
        expected = 10.0 / 0.2
        assert total / lifetimes == pytest.approx(expected, rel=0.05)


# ---------------------------------------------------------------------------
# grant lifecycle

class Lifecycle(NamedTuple):
    """The inputs of a run of `Grants.step`: per subframe and UE, the timer
    and tracking releases (None: tracking off) and the period a grant takes;
    per UE, the CR verdicts in the order they are asked (None: no limit;
    past the list every occurrence may send)."""

    cfg: SpsConfig
    wait_limit_sf: int
    timer: list[list[bool]]
    tracking: list[list[bool]] | None
    period_sf: list[list[int]]
    verdicts: list[list[bool]] | None
    seed: int


class Script:
    """Scripted stand-ins for the sensing store: a pick uniform over the next
    `PICK_SF` subframes' resources with one draw, as `select_resource`
    draws, and the CR verdicts of a `Lifecycle`; every call is recorded."""

    PICK_SF, N_SUBCH = 8, 2

    def __init__(self, verdicts):
        self.verdicts = None if verdicts is None else [list(v) for v in verdicts]
        self.calls = []

    def pick(self, ue, n, period, rng):
        self.calls.append(("pick", n, ue, period))
        k = int(rng.integers(self.PICK_SF * self.N_SUBCH))
        return n + 1 + k // self.N_SUBCH, k % self.N_SUBCH

    def cr_allows(self, n, ues, period):
        self.calls += [("cr", n, ue, p) for ue, p in zip(ues.tolist(), period.tolist())]
        return np.array([self.verdicts[ue].pop(0) if self.verdicts[ue] else True
                         for ue in ues.tolist()], dtype=bool)


@st.composite
def lifecycles(draw):
    n_ue, n_sf = draw(st.integers(1, 3)), draw(st.integers(1, 60))
    lo = draw(st.integers(1, 3))
    cfg = SpsConfig(slrrc_min=lo, slrrc_max=draw(st.integers(lo, 4)),
                    p_resel=draw(st.sampled_from([0.0, 0.5, 1.0])))
    masks = st.lists(st.lists(st.booleans(), min_size=n_ue, max_size=n_ue),
                     min_size=n_sf, max_size=n_sf)
    periods = st.lists(st.lists(st.integers(1, 6), min_size=n_ue, max_size=n_ue),
                       min_size=n_sf, max_size=n_sf)
    verdicts = st.lists(st.lists(st.booleans(), max_size=8), min_size=n_ue, max_size=n_ue)
    return Lifecycle(cfg, draw(st.integers(0, 4)), draw(masks), draw(st.none() | masks),
                     draw(periods), draw(st.none() | verdicts), draw(st.integers(0, 2 ** 16)))


def stream_states(rngs, n_ue):
    return [str(rngs.stream("sps", ue).bit_generator.state) for ue in range(n_ue)]


# One UE whose counter is 1 after every selection: its first due occurrence
# is skipped by CR, so the counter must not step there and no draw is made
@example(Lifecycle(SpsConfig(slrrc_min=1, slrrc_max=1, p_resel=0.5), 0, [[True]] * 40, None,
                   [[3]] * 40, [[False]], 5))
@settings(max_examples=200, deadline=None)
@given(lifecycles())
def test_grant_step_matches_the_scalar_reference(run):
    """`Grants.step`, called on every subframe, against `oracles.grant_step`
    per UE, with the same releases, CR verdicts and per-UE streams: after each
    subframe the same UEs send, the same select for the same cause, the
    grants agree, every stream stands at the same draw, and the scripted
    store saw the same (subframe, UE, period) asks."""
    n_ue = len(run.timer[0])
    rngs, ref_rngs = RngPool(run.seed), RngPool(run.seed)
    script, ref_script = Script(run.verdicts), Script(run.verdicts)
    grants = Grants(n_ue, run.cfg, run.wait_limit_sf, rngs, script.pick,
                    None if run.verdicts is None else script.cr_allows)
    ref = [oracles.Grant() for _ in range(n_ue)]
    pending = np.zeros(n_ue, dtype=bool)
    for n, timer in enumerate(run.timer):
        # only a UE with no packet waiting releases one, as `release_triggers` has it
        timer = np.array(timer) & ~pending
        tracking = None if run.tracking is None else np.array(run.tracking[n]) & ~pending
        period_sf = np.array(run.period_sf[n], dtype=np.int64)
        pending |= timer if tracking is None else timer | tracking
        held = [g.subchannel for g in ref]
        expect_tx, expect_selected = [], {}
        for ue, grant in enumerate(ref):
            sends, cause = oracles.grant_step(
                grant, ue, n, bool(timer[ue]), tracking is not None and bool(tracking[ue]),
                bool(pending[ue]), int(period_sf[ue]), run.cfg, run.wait_limit_sf,
                None if run.verdicts is None else ref_script.cr_allows, ref_script.pick,
                ref_rngs.stream("sps", ue))
            if sends:
                expect_tx.append(ue)
            if cause is not None:
                expect_selected[ue] = cause

        tx_ue, subchannel, period, selected = grants.step(n, grants.due(n), timer, tracking,
                                                          pending, period_sf)
        assert tx_ue.tolist() == expect_tx
        assert subchannel.tolist() == [held[ue] for ue in expect_tx]
        assert period.tolist() == period_sf[expect_tx].tolist()
        assert selected == expect_selected
        for name in ("next_tx", "subchannel", "period", "counter"):
            assert getattr(grants, name).tolist() == [getattr(g, name) for g in ref], name
        assert stream_states(rngs, n_ue) == stream_states(ref_rngs, n_ue)
        assert sorted(script.calls) == sorted(ref_script.calls)
        pending[tx_ue] = False


def test_cr_is_asked_with_the_period_the_grant_takes():
    """A grant selected at period 100 whose UE's period is 300 at its due
    occurrence asks the CR limit with 300, the period of the occurrences
    after this transmission."""
    script = Script([[]])
    grants = Grants(1, SpsConfig(), 0, RngPool(1), script.pick, script.cr_allows)
    yes = np.array([True])
    grants.step(0, grants.due(0), yes, None, yes, np.array([100]))
    assert grants.period.tolist() == [100]
    n = int(grants.next_tx[0])
    tx_ue, _, period, _ = grants.step(n, grants.due(n), ~yes, None, yes, np.array([300]))
    assert tx_ue.tolist() == [0] and period.tolist() == [300]
    assert [call for call in script.calls if call[0] == "cr"] == [("cr", n, 0, 300)]


# ---------------------------------------------------------------------------
# channel-occupancy ratio and its limit

def own_tx_store(n, times, span=1000, n_subch=1):
    """A store that recorded subframes 0..n-1 as the engine does, in batches
    of up to a span: each UE unsensed exactly where it transmitted, at the
    subframes in times[ue]."""
    store = SensingStore(len(times), n_subch, span, NOISE_MW)
    for lo in range(0, n, span):
        sensed = np.array([[j not in t for t in times] for j in range(lo, min(lo + span, n))])
        store.record_subframe(lo, srssi_mw=np.full((len(times), len(sensed), n_subch), NOISE_MW),
                              sensed_mask=sensed, decodes=NO_DECODES)
    return store


CALIBRATION = (np.array([0.0, 1.0]), np.array([0.0, 200.0]))


class TestComputeCr:
    def test_zero_usage(self):
        # no past transmission: the grant's occurrences in [n, n+250) alone
        assert compute_cr([0, 0], [1000, 1], 2).tolist() == [1 / 2000, 250 / 2000]

    def test_direct_count(self):
        # the past part of the window is [n-750, n-1]: n-750 counts, n-751 does not
        store = own_tx_store(1000, [{249, 250, 251, 900, 999}, set()])
        assert store.own_tx_counts(1000, np.array([0, 1])).tolist() == [4, 0]
        assert compute_cr(store.own_tx_counts(1000, np.array([0])), [1000], 2) \
            == pytest.approx((4 + 1) / 2000)

    def test_periodic_steady_state(self):
        # one subchannel every 100 subframes -> 10 slots per window
        store = own_tx_store(1000, [set(range(0, 1000, 100))])
        assert compute_cr(store.own_tx_counts(1000, np.array([0])), [100], 2) \
            == pytest.approx(0.005)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            compute_cr([0], [0], 2)
        with pytest.raises(ValueError):
            compute_cr([0], [100], 0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(750, 1000), st.data())
    def test_randomized_against_direct_count(self, span, data):
        # n before the window is full, or near the first and second ring wrap
        n = data.draw(st.one_of(st.integers(0, 749), st.integers(span - 2, span + 2),
                                st.integers(2 * span - 2, 2 * span + 2)))
        ages = st.one_of(st.integers(749, 752), st.integers(1, 1000))
        times = [sorted({n - a for a in data.draw(st.lists(ages, max_size=30)) if a <= n})
                 for _ in range(3)]
        ues = np.array(data.draw(st.permutations(range(3))))
        periods = data.draw(st.lists(st.integers(1, 300), min_size=3, max_size=3))
        n_subch = data.draw(st.integers(1, 4))
        store = own_tx_store(n, [set(t) for t in times], span)
        got = compute_cr(store.own_tx_counts(n, ues), periods, n_subch)
        assert got.tolist() == [oracles.compute_cr(n, times[ue], period, n_subch)
                                for ue, period in zip(ues.tolist(), periods)]
        assert np.all((0.0 <= got) & (got <= 1.0))


class TestCrLimit:
    def test_inactive_below_limit(self):
        assert cr_limit([0.0, 0.5, 0.6], 0.6, CALIBRATION).tolist() == [1.0, 1.0, 1.0]

    def test_direct_substitution(self):
        flat = (np.array([0.0, 1.0]), np.array([120.0, 120.0]))
        assert cr_limit([0.8], 0.6, flat)[0] == pytest.approx(0.005)

    def test_with_calibration_table(self):
        # 0.8 maps to 160 vehicles; the UE below the limit stays uncapped
        assert cr_limit([0.8, 0.5], 0.6, CALIBRATION).tolist() == \
            pytest.approx([0.00375, 1.0])

    def test_zero_density_rejected(self):
        with pytest.raises(ValueError):
            cr_limit([0.8], 0.6, (np.array([0.0, 1.0]), np.array([0.0, 0.0])))
        with pytest.raises(ValueError):
            cr_limit([1.5], 0.6, CALIBRATION)


# ---------------------------------------------------------------------------
# resource selection: spec cases plus brute-force oracle equivalence

def toy_cfg(**kw):
    base = dict(t1_sf=1, t2_sf=10, th_sps_dbm=-85.0, sensing_window_sf=30,
                keep_fraction=0.2)
    base.update(kw)
    return SpsConfig(**base)


def random_instance(rnd):
    span = rnd.randint(15, 30)
    n_subch = 2
    cfg = toy_cfg(t2_sf=rnd.randint(5, 10), sensing_window_sf=span)
    own_period = rnd.choice([3, 5, 10])
    saturate = rnd.random() < 0.25
    records = []
    newest = span - 1
    for n in range(newest + 1):
        if rnd.random() < 0.1:
            continue    # gap: subframe never observed
        sensed = rnd.random() > 0.15
        srssi = (rnd.uniform(-99.0, -60.0), rnd.uniform(-99.0, -60.0))
        strongest = {}      # the UE decodes at most one transmission per subchannel
        if sensed:
            k = rnd.choice([0, 0, 0, 1, 1, 2]) if not saturate else rnd.choice([1, 2])
            for _ in range(k):
                period = rnd.choice([1, 2] if saturate else [2, 3, 5, 7, 10])
                rsrp = rnd.uniform(-70.0, -55.0) if saturate else rnd.uniform(-110.0, -60.0)
                subch, source = rnd.randrange(n_subch), rnd.randrange(50)
                if subch not in strongest or rsrp > strongest[subch][3]:
                    strongest[subch] = (subch, source, period, rsrp)
        records.append((n, srssi, sensed, list(strongest.values())))
    return build_window(records, span, n_subch), newest + 1, cfg, n_subch, own_period


class TestSelection:
    def test_empty_window_offers_whole_pool(self):
        w = SensingWindow(SensingStore(1, 2, 1000, NOISE_MW), 0)
        cfg = SpsConfig()
        result = select_candidates(w, 0, cfg, own_period_sf=100)
        assert result.pool_size == 200
        # the pool in (subframe, subchannel) order
        assert result.candidates.tolist() == [[t, c] for t in range(1, 101) for c in range(2)]
        assert result.escalations == 0 and result.threshold_dbm == cfg.th_sps_dbm
        # uniform choice over the whole pool: many distinct picks across draws
        rng = rng_stream(3, "sps")
        picks = {select_resource(w, 0, cfg, rng, own_period_sf=100) for _ in range(600)}
        assert len(picks) > 150

    def test_selected_resource_inside_window(self):
        rnd = random.Random(5)
        for _ in range(50):
            w, n, cfg, n_subch, own = random_instance(rnd)
            subframe, subch = select_resource(w, n, cfg, rng_stream(rnd.randrange(999), "sps"),
                                              own_period_sf=own)
            assert n + cfg.t1_sf <= subframe <= n + cfg.t2_sf
            assert 0 <= subch < n_subch

    def test_saturated_reservations_escalate(self):
        # period-1 reservations above threshold on both subchannels cover
        # every candidate, so at least one 3 dB raise must happen
        records = [(n, (-70.0, -70.0), True,
                    [(0, 7, 1, -60.0), (1, 8, 1, -60.0)] if n == 5 else [])
                   for n in range(10)]
        w = build_window(records, span=30)
        result = select_candidates(w, 10, toy_cfg(), own_period_sf=5)
        assert result.escalations >= 1
        assert result.threshold_dbm == pytest.approx(-85.0 + 3.0 * result.escalations)

    def test_escalation_steps_are_three_db(self):
        rnd = random.Random(11)
        seen = 0
        for _ in range(200):
            w, n, cfg, _, own = random_instance(rnd)
            result = select_candidates(w, n, cfg, own_period_sf=own)
            assert result.threshold_dbm == pytest.approx(cfg.th_sps_dbm + 3.0 * result.escalations)
            seen += result.escalations > 0
        assert seen > 0

    def test_keep_size_with_distinct_rssi(self):
        # generic instances (continuous random RSSI) keep exactly
        # ceil(keep_fraction * pool) candidates when enough survive
        rnd = random.Random(23)
        for _ in range(100):
            w, n, cfg, _, own = random_instance(rnd)
            result = select_candidates(w, n, cfg, own_period_sf=own)
            need = math.ceil(cfg.keep_fraction * result.pool_size)
            assert len(result.candidates) >= min(need, result.pool_size)

    def test_exempted_quiet_resource_is_skipped(self):
        # the quietest resource would win the ranking, but a decoded
        # reservation above threshold projects exactly onto it
        records = []
        for n in range(10):
            srssi = (-65.0, -65.0)
            reservations = []
            if n == 4:
                srssi = (-95.0, -65.0)               # subframe 14 ranks quietest via period 5
                reservations = [(0, 3, 5, -70.0)]    # and is reserved with period 5
            records.append((n, srssi, True, reservations))
        w = build_window(records, span=30)
        result = select_candidates(w, 10, toy_cfg(), own_period_sf=5)
        assert [14, 0] not in result.candidates.tolist()

    def test_unsensed_subframe_exempts_projection(self):
        def window(unsensed):
            return build_window([(n, (-65.0, -65.0), n not in unsensed, []) for n in range(10)],
                                span=30)
        result = select_candidates(window({4}), 10, toy_cfg(), own_period_sf=5)
        picked = set(map(tuple, result.candidates.tolist()))
        # 14 and 19 project onto the unsensed subframe 4 with period 5
        assert not ({(14, 0), (14, 1), (19, 0), (19, 1)} & picked)
        sensed = select_candidates(window(set()), 10, toy_cfg(), own_period_sf=5)
        assert {(14, 0), (14, 1), (19, 0), (19, 1)} <= set(map(tuple, sensed.candidates.tolist()))
        assert len(sensed.candidates) >= len(result.candidates)

    def test_malformed_inputs_fail_loudly(self):
        w = build_window([(0, (-70.0, -70.0), True, [(0, 7, 0, -60.0)])], span=30)
        with pytest.raises(ValueError, match="period"):
            select_candidates(w, 1, toy_cfg(), own_period_sf=100)
        # an own period below one, on an empty window and on a half-duplex one
        empty = SensingWindow(SensingStore(1, 2, 30, NOISE_MW), 0)
        unsensed = build_window([(0, (-70.0, -70.0), False, [])], span=30)
        for w in (empty, unsensed):
            for own in (0, -100):
                with pytest.raises(ValueError, match="own_period_sf"):
                    select_candidates(w, 1, toy_cfg(), own_period_sf=own)
                with pytest.raises(ValueError, match="own_period_sf"):
                    select_resource(w, 1, toy_cfg(), rng_stream(1, "sps"), own_period_sf=own)

    def test_ranking_grid_is_the_own_period_below_p_step(self):
        """Step 8 averages a candidate's S-RSSI over the subframes
        min(100, own period) apart before it: with a distinct S-RSSI in
        every subframe, the candidates kept are those whose average on that
        grid is the lowest (candidates an own period apart project onto the
        same subframes, so they tie)."""
        rnd = random.Random(3)
        dbm = [rnd.uniform(-99.0, -60.0) for _ in range(1000)]
        w = build_window([(j, (v,), True, []) for j, v in enumerate(dbm)], span=1000, n_subch=1)
        cfg = SpsConfig(keep_fraction=0.01)         # a pool of 100 keeps the lowest
        for own, grid in ((20, 20), (50, 50), (99, 99), (100, 100), (150, 100), (600, 100)):
            average = {}
            for t in range(1001, 1101):
                mw = [10 ** (dbm[j] / 10.0) for j in range(t - grid, -1, -grid) if j < 1000]
                average[t] = sum(mw) / len(mw)
            want = [[t, 0] for t, v in average.items() if v == min(average.values())]
            got = select_candidates(w, 1000, cfg, own_period_sf=own).candidates.tolist()
            assert got == want, own

    def test_oracle_equivalence_quick(self):
        rnd = random.Random(99)
        escalated = 0
        for _ in range(200):
            w, n, cfg, _, own = random_instance(rnd)
            result = select_candidates(w, n, cfg, own_period_sf=own)
            got = set(map(tuple, result.candidates.tolist()))
            want = set(oracles.select_candidates(w, n, cfg, own_period_sf=own).candidates)
            assert got == want
            escalated += result.escalations > 0
            choice = select_resource(w, n, cfg, rng_stream(7, "sps"), own_period_sf=own)
            assert choice in want
        assert escalated > 0


def test_sps_config_validation():
    with pytest.raises(ValueError):
        SpsConfig(t1_sf=0)
    with pytest.raises(ValueError):
        SpsConfig(slrrc_min=10, slrrc_max=5)
    with pytest.raises(ValueError):
        SpsConfig(p_resel=1.5)
    with pytest.raises(ValueError):
        SpsConfig(keep_fraction=0.0)


# ---------------------------------------------------------------------------
# columnar store and array selection against the resource-by-resource reference

TH_CHOICES = [-85.0, -85.3, -85.3000031, -90.7, -79.9]


@st.composite
def sensing_histories(draw, min_ue=1):
    """A store of `min_ue` to 3 UEs filled through record_subframe with a
    known list of decodes.

    Histories run past the span (eviction, ring reuse), skip subframes
    (gaps), leave subframes without transmissions (their rows must lose the
    decodes of one span earlier), leave UEs unsensed (half-duplex), draw
    periods up to several selection windows long, put RSRP values on and
    next to the float32 rounding of the threshold, and in saturated histories
    reserve almost everything above it so the threshold must escalate.  Some
    histories record nothing, so that the sensing window is empty.  Each
    UE decodes at most one of the transmissions on a subchannel, as the
    channel does at SINR thresholds of 0 dB and above, so receivers of
    different transmissions on one subchannel hold different periods.
    """
    rnd = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    th = draw(st.sampled_from(TH_CHOICES))
    saturated = draw(st.booleans())
    cfg = toy_cfg(t1_sf=draw(st.integers(1, 3)), t2_sf=draw(st.integers(4, 14)),
                  th_sps_dbm=th, keep_fraction=draw(st.sampled_from([0.2, 0.5, 1.0])))
    n_ue, n_subch = draw(st.integers(min_ue, 3)), draw(st.integers(1, 3))
    span = draw(st.integers(12, 40))
    near = [float(v) for v in (np.float32(th), np.nextafter(np.float32(th), np.float32(-np.inf)),
                               np.nextafter(np.float32(th), np.float32(np.inf)))]
    store = SensingStore(n_ue, n_subch, span, NOISE_MW)
    decodes = []      # (subframe, receiver, subchannel, period, rsrp) in that order
    # -1: nothing recorded, the selection's empty window
    last = -1 if draw(st.integers(0, 4)) == 4 else rnd.randint(span // 2, 3 * span)
    levels = [-99.0, -90.0, -80.0, -70.0]
    for n in range(last + 1):
        if rnd.random() < 0.1:
            continue
        srssi = np.array([[10 ** (rnd.choice(levels + [rnd.uniform(-99.0, -60.0)]) / 10.0)
                           for _ in range(n_subch)] for _ in range(n_ue)])
        sensed = np.array([rnd.random() > 0.15 for _ in range(n_ue)])
        k = rnd.choice([1, 2, 3] if saturated else [0, 0, 0, 1, 2])
        subch = [rnd.randrange(n_subch) for _ in range(k)]
        period = [rnd.choice([1, 2] if saturated else [2, 3, 5, 7, 20, 50]) for _ in range(k)]
        heard = []
        for u in range(n_ue):
            for c in sorted(set(subch)):
                if rnd.random() < 0.7:
                    i = rnd.choice([i for i in range(k) if subch[i] == c])
                    rsrp = rnd.choice(near + [rnd.uniform(-70.0, -55.0) if saturated
                                              else rnd.uniform(-110.0, -60.0)])
                    heard.append((n, u, c, period[i], float(np.float32(rsrp))))
        # (subframe offset, receiver, subchannel, period, rsrp) columns
        columns = [np.array(col) for col in zip(*heard)]
        store.record_subframe(n, srssi_mw=srssi[:, None], sensed_mask=sensed[None],
                              decodes=(columns[0] - n, *columns[1:]) if heard else NO_DECODES)
        decodes += heard
    n = last + 1 + draw(st.integers(0, 2))
    ue = draw(st.integers(0, n_ue - 1))
    own_period = draw(st.integers(1, 3 * span))
    return store, decodes, n, ue, cfg, own_period


@settings(max_examples=150, deadline=None)
@given(sensing_histories())
def test_store_keeps_exactly_the_live_decodes(history):
    store, decodes, *_ = history
    horizon = store.newest - store.span
    assert oracles.reservation_records(store) == [d for d in decodes if d[0] > horizon]
    assert store.reservations.shape == store.period_sf.shape == store.srssi_mw.shape


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(2, 12), st.data())
def test_batched_record_matches_per_subframe_writes(n_ue, n_subch, span, data):
    """Consecutive subframes recorded a batch at a time, batches of 1 to
    `span` subframes that cross the ring's wrap and overwrite earlier
    decodes, leave every array as recording them one at a time does."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    first = data.draw(st.integers(0, 2 * span))
    count = data.draw(st.integers(1, 4 * span))
    srssi = NOISE_MW * rng.uniform(1.0, 1e4, size=(n_ue, count, n_subch))
    sensed = rng.random((count, n_ue)) < 0.8
    offset, rx, subch = np.nonzero(rng.random((count, n_ue, n_subch)) < 0.3)
    period = rng.integers(1, 50, size=offset.size)
    rsrp = rng.uniform(-110.0, -60.0, size=offset.size).astype(np.float32)
    batched, single = (SensingStore(n_ue, n_subch, span, NOISE_MW) for _ in range(2))
    lo = 0
    while lo < count:
        hi = min(count, lo + data.draw(st.integers(1, span)))
        at = (lo <= offset) & (offset < hi)
        batched.record_subframe(first + lo, srssi_mw=srssi[:, lo:hi], sensed_mask=sensed[lo:hi],
                                decodes=(offset[at] - lo, rx[at], subch[at], period[at], rsrp[at]))
        lo = hi
    for j in range(count):
        at = offset == j
        single.record_subframe(first + j, srssi_mw=srssi[:, j:j + 1], sensed_mask=sensed[j:j + 1],
                               decodes=(offset[at] - j, rx[at], subch[at], period[at], rsrp[at]))
    for name in ("srssi_mw", "sensed", "reservations", "period_sf", "row_subframe", "newest"):
        assert np.array_equal(getattr(batched, name), getattr(single, name)), name
    with pytest.raises(ValueError, match="1 to"):
        batched.record_subframe(first + count, srssi_mw=np.zeros((n_ue, span + 1, n_subch)),
                                sensed_mask=np.ones((span + 1, n_ue), dtype=bool),
                                decodes=NO_DECODES)


@settings(max_examples=300, deadline=None)
@given(sensing_histories())
def test_selection_matches_reference(history):
    store, _, n, ue, cfg, own_period = history
    w = SensingWindow(store, ue)
    got = select_candidates(w, n, cfg, own_period_sf=own_period)
    want = oracles.select_candidates(w, n, cfg, own_period_sf=own_period)
    assert got.candidates.dtype == np.int64 and got.candidates.shape == (len(want.candidates), 2)
    assert list(map(tuple, got.candidates.tolist())) == want.candidates
    assert (got.escalations, got.threshold_dbm, got.pool_size) == \
        (want.escalations, want.threshold_dbm, want.pool_size)
    pick = select_resource(w, n, cfg, rng_stream(7, "sps"), own_period_sf=own_period)
    assert list(pick) == rng_stream(7, "sps").choice(want.candidates).tolist()
    assert all(type(v) is int for v in pick)
    # every pool cell's ranking average, bit for bit
    ts = np.arange(n + cfg.t1_sf, n + cfg.t2_sf + 1)
    oldest = store.oldest_valid()
    metric = _rank_metric(store, ue, ts, own_period, oldest, store.recorded(oldest, n - 1))
    assert metric.tolist() == [[oracles._rank_metric(w, int(t), c, own_period, oldest, n - 1)
                                for c in range(store.n_subch)] for t in ts]


@pytest.mark.parametrize("keep_fraction", [0.2, 0.5, 1.0])
@pytest.mark.parametrize("plane", ["mw", "db"])
@pytest.mark.parametrize("sensed", [True, False])
def test_empty_window_matches_reference(keep_fraction, plane, sensed):
    """The histories draw an empty window about one time in five; this
    checks it under every keep fraction they draw, on every run.  The UE's
    ring rows, none of them recorded, hold stale values that neither form
    may read: sensed flags `sensed` (step 5's input) and, by `plane`,
    S-RSSI far above the noise floor in the mW plane (step 8's) or
    period-1 reservations above the threshold in the dBm one (step 6's).
    Either way the result is the whole pool at th_sps_dbm."""
    cfg = toy_cfg(t1_sf=2, t2_sf=9, keep_fraction=keep_fraction)
    store, ue = SensingStore(2, 3, 20, NOISE_MW), 1
    rows = slice(None)
    oracles.ring_cells(store.sensed, rows, ue)[...] = sensed
    if plane == "mw":
        srssi = oracles.ring_cells(store.srssi_mw, rows, ue)
        srssi[...] = NOISE_MW * np.random.default_rng(7).uniform(1e2, 1e5, size=srssi.shape)
    else:
        oracles.ring_cells(store.reservations, rows, ue)[...] = -60.0
        oracles.ring_cells(store.period_sf, rows, ue)[...] = 1
    w = SensingWindow(store, ue)
    for n in (0, 5):
        got = select_candidates(w, n, cfg, own_period_sf=4)
        want = oracles.select_candidates(w, n, cfg, own_period_sf=4)
        assert got.candidates.dtype == np.int64
        assert list(map(tuple, got.candidates.tolist())) == want.candidates
        assert (got.escalations, got.threshold_dbm, got.pool_size) == \
            (want.escalations, want.threshold_dbm, want.pool_size)
        assert want.candidates == [(t, c) for t in range(n + 2, n + 10) for c in range(3)]
        assert (want.escalations, want.threshold_dbm) == (0, cfg.th_sps_dbm)


@settings(max_examples=150, deadline=None)
@given(sensing_histories(min_ue=2), st.integers(0, 2 ** 32 - 1))
def test_selection_reads_only_its_ue(history, seed):
    """A UE's selection and ranking read its own cells of the store alone:
    overwriting every other UE's S-RSSI, reservations, periods and sensed
    flags with other values leaves both bit for bit as they were, and both
    still match the reference."""
    store, _, n, ue, cfg, own_period = history
    ts = np.arange(n + cfg.t1_sf, n + cfg.t2_sf + 1)
    oldest = store.oldest_valid()

    def select():
        w = SensingWindow(store, ue)
        return (select_candidates(w, n, cfg, own_period_sf=own_period),
                _rank_metric(store, ue, ts, own_period, oldest, store.recorded(oldest, n - 1)))

    before, metric_before = select()
    rng = np.random.default_rng(seed)
    everyone = slice(None)
    for other in set(range(store.n_ue)) - {ue}:
        srssi = oracles.ring_cells(store.srssi_mw, everyone, other)
        srssi[...] = NOISE_MW * rng.uniform(1.0, 1e5, size=srssi.shape)
        rsrp = oracles.ring_cells(store.reservations, everyone, other)
        rsrp[...] = rng.uniform(-70.0, -50.0, size=rsrp.shape)      # above every threshold
        period = oracles.ring_cells(store.period_sf, everyone, other)
        period[...] = rng.integers(1, 4, size=period.shape)
        sensed = oracles.ring_cells(store.sensed, everyone, other)
        sensed[...] = rng.random(sensed.shape) < 0.5
    after, metric_after = select()
    assert after.candidates.tolist() == before.candidates.tolist()
    assert (after.escalations, after.threshold_dbm, after.pool_size) == \
        (before.escalations, before.threshold_dbm, before.pool_size)
    assert metric_after.tobytes() == metric_before.tobytes()
    w = SensingWindow(store, ue)
    want = oracles.select_candidates(w, n, cfg, own_period_sf=own_period)
    assert list(map(tuple, after.candidates.tolist())) == want.candidates
    assert metric_after.tolist() == [[oracles._rank_metric(w, int(t), c, own_period, oldest,
                                                           n - 1)
                                      for c in range(store.n_subch)] for t in ts]


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.integers(2, 12), st.data())
def test_wrapping_batch_lands_in_each_ues_cells(n_ue, n_subch, span, data):
    """A batch that wraps the ring puts each UE's S-RSSI, sensed flag and
    decodes in that UE's cells of each subframe's row; batches as long as
    the UE count are among those drawn."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    m = data.draw(st.integers(2, span))
    n = data.draw(st.integers(0, 3)) * span + data.draw(st.integers(span - m + 1, span - 1))
    srssi = NOISE_MW * rng.uniform(1.0, 1e4, size=(n_ue, m, n_subch))
    sensed = rng.random((m, n_ue)) < 0.7
    offset, rx, subch = np.nonzero(rng.random((m, n_ue, n_subch)) < 0.3)
    period = rng.integers(1, 50, size=offset.size)
    rsrp = rng.uniform(-110.0, -60.0, size=offset.size).astype(np.float32)
    store = SensingStore(n_ue, n_subch, span, NOISE_MW)
    store.record_subframe(n, srssi_mw=srssi, sensed_mask=sensed,
                          decodes=(offset, rx, subch, period, rsrp))
    assert (n + m - 1) % span < n % span        # the batch wrapped
    for j in range(m):
        row = (n + j) % span
        assert store.row_subframe[row] == n + j
        for u in range(n_ue):
            assert oracles.ring_cells(store.srssi_mw, row, u).tolist() == srssi[u, j].tolist()
            assert oracles.ring_cells(store.sensed, row, u) == sensed[j, u]
    for j, u, c, p, v in zip(offset.tolist(), rx.tolist(), subch.tolist(), period.tolist(),
                             rsrp.tolist()):
        assert oracles.ring_cells(store.reservations, (n + j) % span, u)[c] == v
        assert oracles.ring_cells(store.period_sf, (n + j) % span, u)[c] == p
    assert len(oracles.reservation_records(store)) == offset.size


@settings(max_examples=100, deadline=None)
@given(sensing_histories(), st.integers(1, 60), st.floats(1e-11, 1e-6))
def test_cbp_counts_match_per_subframe_count(history, window_sf, threshold_mw):
    store, _, n, *_ = history
    window_sf = min(window_sf, store.span)
    busy, slots = store.cbp_counts(n, window_sf, threshold_mw)
    want_busy = np.zeros(store.n_ue, dtype=np.int64)
    want_slots = np.zeros(store.n_ue, dtype=np.int64)
    for j in oracles.valid_subframes(store, n - window_sf, n - 1):
        row = j % store.span
        sensed = oracles.ring_cells(store.sensed, row)
        want_slots += sensed * store.n_subch
        want_busy += np.sum(oracles.ring_cells(store.srssi_mw, row) > threshold_mw, axis=1) * sensed
    assert busy.tolist() == want_busy.tolist() and slots.tolist() == want_slots.tolist()
