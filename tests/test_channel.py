import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cv2xsim.channel import ChannelModel, Outcome, pathloss, resolve_subframe
from cv2xsim.core import RoadGeometry, rng_stream

GEO = RoadGeometry(length_m=10_000.0, lanes=12, lane_width_m=4.0, wraparound=False)
# shorter than twice the 400 m spread of the drawn positions, so some links wrap
RING = RoadGeometry(length_m=600.0, lanes=4, lane_width_m=4.0, wraparound=True)


def clean_model(**kw):
    defaults = dict(shadowing_sigma_db=0.0, fading="none")
    defaults.update(kw)
    return ChannelModel(**defaults)


def single_slope(**kw):
    return clean_model(exponent_beyond=kw.get("exponent", 2.0), **kw)


def resolve(txs, ues, model, rng, static_shadow=None, fading_rng=None):
    """`resolve_subframe` over two subchannels for (ue, subchannel, power_dbm)
    transmissions among UEs placed at (x, lane), UE i at `ues[i]`, as a batch
    of one subframe whose `srssi_mw` and `is_transmitting` are that
    subframe's.  The channel takes the transmissions sorted by subchannel,
    stably; row t of the result is `txs[t]`.  Fading, when the model has
    it, draws from `fading_rng` or a fresh stream."""
    tx = np.array(txs, dtype=float).reshape(-1, 3)
    order = np.argsort(tx[:, 1], kind="stable")
    tx = tx[order]
    pos = np.array(ues, dtype=float)
    fading_rng = rng_stream(1, "fading") if fading_rng is None else fading_rng
    res = resolve_subframe(np.zeros(len(tx), dtype=int), tx[:, 0].astype(int),
                           tx[:, 1].astype(int), tx[:, 2], pos[:, 0],
                           GEO.lane_y(pos[:, 1].astype(int)), model, rng, GEO, 2,
                           static_shadow, fading_rng, 1)
    back = np.argsort(order)
    return dataclasses.replace(res, rx_power_dbm=res.rx_power_dbm[back],
                               outcome=res.outcome[back], distance_m=res.distance_m[back],
                               srssi_mw=res.srssi_mw[:, 0], is_transmitting=res.is_transmitting[0])


def sinr_db(res, txs, model):
    """(k, n_ue) SINR of each link in dB, from the received powers: the
    signal over the other same-subchannel arrivals plus noise.  A UE's own
    transmission does not reach its receiver."""
    ue = np.array([u for u, _, _ in txs], dtype=int)
    subch = np.array([c for _, c, _ in txs], dtype=int)
    p_mw = 10.0 ** (res.rx_power_dbm / 10.0)
    p_mw[np.arange(len(txs)), ue] = 0.0
    same = (subch[:, None] == subch[None, :]).astype(float)
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(p_mw / (same @ p_mw - p_mw + model.noise_mw))


def shadow_db(res, txs, model):
    """(k, n_ue) shadowing of each link in dB, from the received powers of a
    model without fading: what the link budget lost beyond the pathloss."""
    power = np.array([p for _, _, p in txs])
    return power[:, None] - pathloss(res.distance_m, model) - res.rx_power_dbm


def links_to(res, txs, rx_ue, model):
    """{transmitter: (outcome, rx_power_dbm, sinr_db)} for every other UE's
    transmission toward receiver rx_ue."""
    sinr = sinr_db(res, txs, model)
    return {ue: (int(res.outcome[t, rx_ue]), float(res.rx_power_dbm[t, rx_ue]),
                 float(sinr[t, rx_ue]))
            for t, (ue, _, _) in enumerate(txs) if ue != rx_ue}


class TestPathloss:
    def test_reference_point(self):
        m = single_slope(d0_m=10.0, pl0_db=67.8)
        assert pathloss(10.0, m) == pytest.approx(67.8)

    def test_exponent_two_doubling(self):
        m = single_slope(d0_m=10.0, pl0_db=67.8, exponent=2.0)
        # 10 * 2 * log10(2), evaluated independently
        assert pathloss(20.0, m) - pathloss(10.0, m) == pytest.approx(6.0206, abs=1e-3)
        # one slope past the 150 m breakpoint too
        assert pathloss(600.0, m) == pytest.approx(67.8 + 20.0 * np.log10(60.0), abs=1e-9)

    def test_clamped_below_reference(self):
        m = single_slope(d0_m=10.0, pl0_db=67.8)
        assert pathloss(5.0, m) == pytest.approx(67.8)
        assert pathloss(0.0, m) == pytest.approx(67.8)

    def test_dual_slope_continuous_at_breakpoint(self):
        m = clean_model(breakpoint_m=150.0, exponent=2.0, exponent_beyond=3.8)
        just_below = pathloss(150.0 - 1e-9, m)
        just_above = pathloss(150.0 + 1e-9, m)
        assert just_above == pytest.approx(just_below, abs=1e-6)

    @pytest.mark.parametrize("model", [
        clean_model(),
        clean_model(d0_m=1.0, pl0_db=47.9, breakpoint_m=80.0, exponent=2.7, exponent_beyond=4.1),
        single_slope(exponent=3.0),
        clean_model(breakpoint_m=4.0),          # a breakpoint inside d0 acts at d0
    ], ids=["default", "steep", "one-slope", "breakpoint-at-d0"])
    def test_slopes_match_two_slope_reference(self, model):
        # bit for bit at d0 and at the breakpoint and one ulp to either side
        # of each, on inputs with near and far distances, only far ones and
        # only near ones, in any shape; the input is left as it was
        bp = max(model.breakpoint_m, model.d0_m)
        edges = [np.nextafter(e, to) for e in (model.d0_m, bp) for to in (-np.inf, e, np.inf)]
        far = np.array([np.nextafter(bp, np.inf), 2 * bp, 7 * bp + 0.3, 1e4])
        near = np.array([0.0, model.d0_m / 3, model.d0_m, bp])
        for d in (np.array(edges), np.array(edges + [0.0, 1e4]).reshape(2, 4), far,
                  far.reshape(2, 2), near, np.zeros((0, 3)), np.float64(bp)):
            given = np.copy(d)
            got, want = pathloss(d, model), oracles.pathloss(d, model)
            assert got.shape == np.shape(d) and got.tobytes() == want.tobytes(), d
            assert np.array_equal(d, given)

    def test_vectorized_matches_scalar(self):
        m = clean_model()
        d = np.array([5.0, 10.0, 100.0, 150.0, 600.0])
        vec = pathloss(d, m)
        assert vec == pytest.approx([pathloss(x, m) for x in d])


class TestReceivedPower:
    """The link budget that resolve_subframe applies to every link."""

    def test_link_budget_arithmetic(self):
        # tx - pathloss(d) - shadow, with the shadowing looked up per pair
        m = single_slope(d0_m=10.0, pl0_db=100.0)
        ues = [(0.0, 0), (10.0, 0)]
        res = resolve([(0, 0, 23.0)], ues, m, rng_stream(1, "shadow"))
        assert res.rx_power_dbm[0, 1] == pytest.approx(-77.0)
        static = single_slope(d0_m=10.0, pl0_db=100.0, shadowing_sigma_db=1.0,
                              shadowing_mode="static")
        res = resolve([(0, 0, 23.0)], ues, static, rng_stream(1, "shadow"),
                      static_shadow=np.full((2, 2), 3.0))
        assert res.rx_power_dbm[0, 1] == pytest.approx(-80.0)
        assert shadow_db(res, [(0, 0, 23.0)], static)[0, 1] == pytest.approx(3.0)

    def test_shadowing_distribution_zero_mean(self):
        sigma = 3.0
        draws = rng_stream(5, "shadow").normal(0.0, sigma, size=100_000)
        assert abs(draws.mean()) < 0.1
        assert draws.std() == pytest.approx(sigma, rel=0.02)

    def test_monotone_in_distance_without_noise_terms(self):
        m = clean_model()
        d = np.linspace(1.0, 2000.0, 500)
        res = resolve([(0, 0, 23.0)], [(0.0, 0), *((x, 0) for x in d)], m,
                      rng_stream(1, "shadow"))
        assert np.all(np.diff(res.rx_power_dbm[0, 1:]) <= 0)


class TestResolveSubframe:
    def test_isolated_link_decodes(self):
        m = clean_model()
        txs = [(0, 0, 23.0)]
        res = resolve(txs, [(0.0, 0), (50.0, 0)], m, rng_stream(1, "shadow"))
        [(outcome, rx_power_dbm, sinr)] = links_to(res, txs, 1, m).values()
        assert outcome == Outcome.DECODED
        # SINR equals SNR exactly when nobody else transmits
        snr_db = rx_power_dbm - m.noise_floor_dbm
        assert sinr == pytest.approx(snr_db, abs=1e-9)

    def test_half_duplex_blocks_own_subframe(self):
        m = clean_model()
        txs = [(0, 0, 23.0), (1, 1, 23.0)]
        res = resolve(txs, [(0.0, 0), (50.0, 0), (100.0, 0)], m, rng_stream(1, "shadow"))
        assert [o for o, _, _ in links_to(res, txs, 1, m).values()] == \
            [Outcome.HALF_DUPLEX_BLOCKED]
        assert [o for o, _, _ in links_to(res, txs, 2, m).values()] == [Outcome.DECODED] * 2
        assert res.is_transmitting.tolist() == [True, True, False]

    def test_srssi_excludes_own_signal(self):
        # UEs 2 and 1 share subchannel 0; each one's S-RSSI is the noise
        # plus the other's arrival, never its own (UE ids differ from the
        # transmission rows so a mix-up between them shows)
        m = clean_model()
        txs = [(2, 0, 23.0), (1, 0, 20.0)]
        res = resolve(txs, [(0.0, 0), (50.0, 0), (120.0, 1)], m, rng_stream(1, "shadow"))
        arrival_mw = 10.0 ** (res.rx_power_dbm / 10.0)
        assert res.srssi_mw[2, 0] == pytest.approx(m.noise_mw + arrival_mw[1, 2], rel=1e-12)
        assert res.srssi_mw[1, 0] == pytest.approx(m.noise_mw + arrival_mw[0, 1], rel=1e-12)
        assert res.srssi_mw[0, 0] == pytest.approx(m.noise_mw + arrival_mw[:, 0].sum(), rel=1e-12)
        assert res.srssi_mw[:, 1].tolist() == [m.noise_mw] * 3

    def test_equidistant_equal_power_collision(self):
        # signal == interference gives SINR below 1 before noise
        m = clean_model(sinr_threshold_db=2.5)
        txs = [(0, 0, 23.0), (1, 0, 23.0)]
        res = resolve(txs, [(0.0, 0), (200.0, 0), (100.0, 0)], m, rng_stream(1, "shadow"))
        out = {ue: o for ue, (o, _, _) in links_to(res, txs, 2, m).items()}
        assert out == {0: Outcome.COLLIDED, 1: Outcome.COLLIDED}

    def test_below_sensitivity(self):
        m = clean_model(sensitivity_dbm=-92.0)
        txs = [(0, 0, 23.0)]
        res = resolve(txs, [(0.0, 0), (5000.0, 0)], m, rng_stream(1, "shadow"))
        assert links_to(res, txs, 1, m)[0][0] == Outcome.BELOW_SENSITIVITY

    def test_interferer_never_rescues_a_link(self):
        m = clean_model()
        ues = [(0.0, 0), (500.0, 0), (400.0, 0), (300.0, 0)]
        two, three = [(0, 0, 23.0), (1, 0, 23.0)], [(0, 0, 23.0), (1, 0, 23.0), (2, 0, 23.0)]
        base = resolve(two, ues, m, rng_stream(1, "shadow"))
        more = resolve(three, ues, m, rng_stream(1, "shadow"))
        if base.outcome[0, 3] == Outcome.COLLIDED:
            assert more.outcome[0, 3] in (Outcome.COLLIDED, Outcome.BELOW_SENSITIVITY)
        assert sinr_db(more, three, m)[0, 3] <= sinr_db(base, two, m)[0, 3] + 1e-9

    def test_srssi_superset_property(self):
        m = clean_model()
        ues = [(0.0, 0), (400.0, 0), (800.0, 0), (123.0, 2)]
        txs = [(0, 0, 23.0), (1, 0, 20.0), (2, 0, 17.0)]
        full = resolve(txs, ues, m, rng_stream(1, "shadow"))
        for k in range(1, len(txs)):
            part = resolve(txs[:k], ues, m, rng_stream(1, "shadow"))
            assert part.srssi_mw[3, 0] <= full.srssi_mw[3, 0] + 1e-18

    def test_measurement_rsrp_below_total(self):
        m = ChannelModel(shadowing_sigma_db=3.0)
        ues = [(0.0, 0), (300.0, 0), (100.0, 0), (150.0, 4)]
        txs = [(0, 0, 23.0), (1, 0, 23.0), (2, 1, 23.0)]
        res = resolve(txs, ues, m, rng_stream(3, "shadow"))
        for t, (_, subch, _) in enumerate(txs):
            if res.outcome[t, 3] == Outcome.DECODED:
                srssi_dbm = 10.0 * np.log10(res.srssi_mw[3, subch])
                assert res.rx_power_dbm[t, 3] <= srssi_dbm + 0.5

    def test_empty_subframe_is_noise_only(self):
        m = clean_model()
        res = resolve([], [(0.0, 0)], m, rng_stream(1, "shadow"))
        assert res.srssi_mw[0, 0] == pytest.approx(m.noise_mw)
        assert 10.0 * np.log10(res.srssi_mw[0, 0]) == pytest.approx(m.noise_floor_dbm)

    def test_nakagami_fading_draws_do_not_shift_shadowing(self):
        base = ChannelModel(shadowing_sigma_db=3.0, fading="none")
        faded = ChannelModel(shadowing_sigma_db=3.0, fading="nakagami", nakagami_m=3.0)
        ues = [(0.0, 0), (50.0, 0), (100.0, 0), (200.0, 0)]
        txs = [(0, 0, 23.0), (1, 1, 23.0)]
        shadow_a, shadow_b = rng_stream(2, "shadow"), rng_stream(2, "shadow")
        resolve(txs, ues, base, shadow_a, fading_rng=rng_stream(2, "fading"))
        resolve(txs, ues, faded, shadow_b, fading_rng=rng_stream(2, "fading"))
        # both runs took the same shadowing draws, and the fading none of them
        assert shadow_a.normal(size=4).tolist() == shadow_b.normal(size=4).tolist()

    def test_classification_boundaries(self):
        # quiet channel, parked UEs: UE 0 sends to UE 1 alone on its
        # subchannel, so the interference is 0.0 and the SINR is the SNR,
        # computed here in the channel's steps.  A link exactly at the
        # sensitivity or at the SINR threshold decodes; with either raised
        # by one ulp it does not.
        ues = [(0.0, 0), (120.0, 1)]
        txs = [(0, 0, 23.0)]
        quiet = clean_model()
        res = resolve(txs, ues, quiet, rng_stream(1, "shadow"))
        p_dbm = res.rx_power_dbm[0, 1]
        p_mw = np.power(10.0, res.rx_power_dbm / 10.0)
        snr_db = (10.0 * np.log10(p_mw / quiet.noise_mw))[0, 1]

        def outcome_at_1(**kw):
            return resolve(txs, ues, clean_model(**kw), rng_stream(1, "shadow")).outcome[0, 1]

        assert outcome_at_1(sensitivity_dbm=p_dbm) == Outcome.DECODED
        assert outcome_at_1(sensitivity_dbm=np.nextafter(p_dbm, np.inf)) == \
            Outcome.BELOW_SENSITIVITY
        assert outcome_at_1(sinr_threshold_db=snr_db) == Outcome.DECODED
        assert outcome_at_1(sinr_threshold_db=np.nextafter(snr_db, np.inf)) == Outcome.COLLIDED

    def test_first_failing_condition_names_the_outcome(self):
        # UEs 0 and 2 send 5 m apart on two subchannels and UE 1 on UE 0's:
        # a sending receiver is half-duplex blocked however strong the
        # signal, its own row included; below sensitivity outranks collided
        ues = [(0.0, 0), (120.0, 1), (5.0, 0), (5000.0, 0)]
        txs = [(0, 0, 23.0), (2, 1, 23.0), (1, 0, 23.0)]
        res = resolve(txs, ues, clean_model(), rng_stream(1, "shadow"))
        assert res.outcome.dtype == np.int8
        assert res.rx_power_dbm[0, 2] > clean_model().sensitivity_dbm + 30.0
        assert res.outcome[0, 2] == res.outcome[1, 0] == Outcome.HALF_DUPLEX_BLOCKED
        assert res.outcome[0, 0] == Outcome.HALF_DUPLEX_BLOCKED
        assert sinr_db(res, txs, clean_model())[0, 3] < clean_model().sinr_threshold_db
        assert res.outcome[0, 3] == Outcome.BELOW_SENSITIVITY

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_at_most_one_decode_per_receiver_and_subchannel(self, data):
        # p_A >= th * (p_B + N) and p_B >= th * (p_A + N) cannot both hold for
        # th >= 1 and N > 0, which the sensing store's one reservation cell per
        # (subframe, receiver, subchannel) relies on
        n_ue = data.draw(st.integers(2, 10))
        n_subch = data.draw(st.integers(1, 3))
        if data.draw(st.booleans()):     # co-located: every pathloss clamps to d0
            x, lanes = np.zeros(n_ue), np.zeros(n_ue, dtype=int)
        else:
            x = np.array(data.draw(st.lists(st.floats(0.0, 400.0), min_size=n_ue,
                                            max_size=n_ue)))
            lanes = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n_ue,
                                                max_size=n_ue)))
        k = data.draw(st.integers(2, n_ue))
        tx_ue = np.array(data.draw(st.permutations(range(n_ue)))[:k])
        tx_subch = np.array(data.draw(st.lists(st.integers(0, n_subch - 1), min_size=k,
                                               max_size=k)))
        power = np.array(data.draw(st.lists(st.sampled_from([10.0, 17.0, 23.0])
                                            | st.floats(-10.0, 30.0), min_size=k, max_size=k)))
        # the channel's row order: by subchannel, UEs in any order within one
        by_subch = np.argsort(tx_subch, kind="stable")
        tx_ue, tx_subch, power = tx_ue[by_subch], tx_subch[by_subch], power[by_subch]
        sigma = data.draw(st.sampled_from([0.0, 3.0, 8.0]))
        model = ChannelModel(sinr_threshold_db=data.draw(st.just(0.0) | st.floats(0.0, 10.0)),
                             shadowing_sigma_db=sigma,
                             shadowing_mode=data.draw(st.sampled_from(["iid", "static"])),
                             fading=data.draw(st.sampled_from(["none", "nakagami"])),
                             sensitivity_dbm=data.draw(st.sampled_from([-98.0, -92.0])))
        seed = data.draw(st.integers(0, 2 ** 16))
        table = rng_stream(seed, "shadow-static").normal(0.0, sigma, size=(n_ue, n_ue))
        res = resolve_subframe(np.zeros(k, dtype=int), tx_ue, tx_subch, power, x,
                               GEO.lane_y(lanes), model, rng_stream(seed, "shadow"), GEO, n_subch,
                               table, rng_stream(seed, "fading"), 1)
        decoded = res.outcome == Outcome.DECODED
        for c in range(n_subch):
            assert decoded[tx_subch == c].sum(axis=0).max(initial=0) <= 1


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_batch_matches_subframe_by_subframe(data):
    """One call over a batch of subframes gives, bit for bit, the arrays of
    resolving each subframe on its own, and leaves the shadowing and fading
    streams where those calls leave them.  Subframes and subchannels may be
    empty, a UE may send in several subframes, and the rows of a subframe,
    ordered by subchannel, come in any UE order within one.  The road is
    straight or a ring."""
    geo = data.draw(st.sampled_from([GEO, RING]))
    n_ue = data.draw(st.integers(1, 8))
    n_subch = data.draw(st.integers(1, 3))
    n_sf = data.draw(st.integers(1, 6))
    x = np.array(data.draw(st.lists(st.floats(0.0, 400.0), min_size=n_ue, max_size=n_ue)))
    y = geo.lane_y(np.array(data.draw(st.lists(st.integers(0, 3), min_size=n_ue,
                                               max_size=n_ue))))
    subframes = []          # per subframe: (UE, subchannel, power) arrays
    for _ in range(n_sf):
        ues = data.draw(st.permutations(range(n_ue)))[:data.draw(st.integers(0, n_ue))]
        subch = data.draw(st.lists(st.integers(0, n_subch - 1), min_size=len(ues),
                                   max_size=len(ues)))
        power = data.draw(st.lists(st.sampled_from([10.0, 23.0]) | st.floats(-10.0, 30.0),
                                   min_size=len(ues), max_size=len(ues)))
        by_subch = np.argsort(subch, kind="stable")
        subframes.append((np.array(ues, dtype=int)[by_subch],
                          np.array(subch, dtype=int)[by_subch], np.array(power)[by_subch]))
    sigma = data.draw(st.sampled_from([0.0, 3.0]))
    model = ChannelModel(shadowing_sigma_db=sigma,
                         shadowing_mode=data.draw(st.sampled_from(["iid", "static"])),
                         fading=data.draw(st.sampled_from(["none", "nakagami"])),
                         sinr_threshold_db=data.draw(st.sampled_from([0.0, 2.5])))
    seed = data.draw(st.integers(0, 2 ** 16))
    table = rng_stream(seed, "shadow-static").normal(0.0, sigma, size=(n_ue, n_ue))

    streams = [(rng_stream(seed, "shadow"), rng_stream(seed, "fading")) for _ in range(2)]
    tx_sf = np.repeat(np.arange(n_sf), [len(ues) for ues, _, _ in subframes])
    tx_ue, tx_subch, power = (np.concatenate(col) for col in zip(*subframes))
    batch = resolve_subframe(tx_sf, tx_ue, tx_subch, power, x, y, model, streams[0][0], geo,
                             n_subch, table, streams[0][1], n_sf)
    each = [oracles.resolve_subframe(ues, subch, p, x, y, model, streams[1][0], geo, n_subch,
                                     table, streams[1][1]) for ues, subch, p in subframes]

    for name in ("rx_power_dbm", "outcome", "distance_m", "srssi_mw", "is_transmitting"):
        # joined along the subframe axis; the S-RSSI is UE-major
        want = np.concatenate([getattr(res, name) for res in each],
                              axis=1 if name == "srssi_mw" else 0)
        got = getattr(batch, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    (shadow_a, fading_a), (shadow_b, fading_b) = streams
    assert shadow_a.random() == shadow_b.random()
    assert fading_a.random() == fading_b.random()


def test_rows_out_of_subframe_subchannel_order_rejected():
    # each (subframe, subchannel) group must be one run of rows, the runs in
    # (subframe, subchannel) order; UE order within a run is free
    x, y = np.array([0.0, 50.0, 100.0]), GEO.lane_y(np.zeros(3, dtype=int))

    def resolve_rows(tx_sf, tx_ue, tx_subch):
        return resolve_subframe(np.array(tx_sf), np.array(tx_ue), np.array(tx_subch),
                                np.full(len(tx_ue), 23.0), x, y, clean_model(),
                                rng_stream(1, "shadow"), GEO, 2, None, rng_stream(1, "fading"), 2)

    for tx_sf, tx_subch in (([0, 0], [1, 0]), ([1, 0], [0, 0]), ([0, 1, 0], [0, 0, 1])):
        with pytest.raises(ValueError, match=r"ordered by \(subframe, subchannel\)"):
            resolve_rows(tx_sf, list(range(len(tx_sf))), tx_subch)
    res = resolve_rows([0, 0, 1], [2, 0, 1], [0, 0, 1])
    assert res.outcome[0, 0] == res.outcome[1, 2] == Outcome.HALF_DUPLEX_BLOCKED


def test_model_validation():
    with pytest.raises(ValueError):
        ChannelModel(d0_m=0.0)
    with pytest.raises(ValueError):
        ChannelModel(shadowing_sigma_db=-1.0)
    with pytest.raises(ValueError):
        ChannelModel(sensitivity_dbm=-120.0, noise_floor_dbm=-98.0)
    with pytest.raises(ValueError):
        ChannelModel(fading="rician")
    with pytest.raises(ValueError, match="one decode per"):
        ChannelModel(sinr_threshold_db=-0.5)
    assert ChannelModel(sinr_threshold_db=0.0).sinr_threshold_db == 0.0
