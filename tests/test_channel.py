import numpy as np
import pytest

from cv2xsim.channel import (ChannelModel, Outcome, ReceiverSet, Transmission, pathloss,
                             resolve_subframe)
from cv2xsim.core import Csr, Position, RngStream, RoadGeometry

GEO = RoadGeometry(length_m=10_000.0, lanes=12, lane_width_m=4.0)


def clean_model(**kw):
    defaults = dict(shadowing_sigma_db=0.0, fading="none")
    defaults.update(kw)
    return ChannelModel(**defaults)


def single_slope(**kw):
    return clean_model(breakpoint_m=None, **kw)


def rx_set(entries):
    """Receivers from (ue, Position) pairs."""
    return ReceiverSet(np.array([ue for ue, _ in entries], dtype=int),
                       np.array([p.x for _, p in entries]),
                       np.array([p.y(GEO) for _, p in entries]))


def links_to(res, rx_ue):
    """{transmitter: (outcome, rx_power_dbm, sinr_db)} for every other UE's
    transmission toward receiver rx_ue."""
    r = int(np.flatnonzero(res.receivers.ids == rx_ue)[0])
    return {tx.ue: (int(res.outcome[t, r]), float(res.rx_power_dbm[t, r]),
                    float(res.sinr_db[t, r]))
            for t, tx in enumerate(res.transmissions) if tx.ue != rx_ue}


def tx(ue, subframe, subch, power, x, lane=0, period=100):
    return Transmission(ue, Csr(subframe, subch), power, Position(x, lane), period)


class TestPathloss:
    def test_reference_point(self):
        m = single_slope(d0_m=10.0, pl0_db=67.8)
        assert pathloss(10.0, m) == pytest.approx(67.8)

    def test_exponent_two_doubling(self):
        m = single_slope(d0_m=10.0, pl0_db=67.8, exponent=2.0)
        # 10 * 2 * log10(2), evaluated independently
        assert pathloss(20.0, m) - pathloss(10.0, m) == pytest.approx(6.0206, abs=1e-3)

    def test_clamped_below_reference(self):
        m = single_slope(d0_m=10.0, pl0_db=67.8)
        assert pathloss(5.0, m) == pytest.approx(67.8)
        assert pathloss(0.0, m) == pytest.approx(67.8)

    def test_dual_slope_continuous_at_breakpoint(self):
        m = clean_model(breakpoint_m=150.0, exponent=2.0, exponent_beyond=3.8)
        just_below = pathloss(150.0 - 1e-9, m)
        just_above = pathloss(150.0 + 1e-9, m)
        assert just_above == pytest.approx(just_below, abs=1e-6)

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
        receivers = rx_set([(1, Position(10.0, 0))])
        res = resolve_subframe([tx(0, 5, 0, 23.0, 0.0)], receivers, m,
                               RngStream(1, "shadow"), GEO)
        assert res.rx_power_dbm[0, 0] == pytest.approx(-77.0)
        static = single_slope(d0_m=10.0, pl0_db=100.0, shadowing_sigma_db=1.0,
                              shadowing_mode="static")
        res = resolve_subframe([tx(0, 5, 0, 23.0, 0.0)], receivers, static,
                               RngStream(1, "shadow"), GEO, static_shadow=np.full((2, 2), 3.0))
        assert res.rx_power_dbm[0, 0] == pytest.approx(-80.0)
        assert res.shadow_db[0, 0] == 3.0

    def test_shadowing_distribution_zero_mean(self):
        sigma = 3.0
        draws = RngStream(5, "shadow").normal(0.0, sigma, size=100_000)
        assert abs(draws.mean()) < 0.1
        assert draws.std() == pytest.approx(sigma, rel=0.02)

    def test_monotone_in_distance_without_noise_terms(self):
        m = clean_model()
        d = np.linspace(1.0, 2000.0, 500)
        receivers = rx_set([(i + 1, Position(float(x), 0)) for i, x in enumerate(d)])
        res = resolve_subframe([tx(0, 5, 0, 23.0, 0.0)], receivers, m,
                               RngStream(1, "shadow"), GEO)
        assert np.all(np.diff(res.rx_power_dbm[0]) <= 0)


class TestResolveSubframe:
    def test_isolated_link_decodes(self):
        m = clean_model()
        res = resolve_subframe([tx(0, 5, 0, 23.0, 0.0)],
                               rx_set([(0, Position(0.0, 0)), (1, Position(50.0, 0))]),
                               m, RngStream(1, "shadow"), GEO)
        [(outcome, rx_power_dbm, sinr_db)] = links_to(res, 1).values()
        assert outcome == Outcome.DECODED
        # SINR equals SNR exactly when nobody else transmits
        snr_db = rx_power_dbm - m.noise_floor_dbm
        assert sinr_db == pytest.approx(snr_db, abs=1e-9)

    def test_half_duplex_blocks_own_subframe(self):
        m = clean_model()
        res = resolve_subframe(
            [tx(0, 5, 0, 23.0, 0.0), tx(1, 5, 1, 23.0, 50.0)],
            rx_set([(0, Position(0.0, 0)), (1, Position(50.0, 0)), (2, Position(100.0, 0))]),
            m, RngStream(1, "shadow"), GEO)
        assert [o for o, _, _ in links_to(res, 1).values()] == [Outcome.HALF_DUPLEX_BLOCKED]
        assert [o for o, _, _ in links_to(res, 2).values()] == [Outcome.DECODED] * 2

    def test_equidistant_equal_power_collision(self):
        # signal == interference gives SINR below 1 before noise
        m = clean_model(sinr_threshold_db=2.5)
        res = resolve_subframe(
            [tx(0, 5, 0, 23.0, 0.0), tx(1, 5, 0, 23.0, 200.0)],
            rx_set([(0, Position(0.0, 0)), (1, Position(200.0, 0)), (2, Position(100.0, 0))]),
            m, RngStream(1, "shadow"), GEO)
        out = {ue: o for ue, (o, _, _) in links_to(res, 2).items()}
        assert out == {0: Outcome.COLLIDED, 1: Outcome.COLLIDED}

    def test_below_sensitivity(self):
        m = clean_model(sensitivity_dbm=-92.0)
        res = resolve_subframe([tx(0, 5, 0, 23.0, 0.0)],
                               rx_set([(0, Position(0.0, 0)), (1, Position(5000.0, 0))]),
                               m, RngStream(1, "shadow"), GEO)
        assert links_to(res, 1)[0][0] == Outcome.BELOW_SENSITIVITY

    def test_rejects_mixed_subframes(self):
        with pytest.raises(ValueError):
            resolve_subframe([tx(0, 5, 0, 23.0, 0.0), tx(1, 6, 0, 23.0, 100.0)],
                             rx_set([(2, Position(50.0, 0))]),
                             clean_model(), RngStream(1, "shadow"), GEO)

    def test_interferer_never_rescues_a_link(self):
        m = clean_model()
        receivers = rx_set([(9, Position(300.0, 0))])
        base = resolve_subframe([tx(0, 5, 0, 23.0, 0.0), tx(1, 5, 0, 23.0, 500.0)],
                                receivers, m, RngStream(1, "shadow"), GEO)
        more = resolve_subframe([tx(0, 5, 0, 23.0, 0.0), tx(1, 5, 0, 23.0, 500.0),
                                 tx(2, 5, 0, 23.0, 400.0)],
                                receivers, m, RngStream(1, "shadow"), GEO)
        if base.outcome[0, 0] == Outcome.COLLIDED:
            assert more.outcome[0, 0] in (Outcome.COLLIDED, Outcome.BELOW_SENSITIVITY)
        assert more.sinr_db[0, 0] <= base.sinr_db[0, 0] + 1e-9

    def test_srssi_superset_property(self):
        m = clean_model()
        receivers = rx_set([(9, Position(123.0, 2))])
        txs = [tx(0, 5, 0, 23.0, 0.0), tx(1, 5, 0, 20.0, 400.0), tx(2, 5, 0, 17.0, 800.0)]
        full = resolve_subframe(txs, receivers, m, RngStream(1, "shadow"), GEO)
        for k in range(1, len(txs)):
            part = resolve_subframe(txs[:k], receivers, m, RngStream(1, "shadow"), GEO)
            assert part.srssi_mw[0, 0] <= full.srssi_mw[0, 0] + 1e-18

    def test_measurement_rsrp_below_total(self):
        m = ChannelModel(shadowing_sigma_db=3.0)
        rng = RngStream(3, "shadow")
        receivers = rx_set([(9, Position(150.0, 4))])
        txs = [tx(0, 5, 0, 23.0, 0.0), tx(1, 5, 0, 23.0, 300.0), tx(2, 5, 1, 23.0, 100.0)]
        res = resolve_subframe(txs, receivers, m, rng, GEO)
        for t, sent in enumerate(txs):
            if res.outcome[t, 0] == Outcome.DECODED:
                srssi_dbm = 10.0 * np.log10(res.srssi_mw[0, sent.csr.subchannel])
                assert res.rx_power_dbm[t, 0] <= srssi_dbm + 0.5

    def test_empty_subframe_is_noise_only(self):
        m = clean_model()
        res = resolve_subframe([], rx_set([(0, Position(0.0, 0))]), m,
                               RngStream(1, "shadow"), GEO)
        assert res.srssi_mw[0, 0] == pytest.approx(m.noise_mw)
        assert 10.0 * np.log10(res.srssi_mw[0, 0]) == pytest.approx(m.noise_floor_dbm)

    def test_nakagami_fading_draws_do_not_shift_shadowing(self):
        base = ChannelModel(shadowing_sigma_db=3.0, fading="none")
        faded = ChannelModel(shadowing_sigma_db=3.0, fading="nakagami", nakagami_m=3.0)
        receivers = rx_set([(5, Position(100.0, 0)), (6, Position(200.0, 0))])
        txs = [tx(0, 1, 0, 23.0, 0.0), tx(1, 1, 1, 23.0, 50.0)]
        a = resolve_subframe(txs, receivers, base, RngStream(2, "shadow"), GEO,
                             fading_rng=RngStream(2, "fading"))
        b = resolve_subframe(txs, receivers, faded, RngStream(2, "shadow"), GEO,
                             fading_rng=RngStream(2, "fading"))
        assert np.allclose(a.shadow_db, b.shadow_db)


def test_model_validation():
    with pytest.raises(ValueError):
        ChannelModel(d0_m=0.0)
    with pytest.raises(ValueError):
        ChannelModel(shadowing_sigma_db=-1.0)
    with pytest.raises(ValueError):
        ChannelModel(sensitivity_dbm=-120.0, noise_floor_dbm=-98.0)
    with pytest.raises(ValueError):
        ChannelModel(fading="rician")
