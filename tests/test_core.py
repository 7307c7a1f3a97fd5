import math
import random

import numpy as np
import pytest

import cv2xsim
from cv2xsim.core import RngPool, RoadGeometry, dbm_to_mw, rng_stream
from cv2xsim.mac_sps import SpsConfig, draw_counter


def test_dbm_to_mw_definition():
    assert dbm_to_mw(0.0) == pytest.approx(1.0)
    assert dbm_to_mw(10.0) == pytest.approx(10.0)
    # 10^2.3 evaluated independently
    assert dbm_to_mw(23.0) == pytest.approx(199.526, abs=1e-3)


def test_power_roundtrip_across_range():
    rnd = random.Random(42)
    for _ in range(2000):
        p = rnd.uniform(-120.0, 40.0)
        back = 10.0 * math.log10(dbm_to_mw(p))
        assert back == pytest.approx(p, rel=1e-9, abs=1e-9)


def test_wraparound_distance():
    ring = RoadGeometry(length_m=1200.0, lanes=2, lane_width_m=4.0, wraparound=True)
    assert ring.dx(10.0, 1190.0) == pytest.approx(20.0)
    flat = RoadGeometry(length_m=1200.0, lanes=2, lane_width_m=4.0, wraparound=False)
    assert flat.dx(10.0, 1190.0) == pytest.approx(1180.0)


def test_rng_stream_reproducible():
    a = rng_stream(7, "sps", 3)
    b = rng_stream(7, "sps", 3)
    assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]
    assert [a.integers(5, 16) for _ in range(50)] == [b.integers(5, 16) for _ in range(50)]


def test_rng_streams_distinct_by_id():
    base = [rng_stream(7, "sps", 1).random() for _ in range(8)]
    assert base != [rng_stream(7, "sps", 2).random() for _ in range(8)]
    assert base != [rng_stream(7, "shadow", 1).random() for _ in range(8)]
    assert base != [rng_stream(8, "sps", 1).random() for _ in range(8)]


def test_rng_stream_independence():
    # consuming one stream never perturbs another
    pool = RngPool(11)
    solo = rng_stream(11, "slrrc", 4)
    _ = [pool.stream("fading").random() for _ in range(100)]
    from_pool = [pool.stream("slrrc", 4).random() for _ in range(10)]
    assert from_pool == [solo.random() for _ in range(10)]


def test_rng_bounds():
    s = rng_stream(1, "t")
    draws = [draw_counter(s, SpsConfig()) for _ in range(2000)]
    assert min(draws) == 5 and max(draws) == 15
    u = s.uniform(2.0, 3.0, size=100)
    assert np.all((2.0 <= u) & (u < 3.0))


def test_rng_pool_caches_streams():
    pool = RngPool(3)
    assert pool.stream("a", 1) is pool.stream("a", 1)
    assert pool.stream("a", 1) is not pool.stream("a", 2)


class TestFirstDraws:
    """The first draws of the stream keyed (1, "sps", UE 0), one test per
    method the simulator calls, so a change of Philox or of a Generator
    method fails here by name before it moves every golden digest."""

    def test_random(self):
        assert rng_stream(1, "sps", 0).random() == 0.03953336979815414

    def test_counter(self):
        rng = rng_stream(1, "sps", 0)
        assert [draw_counter(rng, SpsConfig()) for _ in range(3)] == [9, 5, 9]

    def test_normal(self):
        assert rng_stream(1, "sps", 0).normal(size=3).tolist() == \
            [0.39617503826887074, 1.033672971918549, 1.1750612988997977]

    def test_gamma(self):
        assert rng_stream(1, "sps", 0).gamma(3.0, 1 / 3, size=3).tolist() == \
            [1.1224487736198436, 1.6941962886935955, 1.6622950692681837]

    def test_uniform(self):
        assert rng_stream(1, "sps", 0).uniform(size=3).tolist() == \
            [0.03953336979815414, 0.6079299045749738, 0.35635692789327944]

    def test_choice_of_rows(self):
        rng = rng_stream(1, "sps", 0)
        rows = np.arange(10).reshape(5, 2)
        assert [rng.choice(rows).tolist() for _ in range(2)] == [[2, 3], [0, 1]]


def test_every_exported_name_resolves():
    for name in cv2xsim.__all__:
        assert getattr(cv2xsim, name) is not None, name
