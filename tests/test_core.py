import math
import random

import numpy as np
import pytest

from cv2xsim.core import RngPool, RngStream, RoadGeometry, dbm_to_mw


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
    a = RngStream(7, "sps", 3)
    b = RngStream(7, "sps", 3)
    assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]
    assert [a.randint(5, 15) for _ in range(50)] == [b.randint(5, 15) for _ in range(50)]


def test_rng_streams_distinct_by_id():
    base = [RngStream(7, "sps", 1).random() for _ in range(8)]
    assert base != [RngStream(7, "sps", 2).random() for _ in range(8)]
    assert base != [RngStream(7, "shadow", 1).random() for _ in range(8)]
    assert base != [RngStream(8, "sps", 1).random() for _ in range(8)]


def test_rng_stream_independence():
    # consuming one stream never perturbs another
    pool = RngPool(11)
    solo = RngStream(11, "slrrc", 4)
    _ = [pool.stream("fading").random() for _ in range(100)]
    from_pool = [pool.stream("slrrc", 4).random() for _ in range(10)]
    assert from_pool == [solo.random() for _ in range(10)]


def test_rng_bounds():
    s = RngStream(1, "t")
    draws = [s.randint(5, 15) for _ in range(2000)]
    assert min(draws) == 5 and max(draws) == 15
    u = s.uniform_array(2.0, 3.0, size=100)
    assert np.all((2.0 <= u) & (u < 3.0))


def test_rng_pool_caches_streams():
    pool = RngPool(3)
    assert pool.stream("a", 1) is pool.stream("a", 1)
    assert pool.stream("a", 1) is not pool.stream("a", 2)
