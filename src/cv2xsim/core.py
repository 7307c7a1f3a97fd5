"""Shared domain types, unit conversions, and deterministic randomness."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# Subframe indices are plain ints: 1 ms ticks since simulation start, never negative.
# Powers are plain floats with the unit in the variable name (_dbm / _mw).
# dBm is the interface unit everywhere; mW appears only where powers are summed.


def dbm_to_mw(p_dbm):
    """10^(p/10). Accepts scalars or numpy arrays."""
    return 10.0 ** (p_dbm / 10.0)


@dataclass(frozen=True)
class RoadGeometry:
    """Straight multi-lane road; wraparound turns it into a ring for desk-scale runs."""

    length_m: float
    lanes: int
    lane_width_m: float
    wraparound: bool

    def lane_y(self, lane):
        """Lateral position of the centre of `lane` (scalar or array)."""
        return (lane + 0.5) * self.lane_width_m

    def dx(self, x1, x2):
        """Longitudinal separation; wraps around the ring when enabled."""
        d = np.abs(x1 - x2)
        if self.wraparound:
            d = np.minimum(d, self.length_m - d)
        return d

    def distance(self, x1, y1, x2, y2):
        """Euclidean distance between (x1, y1) and (x2, y2), elementwise; the
        longitudinal part wraps as `dx` does."""
        return np.hypot(self.dx(x1, x2), y1 - y2)

    def within(self, x, y, radius_m):
        """(n, n) mask of the pairs of the points (x, y) at most `radius_m` apart."""
        return self.distance(x[:, None], y[:, None], x[None, :], y[None, :]) <= radius_m

    def wrap_x(self, x):
        return x % self.length_m if self.wraparound else x


def _derive_key(seed: int, purpose: str, ue: int | None) -> np.ndarray:
    ident = f"{seed}/{purpose}/{'' if ue is None else ue}".encode()
    digest = hashlib.sha256(ident).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64).copy()


class RngStream:
    """Counter-based random stream keyed by (seed, purpose, ue id).

    Streams with distinct ids are statistically independent, so adding or
    removing draws in one subsystem never perturbs another.  The same
    (seed, purpose, ue) always reproduces the same sequence on any platform.
    """

    def __init__(self, seed: int, purpose: str, ue: int | None = None):
        self.seed = seed
        self.purpose = purpose
        self.ue = ue
        self._gen = np.random.Generator(np.random.Philox(key=_derive_key(seed, purpose, ue)))

    def random(self) -> float:
        return float(self._gen.random())

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer on [lo, hi], both ends inclusive."""
        return int(self._gen.integers(lo, hi + 1))

    def choice(self, seq):
        return seq[int(self._gen.integers(0, len(seq)))]

    def normal(self, mu: float = 0.0, sigma: float = 1.0, *, size) -> np.ndarray:
        return self._gen.normal(mu, sigma, size=size)

    def gamma(self, shape: float, scale: float, *, size) -> np.ndarray:
        return self._gen.gamma(shape, scale, size=size)

    def uniform_array(self, lo: float, hi: float, size) -> np.ndarray:
        return self._gen.uniform(lo, hi, size=size)


class RngPool:
    """Factory handing out cached per-(purpose, ue) streams for one run seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self._streams: dict[tuple[str, int | None], RngStream] = {}

    def stream(self, purpose: str, ue: int | None = None) -> RngStream:
        key = (purpose, ue)
        if key not in self._streams:
            self._streams[key] = RngStream(self.seed, purpose, ue)
        return self._streams[key]
