"""Shared domain types, unit conversions, and deterministic randomness: every
draw comes from a NumPy Philox `Generator` keyed by (seed, purpose, UE id)."""

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
        """Euclidean distance between the arrays (x1, y1) and (x2, y2),
        elementwise, in a new array; the longitudinal part wraps as `dx`
        does.  The separation, its wrap and the distance share one buffer."""
        d = np.subtract(x1, x2)
        np.abs(d, out=d)
        if self.wraparound:
            np.minimum(d, self.length_m - d, out=d)
        return np.hypot(d, y1 - y2, out=d)

    def within(self, x, y, radius_m):
        """(n, n) mask of the pairs of the points (x, y) at most `radius_m` apart."""
        return self.distance(x[:, None], y[:, None], x[None, :], y[None, :]) <= radius_m

    def wrap_x(self, x):
        return x % self.length_m if self.wraparound else x


def _derive_key(seed: int, purpose: str, ue: int | None) -> np.ndarray:
    ident = f"{seed}/{purpose}/{'' if ue is None else ue}".encode()
    digest = hashlib.sha256(ident).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64).copy()


def rng_stream(seed: int, purpose: str, ue: int | None = None) -> np.random.Generator:
    """Counter-based Philox generator keyed by (seed, purpose, ue id).

    Streams with distinct ids are statistically independent, so adding or
    removing draws in one subsystem never perturbs another.  The same
    (seed, purpose, ue) always reproduces the same sequence on any platform.
    """
    return np.random.Generator(np.random.Philox(key=_derive_key(seed, purpose, ue)))


class RngPool:
    """Factory handing out cached per-(purpose, ue) generators for one run seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self._streams: dict[tuple[str, int | None], np.random.Generator] = {}

    def stream(self, purpose: str, ue: int | None = None) -> np.random.Generator:
        key = (purpose, ue)
        if key not in self._streams:
            self._streams[key] = rng_stream(self.seed, purpose, ue)
        return self._streams[key]
