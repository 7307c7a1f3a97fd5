"""Deterministic C-V2X Mode-4 sidelink simulator: sensing-based
semi-persistent scheduling plus distributed rate and range congestion
control, evaluated with distance-binned delivery, gap, and throughput
metrics."""

__version__ = "0.1.0"

from .channel import ChannelModel, Outcome
from .core import RngPool, RoadGeometry, dbm_to_mw, rng_stream
from .dcc import RangeControlConfig, RateControlConfig, SCHEMES
from .engine import RunConfig, RunResult, Simulation, run
from .mac_sps import CrConfig, SensingStore, SensingWindow, SpsConfig
from .metrics import MetricsConfig
from .mobility import PRESETS, Fleet, ScenarioConfig

__all__ = [
    "ChannelModel", "CrConfig", "Fleet", "MetricsConfig", "Outcome", "PRESETS",
    "RangeControlConfig", "RateControlConfig", "RngPool", "RoadGeometry", "RunConfig",
    "RunResult", "SCHEMES", "ScenarioConfig", "SensingStore", "SensingWindow", "Simulation",
    "SpsConfig", "dbm_to_mw", "rng_stream", "run", "__version__",
]
