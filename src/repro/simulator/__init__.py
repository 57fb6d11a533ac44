"""LogGOPS discrete-event simulation, latency injection and noise models."""

from .columnar import (
    GridSimulationResult,
    SweepSimulationResult,
    simulate_level,
    simulate_sweep,
    simulate_sweep_grid,
)
from .injector import (
    INJECTOR_NAMES,
    DelayThreadInjector,
    IdealInjector,
    LatencyInjector,
    ReceiverProgressInjector,
    SenderDelayInjector,
    TwoMessageOutcome,
    make_injector,
    two_message_model,
)
from .loggops import (
    LogGOPSSimulator,
    SimulationResult,
    simulate,
)
from .noise import GaussianNoise, NoiseModel, NoNoise, OSJitterNoise

__all__ = [
    "LogGOPSSimulator",
    "SimulationResult",
    "GridSimulationResult",
    "SweepSimulationResult",
    "simulate",
    "simulate_level",
    "simulate_sweep",
    "simulate_sweep_grid",
    "LatencyInjector",
    "IdealInjector",
    "SenderDelayInjector",
    "ReceiverProgressInjector",
    "DelayThreadInjector",
    "make_injector",
    "INJECTOR_NAMES",
    "TwoMessageOutcome",
    "two_message_model",
    "NoiseModel",
    "NoNoise",
    "GaussianNoise",
    "OSJitterNoise",
]
