"""Deterministic discrete-event simulation substrate.

This subpackage replaces the distributed testbeds behind the systems
the tutorial surveys: a seeded event loop (:class:`Simulator`), a lossy
partitionable network (:class:`Network`), generator-based client
processes (:func:`spawn`), and named WAN topologies
(:mod:`repro.sim.topology`).
"""

from .core import Simulator
from .events import Event, EventQueue
from .network import (
    ExponentialLatency,
    FixedLatency,
    LatencyModel,
    LinkFault,
    LogNormalLatency,
    MatrixLatency,
    Network,
    NetworkStats,
    estimate_size,
)
from .node import Node
from .process import Future, Process, all_of, spawn
from .trace import (
    NULL_TRACER,
    HashingTracer,
    NullTracer,
    TraceEvent,
    Tracer,
    metrics_digest,
)
from .topology import THREE_CONTINENTS, Topology, symmetric_delays

__all__ = [
    "Simulator",
    "Event",
    "EventQueue",
    "Network",
    "NetworkStats",
    "LinkFault",
    "LatencyModel",
    "FixedLatency",
    "ExponentialLatency",
    "LogNormalLatency",
    "MatrixLatency",
    "estimate_size",
    "Node",
    "Future",
    "Process",
    "spawn",
    "all_of",
    "Tracer",
    "HashingTracer",
    "metrics_digest",
    "NullTracer",
    "NULL_TRACER",
    "TraceEvent",
    "Topology",
    "THREE_CONTINENTS",
    "symmetric_delays",
]
