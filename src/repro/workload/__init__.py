"""Workload generators: YCSB mixes, carts, bank ops, key distributions —
plus the protocol-agnostic closed-loop driver and the open-loop traffic
engine that run them against any :mod:`repro.api` store."""

from .bank import BankOp, BankWorkload, DebitOp, DebitWorkload
from .cart import CartOp, CartWorkload
from .driver import DriverResult, LaneStats, WorkloadDriver, run_workload
from .keyspace import LatestKeys, UniformKeys, ZipfianKeys
from .openloop import (
    DiurnalArrivals,
    FlashCrowdArrivals,
    OpenLoopDriver,
    OpenLoopResult,
    PoissonArrivals,
)
from .ycsb import PRESETS, MixSpec, OpSpec, YCSBWorkload

__all__ = [
    "UniformKeys",
    "ZipfianKeys",
    "LatestKeys",
    "YCSBWorkload",
    "MixSpec",
    "OpSpec",
    "PRESETS",
    "CartWorkload",
    "CartOp",
    "BankWorkload",
    "BankOp",
    "DebitWorkload",
    "DebitOp",
    "WorkloadDriver",
    "DriverResult",
    "LaneStats",
    "run_workload",
    "PoissonArrivals",
    "DiurnalArrivals",
    "FlashCrowdArrivals",
    "OpenLoopDriver",
    "OpenLoopResult",
]
