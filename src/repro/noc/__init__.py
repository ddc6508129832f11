"""Cycle-level NoC substrate: topology, routers, channels, interfaces.

This package is the reproduction's stand-in for Booksim2 — a from-scratch
cycle-level simulator of the paper's platform: an 8x8 2D mesh of 4-stage
virtual-channel routers with XY routing, credit-based flow control, and
the fault-tolerant extensions of the proposed design (per-hop ARQ+ECC
links, flit pre-retransmission, timing-relaxed transfers).
"""

from repro.noc.arbiters import RoundRobinArbiter
from repro.noc.buffers import InputPort, VCState, VirtualChannel
from repro.noc.channel import Channel, ChannelErrorModel, Transmission
from repro.noc.faultstate import FaultState
from repro.noc.interface import NetworkInterface
from repro.noc.network import Network
from repro.noc.packet import Flit, Packet
from repro.noc.router import Router
from repro.noc.routing import (
    ROUTING_FUNCTIONS,
    AdaptiveRoute,
    xy_route,
)
from repro.noc.stats import LatencyAccumulator, NetworkStats, RouterEpochStats
from repro.noc.topology import ChannelSpec, MeshTopology, Port
from repro.noc.watchdog import (
    ConservationError,
    DeadlockError,
    LivelockError,
    NetworkWatchdog,
    NoCInvariantError,
)

__all__ = [
    "FaultState",
    "ROUTING_FUNCTIONS",
    "AdaptiveRoute",
    "ConservationError",
    "DeadlockError",
    "LivelockError",
    "NetworkWatchdog",
    "NoCInvariantError",
    "RoundRobinArbiter",
    "InputPort",
    "VCState",
    "VirtualChannel",
    "Channel",
    "ChannelErrorModel",
    "Transmission",
    "NetworkInterface",
    "Network",
    "Flit",
    "Packet",
    "Router",
    "xy_route",
    "LatencyAccumulator",
    "NetworkStats",
    "RouterEpochStats",
    "ChannelSpec",
    "MeshTopology",
    "Port",
]
