"""repro — reproduction of "High-performance, Energy-efficient,
Fault-tolerant Network-on-Chip Design Using Reinforcement Learning"
(Wang, Louri, Karanth, Bunescu — DATE 2019).

Public API tour
---------------
The quickest route is the simulation harness::

    from repro import scaled_config, RLControlPolicy, Simulator
    from repro.sim import synthesize_benchmark_trace

    config = scaled_config(width=4, height=4)
    sim = Simulator(config, RLControlPolicy(share_table=True))
    sim.pretrain()
    trace = synthesize_benchmark_trace("ferret", config, cycles=5_000)
    result = sim.measure_trace(trace, "ferret")
    print(result.mean_latency, result.energy_efficiency)

Subpackages
-----------
``repro.core``
    The paper's contribution: the four fault-tolerant operation modes
    and the per-router Q-learning control policy.
``repro.noc``
    Cycle-level mesh NoC: 4-stage VC routers, credit flow control,
    ARQ/ECC links, pre-retransmission, timing-relaxed transfers.
``repro.coding``
    Real CRC and SECDED Hamming codes plus the ARQ window protocol.
``repro.faults``
    VARIUS-style timing-error model, HotSpot-style RC thermal grid,
    and the per-epoch channel fault injector.
``repro.power``
    ORION-style energy model and the 32 nm area model, calibrated to
    the paper's published anchors.
``repro.traffic``
    Synthetic patterns, trace files, and PARSEC-like trace synthesis.
``repro.baselines``
    Static CRC / ARQ+ECC policies and the decision-tree comparison
    point (with a from-scratch CART implementation).
``repro.sim``
    Config, the integrated closed-loop simulator, and the experiment
    runner that regenerates every figure of the paper.
"""

from repro.core import (
    ControlPolicy,
    OperationMode,
    QLearningAgent,
    RLControlPolicy,
    RouterObservation,
    compute_reward,
    observe_router,
)
from repro.noc import MeshTopology, Network, Packet
from repro.sim import (
    RunResult,
    SimulationConfig,
    Simulator,
    paper_config,
    scaled_config,
)

__version__ = "1.0.0"

__all__ = [
    "ControlPolicy",
    "OperationMode",
    "QLearningAgent",
    "RLControlPolicy",
    "RouterObservation",
    "compute_reward",
    "observe_router",
    "MeshTopology",
    "Network",
    "Packet",
    "RunResult",
    "SimulationConfig",
    "Simulator",
    "paper_config",
    "scaled_config",
    "__version__",
]
