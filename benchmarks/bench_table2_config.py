"""Table II — simulation parameters.

Not a results table: this bench verifies and prints that the platform
the harness builds matches Table II, and times platform construction
(a real cost when sweeping many configurations).
"""

from repro.baselines import crc_policy
from repro.noc.packet import PACKET_FLITS
from repro.noc.routing import xy_route
from repro.sim import Simulator, paper_config


def build_platform():
    config = paper_config()
    return Simulator(config, crc_policy(), seed=0)


def test_table2_platform(benchmark):
    sim = benchmark.pedantic(build_platform, rounds=1, iterations=1)
    config = sim.config
    network = sim.network
    router = network.routers[0]
    # The injector runs every die at the VARIUS model's nominal supply.
    assert sim.injector.voltage is None
    voltage = sim.varius.params.v_nominal
    clock_hz = sim.power_model.params.clock_hz
    print("\n=== Table II: simulation parameters ===")
    rows = [
        ("# of cores", 64, config.num_nodes),
        ("NoC topology", "8x8 2D mesh", f"{config.width}x{config.height} 2D mesh"),
        ("Routing", "X-Y", "X-Y" if router.routing_fn is xy_route else router.routing_fn),
        ("VCs per port", 4, router.num_vcs),
        ("Packet size", "128 bits/flit, 4 flits", f"{network.flit_bits} bits/flit, {PACKET_FLITS} flits"),
        ("Voltage", "1.0 V", f"{voltage} V"),
        ("Frequency", "2.0 GHz", f"{clock_hz/1e9} GHz"),
        ("RL epoch", "1K cycles", f"{config.epoch_cycles} cycles"),
    ]
    for name, paper, ours in rows:
        print(f"  {name:18s} paper: {paper!s:24s} harness: {ours}")
    assert config.num_nodes == 64
    assert all(r.routing_fn is xy_route for r in network.routers)
    assert all(r.num_vcs == 4 for r in network.routers)
    assert sim.state_config.num_vcs == 4
    assert network.flit_bits == 128
    assert PACKET_FLITS == 4
    assert clock_hz == 2.0e9
    assert voltage == 1.0
    assert config.epoch_cycles == 1000
    assert len(network.routers) == 64
    assert len(network.channels) == 2 * 7 * 8 * 2  # 224 directed links
    # Five-port routers: interior routers have all four direction links.
    interior = network.routers[9 + 8]  # (1, 2) is interior on 8x8
    assert len(interior.outputs) == 4
