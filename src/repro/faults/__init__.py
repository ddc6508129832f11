"""Fault substrate: process variation, thermal model, runtime injection.

Stand-ins for the paper's VARIUS (timing-error probability), HotSpot
(power -> temperature), and the Booksim error-injection modifications —
wired into the control loop by :mod:`repro.sim.simulator`.
"""

from repro.faults.hardfaults import (
    HardFaultEvent,
    HardFaultModel,
    parse_fault_spec,
)
from repro.faults.injector import FaultInjector
from repro.faults.sensors import (
    SensorFaultModel,
    SensorFaultRule,
    parse_sensor_spec,
)
from repro.faults.softerrors import (
    SoftErrorModel,
    SoftErrorRule,
    parse_soft_error_spec,
)
from repro.faults.thermal import ThermalGrid
from repro.faults.varius import VariusModel, VariusParams, gaussian_tail

__all__ = [
    "FaultInjector",
    "HardFaultEvent",
    "HardFaultModel",
    "SensorFaultModel",
    "SensorFaultRule",
    "SoftErrorModel",
    "SoftErrorRule",
    "ThermalGrid",
    "VariusModel",
    "VariusParams",
    "gaussian_tail",
    "parse_fault_spec",
    "parse_sensor_spec",
    "parse_soft_error_spec",
]
