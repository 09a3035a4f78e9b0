"""Deterministic discrete-event simulation substrate.

This package stands in for the physical testbeds used in the paper (a
Gigabit LAN cluster of Dell R410 servers and Amazon EC2 instances in
five regions).  It provides:

- :mod:`repro.sim.core` -- the event loop, timers and lightweight
  generator-based processes;
- :mod:`repro.sim.network` -- a message-passing network with per-link
  latency, NIC bandwidth with egress queueing, partitions and loss;
- :mod:`repro.sim.cpu` -- a processor-sharing multicore CPU model with
  hyper-threading, plus thread pools;
- :mod:`repro.sim.monitor` -- counters, gauges, latency recorders and
  throughput meters, and the one hierarchical registry that names
  them (``StatsRegistry`` is its earlier name);
- :mod:`repro.sim.randomness` -- named, seeded random streams so every
  experiment is reproducible bit-for-bit;
- :mod:`repro.sim.storage` -- simulated stable storage for the WALs.

The message log lives on the observability hub: an
``Observability(messages=True)`` records one instant per send
(:mod:`repro.obs.observability`).
"""

from repro.sim.core import EventHandle, Future, Process, Simulator
from repro.sim.cpu import CPU, ThreadPool
from repro.sim.monitor import (
    Counter,
    Gauge,
    LatencyRecorder,
    MetricsRegistry,
    StatsRegistry,
    ThroughputMeter,
)
from repro.sim.network import (
    NIC,
    ConstantLatency,
    Intercept,
    LatencyModel,
    MatrixLatency,
    Network,
)
from repro.sim.randomness import RandomStreams
from repro.sim.storage import (
    ScanResult,
    SimDisk,
    StorageFaults,
    frame_record,
    scan_records,
)

__all__ = [
    "CPU",
    "ConstantLatency",
    "Counter",
    "EventHandle",
    "Future",
    "Gauge",
    "Intercept",
    "LatencyModel",
    "LatencyRecorder",
    "MatrixLatency",
    "MetricsRegistry",
    "NIC",
    "Network",
    "Process",
    "RandomStreams",
    "ScanResult",
    "SimDisk",
    "Simulator",
    "StatsRegistry",
    "StorageFaults",
    "ThreadPool",
    "ThroughputMeter",
    "frame_record",
    "scan_records",
]
