"""repro — reproduction of Rexford, Hall & Shin's real-time router (ISCA 1996).

A production-quality Python library that rebuilds the paper's system
end to end:

* :mod:`repro.core` — the single-chip real-time router: deadline-driven
  packet switching for time-constrained traffic, wormhole switching for
  best-effort traffic, a shared pipelined comparator-tree scheduler,
  shared packet memory, and the control interface.
* :mod:`repro.channels` — the real-time channel abstraction: traffic
  specifications, logical arrival times, admission control (the
  section 2 buffer and delay bounds and the section 4.3 rollover
  check), route selection and the protocol software that programs
  routers.
* :mod:`repro.network` — a 2-D mesh multicomputer simulator that wires
  routers together cycle by cycle.
* :mod:`repro.model` — a fast packet-slot-level simulator of the same
  link discipline for large parameter sweeps.
* :mod:`repro.traffic` — spatial patterns and recorded traffic traces.
* :mod:`repro.baselines` — comparison routers (FIFO, priority
  forwarding, virtual-channel priorities, software EDF cost model).
* :mod:`repro.extensions` — the paper's future-work directions
  (virtual cut-through, approximate schedulers, shared-leaf trees).

Quickstart::

    from repro import build_mesh_network, TrafficSpec

    net = build_mesh_network(4, 4)
    channel = net.establish_channel(
        source=(0, 0), destination=(3, 3),
        spec=TrafficSpec(i_min=40, s_max=18, b_max=1),
        deadline=400,
    )
    net.run(10_000)
"""

from repro.channels import (
    AdmissionError,
    ChannelManager,
    FlowRequirements,
    RealTimeChannel,
    TrafficSpec,
)
from repro.core import (
    BestEffortPacket,
    RealTimeRouter,
    RouterParams,
    TimeConstrainedPacket,
    estimate_cost,
)
from repro.network import MeshNetwork, build_mesh_network

__version__ = "1.0.0"

__all__ = [
    "AdmissionError",
    "BestEffortPacket",
    "ChannelManager",
    "FlowRequirements",
    "MeshNetwork",
    "RealTimeChannel",
    "RealTimeRouter",
    "RouterParams",
    "TimeConstrainedPacket",
    "TrafficSpec",
    "__version__",
    "build_mesh_network",
    "estimate_cost",
]
