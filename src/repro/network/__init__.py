"""Mesh multicomputer substrate (the PP-MESS-SIM role in the paper).

:class:`MeshNetwork` wires real-time routers into a 2-D mesh (or a
torus — a 1x1 torus is the paper's single-chip loopback) and runs them
cycle by cycle; the stats classes collect the measurements the
evaluation section reports.
"""

from repro.network.engine import SynchronousEngine
from repro.network.network import MeshNetwork, build_mesh_network
from repro.network.node import HostNode
from repro.network.single_link import LinkConnection, SingleLinkHarness
from repro.network.stats import (
    DeliveryLog,
    DeliveryRecord,
    LatencySummary,
    ServiceTrace,
)
from repro.network.topology import Mesh, reverse_direction

__all__ = [
    "DeliveryLog",
    "DeliveryRecord",
    "HostNode",
    "LatencySummary",
    "LinkConnection",
    "Mesh",
    "MeshNetwork",
    "ServiceTrace",
    "SingleLinkHarness",
    "SynchronousEngine",
    "build_mesh_network",
    "reverse_direction",
]
