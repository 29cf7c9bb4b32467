"""Fault injection, detection and automatic recovery.

The subsystem has four layers (see ``docs/fault_tolerance.md``):

* :mod:`repro.faults.plan` / :mod:`repro.faults.injector` — seeded,
  reproducible fault schedules and the engine component that executes
  them (link cuts, flaps, corruption, packet drops, babbling sources).
* :mod:`repro.faults.watchdog` — link-death detection from missed
  line-level acknowledgements.
* :mod:`repro.faults.recovery` — automatic rerouting (unicast and
  multicast), retransmission until confirmed with exponential backoff,
  best-effort drain-and-retry, and graceful degradation.
* :mod:`repro.faults.harness` — the seeded chaos soak used by tests,
  ``scripts/chaos_soak.py`` and the ``chaos`` CLI subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.harness import ChaosConfig, ChaosReport, run_chaos_soak
from repro.faults.injector import (
    BABBLE_LABEL,
    BitFlipCorruptor,
    FaultInjector,
    PacketDropCorruptor,
)
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.recovery import RecoveryController
from repro.faults.watchdog import LinkWatchdog

__all__ = [
    "BABBLE_LABEL",
    "BitFlipCorruptor",
    "ChaosConfig",
    "ChaosReport",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultTolerance",
    "LinkWatchdog",
    "PacketDropCorruptor",
    "RecoveryController",
    "install_fault_tolerance",
    "run_chaos_soak",
]


@dataclass
class FaultTolerance:
    """The installed detection + recovery pair for one network."""

    watchdog: LinkWatchdog
    controller: RecoveryController

    def detach(self) -> None:
        self.controller.detach()
        self.watchdog.detach()


def install_fault_tolerance(network) -> FaultTolerance:
    """Wire watchdog + recovery controller into a network's engine.

    Also switches the routers to *drop and count* packets whose
    connection was torn down mid-flight (the inevitable consequence of
    rerouting around a failure) instead of treating them as protocol
    errors.
    """
    for router in network.routers.values():
        router.drop_unroutable = True
    watchdog = LinkWatchdog(network)
    controller = RecoveryController(network)
    network.engine.add_component(watchdog)
    network.engine.add_component(controller)
    return FaultTolerance(watchdog=watchdog, controller=controller)
