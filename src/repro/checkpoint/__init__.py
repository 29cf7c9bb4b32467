"""Crash-consistent checkpoint/restore for long simulations.

The subsystem has three layers (see ``docs/checkpointing.md``):

* :mod:`repro.checkpoint.codec` — the ``state()`` / ``load_state()``
  serialisation helpers shared by every stateful component (packet
  metadata identity, phits, RNG streams).
* :mod:`repro.checkpoint.store` — atomic content-hashed checkpoint
  files (write-temp + fsync + rename): a reader sees a complete
  checkpoint or none, even under SIGKILL.
* :mod:`repro.checkpoint.sessions` — :class:`Session`, the one
  driver (run loop, ``state``/``restore``/``open``) with the
  byte-identical-resume guarantee, :class:`Execution`, the one record
  of how a run is executed (engine mode, invariant cadence, where and
  how often to checkpoint, what to resume), and the chaos-soak and
  random admitted workloads (the service workload lives in
  :mod:`repro.service.session`).
"""

from __future__ import annotations

from repro.checkpoint.codec import LoadContext, SaveContext
from repro.checkpoint.sessions import (
    DEFAULT_CHECKPOINT_INTERVAL,
    ChaosSession,
    Execution,
    RandomWorkloadSession,
    Session,
)
from repro.checkpoint.store import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    CheckpointStore,
    canonical_dumps,
    clear_checkpoints,
    fingerprint_of,
)

__all__ = [
    "CHECKPOINT_FORMAT",
    "ChaosSession",
    "CheckpointError",
    "CheckpointStore",
    "DEFAULT_CHECKPOINT_INTERVAL",
    "Execution",
    "LoadContext",
    "RandomWorkloadSession",
    "SaveContext",
    "Session",
    "canonical_dumps",
    "clear_checkpoints",
    "fingerprint_of",
]
