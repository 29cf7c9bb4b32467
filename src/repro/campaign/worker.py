"""Campaign worker: execute one run and persist its result shard.

:func:`execute_run` is the pure core (config in, canonical stats out);
:func:`run_and_store` adds the cache write; :func:`subprocess_entry` is
the ``multiprocessing.Process`` target the runner launches — it never
lets an exception escape as a traceback storm, but records the failure
in the cache's error sidecar and exits non-zero so the parent can
retry or quarantine the config.

The parent judges success by *both* signals: a zero exit code **and** a
valid shard on disk.  A worker that dies hard (``os._exit``, a signal,
an OOM kill) produces neither, and is handled exactly like a raised
exception.
"""

from __future__ import annotations

import sys
import traceback

from repro.campaign.cache import ResultCache
from repro.campaign.spec import RunConfig
from repro.campaign.workloads import Executor, workload_for
from repro.checkpoint import Execution, clear_checkpoints


def execute_run(config: RunConfig,
                execution: Execution = Execution()) -> dict:
    """Run one config with its registered workload; returns stats.

    Deterministic: the same config yields the same stats dict in any
    process (pinned by ``tests/campaign/test_determinism.py``).
    """
    stats = workload_for(config)(config, execution)
    stats["config_hash"] = config.content_hash()
    return stats


def run_and_store(config: RunConfig, cache: ResultCache,
                  executor: Executor = execute_run,
                  execution: Execution = Execution()) -> dict:
    """Execute one run and atomically persist its shard.

    A checkpointed run's checkpoint files are deleted only *after* the
    result shard is safely on disk — a crash in between leaves the
    checkpoints behind, so the retry resumes instead of restarting.
    """
    stats = executor(config, execution)
    cache.store(config, stats)
    if execution.checkpoint_dir is not None:
        clear_checkpoints(execution.checkpoint_dir)
    return stats


def subprocess_entry(executor: Executor, config: RunConfig,
                     cache_root: str, execution: Execution) -> None:
    """Worker-process entry point (one process per run).

    ``config`` is the very object the parent hashed.  On success the
    shard is on disk and the process exits 0.  On any exception the
    failure (message + traceback) lands in the cache's error sidecar
    and the process exits 1.
    """
    cache = ResultCache(cache_root)
    try:
        run_and_store(config, cache, executor, execution)
    except BaseException as exc:  # noqa: BLE001 — report, then exit(1)
        try:
            cache.store_error(config.content_hash(), {
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            })
        except OSError:
            pass  # reporting must not mask the failure itself
        sys.exit(1)
