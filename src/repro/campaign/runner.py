"""Worker-pool campaign execution with caching, retry and quarantine.

:class:`CampaignRunner` fans a :class:`~repro.campaign.spec
.CampaignSpec`'s expanded grid out over worker processes:

* **Work queue** — cache misses only, ordered by config hash (the same
  deterministic order every invocation, regardless of how the spec was
  written).
* **Isolation** — one OS process per run.  A run that crashes, leaks,
  or is killed by the kernel takes down nobody else; the parent reaps
  the corpse and treats it like any other failure.
* **Timeout** — a run exceeding ``timeout_seconds`` is terminated
  (then killed) and counted as a failed attempt.
* **Retry** — failed attempts are re-queued with exponential backoff
  (``backoff_base * 2**(attempt-1)`` seconds) up to ``max_attempts``;
  after that the config is **quarantined**: reported with its error,
  never silently dropped, and never blocking the rest of the grid.
* **Resume** — results are read from / written to a content-addressed
  :class:`~repro.campaign.cache.ResultCache`; a re-invoked or
  interrupted campaign executes only the missing runs.
* **Pre-filter** — workloads with a registered feasibility pre-filter
  (see :mod:`repro.schedulability.prefilter`) have provably-infeasible
  cells skipped before any worker is paid for: the analytic verdict is
  recorded in ``CampaignReport.infeasible`` and surfaced in the
  summary, never silently dropped.  ``prefilter=False`` executes
  every cell regardless.

The runner keeps its own :class:`~repro.observability.MetricsRegistry`
(``campaign.*`` counters) so campaign execution is observable with the
same instruments as the simulator it drives.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.campaign import aggregate
from repro.campaign.cache import ResultCache
from repro.campaign.spec import CampaignSpec, RunConfig
from repro.campaign.worker import execute_run, subprocess_entry
from repro.campaign.workloads import Executor, workload_for
from repro.checkpoint import Execution
from repro.observability import MetricsRegistry

#: Seconds between poll sweeps over the active worker set.
_POLL_INTERVAL = 0.005


@dataclass(frozen=True)
class QuarantinedRun:
    """A config that exhausted its attempts, with why."""

    config_hash: str
    config: dict
    attempts: int
    error: str


@dataclass
class CampaignReport:
    """Everything one campaign invocation produced."""

    name: str
    #: config hash -> stats, for every run that has a result.
    results: dict[str, dict]
    #: config hash -> config dict, for the whole expanded grid.
    configs: dict[str, dict]
    #: Hashes actually executed by this invocation.
    executed: list[str]
    #: Hashes satisfied from the cache by this invocation.
    cached: list[str]
    quarantined: list[QuarantinedRun] = field(default_factory=list)
    #: config hash -> analytic verdict, for cells the feasibility
    #: pre-filter proved infeasible and skipped (never executed).
    infeasible: dict[str, dict] = field(default_factory=dict)
    retries: int = 0
    elapsed_seconds: float = 0.0

    @property
    def total(self) -> int:
        return len(self.configs)

    @property
    def ok(self) -> bool:
        """Every run in the grid has a result or an analytic verdict
        (nothing quarantined)."""
        return (not self.quarantined
                and len(self.results) + len(self.infeasible) == self.total)

    def signature(self) -> str:
        """Stable digest of the aggregated outcome (resume checks)."""
        return aggregate.campaign_signature(self.results)

    def summary_lines(self) -> list[str]:
        """Aggregated summary plus execution accounting."""
        lines = aggregate.summary_lines(self.results)
        lines += ["", f"runs: {self.total} total, "
                      f"{len(self.executed)} executed, "
                      f"{len(self.cached)} cached, "
                      f"{len(self.infeasible)} infeasible, "
                      f"{len(self.quarantined)} quarantined, "
                      f"{self.retries} retries"]
        for config_hash, verdict in sorted(self.infeasible.items()):
            lines.append(f"INFEASIBLE {config_hash[:8]} skipped: "
                         f"{verdict.get('reason', 'analytic verdict')}")
        for bad in self.quarantined:
            lines.append(f"QUARANTINED {bad.config_hash[:8]} "
                         f"after {bad.attempts} attempts: {bad.error}")
        return lines


class _Task:
    """One pending run: its config, attempt count, and earliest start."""

    __slots__ = ("config", "config_hash", "attempts", "not_before")

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self.config_hash = config.content_hash()
        self.attempts = 0
        self.not_before = 0.0


class _Active:
    """One in-flight worker process."""

    __slots__ = ("process", "task", "started", "timed_out")

    def __init__(self, process, task: _Task, started: float) -> None:
        self.process = process
        self.task = task
        self.started = started
        self.timed_out = False


class CampaignRunner:
    """Execute a campaign spec against a result cache."""

    def __init__(
        self,
        spec: CampaignSpec,
        cache: ResultCache,
        *,
        workers: int = 1,
        max_attempts: int = 3,
        timeout_seconds: Optional[float] = None,
        backoff_base: float = 0.5,
        reuse_cache: bool = True,
        prefilter: bool = True,
        executor: Executor = execute_run,
        execution: Execution = Execution(),
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        if execution.resume_from is not None:
            raise ValueError("a campaign cannot resume_from one file: "
                             "each run resumes from its own checkpoints")
        self.execution = execution
        self.spec = spec
        self.cache = cache
        self.workers = workers
        self.max_attempts = max_attempts
        self.timeout_seconds = timeout_seconds
        self.backoff_base = backoff_base
        self.reuse_cache = reuse_cache
        self.prefilter = prefilter
        self.executor = executor
        available = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in available else "spawn")
        self._progress = progress
        self.metrics = MetricsRegistry()
        self._counters = {name: self.metrics.counter(f"campaign.{name}")
                          for name in ("runs_total", "cached", "executed",
                                       "infeasible", "retried",
                                       "quarantined")}

    # -- internals ---------------------------------------------------------

    def _say(self, done: int, total: int, config_hash: str,
             message: str) -> None:
        if self._progress is not None:
            self._progress(f"[{done}/{total}] {config_hash[:8]} {message}")

    def _launch(self, task: _Task) -> _Active:
        # Every run is executed as ``self.execution`` says, but
        # checkpoints under the cache, into a directory of its own, so
        # a killed worker's retry resumes mid-run instead of restarting.
        process = self._ctx.Process(
            target=subprocess_entry,
            args=(self.executor, task.config, str(self.cache.root),
                  replace(self.execution, checkpoint_dir=str(
                      self.cache.root / "checkpoints" / task.config_hash))),
            daemon=True,
        )
        task.attempts += 1
        process.start()
        return _Active(process, task, time.monotonic())

    def _kill(self, active: _Active) -> None:
        active.process.terminate()
        active.process.join(0.5)
        if active.process.is_alive():
            active.process.kill()
            active.process.join()

    def _prefilter_verdict(self, config: RunConfig, done: int,
                           total: int) -> Optional[dict]:
        """The analytic skip verdict for ``config``, or ``None``.

        A crashing pre-filter must never lose a run, so any exception
        degrades to "no verdict" and the cell executes normally.
        """
        if not self.prefilter:
            return None
        try:
            from repro.schedulability.prefilter import prefilter_verdict

            return prefilter_verdict(config)
        except Exception as exc:  # pragma: no cover - defensive
            self._say(done, total, config.content_hash(),
                      f"prefilter error (executing anyway): {exc}")
            return None

    def _failure_reason(self, active: _Active) -> str:
        if active.timed_out:
            return f"timed out after {self.timeout_seconds}s"
        error = self.cache.load_error(active.task.config_hash)
        if error is not None and error.get("error"):
            return str(error["error"])
        code = active.process.exitcode
        if code is not None and code < 0:
            return f"worker died on signal {-code}"
        return f"worker exited with code {code} and no result"

    # -- execution ---------------------------------------------------------

    def run(self) -> CampaignReport:
        """Run the campaign to completion and report.

        Blocks until every run has a result or is quarantined.
        """
        started = time.monotonic()
        grid = self.spec.expand()
        if self.executor is execute_run:
            for config in grid:  # refused before any worker starts
                workload_for(config)
        self._counters["runs_total"].inc(len(grid))
        configs = {config.content_hash(): config.to_dict()
                   for config in grid}
        results: dict[str, dict] = {}
        cached: list[str] = []
        executed: list[str] = []
        quarantined: list[QuarantinedRun] = []
        infeasible: dict[str, dict] = {}
        retries = 0
        total = len(grid)
        done = 0

        pending: list[_Task] = []
        for config in grid:  # already hash-ordered
            config_hash = config.content_hash()
            stats = self.cache.load(config) if self.reuse_cache else None
            if stats is not None:
                # A cached result wins over the pre-filter: the cell
                # already paid for its simulation, keep the evidence.
                results[config_hash] = stats
                cached.append(config_hash)
                self._counters["cached"].inc()
                done += 1
                self._say(done, total, config_hash, "cached")
                continue
            verdict = self._prefilter_verdict(config, done, total)
            if verdict is not None:
                infeasible[config_hash] = verdict
                self._counters["infeasible"].inc()
                done += 1
                self._say(done, total, config_hash,
                          f"infeasible: "
                          f"{verdict.get('reason', 'analytic verdict')}")
            else:
                pending.append(_Task(config))

        active: list[_Active] = []
        while pending or active:
            now = time.monotonic()

            # Launch ready tasks into free slots, in queue order.
            while len(active) < self.workers:
                ready = next((t for t in pending if t.not_before <= now),
                             None)
                if ready is None:
                    break
                pending.remove(ready)
                active.append(self._launch(ready))

            # Reap finished and overdue workers.
            still_active: list[_Active] = []
            for entry in active:
                process, task = entry.process, entry.task
                if process.is_alive():
                    if (self.timeout_seconds is not None
                            and now - entry.started > self.timeout_seconds):
                        entry.timed_out = True
                        self._kill(entry)
                    else:
                        still_active.append(entry)
                        continue
                process.join()
                stats = self.cache.load(task.config)
                if (process.exitcode == 0 and not entry.timed_out
                        and stats is not None):
                    results[task.config_hash] = stats
                    executed.append(task.config_hash)
                    self._counters["executed"].inc()
                    done += 1
                    self._say(done, total, task.config_hash,
                              f"ok ({time.monotonic() - entry.started:.2f}s)")
                    continue
                reason = self._failure_reason(entry)
                if task.attempts >= self.max_attempts:
                    quarantined.append(QuarantinedRun(
                        config_hash=task.config_hash,
                        config=task.config.to_dict(),
                        attempts=task.attempts,
                        error=reason,
                    ))
                    self._counters["quarantined"].inc()
                    done += 1
                    self._say(done, total, task.config_hash,
                              f"QUARANTINED after {task.attempts} "
                              f"attempts: {reason}")
                else:
                    delay = self.backoff_base * (2 ** (task.attempts - 1))
                    task.not_before = time.monotonic() + delay
                    pending.append(task)
                    retries += 1
                    self._counters["retried"].inc()
                    self._say(done, total, task.config_hash,
                              f"retry {task.attempts}/{self.max_attempts} "
                              f"in {delay:.2f}s: {reason}")
            active = still_active

            if active:
                time.sleep(_POLL_INTERVAL)
            elif pending:
                # Everything left is backing off; sleep to the nearest.
                wake = min(task.not_before for task in pending)
                time.sleep(max(_POLL_INTERVAL,
                               min(wake - time.monotonic(), 0.1)))

        return CampaignReport(
            name=self.spec.name,
            results=dict(sorted(results.items())),
            configs=configs,
            executed=executed,
            cached=cached,
            quarantined=quarantined,
            infeasible=infeasible,
            retries=retries,
            elapsed_seconds=time.monotonic() - started,
        )
