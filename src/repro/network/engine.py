"""Synchronous cycle engine: one event scheduler and its oracle.

Everything in the fabric advances in lock step, one 20 ns cycle at a
time: components (routers, hosts) run their ``step``, then wiring
functions copy each router's output signals to its neighbour's inputs
for the next cycle — giving every link a one-cycle latency, like the
registered chip-to-chip links of the original hardware.

That bare step-everything-then-wire loop is what the model *means*, and
``mode="exact"`` runs exactly it: every component and every wiring
function on every cycle, nothing skipped.  It exists as the reference
the equivalence suites compare against.

Large fabrics are mostly idle, so everything else runs on the
**event** scheduler (the default): a priority queue of ``(cycle,
registration order, component)`` entries, fed by the components'
``next_event_cycle`` contracts, advances the clock directly to the next
cycle on which *any* component has work and steps only the components
scheduled there — including under load, where only the active corner
of the mesh runs while the rest is skipped entirely.  Components
scheduled on the same cycle fire in registration order (the order
``add_component`` was called), which is also the oracle's step order,
so the two are step-for-step identical and produce byte-identical
simulations (``tests/integration/test_event_engine_equivalence.py``
asserts this; ``docs/performance.md`` documents the contracts).  Every
component states when it has work (``next_event_cycle``), every wiring
a source or an idle check, and a change made to a component from
outside its own step reaches the scheduler one way: ``wake``.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from functools import partial
from typing import Callable, Iterable, Optional, Protocol

#: Engine execution modes (see module docstring).
ENGINE_MODES = ("exact", "event")


class Steppable(Protocol):
    def step(self, cycle: int) -> None: ...

    def next_event_cycle(self, cycle: int) -> Optional[int]: ...


class SynchronousEngine:
    """Cycle engine: the event scheduler, or the per-cycle oracle loop.

    With ``mode="event"`` (the default) only components whose
    ``next_event_cycle`` is due are stepped, and only wiring whose
    declared ``source`` component stepped this cycle (plus source-less
    wiring) runs.  The scheduler queue is kept between runs and never
    serialised: ``add_component`` and ``load_state`` invalidate it, and
    the next ``run``/``run_until`` entry then rebuilds it from
    component state; anything else that changes a component from
    outside its own step must :meth:`wake` it — the one way to tell
    the scheduler.

    With ``mode="exact"`` the engine steps every component and runs
    every wiring function on every cycle and never skips — the
    reference behaviour the equivalence tests compare against.
    """

    def __init__(self, *, mode: str = "event") -> None:
        if mode not in ENGINE_MODES:
            raise ValueError(
                f"engine mode must be one of {ENGINE_MODES}, not {mode!r}"
            )
        self.mode = mode
        self._components: list[Steppable] = []
        self._wiring: list[Callable[[], Optional[Iterable[Steppable]]]] = []
        self.cycle = 0
        #: Cycles that ran the step-components-then-wire loop.
        self.cycles_stepped = 0
        #: Cycles the event scheduler skipped (no component stepped);
        #: always zero on the oracle loop.
        self.cycles_fast_forwarded = 0
        # -- event scheduler (derived state, never serialised)
        #: component -> registration index (the same-cycle firing order).
        self._order: dict = {}
        self._order_counter = 0
        #: component -> its ``next_event_cycle``, looked up once at
        #: registration.
        self._probes: dict = {}
        #: source component -> indices of the wirings it drives.
        self._source_wirings: dict = {}
        #: Indices of wirings with no declared source (always run), and
        #: their idle checks.
        self._sourceless_wirings: list[int] = []
        self._idle_checks: list[Callable[[], bool]] = []
        #: component -> currently valid scheduled cycle (lazy deletion:
        #: a queued entry is live only if it matches this map).
        self._sched: dict = {}
        #: Components that answered "now" (scheduled for ``self.cycle``).
        self._due: list = []
        #: ``(cycle, order, push sequence, component)`` entries for
        #: strictly later wake-ups.
        self._heap: list = []
        self._push_seq = 0
        self._pending_wakes: set = set()
        #: Whether the queue reflects every registered component; False
        #: until the first run entry and after an invalidation.
        self._queue_valid = False
        #: Registration index of the component stepping now (``inf``
        #: while the wiring runs); ``None`` between cycles.
        self._stepping: Optional[float] = None
        #: The executing cycle's batch, and the components whose wiring
        #: runs at its end although they did not step (:meth:`touch`).
        self._batch: Optional[list] = None
        self._touched: list = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def add_component(self, component: Steppable) -> None:
        """Register a component; it steps each cycle in this order.

        The component must have ``next_event_cycle``.  The event
        scheduler requeries it only when it steps, when a wiring
        reports that it wrote the component, and when somebody calls
        :meth:`wake` on it — so its answer may depend only on its own
        state and on inputs that arrive on one of those three
        occasions.
        """
        probe = getattr(component, "next_event_cycle", None)
        if probe is None:
            raise TypeError(
                f"component {component!r} has no next_event_cycle")
        self._components.append(component)
        self._order[component] = self._order_counter
        self._order_counter += 1
        self._probes[component] = probe
        self._queue_valid = False  # nobody has asked the newcomer yet

    def remove_component(self, component: Steppable) -> None:
        """Detach a component (fault injectors, watchdogs, controllers).

        The component simply stops being stepped; raises ValueError if
        it was never registered, so detach bugs surface immediately.

        Safe to call from inside a component's own ``step``: the engine
        steps a snapshot of the component list each cycle, so a removal
        mid-cycle never skips or double-steps a neighbour — it takes
        effect at the next cycle boundary (and the removed component
        still finishes the current cycle if it had not stepped yet).
        A component re-added later gets a fresh (higher) registration
        index — it fires after everything registered before it.  A
        component that sources wiring cannot be removed: its wiring
        would run on cycles nobody is scheduled for.
        """
        if component in self._source_wirings:
            raise ValueError(
                f"component {component!r} sources wiring and cannot be "
                f"removed")
        try:
            self._components.remove(component)
        except ValueError:
            raise ValueError(
                f"component {component!r} is not registered with this engine"
            ) from None
        self._order.pop(component, None)
        self._probes.pop(component, None)
        self._sched.pop(component, None)
        self._pending_wakes.discard(component)
        # Purge queued entries outright.  Lazy deletion (the ``_sched``
        # match) is not enough here: a component removed and later
        # re-added gets a fresh registration index, and a surviving
        # stale entry carrying the *old* index could match the re-added
        # component's ``_sched`` cycle and fire it at its old position.
        # In place: the running cycle may hold these lists by alias.
        self._due[:] = [queued for queued in self._due
                        if queued is not component]
        self._heap[:] = [entry for entry in self._heap
                         if entry[3] is not component]
        heapq.heapify(self._heap)

    def add_wiring(
        self,
        transfer: Callable[[], Optional[Iterable[Steppable]]],
        *,
        idle_check: Optional[Callable[[], bool]] = None,
        source: Optional[Steppable] = None,
    ) -> None:
        """Register a post-step signal copy.

        ``transfer`` returns the components whose inputs it wrote this
        time (``None`` or empty: none); the event scheduler requeries
        exactly those, so a delivered signal schedules its consumer for
        the next cycle.  The oracle loop runs every wiring on every
        cycle; the two declarations tell the scheduler when it may not.

        Exactly one of the two is given.  ``source`` is the locality
        contract: it declares that ``transfer`` is a provable no-op on
        any cycle the source component did not step (a router that did
        not step has empty link outputs).  The scheduler then runs the
        wiring only on cycles its source stepped.

        ``idle_check`` is for wiring without a source, which runs on
        every executed cycle: it gates jumps, and must return True
        exactly when calling ``transfer`` right now would leave all
        simulation state unchanged (no signal to copy, no pending side
        effect).
        """
        if (source is None) == (idle_check is None):
            raise ValueError(
                "a wiring needs exactly one of source= and idle_check=")
        self._wiring.append(transfer)
        index = len(self._wiring) - 1
        if source is None:
            self._sourceless_wirings.append(index)
            self._idle_checks.append(idle_check)
        else:
            self._source_wirings.setdefault(source, []).append(index)

    def wake(self, component: Steppable) -> None:
        """Ask the event scheduler to requery a component.

        Call after mutating a component from *outside* its own step —
        queueing packets on a host, injecting into a router — so its
        ``next_event_cycle`` is re-read.  Inside an executing cycle, a
        component whose slot is still to come and which answers "now"
        steps in that slot, as in the per-cycle loop; anything else is
        re-read at the next cycle boundary or run entry.  The queue is
        kept between runs, so a mutation nobody wakes for is never
        seen.  Cheap and idempotent; a no-op in exact mode (only the
        scheduler ever consumes wakes) and for unregistered components.
        """
        if self.mode == "exact":
            return
        current, index = self._stepping, self._order.get(component)
        if current is not None and index is not None and index > current:
            batch, now = self._batch, self.cycle
            slot = bisect_left(batch, (index,))
            if slot < len(batch) and batch[slot][0] == index:
                return  # already in this cycle's batch
            nxt = self._probes[component](now)
            if nxt is not None and nxt <= now:
                batch.insert(slot, (index, component))
                return
        self._pending_wakes.add(component)

    def read_point(self, component: Steppable) -> tuple[int, bool]:
        """Where a reader of ``component``'s state stands right now.

        Returns the first cycle whose step the component has not taken
        in the per-cycle loop, and whether its link inputs still hold
        what the previous cycle's wiring carried: ``(cycle, True)``
        between cycles and before its slot in the executing cycle,
        ``(cycle + 1, False)`` once its slot has passed.  A component
        that sleeps through cycles the loop would step it in settles
        itself to this point when it is read.
        """
        current = self._stepping
        if current is None or self._order.get(component, current) >= current:
            return self.cycle, True
        return self.cycle + 1, False

    def touch(self, component: Steppable) -> None:
        """Run the wiring sourced at ``component`` at the end of the
        executing cycle although it did not step (its state was changed
        mid-cycle so that it drives a link); a no-op between cycles and
        on the oracle, which runs every wiring on every cycle."""
        if self._stepping is not None and self.mode == "event":
            self._touched.append(component)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def state(self) -> dict:
        """Checkpoint state (see ``docs/checkpointing.md``).

        The event scheduler's queue is deliberately absent: it is a
        pure function of component state, and :meth:`load_state`
        invalidates it, so the first run entry after a restore rebuilds
        it from ``next_event_cycle``.
        """
        return {
            "cycle": self.cycle,
            "cycles_stepped": self.cycles_stepped,
            "cycles_fast_forwarded": self.cycles_fast_forwarded,
        }

    def load_state(self, state: dict) -> None:
        """Overlay checkpointed engine state.

        Documents written before the fast-forward path was removed
        also carry ``ff_retry_cycle``/``ff_backoff``; they described
        that path's retry timer only and are ignored.
        """
        self.cycle = int(state["cycle"])
        self.cycles_stepped = int(state["cycles_stepped"])
        self.cycles_fast_forwarded = int(state["cycles_fast_forwarded"])
        self._queue_valid = False  # every component was just overlaid

    # ------------------------------------------------------------------
    # The oracle: the bare per-cycle loop
    # ------------------------------------------------------------------

    def _step_once(self) -> None:
        # Snapshot so add/remove_component from inside a step cannot
        # skip or double-step a neighbour (mutation during iteration).
        order = self._order
        try:
            for component in tuple(self._components):
                self._stepping = order.get(component, -1)
                component.step(self.cycle)
            self._stepping = math.inf
            for transfer in self._wiring:
                transfer()
        finally:
            self._stepping = None
        self.cycle += 1
        self.cycles_stepped += 1

    # ------------------------------------------------------------------
    # The event-driven scheduler
    # ------------------------------------------------------------------

    def _event_requery(self, components, now: int) -> None:
        """Re-read ``next_event_cycle`` of each component, (re)schedule.

        ``None`` unschedules; an answer at or before ``now`` puts the
        component on the due-list, a later one on the heap.
        Over-scheduling is always safe (stepping a quiescent component
        is a no-op by the contract), so staleness handling only ever
        errs toward extra steps, never missed ones.
        """
        sched, order, due, heap = (self._sched, self._order, self._due,
                                   self._heap)
        probes = self._probes
        seq = self._push_seq
        for component in components:
            index = order.get(component)
            if index is None:
                continue  # removed since the wake/sink reference was taken
            nxt = probes[component](now)
            if nxt is None:
                sched.pop(component, None)
            elif nxt <= now:
                if sched.get(component) != now:
                    sched[component] = now
                    due.append(component)
            elif sched.get(component) != nxt:
                sched[component] = nxt
                seq += 1
                heapq.heappush(heap, (nxt, index, seq, component))
        self._push_seq = seq

    def _event_full_requery(self) -> None:
        """Rebuild the queue from scratch (not built yet; invalidated)."""
        self._sched.clear()
        self._due.clear()
        self._heap.clear()
        self._pending_wakes.clear()
        self._event_requery(self._components, self.cycle)
        self._queue_valid = True

    def _event_enter(self) -> None:
        """Run entry: a valid queue is stale only where somebody said
        so (:meth:`wake`)."""
        if not self._queue_valid:
            self._event_full_requery()
            return
        self._event_requery(list(self._pending_wakes), self.cycle)
        self._pending_wakes.clear()

    def audit_schedule(self) -> list[str]:
        """Where the kept queue disagrees with a full requery.

        Empty when every registered component is queued exactly as a
        rebuild would queue it — or when there is no kept queue to
        audit (the oracle; not built yet; invalidated).  Components
        with a wake pending are exempt: the next run entry re-reads
        them anyway.
        """
        if self.mode == "exact" or not self._queue_valid:
            return []
        now = self.cycle
        stale = []
        for component in self._components:
            if component in self._pending_wakes:
                continue
            nxt = self._probes[component](now)
            fresh = None if nxt is None else max(nxt, now)
            kept = self._sched.get(component)
            if kept != fresh:
                stale.append(f"{type(component).__name__} "
                             f"#{self._order[component]}: scheduled for "
                             f"{kept}, a requery says {fresh}")
        return stale

    def _event_next_due(self) -> Optional[int]:
        """Earliest scheduled cycle, discarding stale queue entries."""
        sched, due, heap = self._sched, self._due, self._heap
        now = self.cycle
        while due:
            if sched.get(due[-1]) == now:
                return now
            due.pop()
        while heap:
            when, _, _, component = heap[0]
            if sched.get(component) == when:
                return when
            heapq.heappop(heap)
        return None

    def _event_wirings_idle(self) -> bool:
        """May the scheduler jump past source-less wiring right now?

        Wiring with a declared source is covered by its source's
        schedule; source-less wiring is gated on its ``idle_check``.
        """
        return all(check() for check in self._idle_checks)

    def _event_step_once(self) -> None:
        """Execute one cycle: due components, their wiring, requeries."""
        now = self.cycle
        sched, order, heap = self._sched, self._order, self._heap
        # The batch: everything due now, in registration order — the
        # due-list plus heap entries whose cycle has come.
        batch: list = []
        for component in self._due:
            if sched.get(component) == now:
                del sched[component]
                batch.append((order[component], component))
        self._due.clear()
        while heap and heap[0][0] <= now:
            when, index, _, component = heapq.heappop(heap)
            if sched.get(component) == when:  # else superseded
                del sched[component]
                batch.append((index, component))
        batch.sort()
        # A step that wakes a component later in the order may grow the
        # batch (:meth:`wake`).
        self._batch = batch
        position = 0
        while position < len(batch):
            self._stepping, component = batch[position]
            position += 1
            component.step(now)
        self._stepping = math.inf
        stepped = [component for _, component in batch]
        sources = stepped
        if self._touched:
            sources = stepped + [component for component
                                 in dict.fromkeys(self._touched)
                                 if component not in stepped]
            self._touched.clear()
        run_indices = list(self._sourceless_wirings)
        for component in sources:
            indices = self._source_wirings.get(component)
            if indices:
                run_indices.extend(indices)
        run_indices.sort()  # wiring order == registration order
        # Requery everything this cycle could have affected: what
        # stepped, whatever the wiring wrote, and whatever was woken.
        requery = set(sources)
        wiring = self._wiring
        for index in run_indices:
            wrote = wiring[index]()
            if wrote:
                requery.update(wrote)
        self._stepping = self._batch = None
        self.cycle = now = now + 1
        self.cycles_stepped += 1
        requery.update(self._pending_wakes)
        self._pending_wakes.clear()
        self._event_requery(requery, now)

    def _event_advance(self, limit: int) -> None:
        """Move the clock: jump to the next scheduled event (capped at
        ``limit``), or execute the current cycle when something is due
        right now."""
        due = self._event_next_due()
        if due is None or due > self.cycle:
            jump = limit if due is None else min(due, limit)
            if jump > self.cycle and self._event_wirings_idle():
                self.cycles_fast_forwarded += jump - self.cycle
                self.cycle = jump
                return
        try:
            self._event_step_once()
        except BaseException:
            # The cycle's batch was already taken off the queue: the
            # next run entry must ask everybody again.
            self._queue_valid = False
            self._stepping = self._batch = None
            self._touched.clear()
            raise

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self, cycles: int) -> int:
        """Advance the fabric ``cycles`` cycles; returns the new time."""
        if cycles < 0:
            raise ValueError("cannot run a negative number of cycles")
        target = self.cycle + cycles
        if self.mode == "exact":
            while self.cycle < target:
                self._step_once()
            return self.cycle
        self._event_enter()
        while self.cycle < target:
            self._event_advance(target)
        return self.cycle

    def run_until(self, predicate: Callable[[], bool],
                  max_cycles: int = 1_000_000) -> int:
        """Run until ``predicate()`` holds; raises on timeout.

        Evaluation contract: the predicate is evaluated once *before*
        any stepping (so a condition that already holds returns
        immediately, advancing zero cycles) and then *after* every
        executed cycle — i.e. post-step, with that cycle's component
        work and wiring applied and ``self.cycle`` already
        incremented.  The returned cycle is therefore the first cycle
        count at which the predicate was observed true.

        Across a span the scheduler skips, the predicate is evaluated
        at the span's end only.  Component state is constant over such
        a span, so any predicate that is a function of
        component/network state sees no difference from the oracle
        loop; a predicate that reads the raw cycle count (e.g.
        ``lambda: engine.cycle >= n``) may be observed late — use
        :meth:`run` for fixed-duration waits instead.

        ``max_cycles`` bounds the *actual cycles advanced* (stepped
        plus skipped) before :class:`TimeoutError` is raised.
        """
        if max_cycles < 0:
            raise ValueError("max_cycles must be non-negative")
        if predicate():
            return self.cycle
        deadline = self.cycle + max_cycles
        if self.mode == "exact":
            advance = self._step_once
        else:
            self._event_enter()
            advance = partial(self._event_advance, deadline)
        while True:
            if self.cycle >= deadline:
                raise TimeoutError(
                    f"condition not reached within {max_cycles} cycles"
                )
            advance()
            if predicate():
                return self.cycle
