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
asserts this; ``docs/performance.md`` documents the contracts).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from functools import partial
from typing import Callable, Iterable, Optional, Protocol

#: Engine execution modes (see module docstring).
ENGINE_MODES = ("exact", "event")


class Steppable(Protocol):
    def step(self, cycle: int) -> None: ...


class SynchronousEngine:
    """Cycle engine: the event scheduler, or the per-cycle oracle loop.

    With ``mode="event"`` (the default) only components whose
    ``next_event_cycle`` is due are stepped, and only wiring whose
    declared ``source`` component stepped this cycle (plus source-less
    wiring) runs.  A component without ``next_event_cycle`` is treated
    as due on every cycle, so legacy components stay exact (at
    per-cycle cost).  The scheduler queue is kept between runs and
    never serialised: ``add_component`` and ``load_state`` invalidate
    it, and the next ``run``/``run_until`` entry then rebuilds it from
    component state; anything else that changes a local component from
    outside its own step must :meth:`wake` it.

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
        self._wiring_idle_checks: list[Optional[Callable[[], bool]]] = []
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
        #: component -> its ``next_event_cycle`` (None: due every cycle),
        #: looked up once at registration.
        self._probes: dict = {}
        #: Components registered without ``local=True``: their
        #: ``next_event_cycle`` may depend on *global* state (watchdogs
        #: scanning link monitors, recovery controllers watching the
        #: delivery log), so they are requeried after every executed
        #: cycle — and a step by one of them triggers a full requery.
        self._watchers: set = set()
        #: component -> components to requery whenever it steps
        #: (a host injects into and drains its router).
        self._peers: dict = {}
        #: Per wiring: the declared source component (or None).
        self._wiring_sources: list = []
        #: source component -> indices of the wirings it drives.
        self._source_wirings: dict = {}
        #: Indices of wirings with no declared source (always run).
        self._sourceless_wirings: list[int] = []
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

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def add_component(self, component: Steppable, *,
                      local: bool = False) -> None:
        """Register a component; it steps each cycle in this order.

        ``local=True`` declares that the component's
        ``next_event_cycle`` depends only on its *own* state plus
        inputs delivered to it by wiring, peers (:meth:`bind_peers`)
        and explicit :meth:`wake` calls — the event scheduler then
        requeries it only on those occasions.  The default (a
        *watcher*) is requeried after every executed cycle and safe
        for components that observe arbitrary global state.
        """
        self._components.append(component)
        self._order[component] = self._order_counter
        self._order_counter += 1
        self._probes[component] = getattr(component, "next_event_cycle",
                                          None)
        if not local:
            self._watchers.add(component)
        self._queue_valid = False  # nobody has asked the newcomer yet

    def bind_peers(self, feeder: Steppable, fed: Steppable) -> None:
        """Declare that ``feeder``'s step may hand work to ``fed``.

        Whenever ``feeder`` steps, the scheduler requeries ``fed`` —
        for a local component that writes another on most of its steps
        without a declared wiring (a host injecting into and draining
        its router).  One that does so rarely calls :meth:`wake` when
        it happens (a router delivering to its host).
        """
        self._peers.setdefault(feeder, []).append(fed)

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
        index — it fires after everything registered before it.
        """
        try:
            self._components.remove(component)
        except ValueError:
            raise ValueError(
                f"component {component!r} is not registered with this engine"
            ) from None
        self._order.pop(component, None)
        self._probes.pop(component, None)
        self._watchers.discard(component)
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
        self._peers.pop(component, None)
        for fed in self._peers.values():
            if component in fed:
                fed.remove(component)
        if component in self._source_wirings:
            # Wiring whose source vanished falls back to source-less
            # semantics: run every executed cycle, gate jumps on its
            # idle_check (or pin per-cycle execution without one).
            for index in self._source_wirings.pop(component):
                self._wiring_sources[index] = None
                self._sourceless_wirings.append(index)
            self._sourceless_wirings.sort()

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

        ``source`` is the locality contract: it declares that
        ``transfer`` is a provable no-op on any cycle the source
        component did not step (a router that did not step has empty
        link outputs).  The scheduler then runs the wiring only on
        cycles its source stepped.  Wiring without a source runs on
        every executed cycle.

        ``idle_check`` gates jumps past *source-less* wiring: it must
        return True exactly when calling ``transfer`` right now would
        leave all simulation state unchanged (no signal to copy, no
        pending side effect).  Source-less wiring registered without
        one is treated as always-active and pins the scheduler to
        per-cycle execution.
        """
        self._wiring.append(transfer)
        self._wiring_idle_checks.append(idle_check)
        index = len(self._wiring) - 1
        self._wiring_sources.append(source)
        if source is None:
            self._sourceless_wirings.append(index)
        else:
            self._source_wirings.setdefault(source, []).append(index)

    def wake(self, component: Steppable) -> None:
        """Ask the event scheduler to requery a component.

        Call after mutating a component from *outside* its own step —
        queueing packets on a host, injecting into a router — so its
        ``next_event_cycle`` is re-read at the next cycle boundary or
        run entry.  The queue is kept between runs, so a mutation
        nobody wakes for is never seen.  Cheap and idempotent; a no-op
        in exact mode (only the scheduler ever consumes wakes) and for
        unregistered components.
        """
        if self.mode == "exact":
            return
        self._pending_wakes.add(component)

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
        for component in tuple(self._components):
            component.step(self.cycle)
        for transfer in self._wiring:
            transfer()
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
            probe = probes[component]
            nxt = probe(now) if probe is not None else now
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
        """Rebuild the queue from scratch (unknown queue; watcher stepped)."""
        self._sched.clear()
        self._due.clear()
        self._heap.clear()
        self._pending_wakes.clear()
        self._event_requery(self._components, self.cycle)
        self._queue_valid = True

    def _event_enter(self) -> None:
        """Run entry: a valid queue is stale only where somebody said
        so (:meth:`wake`) and for the watchers."""
        if not self._queue_valid:
            self._event_full_requery()
            return
        self._event_requery([*self._pending_wakes, *self._watchers],
                            self.cycle)
        self._pending_wakes.clear()

    def audit_schedule(self) -> list[str]:
        """Where the kept queue disagrees with a full requery.

        Empty when every registered component is queued exactly as a
        rebuild would queue it — or when there is no kept queue to
        audit (the oracle; not built yet; invalidated).  Components
        with a wake pending and watchers are exempt: the next run
        entry re-reads them anyway.
        """
        if self.mode == "exact" or not self._queue_valid:
            return []
        now = self.cycle
        stale = []
        for component in self._components:
            if (component in self._pending_wakes
                    or component in self._watchers):
                continue
            probe = self._probes[component]
            nxt = probe(now) if probe is not None else now
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
        schedule; source-less wiring must be gated on its
        ``idle_check`` — and without one it pins per-cycle execution.
        """
        for index in self._sourceless_wirings:
            check = self._wiring_idle_checks[index]
            if check is None or not check():
                return False
        return True

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
        peers = self._peers
        position = 0
        while position < len(batch):
            own, component = batch[position]
            position += 1
            component.step(now)
            # In-cycle cascade: a step can hand work directly to a
            # peer *later* in the firing order (a host injecting into
            # its router), which the oracle loop — where everything
            # steps every cycle — processes this same cycle.
            # Peers earlier in the order have already had their exact
            # firing slot; they are requeried for the next cycle below.
            for partner in peers.get(component, ()):
                index = order.get(partner, -1)
                if index < own:
                    continue
                slot = bisect_left(batch, (index,), position)
                if slot < len(batch) and batch[slot][0] == index:
                    continue  # already in this cycle's batch
                probe = self._probes[partner]
                nxt = probe(now) if probe is not None else now
                if nxt is not None and nxt <= now:
                    batch.insert(slot, (index, partner))
        stepped = [component for _, component in batch]
        run_indices = list(self._sourceless_wirings)
        for component in stepped:
            indices = self._source_wirings.get(component)
            if indices:
                run_indices.extend(indices)
        run_indices.sort()  # wiring order == registration order
        # Requery everything this cycle could have affected: what
        # stepped, its peers, and whatever the wiring wrote.
        requery = set(stepped)
        wiring = self._wiring
        for index in run_indices:
            wrote = wiring[index]()
            if wrote:
                requery.update(wrote)
        self.cycle = now = now + 1
        self.cycles_stepped += 1
        watchers = self._watchers
        if not watchers.isdisjoint(stepped):
            # A watcher step may mutate arbitrary components (fault
            # injection, retransmission): rebuild everything.
            self._event_full_requery()
            return
        for component in stepped:
            partners = peers.get(component)
            if partners:
                requery.update(partners)
        requery.update(self._pending_wakes, watchers)
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
