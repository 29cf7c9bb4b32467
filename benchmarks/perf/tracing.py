"""Outside-in tracing: timing shims around each layer's public functions.

The tracer replaces public class attributes (and two module-level
functions) with timing wrappers for the duration of one traced instance
and restores them afterwards; nothing inside ``repro`` knows about it.
Every boundary keeps ``calls``, ``busy_s`` (time between entry and exit)
and ``self_s`` (busy time minus the part covered by boundaries called
from inside it).  Request-scoped control-plane boundaries also keep
individual spans, held in memory until the instance ends.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

import repro.schedulability.engine as schedulability_engine
import repro.schedulability.faultmodel as schedulability_faultmodel
from repro.channels.admission import AdmissionController
from repro.channels.manager import ChannelManager
from repro.core.arbiter import RoundRobinArbiter
from repro.core.comparator_tree import ComparatorTree, SchedulerPipeline
from repro.core.connection_table import ControlInterface
from repro.core.leaf_state import LeafArray
from repro.core.packet_memory import ChunkBus
from repro.core.router import RealTimeRouter
from repro.faults.injector import FaultInjector
from repro.faults.recovery import RecoveryController
from repro.faults.watchdog import LinkWatchdog
from repro.network.engine import SynchronousEngine
from repro.network.network import MeshNetwork
from repro.network.node import HostNode
from repro.network.stats import DeliveryLog
from repro.service.controller import ServiceController
from repro.service.overload import OverloadManager

#: How a boundary is wrapped.
TIMED, SPANS, COUNTED = "timed", "spans", "counted"

#: The wiring callables of mesh links, wrapped as ``add_wiring`` sees them.
LINK_TRANSFER = "network.network.link_transfer"

#: (metric name, owner, attribute, kind).  ``SPANS`` boundaries are the
#: request-scoped control plane; ``COUNTED`` ones return a generator, so
#: only their calls can be counted from outside.
BOUNDARIES = (
    ("core.router.step", RealTimeRouter, "step", TIMED),
    ("core.router.next_event_cycle", RealTimeRouter, "next_event_cycle",
     TIMED),
    ("core.router.idle", RealTimeRouter, "idle", TIMED),
    ("core.comparator_tree.pipeline_step", SchedulerPipeline, "step",
     TIMED),
    ("core.comparator_tree.select_for_port", ComparatorTree,
     "select_for_port", TIMED),
    ("core.packet_memory.bus_grant", ChunkBus, "grant", TIMED),
    ("core.arbiter.grant", RoundRobinArbiter, "grant", TIMED),
    ("core.leaf_state.occupied_indices", LeafArray, "occupied_indices",
     COUNTED),
    ("core.connection_table.program_connection", ControlInterface,
     "program_connection", TIMED),
    ("network.engine.run", SynchronousEngine, "run", TIMED),
    ("network.engine.run", SynchronousEngine, "run_until", TIMED),
    ("network.node.step", HostNode, "step", TIMED),
    ("network.node.next_event_cycle", HostNode, "next_event_cycle", TIMED),
    ("network.network.send_message", MeshNetwork, "send_message", TIMED),
    ("network.network.send_best_effort", MeshNetwork, "send_best_effort",
     TIMED),
    ("network.network.recover_channel", MeshNetwork, "recover_channel",
     SPANS),
    ("network.stats.log_add", DeliveryLog, "add", TIMED),
    ("channels.manager.establish", ChannelManager, "establish", SPANS),
    ("channels.manager.teardown", ChannelManager, "teardown", SPANS),
    ("channels.admission.admit", AdmissionController, "admit", SPANS),
    ("channels.admission.release", AdmissionController, "release", SPANS),
    ("faults.injector.step", FaultInjector, "step", TIMED),
    ("faults.watchdog.step", LinkWatchdog, "step", TIMED),
    ("faults.watchdog.next_event_cycle", LinkWatchdog, "next_event_cycle",
     TIMED),
    ("faults.recovery.step", RecoveryController, "step", SPANS),
    ("faults.recovery.next_event_cycle", RecoveryController,
     "next_event_cycle", SPANS),
    ("service.controller.submit", ServiceController, "submit", SPANS),
    ("service.controller.advance", ServiceController, "advance", SPANS),
    ("service.controller.due_sends", ServiceController, "due_sends",
     SPANS),
    ("service.overload.update", OverloadManager, "update", SPANS),
    ("schedulability.engine.analyze", schedulability_engine, "analyze",
     SPANS),
    ("schedulability.faultmodel.analyze_with_faults",
     schedulability_faultmodel, "analyze_with_faults", SPANS),
)

#: The harness's own two regions; their self time is the part of an
#: instance spent inside no boundary.
BUILD, DRIVE = "harness.build", "harness.drive"

#: Spans kept per instance before further ones are only counted.
MAX_SPANS = 100_000


def boundary_names() -> list[str]:
    """Every boundary's metric name, once, in declaration order."""
    names = []
    for name, *_ in BOUNDARIES:
        if name not in names:
            names.append(name)
    names.insert(names.index("network.node.step"), LINK_TRANSFER)
    return names


def stat_names() -> list[str]:
    """The per-layer metric names the boundaries produce."""
    counted = {name for name, _, _, kind in BOUNDARIES if kind == COUNTED}
    names = []
    for name in boundary_names():
        names.append(f"{name}.calls")
        if name not in counted:
            names += [f"{name}.busy_s", f"{name}.self_s"]
    return names


def _request_of(args: tuple, kwargs: dict):
    """The channel or request label a control-plane call is about."""
    label = kwargs.get("label")
    if isinstance(label, str):
        return label
    for value in args[1:3]:
        label = getattr(value, "label", None)
        if isinstance(label, str):
            return label
    return None


class Tracer:
    """Per-boundary aggregates and control-plane spans of one instance."""

    def __init__(self) -> None:
        #: name -> [calls, busy_s, self_s]
        self.stats = {name: [0, 0.0, 0.0]
                      for name in (*boundary_names(), BUILD, DRIVE)}
        #: Copy of :attr:`stats` taken at the build/drive boundary.
        self.stats_at_mark: dict = {}
        self.spans: list[dict] = []
        self.spans_dropped = 0
        #: Open frames, innermost last: [child_s, span id, request id].
        self._stack: list[list] = []
        self._region: tuple = ()
        self._patched: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name: str, function):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, None, None]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                stack[-1][0] += elapsed

        return wrapper

    def _spanned(self, name: str, function):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = request = None
            for open_frame in reversed(stack):
                if open_frame[1] is not None:
                    parent, request = open_frame[1], open_frame[2]
                    break
            request = _request_of(args, kwargs) or request
            span = self._open_span(name, parent, request)
            frame = [0.0, span, request]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                stack[-1][0] += elapsed
                self._close_span(span, start, end, frame[0])

        return wrapper

    def _counted(self, name: str, function):
        stat = self.stats[name]

        def wrapper(*args, **kwargs):
            stat[0] += 1
            return function(*args, **kwargs)

        return wrapper

    def _open_span(self, name: str, parent, request):
        if len(self.spans) >= MAX_SPANS:
            self.spans_dropped += 1
            return None
        self.spans.append({"id": len(self.spans), "name": name,
                           "parent": parent, "request": request})
        return len(self.spans) - 1

    def _close_span(self, span, start: float, end: float,
                    child_s: float) -> None:
        if span is not None:
            self.spans[span].update(
                start=start, end=end, self_s=end - start - child_s)

    # -- installing and removing ------------------------------------------

    def _replace(self, owner, attribute: str, value) -> None:
        self._patched.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def _install(self) -> None:
        wrap = {TIMED: self._timed, SPANS: self._spanned,
                COUNTED: self._counted}
        for name, owner, attribute, kind in BOUNDARIES:
            if not isinstance(owner, type):
                # A module-level function: callers imported it by name,
                # so replace it in every module that holds it.
                original = getattr(owner, attribute)
                wrapped = wrap[kind](name, original)
                for module in list(sys.modules.values()):
                    if vars(module).get(attribute) is original:
                        self._replace(module, attribute, wrapped)
                continue
            original = vars(owner)[attribute]
            if isinstance(original, property):
                wrapped = property(wrap[kind](name, original.fget))
            else:
                wrapped = wrap[kind](name, original)
            self._replace(owner, attribute, wrapped)
        add_wiring = SynchronousEngine.add_wiring
        tracer = self

        def traced_add_wiring(engine, transfer, **kwargs):
            if kwargs.get("source") is not None:   # a mesh link
                transfer = tracer._timed(LINK_TRANSFER, transfer)
            return add_wiring(engine, transfer, **kwargs)

        self._replace(SynchronousEngine, "add_wiring", traced_add_wiring)

    def _remove(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def instance(self):
        """Wrap every boundary for one instance; starts in the build region."""
        self._install()
        self._enter_region(BUILD)
        try:
            yield self
        finally:
            self._leave_region()
            self._remove()

    def mark(self) -> None:
        """The first simulated cycle: the build region ends, drive begins."""
        self._leave_region()
        self.stats_at_mark = {name: list(stat)
                              for name, stat in self.stats.items()}
        self._enter_region(DRIVE)

    def _enter_region(self, name: str) -> None:
        span = self._open_span(name, None, None)
        self._stack.append([0.0, span, None])
        self._region = (name, span, time.perf_counter())

    def _leave_region(self) -> None:
        name, span, start = self._region
        end = time.perf_counter()
        frame = self._stack.pop()
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += end - start
        stat[2] += end - start - frame[0]
        self._close_span(span, start, end, frame[0])

    # -- results ----------------------------------------------------------

    def per_layer(self) -> dict:
        """``<boundary>.<stat>`` values of the whole traced instance."""
        values = {}
        for metric in stat_names():
            name, stat = metric.rsplit(".", 1)
            values[metric] = self.stats[name][
                ("calls", "busy_s", "self_s").index(stat)]
        return values

    def drive_self_s(self) -> dict:
        """Self time per boundary inside the drive region only."""
        return {name: stat[2] - self.stats_at_mark[name][2]
                for name, stat in self.stats.items() if name != BUILD}
