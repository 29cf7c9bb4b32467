"""Sends a test pushes into a network as it runs.

Traffic enters the fabric one way: ``send_message`` and
``send_best_effort``, called between runs.  A scenario that wants
periodic, bursty or Poisson traffic lists it as streams — a source
node and its ``(cycle, send)`` pairs in cycle order, where
``send(net)`` makes one call — and :class:`Traffic` runs the network to
each cycle, makes the sends due there and continues.  Sends due on one
cycle are made in host order, and at one host in the order the streams
were given.

Each stream is a pure function of the cycle, so a run restored from a
checkpoint continues it from ``net.cycle``: the sends before that cycle
are in the checkpoint already.
"""

import heapq
import itertools
import random


def periodic(channel, period, *, slot, count=None, start_tick=0,
             payload=b""):
    """One message every ``period`` ticks from ``start_tick`` on."""
    def sends():
        tick, sent = start_tick, 0
        while count is None or sent < count:
            yield tick * slot, lambda net: net.send_message(channel,
                                                            payload)
            tick, sent = tick + period, sent + 1
    return channel.source, sends()


def bursty(channel, period, *, slot, burst=2, count=None, payload=b""):
    """``burst`` messages together every ``period`` ticks from tick 0;
    ``count`` caps the total, so the last burst may be short."""
    def sends():
        tick, sent = 0, 0
        while count is None or sent < count:
            for _ in range(burst if count is None
                           else min(burst, count - sent)):
                yield tick * slot, lambda net: net.send_message(channel,
                                                                payload)
                sent += 1
            tick += period
    return channel.source, sends()


def poisson(node, destinations, rate, *, seed=0, sizes=(20, 40, 80),
            start=0):
    """Seeded best-effort datagrams from ``node``: on each cycle from
    ``start`` one ``random()`` draw, and below ``rate`` an arrival of a
    ``choice(sizes)``-byte packet (header included) to
    ``choice(destinations)``."""
    sizes = tuple(sizes)
    destinations = tuple(tuple(destination)
                         for destination in destinations)

    def sends():
        if rate <= 0:
            return
        rng = random.Random(seed)
        cycle = start
        while True:
            if rng.random() < rate:
                payload = bytes(max(0, rng.choice(sizes) - 4))
                destination = rng.choice(destinations)
                yield cycle, (lambda net, destination=destination,
                              payload=payload: net.send_best_effort(
                                  node, destination, payload))
            cycle += 1
    return node, sends()


class Traffic:
    """Streams of sends, pushed into ``net`` as it runs."""

    def __init__(self, net, *streams):
        self.net = net
        self._rank = {node: index for index, node in enumerate(net.hosts)}
        self._order = itertools.count()
        self._queue = []
        for stream in streams:
            self.add(stream)

    def add(self, stream):
        """Start another stream; on a cycle both send, it goes after
        the streams its host already has."""
        node, sends = stream
        self._push((self._rank[node], next(self._order)), iter(sends))

    def _push(self, rank, sends):
        """Queue the stream's next send, if it has one."""
        upcoming = next(sends, None)
        if upcoming is not None:
            cycle, send = upcoming
            heapq.heappush(self._queue, (cycle, rank, send, sends))

    def send_due(self):
        """Make the sends due at ``net.cycle``; drop those due earlier
        (a restored run holds them in its checkpoint)."""
        queue, now = self._queue, self.net.cycle
        while queue and queue[0][0] <= now:
            cycle, rank, send, sends = heapq.heappop(queue)
            if cycle == now:
                send(self.net)
            self._push(rank, sends)

    def run_to(self, target):
        """Run to cycle ``target``; sends due at ``target`` wait for
        the next run, as they would at a checkpoint taken there."""
        net = self.net
        while net.cycle < target:
            self.send_due()
            stop = target if not self._queue else min(target,
                                                      self._queue[0][0])
            net.run(stop - net.cycle)
        return net.cycle

    def run(self, cycles):
        return self.run_to(self.net.cycle + cycles)
