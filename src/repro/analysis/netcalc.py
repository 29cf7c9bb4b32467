"""Min-plus network calculus for real-time channels (Cruz's calculus).

Paper section 2 describes a connection's traffic as a *linear bounded
arrival process* [Cruz 91]: at most ``B_max + t / I_min`` messages in
any window of ``t`` ticks — a token-bucket **arrival curve**.  Each hop
of a real-time channel guarantees transmission by ``l + d`` — a
rate-latency **service curve**.  Those two families are closed under
the operations the analysis needs:

* the minimum of token buckets is again a (compound) arrival curve;
* the min-plus convolution of rate-latency curves (series composition
  of hops) is a rate-latency curve with the latencies summed and the
  rate the minimum;
* worst-case delay is the maximum horizontal deviation between the
  curves, worst-case backlog the maximum vertical deviation, and for
  these families both maxima occur at curve breakpoints.

The module reproduces the real-time channel model's end-to-end delay
bound ``sum(d_j)`` and lets experiments ask sharper questions
(multi-packet messages, bursts, residual service under reservation).
The section 2 buffer formula is :func:`repro.channels.admission.buffer_bound`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.channels.spec import TrafficSpec


@dataclass(frozen=True)
class TokenBucket:
    """One affine constraint: at most ``burst + rate * t`` in t ticks."""

    burst: float
    rate: float

    def __post_init__(self) -> None:
        if self.burst < 0 or self.rate < 0:
            raise ValueError("burst and rate must be non-negative")

    def __call__(self, t: float) -> float:
        if t <= 0:
            return 0.0
        return self.burst + self.rate * t


class ArrivalCurve:
    """A concave arrival curve: the minimum of token buckets.

    ``A(t) = min_i (b_i + r_i * t)`` for t > 0, and 0 at t = 0 — the
    standard convention under which min-plus convolution of arrival
    curves equals their pointwise minimum.
    """

    def __init__(self, buckets: Iterable[TokenBucket]) -> None:
        self.buckets = tuple(buckets)
        if not self.buckets:
            raise ValueError("arrival curve needs at least one bucket")

    @classmethod
    def from_spec(cls, spec: TrafficSpec) -> "ArrivalCurve":
        """The LBAP of paper section 2, in packet slots."""
        packets = spec.packets_per_message
        return cls([TokenBucket(burst=spec.b_max * packets,
                                rate=packets / spec.i_min)])

    @classmethod
    def token_bucket(cls, burst: float, rate: float) -> "ArrivalCurve":
        return cls([TokenBucket(burst, rate)])

    def __call__(self, t: float) -> float:
        if t <= 0:
            return 0.0
        return min(bucket(t) for bucket in self.buckets)

    def __and__(self, other: "ArrivalCurve") -> "ArrivalCurve":
        """Pointwise minimum — also the min-plus convolution here."""
        return ArrivalCurve(self.buckets + other.buckets)

    def __add__(self, other: "ArrivalCurve") -> "ArrivalCurve":
        """Aggregate of independent flows (conservative compound).

        The exact sum of two minima of affine functions is piecewise
        affine but not necessarily a min of affine functions; summing
        bucket-wise over all pairs is a tight concave upper bound.
        """
        return ArrivalCurve([
            TokenBucket(a.burst + b.burst, a.rate + b.rate)
            for a in self.buckets for b in other.buckets
        ])

    @property
    def burst(self) -> float:
        return min(bucket.burst for bucket in self.buckets)

    @property
    def long_term_rate(self) -> float:
        return min(bucket.rate for bucket in self.buckets)

    def breakpoints(self) -> list[float]:
        """Times where the active bucket changes (pairwise crossings)."""
        points = {0.0}
        for a in self.buckets:
            for b in self.buckets:
                if abs(a.rate - b.rate) > 1e-12:
                    t = (b.burst - a.burst) / (a.rate - b.rate)
                    if t > 0:
                        points.add(t)
        return sorted(points)


@dataclass(frozen=True)
class ServiceCurve:
    """A rate-latency service curve ``beta(t) = rate * max(0, t - latency)``.

    ``rate=math.inf`` models a pure bounded-delay element (the per-hop
    guarantee "done by l + d" of the real-time channel model).
    """

    rate: float
    latency: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("service rate must be positive")
        if self.latency < 0:
            raise ValueError("latency must be non-negative")

    def __call__(self, t: float) -> float:
        if t <= self.latency:
            return 0.0
        if math.isinf(self.rate):
            return math.inf
        return self.rate * (t - self.latency)

    def convolve(self, other: "ServiceCurve") -> "ServiceCurve":
        """Series composition: latencies add, the lower rate governs."""
        return ServiceCurve(rate=min(self.rate, other.rate),
                            latency=self.latency + other.latency)

    @classmethod
    def compose(cls, curves: Iterable["ServiceCurve"]) -> "ServiceCurve":
        result: ServiceCurve | None = None
        for curve in curves:
            result = curve if result is None else result.convolve(curve)
        if result is None:
            raise ValueError("compose needs at least one curve")
        return result

    @classmethod
    def hop(cls, local_delay: float, link_rate: float = 1.0) -> "ServiceCurve":
        """One real-time channel hop: the link transmits the packet by
        ``l + d`` at its unit packet rate."""
        return cls(rate=link_rate, latency=float(local_delay))

    @classmethod
    def pure_delay(cls, delay: float) -> "ServiceCurve":
        return cls(rate=math.inf, latency=float(delay))


def residual_service(link_rate: float, latency: float,
                     competing: ArrivalCurve) -> ServiceCurve:
    """Leftover rate-latency service after serving competing traffic.

    Classic blind-multiplexing bound: a flow sharing a rate-R server
    with cross-traffic bounded by ``b + r t`` receives at least a
    rate-latency curve with rate ``R - r`` and latency
    ``(b + R*latency) / (R - r)``.
    """
    r = competing.long_term_rate
    b = competing.burst
    if r >= link_rate:
        raise ValueError("cross-traffic saturates the link")
    rate = link_rate - r
    return ServiceCurve(rate=rate,
                        latency=(b + link_rate * latency) / rate)


def delay_bound(arrival: ArrivalCurve, service: ServiceCurve) -> float:
    """Maximum horizontal deviation h(A, beta).

    For concave A and rate-latency beta the maximum occurs at an
    arrival-curve breakpoint (including t -> 0+), where it equals
    ``latency + A(t)/rate - t``.
    """
    if arrival.long_term_rate > service.rate + 1e-12:
        return math.inf
    worst = 0.0
    for t in arrival.breakpoints():
        probe = t if t > 0 else 1e-9
        if math.isinf(service.rate):
            deviation = service.latency
        else:
            deviation = service.latency + arrival(probe) / service.rate - t
        worst = max(worst, deviation)
    return worst


def backlog_bound(arrival: ArrivalCurve, service: ServiceCurve) -> float:
    """Maximum vertical deviation v(A, beta).

    For these families the maximum occurs at the service latency or at
    an arrival breakpoint beyond it.
    """
    candidates = [service.latency] + [
        t for t in arrival.breakpoints() if t >= service.latency
    ]
    worst = 0.0
    for t in candidates:
        probe = t if t > 0 else 1e-9
        worst = max(worst, arrival(probe) - service(t))
    return worst


# ---------------------------------------------------------------------------
# Real-time channel views
# ---------------------------------------------------------------------------

def channel_delay_bound(spec: TrafficSpec,
                        local_delays: list[int]) -> float:
    """End-to-end worst-case delay by series composition.

    With pure-delay hop guarantees this reproduces the model's
    ``sum(d_j)``; with unit-rate hops it additionally charges the
    store-and-forward transmission of multi-packet bursts.
    """
    arrival = ArrivalCurve.from_spec(spec)
    service = ServiceCurve.compose(
        ServiceCurve.pure_delay(d) for d in local_delays
    )
    return delay_bound(arrival, service)
