"""Fluid-flow transfer model over shared links.

Transfers do not move packets; each one drains at the rate of its tightest
link, where every link splits its bandwidth equally among the transfers
crossing it.  Rates are recomputed whenever a transfer starts or finishes
draining, and the path latency is paid once at the end.

With a single 8 Mbit/s, 10 ms link, a 1 MB object completes after
8/8 s + 10 ms = 1.010 s; two simultaneous equal transfers each take ~2.010 s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .events import EventLoop
from .topology import Host, Topology


@dataclass(frozen=True)
class PathSegment:
    """One directed link of a transfer path."""

    key: str
    bandwidth_mbps: float
    latency_ms: float


@dataclass
class TransferPath:
    segments: list[PathSegment]

    @property
    def latency_ms(self) -> float:
        return sum(s.latency_ms for s in self.segments)

    def extended(self, other: "TransferPath") -> "TransferPath":
        return TransferPath(self.segments + other.segments)


def host_path(topology: Topology, src: Host, dst: Host) -> TransferPath:
    """Directed path src -> dst: access cable, switch links, access cable."""
    segments = [
        PathSegment(f"host:{src.host_id}:up", src.access_bandwidth_mbps, src.access_latency_ms)
    ]
    route = topology.route(src.dpid, dst.dpid)
    for here, there, link in zip(route.dpids, route.dpids[1:], route.links):
        # Duplex links: each direction has its own capacity pool.
        segments.append(
            PathSegment(f"{link.link_id}:{here}->{there}", link.bandwidth_mbps, link.latency_ms)
        )
    segments.append(
        PathSegment(f"host:{dst.host_id}:down", dst.access_bandwidth_mbps, dst.access_latency_ms)
    )
    return TransferPath(segments)


@dataclass(eq=False)
class Transfer:
    path: TransferPath
    remaining_bits: float
    on_complete: Callable[[], None]
    links: tuple[tuple[str, float], ...]  # (key, bits per ms) of every finite segment
    rate_bits_per_ms: float = 0.0


class TransferManager:
    """Tracks active transfers and keeps one completion pending: the soonest drain.

    Every active transfer was last settled at ``_settled_ms``.  Each start or
    drain settles them all, recomputes the shares and schedules a fresh
    completion for the transfer that drains first; the one holding the token
    in ``_pending`` is current and any earlier one does nothing when it fires.
    """

    def __init__(self, loop: EventLoop):
        self.loop = loop
        self._active: list[Transfer] = []
        self._link_users: dict[str, int] = {}
        self._settled_ms = 0.0
        self._pending: object | None = None  # token of the current completion

    def start(self, path: TransferPath, size_bytes: float, on_complete: Callable[[], None]) -> Transfer:
        links = tuple(
            (s.key, s.bandwidth_mbps * 1000.0)  # bits per ms
            for s in path.segments
            if not math.isinf(s.bandwidth_mbps)
        )
        transfer = Transfer(path, size_bytes * 8.0, on_complete, links)
        for key, _capacity in links:
            self._link_users[key] = self._link_users.get(key, 0) + 1
        self._active.append(transfer)
        self._rebalance()
        return transfer

    def _rebalance(self) -> None:
        """Equal split per link, recomputed at every start/finish event."""
        now = self.loop.now
        elapsed = now - self._settled_ms
        self._settled_ms = now
        soonest: tuple[float, float, Transfer] | None = None
        for transfer in self._active:
            rate = transfer.rate_bits_per_ms
            if elapsed > 0 and rate > 0:
                if math.isinf(rate):
                    transfer.remaining_bits = 0.0
                else:
                    transfer.remaining_bits = max(0.0, transfer.remaining_bits - elapsed * rate)
            rate = min(
                (capacity / self._link_users[key] for key, capacity in transfer.links),
                default=math.inf,
            )
            transfer.rate_bits_per_ms = rate
            if transfer.remaining_bits <= 0 or math.isinf(rate):
                drain_ms = 0.0
            else:
                drain_ms = transfer.remaining_bits / rate
            # The loop orders by now + delay, and two drains an ulp apart can
            # land on the same due time; then the earlier start goes first.
            if soonest is None or now + drain_ms < soonest[0]:
                soonest = (now + drain_ms, drain_ms, transfer)
        if soonest is None:
            return
        _due, drain_ms, transfer = soonest
        token = self._pending = object()
        self.loop.schedule(drain_ms, lambda: self._drained(transfer, token))

    def _drained(self, transfer: Transfer, token: object) -> None:
        if token is not self._pending:
            return  # a later rebalance superseded this completion
        self._active.remove(transfer)
        for key, _capacity in transfer.links:
            self._link_users[key] -= 1
            if self._link_users[key] == 0:
                del self._link_users[key]
        self._rebalance()
        self.loop.schedule(transfer.path.latency_ms, transfer.on_complete)
