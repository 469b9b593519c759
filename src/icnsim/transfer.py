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
from dataclasses import dataclass, field
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


@dataclass
class Transfer:
    transfer_id: int
    path: TransferPath
    remaining_bits: float
    on_complete: Callable[[], None]
    rate_bits_per_ms: float = 0.0
    last_update_ms: float = 0.0
    version: int = 0
    finite_keys: list[str] = field(default_factory=list)


class TransferManager:
    """Tracks active transfers and keeps their completion events honest."""

    def __init__(self, loop: EventLoop):
        self.loop = loop
        self._next_id = 0
        self._active: dict[int, Transfer] = {}
        self._link_users: dict[str, int] = {}
        self._link_capacity: dict[str, float] = {}

    def start(self, path: TransferPath, size_bytes: float, on_complete: Callable[[], None]) -> Transfer:
        self._next_id += 1
        transfer = Transfer(
            transfer_id=self._next_id,
            path=path,
            remaining_bits=size_bytes * 8.0,
            on_complete=on_complete,
            last_update_ms=self.loop.now,
        )
        transfer.finite_keys = [
            s.key for s in path.segments if not math.isinf(s.bandwidth_mbps)
        ]
        for segment in path.segments:
            if math.isinf(segment.bandwidth_mbps):
                continue
            self._link_users[segment.key] = self._link_users.get(segment.key, 0) + 1
            self._link_capacity[segment.key] = segment.bandwidth_mbps * 1000.0  # bits per ms
        self._active[transfer.transfer_id] = transfer
        self._rebalance()
        return transfer

    def _settle(self, transfer: Transfer) -> None:
        elapsed = self.loop.now - transfer.last_update_ms
        if elapsed > 0 and transfer.rate_bits_per_ms > 0:
            if math.isinf(transfer.rate_bits_per_ms):
                transfer.remaining_bits = 0.0
            else:
                transfer.remaining_bits = max(
                    0.0, transfer.remaining_bits - elapsed * transfer.rate_bits_per_ms
                )
        transfer.last_update_ms = self.loop.now

    def _rebalance(self) -> None:
        """Equal split per link, recomputed at every start/finish event."""
        for transfer in self._active.values():
            self._settle(transfer)
            shares = [
                self._link_capacity[key] / self._link_users[key] for key in transfer.finite_keys
            ]
            transfer.rate_bits_per_ms = min(shares) if shares else math.inf
            transfer.version += 1
            if transfer.remaining_bits <= 0 or math.isinf(transfer.rate_bits_per_ms):
                drain_ms = 0.0
            else:
                drain_ms = transfer.remaining_bits / transfer.rate_bits_per_ms
            version = transfer.version
            self.loop.schedule(drain_ms, lambda t=transfer, v=version: self._drained(t, v))

    def _drained(self, transfer: Transfer, version: int) -> None:
        if transfer.version != version or transfer.transfer_id not in self._active:
            return  # a rebalance superseded this completion
        del self._active[transfer.transfer_id]
        for key in transfer.finite_keys:
            self._link_users[key] -= 1
            if self._link_users[key] == 0:
                del self._link_users[key]
                del self._link_capacity[key]
        self._rebalance()
        self.loop.schedule(transfer.path.latency_ms, transfer.on_complete)
