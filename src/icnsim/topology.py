"""Switch-level network model.

The data plane is a graph of OpenFlow-style switches joined by duplex links
with a latency and a bandwidth.  Hosts hang off switch ports; the cable
between a host and its switch carries its own latency/bandwidth so that a
host colocated with another on the same switch still pays a nonzero cost.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from .errors import ConfigError, Unreachable


@dataclass(frozen=True)
class Link:
    a: str
    a_port: int
    b: str
    b_port: int
    latency_ms: float
    bandwidth_mbps: float

    @property
    def link_id(self) -> str:
        return f"{self.a}:{self.a_port}-{self.b}:{self.b_port}"

    def peer_of(self, dpid: str) -> str:
        if dpid == self.a:
            return self.b
        if dpid == self.b:
            return self.a
        raise KeyError(dpid)

    def port_at(self, dpid: str) -> int:
        return self.a_port if dpid == self.a else self.b_port


@dataclass(frozen=True)
class Host:
    host_id: str
    mac: str
    ip: str
    dpid: str
    port: int
    # Access-cable parameters; infinite bandwidth means "not a bottleneck".
    access_latency_ms: float = 0.0
    access_bandwidth_mbps: float = math.inf

    @property
    def attachment(self) -> tuple[str, int]:
        return (self.dpid, self.port)


@dataclass(frozen=True)
class Route:
    """A switch path; hop i leaves ``dpids[i]`` by ``ports[i]`` over ``links[i]``."""

    dpids: tuple[str, ...]
    ports: tuple[int, ...]
    links: tuple[Link, ...]
    latency_ms: float

    def reversed(self) -> "Route":
        """The same links walked backwards, which need not be ``route(dst, src)``."""
        dpids, links = self.dpids[::-1], self.links[::-1]
        return Route(dpids, tuple(map(Link.port_at, links, dpids)), links, self.latency_ms)


@dataclass
class Topology:
    switches: list[str] = field(default_factory=list)
    links: list[Link] = field(default_factory=list)
    hosts: dict[str, Host] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._port_peers: dict[tuple[str, int], tuple[str, int]] = {}
        self._adjacency: dict[str, list[Link]] = {s: [] for s in self.switches}
        # The links never change after construction, so neither do the routes.
        self._routes: dict[tuple[str, str], Route] = {}
        for link in self.links:
            self._port_peers[(link.a, link.a_port)] = (link.b, link.b_port)
            self._port_peers[(link.b, link.b_port)] = (link.a, link.a_port)
            # construction tolerates unknown switches; validate() reports them
            if link.a in self._adjacency and link.b in self._adjacency:
                self._adjacency[link.a].append(link)
                self._adjacency[link.b].append(link)
        self._hosts_by_ip = {h.ip: h for h in self.hosts.values()}
        self._hosts_by_port: dict[tuple[str, int], Host] = {
            h.attachment: h for h in self.hosts.values()
        }

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        if not self.switches:
            raise ConfigError("topology has no switches")
        if len(set(self.switches)) != len(self.switches):
            raise ConfigError("duplicate switch ids")
        seen_ports: set[tuple[str, int]] = set()
        for link in self.links:
            for dpid, port in ((link.a, link.a_port), (link.b, link.b_port)):
                if dpid not in self._adjacency:
                    raise ConfigError(f"link references unknown switch {dpid!r}")
                if (dpid, port) in seen_ports:
                    raise ConfigError(f"port {port} reused on switch {dpid!r}")
                seen_ports.add((dpid, port))
            if link.latency_ms <= 0:
                raise ConfigError(f"link {link.link_id} latency must be > 0")
            if link.bandwidth_mbps <= 0:
                raise ConfigError(f"link {link.link_id} bandwidth must be > 0")
        for host in self.hosts.values():
            if host.dpid not in self._adjacency:
                raise ConfigError(
                    f"host {host.host_id!r} attached to unknown switch {host.dpid!r}"
                )
            if host.attachment in seen_ports:
                raise ConfigError(
                    f"host {host.host_id!r} attachment {host.attachment} clashes with a link port"
                )
            seen_ports.add(host.attachment)
        ips = [h.ip for h in self.hosts.values()]
        if len(set(ips)) != len(ips):
            raise ConfigError("duplicate host ip")
        # Every pair of host attachment switches must be mutually reachable.
        dpids = sorted({h.dpid for h in self.hosts.values()})
        for dpid in dpids[1:]:
            self.shortest_path(dpids[0], dpid)

    # -- lookups ------------------------------------------------------------

    def host(self, host_id: str) -> Host:
        return self.hosts[host_id]

    def host_by_ip(self, ip: str) -> Host | None:
        return self._hosts_by_ip.get(ip)

    def host_at(self, dpid: str, port: int) -> Host | None:
        return self._hosts_by_port.get((dpid, port))

    def peer_port(self, dpid: str, port: int) -> tuple[str, int] | None:
        return self._port_peers.get((dpid, port))

    # -- routing ------------------------------------------------------------

    def shortest_path(self, src: str, dst: str) -> list[str]:
        """Minimal-latency dpid sequence from src to dst, inclusive.

        Equal-cost candidates are broken by the lexicographically smallest
        dpid sequence so two runs always pick the same route.
        """
        if src not in self._adjacency or dst not in self._adjacency:
            raise Unreachable(f"unknown switch in path query {src!r}->{dst!r}")
        if src == dst:
            return [src]
        heap: list[tuple[float, tuple[str, ...]]] = [(0.0, (src,))]
        settled: set[str] = set()
        while heap:
            cost, path = heapq.heappop(heap)
            node = path[-1]
            if node in settled:
                continue
            settled.add(node)
            if node == dst:
                return list(path)
            for link in self._adjacency[node]:
                peer = link.peer_of(node)
                if peer not in settled:
                    heapq.heappush(heap, (cost + link.latency_ms, path + (peer,)))
        raise Unreachable(f"no path from {src!r} to {dst!r}")

    def route(self, src: str, dst: str) -> Route:
        """The shortest path from src to dst, worked out once per pair."""
        found = self._routes.get((src, dst))
        if found is None:
            dpids = tuple(self.shortest_path(src, dst))
            # between parallel links, the fastest carries the route, the first
            # listed among equals, as shortest_path costed it
            links = tuple(
                min(
                    (l for l in self._adjacency[here] if l.peer_of(here) == there),
                    key=lambda l: l.latency_ms,
                )
                for here, there in zip(dpids, dpids[1:])
            )
            ports = tuple(map(Link.port_at, links, dpids))
            found = Route(dpids, ports, links, sum(l.latency_ms for l in links))
            self._routes[(src, dst)] = found
        return found

    def host_latency(self, a: str, b: str) -> float:
        """One-way latency between two hosts including both access cables."""
        ha, hb = self.hosts[a], self.hosts[b]
        return (
            ha.access_latency_ms
            + self.route(ha.dpid, hb.dpid).latency_ms
            + hb.access_latency_ms
        )


def order_by_distance(
    topology: Topology,
    from_attachment: tuple[str, int],
    candidates: list[tuple[str, tuple[str, int]]],
) -> list[str]:
    """Sort candidate ids nearest-first from an attachment point.

    Distance is the switch-path latency between attachment switches; ties
    fall back to the candidate id so the order is reproducible.
    """
    src = from_attachment[0]

    def key(item: tuple[str, tuple[str, int]]) -> tuple[float, str]:
        cand_id, (dpid, _port) = item
        return (topology.route(src, dpid).latency_ms, cand_id)

    return [cand_id for cand_id, _ in sorted(candidates, key=key)]
