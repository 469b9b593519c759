"""Flow rules, header rewriting and the simulated packet walk.

Steering works the way an OpenFlow controller would do it: the first hop
rewrites destination headers toward the proxy or cache, the last hop of the
return path restores the original values, and intermediate switches only
forward.  A packet walk replays a header through the tables so tests (and
the simulator itself) can check what each endpoint actually observes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

from .errors import DuplicateSession
from .topology import Host, Link, Topology

PRIORITY_SESSION = 100
PRIORITY_PASSTHROUGH = 60
PRIORITY_PROACTIVE = 50
PRIORITY_DEFAULT_GW = 10

# Matches OFPP_NORMAL: hand the packet back to plain destination routing.
OUTPUT_NORMAL = -1

MATCH_FIELDS = ("in_port", "eth_src", "eth_dst", "ip_src", "ip_dst", "ip_proto", "tcp_src", "tcp_dst")
REWRITE_FIELDS = ("eth_src", "eth_dst", "ip_src", "ip_dst", "tcp_src", "tcp_dst")


@dataclass(frozen=True)
class SetField:
    field: str
    value: object

    def __post_init__(self) -> None:
        if self.field not in REWRITE_FIELDS:
            raise ValueError(f"cannot rewrite header field {self.field!r}")


@dataclass(frozen=True)
class Output:
    port: int


Action = SetField | Output


@dataclass(frozen=True)
class FlowRule:
    dpid: str
    priority: int
    match: tuple[tuple[str, object], ...]
    actions: tuple[Action, ...]

    def __post_init__(self) -> None:
        for key, _ in self.match:
            if key not in MATCH_FIELDS:
                raise ValueError(f"unknown match field {key!r}")
        outputs = [a for a in self.actions if isinstance(a, Output)]
        if len(outputs) != 1 or not isinstance(self.actions[-1], Output):
            raise ValueError("rule needs exactly one Output action, in last position")

    def matches(self, header: dict[str, object], in_port: int) -> bool:
        for key, value in self.match:
            observed = in_port if key == "in_port" else header.get(key)
            if observed != value:
                return False
        return True


def rule(dpid: str, priority: int, match: dict[str, object], actions: list[Action]) -> FlowRule:
    return FlowRule(dpid, priority, tuple(sorted(match.items())), tuple(actions))


class InstallState(Enum):
    PENDING = "pending"
    ACTIVE = "active"
    REMOVED = "removed"


@dataclass
class PathInstallation:
    """The forward/reverse rule pair covering one steered session."""

    session_key: tuple
    forward_rules: list[FlowRule]
    reverse_rules: list[FlowRule]
    state: InstallState = InstallState.PENDING

    @property
    def dpids(self) -> list[str]:
        seen: list[str] = []
        for r in self.forward_rules:
            if r.dpid not in seen:
                seen.append(r.dpid)
        return seen


class FlowManager:
    """Owns the per-switch flow tables and the steering installations."""

    def __init__(self, topology: Topology):
        self.topology = topology
        self._tables: dict[str, list[tuple[int, FlowRule]]] = {s: [] for s in topology.switches}
        self._seq = itertools.count()
        self.installations: dict[tuple, PathInstallation] = {}

    # -- table plumbing -----------------------------------------------------

    def _insert(self, flow_rule: FlowRule) -> None:
        self._tables[flow_rule.dpid].append((next(self._seq), flow_rule))

    def _evict(self, flow_rule: FlowRule) -> None:
        self._tables[flow_rule.dpid] = [
            (seq, r) for seq, r in self._tables[flow_rule.dpid] if r is not flow_rule
        ]

    def lookup(self, dpid: str, header: dict[str, object], in_port: int) -> FlowRule | None:
        """Highest priority wins, then the most specific match, then age."""
        best = None
        best_key = None
        for seq, r in self._tables[dpid]:
            if r.matches(header, in_port):
                key = (-r.priority, -len(r.match), seq)
                if best_key is None or key < best_key:
                    best, best_key = r, key
        return best

    def activate(self, installation: PathInstallation) -> None:
        if installation.state is not InstallState.PENDING:
            return
        for r in installation.forward_rules + installation.reverse_rules:
            self._insert(r)
        installation.state = InstallState.ACTIVE

    def teardown(self, installation: PathInstallation) -> None:
        """Remove both directions; safe to call twice."""
        if installation.state is InstallState.REMOVED:
            return
        if installation.state is InstallState.ACTIVE:
            for r in installation.forward_rules + installation.reverse_rules:
                self._evict(r)
        installation.state = InstallState.REMOVED
        self.installations.pop(installation.session_key, None)

    # -- rule builders ------------------------------------------------------

    def _forward_chain(
        self,
        path: list[str],
        first_match: dict[str, object],
        rewrites: list[SetField],
        rewritten_match: dict[str, object],
        final_port: int,
        priority: int,
    ) -> list[FlowRule]:
        """First hop rewrites and forwards, later hops only forward."""
        rules = []
        for idx, dpid in enumerate(path):
            last = idx == len(path) - 1
            port = final_port if last else self.topology.egress_port(dpid, path[idx + 1])
            if idx == 0:
                rules.append(rule(dpid, priority, first_match, [*rewrites, Output(port)]))
            else:
                rules.append(rule(dpid, priority, rewritten_match, [Output(port)]))
        return rules

    def install_redirect_to_proxy(
        self,
        client: Host,
        original_dst: tuple[str, str, int],
        proxy: Host,
        proxy_port: int,
    ) -> PathInstallation:
        """Steer client traffic for one original destination into the proxy.

        The client keeps addressing the original (mac, ip, port); the reverse
        rules restore those values on the way back so it never learns a proxy
        was involved.
        """
        dst_mac, dst_ip, dst_port = original_dst
        fwd_path = self.topology.shortest_path(client.dpid, proxy.dpid)
        forward = self._forward_chain(
            fwd_path,
            first_match={"ip_src": client.ip, "ip_dst": dst_ip, "ip_proto": 6, "tcp_dst": dst_port},
            rewrites=[SetField("eth_dst", proxy.mac), SetField("ip_dst", proxy.ip), SetField("tcp_dst", proxy_port)],
            rewritten_match={"ip_src": client.ip, "ip_dst": proxy.ip, "ip_proto": 6, "tcp_dst": proxy_port},
            final_port=proxy.port,
            priority=PRIORITY_SESSION,
        )
        rev_path = self.topology.shortest_path(proxy.dpid, client.dpid)
        reverse = self._forward_chain(
            rev_path,
            first_match={"ip_src": proxy.ip, "ip_dst": client.ip, "ip_proto": 6, "tcp_src": proxy_port},
            rewrites=[SetField("eth_src", dst_mac), SetField("ip_src", dst_ip), SetField("tcp_src", dst_port)],
            rewritten_match={"ip_src": dst_ip, "ip_dst": client.ip, "ip_proto": 6, "tcp_src": dst_port},
            final_port=client.port,
            priority=PRIORITY_SESSION,
        )
        # Source port is deliberately absent: one redirect covers every
        # session the client opens toward this destination.
        key = (client.ip, 0, dst_ip, dst_port)
        installation = PathInstallation(key, forward, reverse)
        self.installations[key] = installation
        return installation

    def install_proxy_to_cache(
        self,
        session_key: tuple[str, int, str, int],
        proxy: Host,
        virtual_dst: tuple[str, str, int],
        cache: Host,
        cache_port: int,
    ) -> PathInstallation:
        """Rewrite one upstream proxy connection onto a cache.

        The proxy dials the original destination; these rules divert that
        exact five-tuple to the cache and disguise the cache as the original
        server on the way back.
        """
        if session_key in self.installations:
            existing = self.installations[session_key]
            if existing.state is not InstallState.REMOVED:
                raise DuplicateSession(f"session {session_key} already installed")
        src_ip, src_port, dst_ip, dst_port = session_key
        dst_mac, vdst_ip, vdst_port = virtual_dst
        assert (dst_ip, dst_port) == (vdst_ip, vdst_port)
        fwd_path = self.topology.shortest_path(proxy.dpid, cache.dpid)
        forward = self._forward_chain(
            fwd_path,
            first_match={"ip_src": src_ip, "tcp_src": src_port, "ip_dst": dst_ip, "ip_proto": 6, "tcp_dst": dst_port},
            rewrites=[SetField("eth_dst", cache.mac), SetField("ip_dst", cache.ip), SetField("tcp_dst", cache_port)],
            rewritten_match={"ip_src": src_ip, "tcp_src": src_port, "ip_dst": cache.ip, "ip_proto": 6, "tcp_dst": cache_port},
            final_port=cache.port,
            priority=PRIORITY_SESSION,
        )
        rev_path = self.topology.shortest_path(cache.dpid, proxy.dpid)
        reverse = self._forward_chain(
            rev_path,
            first_match={"ip_src": cache.ip, "tcp_src": cache_port, "ip_dst": src_ip, "ip_proto": 6, "tcp_dst": src_port},
            rewrites=[SetField("eth_src", dst_mac), SetField("ip_src", dst_ip), SetField("tcp_src", dst_port)],
            rewritten_match={"ip_src": dst_ip, "tcp_src": dst_port, "ip_dst": src_ip, "ip_proto": 6, "tcp_dst": src_port},
            final_port=proxy.port,
            priority=PRIORITY_SESSION,
        )
        installation = PathInstallation(session_key, forward, reverse)
        self.installations[session_key] = installation
        return installation

    def install_proactive_redirect(self, proxy: Host, proxy_port: int) -> PathInstallation:
        """Pre-position a coarse port-80 redirect toward a proxy everywhere.

        Session rules outrank these, and pass-through rules keep the ICN
        machinery itself (caches pulling from origins, the proxy dialing
        upstream) out of the trap.
        """
        rules = []
        for dpid in self.topology.switches:
            if dpid == proxy.dpid:
                port = proxy.port
            else:
                path = self.topology.shortest_path(dpid, proxy.dpid)
                port = self.topology.egress_port(dpid, path[1])
            rules.append(
                rule(
                    dpid,
                    PRIORITY_PROACTIVE,
                    {"ip_proto": 6, "tcp_dst": 80},
                    [SetField("eth_dst", proxy.mac), SetField("ip_dst", proxy.ip), SetField("tcp_dst", proxy_port), Output(port)],
                )
            )
        key = ("proactive", proxy.ip, proxy_port)
        installation = PathInstallation(key, rules, [])
        self.installations[key] = installation
        self.activate(installation)
        return installation

    def install_passthrough(self, source_ip: str) -> None:
        """Let traffic from an infrastructure address bypass redirects."""
        key = ("passthrough", source_ip)
        if key in self.installations:
            return
        rules = [
            rule(dpid, PRIORITY_PASSTHROUGH, {"ip_src": source_ip, "ip_proto": 6}, [Output(OUTPUT_NORMAL)])
            for dpid in self.topology.switches
        ]
        installation = PathInstallation(key, rules, [])
        self.installations[key] = installation
        self.activate(installation)

    def install_default_route(self, a: Host, b: Host) -> PathInstallation:
        """Plain forwarding for one host pair, both directions."""
        key = (a.ip, 0, b.ip, 0)
        if key in self.installations and self.installations[key].state is not InstallState.REMOVED:
            return self.installations[key]
        fwd_path = self.topology.shortest_path(a.dpid, b.dpid)
        forward = self._forward_chain(
            fwd_path,
            first_match={"ip_src": a.ip, "ip_dst": b.ip},
            rewrites=[],
            rewritten_match={"ip_src": a.ip, "ip_dst": b.ip},
            final_port=b.port,
            priority=PRIORITY_DEFAULT_GW,
        )
        reverse = self._forward_chain(
            list(reversed(fwd_path)),
            first_match={"ip_src": b.ip, "ip_dst": a.ip},
            rewrites=[],
            rewritten_match={"ip_src": b.ip, "ip_dst": a.ip},
            final_port=a.port,
            priority=PRIORITY_DEFAULT_GW,
        )
        installation = PathInstallation(key, forward, reverse)
        self.installations[key] = installation
        return installation

    # -- packet walk --------------------------------------------------------

    def packet_walk(self, start: Host, header: dict[str, object]) -> "WalkResult":
        """Push a header from a host through the tables until it lands somewhere."""
        hdr = dict(header)
        dpid, in_port = start.attachment
        dpid_path = [dpid]
        links: list[Link] = []
        for _ in range(4 * len(self.topology.switches) + 4):
            matched = self.lookup(dpid, hdr, in_port)
            if matched is not None:
                for action in matched.actions[:-1]:
                    assert isinstance(action, SetField)
                    hdr[action.field] = action.value
                out_port = matched.actions[-1].port
                if out_port == OUTPUT_NORMAL:
                    step = self._default_step(dpid, hdr)
                else:
                    step = out_port
            else:
                step = self._default_step(dpid, hdr)
            if step is None:
                return WalkResult(None, hdr, dpid_path, links, "no-route")
            host = self.topology.host_at(dpid, step)
            if host is not None:
                return WalkResult(host.host_id, hdr, dpid_path, links, "delivered")
            peer = self.topology.peer_port(dpid, step)
            if peer is None:
                return WalkResult(None, hdr, dpid_path, links, "dangling-port")
            links.append(self.topology.link_at(dpid, step))
            dpid, in_port = peer
            dpid_path.append(dpid)
        return WalkResult(None, hdr, dpid_path, links, "loop-guard")

    def _default_step(self, dpid: str, header: dict[str, object]) -> int | None:
        """Destination-based routing used when no rule claims the packet."""
        host = self.topology.host_by_ip(str(header.get("ip_dst")))
        if host is None:
            return None
        if host.dpid == dpid:
            return host.port
        path = self.topology.shortest_path(dpid, host.dpid)
        return self.topology.egress_port(dpid, path[1])


@dataclass
class WalkResult:
    delivered_to: str | None
    header: dict[str, object]
    dpid_path: list[str]
    links: list[Link] = field(default_factory=list)
    reason: str = "delivered"


def tcp_header(src_mac: str, src_ip: str, src_port: int, dst_mac: str, dst_ip: str, dst_port: int) -> dict[str, object]:
    return {
        "eth_src": src_mac,
        "eth_dst": dst_mac,
        "ip_src": src_ip,
        "ip_dst": dst_ip,
        "ip_proto": 6,
        "tcp_src": src_port,
        "tcp_dst": dst_port,
    }
