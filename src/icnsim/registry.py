"""Registry of ICN instances and their proxies, caches, prefetchers, providers.

Each tenant gets an instance; the instance owns the network endpoints doing
the work and the provider registrations describing which traffic belongs to
it.  Matching a request against the registry is what turns a URL plus a
source address into a steering decision.
"""

from __future__ import annotations

import ipaddress
import re
from dataclasses import dataclass
from enum import Enum

from .errors import (
    AmbiguousMatch,
    DuplicateAddress,
    InvalidIcnType,
    MalformedCidr,
    MalformedPattern,
    UnknownInstance,
    UnknownSwitch,
)
from .topology import Topology, order_by_distance


class IcnType(Enum):
    PLAIN = "PLAIN"
    SVC_PREFETCH = "SVC_PREFETCH"
    DISTRIBUTED_SVC_PREFETCH = "DISTRIBUTED_SVC_PREFETCH"

    @property
    def prefetches(self) -> bool:
        return self is not IcnType.PLAIN

    @property
    def distributed(self) -> bool:
        return self is IcnType.DISTRIBUTED_SVC_PREFETCH


class EndpointRole(Enum):
    PROXY = "proxy"
    CACHE = "cache"
    PREFETCHER = "prefetch"


@dataclass
class IcnInstance:
    instance_id: str
    name: str
    description: str
    icn_type: IcnType


@dataclass
class NetworkEndpoint:
    endpoint_id: str
    instance_id: str
    role: EndpointRole
    mac: str
    ip: str
    port: int
    location: tuple[str, int]
    endpoint_type: str = ""
    is_proactive: bool = False


@dataclass
class ProviderRegistration:
    provider_id: str
    instance_id: str
    name: str
    network: ipaddress.IPv4Network
    uri_pattern: str
    host_pattern: str

    def __post_init__(self) -> None:
        self._uri_re = re.compile(self.uri_pattern)
        self._host_re = re.compile(self.host_pattern)

    def matches(self, src_ip: str, host: str, path: str) -> bool:
        """Anchored on both ends: the patterns must cover the whole value."""
        try:
            addr = ipaddress.ip_address(src_ip)
        except ValueError:
            return False
        if addr not in self.network:
            return False
        return bool(self._host_re.fullmatch(host)) and bool(self._uri_re.fullmatch(path))


class IcnRegistry:
    """Instances, endpoints and providers, each kept once, keyed by id.

    An endpoint or provider names its instance; dicts keep registration
    order, so an instance's members come back in the order they arrived.
    Not thread-safe: the owner (``IcnController``) serialises every access.
    """

    def __init__(self, topology: Topology | None = None):
        self.topology = topology
        self.instances: dict[str, IcnInstance] = {}
        self.endpoints: dict[str, NetworkEndpoint] = {}
        self.providers: dict[str, ProviderRegistration] = {}
        self._counters = {"icn": 0, "proxy": 0, "cache": 0, "prefetch": 0, "provider": 0}

    def _next_id(self, kind: str) -> str:
        self._counters[kind] += 1
        return f"{kind}-{self._counters[kind]:04d}"

    # -- creation -----------------------------------------------------------

    def create_instance(self, name: str, description: str, icn_type: str | IcnType) -> IcnInstance:
        if isinstance(icn_type, str):
            try:
                icn_type = IcnType(icn_type)
            except ValueError:
                allowed = ", ".join(t.value for t in IcnType)
                raise InvalidIcnType(f"unknown icn type {icn_type!r}; expected one of: {allowed}") from None
        instance = IcnInstance(self._next_id("icn"), name, description, icn_type)
        self.instances[instance.instance_id] = instance
        return instance

    def _require_instance(self, instance_id: str) -> IcnInstance:
        try:
            return self.instances[instance_id]
        except KeyError:
            raise UnknownInstance(f"no instance {instance_id!r}") from None

    def register_endpoint(
        self,
        instance_id: str,
        role: EndpointRole | str,
        mac: str,
        ip: str,
        port: int,
        dpid: str,
        switch_port: int,
        endpoint_type: str = "",
        is_proactive: bool = False,
    ) -> NetworkEndpoint:
        role = EndpointRole(role) if isinstance(role, str) else role
        self._require_instance(instance_id)
        if self.topology is not None and dpid not in self.topology.switches:
            raise UnknownSwitch(f"switch {dpid!r} is not part of the topology")
        for other in self.endpoints.values():
            if (
                other.instance_id == instance_id
                and other.role is role
                and (other.ip, other.port) == (ip, port)
            ):
                raise DuplicateAddress(f"{role.value} at {ip}:{port} already registered")
        endpoint = NetworkEndpoint(
            endpoint_id=self._next_id(role.value),
            instance_id=instance_id,
            role=role,
            mac=mac.lower(),
            ip=ip,
            port=int(port),
            location=(dpid, int(switch_port)),
            endpoint_type=endpoint_type,
            is_proactive=bool(is_proactive),
        )
        self.endpoints[endpoint.endpoint_id] = endpoint
        return endpoint

    def register_provider(
        self,
        instance_id: str,
        name: str,
        network: str,
        uri_pattern: str,
        host_pattern: str,
    ) -> ProviderRegistration:
        self._require_instance(instance_id)
        try:
            parsed = ipaddress.ip_network(network, strict=False)
        except ValueError as exc:
            raise MalformedCidr(f"bad network {network!r}: {exc}") from None
        for pattern in (uri_pattern, host_pattern):
            try:
                re.compile(pattern)
            except re.error as exc:
                raise MalformedPattern(f"bad pattern {pattern!r}: {exc}") from None
        provider = ProviderRegistration(
            provider_id=self._next_id("provider"),
            instance_id=instance_id,
            name=name,
            network=parsed,
            uri_pattern=uri_pattern,
            host_pattern=host_pattern,
        )
        self.providers[provider.provider_id] = provider
        return provider

    # -- deletion -----------------------------------------------------------

    def delete_instance(self, instance_id: str) -> None:
        self._require_instance(instance_id)
        for members in (self.endpoints, self.providers):
            for member_id in [k for k, m in members.items() if m.instance_id == instance_id]:
                del members[member_id]
        del self.instances[instance_id]

    def delete_endpoint(self, endpoint_id: str) -> None:
        if self.endpoints.pop(endpoint_id, None) is None:
            raise UnknownInstance(f"no endpoint {endpoint_id!r}")

    def delete_provider(self, provider_id: str) -> None:
        if self.providers.pop(provider_id, None) is None:
            raise UnknownInstance(f"no provider {provider_id!r}")

    # -- queries ------------------------------------------------------------

    def match_request(
        self, src_ip: str, host: str, path: str
    ) -> tuple[IcnInstance, ProviderRegistration] | None:
        """Find the instance responsible for a request, or None.

        Within one instance the longest network prefix wins, then the lowest
        provider id; a match spread across different instances is a
        configuration problem and raises.
        """
        matches: list[ProviderRegistration] = []
        for pid in sorted(self.providers):
            provider = self.providers[pid]
            if provider.matches(src_ip, host, path):
                matches.append(provider)
        if not matches:
            return None
        instance_ids = {p.instance_id for p in matches}
        if len(instance_ids) > 1:
            raise AmbiguousMatch(
                f"request {host}{path} from {src_ip} matches instances {sorted(instance_ids)}"
            )
        best = min(matches, key=lambda p: (-p.network.prefixlen, p.provider_id))
        return self.instances[best.instance_id], best

    def instance_endpoints(self, instance_id: str, role: EndpointRole) -> list[NetworkEndpoint]:
        """The instance's endpoints in one role, in registration order."""
        self._require_instance(instance_id)
        return [
            ep for ep in self.endpoints.values() if ep.instance_id == instance_id and ep.role is role
        ]

    def ordered_caches(
        self, instance_id: str, from_attachment: tuple[str, int] | None = None
    ) -> list[NetworkEndpoint]:
        """Caches of an instance nearest-first, registration order as fallback."""
        caches = self.instance_endpoints(instance_id, EndpointRole.CACHE)
        if from_attachment is None or self.topology is None:
            return caches
        order = order_by_distance(
            self.topology, from_attachment, [(c.endpoint_id, c.location) for c in caches]
        )
        by_id = {c.endpoint_id: c for c in caches}
        return [by_id[eid] for eid in order]

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "instances": [
                {
                    "instance_id": inst.instance_id,
                    "name": inst.name,
                    "description": inst.description,
                    "type": inst.icn_type.value,
                }
                for _, inst in sorted(self.instances.items())
            ],
            "endpoints": [
                {
                    "endpoint_id": ep.endpoint_id,
                    "instance": ep.instance_id,
                    "role": ep.role.value,
                    "mac": ep.mac,
                    "ip": ep.ip,
                    "port": ep.port,
                    "location": {"dpid": ep.location[0], "port": ep.location[1]},
                    "type": ep.endpoint_type,
                    "isProactive": ep.is_proactive,
                }
                for _, ep in sorted(self.endpoints.items())
            ],
            "providers": [
                {
                    "provider_id": p.provider_id,
                    "instance": p.instance_id,
                    "name": p.name,
                    "network": str(p.network),
                    "uripattern": p.uri_pattern,
                    "hostpattern": p.host_pattern,
                }
                for _, p in sorted(self.providers.items())
            ],
        }
