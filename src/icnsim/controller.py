"""Control application: management API, steering decisions, prefetch fan-out.

The controller owns the registry and the flow manager.  A proxy notification
(one per redirected session) is answered with the address the proxy must dial
plus, behind the scenes, the flow rules that will divert that dial onto the
chosen cache.  Prefetch-capable instances additionally get their manifests
ingested and upcoming segments pushed toward caches.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Protocol

from . import mpd as mpdmod
from .errors import DuplicateAddress, IcnError, MpdError, UnknownInstance
from .flows import FlowManager, PathInstallation
from .mpd import MpdManifest, UrlKind, classify_url, is_mpd_url, parse_mpd
from .prefetch import AllocationMap, PlannedSpans, allocate_layers, plan_prefetch
from .proxy import ProxyRequestNotification
from .registry import EndpointRole, IcnInstance, IcnRegistry, NetworkEndpoint
from .topology import Host, Topology

MANAGEMENT_PATHS = (
    "onos/icn/icn",
    "onos/icn/proxy",
    "onos/icn/prefetch",
    "onos/icn/cache",
    "onos/icn/provider",
)
PROXY_REQUEST_PATH = "onos/icn/proxyrequest"


class ControlHooks(Protocol):
    """Environment services: the simulator and the live service differ only here."""

    def now_ms(self) -> float: ...

    def activate_installation(self, installation: PathInstallation) -> None: ...

    def fetch_mpd(
        self, url_path: str, hostname: str, done: Callable[[MpdManifest | None], None]
    ) -> None: ...

    def dispatch_prefetch(self, prefetcher: NetworkEndpoint, command) -> bool: ...

    def log(self, kind: str, payload: dict) -> None: ...


class ImmediateHooks:
    """Service-mode default: everything takes effect synchronously."""

    def __init__(
        self,
        flow_manager: FlowManager | None = None,
        fetcher: Callable[[str, str], bytes | None] | None = None,
    ):
        self._flows = flow_manager
        self._fetcher = fetcher

    def now_ms(self) -> float:
        return 0.0

    def activate_installation(self, installation: PathInstallation) -> None:
        if self._flows is not None:
            self._flows.activate(installation)

    def fetch_mpd(
        self, url_path: str, hostname: str, done: Callable[[MpdManifest | None], None]
    ) -> None:
        """Parse what the fetcher returns; no payload or one that fails to parse is ``None``."""
        payload = self._fetcher(url_path, hostname) if self._fetcher else None
        manifest = None
        if payload is not None:
            try:
                manifest = parse_mpd(payload, url_path)
            except MpdError:
                pass
        done(manifest)

    def dispatch_prefetch(self, prefetcher: NetworkEndpoint, command) -> bool:
        return False

    def log(self, kind: str, payload: dict) -> None:
        pass


@dataclass
class SteeringResponse:
    """What the proxy hears back: dial this address, the network does the rest."""

    decision_token: str
    connect_ip: str
    connect_port: int
    default_gateway: bool = False
    cache_id: str | None = None
    instance_id: str | None = None
    installation: PathInstallation | None = None


@dataclass
class SteeringDeferred:
    """Decision cannot be made yet; ask again once the manifest is ready."""

    ready_at_ms: float


@dataclass
class InstanceState:
    manifests: dict[str, MpdManifest] = field(default_factory=dict)
    pending_manifests: set[str] = field(default_factory=set)
    manifest_ready_at: dict[str, float] = field(default_factory=dict)
    allocation: AllocationMap | None = None
    planned: dict[tuple[str, str], PlannedSpans] = field(default_factory=dict)  # by (viewer ip, mpd path)


def endpoint_host(endpoint: NetworkEndpoint) -> Host:
    return Host(
        host_id=endpoint.endpoint_id,
        mac=endpoint.mac,
        ip=endpoint.ip,
        dpid=endpoint.location[0],
        port=endpoint.location[1],
    )


class IcnController:
    def __init__(
        self,
        registry: IcnRegistry,
        flow_manager: FlowManager,
        hooks: ControlHooks | None = None,
        lookahead: int | None = None,
    ):
        self.registry = registry
        self.flows = flow_manager
        self.hooks = hooks or ImmediateHooks(flow_manager)
        self.lookahead = lookahead
        self.state: dict[str, InstanceState] = {}
        self._token_seq = 0
        # Live handler threads share one controller and its registry; every
        # entry point holds this lock, except while prefetch commands go out.
        # Reentrant, so a hook may call back into the controller.
        self._lock = threading.RLock()

    @property
    def topology(self) -> Topology:
        return self.flows.topology

    def _state(self, instance_id: str) -> InstanceState:
        return self.state.setdefault(instance_id, InstanceState())

    def _token(self, suffix: str) -> str:
        self._token_seq += 1
        return f"d{self._token_seq:06d}:{suffix}"

    # -- management interface -------------------------------------------------

    def handle_management_request(self, method: str, path: str, params: dict) -> tuple[int, dict]:
        """REST-shaped entry point shared by the HTTP service and the simulator.

        Every verb runs under the controller lock, reads of the registry included.
        """
        path = path.strip("/")
        verb = method.upper()
        try:
            with self._lock:
                if verb == "GET":
                    if path == "onos/icn/icn":
                        return 200, self.registry.to_dict()
                    return 404, {"error": "UnknownPath", "message": path}
                if verb == "POST":
                    return self._handle_create(path, params)
                if verb == "DELETE":
                    return self._handle_delete(path)
        except IcnError as exc:
            if isinstance(exc, UnknownInstance):
                status = 404
            elif isinstance(exc, DuplicateAddress):
                status = 409
            else:
                status = 400
            return status, {"error": type(exc).__name__, "message": str(exc)}
        except (KeyError, TypeError, ValueError) as exc:
            # a request missing fields must come back as 400, not sever the socket
            return 400, {"error": "BadRequest", "message": f"{type(exc).__name__}: {exc}"}
        return 405, {"error": "MethodNotAllowed", "message": f"{method} {path}"}

    def _handle_create(self, path: str, params: dict) -> tuple[int, dict]:
        if path == "onos/icn/icn":
            instance = self.registry.create_instance(
                params["name"], params.get("description", ""), params["type"]
            )
            return 201, {"id": instance.instance_id}
        if path in ("onos/icn/proxy", "onos/icn/prefetch", "onos/icn/cache"):
            role = {
                "onos/icn/proxy": EndpointRole.PROXY,
                "onos/icn/prefetch": EndpointRole.PREFETCHER,
                "onos/icn/cache": EndpointRole.CACHE,
            }[path]
            port_key = {"onos/icn/proxy": "proxy_port", "onos/icn/prefetch": "prefetch_port", "onos/icn/cache": "port"}[path]
            location = params["location"]
            endpoint = self.registry.register_endpoint(
                params["instance"],
                role,
                params["mac"],
                params["ip"],
                int(params[port_key]),
                location["dpid"],
                int(location["port"]),
                params.get("type", ""),
                bool(params.get("isProactive", False)),
            )
            self._after_endpoint_registered(endpoint)
            return 201, {"id": endpoint.endpoint_id}
        if path == "onos/icn/provider":
            provider = self.registry.register_provider(
                params["instance"],
                params["name"],
                params["network"],
                params["uripattern"],
                params["hostpattern"],
            )
            return 201, {"id": provider.provider_id}
        return 404, {"error": "UnknownPath", "message": path}

    def _handle_delete(self, path: str) -> tuple[int, dict]:
        parts = path.split("/")
        if len(parts) != 4 or "/".join(parts[:3]) not in MANAGEMENT_PATHS:
            return 404, {"error": "UnknownPath", "message": path}
        kind, target = parts[2], parts[3]
        if kind == "icn":
            self.registry.delete_instance(target)
        elif kind == "provider":
            self.registry.delete_provider(target)
        else:
            self.registry.delete_endpoint(target)
        return 200, {"id": target}

    def _after_endpoint_registered(self, endpoint: NetworkEndpoint) -> None:
        # Caches and proxies talk upstream on port 80 themselves; keep their
        # egress out of any redirect trap.
        if endpoint.role in (EndpointRole.PROXY, EndpointRole.CACHE):
            self.flows.install_passthrough(endpoint.ip)
        if endpoint.role is EndpointRole.PROXY and endpoint.is_proactive:
            self.flows.install_proactive_redirect(endpoint_host(endpoint), endpoint.port)

    # -- data plane events -----------------------------------------------------

    def handle_packet_in(self, src_ip: str, dst_ip: str, dst_port: int) -> list[PathInstallation]:
        """First packet of a flow with no rules: redirect it or route it."""
        with self._lock:
            installations: list[PathInstallation] = []
            src_host = self.topology.host_by_ip(src_ip)
            dst_host = self.topology.host_by_ip(dst_ip)
            if src_host is None:
                return installations
            infrastructure = {
                ep.ip
                for ep in self.registry.endpoints.values()
                if ep.role in (EndpointRole.PROXY, EndpointRole.CACHE)
            }
            proxies = [
                ep for ep in sorted(self.registry.endpoints.values(), key=lambda e: e.endpoint_id)
                if ep.role is EndpointRole.PROXY
            ]
            if dst_port == 80 and proxies and src_ip not in infrastructure:
                nearest = min(
                    proxies,
                    key=lambda ep: (
                        self.topology.switch_path_latency(src_host.dpid, ep.location[0]),
                        ep.endpoint_id,
                    ),
                )
                dst_mac = dst_host.mac if dst_host else "00:00:00:00:00:00"
                installation = self.flows.install_redirect_to_proxy(
                    src_host,
                    (dst_mac, dst_ip, dst_port),
                    endpoint_host(nearest),
                    nearest.port,
                )
                installations.append(installation)
            elif dst_host is not None:
                installations.append(self.flows.install_default_route(src_host, dst_host))
            for installation in installations:
                self.hooks.activate_installation(installation)
            return installations

    # -- steering ----------------------------------------------------------------

    def handle_proxy_request(
        self, notification: ProxyRequestNotification, proxy_id: str | None = None
    ) -> SteeringResponse | SteeringDeferred:
        """Answer one delayed-binding notification with a dial target.

        The decision and every state change, prefetch planning included, are
        made under the lock.  The planned commands go out after it is released,
        since a live prefetcher may take seconds to take them, and the session
        flows are activated after that, in the order the simulator draws its
        control-plane delays.
        """
        with self._lock:
            outcome, prefetch = self._steer(notification, proxy_id)
        if prefetch is not None:
            self._dispatch_prefetch(*prefetch)
        if isinstance(outcome, SteeringResponse) and outcome.installation is not None:
            with self._lock:
                self.hooks.activate_installation(outcome.installation)
        return outcome

    def _steer(
        self, notification: ProxyRequestNotification, proxy_id: str | None
    ) -> tuple[SteeringResponse | SteeringDeferred, tuple[NetworkEndpoint, list] | None]:
        """The answer plus the prefetch commands it planned, if any; the caller holds the lock."""
        matched = self.registry.match_request(
            notification.source_ip, notification.hostname, notification.uri
        )
        if matched is None:
            return self._default_gateway_response(notification), None
        instance, _provider = matched
        caches = self.registry.instance_endpoints(instance.instance_id, EndpointRole.CACHE)
        if not caches:
            return self._default_gateway_response(notification), None

        state = self._state(instance.instance_id)
        path = mpdmod._url_path(notification.uri)
        if instance.icn_type.prefetches and is_mpd_url(path):
            self._ingest_mpd(instance, state, notification)
        manifest, match = self._classify(state, path)

        if instance.icn_type.distributed and match.kind is UrlKind.SEGMENT:
            cache = self._allocation_cache(instance, state, match.repr_id, notification)
        elif (
            instance.icn_type.distributed
            and match.kind is UrlKind.UNKNOWN
            and state.pending_manifests
        ):
            # Cannot tell which layer this is yet; deciding now could pin a
            # layer to the wrong cache, so hold the answer until analysis ends.
            now = self.hooks.now_ms()
            ready = max(state.manifest_ready_at.get(p, now + 20.0) for p in state.pending_manifests)
            return SteeringDeferred(ready_at_ms=max(ready, now + 1.0)), None
        else:
            cache = self._nearest_cache(instance, notification)

        # Staged first: a session that fails to install plans no prefetch.
        installation = self._install_session_flows(instance, notification, cache, proxy_id)
        prefetch = None
        if (
            instance.icn_type.prefetches
            and manifest is not None
            and match.kind is UrlKind.SEGMENT
            and not self._from_prefetcher(instance, notification.source_ip)
        ):
            prefetch = self._plan_fan_out(instance, state, manifest, match, notification)
        response = SteeringResponse(
            decision_token=self._token(f"{instance.instance_id}/{cache.endpoint_id}"),
            connect_ip=notification.destination_ip,
            connect_port=notification.destination_port,
            cache_id=cache.endpoint_id,
            instance_id=instance.instance_id,
            installation=installation,
        )
        return response, prefetch

    def _default_gateway_response(self, notification: ProxyRequestNotification) -> SteeringResponse:
        return SteeringResponse(
            decision_token=self._token("default-gateway"),
            connect_ip=notification.destination_ip,
            connect_port=notification.destination_port,
            default_gateway=True,
        )

    def _classify(self, state: InstanceState, path: str):
        for manifest in state.manifests.values():
            match = classify_url(manifest, path)
            if match.kind is not UrlKind.UNKNOWN:
                return manifest, match
        return None, mpdmod.UrlMatch(UrlKind.UNKNOWN)

    def _client_attachment(self, source_ip: str) -> tuple[str, int] | None:
        host = self.topology.host_by_ip(source_ip)
        return host.attachment if host else None

    def _nearest_cache(self, instance: IcnInstance, notification: ProxyRequestNotification) -> NetworkEndpoint:
        ordered = self.registry.ordered_caches(
            instance.instance_id, self._client_attachment(notification.source_ip)
        )
        return ordered[0]

    def _allocation_cache(
        self,
        instance: IcnInstance,
        state: InstanceState,
        repr_id: int,
        notification: ProxyRequestNotification,
    ) -> NetworkEndpoint:
        cache_id = state.allocation.cache_for(repr_id) if state.allocation else None
        if cache_id is None:
            return self._nearest_cache(instance, notification)
        return self.registry.endpoints[cache_id]

    def _from_prefetcher(self, instance: IcnInstance, source_ip: str) -> bool:
        prefetchers = self.registry.instance_endpoints(instance.instance_id, EndpointRole.PREFETCHER)
        return any(ep.ip == source_ip for ep in prefetchers)

    def _ingest_mpd(
        self, instance: IcnInstance, state: InstanceState, notification: ProxyRequestNotification
    ) -> None:
        """Fetch and analyze the manifest in parallel with the client download."""
        path = mpdmod._url_path(notification.uri)
        if path in state.manifests or path in state.pending_manifests:
            return
        state.pending_manifests.add(path)
        client_ip = notification.source_ip

        def done(manifest: MpdManifest | None) -> None:
            state.pending_manifests.discard(path)
            state.manifest_ready_at.pop(path, None)
            if manifest is None:
                self.hooks.log("ManifestReady", {"path": path, "ok": False})
                return
            state.manifests[path] = manifest
            if instance.icn_type.distributed:
                ordered = self.registry.ordered_caches(
                    instance.instance_id, self._client_attachment(client_ip)
                )
                state.allocation = allocate_layers(
                    len(manifest.representations), [c.endpoint_id for c in ordered]
                )
            self.hooks.log(
                "ManifestReady",
                {
                    "path": path,
                    "ok": True,
                    "representations": len(manifest.representations),
                    "segments": manifest.segment_count,
                },
            )

        self.hooks.fetch_mpd(path, notification.hostname, done)

    def note_manifest_eta(self, instance_id: str, path: str, ready_at_ms: float) -> None:
        """Let deferral know when analysis of a pending manifest will finish."""
        self._state(instance_id).manifest_ready_at[path] = ready_at_ms

    def _plan_fan_out(
        self,
        instance: IcnInstance,
        state: InstanceState,
        manifest: MpdManifest,
        match,
        notification: ProxyRequestNotification,
    ) -> tuple[NetworkEndpoint, list] | None:
        prefetchers = self.registry.instance_endpoints(instance.instance_id, EndpointRole.PREFETCHER)
        if not prefetchers:
            return None
        plan = plan_prefetch(
            manifest,
            match.repr_id,
            match.segment_number,
            server=notification.hostname,
            port=notification.destination_port,
            lookahead=self.lookahead,
            planned=state.planned.setdefault((notification.source_ip, manifest.mpd_path), PlannedSpans()),
        )
        return prefetchers[0], plan.commands

    def _dispatch_prefetch(self, prefetcher: NetworkEndpoint, commands: list) -> None:
        for command in commands:
            if not self.hooks.dispatch_prefetch(prefetcher, command):
                self.hooks.log(
                    "PrefetchIssued",
                    {"uri": command.uri, "ok": False, "prefetcher": prefetcher.endpoint_id},
                )

    def _install_session_flows(
        self,
        instance: IcnInstance,
        notification: ProxyRequestNotification,
        cache: NetworkEndpoint,
        proxy_id: str | None,
    ) -> PathInstallation | None:
        proxies = self.registry.instance_endpoints(instance.instance_id, EndpointRole.PROXY)
        if not proxies:
            return None
        if proxy_id is not None:
            proxy = self.registry.endpoints[proxy_id]
        else:
            proxy = proxies[0]
        dst_host = self.topology.host_by_ip(notification.destination_ip)
        dst_mac = dst_host.mac if dst_host else "00:00:00:00:00:00"
        # The proxy reuses the client source port upstream, so the rules can
        # be staged before it even opens the socket.
        session_key = (
            proxy.ip,
            notification.source_port,
            notification.destination_ip,
            notification.destination_port,
        )
        return self.flows.install_proxy_to_cache(
            session_key,
            endpoint_host(proxy),
            (dst_mac, notification.destination_ip, notification.destination_port),
            endpoint_host(cache),
            cache.port,
        )
