"""Simulated data plane: a DASH client, proxies, caches and a prefetcher
drive HTTP sessions over the flow tables on one shared clock.

Latency model per GET: connection setup costs two one-way trips (SYN,
SYN-ACK), the request head rides the third, and payload drains through the
fluid transfer pools.  Controller conversations cost one interaction round
trip; rule installation lands after its own delay, so a proxy can genuinely
dial before its session rules are active and eat a retry.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from urllib.parse import urlsplit

from .cache import CacheNode, CacheResult
from .controller import IcnController, SteeringDeferred, SteeringResponse
from .errors import ConfigError
from .events import EventKind, EventLoop
from .flows import FlowManager, InstallState, PathInstallation, tcp_header
from .mpd import MpdManifest, parse_mpd, resolve_chain, _url_path
from .proxy import ProxySession, attempt_offsets
from .registry import EndpointRole, IcnRegistry, IcnType, NetworkEndpoint
from .scenario import ScenarioConfig, ScenarioKind
from .topology import Host, Topology
from .transfer import TransferManager, host_path

HTTP_PORT = 80

_ICN_TYPE_FOR_KIND = {
    ScenarioKind.EMPTY_CACHE: IcnType.PLAIN,
    ScenarioKind.FULL_CACHE: IcnType.PLAIN,
    ScenarioKind.PREFETCH: IcnType.SVC_PREFETCH,
    ScenarioKind.DISTRIBUTED_PREFETCH: IcnType.DISTRIBUTED_SVC_PREFETCH,
}


def build_catalog(manifest: MpdManifest, mpd_path: str, mpd_size: int) -> dict[str, int]:
    """Object sizes the origin will serve: bandwidth * segment duration."""
    catalog = {mpd_path: mpd_size}
    for representation in manifest.representations.values():
        size = int(representation.bandwidth * manifest.segment_duration_s / 8)
        for url in representation.segment_urls:
            catalog[url] = size
    return catalog


class SimHooks:
    """Controller side effects with controller-to-network timing attached."""

    def __init__(self, world: "SimWorld"):
        self.world = world

    def now_ms(self) -> float:
        return self.world.loop.now

    def interaction_ms(self) -> float:
        cp = self.world.config.control_params
        jitter = self.world.rng_ctrl.uniform(-cp.interaction_jitter_ms, cp.interaction_jitter_ms)
        return max(0.1, cp.interaction_ms + jitter)

    def _install_delay_ms(self) -> float:
        cp = self.world.config.control_params
        jitter = self.world.rng_ctrl.uniform(-cp.flow_install_jitter_ms, cp.flow_install_jitter_ms)
        return max(0.1, cp.flow_install_ms + jitter)

    def activate_installation(self, installation: PathInstallation) -> None:
        world = self.world
        delay = self._install_delay_ms()
        world.activation_eta[id(installation)] = world.loop.now + delay

        def do() -> None:
            world.flows.activate(installation)
            world.loop.emit(
                EventKind.FLOW_INSTALLED,
                {
                    "session": "/".join(str(part) for part in installation.session_key),
                    "dpids": installation.dpids,
                    "rules": len(installation.forward_rules) + len(installation.reverse_rules),
                },
            )

        world.loop.schedule(delay, do)

    def fetch_mpd(self, url_path: str, hostname: str, done) -> None:
        world = self.world
        origin = world.host_for_hostname(hostname)
        size = world.catalog.get(url_path)
        fetcher = world.manifest_fetcher_host()
        if origin is None or size is None or fetcher is None:
            done(None)
            return
        world.loop.emit(EventKind.ORIGIN_FETCH, {"url": url_path, "by": "controller"})
        cp = world.config.control_params

        def landed() -> None:
            analysis_ms = world.rng_prefetch.uniform(*cp.analysis_delay_s) * 1000.0
            ready = world.loop.now + analysis_ms
            for instance_id, state in world.controller.state.items():
                if url_path in state.pending_manifests:
                    world.controller.note_manifest_eta(instance_id, url_path, ready)
            payload = world.mpd_bytes if url_path == world.mpd_path else None
            world.loop.schedule(analysis_ms, lambda: done(payload))

        world.transfers.start(host_path(world.topology, origin, fetcher), size, landed)

    def dispatch_prefetch(self, prefetcher: NetworkEndpoint, command) -> bool:
        world = self.world
        runtime = world.prefetcher
        if runtime is None or runtime.endpoint_id != prefetcher.endpoint_id:
            return False
        world.loop.emit(
            EventKind.PREFETCH_ISSUED,
            {"uri": command.uri, "prefetcher": prefetcher.endpoint_id, "ok": True},
        )
        world.loop.schedule(self.interaction_ms() / 2.0, lambda: runtime.receive(command))
        return True

    def log(self, kind: str, payload: dict) -> None:
        self.world.loop.emit(EventKind(kind), payload)


class ProxyRuntime:
    def __init__(self, endpoint_id: str, host: Host, port: int, accept_queue: int):
        self.endpoint_id = endpoint_id
        self.host = host
        self.port = port
        self.accept_queue = accept_queue
        self.active_sessions = 0

    def accept(self) -> bool:
        if self.active_sessions >= self.accept_queue:
            return False
        self.active_sessions += 1
        return True

    def release(self) -> None:
        self.active_sessions -= 1


class FetchJob:
    """One HTTP GET from a requester host, steered by whatever rules exist."""

    def __init__(
        self,
        world: "SimWorld",
        requester: Host,
        url_path: str,
        hostname: str,
        *,
        role: str,
        on_done,
        dst_port: int = HTTP_PORT,
    ):
        self.world = world
        self.requester = requester
        self.url_path = url_path
        self.hostname = hostname
        self.role = role
        self.on_done = on_done
        self.dst_port = dst_port
        self.src_port = world.next_port()
        self.dst_host = world.host_for_hostname(hostname)
        if self.dst_host is None:
            raise ConfigError(f"no host serves {hostname!r}")
        self.proxy: ProxyRuntime | None = None
        self.session: ProxySession | None = None
        self.response: SteeringResponse | None = None
        self.notified_at = 0.0
        self.deferrals = 0
        self.attempt = 0
        world.ensure_pair_path(requester, self.dst_host, dst_port, self._connect)

    # -- connection establishment ---------------------------------------------

    def _syn_header(self, src: Host, src_port: int) -> dict[str, object]:
        return tcp_header(
            src.mac, src.ip, src_port, self.dst_host.mac, self.dst_host.ip, self.dst_port
        )

    def _connect(self) -> None:
        world = self.world
        walk = world.flows.packet_walk(self.requester, self._syn_header(self.requester, self.src_port))
        if walk.delivered_to is None:
            raise RuntimeError(
                f"SYN from {self.requester.host_id} to {self.dst_host.host_id} lost: {walk.reason}"
            )
        acceptor = world.topology.host(walk.delivered_to)
        one_way = world.topology.host_latency(self.requester.host_id, acceptor.host_id)
        proxy = world.proxy_runtimes.get(acceptor.ip)
        if proxy is not None:
            self.proxy = proxy
            world.loop.schedule(one_way, self._proxy_accept)
            world.loop.schedule(3.0 * one_way, self._proxy_read_head)
        else:
            # No middlebox in the way; the request head lands at the server.
            world.loop.schedule(3.0 * one_way, lambda: self._serve_at(acceptor))

    # -- delayed binding --------------------------------------------------------

    def _proxy_accept(self) -> None:
        if not self.proxy.accept():
            raise RuntimeError(f"{self.proxy.endpoint_id} accept queue overflow")
        self.world.loop.emit(
            EventKind.PROXY_ACCEPT,
            {"proxy": self.proxy.endpoint_id, "client": self.requester.ip, "sport": self.src_port},
        )

    def _proxy_read_head(self) -> None:
        world = self.world
        self.session = ProxySession(
            (self.requester.ip, self.src_port, self.dst_host.ip, self.dst_port, 6),
            self.requester.mac,
        )
        raw_head = f"GET {self.url_path} HTTP/1.1\r\nHost: {self.hostname}\r\n\r\n"
        notification = self.session.on_client_request(raw_head)
        self.notified_at = world.loop.now
        world.loop.emit(
            EventKind.PROXY_NOTIFY,
            {
                "proxy": self.proxy.endpoint_id,
                "uri": notification.uri,
                "client": notification.source_ip,
                "sport": notification.source_port,
            },
        )
        world.loop.schedule(world.hooks.interaction_ms() / 2.0, lambda: self._ask_controller(notification))

    def _ask_controller(self, notification) -> None:
        world = self.world
        outcome = world.controller.handle_proxy_request(notification, self.proxy.endpoint_id)
        if isinstance(outcome, SteeringDeferred):
            self.deferrals += 1
            delay = max(outcome.ready_at_ms - world.loop.now, 0.1)
            world.loop.schedule(delay, lambda: self._ask_controller(notification))
            return
        world.loop.schedule(world.hooks.interaction_ms() / 2.0, lambda: self._steered(outcome))

    def _steered(self, response: SteeringResponse) -> None:
        world = self.world
        self.response = response
        self.session.mark_steered()
        world.loop.emit(
            EventKind.CTRL_RESPONSE,
            {
                "proxy": self.proxy.endpoint_id,
                "client": self.requester.ip,
                "sport": self.src_port,
                "elapsed_ms": round(world.loop.now - self.notified_at, 6),
                "decision": response.decision_token,
                "cache": response.cache_id,
                "default_gateway": response.default_gateway,
                "deferrals": self.deferrals,
            },
        )
        offsets = attempt_offsets(
            initial_ms=world.config.proxy_params.initial_backoff_ms,
            factor=world.config.proxy_params.backoff_factor,
            max_retries=world.config.proxy_params.max_retries,
        )
        self._offsets = offsets
        self._dial_base = world.loop.now
        self._dial()

    def _dial(self) -> None:
        world = self.world
        response = self.response
        rules_ready = response.default_gateway or (
            response.installation is not None
            and response.installation.state is InstallState.ACTIVE
        )
        world.loop.emit(
            EventKind.CONNECT_ATTEMPT,
            {
                "proxy": self.proxy.endpoint_id,
                "client": self.requester.ip,
                "sport": self.src_port,
                "attempt": self.attempt,
                "ok": rules_ready,
            },
        )
        if not rules_ready:
            self.attempt += 1
            if self.attempt >= len(self._offsets):
                self.session.close()
                raise RuntimeError(
                    f"upstream connect for {self.url_path} failed after {self.attempt} attempts"
                )
            delay = self._dial_base + self._offsets[self.attempt] - world.loop.now
            world.loop.schedule(max(delay, 0.0), self._dial)
            return
        # The SYN the proxy sends carries the virtual destination; the rules
        # decide where it really lands.
        walk = world.flows.packet_walk(
            self.proxy.host, self._syn_header(self.proxy.host, self.src_port)
        )
        if walk.delivered_to is None:
            raise RuntimeError(f"proxy SYN for {self.url_path} lost: {walk.reason}")
        target = world.topology.host(walk.delivered_to)
        if response.cache_id is not None:
            expected_ip = world.registry.endpoints[response.cache_id].ip
            if target.ip != expected_ip:
                raise RuntimeError(
                    f"steering mismatch: {self.url_path} landed on {target.ip}, wanted {expected_ip}"
                )
        one_way = world.topology.host_latency(self.proxy.host.host_id, target.host_id)
        world.loop.schedule(2.0 * one_way, self._spliced)
        world.loop.schedule(3.0 * one_way, lambda: self._serve_at(target))

    def _spliced(self) -> None:
        self.session.mark_spliced()
        self.world.loop.emit(
            EventKind.SPLICE_ESTABLISHED,
            {
                "proxy": self.proxy.endpoint_id,
                "client": self.requester.ip,
                "sport": self.src_port,
                "attempts": self.attempt + 1,
            },
        )

    # -- serving -----------------------------------------------------------------

    def _serve_at(self, target: Host) -> None:
        world = self.world
        cache_node = world.cache_by_ip.get(target.ip)
        size = world.catalog.get(self.url_path)
        if size is None:
            raise RuntimeError(f"origin has no object {self.url_path}")
        if cache_node is None:
            self._respond_from(target, size, outcome="origin")
            return
        result = cache_node.serve(self.url_path)
        match = world.classify(self.url_path)
        world.loop.emit(
            EventKind.CACHE_SERVE,
            {
                "cache": cache_node.cache_id,
                "url": self.url_path,
                "result": result.value,
                "requester": self.role,
                "repr": match[0],
                "seg": match[1],
            },
        )
        if result is CacheResult.HIT:
            self._respond_from(target, size, outcome="hit")
            return
        # Miss: the cache pulls the object from the origin first, stores it if
        # admission allowed, then serves it on.
        world.loop.emit(EventKind.ORIGIN_FETCH, {"url": self.url_path, "by": cache_node.cache_id})
        origin = world.host_for_hostname(self.hostname)
        pull_setup = 3.0 * world.topology.host_latency(target.host_id, origin.host_id)

        def pulled() -> None:
            if result is CacheResult.MISS_FILLED:
                cache_node.complete_fill(self.url_path, size)
            self._respond_from(target, size, outcome="miss")

        def pull() -> None:
            world.transfers.start(host_path(world.topology, origin, target), size, pulled)

        world.ensure_pair_path(target, origin, HTTP_PORT, lambda: world.loop.schedule(pull_setup, pull))

    def _respond_from(self, server: Host, size: int, outcome: str) -> None:
        world = self.world
        path = host_path(world.topology, server, self.requester)
        if self.proxy is not None and server.ip != self.proxy.host.ip:
            path = host_path(world.topology, server, self.proxy.host).extended(
                host_path(world.topology, self.proxy.host, self.requester)
            )
        started = world.loop.now

        def delivered() -> None:
            world.loop.emit(
                EventKind.TRANSFER_COMPLETE,
                {
                    "url": self.url_path,
                    "bytes": size,
                    "ms": round(world.loop.now - started, 6),
                    "to": self.requester.host_id,
                },
            )
            self._close(outcome)

        world.transfers.start(path, size, delivered)

    def _close(self, outcome: str) -> None:
        world = self.world
        if self.session is not None:
            self.session.close()
        if self.proxy is not None:
            self.proxy.release()
            if self.response is not None and self.response.installation is not None:
                world.flows.teardown(self.response.installation)
            world.loop.emit(
                EventKind.SESSION_CLOSED,
                {"proxy": self.proxy.endpoint_id, "client": self.requester.ip, "sport": self.src_port},
            )
        self.on_done(outcome)


class DashClient:
    """Sequential chunk fetcher with a playback-paced request window."""

    def __init__(self, world: "SimWorld", host: Host, representation: int):
        self.world = world
        self.host = host
        self.repr_id = representation
        self.manifest: MpdManifest | None = None
        self.chain: list[int] = []
        self.playback_start_ms: float | None = None
        self.video_end_ms: float | None = None
        self.last_chunk_ms = 0.0
        self.finished = False

    def start(self) -> None:
        world = self.world
        world.loop.emit(
            EventKind.CLIENT_REQUEST, {"url": world.mpd_path, "repr": None, "seg": None}
        )
        started = world.loop.now

        def mpd_done(_outcome: str) -> None:
            self.manifest = world.manifest
            self.chain = resolve_chain(self.manifest, self.repr_id)
            world.loop.emit(
                EventKind.MPD_RETRIEVED,
                {"elapsed_ms": round(world.loop.now - started, 6), "layers": self.chain},
            )
            world.loop.schedule(
                world.config.client.startup_delay_s * 1000.0,
                lambda: self._request_segment(self.manifest.start_number),
            )

        FetchJob(world, self.host, world.mpd_path, world.origin_hostname, role="client", on_done=mpd_done)

    def _request_segment(self, segment: int) -> None:
        self._request_layer(segment, 0)

    def _request_layer(self, segment: int, index: int) -> None:
        world = self.world
        layer = self.chain[index]
        url = self.manifest.segment_url(layer, segment)
        world.loop.emit(EventKind.CLIENT_REQUEST, {"url": url, "repr": layer, "seg": segment})
        started = world.loop.now

        def chunk_done(outcome: str) -> None:
            world.loop.emit(
                EventKind.CHUNK_DONE,
                {
                    "url": url,
                    "repr": layer,
                    "seg": segment,
                    "elapsed_ms": round(world.loop.now - started, 6),
                    "source": outcome,
                },
            )
            self.last_chunk_ms = world.loop.now
            if index + 1 < len(self.chain):
                self._request_layer(segment, index + 1)
            else:
                self._segment_complete(segment)

        FetchJob(world, self.host, url, world.origin_hostname, role="client", on_done=chunk_done)

    def _segment_complete(self, segment: int) -> None:
        world = self.world
        manifest = self.manifest
        if self.playback_start_ms is None:
            self.playback_start_ms = world.loop.now
        last_segment = manifest.start_number + manifest.segment_count - 1
        if segment >= last_segment:
            scheduled_end = self.playback_start_ms + manifest.segment_count * manifest.segment_duration_s * 1000.0
            self.video_end_ms = max(scheduled_end, self.last_chunk_ms)
            self.finished = True
            return
        # Stay buffer_ahead segments in front of the playhead, never further.
        window_opens = self.playback_start_ms + (
            (segment + 1 - manifest.start_number) - world.config.client.buffer_ahead_segments
        ) * manifest.segment_duration_s * 1000.0
        delay = max(0.0, window_opens - world.loop.now)
        world.loop.schedule(delay, lambda: self._request_segment(segment + 1))


class PrefetcherRuntime:
    """Workhorse that replays planned requests through the same front door."""

    def __init__(self, world: "SimWorld", endpoint_id: str, host: Host):
        self.world = world
        self.endpoint_id = endpoint_id
        self.host = host
        self.queue: deque = deque()
        self.in_flight = 0
        self.completed = 0
        self.started = False
        self.start_at_ms = 0.0

    def receive(self, command) -> None:
        world = self.world
        self.queue.append(command)
        if not self.started:
            self.started = True
            warmup_ms = world.rng_prefetch.uniform(*world.config.control_params.prefetch_warmup_s) * 1000.0
            self.start_at_ms = world.loop.now + warmup_ms
            world.loop.schedule(warmup_ms, self._pump)
        elif world.loop.now >= self.start_at_ms:
            self._pump()

    def _pump(self) -> None:
        world = self.world
        parallelism = world.config.control_params.prefetch_parallelism
        while self.in_flight < parallelism and self.queue:
            command = self.queue.popleft()
            self.in_flight += 1
            started = world.loop.now
            url_path = _url_path(command.uri)

            def done(outcome: str, _url=url_path, _t0=started) -> None:
                self.in_flight -= 1
                self.completed += 1
                world.loop.emit(
                    EventKind.PREFETCH_DONE,
                    {
                        "uri": _url,
                        "outcome": outcome,
                        "elapsed_ms": round(world.loop.now - _t0, 6),
                    },
                )
                if self.queue:
                    self._pump()
                elif self.in_flight == 0:
                    world.loop.emit(EventKind.PREFETCH_IDLE, {"completed": self.completed})

            FetchJob(world, self.host, url_path, command.server, role="prefetcher", on_done=done, dst_port=command.port)


class SimWorld:
    """Everything one run needs, wired together."""

    def __init__(self, config: ScenarioConfig, kind: ScenarioKind, run_index: int, seed: int):
        self.config = config
        self.kind = kind
        self.run_index = run_index
        self.seed = seed
        self.loop = EventLoop()
        self.topology: Topology = config.topology
        self.flows = FlowManager(self.topology)
        self.registry = IcnRegistry(self.topology)
        self.hooks = SimHooks(self)
        self.controller = IcnController(
            self.registry, self.flows, self.hooks, lookahead=config.control_params.lookahead_segments
        )
        self.transfers = TransferManager(self.loop)
        self.rng_ctrl = random.Random(f"{seed}:ctrl")
        self.rng_prefetch = random.Random(f"{seed}:prefetch")

        self.mpd_bytes = config.mpd_bytes()
        self.mpd_path = _url_path(config.mpd_url)
        self.origin_hostname = urlsplit(config.mpd_url).hostname or ""
        origin_id = config.hostnames.get(self.origin_hostname)
        if origin_id is None:
            raise ConfigError(f"no topology host mapped to {self.origin_hostname!r}")
        self.origin_host = self.topology.host(origin_id)
        self.manifest = parse_mpd(self.mpd_bytes, self.mpd_path)
        self.catalog = build_catalog(self.manifest, self.mpd_path, len(self.mpd_bytes))

        self.caches: dict[str, CacheNode] = {}
        self.cache_by_ip: dict[str, CacheNode] = {}
        self.cache_order: list[str] = []
        self.proxy_runtimes: dict[str, ProxyRuntime] = {}
        self.prefetcher: PrefetcherRuntime | None = None
        self.client = DashClient(
            self, self.topology.host(config.client.host), config.client.representation_for(kind)
        )

        self.activation_eta: dict[int, float] = {}
        self._pair_ready: dict[tuple, float] = {}
        self._port_seq = itertools.count(34000)
        self._bootstrap()

    # -- setup -----------------------------------------------------------------

    def _mgmt(self, path: str, params: dict) -> str:
        status, body = self.controller.handle_management_request("POST", path, params)
        if status != 201:
            raise ConfigError(f"bootstrap POST {path} failed: {status} {body}")
        return body["id"]

    def _bootstrap(self) -> None:
        if not self.kind.uses_registry:
            return
        spec = self.config.registry
        instance_id = self._mgmt(
            "onos/icn/icn",
            {
                "name": spec.instance_name,
                "description": spec.instance_description,
                "type": _ICN_TYPE_FOR_KIND[self.kind].value,
            },
        )
        for proxy_spec in spec.proxies:
            host = self.topology.host(proxy_spec.host)
            endpoint_id = self._mgmt(
                "onos/icn/proxy",
                {
                    "instance": instance_id,
                    "mac": host.mac,
                    "ip": host.ip,
                    "proxy_port": proxy_spec.port,
                    "location": {"dpid": host.dpid, "port": host.port},
                    "type": proxy_spec.endpoint_type,
                    "isProactive": proxy_spec.is_proactive,
                },
            )
            self.proxy_runtimes[host.ip] = ProxyRuntime(
                endpoint_id, host, proxy_spec.port, self.config.proxy_params.accept_queue
            )

        cache_specs = list(spec.caches)
        if not self.kind.distributed and len(cache_specs) > 1:
            client_host = self.topology.host(self.config.client.host)
            cache_specs.sort(
                key=lambda s: (
                    self.topology.switch_path_latency(
                        client_host.dpid, self.topology.host(s.host).dpid
                    ),
                    s.host,
                )
            )
            cache_specs = cache_specs[:1]
        for cache_spec in cache_specs:
            host = self.topology.host(cache_spec.host)
            endpoint_id = self._mgmt(
                "onos/icn/cache",
                {
                    "instance": instance_id,
                    "mac": host.mac,
                    "ip": host.ip,
                    "port": cache_spec.port,
                    "location": {"dpid": host.dpid, "port": host.port},
                    "type": cache_spec.endpoint_type,
                },
            )
            node = CacheNode(
                endpoint_id,
                capacity_objects=self.config.cache_params.capacity_objects,
                admission_failure_rate=self.config.cache_params.admission_failure_rate,
                rng=random.Random(f"{self.seed}:cache:{endpoint_id}"),
            )
            self.caches[endpoint_id] = node
            self.cache_by_ip[host.ip] = node

        if self.kind.prefetches:
            for prefetcher_spec in spec.prefetchers[:1]:
                host = self.topology.host(prefetcher_spec.host)
                endpoint_id = self._mgmt(
                    "onos/icn/prefetch",
                    {
                        "instance": instance_id,
                        "mac": host.mac,
                        "ip": host.ip,
                        "prefetch_port": prefetcher_spec.port,
                        "location": {"dpid": host.dpid, "port": host.port},
                        "type": prefetcher_spec.endpoint_type,
                    },
                )
                self.prefetcher = PrefetcherRuntime(self, endpoint_id, host)

        for provider_spec in spec.providers:
            self._mgmt(
                "onos/icn/provider",
                {
                    "instance": instance_id,
                    "name": provider_spec.name,
                    "network": provider_spec.network,
                    "uripattern": provider_spec.uri_pattern,
                    "hostpattern": provider_spec.host_pattern,
                },
            )

        client_host = self.topology.host(self.config.client.host)
        ordered = self.registry.ordered_caches(instance_id, client_host.attachment)
        self.cache_order = [endpoint.endpoint_id for endpoint in ordered]

        if self.kind is ScenarioKind.FULL_CACHE:
            self._warm_caches()

    def _warm_items(self) -> list[tuple[str, int]]:
        chain = resolve_chain(self.manifest, self.config.client.representation_for(self.kind))
        items = [(self.mpd_path, self.catalog[self.mpd_path])]
        for number in range(
            self.manifest.start_number, self.manifest.start_number + self.manifest.segment_count
        ):
            for layer in chain:
                url = self.manifest.segment_url(layer, number)
                items.append((url, self.catalog[url]))
        return items

    def _warm_caches(self) -> None:
        """Preload as a previous identical run would have left things."""
        for endpoint_id in self.cache_order[:1]:
            self.caches[endpoint_id].warm(self._warm_items())

    # -- shared services ---------------------------------------------------------

    def host_for_hostname(self, hostname: str) -> Host | None:
        host_id = self.config.hostnames.get(hostname)
        return self.topology.hosts.get(host_id) if host_id else None

    def manifest_fetcher_host(self) -> Host | None:
        if self.prefetcher is not None:
            return self.prefetcher.host
        for runtime in self.proxy_runtimes.values():
            return runtime.host
        return None

    def classify(self, url_path: str) -> tuple[int | None, int | None]:
        return self.manifest.url_index.get(url_path, (None, None))

    def next_port(self) -> int:
        return next(self._port_seq)

    def ensure_pair_path(self, requester: Host, dst: Host, dst_port: int, ready_cb) -> None:
        """First packet between a pair may need the controller; later ones go through."""
        key = (requester.ip, dst.ip, dst_port)
        ready = self._pair_ready.get(key)
        now = self.loop.now
        if ready is not None:
            if now >= ready:
                ready_cb()
            else:
                self.loop.schedule(ready - now, ready_cb)
            return
        header = tcp_header(requester.mac, requester.ip, 0, dst.mac, dst.ip, dst_port)
        if self.flows.lookup(requester.dpid, header, requester.port) is not None:
            self._pair_ready[key] = now
            ready_cb()
            return
        self.loop.emit(
            EventKind.PACKET_IN, {"src": requester.ip, "dst": dst.ip, "dport": dst_port}
        )
        installations = self.controller.handle_packet_in(requester.ip, dst.ip, dst_port)
        ready = now + self.hooks.interaction_ms()
        for installation in installations:
            ready = max(ready, self.activation_eta.get(id(installation), ready))
        self._pair_ready[key] = ready
        self.loop.schedule(ready - now, ready_cb)

    # -- run ----------------------------------------------------------------------

    def execute(self, max_time_ms: float | None = None):
        self.loop.emit(
            EventKind.RUN_START,
            {
                "scenario": self.kind.value,
                "run": self.run_index,
                "seed": self.seed,
                "representation": self.client.repr_id,
                "cache_order": self.cache_order,
                "client": self.config.client.host,
            },
        )
        self.client.start()
        self.loop.run(max_time_ms)
        if not self.client.finished:
            raise RuntimeError(f"run {self.run_index} stalled: client never finished")
        self.loop.emit(
            EventKind.RUN_END,
            {
                "video_end_ms": round(self.client.video_end_ms, 6),
                "playback_start_ms": round(self.client.playback_start_ms, 6),
            },
        )
        return self.loop.records
