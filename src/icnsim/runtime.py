"""Simulated data plane: a DASH client, proxies, caches and a prefetcher
drive HTTP sessions over the flow tables on one shared clock.

Latency model per GET: connection setup costs two one-way trips (SYN,
SYN-ACK), the request head rides the third, and payload drains through the
fluid transfer pools.  Controller conversations cost one interaction round
trip; rule installation lands after its own delay, so a proxy can genuinely
dial before its session rules are active and eat a retry.

Each actor is one generator process on the event loop (``EventLoop.spawn``):
every client GET and every prefetch runs ``fetch`` start to finish, and the
viewer runs ``DashClient.play``.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import deque
from types import MappingProxyType
from typing import Mapping
from urllib.parse import urlsplit

from .cache import CacheNode, CacheResult
from .controller import IcnController, SteeringDeferred
from .errors import ConfigError
from .events import EventKind, EventLoop
from .flows import FlowManager, InstallState, PathInstallation, tcp_header
from .mpd import MpdManifest, parse_mpd, resolve_chain, _url_path
from .proxy import ProxySession, attempt_offsets
from .registry import IcnRegistry, IcnType, NetworkEndpoint
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


@functools.lru_cache(maxsize=4)
def shared_content(mpd_bytes: bytes, mpd_path: str) -> tuple[MpdManifest, Mapping[str, int]]:
    """The parsed manifest and a read-only catalog, built once per distinct MPD.

    Keyed on the bytes themselves, so a config pointed at another file never
    sees a stale manifest.  Every world built from the same MPD shares the
    returned objects and must not change them.
    """
    manifest = parse_mpd(mpd_bytes, mpd_path)
    return manifest, MappingProxyType(build_catalog(manifest, mpd_path, len(mpd_bytes)))


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
            world.activation_eta.pop(id(installation), None)
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
            manifest = world.manifest if url_path == world.mpd_path else None
            world.loop.schedule(analysis_ms, lambda: done(manifest))

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
    def __init__(self, endpoint_id: str, host: Host, accept_queue: int):
        self.endpoint_id = endpoint_id
        self.host = host
        self.accept_queue = accept_queue
        self.active_sessions = 0

    def accept(self) -> bool:
        if self.active_sessions >= self.accept_queue:
            return False
        self.active_sessions += 1
        return True

    def release(self) -> None:
        self.active_sessions -= 1


def fetch(
    world: "SimWorld", requester: Host, url_path: str, hostname: str, role: str, dst_port: int = HTTP_PORT
):
    """One HTTP GET from a requester host, steered by whatever rules exist.

    A generator process; a caller runs it with ``yield from`` and gets back
    where the object came from: ``"origin"``, ``"hit"`` or ``"miss"``.
    """
    loop = world.loop
    src_port = world.next_port()
    dst_host = world.host_for_hostname(hostname)
    if dst_host is None:
        raise ConfigError(f"no host serves {hostname!r}")

    def syn_header(src: Host) -> dict[str, object]:
        return tcp_header(src.mac, src.ip, src_port, dst_host.mac, dst_host.ip, dst_port)

    wait = world.pair_path_wait(requester, dst_host, dst_port)
    if wait is not None:
        yield wait
    walk = world.flows.packet_walk(requester, syn_header(requester))
    if walk.delivered_to is None:
        raise RuntimeError(f"SYN from {requester.host_id} to {dst_host.host_id} lost: {walk.reason}")
    acceptor = world.topology.host(walk.delivered_to)
    one_way = world.topology.host_latency(requester.host_id, acceptor.host_id)
    proxy = world.proxy_runtimes.get(acceptor.ip)
    if proxy is None:
        # No middlebox in the way; the request head lands at the server.
        yield 3.0 * one_way
        return (yield from _serve(world, acceptor, requester, None, dst_host, url_path, role))

    ids = {"proxy": proxy.endpoint_id, "client": requester.ip, "sport": src_port}

    def accepted() -> None:
        if not proxy.accept():
            raise RuntimeError(f"{proxy.endpoint_id} accept queue overflow")
        loop.emit(EventKind.PROXY_ACCEPT, ids)

    loop.schedule(one_way, accepted)
    yield 3.0 * one_way

    # Delayed binding: read the head, ask the controller, then dial.
    session = ProxySession((requester.ip, src_port, dst_host.ip, dst_port, 6), requester.mac)
    notification = session.on_client_request(f"GET {url_path} HTTP/1.1\r\nHost: {hostname}\r\n\r\n")
    notified_at = loop.now
    loop.emit(EventKind.PROXY_NOTIFY, {**ids, "uri": notification.uri})
    yield world.hooks.interaction_ms() / 2.0
    deferrals = 0
    while isinstance(
        response := world.controller.handle_proxy_request(notification, proxy.endpoint_id),
        SteeringDeferred,
    ):
        deferrals += 1
        yield max(response.ready_at_ms - loop.now, 0.1)
    yield world.hooks.interaction_ms() / 2.0

    session.mark_steered()
    loop.emit(
        EventKind.CTRL_RESPONSE,
        {
            **ids,
            "elapsed_ms": round(loop.now - notified_at, 6),
            "decision": response.decision_token,
            "cache": response.cache_id,
            "default_gateway": response.default_gateway,
            "deferrals": deferrals,
        },
    )
    params = world.config.proxy_params
    offsets = attempt_offsets(params.initial_backoff_ms, params.backoff_factor, params.max_retries)
    dial_base = loop.now
    for attempt, offset in enumerate(offsets):
        if attempt:
            yield max(dial_base + offset - loop.now, 0.0)
        rules_ready = response.default_gateway or (
            response.installation is not None
            and response.installation.state is InstallState.ACTIVE
        )
        loop.emit(EventKind.CONNECT_ATTEMPT, {**ids, "attempt": attempt, "ok": rules_ready})
        if rules_ready:
            break
    else:
        session.close()
        raise RuntimeError(f"upstream connect for {url_path} failed after {len(offsets)} attempts")

    # The SYN the proxy sends carries the virtual destination; the rules
    # decide where it really lands.
    walk = world.flows.packet_walk(proxy.host, syn_header(proxy.host))
    if walk.delivered_to is None:
        raise RuntimeError(f"proxy SYN for {url_path} lost: {walk.reason}")
    target = world.topology.host(walk.delivered_to)
    if response.cache_id is not None:
        expected_ip = world.registry.endpoints[response.cache_id].ip
        if target.ip != expected_ip:
            raise RuntimeError(
                f"steering mismatch: {url_path} landed on {target.ip}, wanted {expected_ip}"
            )
    one_way = world.topology.host_latency(proxy.host.host_id, target.host_id)

    def spliced() -> None:
        session.mark_spliced()
        loop.emit(EventKind.SPLICE_ESTABLISHED, {**ids, "attempts": attempt + 1})

    loop.schedule(2.0 * one_way, spliced)
    yield 3.0 * one_way
    outcome = yield from _serve(world, target, requester, proxy.host, dst_host, url_path, role)

    session.close()
    proxy.release()
    if response.installation is not None:
        world.flows.teardown(response.installation)
    loop.emit(EventKind.SESSION_CLOSED, ids)
    return outcome


def _serve(
    world: "SimWorld", server: Host, requester: Host, proxy_host: Host | None,
    origin: Host, url_path: str, role: str,
):
    """The server's side of a GET: look up, pull from the origin on a miss, respond."""
    loop = world.loop
    size = world.catalog.get(url_path)
    if size is None:
        raise RuntimeError(f"origin has no object {url_path}")
    cache_node = world.cache_by_ip.get(server.ip)
    if cache_node is None:
        outcome = "origin"
    else:
        result = cache_node.serve(url_path)
        layer, segment = world.manifest.url_index.get(url_path, (None, None))
        loop.emit(
            EventKind.CACHE_SERVE,
            {
                "cache": cache_node.cache_id,
                "url": url_path,
                "result": result.value,
                "requester": role,
                "repr": layer,
                "seg": segment,
            },
        )
        outcome = "hit" if result is CacheResult.HIT else "miss"
    if outcome == "miss":
        # The cache pulls the object from the origin first, stores it if
        # admission allowed, then serves it on.
        loop.emit(EventKind.ORIGIN_FETCH, {"url": url_path, "by": cache_node.cache_id})
        pull_setup = 3.0 * world.topology.host_latency(server.host_id, origin.host_id)
        wait = world.pair_path_wait(server, origin, HTTP_PORT)
        if wait is not None:
            yield wait
        yield pull_setup
        pull = host_path(world.topology, origin, server)
        yield lambda resume: world.transfers.start(pull, size, resume)
        if result is CacheResult.MISS_FILLED:
            cache_node.complete_fill(url_path, size)

    path = host_path(world.topology, server, requester)
    if proxy_host is not None and server.ip != proxy_host.ip:
        path = host_path(world.topology, server, proxy_host).extended(
            host_path(world.topology, proxy_host, requester)
        )
    started = loop.now
    yield lambda resume: world.transfers.start(path, size, resume)
    loop.emit(
        EventKind.TRANSFER_COMPLETE,
        {
            "url": url_path,
            "bytes": size,
            "ms": round(loop.now - started, 6),
            "to": requester.host_id,
        },
    )
    return outcome


class DashClient:
    """Sequential chunk fetcher with a playback-paced request window."""

    def __init__(self, world: "SimWorld", host: Host, representation: int):
        self.world = world
        self.host = host
        self.repr_id = representation
        self.playback_start_ms: float | None = None
        self.video_end_ms: float | None = None  # set when the last segment is in

    def play(self):
        """The viewer's process: the MPD, then every layer of every segment in turn."""
        world = self.world
        loop = world.loop
        loop.emit(EventKind.CLIENT_REQUEST, {"url": world.mpd_path, "repr": None, "seg": None})
        started = loop.now
        yield from fetch(world, self.host, world.mpd_path, world.origin_hostname, "client")
        manifest = world.manifest
        chain = resolve_chain(manifest, self.repr_id)
        loop.emit(
            EventKind.MPD_RETRIEVED,
            {"elapsed_ms": round(loop.now - started, 6), "layers": chain},
        )
        yield world.config.client.startup_delay_s * 1000.0

        segment_ms = manifest.segment_duration_s * 1000.0
        last_segment = manifest.start_number + manifest.segment_count - 1
        for segment in itertools.count(manifest.start_number):
            for layer in chain:
                url = manifest.segment_url(layer, segment)
                loop.emit(EventKind.CLIENT_REQUEST, {"url": url, "repr": layer, "seg": segment})
                started = loop.now
                outcome = yield from fetch(world, self.host, url, world.origin_hostname, "client")
                loop.emit(
                    EventKind.CHUNK_DONE,
                    {
                        "url": url,
                        "repr": layer,
                        "seg": segment,
                        "elapsed_ms": round(loop.now - started, 6),
                        "source": outcome,
                    },
                )
            if self.playback_start_ms is None:
                self.playback_start_ms = loop.now
            if segment >= last_segment:
                scheduled_end = self.playback_start_ms + manifest.segment_count * segment_ms
                self.video_end_ms = max(scheduled_end, loop.now)
                return
            # Stay buffer_ahead segments in front of the playhead, never further.
            window_opens = self.playback_start_ms + (
                (segment + 1 - manifest.start_number) - world.config.client.buffer_ahead_segments
            ) * segment_ms
            yield max(0.0, window_opens - loop.now)


class PrefetcherRuntime:
    """Workhorse that replays planned requests through the same front door."""

    def __init__(self, world: "SimWorld", endpoint_id: str, host: Host):
        self.world = world
        self.endpoint_id = endpoint_id
        self.host = host
        self.queue: deque = deque()
        self.in_flight = 0
        self.completed = 0
        self.start_at_ms: float | None = None

    def receive(self, command) -> None:
        world = self.world
        self.queue.append(command)
        if self.start_at_ms is None:
            warmup_ms = world.rng_prefetch.uniform(*world.config.control_params.prefetch_warmup_s) * 1000.0
            self.start_at_ms = world.loop.now + warmup_ms
            world.loop.schedule(warmup_ms, self._pump)
        elif world.loop.now >= self.start_at_ms:
            self._pump()

    def _pump(self) -> None:
        parallelism = self.world.config.control_params.prefetch_parallelism
        while self.in_flight < parallelism and self.queue:
            self.in_flight += 1
            self.world.loop.spawn(self._prefetch(self.queue.popleft()))

    def _prefetch(self, command):
        world = self.world
        started = world.loop.now
        url_path = _url_path(command.uri)
        outcome = yield from fetch(world, self.host, url_path, command.server, "prefetcher", command.port)
        self.in_flight -= 1
        self.completed += 1
        world.loop.emit(
            EventKind.PREFETCH_DONE,
            {"uri": url_path, "outcome": outcome, "elapsed_ms": round(world.loop.now - started, 6)},
        )
        if self.queue:
            self._pump()
        elif self.in_flight == 0:
            world.loop.emit(EventKind.PREFETCH_IDLE, {"completed": self.completed})


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

        self.mpd_path = _url_path(config.mpd_url)
        self.origin_hostname = urlsplit(config.mpd_url).hostname or ""
        origin_id = config.hostnames.get(self.origin_hostname)
        if origin_id is None:
            raise ConfigError(f"no topology host mapped to {self.origin_hostname!r}")
        self.origin_host = self.topology.host(origin_id)
        self.manifest, self.catalog = shared_content(config.mpd_bytes(), self.mpd_path)

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
                endpoint_id, host, self.config.proxy_params.accept_queue
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

    def next_port(self) -> int:
        return next(self._port_seq)

    def pair_path_wait(self, requester: Host, dst: Host, dst_port: int) -> float | None:
        """How long the pair must wait before it can send, or None to send now.

        The first packet between a pair may need the controller; later ones
        go through once its rules are active.
        """
        key = (requester.ip, dst.ip, dst_port)
        ready = self._pair_ready.get(key)
        now = self.loop.now
        if ready is None:
            header = tcp_header(requester.mac, requester.ip, 0, dst.mac, dst.ip, dst_port)
            if self.flows.lookup(requester.dpid, header, requester.port) is not None:
                self._pair_ready[key] = now
                return None
            self.loop.emit(
                EventKind.PACKET_IN, {"src": requester.ip, "dst": dst.ip, "dport": dst_port}
            )
            installations = self.controller.handle_packet_in(requester.ip, dst.ip, dst_port)
            ready = now + self.hooks.interaction_ms()
            for installation in installations:
                ready = max(ready, self.activation_eta.get(id(installation), ready))
            self._pair_ready[key] = ready
        return ready - now if now < ready else None

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
        self.loop.spawn(self.client.play())
        self.loop.run(max_time_ms)
        if self.client.video_end_ms is None:
            raise RuntimeError(f"run {self.run_index} stalled: client never finished")
        self.loop.emit(
            EventKind.RUN_END,
            {
                "video_end_ms": round(self.client.video_end_ms, 6),
                "playback_start_ms": round(self.client.playback_start_ms, 6),
            },
        )
        return self.loop.records
