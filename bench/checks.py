"""Correctness checks computed apart from icnsim.

Every expected value here comes from the packaged ``default.yaml`` and the
benchmark's own read of the MPD (``dependencyId``s, bandwidths, segment
template and duration), never from icnsim's parser or metrics.  The checks
take plain data: events as ``(time_ms, ordinal, kind, payload)`` tuples and
live answers as dicts, so the tests can feed them hand-made wrong inputs.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import re
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urljoin, urlsplit

import yaml

PREFETCH_BAND_PCT = (85.0, 96.0)
FLOAT_SLACK_MS = 1e-6


class CheckFailed(Exception):
    """The program produced an output the benchmark refuses."""


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _iso_seconds(text: str) -> float:
    m = re.fullmatch(
        r"P(?:(\d+(?:\.\d+)?)D)?(?:T(?:(\d+(?:\.\d+)?)H)?(?:(\d+(?:\.\d+)?)M)?(?:(\d+(?:\.\d+)?)S)?)?",
        text.strip(),
    )
    if m is None:
        raise ValueError(f"bad duration {text!r}")
    d, h, mi, s = (float(g or 0) for g in m.groups())
    return ((d * 24 + h) * 60 + mi) * 60 + s


def _switch_latency(links: list[dict], src: str, dst: str) -> float:
    """Plain Dijkstra over the yaml link list."""
    adjacency: dict[str, list[tuple[str, float]]] = {}
    for link in links:
        adjacency.setdefault(link["a"], []).append((link["b"], float(link["latency_ms"])))
        adjacency.setdefault(link["b"], []).append((link["a"], float(link["latency_ms"])))
    best = {src: 0.0}
    heap = [(0.0, src)]
    while heap:
        cost, node = heapq.heappop(heap)
        if node == dst:
            return cost
        if cost > best.get(node, math.inf):
            continue
        for peer, latency in adjacency.get(node, []):
            if cost + latency < best.get(peer, math.inf):
                best[peer] = cost + latency
                heapq.heappush(heap, (cost + latency, peer))
    raise ValueError(f"no path {src} -> {dst}")


@dataclass(frozen=True)
class Reference:
    """What the packaged config and video must produce, read without icnsim."""

    client_host: str
    client_ip: str
    client_access_mbps: float
    client_access_latency_ms: float
    origin_hostname: str
    origin_ip: str
    mpd_url: str
    mpd_path: str
    mpd_size: int
    media_template: str
    start_number: int
    segment_count: int
    segment_duration_ms: int
    bandwidth: dict[int, int]
    dependencies: dict[int, tuple[int, ...]]
    representation: int
    distributed_representation: int
    cache_ids: dict[str, str]  # cache host -> endpoint id, ids given in registration order
    near_cache: str
    far_cache: str

    @property
    def near_cache_id(self) -> str:
        return self.cache_ids[self.near_cache]

    @property
    def far_cache_id(self) -> str:
        return self.cache_ids[self.far_cache]

    @property
    def boundary(self) -> int:
        """First layer of the far cache: the nearer of two caches takes the larger half."""
        return math.ceil(len(self.bandwidth) / 2)

    @property
    def segments(self) -> range:
        return range(self.start_number, self.start_number + self.segment_count)

    def chain(self, repr_id: int) -> list[int]:
        seen: set[int] = set()
        stack = [repr_id]
        while stack:
            rid = stack.pop()
            if rid not in seen:
                seen.add(rid)
                stack.extend(self.dependencies[rid])
        return sorted(seen)

    def representation_for(self, kind: str) -> int:
        return self.distributed_representation if kind == "DISTRIBUTED_PREFETCH" else self.representation

    def object_size(self, layer: int) -> int:
        return self.bandwidth[layer] * self.segment_duration_ms // 8000

    def segment_path(self, layer: int, segment: int) -> str:
        media = self.media_template.replace("$RepresentationID$", str(layer))
        media = media.replace("$Bandwidth$", str(self.bandwidth[layer])).replace("$Number$", str(segment))
        return urlsplit(urljoin(self.mpd_url, media)).path

    def min_chunk_ms(self, layer: int) -> float:
        """Size over the client's access link plus that link's latency."""
        return self.object_size(layer) * 8 / (self.client_access_mbps * 1000.0) + self.client_access_latency_ms

    def expected_requests(self, kind: str) -> int:
        return 1 + len(self.chain(self.representation_for(kind))) * self.segment_count

    def expected_client_bytes(self, kind: str) -> int:
        chain = self.chain(self.representation_for(kind))
        return self.mpd_size + self.segment_count * sum(self.object_size(layer) for layer in chain)


def load_reference(config_path: Path) -> Reference:
    data = yaml.safe_load(Path(config_path).read_text(encoding="utf-8"))
    topology = data["topology"]
    hosts = topology["hosts"]
    client = data["client"]
    client_host = hosts[client["host"]]
    mpd_url = data["mpd"]["url"]
    origin_hostname = urlsplit(mpd_url).hostname
    mpd_file = Path(config_path).parent / data["mpd"]["file"]
    raw = mpd_file.read_bytes()

    root = ET.fromstring(raw)
    duration_s = _iso_seconds(root.get("mediaPresentationDuration"))
    template = next(e for e in root.iter() if _local(e.tag) == "SegmentTemplate")
    timescale = int(template.get("timescale", 1))
    segment_duration_ms = int(template.get("duration")) * 1000 // timescale
    bandwidth: dict[int, int] = {}
    dependencies: dict[int, tuple[int, ...]] = {}
    for rep in root.iter():
        if _local(rep.tag) == "Representation":
            rid = int(rep.get("id"))
            bandwidth[rid] = int(rep.get("bandwidth"))
            dependencies[rid] = tuple(int(t) for t in (rep.get("dependencyId") or "").split())

    cache_ids = {spec["host"]: f"cache-{i + 1:04d}" for i, spec in enumerate(data["registry"]["caches"])}
    by_distance = sorted(
        cache_ids,
        key=lambda h: (_switch_latency(topology["links"], client_host["dpid"], hosts[h]["dpid"]), h),
    )
    return Reference(
        client_host=client["host"],
        client_ip=str(client_host["ip"]),
        client_access_mbps=float(client_host["access_bandwidth_mbps"]),
        client_access_latency_ms=float(client_host["access_latency_ms"]),
        origin_hostname=origin_hostname,
        origin_ip=str(hosts[data["hostnames"][origin_hostname]]["ip"]),
        mpd_url=mpd_url,
        mpd_path=urlsplit(mpd_url).path,
        mpd_size=len(raw),
        media_template=template.get("media"),
        start_number=int(template.get("startNumber", 1)),
        segment_count=math.ceil(round(duration_s * 1000 / segment_duration_ms, 9)),
        segment_duration_ms=segment_duration_ms,
        bandwidth=bandwidth,
        dependencies=dependencies,
        representation=int(client["representation"]),
        distributed_representation=int(client["distributed_representation"]),
        cache_ids=cache_ids,
        near_cache=by_distance[0],
        far_cache=by_distance[-1],
    )


# -- simulator runs -----------------------------------------------------------


@dataclass(frozen=True)
class RunFacts:
    completed: int
    events: int
    ctrl_responses: int
    deferrals: int


def check_sim_run(ref: Reference, kind: str, events: list[tuple]) -> RunFacts:
    """Refuse a run whose event stream breaks a property the model must have."""
    chain = ref.chain(ref.representation_for(kind))
    expected_chunks = {(layer, seg) for seg in ref.segments for layer in chain}
    pending: set = set()
    chunks_done: set = set()
    requests = completed = client_bytes = 0
    ctrl_responses = deferrals = 0
    client_hits = client_serves = 0
    kinds = Counter()
    last_time = -math.inf
    for position, (time_ms, ordinal, name, payload) in enumerate(events, 1):
        if ordinal != position:
            raise CheckFailed(f"{kind}: ordinal {ordinal} at position {position}")
        if time_ms < last_time:
            raise CheckFailed(f"{kind}: time goes back from {last_time} to {time_ms} at ordinal {ordinal}")
        last_time = time_ms
        kinds[name] += 1
        if name == "ClientRequest":
            requests += 1
            key = (payload["repr"], payload["seg"])
            if key in pending:
                raise CheckFailed(f"{kind}: request {key} issued twice while pending")
            pending.add(key)
        elif name in ("ChunkDone", "MpdRetrieved"):
            key = (payload["repr"], payload["seg"]) if name == "ChunkDone" else (None, None)
            if key not in pending:
                raise CheckFailed(f"{kind}: {name} for {key} with no pending request")
            pending.discard(key)
            completed += 1
            if name == "ChunkDone":
                if key in chunks_done:
                    raise CheckFailed(f"{kind}: chunk {key} completed twice")
                chunks_done.add(key)
                floor = ref.min_chunk_ms(payload["repr"])
                if payload["elapsed_ms"] + FLOAT_SLACK_MS < floor:
                    raise CheckFailed(
                        f"{kind}: chunk {key} took {payload['elapsed_ms']} ms, below the {floor:.6f} ms floor"
                    )
        elif name == "TransferComplete" and payload["to"] == ref.client_host:
            client_bytes += payload["bytes"]
        elif name == "CtrlResponse":
            ctrl_responses += 1
            deferrals += payload["deferrals"]
        elif name == "CacheServe":
            if payload["requester"] == "client":
                client_serves += 1
                client_hits += payload["result"] == "HIT"
            if kind == "DISTRIBUTED_PREFETCH" and payload["repr"] is not None:
                far = payload["repr"] >= ref.boundary
                if payload["cache"] != (ref.far_cache_id if far else ref.near_cache_id):
                    raise CheckFailed(
                        f"{kind}: layer {payload['repr']} served by {payload['cache']}"
                        f" (far cache {ref.far_cache_id} holds layers >= {ref.boundary})"
                    )

    if not events or events[0][2] != "RunStart" or events[-1][2] != "RunEnd":
        raise CheckFailed(f"{kind}: log does not run from RunStart to RunEnd")
    if events[0][3]["scenario"] != kind:
        raise CheckFailed(f"{kind}: log is of scenario {events[0][3]['scenario']}")
    if requests != ref.expected_requests(kind):
        raise CheckFailed(f"{kind}: {requests} client requests, expected {ref.expected_requests(kind)}")
    if pending or chunks_done != expected_chunks or kinds["MpdRetrieved"] != 1:
        missing = sorted(expected_chunks - chunks_done)[:3]
        raise CheckFailed(f"{kind}: {len(pending)} requests never completed, e.g. missing {missing}")
    if client_bytes != ref.expected_client_bytes(kind):
        raise CheckFailed(
            f"{kind}: {client_bytes} bytes reached {ref.client_host}, expected {ref.expected_client_bytes(kind)}"
        )
    if kind == "DIRECT" and (kinds["CacheServe"] or kinds["CtrlResponse"]):
        raise CheckFailed("DIRECT: a cache or the controller took part")
    if kind == "EMPTY_CACHE" and client_hits:
        raise CheckFailed(f"EMPTY_CACHE: {client_hits} client hits on a cold cache")
    if kind == "PREFETCH":
        ratio = 100.0 * client_hits / client_serves if client_serves else 0.0
        lo, hi = PREFETCH_BAND_PCT
        if not lo <= ratio <= hi:
            raise CheckFailed(f"PREFETCH: hit ratio {ratio:.2f}% outside {lo}..{hi}%")
    if kind == "DISTRIBUTED_PREFETCH" and events[0][3]["cache_order"] != [ref.near_cache_id, ref.far_cache_id]:
        raise CheckFailed(f"DISTRIBUTED_PREFETCH: cache order {events[0][3]['cache_order']}")
    return RunFacts(completed, len(events), ctrl_responses, deferrals)


def log_digest(lines) -> str:
    """sha256 of the event log as ``write_event_log`` stores it."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def check_digest(table: dict, kind: str, seed: int, digest: str) -> None:
    expected = table.get(kind, {}).get(str(seed))
    if expected is None:
        raise CheckFailed(f"{kind} seed {seed}: no digest in the table")
    if digest != expected:
        raise CheckFailed(f"{kind} seed {seed}: event log digest {digest[:12]} != table {expected[:12]}")


# -- live steering -------------------------------------------------------------


@dataclass(frozen=True)
class Decision:
    """One well-formed proxyrequest POST the benchmark sends."""

    viewer_ip: str
    layer: int | None  # None for the manifest
    segment: int | None
    params: dict


def viewer_plan(ref: Reference, viewer_ips: list[str], first_port: int, rng) -> list[Decision]:
    """Manifests first (the first viewer's leads), then every layer of every segment.

    Viewers alternate the two representations and take turns segment by
    segment; ``rng`` shuffles the turn order within each segment.
    """
    viewers = [
        (ip, ref.representation if i % 2 == 0 else ref.distributed_representation)
        for i, ip in enumerate(viewer_ips)
    ]
    order: list[tuple[str, int | None, int | None, str]] = [(ip, None, None, ref.mpd_path) for ip in viewer_ips]
    for seg in ref.segments:
        for ip, rep in rng.sample(viewers, len(viewers)):
            for layer in ref.chain(rep):
                order.append((ip, layer, seg, ref.segment_path(layer, seg)))
    return [
        Decision(
            ip,
            layer,
            seg,
            {
                "uri": uri,
                "hostname": ref.origin_hostname,
                "source_ip": ip,
                "destination_ip": ref.origin_ip,
                "destination_port": 80,
                "source_port": first_port + index,
                "protocol": 6,
            },
        )
        for index, (ip, layer, seg, uri) in enumerate(order)
    ]


def expected_far_answers(ref: Reference, viewer_ips: list[str]) -> int:
    total = 0
    for i in range(len(viewer_ips)):
        rep = ref.representation if i % 2 == 0 else ref.distributed_representation
        total += sum(1 for layer in ref.chain(rep) if layer >= ref.boundary) * ref.segment_count
    return total


def check_live_pass(
    ref: Reference,
    decisions: list[Decision],
    answers: list[tuple[int | None, dict | None]],
    malformed: list[int | None],
    far_cache_id: str,
    near_cache_id: str,
    expected_far: int,
) -> None:
    """``answers[i]`` is (status, body) for ``decisions[i]``; ``malformed`` holds the statuses of bad bodies."""
    tokens: set[str] = set()
    far = 0
    for decision, (status, body) in zip(decisions, answers, strict=True):
        where = f"{decision.viewer_ip} {decision.params['uri']}"
        if status != 200 or not isinstance(body, dict):
            raise CheckFailed(f"{where}: answered {status}")
        token = body.get("decision")
        if token in tokens:
            raise CheckFailed(f"{where}: decision token {token} repeated")
        tokens.add(token)
        if (body.get("ip"), body.get("port")) != (ref.origin_ip, 80):
            raise CheckFailed(f"{where}: told to dial {body.get('ip')}:{body.get('port')}")
        wants_far = decision.layer is not None and decision.layer >= ref.boundary
        if body.get("cache") != (far_cache_id if wants_far else near_cache_id):
            raise CheckFailed(f"{where}: layer {decision.layer} answered by {body.get('cache')}")
        far += wants_far
    if far != expected_far:
        raise CheckFailed(f"{far} answers named the far cache, expected {expected_far}")
    for status in malformed:
        if status is not None and not 400 <= status < 600:
            raise CheckFailed(f"a malformed body was answered {status}")
