"""Scenario configuration: structured text in, validated dataclasses out."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import yaml

from .errors import ConfigError
from .topology import Host, Link, Topology


class ScenarioKind(Enum):
    DIRECT = "DIRECT"
    EMPTY_CACHE = "EMPTY_CACHE"
    FULL_CACHE = "FULL_CACHE"
    PREFETCH = "PREFETCH"
    DISTRIBUTED_PREFETCH = "DISTRIBUTED_PREFETCH"

    @property
    def uses_registry(self) -> bool:
        return self is not ScenarioKind.DIRECT

    @property
    def prefetches(self) -> bool:
        return self in (ScenarioKind.PREFETCH, ScenarioKind.DISTRIBUTED_PREFETCH)

    @property
    def distributed(self) -> bool:
        return self is ScenarioKind.DISTRIBUTED_PREFETCH


@dataclass
class ClientParams:
    host: str
    representation: int = 18
    distributed_representation: int = 33
    startup_delay_s: float = 0.5
    buffer_ahead_segments: int = 3

    def representation_for(self, kind: ScenarioKind) -> int:
        return self.distributed_representation if kind.distributed else self.representation


@dataclass
class CacheParams:
    capacity_objects: int | None = None
    admission_failure_rate: float = 0.03


@dataclass
class ProxyParams:
    initial_backoff_ms: float = 10.0
    backoff_factor: float = 2.0
    max_retries: int = 5
    accept_queue: int = 128


@dataclass
class ControlParams:
    interaction_ms: float = 8.0
    interaction_jitter_ms: float = 2.0
    flow_install_ms: float = 3.0
    flow_install_jitter_ms: float = 1.5
    analysis_delay_s: tuple[float, float] = (0.1, 0.4)
    prefetch_warmup_s: tuple[float, float] = (2.0, 25.0)
    prefetch_parallelism: int = 4
    lookahead_segments: int | None = None


@dataclass
class EndpointSpec:
    host: str
    port: int
    endpoint_type: str = ""
    is_proactive: bool = False


@dataclass
class ProviderSpec:
    name: str
    network: str
    uri_pattern: str
    host_pattern: str


@dataclass
class RegistrySpec:
    instance_name: str = "icn-service"
    instance_description: str = ""
    proxies: list[EndpointSpec] = field(default_factory=list)
    prefetchers: list[EndpointSpec] = field(default_factory=list)
    caches: list[EndpointSpec] = field(default_factory=list)
    providers: list[ProviderSpec] = field(default_factory=list)


@dataclass
class ScenarioConfig:
    name: str
    topology: Topology
    hostnames: dict[str, str]
    mpd_file: Path
    mpd_url: str
    registry: RegistrySpec
    client: ClientParams
    kind: ScenarioKind
    seeds: list[int]
    cache_params: CacheParams
    proxy_params: ProxyParams
    control_params: ControlParams

    @property
    def runs(self) -> int:
        return len(self.seeds)

    def mpd_bytes(self) -> bytes:
        return self.mpd_file.read_bytes()

    def validate(self) -> list[str]:
        """Collect every problem found; an empty list means the config is usable."""
        findings: list[str] = []
        try:
            self.topology.validate()
        except ConfigError as exc:
            findings.append(str(exc))
        if self.client.host not in self.topology.hosts:
            findings.append(f"client host {self.client.host!r} not in topology")
        for hostname, host_id in self.hostnames.items():
            if host_id not in self.topology.hosts:
                findings.append(f"hostname {hostname!r} maps to unknown host {host_id!r}")
        for spec in self.registry.proxies + self.registry.prefetchers + self.registry.caches:
            if spec.host not in self.topology.hosts:
                findings.append(f"endpoint host {spec.host!r} not in topology")
        if not self.mpd_file.exists():
            findings.append(f"mpd file {self.mpd_file} does not exist")
        if not self.seeds:
            findings.append("at least one run seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            findings.append("seeds must be distinct")
        if self.kind.uses_registry and not self.registry.caches:
            findings.append(f"{self.kind.value} needs at least one cache")
        if self.kind.uses_registry and not self.registry.proxies:
            findings.append(f"{self.kind.value} needs a proxy")
        if self.kind.prefetches and not self.registry.prefetchers:
            findings.append(f"{self.kind.value} needs a prefetcher")
        if self.kind.distributed and len(self.registry.caches) < 2:
            findings.append("DISTRIBUTED_PREFETCH needs at least two caches")
        if not 0.0 <= self.cache_params.admission_failure_rate <= 1.0:
            findings.append("admission_failure_rate must be within [0, 1]")
        for lo, hi, label in (
            (*self.control_params.analysis_delay_s, "analysis_delay_s"),
            (*self.control_params.prefetch_warmup_s, "prefetch_warmup_s"),
        ):
            if lo < 0 or hi < lo:
                findings.append(f"{label} range [{lo}, {hi}] is not sane")
        return findings


def _range_pair(value) -> tuple[float, float]:
    if isinstance(value, (int, float)):
        return (float(value), float(value))
    lo, hi = value
    return (float(lo), float(hi))


def _parse_topology(data: dict) -> Topology:
    links = [
        Link(
            a=str(raw["a"]),
            a_port=int(raw["a_port"]),
            b=str(raw["b"]),
            b_port=int(raw["b_port"]),
            latency_ms=float(raw["latency_ms"]),
            bandwidth_mbps=float(raw["bandwidth_mbps"]),
        )
        for raw in data.get("links", [])
    ]
    hosts = {}
    for host_id, raw in (data.get("hosts") or {}).items():
        bandwidth = raw.get("access_bandwidth_mbps")
        hosts[host_id] = Host(
            host_id=host_id,
            mac=str(raw["mac"]).lower(),
            ip=str(raw["ip"]),
            dpid=str(raw["dpid"]),
            port=int(raw["port"]),
            access_latency_ms=float(raw.get("access_latency_ms", 0.0)),
            access_bandwidth_mbps=float(bandwidth) if bandwidth is not None else math.inf,
        )
    return Topology(switches=[str(s) for s in data.get("switches", [])], links=links, hosts=hosts)


def _given(data: dict, **convert) -> dict:
    """The keys of ``data`` named in ``convert``, converted.

    An absent or null key is left out, so the dataclass default holds.
    """
    return {key: cast(data[key]) for key, cast in convert.items() if data.get(key) is not None}


def _parse_endpoint_list(raw_list) -> list[EndpointSpec]:
    return [
        EndpointSpec(
            host=str(raw["host"]),
            port=int(raw["port"]),
            endpoint_type=str(raw.get("type", "")),
            is_proactive=bool(raw.get("isProactive", False)),
        )
        for raw in raw_list or []
    ]


def load_config(path: str | Path, kind_override: str | None = None) -> ScenarioConfig:
    path = Path(path)
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path} does not hold a mapping")
    try:
        return _build_config(data, path, kind_override)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad scenario config {path}: {exc!r}") from None


def _build_config(data: dict, path: Path, kind_override: str | None) -> ScenarioConfig:
    scenario = data.get("scenario", {})
    kind_name = kind_override or scenario.get("kind", "PREFETCH")
    try:
        kind = ScenarioKind(str(kind_name).upper())
    except ValueError:
        allowed = ", ".join(k.value for k in ScenarioKind)
        raise ConfigError(f"unknown scenario kind {kind_name!r}; expected one of: {allowed}") from None

    if "seeds" in scenario and scenario["seeds"] is not None:
        seeds = [int(s) for s in scenario["seeds"]]
    else:
        runs = int(scenario.get("runs", 1))
        base = int(scenario.get("seed_base", 1))
        seeds = list(range(base, base + runs))

    registry_data = data.get("registry", {}) or {}
    instance_data = registry_data.get("instance") or {}
    registry = RegistrySpec(
        **_given(
            {
                "instance_name": instance_data.get("name"),
                "instance_description": instance_data.get("description"),
            },
            instance_name=str,
            instance_description=str,
        ),
        proxies=_parse_endpoint_list(registry_data.get("proxies")),
        prefetchers=_parse_endpoint_list(registry_data.get("prefetchers")),
        caches=_parse_endpoint_list(registry_data.get("caches")),
        providers=[
            ProviderSpec(
                name=str(raw["name"]),
                network=str(raw["network"]),
                uri_pattern=str(raw["uripattern"]),
                host_pattern=str(raw["hostpattern"]),
            )
            for raw in registry_data.get("providers") or []
        ],
    )

    client_data = data.get("client", {}) or {}
    control_data = data.get("control_model", {}) or {}
    cache_data = data.get("cache_model", {}) or {}
    proxy_data = data.get("proxy_model", {}) or {}
    mpd_data = data.get("mpd", {}) or {}
    mpd_file = Path(mpd_data.get("file", "manifest.mpd"))
    if not mpd_file.is_absolute():
        mpd_file = path.parent / mpd_file

    return ScenarioConfig(
        name=str(data.get("name", path.stem)),
        topology=_parse_topology(data.get("topology", {}) or {}),
        hostnames={str(k): str(v) for k, v in (data.get("hostnames") or {}).items()},
        mpd_file=mpd_file,
        mpd_url=str(mpd_data.get("url", "")),
        registry=registry,
        # a missing host is left for validate() to report
        client=ClientParams(
            host=str(client_data.get("host") or ""),
            **_given(
                client_data,
                representation=int,
                distributed_representation=int,
                startup_delay_s=float,
                buffer_ahead_segments=int,
            ),
        ),
        kind=kind,
        seeds=seeds,
        cache_params=CacheParams(**_given(cache_data, capacity_objects=int, admission_failure_rate=float)),
        proxy_params=ProxyParams(
            **_given(proxy_data, initial_backoff_ms=float, backoff_factor=float, max_retries=int, accept_queue=int)
        ),
        control_params=ControlParams(
            **_given(
                control_data,
                interaction_ms=float,
                interaction_jitter_ms=float,
                flow_install_ms=float,
                flow_install_jitter_ms=float,
                analysis_delay_s=_range_pair,
                prefetch_warmup_s=_range_pair,
                prefetch_parallelism=int,
                lookahead_segments=int,
            )
        ),
    )
