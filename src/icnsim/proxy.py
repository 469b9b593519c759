"""Delayed-binding proxy: session states, request parsing, retry arithmetic.

The proxy accepts a redirected connection, reads just enough of the request
to learn the URL, asks the controller where that URL should go, and only then
opens the upstream leg.  Upstream flows may still be settling when it dials,
so connecting retries with exponential backoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from urllib.parse import urlsplit

from .errors import MalformedHttp

DEFAULT_INITIAL_BACKOFF_MS = 10.0
DEFAULT_BACKOFF_FACTOR = 2.0
DEFAULT_MAX_RETRIES = 5


class ProxyState(Enum):
    ACCEPTED = "accepted"
    URL_READ = "url_read"
    NOTIFIED = "notified"
    STEERED = "steered"
    SPLICED = "spliced"
    CLOSED = "closed"


_ALLOWED_MOVES = {
    ProxyState.ACCEPTED: {ProxyState.URL_READ, ProxyState.CLOSED},
    ProxyState.URL_READ: {ProxyState.NOTIFIED, ProxyState.CLOSED},
    ProxyState.NOTIFIED: {ProxyState.STEERED, ProxyState.CLOSED},
    ProxyState.STEERED: {ProxyState.SPLICED, ProxyState.CLOSED},
    ProxyState.SPLICED: {ProxyState.CLOSED},
    ProxyState.CLOSED: set(),
}


@dataclass(frozen=True)
class ProxyRequestNotification:
    """Exactly what the proxy tells the controller about a new session."""

    uri: str
    hostname: str
    smac: str
    source_ip: str
    destination_ip: str
    protocol: int
    source_port: int
    destination_port: int

    def to_params(self) -> dict[str, object]:
        return {
            "uri": self.uri,
            "hostname": self.hostname,
            "smac": self.smac,
            "source_ip": self.source_ip,
            "destination_ip": self.destination_ip,
            "protocol": self.protocol,
            "source_port": self.source_port,
            "destination_port": self.destination_port,
        }


def parse_request_head(raw: bytes | str) -> tuple[str, str, str]:
    """Extract (method, path, host) from an HTTP/1.x request head.

    Accepts origin-form targets with a Host header and absolute-form targets
    (the host then comes from the URL itself).
    """
    if isinstance(raw, bytes):
        try:
            text = raw.decode("iso-8859-1")
        except UnicodeDecodeError:
            raise MalformedHttp("undecodable request head") from None
    else:
        text = raw
    lines = text.replace("\r\n", "\n").split("\n")
    request_line = lines[0].strip() if lines else ""
    parts = request_line.split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise MalformedHttp(f"bad request line {request_line!r}")
    method, target, _version = parts
    if not method.isalpha() or method != method.upper():
        raise MalformedHttp(f"bad method {method!r}")

    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line.strip():
            break
        if ":" not in line:
            raise MalformedHttp(f"bad header line {line!r}")
        name, value = line.split(":", 1)
        headers[name.strip().lower()] = value.strip()

    if target.startswith("http://") or target.startswith("https://"):
        split = urlsplit(target)
        host = split.hostname or ""
        path = split.path or "/"
        if split.query:
            path = f"{path}?{split.query}"
    else:
        if not target.startswith("/"):
            raise MalformedHttp(f"bad request target {target!r}")
        path = target
        host = headers.get("host", "")
        host = host.rsplit(":", 1)[0] if ":" in host and not host.startswith("[") else host
    if not host:
        raise MalformedHttp("no Host header and no absolute-form target")
    return method, path, host


@dataclass
class ProxySession:
    session_key: tuple[str, int, str, int, int]  # src ip, src port, dst ip, dst port, protocol
    client_mac: str
    state: ProxyState = ProxyState.ACCEPTED
    notification: ProxyRequestNotification | None = None

    def _move(self, new_state: ProxyState) -> None:
        if new_state not in _ALLOWED_MOVES[self.state]:
            raise ValueError(f"illegal transition {self.state} -> {new_state}")
        self.state = new_state

    def on_client_request(self, raw_head: bytes | str) -> ProxyRequestNotification:
        """Read the request head and produce exactly one controller notification."""
        src_ip, src_port, dst_ip, dst_port, protocol = self.session_key
        try:
            _method, path, host = parse_request_head(raw_head)
        except MalformedHttp:
            self._move(ProxyState.CLOSED)
            raise
        self._move(ProxyState.URL_READ)
        self.notification = ProxyRequestNotification(
            uri=path,
            hostname=host,
            smac=self.client_mac,
            source_ip=src_ip,
            destination_ip=dst_ip,
            protocol=protocol,
            source_port=src_port,
            destination_port=dst_port,
        )
        self._move(ProxyState.NOTIFIED)
        return self.notification

    def mark_steered(self) -> None:
        self._move(ProxyState.STEERED)

    def mark_spliced(self) -> None:
        self._move(ProxyState.SPLICED)

    def close(self) -> None:
        if self.state is not ProxyState.CLOSED:
            self._move(ProxyState.CLOSED)


def backoff_waits(
    initial_ms: float = DEFAULT_INITIAL_BACKOFF_MS,
    factor: float = DEFAULT_BACKOFF_FACTOR,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> list[float]:
    """Waits between consecutive connection attempts: 10, 20, 40, ... ms."""
    return [initial_ms * factor**i for i in range(max_retries)]


def attempt_offsets(
    initial_ms: float = DEFAULT_INITIAL_BACKOFF_MS,
    factor: float = DEFAULT_BACKOFF_FACTOR,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> list[float]:
    """Time offsets of every attempt relative to the first (which is at 0)."""
    offsets = [0.0]
    for wait in backoff_waits(initial_ms, factor, max_retries):
        offsets.append(offsets[-1] + wait)
    return offsets
