"""Live HTTP faces for the control application and the proxy.

The simulator drives the controller through plain method calls; this module
exposes the same controller over REST and ships a socket-level
delayed-binding proxy so the pieces can run against real traffic.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit
from urllib.request import Request, urlopen

from .controller import (
    PROXY_REQUEST_PATH,
    IcnController,
    ImmediateHooks,
    SteeringDeferred,
)
from .errors import DuplicateSession, IcnError, MalformedHttp
from .proxy import (
    DEFAULT_BACKOFF_FACTOR,
    DEFAULT_INITIAL_BACKOFF_MS,
    DEFAULT_MAX_RETRIES,
    ProxySession,
    backoff_waits,
    parse_request_head,
)


class HttpHooks(ImmediateHooks):
    """Controller hooks that really POST prefetch commands over HTTP."""

    def dispatch_prefetch(self, prefetcher, command) -> bool:
        url = f"http://{prefetcher.ip}:{prefetcher.port}/prefetch"
        data = json.dumps(command.to_params()).encode("utf-8")
        request = Request(url, data=data, headers={"Content-Type": "application/json"})
        try:
            with urlopen(request, timeout=5.0) as response:
                return 200 <= response.status < 300
        except OSError:
            return False


def _read_body_params(handler: BaseHTTPRequestHandler) -> dict:
    length = int(handler.headers.get("Content-Length") or 0)
    raw = handler.rfile.read(length) if length else b""
    content_type = (handler.headers.get("Content-Type") or "").split(";")[0].strip()
    if content_type == "application/json" and raw:
        parsed = json.loads(raw.decode("utf-8"))
        return parsed if isinstance(parsed, dict) else {}
    params: dict = {}
    if raw:
        for key, values in parse_qs(raw.decode("utf-8"), keep_blank_values=True).items():
            params[key] = values[0]
    query = urlsplit(handler.path).query
    for key, values in parse_qs(query, keep_blank_values=True).items():
        params.setdefault(key, values[0])
    return params


class _ControlHandler(BaseHTTPRequestHandler):
    controller: IcnController  # bound by make_control_server
    defer_wait_s = 5.0

    def log_message(self, *_args) -> None:  # keep test output quiet
        pass

    def _respond(self, status: int, body: dict) -> None:
        payload = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _route(self) -> str:
        return urlsplit(self.path).path.strip("/")

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        path = self._route()
        try:
            params = _read_body_params(self)
        except ValueError as exc:
            # undecodable JSON or text, or a non-integer Content-Length
            self._respond(400, {"error": "BadRequest", "message": f"{type(exc).__name__}: {exc}"})
            return
        if path == PROXY_REQUEST_PATH:
            self._handle_proxy_request(params)
            return
        status, body = self.controller.handle_management_request("POST", path, params)
        self._respond(status, body)

    def do_DELETE(self) -> None:  # noqa: N802
        status, body = self.controller.handle_management_request("DELETE", self._route(), {})
        self._respond(status, body)

    def do_GET(self) -> None:  # noqa: N802
        status, body = self.controller.handle_management_request("GET", self._route(), {})
        self._respond(status, body)

    def _handle_proxy_request(self, params: dict) -> None:
        from .proxy import ProxyRequestNotification

        try:
            notification = ProxyRequestNotification(
                uri=params["uri"],
                hostname=params["hostname"],
                smac=params.get("smac", "00:00:00:00:00:00"),
                source_ip=params["source_ip"],
                destination_ip=params["destination_ip"],
                protocol=int(params.get("protocol", 6)),
                source_port=int(params["source_port"]),
                destination_port=int(params["destination_port"]),
            )
        except (KeyError, ValueError) as exc:
            self._respond(400, {"error": "BadNotification", "message": repr(exc)})
            return
        deadline = time.monotonic() + self.defer_wait_s
        while True:
            try:
                outcome = self.controller.handle_proxy_request(notification)
            except IcnError as exc:
                status = 409 if isinstance(exc, DuplicateSession) else 400
                self._respond(status, {"error": type(exc).__name__, "message": str(exc)})
                return
            if not isinstance(outcome, SteeringDeferred):
                break
            if time.monotonic() >= deadline:
                self._respond(503, {"error": "DecisionPending", "retry_after_ms": 100})
                return
            time.sleep(0.02)
        self._respond(
            200,
            {
                "decision": outcome.decision_token,
                "ip": outcome.connect_ip,
                "port": outcome.connect_port,
                "defaultGateway": outcome.default_gateway,
                "cache": outcome.cache_id,
            },
        )


def make_control_server(controller: IcnController, host: str = "127.0.0.1", port: int = 0) -> ThreadingHTTPServer:
    handler = type("BoundControlHandler", (_ControlHandler,), {"controller": controller})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


class PrefetchReceiver:
    """Minimal endpoint a prefetcher exposes: POST /prefetch with a command."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, on_command=None):
        receiver = self
        self.commands: list[dict] = []
        self._lock = threading.Lock()

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *_args) -> None:
                pass

            def do_POST(self) -> None:  # noqa: N802
                if urlsplit(self.path).path != "/prefetch":
                    self.send_response(404)
                    self.end_headers()
                    return
                params = _read_body_params(self)
                with receiver._lock:
                    receiver.commands.append(params)
                if on_command is not None:
                    on_command(params)
                self.send_response(204)
                self.end_headers()

        self.server = ThreadingHTTPServer((host, port), Handler)
        self.server.daemon_threads = True
        self._thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    @property
    def address(self) -> tuple[str, int]:
        return self.server.server_address[:2]

    def start(self) -> "PrefetchReceiver":
        self._thread.start()
        return self

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()


class DelayedBindingProxy:
    """Accept first, read the URL, ask the controller, only then dial upstream."""

    read_timeout_s = 5.0  # a client that stalls mid-head this long gets a 408

    def __init__(
        self,
        listen_host: str = "127.0.0.1",
        listen_port: int = 0,
        controller: IcnController | None = None,
        controller_url: str | None = None,
        default_upstream_port: int = 80,
        initial_backoff_ms: float = DEFAULT_INITIAL_BACKOFF_MS,
        backoff_factor: float = DEFAULT_BACKOFF_FACTOR,
        max_retries: int = DEFAULT_MAX_RETRIES,
    ):
        if controller is None and controller_url is None:
            raise ValueError("need an in-process controller or a controller URL")
        self.controller = controller
        self.controller_url = controller_url.rstrip("/") if controller_url else None
        self.default_upstream_port = default_upstream_port
        self.waits_ms = backoff_waits(initial_backoff_ms, backoff_factor, max_retries)
        self._listener = socket.create_server((listen_host, listen_port))
        self._listener.settimeout(0.2)
        self._running = False
        self._thread: threading.Thread | None = None
        self.sessions: dict[tuple, ProxySession] = {}  # open sessions by client address

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def start(self) -> "DelayedBindingProxy":
        self._running = True
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._running = False
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        self._listener.close()

    def _accept_loop(self) -> None:
        while self._running:
            try:
                conn, addr = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                return
            threading.Thread(target=self._serve, args=(conn, addr), daemon=True).start()

    def _read_head(self, conn: socket.socket) -> bytes:
        conn.settimeout(self.read_timeout_s)
        head = b""
        while b"\r\n\r\n" not in head and len(head) < 65536:
            chunk = conn.recv(4096)
            if not chunk:
                break
            head += chunk
        return head

    def _steer(self, notification) -> dict | None:
        if self.controller is not None:
            outcome = self.controller.handle_proxy_request(notification)
            if isinstance(outcome, SteeringDeferred):
                return None
            return {"ip": outcome.connect_ip, "port": outcome.connect_port}
        url = f"{self.controller_url}/{PROXY_REQUEST_PATH}"
        data = json.dumps(notification.to_params()).encode("utf-8")
        request = Request(url, data=data, headers={"Content-Type": "application/json"})
        try:
            with urlopen(request, timeout=10.0) as response:
                return json.loads(response.read().decode("utf-8"))
        except OSError:
            return None

    def _dial(self, ip: str, port: int) -> socket.socket | None:
        for index, wait_ms in enumerate([0.0, *self.waits_ms]):
            if index > 0:
                time.sleep(wait_ms / 1000.0)
            try:
                return socket.create_connection((ip, port), timeout=5.0)
            except OSError:
                continue
        return None

    def _serve(self, conn: socket.socket, addr: tuple) -> None:
        client_ip, client_port = addr[0], addr[1]
        with conn:
            try:
                head = self._read_head(conn)
            except TimeoutError:
                conn.sendall(b"HTTP/1.1 408 Request Timeout\r\nContent-Length: 0\r\n\r\n")
                return
            if not head:
                return
            try:
                _method, _path, host = parse_request_head(head)
            except MalformedHttp:
                conn.sendall(b"HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n")
                return
            try:
                dst_ip = socket.gethostbyname(host)
            except OSError:
                dst_ip = "0.0.0.0"
            session = ProxySession(
                (client_ip, client_port, dst_ip, self.default_upstream_port, 6),
                client_mac="00:00:00:00:00:00",
            )
            self.sessions[addr] = session
            try:
                answer = self._steer(session.on_client_request(head))
                if answer is None:
                    conn.sendall(b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n")
                    return
                session.mark_steered()
                upstream = self._dial(str(answer["ip"]), int(answer["port"]))
                if upstream is None:
                    conn.sendall(b"HTTP/1.1 502 Bad Gateway\r\nContent-Length: 0\r\n\r\n")
                    return
                with upstream:
                    upstream.sendall(head)
                    session.mark_spliced()
                    self._splice(conn, upstream)
            finally:
                session.close()
                del self.sessions[addr]

    @staticmethod
    def _splice(a: socket.socket, b: socket.socket) -> None:
        """Pump bytes both ways until either side hangs up."""

        def pump(src: socket.socket, dst: socket.socket) -> None:
            try:
                while True:
                    data = src.recv(16384)
                    if not data:
                        break
                    dst.sendall(data)
            except OSError:
                pass
            finally:
                try:
                    dst.shutdown(socket.SHUT_WR)
                except OSError:
                    pass

        upstream_to_client = threading.Thread(target=pump, args=(b, a), daemon=True)
        upstream_to_client.start()
        pump(a, b)
        upstream_to_client.join(timeout=5.0)
