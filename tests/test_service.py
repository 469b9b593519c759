"""The live faces: REST control plane, prefetch receiver, socket proxy."""

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import pytest

from conftest import SMALL_MPD
from helpers import line_topology
from icnsim.controller import IcnController
from icnsim.flows import FlowManager
from icnsim.registry import IcnRegistry
from icnsim.service import (
    DelayedBindingProxy,
    HttpHooks,
    PrefetchReceiver,
    make_control_server,
)


@pytest.fixture()
def control():
    topo = line_topology(2, hosts={"proxy": "s1", "cache": "s1", "origin": "s2"})
    controller = IcnController(IcnRegistry(topo), FlowManager(topo))
    server = make_control_server(controller)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield controller, f"http://{host}:{port}"
    server.shutdown()
    server.server_close()


def call(base, method, path, params=None, body=None, headers=None):
    """One request with params as JSON, or with a raw body and headers as given."""
    if body is None and params is not None:
        body = json.dumps(params).encode()
    request = Request(f"{base}/{path}", data=body, method=method,
                      headers=headers or {"Content-Type": "application/json"})
    try:
        with urlopen(request, timeout=5.0) as response:
            return response.status, json.loads(response.read() or b"{}")
    except HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


def test_rest_round_trip(control):
    _, base = control
    status, body = call(base, "POST", "onos/icn/icn",
                        {"name": "bbb", "description": "d", "type": "SVC_PREFETCH"})
    assert (status, body) == (201, {"id": "icn-0001"})

    status, body = call(base, "POST", "onos/icn/cache",
                        {"instance": "icn-0001", "mac": "aa:00:00:00:00:01",
                         "ip": "10.0.0.8", "port": 3128,
                         "location": {"dpid": "s1", "port": 102}, "type": "squid"})
    assert (status, body) == (201, {"id": "cache-0001"})

    status, listing = call(base, "GET", "onos/icn/icn")
    assert status == 200
    assert listing["instances"][0]["name"] == "bbb"
    assert listing["endpoints"][0]["location"] == {"dpid": "s1", "port": 102}

    status, body = call(base, "POST", "onos/icn/icn", {"name": "x", "type": "BOGUS"})
    assert status == 400 and body["error"] == "InvalidIcnType"

    status, _ = call(base, "DELETE", "onos/icn/cache/cache-0001")
    assert status == 200
    status, _ = call(base, "GET", "onos/icn/nothing")
    assert status == 404


def test_rest_proxyrequest_default_gateway(control):
    _, base = control
    status, body = call(base, "POST", "onos/icn/proxyrequest", {
        "uri": "/file.bin", "hostname": "elsewhere.example",
        "source_ip": "10.0.0.1", "destination_ip": "10.9.9.9",
        "source_port": 40000, "destination_port": 80,
    })
    assert status == 200
    assert body["defaultGateway"] is True
    assert (body["ip"], body["port"]) == ("10.9.9.9", 80)
    assert body["cache"] is None

    status, body = call(base, "POST", "onos/icn/proxyrequest", {"uri": "/x"})
    assert status == 400 and body["error"] == "BadNotification"


GATEWAY_REQUEST = {
    "uri": "/file.bin", "hostname": "elsewhere.example",
    "source_ip": "10.0.0.1", "destination_ip": "10.9.9.9",
    "source_port": 40000, "destination_port": 80,
}


@pytest.mark.parametrize("path", ["onos/icn/proxyrequest", "onos/icn/icn"])
@pytest.mark.parametrize(
    "body, headers",
    [
        (b'{"uri": "/v/seg1.svc", "hostname": "conc', {"Content-Type": "application/json"}),
        (b'{"uri": "\xff"}', {"Content-Type": "application/json"}),
        (b"uri=%2Fx", {"Content-Type": "application/x-www-form-urlencoded", "Content-Length": "ten"}),
    ],
    ids=["truncated-json", "undecodable", "bad-content-length"],
)
def test_unparseable_body_gets_400_and_the_server_keeps_answering(control, path, body, headers):
    _, base = control
    status, answer = call(base, "POST", path, body=body, headers=headers)
    assert status == 400 and answer["error"] == "BadRequest"
    status, answer = call(base, "POST", "onos/icn/proxyrequest", GATEWAY_REQUEST)
    assert status == 200 and answer["defaultGateway"] is True


def test_duplicate_proxyrequest_gets_409(control):
    _, base = control
    params = {"instance": "icn-0001", "location": {"dpid": "s1", "port": 101}}
    assert call(base, "POST", "onos/icn/icn", {"name": "bbb", "type": "PLAIN"})[0] == 201
    assert call(base, "POST", "onos/icn/proxy", {**params, "mac": "aa:00:00:00:00:01",
                                                 "ip": "10.0.0.7", "proxy_port": 8080})[0] == 201
    assert call(base, "POST", "onos/icn/cache", {**params, "mac": "aa:00:00:00:00:02",
                                                 "ip": "10.0.0.8", "port": 3128})[0] == 201
    assert call(base, "POST", "onos/icn/provider",
                {"instance": "icn-0001", "name": "p", "network": "10.0.0.0/8",
                 "uripattern": "/v/.*", "hostpattern": ".*"})[0] == 201
    request = {**GATEWAY_REQUEST, "uri": "/v/seg1.svc", "source_port": 40001}
    status, first = call(base, "POST", "onos/icn/proxyrequest", request)
    assert status == 200 and first["cache"] == "cache-0001"
    status, second = call(base, "POST", "onos/icn/proxyrequest", request)
    assert status == 409 and second["error"] == "DuplicateSession"


def make_icn_world(receiver_port):
    """Controller whose prefetch dispatch POSTs to a live receiver."""
    topo = line_topology(2, hosts={"proxy": "s1", "cache": "s1", "origin": "s2"})
    flows = FlowManager(topo)
    hooks = HttpHooks(flows, fetcher=lambda path, host: SMALL_MPD.encode())
    controller = IcnController(IcnRegistry(topo), flows, hooks)
    post = controller.handle_management_request
    assert post("POST", "onos/icn/icn", {"name": "bbb", "type": "SVC_PREFETCH"})[0] == 201
    assert post("POST", "onos/icn/proxy",
                {"instance": "icn-0001", "mac": "aa:00:00:00:00:01", "ip": "10.0.0.7",
                 "proxy_port": 8080, "location": {"dpid": "s1", "port": 103}})[0] == 201
    assert post("POST", "onos/icn/prefetch",
                {"instance": "icn-0001", "mac": "aa:00:00:00:00:02", "ip": "127.0.0.1",
                 "prefetch_port": receiver_port, "location": {"dpid": "s1", "port": 104}})[0] == 201
    assert post("POST", "onos/icn/cache",
                {"instance": "icn-0001", "mac": "aa:00:00:00:00:03", "ip": "10.0.0.8",
                 "port": 3128, "location": {"dpid": "s1", "port": 105}})[0] == 201
    assert post("POST", "onos/icn/provider",
                {"instance": "icn-0001", "name": "p", "network": "10.0.0.0/8",
                 "uripattern": "/v/.*", "hostpattern": ".*"})[0] == 201
    return controller


def notification(uri, sport):
    from icnsim.proxy import ProxyRequestNotification

    return ProxyRequestNotification(
        uri=uri, hostname="video.example", smac="aa:00:00:00:00:09",
        source_ip="10.0.0.9", destination_ip="10.9.9.9", protocol=6,
        source_port=sport, destination_port=80,
    )


def test_prefetch_commands_travel_over_http():
    receiver = PrefetchReceiver().start()
    try:
        controller = make_icn_world(receiver.address[1])
        controller.handle_proxy_request(notification("/v/small.mpd", 40001))
        controller.handle_proxy_request(notification("/v/small_rep2_seg1.svc", 40002))
        deadline = time.monotonic() + 5.0
        while len(receiver.commands) < 24 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert len(receiver.commands) == 24  # chain(2) x 8 segments
        first = receiver.commands[0]
        assert first == {"uri": "/v/small_rep0_seg1.svc", "server": "video.example", "port": 80}
    finally:
        receiver.stop()


def test_prefetch_dispatch_reports_unreachable_receiver():
    controller = make_icn_world(receiver_port=1)  # nothing listens there
    logged = []
    controller.hooks.log = lambda kind, payload: logged.append((kind, payload))
    controller.handle_proxy_request(notification("/v/small.mpd", 40001))
    controller.handle_proxy_request(notification("/v/small_rep0_seg1.svc", 40002))
    failures = [p for k, p in logged if k == "PrefetchIssued" and not p["ok"]]
    assert len(failures) == 8


class CountingOrigin:
    """Tiny web origin that counts accepted connections."""

    def __init__(self):
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *_args):
                pass

            def do_GET(self):
                body = f"origin:{self.path}".encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        class Server(ThreadingHTTPServer):
            def process_request(self, request, client_address):
                outer.connections += 1
                super().process_request(request, client_address)

        self.connections = 0
        self.server = Server(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        threading.Thread(target=self.server.serve_forever, daemon=True).start()

    @property
    def port(self):
        return self.server.server_address[1]

    def stop(self):
        self.server.shutdown()
        self.server.server_close()


def gateway_controller():
    topo = line_topology(2, hosts={"proxy": "s1", "origin": "s2"})
    return IcnController(IcnRegistry(topo), FlowManager(topo))  # no providers


def test_proxy_dials_upstream_only_after_the_head():
    origin = CountingOrigin()
    proxy = DelayedBindingProxy(
        controller=gateway_controller(), default_upstream_port=origin.port
    ).start()
    try:
        with socket.create_connection(proxy.address, timeout=5.0) as conn:
            time.sleep(0.3)  # connected, but the URL is still unknown
            assert origin.connections == 0
            conn.sendall(b"GET /hello HTTP/1.1\r\nHost: localhost\r\n\r\n")
            reply = b""
            while chunk := conn.recv(4096):
                reply += chunk
        assert b"200" in reply.split(b"\r\n", 1)[0]
        assert reply.endswith(b"origin:/hello")
        assert origin.connections == 1
        deadline = time.time() + 2.0
        while proxy.sessions and time.time() < deadline:
            time.sleep(0.01)  # the worker notices our close asynchronously
        assert proxy.sessions == {}  # only open sessions are held
    finally:
        proxy.stop()
        origin.stop()


def test_proxy_answers_400_to_garbage():
    origin = CountingOrigin()
    proxy = DelayedBindingProxy(
        controller=gateway_controller(), default_upstream_port=origin.port
    ).start()
    try:
        with socket.create_connection(proxy.address, timeout=5.0) as conn:
            conn.sendall(b"NOT A REQUEST\r\n\r\n")
            reply = conn.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400")
        assert origin.connections == 0
    finally:
        proxy.stop()
        origin.stop()


def test_proxy_gives_up_with_502_when_upstream_is_dead():
    # grab a port with nothing behind it
    placeholder = socket.socket()
    placeholder.bind(("127.0.0.1", 0))
    dead_port = placeholder.getsockname()[1]
    placeholder.close()
    proxy = DelayedBindingProxy(
        controller=gateway_controller(), default_upstream_port=dead_port,
        initial_backoff_ms=1.0, max_retries=2,
    ).start()
    try:
        with socket.create_connection(proxy.address, timeout=5.0) as conn:
            conn.sendall(b"GET / HTTP/1.1\r\nHost: localhost\r\n\r\n")
            reply = conn.recv(4096)
        assert reply.startswith(b"HTTP/1.1 502")
    finally:
        proxy.stop()


def test_proxy_steers_through_rest_controller(control):
    _, base = control
    origin = CountingOrigin()
    proxy = DelayedBindingProxy(
        controller_url=base, default_upstream_port=origin.port
    ).start()
    try:
        with socket.create_connection(proxy.address, timeout=5.0) as conn:
            conn.sendall(b"GET /file HTTP/1.1\r\nHost: localhost\r\n\r\n")
            reply = b""
            while chunk := conn.recv(4096):
                reply += chunk
        assert reply.endswith(b"origin:/file")
    finally:
        proxy.stop()
        origin.stop()
