"""The live faces: REST control plane, prefetch receiver, socket proxy."""

import json
import socket
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import pytest

from conftest import SMALL_MPD
from helpers import line_topology
from icnsim.controller import IcnController, ImmediateHooks
from icnsim.flows import FlowManager
from icnsim.mpd import parse_mpd, resolve_chain
from icnsim.registry import IcnRegistry
from icnsim.service import (
    DelayedBindingProxy,
    HttpHooks,
    PrefetchReceiver,
    make_control_server,
)


@contextmanager
def serving(controller, defer_wait_s=None):
    """A control server for ``controller`` on a free port; yields its base URL."""
    server = make_control_server(controller)
    if defer_wait_s is not None:
        server.RequestHandlerClass.defer_wait_s = defer_wait_s
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture()
def control():
    topo = line_topology(2, hosts={"proxy": "s1", "cache": "s1", "origin": "s2"})
    controller = IcnController(IcnRegistry(topo), FlowManager(topo))
    with serving(controller) as base:
        yield controller, base


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


def test_registry_listing_waits_for_the_controller_lock(control):
    controller, base = control
    assert call(base, "POST", "onos/icn/icn", {"name": "bbb", "type": "PLAIN"})[0] == 201
    answers = []
    with controller._lock:
        thread = threading.Thread(target=lambda: answers.append(call(base, "GET", "onos/icn/icn")))
        thread.start()
        thread.join(timeout=0.2)
        assert answers == []  # the handler waits on the lock this thread holds
    thread.join(timeout=5.0)
    assert answers == [(200, controller.registry.to_dict())]


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


def serve_small_mpd(path, host):
    return SMALL_MPD.encode()


def make_icn_world(
    receiver_port, hooks_class=HttpHooks, fetcher=serve_small_mpd, icn_type="SVC_PREFETCH", lookahead=None
):
    """Controller whose prefetch dispatch POSTs to a live receiver (with the default hooks)."""
    topo = line_topology(2, hosts={"proxy": "s1", "cache": "s1", "origin": "s2"})
    flows = FlowManager(topo)
    controller = IcnController(IcnRegistry(topo), flows, hooks_class(flows, fetcher), lookahead=lookahead)
    post = controller.handle_management_request
    assert post("POST", "onos/icn/icn", {"name": "bbb", "type": icn_type})[0] == 201
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


def proxyrequest(uri, sport, source_ip="10.0.0.9", hostname="video.example"):
    return {"uri": uri, "hostname": hostname, "source_ip": source_ip,
            "destination_ip": "10.9.9.9", "source_port": sport, "destination_port": 80}


@pytest.mark.parametrize(
    "payload",
    [
        b"<MPD mediaPresentationDuration=",
        SMALL_MPD.replace('bandwidth="400000"', 'bandwidth="fast"').encode(),
        SMALL_MPD.replace('timescale="1000"', 'timescale="0"').encode(),
    ],
    ids=["truncated", "non-numeric-bandwidth", "zero-timescale"],
)
def test_manifest_that_fails_to_parse_does_not_wedge_the_instance(payload):
    controller = make_icn_world(1, ImmediateHooks, lambda path, host: payload, "DISTRIBUTED_SVC_PREFETCH")
    logged = []
    controller.hooks.log = lambda kind, payload: logged.append((kind, payload))
    with serving(controller, defer_wait_s=0.5) as base:
        status, answer = call(base, "POST", "onos/icn/proxyrequest", proxyrequest("/v/small.mpd", 40001))
        assert status == 200 and answer["cache"] == "cache-0001"
        assert logged == [("ManifestReady", {"path": "/v/small.mpd", "ok": False})]
        assert controller.state["icn-0001"].pending_manifests == set()
        # an unknown layer is answered at once, not held until a 503
        status, answer = call(base, "POST", "onos/icn/proxyrequest",
                              proxyrequest("/v/small_rep3_seg1.svc", 40002))
        assert status == 200 and answer["cache"] == "cache-0001"


class RecordingDispatch(ImmediateHooks):
    def __init__(self, flows, fetcher):
        super().__init__(flows, fetcher)
        self.dispatched = []

    def dispatch_prefetch(self, prefetcher, command):
        self.dispatched.append((command.server, command.uri))
        return True


class BlockingDispatch(RecordingDispatch):
    """Holds every command for the viewer of ``blocked.example`` until ``release`` is set."""

    def __init__(self, flows, fetcher):
        super().__init__(flows, fetcher)
        self.entered, self.release = threading.Event(), threading.Event()

    def dispatch_prefetch(self, prefetcher, command):
        if command.server == "blocked.example":
            self.entered.set()
            self.release.wait(timeout=10.0)
        return super().dispatch_prefetch(prefetcher, command)


def test_a_stalled_prefetch_dispatch_does_not_hold_up_other_calls():
    controller = make_icn_world(1, BlockingDispatch)
    hooks = controller.hooks
    stalled = []
    with serving(controller) as base:
        assert call(base, "POST", "onos/icn/proxyrequest", proxyrequest("/v/small.mpd", 40000))[0] == 200
        thread = threading.Thread(target=lambda: stalled.append(call(
            base, "POST", "onos/icn/proxyrequest",
            proxyrequest("/v/small_rep1_seg1.svc", 40001, hostname="blocked.example"))))
        thread.start()
        try:
            assert hooks.entered.wait(timeout=5.0)
            # both answered while the first viewer's dispatch is still held
            assert call(base, "POST", "onos/icn/cache",
                        {"instance": "icn-0001", "mac": "aa:00:00:00:00:04", "ip": "10.0.0.6",
                         "port": 3128, "location": {"dpid": "s1", "port": 106}})[0] == 201
            status, answer = call(base, "POST", "onos/icn/proxyrequest",
                                  proxyrequest("/v/small_rep1_seg1.svc", 40002, source_ip="10.0.0.10"))
            assert status == 200 and answer["cache"]
            assert thread.is_alive() and stalled == []
        finally:
            hooks.release.set()
            thread.join(timeout=10.0)
    assert [status for status, _ in stalled] == [200]
    # chain(1) x 8 segments for each viewer
    assert Counter(server for server, _ in hooks.dispatched) == {"blocked.example": 16, "video.example": 16}


LONG_MPD = SMALL_MPD.replace('"PT16S"', '"PT1000S"')  # 500 segments of 2 s


def test_concurrent_proxyrequests_keep_the_controller_consistent():
    """8 handler threads; in each round two of them race to plan a viewer's whole video."""
    controller = make_icn_world(1, RecordingDispatch, lambda path, host: LONG_MPD.encode())
    manifest = parse_mpd(LONG_MPD, "/v/small.mpd")
    rounds, threads_count = 4, 8
    barrier = threading.Barrier(threads_count, timeout=20.0)
    answers, failures = [], []

    def client(thread_index, base):
        pair = thread_index // 2
        rep = 2 + thread_index % 2  # the pair's union is chain(3)
        for round_index in range(rounds):
            source_ip = f"10.0.{round_index + 1}.{pair + 1}"
            hostname = f"viewer{round_index}-{pair}.example"
            barrier.wait()
            # the first request plans the whole video; the rest, a seek back included, plan nothing
            for step, segment in enumerate((1, 2, 3, 4, 1)):
                sport = 40000 + 100 * thread_index + 10 * round_index + step
                uri = f"/v/small_rep{rep}_seg{segment}.svc"
                try:
                    answers.append(call(base, "POST", "onos/icn/proxyrequest",
                                        proxyrequest(uri, sport, source_ip, hostname)))
                except OSError as exc:  # a dropped socket
                    failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with serving(controller) as base:
            assert call(base, "POST", "onos/icn/proxyrequest", proxyrequest("/v/small.mpd", 39999))[0] == 200
            threads = [threading.Thread(target=client, args=(t, base)) for t in range(threads_count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)

    assert failures == []
    assert len(answers) == threads_count * rounds * 5
    assert [status for status, _ in answers if status != 200] == []
    tokens = [answer["decision"] for _, answer in answers]
    assert len(set(tokens)) == len(tokens)
    chain = resolve_chain(manifest, 3)
    every_uri = [manifest.segment_url(layer, n) for n in range(1, 501) for layer in chain]
    expected = Counter(
        (f"viewer{r}-{pair}.example", uri) for r in range(rounds) for pair in range(4) for uri in every_uri
    )
    assert Counter(controller.hooks.dispatched) == expected


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


def test_proxy_answers_408_to_a_stalled_head():
    proxy = DelayedBindingProxy(controller=gateway_controller())
    proxy.read_timeout_s = 0.2
    proxy.start()
    try:
        with socket.create_connection(proxy.address, timeout=2.0) as conn:
            conn.sendall(b"GET /slow HTTP/1.1\r\nHost: loc")  # and nothing more
            started = time.monotonic()
            reply = conn.recv(4096)
        assert reply.startswith(b"HTTP/1.1 408")
        assert time.monotonic() - started < 1.0
    finally:
        proxy.stop()


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
