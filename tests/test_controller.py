"""Steering decisions: the controller seen from the proxy and the data plane."""

import pytest

from conftest import SMALL_MPD
from helpers import line_topology
from icnsim.controller import IcnController, SteeringDeferred, SteeringResponse
from icnsim.flows import FlowManager, InstallState, tcp_header
from icnsim.mpd import parse_mpd
from icnsim.proxy import ProxyRequestNotification
from icnsim.registry import IcnRegistry

MPD_PATH = "/v/small.mpd"


def seg(rid, number):
    return f"/v/small_rep{rid}_seg{number}.svc"
HOSTNAME = "video.example.net"


class RecordingHooks:
    """Immediate activation plus visibility into everything the controller asks for."""

    def __init__(self, flows, manifest=None, hold_manifest=False):
        self.flows = flows
        self.manifest = manifest
        self.hold_manifest = hold_manifest
        self.pending_done = []
        self.dispatched = []
        self.logged = []
        self.time = 0.0

    def now_ms(self):
        return self.time

    def activate_installation(self, installation):
        self.flows.activate(installation)

    def fetch_mpd(self, url_path, hostname, done):
        if self.hold_manifest:
            self.pending_done.append(done)
        else:
            done(self.manifest)

    def release_manifests(self):
        for done in self.pending_done:
            done(self.manifest)
        self.pending_done.clear()

    def dispatch_prefetch(self, prefetcher, command):
        self.dispatched.append((prefetcher.endpoint_id, command))
        return True

    def log(self, kind, payload):
        self.logged.append((kind, payload))


def build(icn_type="SVC_PREFETCH", hold_manifest=False, caches=("cache1", "cache2")):
    topo = line_topology(
        3,
        hosts={
            "client": "s1", "proxy": "s1", "prefetcher": "s1",
            "cache1": "s1", "cache2": "s2", "origin": "s3",
        },
    )
    flows = FlowManager(topo)
    hooks = RecordingHooks(flows, manifest=parse_mpd(SMALL_MPD, MPD_PATH), hold_manifest=hold_manifest)
    ctrl = IcnController(IcnRegistry(topo), flows, hooks)
    post = ctrl.handle_management_request
    assert post("POST", "onos/icn/icn", {"name": "bbb", "type": icn_type})[0] == 201
    for role, host_id, key, port in (
        ("proxy", "proxy", "proxy_port", 8080),
        ("prefetch", "prefetcher", "prefetch_port", 9090),
        *((("cache", c, "port", 3128)) for c in caches),
    ):
        h = topo.host(host_id)
        status, _ = post(
            "POST", f"onos/icn/{role}",
            {"instance": "icn-0001", "mac": h.mac, "ip": h.ip, key: port,
             "location": {"dpid": h.dpid, "port": h.port}},
        )
        assert status == 201
    status, _ = post(
        "POST", "onos/icn/provider",
        {"instance": "icn-0001", "name": "p", "network": "10.0.0.0/24",
         "uripattern": "/v/.*", "hostpattern": r"video\.example\..*"},
    )
    assert status == 201
    return topo, ctrl, hooks


_SPORT = iter(range(34001, 65000))


def notify(topo, uri, host=HOSTNAME, source="client", sport=None):
    if sport is None:
        sport = next(_SPORT)
    src = topo.host(source)
    origin = topo.host("origin")
    return ProxyRequestNotification(
        uri=uri, hostname=host, smac=src.mac, source_ip=src.ip,
        destination_ip=origin.ip, protocol=6, source_port=sport, destination_port=80,
    )


def test_packet_in_redirects_web_traffic_to_nearest_proxy():
    topo, ctrl, _ = build()
    client, proxy, origin = topo.host("client"), topo.host("proxy"), topo.host("origin")
    installs = ctrl.handle_packet_in(client.ip, origin.ip, 80)
    assert len(installs) == 1 and installs[0].state is InstallState.ACTIVE
    walk = ctrl.flows.packet_walk(client, tcp_header(client.mac, client.ip, 34001, origin.mac, origin.ip, 80))
    assert walk.delivered_to == "proxy"
    assert walk.header["tcp_dst"] == 8080


def test_packet_in_routes_infrastructure_and_other_ports_normally():
    topo, ctrl, _ = build()
    proxy, origin, client = topo.host("proxy"), topo.host("origin"), topo.host("client")
    # the proxy's own upstream dial must not loop back into the proxy
    installs = ctrl.handle_packet_in(proxy.ip, origin.ip, 80)
    assert len(installs) == 1
    walk = ctrl.flows.packet_walk(proxy, tcp_header(proxy.mac, proxy.ip, 40000, origin.mac, origin.ip, 80))
    assert walk.delivered_to == "origin"
    # non-web ports go to their destination untouched
    installs = ctrl.handle_packet_in(client.ip, topo.host("prefetcher").ip, 9090)
    assert len(installs) == 1
    assert all(r.priority < 50 for r in installs[0].forward_rules)


def test_packet_in_from_unknown_source_is_ignored():
    _, ctrl, _ = build()
    assert ctrl.handle_packet_in("192.168.9.9", "10.0.0.1", 80) == []


def test_unmatched_request_goes_to_default_gateway():
    topo, ctrl, _ = build()
    note = notify(topo, "/elsewhere/file.bin", host="other.example.org")
    response = ctrl.handle_proxy_request(note)
    assert isinstance(response, SteeringResponse)
    assert response.default_gateway is True
    assert (response.connect_ip, response.connect_port) == (note.destination_ip, 80)
    assert response.cache_id is None


def test_instance_without_caches_falls_back_to_default_gateway():
    topo, ctrl, _ = build(caches=())
    response = ctrl.handle_proxy_request(notify(topo, "/v/anything.bin"))
    assert response.default_gateway is True


def test_steering_answers_with_the_virtual_destination():
    topo, ctrl, _ = build()
    note = notify(topo, seg(2, 1))  # classify needs the manifest; unknown here
    response = ctrl.handle_proxy_request(note)
    assert isinstance(response, SteeringResponse)
    assert response.default_gateway is False
    # the proxy keeps dialing the address the client asked for; only the
    # flow rules know about the cache
    assert (response.connect_ip, response.connect_port) == (note.destination_ip, 80)
    assert response.cache_id == "cache-0001"
    proxy, cache1, origin = topo.host("proxy"), topo.host("cache1"), topo.host("origin")
    walk = ctrl.flows.packet_walk(
        proxy, tcp_header(proxy.mac, proxy.ip, note.source_port, origin.mac, origin.ip, 80)
    )
    assert walk.delivered_to == "cache1"
    assert walk.header["tcp_dst"] == 3128


def test_mpd_request_triggers_ingest_and_fans_out_on_segments():
    topo, ctrl, hooks = build()
    mpd_response = ctrl.handle_proxy_request(notify(topo, MPD_PATH))
    assert isinstance(mpd_response, SteeringResponse)
    assert mpd_response.cache_id == "cache-0001"  # manifest itself is cacheable
    assert ("ManifestReady", {"path": MPD_PATH, "ok": True, "representations": 4, "segments": 8}) in hooks.logged
    assert hooks.dispatched == []  # nothing to push until a segment is seen

    # client asks for layer 2 of segment 1
    ctrl.handle_proxy_request(notify(topo, seg(2, 1)))
    uris = [cmd.uri for _, cmd in hooks.dispatched]
    # chain(2) = [0,1,2] over segments 1..8, minus the chunk already in flight
    assert len(uris) == 24
    assert uris[0] == seg(0, 1)
    assert all(pfx == "prefetch-0001" for pfx, _ in hooks.dispatched)
    for _, cmd in hooks.dispatched:
        assert cmd.server == HOSTNAME and cmd.port == 80


def test_fan_out_dedups_per_client():
    topo, ctrl, hooks = build()
    ctrl.handle_proxy_request(notify(topo, MPD_PATH))
    ctrl.handle_proxy_request(notify(topo, seg(2, 1)))
    first = len(hooks.dispatched)
    ctrl.handle_proxy_request(notify(topo, seg(2, 2), sport=34002))
    assert len(hooks.dispatched) == first  # segment 2 was already planned


def test_prefetcher_requests_do_not_fan_out():
    topo, ctrl, hooks = build()
    ctrl.handle_proxy_request(notify(topo, MPD_PATH))
    before = len(hooks.dispatched)
    response = ctrl.handle_proxy_request(notify(topo, seg(2, 1), source="prefetcher"))
    assert isinstance(response, SteeringResponse)
    assert len(hooks.dispatched) == before


def test_plain_instance_never_ingests_manifests():
    topo, ctrl, hooks = build(icn_type="PLAIN")
    response = ctrl.handle_proxy_request(notify(topo, MPD_PATH))
    assert isinstance(response, SteeringResponse)
    assert response.cache_id == "cache-0001"
    assert hooks.logged == []
    assert hooks.dispatched == []


def test_distributed_allocation_splits_layers_across_caches():
    topo, ctrl, hooks = build(icn_type="DISTRIBUTED_SVC_PREFETCH")
    ctrl.handle_proxy_request(notify(topo, MPD_PATH))
    # 4 layers over [cache1, cache2] -> cache1 gets 0..1, cache2 gets 2..3
    low = ctrl.handle_proxy_request(notify(topo, seg(1, 1)))
    assert low.cache_id == "cache-0001"
    high = ctrl.handle_proxy_request(notify(topo, seg(3, 1), sport=34002))
    assert high.cache_id == "cache-0002"
    assert high.connect_ip == topo.host("origin").ip
    # the client's two requests planned chain(3) over every segment
    uris = [cmd.uri for _, cmd in hooks.dispatched]
    assert sorted(uris) == sorted(seg(rid, n) for rid in range(4) for n in range(1, 9))
    # the prefetcher's own request for each planned URI is steered by layer
    by_cache = {}
    for sport, uri in enumerate(uris, 40001):
        answer = ctrl.handle_proxy_request(notify(topo, uri, source="prefetcher", sport=sport))
        rid = int(uri.split("_rep")[1].split("_")[0])
        by_cache.setdefault(answer.cache_id, set()).add(rid)
    assert by_cache == {"cache-0001": {0, 1}, "cache-0002": {2, 3}}


def test_distributed_defers_while_the_manifest_is_pending():
    topo, ctrl, hooks = build(icn_type="DISTRIBUTED_SVC_PREFETCH", hold_manifest=True)
    ctrl.handle_proxy_request(notify(topo, MPD_PATH))
    hooks.time = 100.0
    ctrl.note_manifest_eta("icn-0001", MPD_PATH, 450.0)
    deferred = ctrl.handle_proxy_request(notify(topo, seg(3, 1), sport=34002))
    assert isinstance(deferred, SteeringDeferred)
    assert deferred.ready_at_ms == 450.0

    hooks.time = 460.0
    hooks.release_manifests()
    response = ctrl.handle_proxy_request(notify(topo, seg(3, 1), sport=34002))
    assert isinstance(response, SteeringResponse)
    assert response.cache_id == "cache-0002"


def test_non_distributed_never_defers():
    topo, ctrl, hooks = build(icn_type="SVC_PREFETCH", hold_manifest=True)
    ctrl.handle_proxy_request(notify(topo, MPD_PATH))
    response = ctrl.handle_proxy_request(notify(topo, seg(3, 1), sport=34002))
    assert isinstance(response, SteeringResponse)
    assert response.cache_id == "cache-0001"


def test_session_flows_key_on_client_source_port():
    topo, ctrl, _ = build()
    note = notify(topo, seg(2, 1), sport=42424)
    response = ctrl.handle_proxy_request(note)
    proxy = topo.host("proxy")
    assert response.installation is not None
    # a second identical notification while the session is live must refuse
    from icnsim.errors import DuplicateSession

    with pytest.raises(DuplicateSession):
        ctrl.handle_proxy_request(notify(topo, seg(2, 1), sport=42424))
    ctrl.flows.teardown(response.installation)
    again = ctrl.handle_proxy_request(notify(topo, seg(2, 1), sport=42424))
    assert isinstance(again, SteeringResponse)
