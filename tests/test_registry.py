import pytest

from helpers import line_topology
from icnsim.controller import IcnController
from icnsim.errors import (
    AmbiguousMatch,
    DuplicateAddress,
    InvalidIcnType,
    MalformedCidr,
    MalformedPattern,
    UnknownInstance,
    UnknownSwitch,
)
from icnsim.flows import FlowManager
from icnsim.registry import EndpointRole, IcnRegistry, IcnType


def make_topo():
    return line_topology(
        3, hosts={"client": "s1", "proxy": "s1", "cache1": "s1", "cache2": "s2", "origin": "s3"}
    )


def controller_for(topo):
    return IcnController(IcnRegistry(topo), FlowManager(topo))


def test_icn_type_flags():
    assert not IcnType.PLAIN.prefetches
    assert IcnType.SVC_PREFETCH.prefetches and not IcnType.SVC_PREFETCH.distributed
    assert IcnType.DISTRIBUTED_SVC_PREFETCH.prefetches
    assert IcnType.DISTRIBUTED_SVC_PREFETCH.distributed


def test_create_instance_rejects_unknown_type():
    registry = IcnRegistry()
    with pytest.raises(InvalidIcnType):
        registry.create_instance("x", "", "SUPER_PREFETCH")


def test_register_endpoint_checks():
    registry = IcnRegistry(make_topo())
    inst = registry.create_instance("bbb", "", "PLAIN")
    registry.register_endpoint(inst.instance_id, "proxy", "AA:00:00:00:00:01", "10.0.0.2", 8080, "s1", 101)
    stored = registry.endpoints["proxy-0001"]
    assert stored.mac == "aa:00:00:00:00:01"  # normalized
    with pytest.raises(DuplicateAddress):
        registry.register_endpoint(inst.instance_id, "proxy", "aa:00:00:00:00:02", "10.0.0.2", 8080, "s1", 102)
    with pytest.raises(UnknownSwitch):
        registry.register_endpoint(inst.instance_id, "cache", "aa:00:00:00:00:03", "10.0.0.3", 3128, "s9", 101)
    with pytest.raises(UnknownInstance):
        registry.register_endpoint("icn-9999", "cache", "aa:00:00:00:00:03", "10.0.0.3", 3128, "s1", 103)


def test_provider_validation():
    registry = IcnRegistry()
    inst = registry.create_instance("bbb", "", "PLAIN")
    with pytest.raises(MalformedCidr):
        registry.register_provider(inst.instance_id, "p", "10.0.0.0/99", ".*", ".*")
    with pytest.raises(MalformedPattern):
        registry.register_provider(inst.instance_id, "p", "10.0.0.0/24", "(", ".*")


def test_match_request_is_anchored():
    registry = IcnRegistry()
    inst = registry.create_instance("bbb", "", "SVC_PREFETCH")
    registry.register_provider(
        inst.instance_id, "p", "10.0.0.0/24", "/SVCDataset/.*", r"concert\.itec\..*"
    )
    hit = registry.match_request("10.0.0.1", "concert.itec.aau.at", "/SVCDataset/x.svc")
    assert hit is not None and hit[0].instance_id == inst.instance_id
    # pattern must cover the whole path and host, not merely occur inside them
    assert registry.match_request("10.0.0.1", "concert.itec.aau.at", "/other/SVCDataset/x") is None
    assert registry.match_request("10.0.0.1", "evil-concert.itec.aau.at", "/SVCDataset/x") is None
    assert registry.match_request("10.0.1.1", "concert.itec.aau.at", "/SVCDataset/x") is None


def test_match_request_precedence_and_ambiguity():
    registry = IcnRegistry()
    inst = registry.create_instance("bbb", "", "PLAIN")
    wide = registry.register_provider(inst.instance_id, "wide", "10.0.0.0/16", ".*", ".*")
    narrow = registry.register_provider(inst.instance_id, "narrow", "10.0.0.0/24", ".*", ".*")
    _, chosen = registry.match_request("10.0.0.5", "h", "/x")
    assert chosen.provider_id == narrow.provider_id  # longest prefix wins
    _, chosen = registry.match_request("10.0.7.5", "h", "/x")
    assert chosen.provider_id == wide.provider_id

    other = registry.create_instance("rival", "", "PLAIN")
    registry.register_provider(other.instance_id, "dup", "10.0.0.0/24", ".*", ".*")
    with pytest.raises(AmbiguousMatch):
        registry.match_request("10.0.0.5", "h", "/x")


def test_equal_prefixes_break_ties_by_provider_id():
    registry = IcnRegistry()
    inst = registry.create_instance("bbb", "", "PLAIN")
    first = registry.register_provider(inst.instance_id, "a", "10.0.0.0/24", ".*", ".*")
    registry.register_provider(inst.instance_id, "b", "10.0.0.0/24", ".*", ".*")
    _, chosen = registry.match_request("10.0.0.5", "h", "/x")
    assert chosen.provider_id == first.provider_id


def test_ordered_caches_nearest_first():
    topo = make_topo()
    registry = IcnRegistry(topo)
    inst = registry.create_instance("bbb", "", "PLAIN")
    far = registry.register_endpoint(inst.instance_id, "cache", "aa:00:00:00:00:01", "10.0.0.11", 3128, "s2", 101)
    near = registry.register_endpoint(inst.instance_id, "cache", "aa:00:00:00:00:02", "10.0.0.12", 3128, "s1", 103)
    ordered = registry.ordered_caches(inst.instance_id, from_attachment=("s1", 1))
    assert [c.endpoint_id for c in ordered] == [near.endpoint_id, far.endpoint_id]
    # without an attachment the registration order stands
    plain = registry.ordered_caches(inst.instance_id)
    assert [c.endpoint_id for c in plain] == [far.endpoint_id, near.endpoint_id]


def test_delete_cascades():
    registry = IcnRegistry()
    inst = registry.create_instance("bbb", "", "SVC_PREFETCH")
    ep = registry.register_endpoint(inst.instance_id, "cache", "aa:00:00:00:00:01", "10.0.0.11", 3128, "s1", 1)
    prov = registry.register_provider(inst.instance_id, "p", "10.0.0.0/24", ".*", ".*")
    registry.delete_instance(inst.instance_id)
    assert registry.instances == {}
    assert ep.endpoint_id not in registry.endpoints
    assert prov.provider_id not in registry.providers
    with pytest.raises(UnknownInstance):
        registry.delete_endpoint(ep.endpoint_id)


def test_delete_endpoint_drops_it_from_its_instance():
    registry = IcnRegistry()
    inst = registry.create_instance("bbb", "", "PLAIN")
    ep = registry.register_endpoint(inst.instance_id, "proxy", "aa:00:00:00:00:01", "10.0.0.2", 8080, "s1", 1)
    registry.delete_endpoint(ep.endpoint_id)
    assert registry.instance_endpoints(inst.instance_id, EndpointRole.PROXY) == []


def test_instance_endpoints_keep_registration_order_per_instance_and_role():
    registry = IcnRegistry()
    a = registry.create_instance("a", "", "PLAIN").instance_id
    b = registry.create_instance("b", "", "PLAIN").instance_id
    registered = [
        registry.register_endpoint(instance, role, f"aa:00:00:00:00:{i:02x}", f"10.0.0.{i}", 3128, "s1", i)
        for i, (instance, role) in enumerate(
            [(a, "cache"), (b, "cache"), (a, "proxy"), (a, "cache"), (b, "prefetch"), (a, "cache")], start=1
        )
    ]

    def ids(instance, role):
        return [ep.endpoint_id for ep in registry.instance_endpoints(instance, role)]

    assert ids(a, EndpointRole.CACHE) == [registered[i].endpoint_id for i in (0, 3, 5)]
    assert ids(a, EndpointRole.PROXY) == [registered[2].endpoint_id]
    assert ids(b, EndpointRole.CACHE) == [registered[1].endpoint_id]
    assert ids(b, EndpointRole.PREFETCHER) == [registered[4].endpoint_id]

    registry.register_provider(b, "p", "10.0.0.0/24", ".*", ".*")
    registry.delete_endpoint(registered[3].endpoint_id)
    assert ids(a, EndpointRole.CACHE) == [registered[i].endpoint_id for i in (0, 5)]
    registry.delete_instance(a)
    assert sorted(registry.endpoints) == sorted(registered[i].endpoint_id for i in (1, 4))
    assert [p.instance_id for p in registry.providers.values()] == [b]
    with pytest.raises(UnknownInstance):
        registry.instance_endpoints(a, EndpointRole.CACHE)


def test_to_dict_reports_every_registered_field():
    registry = IcnRegistry()
    inst = registry.create_instance("bbb", "layered video", "DISTRIBUTED_SVC_PREFETCH")
    registry.register_endpoint(
        inst.instance_id, "proxy", "aa:00:00:00:00:01", "10.0.0.2", 8080, "s1", 1,
        endpoint_type="delayed-binding", is_proactive=True,
    )
    registry.register_endpoint(inst.instance_id, "cache", "aa:00:00:00:00:02", "10.0.0.3", 3128, "s2", 2, endpoint_type="squid")
    registry.register_provider(inst.instance_id, "p", "10.0.0.0/24", "/SVC.*", "concert.*")
    assert registry.to_dict() == {
        "instances": [
            {"instance_id": "icn-0001", "name": "bbb", "description": "layered video",
             "type": "DISTRIBUTED_SVC_PREFETCH"},
        ],
        "endpoints": [
            {"endpoint_id": "cache-0001", "instance": "icn-0001", "role": "cache", "mac": "aa:00:00:00:00:02",
             "ip": "10.0.0.3", "port": 3128, "location": {"dpid": "s2", "port": 2}, "type": "squid",
             "isProactive": False},
            {"endpoint_id": "proxy-0001", "instance": "icn-0001", "role": "proxy", "mac": "aa:00:00:00:00:01",
             "ip": "10.0.0.2", "port": 8080, "location": {"dpid": "s1", "port": 1}, "type": "delayed-binding",
             "isProactive": True},
        ],
        "providers": [
            {"provider_id": "provider-0001", "instance": "icn-0001", "name": "p", "network": "10.0.0.0/24",
             "uripattern": "/SVC.*", "hostpattern": "concert.*"},
        ],
    }


# -- the REST face shared with the HTTP service ------------------------------


def test_rest_create_and_delete_lifecycle():
    ctrl = controller_for(make_topo())
    status, body = ctrl.handle_management_request(
        "POST", "/onos/icn/icn", {"name": "bbb", "description": "d", "type": "SVC_PREFETCH"}
    )
    assert (status, body) == (201, {"id": "icn-0001"})

    status, body = ctrl.handle_management_request(
        "POST", "/onos/icn/proxy",
        {"instance": "icn-0001", "mac": "aa:00:00:00:00:01", "ip": "10.0.0.2",
         "proxy_port": "8080", "location": {"dpid": "s1", "port": 101},
         "type": "delayed-binding", "isProactive": False},
    )
    assert (status, body) == (201, {"id": "proxy-0001"})

    status, body = ctrl.handle_management_request(
        "POST", "/onos/icn/prefetch",
        {"instance": "icn-0001", "mac": "aa:00:00:00:00:02", "ip": "10.0.0.3",
         "prefetch_port": 9090, "location": {"dpid": "s1", "port": 102}},
    )
    assert (status, body) == (201, {"id": "prefetch-0001"})

    status, body = ctrl.handle_management_request(
        "POST", "/onos/icn/cache",
        {"instance": "icn-0001", "mac": "aa:00:00:00:00:03", "ip": "10.0.0.4",
         "port": 3128, "location": {"dpid": "s2", "port": 101}, "type": "squid"},
    )
    assert (status, body) == (201, {"id": "cache-0001"})

    status, body = ctrl.handle_management_request(
        "POST", "/onos/icn/provider",
        {"instance": "icn-0001", "name": "p", "network": "10.0.0.0/24",
         "uripattern": "/SVC.*", "hostpattern": ".*"},
    )
    assert (status, body) == (201, {"id": "provider-0001"})

    status, _ = ctrl.handle_management_request("DELETE", "/onos/icn/cache/cache-0001", {})
    assert status == 200
    assert "cache-0001" not in ctrl.registry.endpoints

    status, _ = ctrl.handle_management_request("DELETE", "/onos/icn/icn/icn-0001", {})
    assert status == 200
    assert ctrl.registry.instances == {}


def test_rest_error_statuses():
    ctrl = controller_for(make_topo())
    status, body = ctrl.handle_management_request(
        "POST", "onos/icn/icn", {"name": "x", "type": "NOPE"}
    )
    assert status == 400 and body["error"] == "InvalidIcnType"

    status, body = ctrl.handle_management_request(
        "POST", "onos/icn/cache",
        {"instance": "icn-9999", "mac": "m", "ip": "i", "port": 1,
         "location": {"dpid": "s1", "port": 1}},
    )
    assert status == 404 and body["error"] == "UnknownInstance"

    ctrl.handle_management_request("POST", "onos/icn/icn", {"name": "x", "type": "PLAIN"})
    params = {"instance": "icn-0001", "mac": "m", "ip": "10.0.0.9", "port": 1,
              "location": {"dpid": "s1", "port": 105}}
    assert ctrl.handle_management_request("POST", "onos/icn/cache", params)[0] == 201
    status, body = ctrl.handle_management_request("POST", "onos/icn/cache", dict(params))
    assert status == 409 and body["error"] == "DuplicateAddress"

    assert ctrl.handle_management_request("POST", "onos/icn/nonsense", {})[0] == 404
    assert ctrl.handle_management_request("PATCH", "onos/icn/icn", {})[0] == 405

    # fields left out entirely must not escape as KeyError
    status, body = ctrl.handle_management_request("POST", "onos/icn/icn", {"name": "y"})
    assert status == 400 and body["error"] == "BadRequest"
    status, body = ctrl.handle_management_request(
        "POST", "onos/icn/proxy", {"instance": "icn-0001", "mac": "m", "ip": "10.0.0.8"}
    )
    assert status == 400 and body["error"] == "BadRequest"


def test_rest_registering_proactive_proxy_installs_trap():
    topo = make_topo()
    ctrl = controller_for(topo)
    ctrl.handle_management_request("POST", "onos/icn/icn", {"name": "x", "type": "PLAIN"})
    proxy_host = topo.host("proxy")
    status, _ = ctrl.handle_management_request(
        "POST", "onos/icn/proxy",
        {"instance": "icn-0001", "mac": proxy_host.mac, "ip": proxy_host.ip,
         "proxy_port": 8080, "location": {"dpid": proxy_host.dpid, "port": proxy_host.port},
         "isProactive": True},
    )
    assert status == 201
    from icnsim.flows import PRIORITY_PASSTHROUGH, PRIORITY_PROACTIVE, InstallState

    installed = ctrl.flows.installations.values()
    assert all(i.state is InstallState.ACTIVE for i in installed)
    priorities = {r.priority for i in installed for r in i.forward_rules}
    assert PRIORITY_PROACTIVE in priorities
    assert PRIORITY_PASSTHROUGH in priorities
