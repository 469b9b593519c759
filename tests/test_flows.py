import random

import pytest

from helpers import line_topology, random_topology
from icnsim.errors import DuplicateSession
from icnsim.flows import (
    OUTPUT_NORMAL,
    PRIORITY_DEFAULT_GW,
    PRIORITY_PASSTHROUGH,
    PRIORITY_PROACTIVE,
    PRIORITY_SESSION,
    FlowManager,
    FlowRule,
    InstallState,
    Output,
    SetField,
    rule,
    tcp_header,
)
from icnsim.topology import Host, Link, Topology


def make_fabric():
    topo = line_topology(
        3, hosts={"client": "s1", "proxy": "s2", "cache": "s2", "origin": "s3"}
    )
    return topo, FlowManager(topo)


def hosts(topo):
    return (topo.host("client"), topo.host("proxy"), topo.host("cache"), topo.host("origin"))


def test_priority_ladder_values():
    assert PRIORITY_SESSION == 100
    assert PRIORITY_PASSTHROUGH == 60
    assert PRIORITY_PROACTIVE == 50
    assert PRIORITY_DEFAULT_GW == 10
    assert OUTPUT_NORMAL == -1


def test_rule_requires_exactly_one_trailing_output():
    with pytest.raises(ValueError):
        FlowRule("s1", 10, (), (SetField("ip_dst", "10.0.0.1"),))
    with pytest.raises(ValueError):
        FlowRule("s1", 10, (), (Output(1), Output(2)))
    with pytest.raises(ValueError):
        FlowRule("s1", 10, (), (Output(1), SetField("ip_dst", "10.0.0.1")))
    FlowRule("s1", 10, (), (SetField("ip_dst", "x"), Output(1)))  # fine


def test_rule_rejects_unknown_fields():
    with pytest.raises(ValueError):
        rule("s1", 10, {"vlan": 7}, [Output(1)])
    with pytest.raises(ValueError):
        SetField("ip_proto", 17)  # protocol is matchable but never rewritten


def test_lookup_prefers_priority_then_specificity_then_age():
    topo, flows = make_fabric()
    low = rule("s1", 10, {"ip_proto": 6}, [Output(1)])
    specific = rule("s1", 50, {"ip_proto": 6, "tcp_dst": 80}, [Output(2)])
    broad = rule("s1", 50, {"ip_proto": 6}, [Output(3)])
    for r in (low, broad, specific):
        flows._insert(r)
    header = {"ip_proto": 6, "tcp_dst": 80}
    assert flows.lookup("s1", header, in_port=99) is specific
    twin = rule("s1", 50, {"ip_proto": 6, "tcp_dst": 80}, [Output(4)])
    flows._insert(twin)
    assert flows.lookup("s1", header, in_port=99) is specific  # older rule keeps winning


def test_redirect_is_invisible_to_the_client():
    topo, flows = make_fabric()
    client, proxy, _cache, origin = hosts(topo)
    installation = flows.install_redirect_to_proxy(
        client, (origin.mac, origin.ip, 80), proxy, 8080
    )
    assert installation.state is InstallState.PENDING
    flows.activate(installation)

    syn = tcp_header(client.mac, client.ip, 34001, origin.mac, origin.ip, 80)
    walk = flows.packet_walk(client, syn)
    assert walk.delivered_to == "proxy"
    assert walk.header["eth_dst"] == proxy.mac
    assert walk.header["ip_dst"] == proxy.ip
    assert walk.header["tcp_dst"] == 8080

    # ...and the response appears to come from the original destination.
    reply = tcp_header(proxy.mac, proxy.ip, 8080, client.mac, client.ip, 34001)
    back = flows.packet_walk(proxy, reply)
    assert back.delivered_to == "client"
    assert back.header["eth_src"] == origin.mac
    assert back.header["ip_src"] == origin.ip
    assert back.header["tcp_src"] == 80


def test_proxy_session_lands_on_cache_disguised_as_origin():
    topo, flows = make_fabric()
    client, proxy, cache, origin = hosts(topo)
    key = (proxy.ip, 34001, origin.ip, 80)
    installation = flows.install_proxy_to_cache(
        key, proxy, (origin.mac, origin.ip, 80), cache, 3128
    )
    flows.activate(installation)

    dial = tcp_header(proxy.mac, proxy.ip, 34001, origin.mac, origin.ip, 80)
    walk = flows.packet_walk(proxy, dial)
    assert walk.delivered_to == "cache"
    assert walk.header["ip_dst"] == cache.ip
    assert walk.header["tcp_dst"] == 3128

    reply = tcp_header(cache.mac, cache.ip, 3128, proxy.mac, proxy.ip, 34001)
    back = flows.packet_walk(cache, reply)
    assert back.delivered_to == "proxy"
    assert back.header["ip_src"] == origin.ip
    assert back.header["tcp_src"] == 80
    assert back.header["eth_src"] == origin.mac


def test_duplicate_session_rejected_until_teardown():
    topo, flows = make_fabric()
    _client, proxy, cache, origin = hosts(topo)
    key = (proxy.ip, 34001, origin.ip, 80)
    first = flows.install_proxy_to_cache(key, proxy, (origin.mac, origin.ip, 80), cache, 3128)
    with pytest.raises(DuplicateSession):
        flows.install_proxy_to_cache(key, proxy, (origin.mac, origin.ip, 80), cache, 3128)
    flows.teardown(first)
    flows.install_proxy_to_cache(key, proxy, (origin.mac, origin.ip, 80), cache, 3128)


def test_teardown_restores_default_routing_and_is_idempotent():
    topo, flows = make_fabric()
    client, proxy, _cache, origin = hosts(topo)
    installation = flows.install_redirect_to_proxy(client, (origin.mac, origin.ip, 80), proxy, 8080)
    flows.activate(installation)
    flows.teardown(installation)
    flows.teardown(installation)  # second call is a no-op
    assert installation.state is InstallState.REMOVED
    syn = tcp_header(client.mac, client.ip, 34001, origin.mac, origin.ip, 80)
    assert flows.packet_walk(client, syn).delivered_to == "origin"


def test_proactive_rules_cover_every_switch_but_spare_passthrough_sources():
    topo, flows = make_fabric()
    client, proxy, _cache, origin = hosts(topo)
    trap = flows.install_proactive_redirect(proxy, 8080)
    flows.install_passthrough(proxy.ip)

    assert trap.state is InstallState.ACTIVE
    trapped = sorted(r.dpid for r in trap.forward_rules if r.priority == PRIORITY_PROACTIVE)
    assert trapped == sorted(topo.switches)

    syn = tcp_header(client.mac, client.ip, 34001, origin.mac, origin.ip, 80)
    assert flows.packet_walk(client, syn).delivered_to == "proxy"

    upstream = tcp_header(proxy.mac, proxy.ip, 34001, origin.mac, origin.ip, 80)
    walk = flows.packet_walk(proxy, upstream)
    assert walk.delivered_to == "origin"  # passthrough outranks the trap
    assert walk.header["ip_dst"] == origin.ip


def test_passthrough_and_default_route_are_reused_not_duplicated():
    topo, flows = make_fabric()
    client, _proxy, _cache, origin = hosts(topo)
    flows.install_passthrough(client.ip)
    passthrough = flows.installations[("passthrough", client.ip)]
    flows.install_passthrough(client.ip)
    assert flows.installations[("passthrough", client.ip)] is passthrough
    assert len(flows.installations) == 1

    first = flows.install_default_route(client, origin)
    flows.activate(first)
    again = flows.install_default_route(client, origin)
    assert again is first


def test_default_route_returns_along_the_forward_links():
    # s1->s4 ties at 3 ms between s1-s3-s4 and s1-s2-s5-s4; the tie-break picks
    # the latter, while s4->s1 picks s4-s3-s1.
    def link(a, a_port, b, b_port, latency_ms):
        return Link(a=a, a_port=a_port, b=b, b_port=b_port, latency_ms=latency_ms, bandwidth_mbps=10.0)

    links = [
        link("s1", 1, "s2", 1, 1.0), link("s2", 2, "s5", 1, 1.0), link("s5", 2, "s4", 1, 1.0),
        link("s1", 2, "s3", 1, 1.5), link("s3", 2, "s4", 2, 1.5),
    ]
    a = Host(host_id="a", mac="02:00:00:00:00:01", ip="10.0.0.1", dpid="s1", port=10)
    b = Host(host_id="b", mac="02:00:00:00:00:02", ip="10.0.0.2", dpid="s4", port=10)
    topo = Topology(switches=["s1", "s2", "s3", "s4", "s5"], links=links, hosts={"a": a, "b": b})
    assert topo.route("s1", "s4").dpids == ("s1", "s2", "s5", "s4")
    assert topo.route("s4", "s1").dpids == ("s4", "s3", "s1")

    installation = FlowManager(topo).install_default_route(a, b)
    forward = [(r.dpid, r.actions[-1].port) for r in installation.forward_rules]
    reverse = [(r.dpid, r.actions[-1].port) for r in installation.reverse_rules]
    assert forward == [("s1", 1), ("s2", 2), ("s5", 2), ("s4", 10)]
    assert reverse == [("s4", 1), ("s5", 1), ("s2", 1), ("s1", 10)]


def test_session_rules_outrank_proactive_trap():
    topo, flows = make_fabric()
    client, proxy, cache, origin = hosts(topo)
    flows.install_proactive_redirect(proxy, 8080)
    flows.install_passthrough(proxy.ip)
    key = (proxy.ip, 40000, origin.ip, 80)
    session = flows.install_proxy_to_cache(key, proxy, (origin.mac, origin.ip, 80), cache, 3128)
    flows.activate(session)
    # same five-tuple the passthrough would let straight through: session wins
    dial = tcp_header(proxy.mac, proxy.ip, 40000, origin.mac, origin.ip, 80)
    assert flows.packet_walk(proxy, dial).delivered_to == "cache"


@pytest.mark.parametrize("seed", range(25))
def test_random_fabric_transparency(seed):
    """Whatever the fabric looks like, the client sees only origin headers."""
    rng = random.Random(seed)
    topo = random_topology(rng)
    flows = FlowManager(topo)
    client, proxy, cache, origin = (
        topo.host("client"), topo.host("proxy"), topo.host("cache"), topo.host("origin")
    )
    sport = rng.randrange(20000, 60000)
    redirect = flows.install_redirect_to_proxy(client, (origin.mac, origin.ip, 80), proxy, 8080)
    session = flows.install_proxy_to_cache(
        (proxy.ip, sport, origin.ip, 80), proxy, (origin.mac, origin.ip, 80), cache, 3128
    )
    flows.activate(redirect)
    flows.activate(session)

    walk = flows.packet_walk(client, tcp_header(client.mac, client.ip, sport, origin.mac, origin.ip, 80))
    assert walk.delivered_to == "proxy"

    upstream = flows.packet_walk(proxy, tcp_header(proxy.mac, proxy.ip, sport, origin.mac, origin.ip, 80))
    assert upstream.delivered_to == "cache"

    reply = flows.packet_walk(cache, tcp_header(cache.mac, cache.ip, 3128, proxy.mac, proxy.ip, sport))
    assert reply.delivered_to == "proxy"
    assert reply.header["ip_src"] == origin.ip and reply.header["tcp_src"] == 80

    to_client = flows.packet_walk(proxy, tcp_header(proxy.mac, proxy.ip, 8080, client.mac, client.ip, sport))
    assert to_client.delivered_to == "client"
    assert to_client.header["ip_src"] == origin.ip
    assert to_client.header["eth_src"] == origin.mac
    assert to_client.header["tcp_src"] == 80
