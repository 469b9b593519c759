import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import line_topology, random_topology
from icnsim.errors import ConfigError, Unreachable
from icnsim.topology import Host, Link, Topology, order_by_distance


def test_line_topology_validates():
    topo = line_topology(3, hosts={"a": "s1", "b": "s3"})
    topo.validate()


def test_no_switches_rejected():
    with pytest.raises(ConfigError, match="no switches"):
        Topology(switches=[], links=[], hosts={}).validate()


def test_duplicate_switch_rejected():
    with pytest.raises(ConfigError, match="duplicate switch"):
        Topology(switches=["s1", "s1"], links=[], hosts={}).validate()


def test_link_to_unknown_switch_rejected():
    link = Link(a="s1", a_port=1, b="nope", b_port=1, latency_ms=1.0, bandwidth_mbps=10.0)
    with pytest.raises(ConfigError, match="unknown switch"):
        Topology(switches=["s1"], links=[link], hosts={}).validate()


def test_port_reuse_rejected():
    links = [
        Link(a="s1", a_port=1, b="s2", b_port=1, latency_ms=1.0, bandwidth_mbps=10.0),
        Link(a="s1", a_port=1, b="s3", b_port=1, latency_ms=1.0, bandwidth_mbps=10.0),
    ]
    with pytest.raises(ConfigError, match="reused"):
        Topology(switches=["s1", "s2", "s3"], links=links, hosts={}).validate()


def test_host_attachment_clashing_with_link_port_rejected():
    topo = line_topology(2)
    host = Host(host_id="h", mac="02:00:00:00:00:01", ip="10.0.0.1", dpid="s1", port=1)
    with pytest.raises(ConfigError, match="clashes"):
        Topology(switches=topo.switches, links=topo.links, hosts={"h": host}).validate()


def test_nonpositive_latency_rejected():
    link = Link(a="s1", a_port=1, b="s2", b_port=1, latency_ms=0.0, bandwidth_mbps=10.0)
    with pytest.raises(ConfigError, match="latency"):
        Topology(switches=["s1", "s2"], links=[link], hosts={}).validate()


def test_duplicate_host_ip_rejected():
    topo = line_topology(2)
    hosts = {
        "a": Host(host_id="a", mac="02:00:00:00:00:01", ip="10.0.0.1", dpid="s1", port=5),
        "b": Host(host_id="b", mac="02:00:00:00:00:02", ip="10.0.0.1", dpid="s2", port=5),
    }
    with pytest.raises(ConfigError, match="duplicate host ip"):
        Topology(switches=topo.switches, links=topo.links, hosts=hosts).validate()


def test_disconnected_hosts_rejected():
    hosts = {
        "a": Host(host_id="a", mac="02:00:00:00:00:01", ip="10.0.0.1", dpid="s1", port=5),
        "b": Host(host_id="b", mac="02:00:00:00:00:02", ip="10.0.0.2", dpid="s2", port=5),
    }
    with pytest.raises(Unreachable):
        Topology(switches=["s1", "s2"], links=[], hosts=hosts).validate()


# -- routing ---------------------------------------------------------------------


def brute_force_cost(topology: Topology, src: str, dst: str) -> float:
    """Cheapest latency over every simple permutation path; exponential but tiny."""
    if src == dst:
        return 0.0
    direct = {}
    for link in topology.links:
        key = frozenset((link.a, link.b))
        direct[key] = min(direct.get(key, float("inf")), link.latency_ms)
    best = float("inf")
    others = [s for s in topology.switches if s not in (src, dst)]
    for length in range(len(others) + 1):
        for middle in itertools.permutations(others, length):
            path = [src, *middle, dst]
            cost = 0.0
            for here, there in zip(path, path[1:]):
                cost += direct.get(frozenset((here, there)), float("inf"))
            best = min(best, cost)
    return best


def test_shortest_path_simple_line():
    topo = line_topology(4)
    assert topo.shortest_path("s1", "s4") == ["s1", "s2", "s3", "s4"]
    assert topo.shortest_path("s3", "s3") == ["s3"]


def test_shortest_path_prefers_cheap_detour():
    links = [
        Link(a="s1", a_port=1, b="s2", b_port=1, latency_ms=10.0, bandwidth_mbps=10.0),
        Link(a="s1", a_port=2, b="s3", b_port=1, latency_ms=1.0, bandwidth_mbps=10.0),
        Link(a="s3", a_port=2, b="s2", b_port=2, latency_ms=1.0, bandwidth_mbps=10.0),
    ]
    topo = Topology(switches=["s1", "s2", "s3"], links=links, hosts={})
    assert topo.shortest_path("s1", "s2") == ["s1", "s3", "s2"]


def test_equal_cost_tie_breaks_lexicographically():
    # two equal-cost routes s1->s4: via s2 and via s3
    links = [
        Link(a="s1", a_port=1, b="s2", b_port=1, latency_ms=1.0, bandwidth_mbps=10.0),
        Link(a="s2", a_port=2, b="s4", b_port=1, latency_ms=1.0, bandwidth_mbps=10.0),
        Link(a="s1", a_port=2, b="s3", b_port=1, latency_ms=1.0, bandwidth_mbps=10.0),
        Link(a="s3", a_port=2, b="s4", b_port=2, latency_ms=1.0, bandwidth_mbps=10.0),
    ]
    topo = Topology(switches=["s1", "s2", "s3", "s4"], links=links, hosts={})
    assert topo.shortest_path("s1", "s4") == ["s1", "s2", "s4"]


def test_route_takes_the_fastest_of_parallel_links():
    links = [
        Link(a="s1", a_port=1, b="s2", b_port=1, latency_ms=10.0, bandwidth_mbps=10.0),
        Link(a="s1", a_port=2, b="s2", b_port=2, latency_ms=1.0, bandwidth_mbps=10.0),
        Link(a="s1", a_port=3, b="s2", b_port=3, latency_ms=1.0, bandwidth_mbps=10.0),
    ]
    topo = Topology(switches=["s1", "s2"], links=links, hosts={})
    route = topo.route("s1", "s2")
    # the first listed of the two 1 ms links, as shortest_path costed it
    assert route.ports == (2,)
    assert route.links == (links[1],)
    assert route.latency_ms == 1.0
    assert topo.route("s2", "s1").ports == (2,)


def test_unreachable_switch_raises():
    topo = Topology(switches=["s1", "s2"], links=[], hosts={})
    with pytest.raises(Unreachable):
        topo.shortest_path("s1", "s2")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_shortest_path_cost_matches_brute_force(seed):
    topo = random_topology(random.Random(seed), max_switches=5)
    for src, dst in itertools.product(topo.switches, repeat=2):
        route = topo.route(src, dst)
        assert list(route.dpids) == topo.shortest_path(src, dst)
        assert route.latency_ms == pytest.approx(brute_force_cost(topo, src, dst))
        assert len(route.ports) == len(route.links) == len(route.dpids) - 1
        for here, there, port, link in zip(route.dpids, route.dpids[1:], route.ports, route.links):
            assert topo.peer_port(here, port)[0] == there
            assert (here, port) in ((link.a, link.a_port), (link.b, link.b_port))
        assert topo.route(src, dst) is route


def test_host_latency_includes_both_access_cables():
    topo = line_topology(3, latency_ms=2.0, hosts={"a": "s1", "b": "s3"})
    # access 0.5 each side + 2 + 2 switch hops
    assert topo.host_latency("a", "b") == pytest.approx(5.0)
    assert topo.host_latency("a", "a") == pytest.approx(1.0)


def test_order_by_distance_nearest_first_ties_by_id():
    topo = line_topology(3, hosts={"client": "s1", "near": "s1", "far": "s3", "alt": "s1"})
    client = topo.host("client")
    candidates = [
        ("far", topo.host("far").attachment),
        ("near", topo.host("near").attachment),
        ("alt", topo.host("alt").attachment),
    ]
    assert order_by_distance(topo, client.attachment, candidates) == ["alt", "near", "far"]
