import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SMALL_MPD
from icnsim.errors import UnknownRepresentation
from icnsim.mpd import parse_mpd, resolve_chain
from icnsim.prefetch import PlannedSpans, allocate_layers, plan_prefetch


@pytest.fixture(scope="module")
def manifest():
    return parse_mpd(SMALL_MPD, "http://h/v/small.mpd")


def placed(manifest, command):
    """(segment number, layer) of a planned command."""
    repr_id, segment = manifest.url_index[command.uri]
    return segment, repr_id


def test_allocation_fifty_over_two():
    alloc = allocate_layers(50, ["c1", "c2"])
    assert alloc.ranges == (("c1", 0, 25), ("c2", 25, 50))
    assert alloc.cache_for(0) == "c1"
    assert alloc.cache_for(24) == "c1"
    assert alloc.cache_for(25) == "c2"
    assert alloc.cache_for(49) == "c2"
    assert alloc.cache_for(50) is None


def test_allocation_fifty_over_three_nearest_takes_remainder():
    alloc = allocate_layers(50, ["c1", "c2", "c3"])
    assert alloc.ranges == (("c1", 0, 17), ("c2", 17, 34), ("c3", 34, 50))


def test_allocation_more_caches_than_layers():
    alloc = allocate_layers(2, ["c1", "c2", "c3"])
    assert alloc.ranges == (("c1", 0, 1), ("c2", 1, 2), ("c3", 2, 2))
    assert alloc.cache_for(1) == "c2"


def test_allocation_layer_sets_for_the_default_video():
    # chain of rep 18 lands entirely on the near cache; rep 33 adds two
    # layers that belong to the far one
    alloc = allocate_layers(50, ["c1", "c2"])
    chain33 = [0, 1, 2, 16, 17, 18, 32, 33]
    assert [rid for rid in chain33 if alloc.cache_for(rid) == "c1"] == [0, 1, 2, 16, 17, 18]
    assert [rid for rid in chain33 if alloc.cache_for(rid) == "c2"] == [32, 33]


def test_allocation_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        allocate_layers(0, ["c1"])
    with pytest.raises(ValueError):
        allocate_layers(5, [])


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=8))
def test_allocation_is_a_partition(r, n):
    cache_ids = [f"c{i}" for i in range(n)]
    alloc = allocate_layers(r, cache_ids)
    covered = []
    sizes = []
    for cache_id, lo, hi in alloc.ranges:
        covered.extend(range(lo, hi))
        sizes.append(hi - lo)
    assert covered == list(range(r))  # contiguous, disjoint, complete
    assert max(sizes) - min(sizes) <= 1
    assert sizes == sorted(sizes, reverse=True)  # nearer caches take the slack


def test_plan_covers_chain_for_all_remaining_segments(manifest):
    plan = plan_prefetch(manifest, 2, 1, server="10.0.0.9", port=80)
    # chain(2) = [0, 1, 2]; 8 segments of everything
    assert len(plan.commands) == 3 * 8
    first = plan.commands[0]
    assert first.server == "10.0.0.9"
    assert first.port == 80
    assert first.to_params() == {"uri": first.uri, "server": "10.0.0.9", "port": 80}
    # playback order: all layers of segment n before any layer of segment n+1
    order = [placed(manifest, cmd) for cmd in plan.commands]
    assert order == sorted(order)


def test_plan_starts_at_requested_segment(manifest):
    plan = plan_prefetch(manifest, 2, 6, server="s", port=80)
    assert {placed(manifest, cmd)[0] for cmd in plan.commands} == {6, 7, 8}


def test_plan_lookahead_caps_segments(manifest):
    plan = plan_prefetch(manifest, 2, 1, server="s", port=80, lookahead=2)
    assert {placed(manifest, cmd)[0] for cmd in plan.commands} == {1, 2}


def test_plan_dedups_against_caller_state(manifest):
    planned = PlannedSpans()
    first = plan_prefetch(manifest, 1, 1, server="s", port=80, planned=planned)
    assert len(first.commands) == 2 * 8  # chain(1) = [0, 1]
    # a later request for a higher layer only adds what is new
    second = plan_prefetch(manifest, 2, 1, server="s", port=80, planned=planned)
    assert len(second.commands) == 1 * 8
    assert {placed(manifest, cmd)[1] for cmd in second.commands} == {2}
    # layers 0..2 are planned over every segment, layer 3 over none
    assert [planned.gaps(layer, 1, 9) for layer in range(4)] == [[], [], [], [(1, 9)]]
    assert plan_prefetch(manifest, 2, 4, server="s", port=80, planned=planned).commands == []


def reference_plan(manifest, repr_id, segment, lookahead, seen):
    """The full re-walk: every remaining segment, dropping URIs already in ``seen``."""
    stop = manifest.start_number + manifest.segment_count
    if lookahead is not None:
        stop = min(stop, segment + lookahead)
    uris = []
    for number in range(segment, stop):
        for layer in resolve_chain(manifest, repr_id):
            uri = manifest.segment_url(layer, number)
            if uri not in seen:
                seen.add(uri)
                uris.append(uri)
    return uris


requests = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # representation
        st.integers(min_value=1, max_value=8),  # segment: any order, so seeks both ways
        st.one_of(st.none(), st.integers(min_value=1, max_value=4)),  # lookahead
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(requests, min_size=1, max_size=3))
def test_incremental_plan_matches_the_full_rewalk(manifest, viewers):
    for sequence in viewers:
        planned, seen = PlannedSpans(), set()
        for repr_id, segment, lookahead in sequence:
            plan = plan_prefetch(
                manifest, repr_id, segment, server="s", port=80, lookahead=lookahead, planned=planned
            )
            expected = reference_plan(manifest, repr_id, segment, lookahead, seen)
            assert [cmd.uri for cmd in plan.commands] == expected


def test_plan_rejects_bad_inputs(manifest):
    with pytest.raises(UnknownRepresentation):
        plan_prefetch(manifest, 99, 1, server="s", port=80)
    with pytest.raises(UnknownRepresentation):
        plan_prefetch(manifest, 2, 9, server="s", port=80)
    with pytest.raises(UnknownRepresentation):
        plan_prefetch(manifest, 2, 0, server="s", port=80)
