import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icnsim.cache import CacheNode, CacheResult


def test_miss_then_fill_then_hit():
    cache = CacheNode("c1")
    results = [cache.serve("/a")]
    # the object is not stored until the upstream fetch lands
    assert "/a" not in cache
    results.append(cache.serve("/a"))
    cache.complete_fill("/a", 1000)
    results.append(cache.serve("/a"))
    assert results == [CacheResult.MISS_FILLED, CacheResult.MISS_FILLED, CacheResult.HIT]
    assert len(cache) == 1


def test_lru_eviction_and_refresh():
    cache = CacheNode("c1", capacity_objects=2)
    cache.complete_fill("/a", 1)
    cache.complete_fill("/b", 1)
    cache.serve("/a")  # touches /a so /b is now the oldest
    cache.complete_fill("/c", 1)
    assert "/a" in cache and "/c" in cache and "/b" not in cache
    assert len(cache) == 2


def test_refill_moves_object_to_newest():
    cache = CacheNode("c1", capacity_objects=2)
    cache.complete_fill("/a", 1)
    cache.complete_fill("/b", 1)
    cache.complete_fill("/a", 2)  # re-store refreshes position
    cache.complete_fill("/c", 1)
    assert "/b" not in cache and "/a" in cache


def test_admission_failures_are_seed_deterministic():
    a = CacheNode("c1", admission_failure_rate=0.3, rng=random.Random(7))
    b = CacheNode("c1", admission_failure_rate=0.3, rng=random.Random(7))
    urls = [f"/u{i}" for i in range(200)]
    results_a = [a.serve(u) for u in urls]
    results_b = [b.serve(u) for u in urls]
    assert results_a == results_b
    assert CacheResult.SWAPFAIL_MISS in results_a
    assert CacheResult.MISS_FILLED in results_a
    assert CacheResult.HIT not in results_a  # serve alone never stores
    assert len(a) == 0


def test_swapfail_leaves_nothing_behind():
    cache = CacheNode("c1", admission_failure_rate=1.0, rng=random.Random(1))
    assert cache.serve("/a") is CacheResult.SWAPFAIL_MISS
    assert "/a" not in cache
    assert cache.serve("/a") is CacheResult.SWAPFAIL_MISS
    assert len(cache) == 0


def test_bad_failure_rate_rejected():
    with pytest.raises(ValueError):
        CacheNode("c1", admission_failure_rate=1.5)


def test_warm_respects_admission_model():
    lossless = CacheNode("c1")
    assert lossless.warm([("/a", 1), ("/b", 1)]) == 2
    assert lossless.serve("/a") is CacheResult.HIT

    lossy = CacheNode("c2", admission_failure_rate=0.5, rng=random.Random(3))
    stored = lossy.warm([(f"/u{i}", 1) for i in range(100)])
    assert stored == len(lossy)
    assert 20 < stored < 80  # the roll actually happened


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([f"/u{i}" for i in range(8)]), max_size=60),
    st.integers(min_value=1, max_value=5),
    st.floats(min_value=0.0, max_value=0.9),
    st.integers(min_value=0, max_value=999),
)
def test_results_and_capacity_invariants(urls, capacity, rate, seed):
    cache = CacheNode("c1", capacity_objects=capacity, admission_failure_rate=rate,
                      rng=random.Random(seed))
    for url in urls:
        stored_before = url in cache
        result = cache.serve(url)
        if result is CacheResult.MISS_FILLED:
            cache.complete_fill(url, 100)
        assert (result is CacheResult.HIT) == stored_before
        # a request stores its object exactly when it was a hit or an admitted miss
        assert (url in cache) == (result is not CacheResult.SWAPFAIL_MISS)
        assert len(cache) <= capacity
