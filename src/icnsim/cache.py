"""In-memory cache node with LRU eviction and a lossy admission model.

Real deployments refuse to store some objects under churn (disk swap
failures, admission policies); that is what keeps a warmed cache below a
100% hit ratio.  The model draws one admission roll per store attempt from
a seeded generator, so runs are reproducible.
"""

from __future__ import annotations

import random
from enum import Enum


class CacheResult(Enum):
    HIT = "HIT"
    MISS_FILLED = "MISS_FILLED"
    SWAPFAIL_MISS = "SWAPFAIL_MISS"


class CacheNode:
    def __init__(
        self,
        cache_id: str,
        capacity_objects: int | None = None,
        admission_failure_rate: float = 0.0,
        rng: random.Random | None = None,
    ):
        if not 0.0 <= admission_failure_rate <= 1.0:
            raise ValueError("admission_failure_rate must be within [0, 1]")
        self.cache_id = cache_id
        self.capacity_objects = capacity_objects
        self.admission_failure_rate = admission_failure_rate
        self.rng = rng or random.Random()
        self._store: dict[str, int] = {}

    def __contains__(self, url: str) -> bool:
        return url in self._store

    def __len__(self) -> int:
        return len(self._store)

    def _admission_ok(self) -> bool:
        if self.admission_failure_rate <= 0.0:
            return True
        return self.rng.random() >= self.admission_failure_rate

    def serve(self, url: str) -> CacheResult:
        """Decide the outcome of one request; storage happens separately.

        A miss only turns into a cached object once :meth:`complete_fill`
        runs, so a second request racing the upstream fetch still misses.
        """
        if url in self._store:
            self._store[url] = self._store.pop(url)  # refresh LRU position
            return CacheResult.HIT
        if self._admission_ok():
            return CacheResult.MISS_FILLED
        return CacheResult.SWAPFAIL_MISS

    def complete_fill(self, url: str, size: int) -> None:
        self._store.pop(url, None)
        self._store[url] = size
        if self.capacity_objects is not None:
            while len(self._store) > self.capacity_objects:
                oldest = next(iter(self._store))
                del self._store[oldest]

    def warm(self, items: list[tuple[str, int]]) -> int:
        """Preload objects as an earlier identical run would have left them.

        Each insert is still subject to the admission model; returns how many
        objects were actually stored.
        """
        stored = 0
        for url, size in items:
            if self._admission_ok():
                self.complete_fill(url, size)
                stored += 1
        return stored
