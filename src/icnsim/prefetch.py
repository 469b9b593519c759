"""Layer-to-cache allocation and prefetch planning for layered video.

A video with R representation ids is split into contiguous id ranges, one
per cache, nearest cache first.  Lower layers are needed by every client of
the content, so they belong on the cache closest to the viewers; upper
enhancement layers can live further away.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .errors import UnknownRepresentation
from .mpd import MpdManifest, resolve_chain


@dataclass(frozen=True)
class AllocationMap:
    """Contiguous partition of the representation id space [0, R)."""

    representation_count: int
    ranges: tuple[tuple[str, int, int], ...]  # (cache_id, lo, hi) with hi exclusive

    def cache_for(self, repr_id: int) -> str | None:
        for cache_id, lo, hi in self.ranges:
            if lo <= repr_id < hi:
                return cache_id
        return None


def allocate_layers(representation_count: int, nearest_first: list[str]) -> AllocationMap:
    """Split [0, R) into one contiguous range per cache, nearest first.

    Range sizes differ by at most one; when R does not divide evenly the
    caches earlier in the list (nearer to the client) take the larger share.
    The nearest cache always holds the lowest ids.
    """
    if representation_count < 1:
        raise ValueError("representation_count must be >= 1")
    if not nearest_first:
        raise ValueError("at least one cache is required")
    n = len(nearest_first)
    base, extra = divmod(representation_count, n)
    ranges = []
    lo = 0
    for idx, cache_id in enumerate(nearest_first):
        size = base + (1 if idx < extra else 0)
        ranges.append((cache_id, lo, lo + size))
        lo += size
    return AllocationMap(representation_count, tuple(ranges))


@dataclass(frozen=True)
class PrefetchCommand:
    """Wire form of one prefetch instruction: fetch uri from server:port."""

    uri: str
    server: str
    port: int

    def to_params(self) -> dict[str, object]:
        return {"uri": self.uri, "server": self.server, "port": self.port}


@dataclass
class PrefetchPlan:
    commands: list[PrefetchCommand] = field(default_factory=list)


class PlannedSpans:
    """Segments already planned for one viewer of one manifest.

    Per layer, a sorted list of disjoint, non-adjacent half-open segment
    ranges ``[lo, hi)``, kept as two parallel lists of starts and ends.
    """

    def __init__(self) -> None:
        self._spans: dict[int, tuple[list[int], list[int]]] = {}

    def gaps(self, layer: int, lo: int, hi: int) -> list[tuple[int, int]]:
        """The parts of ``[lo, hi)`` not yet planned for ``layer``, ascending."""
        starts, ends = self._spans.get(layer, ((), ()))
        gaps = []
        cursor = lo
        index = bisect_right(starts, lo) - 1
        if index >= 0:
            cursor = max(cursor, ends[index])
        index += 1
        while cursor < hi and index < len(starts) and starts[index] < hi:
            if starts[index] > cursor:
                gaps.append((cursor, starts[index]))
            cursor = ends[index]
            index += 1
        if cursor < hi:
            gaps.append((cursor, hi))
        return gaps

    def add(self, layer: int, lo: int, hi: int) -> None:
        """Mark ``[lo, hi)`` planned, merging it with every range it touches."""
        if lo >= hi:
            return
        starts, ends = self._spans.setdefault(layer, ([], []))
        first = bisect_left(ends, lo)
        last = bisect_right(starts, hi)
        if first < last:
            lo = min(lo, starts[first])
            hi = max(hi, ends[last - 1])
        starts[first:last] = [lo]
        ends[first:last] = [hi]


def plan_prefetch(
    manifest: MpdManifest,
    requested_repr: int,
    requested_segment: int,
    *,
    server: str,
    port: int,
    lookahead: int | None = None,
    planned: PlannedSpans | None = None,
) -> PrefetchPlan:
    """Commands for every layer of every upcoming segment, in playback order.

    Segments run from the requested one forward (``lookahead`` of them, or to
    the end of the video); within a segment the lowest layer comes first.
    Segments already in ``planned`` (the caller's record for this viewer) are
    skipped and the rest are added to it, so re-requests do not flood the
    prefetcher and a request inside the planned span walks nothing.  Which
    cache a layer lands on is decided when the prefetcher's own request
    reaches the controller.
    """
    chain = resolve_chain(manifest, requested_repr)
    start = requested_segment
    stop = manifest.start_number + manifest.segment_count
    if lookahead is not None:
        stop = min(stop, start + lookahead)
    if not manifest.start_number <= requested_segment < manifest.start_number + manifest.segment_count:
        raise UnknownRepresentation(
            f"segment {requested_segment} outside [{manifest.start_number}, {stop})"
        )
    if planned is None:
        planned = PlannedSpans()
    todo: list[tuple[int, int]] = []
    for layer in chain:
        for lo, hi in planned.gaps(layer, start, stop):
            todo.extend((segment, layer) for segment in range(lo, hi))
        planned.add(layer, start, stop)
    todo.sort()
    return PrefetchPlan(
        [
            PrefetchCommand(uri=manifest.segment_url(layer, segment), server=server, port=port)
            for segment, layer in todo
        ]
    )
