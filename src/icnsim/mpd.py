"""DASH manifest handling for layered (SVC) content.

Only the subset needed for URL-based steering is supported: one Period,
AdaptationSets holding Representations whose ``dependencyId`` attribute names
the layers a representation builds on, and segment URLs coming from either an
explicit SegmentList or a SegmentTemplate with ``$Number$`` expansion.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from enum import Enum
from urllib.parse import urljoin, urlsplit

from .errors import (
    CyclicDependency,
    DuplicateSegmentUrl,
    MalformedXml,
    MissingMandatoryElement,
    UnknownRepresentation,
)

# one million one-second segments is eleven days of media
_MAX_TEMPLATE_SEGMENTS = 1_000_000

_DURATION_RE = re.compile(
    r"^P(?:(?P<d>\d+(?:\.\d+)?)D)?"
    r"(?:T(?:(?P<h>\d+(?:\.\d+)?)H)?(?:(?P<m>\d+(?:\.\d+)?)M)?(?:(?P<s>\d+(?:\.\d+)?)S)?)?$"
)


def parse_iso_duration(text: str) -> float:
    m = _DURATION_RE.match(text.strip())
    if not m or not any(m.groupdict().values()):
        raise MalformedXml(f"bad ISO-8601 duration {text!r}")
    days = float(m.group("d") or 0)
    hours = float(m.group("h") or 0)
    minutes = float(m.group("m") or 0)
    seconds = float(m.group("s") or 0)
    return ((days * 24 + hours) * 60 + minutes) * 60 + seconds


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _children(element: ET.Element, name: str) -> list[ET.Element]:
    return [child for child in element if _local(child.tag) == name]


def _number(element: ET.Element, name: str, convert, default=None):
    """Attribute ``name`` of ``element`` through ``convert``; text that does not convert is malformed."""
    text = element.get(name)
    if text is None:
        return default
    try:
        return convert(text)
    except ValueError:
        raise MalformedXml(f"non-numeric {_local(element.tag)}@{name} {text!r}") from None


def _segment_seconds(element: ET.Element, default_duration: float) -> float:
    """``duration / timescale`` of a segment source, which must be finite and positive."""
    duration = _number(element, "duration", float, default_duration)
    timescale = _number(element, "timescale", float, 1.0)
    # nan fails every comparison; a timescale that is not positive stops before the division
    if not (timescale > 0 and 0 < duration / timescale < math.inf):
        raise MalformedXml(
            f"{_local(element.tag)} segment duration {duration!r} / timescale {timescale!r}"
            " is not finite and positive"
        )
    return duration / timescale


def _url_path(url: str) -> str:
    path = urlsplit(url).path
    return path if path.startswith("/") else "/" + path


@dataclass(frozen=True)
class Representation:
    repr_id: int
    bandwidth: int
    dependency_ids: tuple[int, ...]
    segment_urls: tuple[str, ...]


class UrlKind(Enum):
    MPD = "mpd"
    SEGMENT = "segment"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class UrlMatch:
    kind: UrlKind
    repr_id: int | None = None
    segment_number: int | None = None


@dataclass
class MpdManifest:
    mpd_path: str
    duration_s: float
    segment_duration_s: float
    representations: dict[int, Representation]
    url_index: dict[str, tuple[int, int]] = field(default_factory=dict, compare=False)
    start_number: int = 1

    def __post_init__(self) -> None:
        if not self.url_index:
            for rid in sorted(self.representations):
                rep = self.representations[rid]
                for offset, url in enumerate(rep.segment_urls):
                    if url in self.url_index:
                        raise DuplicateSegmentUrl(f"segment url {url!r} appears twice")
                    self.url_index[url] = (rid, self.start_number + offset)

    @property
    def segment_count(self) -> int:
        first = next(iter(self.representations.values()))
        return len(first.segment_urls)

    def segment_url(self, repr_id: int, segment_number: int) -> str:
        rep = self.representations[repr_id]
        return rep.segment_urls[segment_number - self.start_number]


def is_mpd_url(url: str) -> bool:
    return _url_path(url).lower().endswith(".mpd")


def parse_mpd(xml_text: str | bytes, mpd_url: str) -> MpdManifest:
    """Parse the supported MPD subset and index every segment URL."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise MalformedXml(str(exc)) from None
    if _local(root.tag) != "MPD":
        raise MissingMandatoryElement("document root is not MPD")
    duration_attr = root.get("mediaPresentationDuration")
    if not duration_attr:
        raise MissingMandatoryElement("MPD@mediaPresentationDuration")
    duration_s = parse_iso_duration(duration_attr)
    periods = _children(root, "Period")
    if not periods:
        raise MissingMandatoryElement("Period")

    representations: dict[int, Representation] = {}
    segment_duration: float | None = None
    start_number = 1
    for period in periods:
        for aset in _children(period, "AdaptationSet"):
            set_template = next(iter(_children(aset, "SegmentTemplate")), None)
            for rep in _children(aset, "Representation"):
                parsed = _parse_representation(rep, set_template, duration_s, mpd_url)
                representation, seg_dur, start_number = parsed
                if representation.repr_id in representations:
                    raise MissingMandatoryElement(
                        f"representation id {representation.repr_id} is not unique"
                    )
                representations[representation.repr_id] = representation
                segment_duration = segment_duration or seg_dur
    if not representations:
        raise MissingMandatoryElement("Representation")

    counts = {len(r.segment_urls) for r in representations.values()}
    if len(counts) != 1:
        raise MissingMandatoryElement(f"unequal segment counts across representations: {sorted(counts)}")
    manifest = MpdManifest(
        mpd_path=_url_path(mpd_url),
        duration_s=duration_s,
        segment_duration_s=segment_duration or duration_s,
        representations=representations,
        start_number=start_number,
    )
    _check_acyclic(manifest)
    return manifest


def _parse_representation(
    rep: ET.Element,
    set_template: ET.Element | None,
    duration_s: float,
    mpd_url: str,
) -> tuple[Representation, float, int]:
    rid_attr = rep.get("id")
    bandwidth_attr = rep.get("bandwidth")
    if rid_attr is None:
        raise MissingMandatoryElement("Representation@id")
    if bandwidth_attr is None:
        raise MissingMandatoryElement("Representation@bandwidth")
    try:
        rid = int(rid_attr)
    except ValueError:
        raise MissingMandatoryElement(f"non-integer Representation@id {rid_attr!r}") from None
    bandwidth = _number(rep, "bandwidth", int)
    try:
        dep_ids = {int(tok) for tok in (rep.get("dependencyId") or "").split()}
    except ValueError:
        raise MalformedXml(f"non-numeric Representation@dependencyId {rep.get('dependencyId')!r}") from None
    deps = tuple(sorted(dep_ids - {rid}))

    seg_list = next(iter(_children(rep, "SegmentList")), None)
    # childless Elements are falsy, so `or` would drop a per-Representation template
    template = next(iter(_children(rep, "SegmentTemplate")), None)
    if template is None:
        template = set_template
    if seg_list is not None:
        seg_dur = _segment_seconds(seg_list, duration_s)
        urls = tuple(
            _url_path(urljoin(mpd_url, seg.get("media", "")))
            for seg in _children(seg_list, "SegmentURL")
        )
        if not urls:
            raise MissingMandatoryElement("SegmentURL")
        return Representation(rid, bandwidth, deps, urls), seg_dur, 1
    if template is not None:
        media = template.get("media")
        if not media:
            raise MissingMandatoryElement("SegmentTemplate@media")
        if template.get("duration") is None:
            raise MissingMandatoryElement("SegmentTemplate@duration")
        seg_dur = _segment_seconds(template, 0.0)
        segments = round(duration_s / seg_dur, 9)
        # a tiny positive duration overflows the count to inf, or asks for billions of URLs
        if not segments <= _MAX_TEMPLATE_SEGMENTS:
            raise MalformedXml(f"SegmentTemplate expands to {segments!r} segments")
        count = math.ceil(segments)
        start = _number(template, "startNumber", int, 1)
        urls = []
        for number in range(start, start + count):
            expanded = (
                media.replace("$RepresentationID$", str(rid))
                .replace("$Bandwidth$", bandwidth_attr)
                .replace("$Number$", str(number))
            )
            urls.append(_url_path(urljoin(mpd_url, expanded)))
        return Representation(rid, bandwidth, deps, tuple(urls)), seg_dur, start
    raise MissingMandatoryElement("SegmentList or SegmentTemplate")


def _check_acyclic(manifest: MpdManifest) -> None:
    colors: dict[int, int] = {}

    def visit(rid: int, trail: tuple[int, ...]) -> None:
        state = colors.get(rid, 0)
        if state == 1:
            raise CyclicDependency(f"dependency cycle through {rid}: {trail + (rid,)}")
        if state == 2:
            return
        colors[rid] = 1
        rep = manifest.representations.get(rid)
        if rep is None:
            raise UnknownRepresentation(f"dependency on missing representation {rid}")
        for dep in rep.dependency_ids:
            visit(dep, trail + (rid,))
        colors[rid] = 2

    for rid in sorted(manifest.representations):
        visit(rid, ())


def resolve_chain(manifest: MpdManifest, repr_id: int) -> list[int]:
    """Every layer the given representation transitively depends on, plus itself.

    The result is ascending, which is also decode order for layered video.
    """
    if repr_id not in manifest.representations:
        raise UnknownRepresentation(f"representation {repr_id} not in manifest")
    chain: set[int] = set()
    stack = [repr_id]
    while stack:
        rid = stack.pop()
        if rid in chain:
            continue
        rep = manifest.representations.get(rid)
        if rep is None:
            raise UnknownRepresentation(f"dependency on missing representation {rid}")
        chain.add(rid)
        stack.extend(rep.dependency_ids)
    return sorted(chain)


def classify_url(manifest: MpdManifest, url: str) -> UrlMatch:
    path = _url_path(url)
    if path == manifest.mpd_path:
        return UrlMatch(UrlKind.MPD)
    hit = manifest.url_index.get(path)
    if hit is not None:
        return UrlMatch(UrlKind.SEGMENT, repr_id=hit[0], segment_number=hit[1])
    return UrlMatch(UrlKind.UNKNOWN)
