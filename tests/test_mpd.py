import importlib.util
import xml.etree.ElementTree as ET
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SMALL_MPD
from icnsim.errors import (
    CyclicDependency,
    DuplicateSegmentUrl,
    MalformedXml,
    MissingMandatoryElement,
    UnknownRepresentation,
)
from icnsim.mpd import (
    MpdManifest,
    Representation,
    UrlKind,
    classify_url,
    is_mpd_url,
    parse_iso_duration,
    parse_mpd,
    resolve_chain,
)

MPD_URL = "http://concert.itec.aau.at/SVCDataset/dataset/mpd-temp/bbb_svc_50.mpd"

SPINE = [0, 1, 2, 16, 17, 18, 32, 33, 34, 48, 49]


@pytest.fixture(scope="module")
def bbb():
    text = resources.files("icnsim.data").joinpath("bbb_svc_50.mpd").read_bytes()
    return parse_mpd(text, MPD_URL)


def serialize_mpd(manifest: MpdManifest) -> bytes:
    """The manifest as MPD XML in SegmentList form: the list-form twin of a template fixture."""
    root = ET.Element("MPD", {
        "xmlns": "urn:mpeg:dash:schema:mpd:2011",
        "mediaPresentationDuration": f"PT{manifest.duration_s:g}S",
        "type": "static",
    })
    period = ET.SubElement(root, "Period")
    aset = ET.SubElement(period, "AdaptationSet", {"mimeType": "video/mp4"})
    timescale = 1000
    for rid in sorted(manifest.representations):
        rep = manifest.representations[rid]
        attrs = {"id": str(rid), "bandwidth": str(rep.bandwidth)}
        if rep.dependency_ids:
            attrs["dependencyId"] = " ".join(str(d) for d in rep.dependency_ids)
        rep_el = ET.SubElement(aset, "Representation", attrs)
        seg_list = ET.SubElement(rep_el, "SegmentList", {
            "duration": str(round(manifest.segment_duration_s * timescale)),
            "timescale": str(timescale),
        })
        for url in rep.segment_urls:
            ET.SubElement(seg_list, "SegmentURL", {"media": url})
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


def test_generator_reproduces_the_packaged_manifest():
    script = Path(__file__).resolve().parents[1] / "tools" / "gen_manifest.py"
    spec = importlib.util.spec_from_file_location("gen_manifest", script)
    gen_manifest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_manifest)  # the __main__ guard keeps it from writing
    packaged = resources.files("icnsim.data").joinpath("bbb_svc_50.mpd").read_bytes()
    assert gen_manifest.build().encode("utf-8") == packaged


def test_fixture_shape(bbb):
    assert sorted(bbb.representations) == list(range(50))
    assert bbb.duration_s == 598.0
    assert bbb.segment_duration_s == 2.0
    assert bbb.segment_count == 299
    for rid, rep in bbb.representations.items():
        assert rep.bandwidth == 400000 + 45000 * rid


def test_fixture_dependency_chains(bbb):
    assert resolve_chain(bbb, 18) == [0, 1, 2, 16, 17, 18]
    assert resolve_chain(bbb, 33) == [0, 1, 2, 16, 17, 18, 32, 33]
    assert resolve_chain(bbb, 49) == SPINE
    assert resolve_chain(bbb, 0) == [0]
    # an off-spine enhancement hangs off the nearest spine layer below it
    assert resolve_chain(bbb, 5) == [0, 1, 2, 5]
    assert resolve_chain(bbb, 20) == [0, 1, 2, 16, 17, 18, 20]


def test_fixture_urls_classify(bbb):
    assert classify_url(bbb, MPD_URL).kind is UrlKind.MPD
    assert classify_url(bbb, "/SVCDataset/dataset/mpd-temp/bbb_svc_50.mpd").kind is UrlKind.MPD
    seg = bbb.segment_url(18, 42)
    match = classify_url(bbb, f"http://concert.itec.aau.at{seg}")
    assert (match.kind, match.repr_id, match.segment_number) == (UrlKind.SEGMENT, 18, 42)
    assert classify_url(bbb, "/somewhere/else.mp4").kind is UrlKind.UNKNOWN


def test_iso_durations():
    assert parse_iso_duration("PT9M58S") == 598.0
    assert parse_iso_duration("PT16S") == 16.0
    assert parse_iso_duration("PT1H2M3.5S") == 3723.5
    assert parse_iso_duration("P1DT1S") == 86401.0
    assert parse_iso_duration("PT598S") == 598.0
    for bad in ("", "P", "PT", "9M58S", "PT9X"):
        with pytest.raises(MalformedXml):
            parse_iso_duration(bad)


def test_is_mpd_url():
    assert is_mpd_url("http://a/b/movie.mpd")
    assert is_mpd_url("/b/MOVIE.MPD")
    assert is_mpd_url("http://a/b/movie.mpd?token=1")
    assert not is_mpd_url("http://a/b/movie.mp4")


def test_template_and_list_forms_agree():
    template = parse_mpd(SMALL_MPD, "http://h/v/small.mpd")
    listed = parse_mpd(serialize_mpd(template), "/v/small.mpd")
    assert listed.representations == template.representations
    assert listed.duration_s == template.duration_s
    assert listed.segment_duration_s == template.segment_duration_s


def test_serialize_parse_fixpoint():
    manifest = parse_mpd(SMALL_MPD, "http://h/v/small.mpd")
    again = parse_mpd(serialize_mpd(manifest), manifest.mpd_path)
    assert again == manifest


def test_template_start_number():
    xml = """<MPD mediaPresentationDuration="PT4S"><Period><AdaptationSet>
      <Representation id="0" bandwidth="1000">
        <SegmentTemplate media="seg$Number$.svc" duration="2" startNumber="5"/>
      </Representation>
    </AdaptationSet></Period></MPD>"""
    manifest = parse_mpd(xml, "http://h/v/a.mpd")
    assert manifest.start_number == 5
    assert manifest.segment_url(0, 5) == "/v/seg5.svc"
    assert classify_url(manifest, "/v/seg6.svc").segment_number == 6


@pytest.mark.parametrize(
    "xml, error",
    [
        ("<MPD mediaPresentation", MalformedXml),
        ("<NotMPD/>", MissingMandatoryElement),
        ("<MPD><Period/></MPD>", MissingMandatoryElement),  # no duration
        ('<MPD mediaPresentationDuration="PT4S"/>', MissingMandatoryElement),  # no period
        ('<MPD mediaPresentationDuration="PT4S"><Period/></MPD>', MissingMandatoryElement),
        (
            '<MPD mediaPresentationDuration="PT4S"><Period><AdaptationSet>'
            '<Representation bandwidth="1"><SegmentTemplate media="s$Number$" duration="2"/>'
            "</Representation></AdaptationSet></Period></MPD>",
            MissingMandatoryElement,  # no id
        ),
        (
            '<MPD mediaPresentationDuration="PT4S"><Period><AdaptationSet>'
            '<Representation id="0"><SegmentTemplate media="s$Number$" duration="2"/>'
            "</Representation></AdaptationSet></Period></MPD>",
            MissingMandatoryElement,  # no bandwidth
        ),
        (
            '<MPD mediaPresentationDuration="PT4S"><Period><AdaptationSet>'
            '<Representation id="zero" bandwidth="1"/>'
            "</AdaptationSet></Period></MPD>",
            MissingMandatoryElement,  # non-integer id
        ),
        (
            '<MPD mediaPresentationDuration="PT4S"><Period><AdaptationSet>'
            '<Representation id="0" bandwidth="fast"><SegmentTemplate media="s$Number$" duration="2"/>'
            "</Representation></AdaptationSet></Period></MPD>",
            MalformedXml,  # non-numeric bandwidth
        ),
        (
            '<MPD mediaPresentationDuration="PT4S"><Period><AdaptationSet>'
            '<Representation id="1" bandwidth="1" dependencyId="zero">'
            '<SegmentTemplate media="s$Number$" duration="2"/>'
            "</Representation></AdaptationSet></Period></MPD>",
            MalformedXml,  # non-numeric dependency id
        ),
        (
            '<MPD mediaPresentationDuration="PT4S"><Period><AdaptationSet>'
            '<Representation id="0" bandwidth="1"><SegmentTemplate media="s$Number$" duration="two"/>'
            "</Representation></AdaptationSet></Period></MPD>",
            MalformedXml,  # non-numeric segment duration
        ),
        (
            '<MPD mediaPresentationDuration="PT4S"><Period><AdaptationSet>'
            '<Representation id="0" bandwidth="1"/>'
            "</AdaptationSet></Period></MPD>",
            MissingMandatoryElement,  # no segment source
        ),
        (
            '<MPD mediaPresentationDuration="PT4S"><Period><AdaptationSet>'
            '<Representation id="0" bandwidth="1"><SegmentTemplate media="s$Number$" duration="2"/></Representation>'
            '<Representation id="0" bandwidth="2"><SegmentTemplate media="t$Number$" duration="2"/></Representation>'
            "</AdaptationSet></Period></MPD>",
            MissingMandatoryElement,  # duplicate id
        ),
        (
            '<MPD mediaPresentationDuration="PT4S"><Period><AdaptationSet>'
            '<Representation id="0" bandwidth="1" dependencyId="1">'
            '<SegmentTemplate media="a$Number$" duration="2"/></Representation>'
            '<Representation id="1" bandwidth="2" dependencyId="0">'
            '<SegmentTemplate media="b$Number$" duration="2"/></Representation>'
            "</AdaptationSet></Period></MPD>",
            CyclicDependency,
        ),
        (
            '<MPD mediaPresentationDuration="PT4S"><Period><AdaptationSet>'
            '<Representation id="1" bandwidth="2" dependencyId="0">'
            '<SegmentTemplate media="b$Number$" duration="2"/></Representation>'
            "</AdaptationSet></Period></MPD>",
            UnknownRepresentation,  # depends on a representation that is absent
        ),
        (
            '<MPD mediaPresentationDuration="PT4S"><Period><AdaptationSet>'
            '<Representation id="0" bandwidth="1"><SegmentTemplate media="same" duration="2"/></Representation>'
            '<Representation id="1" bandwidth="2"><SegmentTemplate media="same" duration="2"/></Representation>'
            "</AdaptationSet></Period></MPD>",
            DuplicateSegmentUrl,
        ),
        # a segment duration (duration / timescale) that is not finite and positive
        *(
            (
                '<MPD mediaPresentationDuration="PT4S"><Period><AdaptationSet>'
                f'<Representation id="0" bandwidth="1">{source}</Representation>'
                "</AdaptationSet></Period></MPD>",
                MalformedXml,
            )
            for source in [
                '<SegmentTemplate media="s$Number$" duration="2" timescale="0"/>',
                '<SegmentTemplate media="s$Number$" duration="2" timescale="inf"/>',
                '<SegmentTemplate media="s$Number$" duration="nan"/>',
                '<SegmentTemplate media="s$Number$" duration="2" timescale="nan"/>',
                '<SegmentTemplate media="s$Number$" duration="2" timescale="-1"/>',
                '<SegmentTemplate media="s$Number$" duration="1e-320"/>',  # count overflows to inf
                '<SegmentTemplate media="s$Number$" duration="1e-10" timescale="1e308"/>',
                '<SegmentTemplate media="s$Number$" duration="1e-9"/>',  # four billion URLs
                '<SegmentList duration="2" timescale="0"><SegmentURL media="a"/></SegmentList>',
                '<SegmentList duration="2" timescale="inf"><SegmentURL media="a"/></SegmentList>',
                '<SegmentList duration="2" timescale="-1"><SegmentURL media="a"/></SegmentList>',
                '<SegmentList duration="nan"><SegmentURL media="a"/></SegmentList>',
            ]
        ),
    ],
)
def test_rejects_broken_manifests(xml, error):
    with pytest.raises(error):
        parse_mpd(xml, "http://h/v/a.mpd")


def test_resolve_chain_unknown_representation(bbb):
    with pytest.raises(UnknownRepresentation):
        resolve_chain(bbb, 50)


def _manifest_from_deps(deps: dict[int, tuple[int, ...]]) -> MpdManifest:
    reps = {
        rid: Representation(rid, 1000 + rid, dep, (f"/r{rid}s1.svc", f"/r{rid}s2.svc"))
        for rid, dep in deps.items()
    }
    return MpdManifest("/a.mpd", 4.0, 2.0, reps)


def _closure(deps: dict[int, tuple[int, ...]], rid: int) -> list[int]:
    seen = {rid}
    frontier = [rid]
    while frontier:
        nxt = []
        for r in frontier:
            for d in deps[r]:
                if d not in seen:
                    seen.add(d)
                    nxt.append(d)
        frontier = nxt
    return sorted(seen)


@st.composite
def dependency_dags(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    deps = {}
    for rid in range(n):
        pool = list(range(rid))
        picks = draw(st.lists(st.sampled_from(pool), unique=True, max_size=3)) if pool else []
        deps[rid] = tuple(sorted(picks))
    return deps


@settings(max_examples=80, deadline=None)
@given(dependency_dags(), st.randoms())
def test_resolve_chain_matches_transitive_closure(deps, rng):
    manifest = _manifest_from_deps(deps)
    rid = rng.choice(sorted(deps))
    chain = resolve_chain(manifest, rid)
    assert chain == _closure(deps, rid)
    assert chain == sorted(set(chain))  # ascending, no repeats
    assert rid in chain
