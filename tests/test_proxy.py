import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icnsim.errors import MalformedHttp
from icnsim.proxy import ProxySession, attempt_offsets, parse_request_head
from icnsim.scenario import ProxyParams

HEAD = b"GET /SVCDataset/x.svc HTTP/1.1\r\nHost: concert.itec.aau.at\r\n\r\n"


def make_session():
    return ProxySession(("10.0.0.1", 34001, "10.0.0.9", 80, 6), "00:00:00:00:00:01")


def test_parse_origin_form():
    assert parse_request_head(HEAD) == ("GET", "/SVCDataset/x.svc", "concert.itec.aau.at")


def test_parse_absolute_form_with_query():
    head = "GET http://example.com:8080/a/b?x=1 HTTP/1.0\r\n\r\n"
    assert parse_request_head(head) == ("GET", "/a/b?x=1", "example.com")


def test_parse_host_header_strips_port():
    head = "GET / HTTP/1.1\r\nHost: example.com:8080\r\n\r\n"
    assert parse_request_head(head) == ("GET", "/", "example.com")


def test_parse_headers_end_at_blank_line():
    head = "GET / HTTP/1.1\r\nHost: a\r\n\r\nnot: a-header"
    assert parse_request_head(head)[2] == "a"


@pytest.mark.parametrize(
    "raw",
    [
        "",
        "GET /",
        "GET / NOTHTTP",
        "get / HTTP/1.1\r\nHost: a\r\n\r\n",  # lowercase method
        "GET x HTTP/1.1\r\nHost: a\r\n\r\n",  # relative target
        "GET / HTTP/1.1\r\nbroken header\r\n\r\n",
        "GET / HTTP/1.1\r\n\r\n",  # origin-form without Host
    ],
)
def test_parse_rejects_malformed(raw):
    with pytest.raises(MalformedHttp):
        parse_request_head(raw)


def test_session_happy_path_emits_one_notification():
    note = make_session().on_client_request(HEAD)
    assert note.uri == "/SVCDataset/x.svc"
    assert note.hostname == "concert.itec.aau.at"
    assert note.smac == "00:00:00:00:00:01"
    assert (note.source_ip, note.source_port) == ("10.0.0.1", 34001)
    assert (note.destination_ip, note.destination_port) == ("10.0.0.9", 80)
    assert note.protocol == 6


def test_session_closes_on_malformed_head():
    with pytest.raises(MalformedHttp):
        make_session().on_client_request("garbage")


def test_notification_params_wire_names():
    note = make_session().on_client_request(HEAD)
    assert sorted(note.to_params()) == [
        "destination_ip", "destination_port", "hostname", "protocol",
        "smac", "source_ip", "source_port", "uri",
    ]


def test_attempt_offsets_default():
    assert attempt_offsets(ProxyParams()) == [0.0, 10.0, 30.0, 70.0, 150.0, 310.0]


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.5, max_value=50.0),
    st.floats(min_value=1.0, max_value=3.0),
    st.integers(min_value=0, max_value=8),
)
def test_offsets_are_cumulative_waits(initial, factor, retries):
    offsets = attempt_offsets(ProxyParams(initial_backoff_ms=initial, backoff_factor=factor, max_retries=retries))
    assert len(offsets) == retries + 1
    assert offsets[0] == 0.0
    for i in range(retries):
        assert offsets[i + 1] == pytest.approx(offsets[i] + initial * factor**i)
