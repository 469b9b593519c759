"""Live steering workload: the REST control service answering proxy notifications.

Each pass starts a control server on a fresh controller, registers one
DISTRIBUTED_SVC_PREFETCH instance over REST, and sends the whole viewer plan
as ``proxyrequest`` POSTs from one client connection in a closed loop.  The
server, its handler threads and the client process share one CPU.  The
controller's fetcher hands back the packaged MPD, so it ingests the manifest
and plans prefetches as a deployed one would.  A fresh controller per pass
keeps source ports unique and memory per pass the same however many passes
fit in a run.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import random
import socket
import statistics
import struct
import sys
import threading
from collections import Counter
from time import perf_counter
from urllib.parse import urlsplit

import checks
import program
import spec
from tracing import Tracer

VIEWERS = ("10.0.0.5", "10.0.0.6", "10.0.0.7", "10.0.0.8")
# One malformed body after every 99 decisions: about 1 POST in 100.  The
# positions and the body do not depend on the seed, so every pass fails the
# same number of POSTs while the program drops the socket on them.
MALFORMED_AFTER = 99
MALFORMED_BODY = b'{"uri": "/SVCDataset/dataset/mpd-temp/bbb_rep0_seg1.svc", "hostname": "concert.it'
PROXYREQUEST = "/onos/icn/proxyrequest"


def post(address, path: str, body: bytes) -> tuple[int | None, bytes, float]:
    """(status, body, host seconds) of one POST; status is None when the socket drops."""
    connection = http.client.HTTPConnection(*address, timeout=30)
    start = perf_counter()
    try:
        connection.connect()
        # Close with a reset once the answer is read: no TIME_WAIT entry
        # outlives the run and slows the next one's connections.
        connection.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        connection.request("POST", path, body, {"Content-Type": "application/json"})
        response = connection.getresponse()
        data = response.read()
        return response.status, data, perf_counter() - start
    except (http.client.HTTPException, OSError):
        return None, b"", perf_counter() - start
    finally:
        connection.close()


def schedule(decisions: list[checks.Decision]) -> list[tuple[int | None, bytes]]:
    """Bodies in send order, each with its decision index (None for a malformed body)."""
    posts: list[tuple[int | None, bytes]] = []
    for index, decision in enumerate(decisions):
        posts.append((index, json.dumps(decision.params).encode("utf-8")))
        if (index + 1) % MALFORMED_AFTER == 0:
            posts.append((None, MALFORMED_BODY))
    return posts


class Service:
    """A control server on a fresh controller, with the instance registered over REST."""

    def __init__(self, config) -> None:
        from icnsim.controller import IcnController, ImmediateHooks
        from icnsim.flows import FlowManager
        from icnsim.registry import IcnRegistry
        from icnsim.service import make_control_server

        mpd_bytes = config.mpd_bytes()
        mpd_path = urlsplit(config.mpd_url).path

        def fetcher(url_path: str, _hostname: str) -> bytes | None:
            return mpd_bytes if url_path == mpd_path else None

        flows = FlowManager(config.topology)
        controller = IcnController(IcnRegistry(config.topology), flows, ImmediateHooks(flows, fetcher))
        self.server = make_control_server(controller)
        self.errors: Counter = Counter()
        self._lock = threading.Lock()
        # Count handler exceptions instead of printing a traceback for each.
        self.server.handle_error = self._count_error
        self._thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self._thread.start()
        self.address = self.server.server_address[:2]
        try:
            self.cache_ids = self._register(config)
        except BaseException:
            self.close()
            raise

    def _count_error(self, _request, _client_address) -> None:
        with self._lock:
            self.errors[sys.exc_info()[0].__name__] += 1

    def _create(self, path: str, params: dict) -> str:
        status, data, _ = post(self.address, f"/onos/icn/{path}", json.dumps(params).encode("utf-8"))
        if status != 201:
            raise checks.CheckFailed(f"registering {path} answered {status}: {data!r}")
        return json.loads(data)["id"]

    def _register(self, config) -> dict[str, str]:
        spec_ = config.registry
        topology = config.topology
        instance = self._create(
            "icn",
            {"name": spec_.instance_name, "description": spec_.instance_description, "type": "DISTRIBUTED_SVC_PREFETCH"},
        )

        def endpoint(entry, port_key: str, path: str) -> str:
            host = topology.host(entry.host)
            params = {
                "instance": instance,
                "mac": host.mac,
                "ip": host.ip,
                port_key: entry.port,
                "location": {"dpid": host.dpid, "port": host.port},
                "type": entry.endpoint_type,
                "isProactive": entry.is_proactive,
            }
            return self._create(path, params)

        for entry in spec_.proxies:
            endpoint(entry, "proxy_port", "proxy")
        cache_ids = {entry.host: endpoint(entry, "port", "cache") for entry in spec_.caches}
        for entry in spec_.prefetchers:
            endpoint(entry, "prefetch_port", "prefetch")
        for provider in spec_.providers:
            self._create(
                "provider",
                {
                    "instance": instance,
                    "name": provider.name,
                    "network": provider.network,
                    "uripattern": provider.uri_pattern,
                    "hostpattern": provider.host_pattern,
                },
            )
        return cache_ids

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join()


def pin_to_one_cpu() -> None:
    """Keep this process, the threads it starts and the client process on one CPU.

    Client and server hand every request back and forth.  Across two CPUs
    each hand-off waits for an idle CPU to wake, and how long that takes
    depends on the host's load more than on the program; on one CPU it is a
    context switch.  Threads and spawned processes inherit the mask.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_pass(address, bodies: list[bytes]) -> tuple[float, list]:
    """Every POST in order, one at a time: (host seconds, results)."""
    start = perf_counter()
    results = [post(address, PROXYREQUEST, body) for body in bodies]
    return perf_counter() - start, results


def _generate_load(conn, bodies: list[bytes]) -> None:
    with conn:
        while (address := conn.recv()) is not None:
            conn.send(run_pass(address, bodies))


class LoadGenerator:
    """The client connection, in a process of their own.

    Kept apart from the server so the client does not compete with its
    handler threads for one interpreter lock.
    """

    def __init__(self, bodies: list[bytes]) -> None:
        context = multiprocessing.get_context("spawn")
        self._conn, child_conn = context.Pipe()
        self._process = context.Process(target=_generate_load, args=(child_conn, bodies), daemon=True)
        self._process.start()
        child_conn.close()

    def run_pass(self, address) -> tuple[float, list]:
        self._conn.send(address)
        try:
            return self._conn.recv()
        except EOFError:
            raise checks.CheckFailed("the client process stopped before the pass ended") from None

    def close(self) -> None:
        try:
            self._conn.send(None)
        except OSError:
            pass
        self._process.join(timeout=30)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join()
        self._conn.close()


def check_pass(ref, decisions, posts, results, service: Service, expected_far: int, tally: spec.Tally):
    """Tally the pass, check every answer; return (answered decisions, their round trips)."""
    answers: list = [None] * len(decisions)
    malformed: list[int | None] = []
    round_trips: list[float] = []
    for (index, _body), (status, data, seconds) in zip(posts, results):
        tally.attempted += 1
        tally.failed += status is None
        if index is None:
            malformed.append(status)
            continue
        answers[index] = (status, json.loads(data) if status == 200 else None)
        if status == 200:
            round_trips.append(seconds)
    checks.check_live_pass(
        ref,
        decisions,
        answers,
        malformed,
        far_cache_id=service.cache_ids[ref.far_cache],
        near_cache_id=service.cache_ids[ref.near_cache],
        expected_far=expected_far,
    )
    return answers, round_trips


def run(workload: str, seed: int, seconds: float, trace: bool, tally: spec.Tally, out_dir) -> dict:
    pin_to_one_cpu()
    config = program.load_default_config()
    service = Service(config)
    setup_s = spec.process_age_s()
    load = None
    try:
        ref = checks.load_reference(program.DEFAULT_CONFIG)
        rng = random.Random(seed)
        decisions = checks.viewer_plan(ref, list(VIEWERS), first_port=20000 + rng.randrange(1000), rng=rng)
        posts = schedule(decisions)
        expected_far = checks.expected_far_answers(ref, list(VIEWERS))
        load = LoadGenerator([body for _, body in posts])

        passes: list[tuple[float, int, int]] = []  # (host s, answered, POSTs)
        # Percentiles over every round trip of the run: a tail spread over
        # all passes moves them less than the tail of any one pass.
        round_trip_ms: list[float] = []
        errors: Counter = Counter()
        measured = 0.0
        while not passes or measured < seconds:
            service = service or Service(config)
            try:
                elapsed, results = load.run_pass(service.address)
            finally:
                service.close()
            _, round_trips = check_pass(ref, decisions, posts, results, service, expected_far, tally)
            errors.update(service.errors)
            service = None
            round_trip_ms.extend(s * 1000.0 for s in round_trips)
            passes.append((elapsed, len(round_trips), len(posts)))
            measured += elapsed

        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                service = Service(program.load_default_config())
                try:
                    traced_s, results = load.run_pass(service.address)
                finally:
                    service.close()
            finally:
                tracer.restore()
            answers, round_trips = check_pass(ref, decisions, posts, results, service, expected_far, tally)
            errors.update(service.errors)
            service = None
            tokens = [body["decision"] for status, body in answers if status == 200]
            overhead_ms = [(rtt - tracer.decision_s[token]) * 1000.0 for token, rtt in zip(tokens, round_trips)]
            tracer.write_spans(out_dir / f"trace-{workload}-seed{seed}.jsonl")
            metrics = tracer.layer_metrics(
                untraced_s=passes[0][0], traced_s=traced_s, http_overhead_ms=statistics.median(overhead_ms)
            )
        else:
            metrics = {
                "requests_per_s": statistics.median(p[1] / p[0] for p in passes),
                "events_per_s": statistics.median(p[2] / p[0] for p in passes),
                "decision_ms_p50": spec.percentile(round_trip_ms, 50),
                "decision_ms_p99": spec.percentile(round_trip_ms, 99),
                "peak_rss_mb": spec.peak_rss_mb(),
                "setup_s": setup_s,
            }
    finally:
        if service is not None:
            service.close()
        if load is not None:
            load.close()
    if errors:
        print(f"control server handler errors: {dict(errors)}", file=sys.stderr)
    return metrics
