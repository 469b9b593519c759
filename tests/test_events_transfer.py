import gc
import math

import pytest

from helpers import line_topology
from icnsim.events import EventKind, EventLoop, parse_event_line, write_event_log
from icnsim.transfer import (
    PathSegment,
    TransferManager,
    TransferPath,
    host_path,
)

MB = 1_000_000  # bytes


def test_loop_runs_in_time_order_with_fifo_ties():
    loop = EventLoop()
    seen = []
    loop.schedule(5.0, lambda: seen.append("late"))
    loop.schedule(1.0, lambda: seen.append("first"))
    loop.schedule(1.0, lambda: seen.append("second"))
    loop.run()
    assert seen == ["first", "second", "late"]
    assert loop.now == 5.0


def test_loop_rejects_negative_delay():
    loop = EventLoop()
    with pytest.raises(ValueError):
        loop.schedule(-0.1, lambda: None)


def test_emit_assigns_processing_order_ordinals():
    loop = EventLoop()
    loop.schedule(2.0, lambda: loop.emit(EventKind.RUN_END, {}))
    loop.schedule(1.0, lambda: loop.emit(EventKind.RUN_START, {"b": 2, "a": 1}))
    loop.run()
    ordinals = [r.ordinal for r in loop.records]
    assert ordinals == [1, 2]
    assert loop.records[0].kind is EventKind.RUN_START
    assert loop.records[0].time_ms == 1.0


def test_format_line_is_stable_and_parseable(tmp_path):
    loop = EventLoop()
    loop.schedule(1.5, lambda: loop.emit(EventKind.CLIENT_REQUEST, {"url": "/a", "client": "c1"}))
    loop.run()
    line = loop.records[0].format_line()
    assert line == '1.500000\t1\tClientRequest\t{"client":"c1","url":"/a"}'
    again = parse_event_line(line)
    assert again == loop.records[0]

    path = tmp_path / "run.events"
    write_event_log(loop.records, path)
    assert [parse_event_line(l) for l in path.read_text().splitlines()] == loop.records


def single_link_path(bandwidth_mbps=8.0, latency_ms=10.0, key="l1"):
    return TransferPath([PathSegment(key, bandwidth_mbps, latency_ms)])


def run_transfers(starts):
    """starts: list of (start_ms, size_bytes); returns completion times."""
    loop = EventLoop()
    manager = TransferManager(loop)
    done = {}

    def launch(i, size):
        manager.start(single_link_path(), size, lambda i=i: done.setdefault(i, loop.now))

    for i, (at, size) in enumerate(starts):
        loop.schedule(at, lambda i=i, size=size: launch(i, size))
    loop.run()
    return done


def test_single_transfer_closed_form():
    done = run_transfers([(0.0, MB)])
    assert done[0] == pytest.approx(1010.0)  # 8 Mbit over 8 Mbit/s, plus 10 ms


def test_two_simultaneous_transfers_share_the_link():
    done = run_transfers([(0.0, MB), (0.0, MB)])
    assert done[0] == pytest.approx(2010.0)
    assert done[1] == pytest.approx(2010.0)


def test_staggered_transfers_rebalance():
    # second transfer joins at 500 ms: the first drains alone, shared, and
    # finishes at 1500; the second then reclaims the full link
    done = run_transfers([(0.0, MB), (500.0, MB)])
    assert done[0] == pytest.approx(1510.0)
    assert done[1] == pytest.approx(2010.0)


def test_each_start_schedules_one_completion():
    loop = EventLoop()
    manager = TransferManager(loop)
    delays = []
    schedule = loop.schedule

    def counting(delay, callback):
        delays.append(delay)
        schedule(delay, callback)

    loop.schedule = counting
    done = []
    for _ in range(4):
        manager.start(single_link_path(), MB, lambda: done.append(loop.now))
    # one schedule call per start, not one per active transfer per start
    assert len(delays) == 4
    loop.run()
    assert done == [pytest.approx(4010.0)] * 4


def test_equal_due_times_complete_in_start_order():
    # A drains 2e-11 ms after B, less than half an ulp of the due time, so
    # the loop sees one due time and A, started first, must complete first.
    loop = EventLoop()
    manager = TransferManager(loop)
    done = []

    def launch():
        manager.start(single_link_path(latency_ms=0.0, key="a"), 1000.00000002, lambda: done.append("A"))
        manager.start(single_link_path(latency_ms=0.0, key="b"), 1000, lambda: done.append("B"))

    loop.schedule(500000.0, launch)
    loop.run()
    assert done == ["A", "B"]
    assert loop.now == 500001.0


def test_transfers_leave_no_reference_cycles():
    # Reference counting alone frees finished and superseded completions; a
    # cycle per rebalance would pile up until the cyclic collector stops the
    # run in the middle of unrelated work.
    gc.collect()
    gc.disable()
    try:
        done = run_transfers([(0.0, MB), (100.0, MB), (200.0, MB), (300.0, MB)])
        assert len(done) == 4
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_zero_size_pays_only_latency():
    done = run_transfers([(0.0, 0)])
    assert done[0] == pytest.approx(10.0)


def test_bottleneck_is_the_thinnest_segment():
    path = TransferPath([
        PathSegment("fat", 100.0, 1.0),
        PathSegment("thin", 8.0, 2.0),
        PathSegment("fat2", 100.0, 3.0),
    ])
    loop = EventLoop()
    manager = TransferManager(loop)
    done = []
    manager.start(path, MB, lambda: done.append(loop.now))
    loop.run()
    assert done == [pytest.approx(1006.0)]  # 8 Mbit over the 8 Mbit/s segment, plus 6 ms


def test_infinite_bandwidth_path_is_pure_latency():
    path = TransferPath([PathSegment("wire", math.inf, 4.0)])
    loop = EventLoop()
    manager = TransferManager(loop)
    done = []
    manager.start(path, 10 * MB, lambda: done.append(loop.now))
    loop.run()
    assert done == [pytest.approx(4.0)]


def test_contention_only_on_shared_segment():
    # two transfers share one segment but have private access cables
    shared = PathSegment("trunk", 8.0, 0.0)
    a = TransferPath([PathSegment("a-up", 100.0, 5.0), shared])
    b = TransferPath([PathSegment("b-up", 100.0, 5.0), shared])
    loop = EventLoop()
    manager = TransferManager(loop)
    done = {}
    manager.start(a, MB, lambda: done.setdefault("a", loop.now))
    manager.start(b, MB, lambda: done.setdefault("b", loop.now))
    loop.run()
    assert done["a"] == pytest.approx(2005.0)
    assert done["b"] == pytest.approx(2005.0)


def test_host_path_walks_access_and_fabric():
    topo = line_topology(3, hosts={"client": "s1", "origin": "s3"})
    path = host_path(topo, topo.host("client"), topo.host("origin"))
    keys = [s.key for s in path.segments]
    assert keys[0] == "host:client:up"
    assert keys[-1] == "host:origin:down"
    assert len(keys) == 4  # up, s1->s2, s2->s3, down
    assert "->" in keys[1] and "->" in keys[2]
    # the reverse direction uses distinct capacity pools
    back = host_path(topo, topo.host("origin"), topo.host("client"))
    assert set(k for k in keys if "->" in k).isdisjoint(
        k for k in (s.key for s in back.segments) if "->" in k
    )
    assert path.latency_ms == back.latency_ms


def test_extended_concatenates_paths():
    a = TransferPath([PathSegment("x", 8.0, 1.0)])
    b = TransferPath([PathSegment("y", 8.0, 2.0)])
    joined = a.extended(b)
    assert [s.key for s in joined.segments] == ["x", "y"]
    assert joined.latency_ms == 3.0


def test_spawn_resumes_after_a_yielded_delay():
    loop = EventLoop()
    woke = []

    def sleeper():
        woke.append(loop.now)
        yield 7.5
        woke.append(loop.now)
        yield 2.5
        woke.append(loop.now)

    loop.schedule(3.0, lambda: loop.spawn(sleeper()))
    loop.run()
    assert woke == [3.0, 10.5, 13.0]


def test_spawn_resumes_when_a_transfer_completes():
    loop = EventLoop()
    manager = TransferManager(loop)
    woke = []

    def downloader():
        for _ in range(2):
            yield lambda resume: manager.start(single_link_path(), MB, resume)
            woke.append(loop.now)

    loop.spawn(downloader())
    assert woke == []  # nothing ran past the wait before the loop did
    loop.run()
    # the second transfer gets the whole link, so the first was released
    assert woke == [pytest.approx(1010.0), pytest.approx(2020.0)]


def test_spawn_yield_from_returns_the_sub_process_value():
    loop = EventLoop()
    got = []

    def child(value):
        yield 1.0
        return value * 2

    def parent():
        got.append((yield from child(21)))
        got.append(loop.now)

    loop.spawn(parent())
    loop.run()
    assert got == [42, 1.0]


def test_spawn_schedules_a_zero_delay_behind_earlier_work():
    loop = EventLoop()
    order = []

    def process():
        order.append("process starts")
        yield 0.0
        order.append("process resumes")

    def kick_off():
        loop.schedule(0.0, lambda: order.append("scheduled earlier"))
        loop.spawn(process())

    loop.schedule(5.0, kick_off)
    loop.run()
    assert order == ["process starts", "scheduled earlier", "process resumes"]
    assert loop.now == 5.0


def test_spawn_exception_propagates_out_of_run():
    loop = EventLoop()

    def failing():
        yield 1.0
        raise RuntimeError("process failed")

    loop.spawn(failing())
    with pytest.raises(RuntimeError, match="process failed"):
        loop.run()
    assert loop.now == 1.0
