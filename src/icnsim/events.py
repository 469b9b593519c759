"""Discrete-event loop with a reproducible, append-only event record.

Simulated time is in milliseconds.  Every recorded event carries the time it
was processed and an ordinal assigned in processing order, so identical runs
produce byte-identical logs.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Generator


class EventKind(str, Enum):
    RUN_START = "RunStart"
    CLIENT_REQUEST = "ClientRequest"
    PACKET_IN = "PacketIn"
    FLOW_INSTALLED = "FlowInstalled"
    PROXY_ACCEPT = "ProxyAccept"
    PROXY_NOTIFY = "ProxyNotify"
    CTRL_RESPONSE = "CtrlResponse"
    CONNECT_ATTEMPT = "ConnectAttempt"
    SPLICE_ESTABLISHED = "SpliceEstablished"
    CACHE_SERVE = "CacheServe"
    ORIGIN_FETCH = "OriginFetch"
    TRANSFER_COMPLETE = "TransferComplete"
    PREFETCH_ISSUED = "PrefetchIssued"
    PREFETCH_DONE = "PrefetchDone"
    PREFETCH_IDLE = "PrefetchIdle"
    MPD_RETRIEVED = "MpdRetrieved"
    MANIFEST_READY = "ManifestReady"
    CHUNK_DONE = "ChunkDone"
    SESSION_CLOSED = "SessionClosed"
    RUN_END = "RunEnd"


@dataclass(frozen=True)
class SimEvent:
    time_ms: float
    ordinal: int
    kind: EventKind
    payload: dict

    def format_line(self) -> str:
        payload = json.dumps(self.payload, sort_keys=True, separators=(",", ":"))
        return f"{self.time_ms:.6f}\t{self.ordinal}\t{self.kind.value}\t{payload}"


class EventLoop:
    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._ordinal = 0
        self.records: list[SimEvent] = []

    def schedule(self, delay_ms: float, callback: Callable[[], None]) -> None:
        """Queue work after a delay; events may never land in the past."""
        if delay_ms < 0:
            raise ValueError(f"cannot schedule {delay_ms} ms into the past")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay_ms, self._seq, callback))

    def emit(self, kind: EventKind, payload: dict) -> None:
        """Record an event happening right now."""
        self._ordinal += 1
        self.records.append(SimEvent(self.now, self._ordinal, kind, payload))

    def spawn(self, process: Generator) -> None:
        """Drive a generator process from now on, up to its first wait inline.

        A yielded number is a delay in ms.  A yielded callable is handed the
        process's resume function and calls it once when the wait is over, as
        ``TransferManager.start`` calls its completion callback.
        """

        def resume() -> None:
            try:
                wait = next(process)
            except StopIteration:
                return
            if callable(wait):
                wait(resume)
            else:
                self.schedule(wait, resume)

        resume()

    def run(self) -> None:
        while self._heap:
            time_ms, _seq, callback = heapq.heappop(self._heap)
            self.now = time_ms
            callback()

    def pending(self) -> int:
        return len(self._heap)


def write_event_log(records: list[SimEvent], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(record.format_line() + "\n")


def parse_event_line(line: str) -> SimEvent:
    time_str, ordinal_str, kind_str, payload_str = line.rstrip("\n").split("\t", 3)
    return SimEvent(float(time_str), int(ordinal_str), EventKind(kind_str), json.loads(payload_str))
