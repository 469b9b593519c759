"""Metric names and units the benchmark prints, and the process-level measures.

``BENCHMARK.json`` at the repository root declares the same metrics; the
benchmark's tests keep the two in step.
"""

from __future__ import annotations

import math
import os
import resource
import time
from dataclasses import dataclass
from pathlib import Path

_IMPORTED_AT = time.perf_counter()

END_TO_END = {
    "requests_per_s": "req/s",
    "events_per_s": "events/s",
    "decision_ms_p50": "ms",
    "decision_ms_p99": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Layers traced as spans: each reports calls and self time.
SPAN_LAYERS = (
    "scenario.load_config",
    "mpd.parse_mpd",
    "mpd.resolve_chain",
    "prefetch.plan_prefetch",
    "controller.handle_proxy_request",
    "controller.handle_packet_in",
    "registry.match_request",
    "registry.ordered_caches",
    "topology.shortest_path",
    "flows.lookup",
    "flows.packet_walk",
    "transfer.start",
    "events.run",
    "cache.serve",
    "cache.warm",
    "proxy.on_client_request",
    "runtime.world_build",
    "metrics.derive_run_metrics",
)
# Hot layers: calls only, a span each would cost more than the work.
COUNTED_LAYERS = ("mpd.segment_url", "events.schedule", "events.emit")

PER_LAYER = {
    **{f"{layer}.calls": "count" for layer in SPAN_LAYERS},
    **{f"{layer}.self_s": "s" for layer in SPAN_LAYERS},
    **{f"{layer}.calls": "count" for layer in COUNTED_LAYERS},
    "prefetch.commands_planned": "count",
    "prefetch.useful_share": "ratio",
    "controller.deferred": "count",
    "flows.rules_scanned": "count",
    "flows.installations_held": "count",
    "events.heap_peak": "count",
    "service.http_overhead_ms_p50": "ms",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Tally:
    """Operations a run attempted and the ones that failed, kept as the run goes."""

    attempted: int = 0
    failed: int = 0


def process_age_s() -> float:
    """Seconds since this process started, interpreter start-up included."""
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
        if 0.0 < age < 3600.0:
            return age
    except (OSError, ValueError, IndexError, AttributeError):
        pass
    return time.perf_counter() - _IMPORTED_AT


def peak_rss_mb() -> float:
    """This process's own peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]
