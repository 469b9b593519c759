"""Per-layer tracing from outside the program.

Each layer is a public function or method of ``icnsim``.  The tracer swaps
it for a wrapper under every name its callers use: a function imported by
name into another module (``parse_mpd`` in ``runtime`` and ``controller``)
is replaced there too.  Span layers record (id, name, start, end, parent) and
add to calls and self time; hot layers only count calls.  Spans stay in
memory until ``write_spans``.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

import spec


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.heap_peak = 0
        self.flow_manager = None
        self.decision_s: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._ids = itertools.count()

    # -- wrappers -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, after=None):
        spans, stack_of, lock, ids = self.spans, self._stack, self._lock, self._ids
        calls, self_s = self.calls, self.self_s

        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1][1] if stack else -1
            frame = [0.0, next(ids)]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                spans.append((frame[1], name, start, end, parent))
                with lock:
                    calls[name] += 1
                    self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if after is not None:
                after(args, result, end - start)
            return result

        return wrapper

    def count(self, name: str, fn, after=None):
        calls, lock = self.calls, self._lock

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            with lock:
                calls[name] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- patching ---------------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Wrap ``owner.attr``; for a module function, also every icnsim module that imported it."""
        original = getattr(owner, attr)
        wrapped = make(original)
        owners = [owner]
        if isinstance(owner, type(sys)):
            owners += [
                module
                for module_name, module in sorted(sys.modules.items())
                if module_name.split(".")[0] == "icnsim"
                and module is not owner
                and getattr(module, attr, None) is original
            ]
        for target in owners:
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapped)

    def restore(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def install(self) -> None:
        from icnsim import cache, controller, events, flows, metrics, mpd, prefetch, proxy
        from icnsim import registry, runtime, scenario, topology, transfer

        span, count = self.span, self.count

        def on_plan(_args, plan, _dt):
            with self._lock:
                self.counts["prefetch.commands_planned"] += len(plan.commands)

        def on_decision(_args, outcome, seconds):
            if isinstance(outcome, controller.SteeringDeferred):
                with self._lock:
                    self.counts["controller.deferred"] += 1
            else:
                self.decision_s[outcome.decision_token] = seconds

        def on_schedule(args, _result):
            pending = args[0].pending()
            if pending > self.heap_peak:
                self.heap_peak = pending

        def on_flow_manager(args, _result):
            self.flow_manager = args[0]

        self.patch(scenario, "load_config", lambda f: span("scenario.load_config", f))
        self.patch(mpd, "parse_mpd", lambda f: span("mpd.parse_mpd", f))
        self.patch(mpd, "resolve_chain", lambda f: span("mpd.resolve_chain", f))
        self.patch(mpd.MpdManifest, "segment_url", lambda f: count("mpd.segment_url", f))
        self.patch(prefetch, "plan_prefetch", lambda f: span("prefetch.plan_prefetch", f, on_plan))
        self.patch(
            controller.IcnController,
            "handle_proxy_request",
            lambda f: span("controller.handle_proxy_request", f, on_decision),
        )
        self.patch(controller.IcnController, "handle_packet_in", lambda f: span("controller.handle_packet_in", f))
        self.patch(registry.IcnRegistry, "match_request", lambda f: span("registry.match_request", f))
        self.patch(registry.IcnRegistry, "ordered_caches", lambda f: span("registry.ordered_caches", f))
        self.patch(topology.Topology, "shortest_path", lambda f: span("topology.shortest_path", f))
        self.patch(flows.FlowManager, "__init__", lambda f: count("flows.manager", f, on_flow_manager))
        self.patch(flows.FlowManager, "lookup", lambda f: span("flows.lookup", f))
        self.patch(flows.FlowManager, "packet_walk", lambda f: span("flows.packet_walk", f))
        self.patch(flows.FlowRule, "matches", lambda f: count("flows.rule_match", f))
        self.patch(transfer.TransferManager, "start", lambda f: span("transfer.start", f))
        self.patch(events.EventLoop, "schedule", lambda f: count("events.schedule", f, on_schedule))
        self.patch(events.EventLoop, "emit", lambda f: count("events.emit", f))
        self.patch(events.EventLoop, "run", lambda f: span("events.run", f))
        self.patch(cache.CacheNode, "serve", lambda f: span("cache.serve", f))
        self.patch(cache.CacheNode, "warm", lambda f: span("cache.warm", f))
        self.patch(proxy.ProxySession, "on_client_request", lambda f: span("proxy.on_client_request", f))
        self.patch(runtime.SimWorld, "__init__", lambda f: span("runtime.world_build", f))
        self.patch(metrics, "derive_run_metrics", lambda f: span("metrics.derive_run_metrics", f))

    # -- results ------------------------------------------------------------------

    def installations_held(self) -> int:
        """Size of ``FlowManager.installations`` of the last flow manager built."""
        return len(self.flow_manager.installations) if self.flow_manager is not None else 0

    def layer_metrics(self, untraced_s: float, traced_s: float, http_overhead_ms: float = 0.0) -> dict:
        """Every per-layer metric; a layer the workload never reached reads 0."""
        values: dict[str, float] = {}
        for layer in spec.SPAN_LAYERS:
            values[f"{layer}.calls"] = self.calls[layer]
            values[f"{layer}.self_s"] = self.self_s[layer]
        for layer in spec.COUNTED_LAYERS:
            values[f"{layer}.calls"] = self.calls[layer]
        planned = self.counts["prefetch.commands_planned"]
        walked = self.calls["mpd.segment_url"]
        values.update(
            {
                "prefetch.commands_planned": planned,
                "prefetch.useful_share": planned / walked if walked else 0.0,
                "controller.deferred": self.counts["controller.deferred"],
                "flows.rules_scanned": self.calls["flows.rule_match"],
                "flows.installations_held": self.installations_held(),
                "events.heap_peak": self.heap_peak,
                "service.http_overhead_ms_p50": http_overhead_ms,
                "trace.untraced_s": untraced_s,
                "trace.traced_s": traced_s,
                "trace.overhead_s": traced_s - untraced_s,
            }
        )
        return values

    def write_spans(self, path) -> None:
        """One JSON array per line: id, name, start and end (host seconds), parent id (-1 for none)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
