"""Simulator workloads: scenario kinds through ``run_scenario``, one round per seed.

A round runs every kind of the workload once on one seed of the pool, in
the order ``--seed`` shuffles the pool into.  The run measures whole rounds
until ``--seconds`` of timed work have passed.  Only ``run_scenario`` is
timed; the checks and the log digest run between the timed calls.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

import checks
import digests
import program
import spec
from tracing import Tracer


class DecisionTimer:
    """Host time of every steering decision, by wrapping ``IcnController.handle_proxy_request``."""

    def __init__(self, controller_cls) -> None:
        self.samples: list[float] = []
        self._cls = controller_cls
        self._original = original = controller_cls.handle_proxy_request
        samples = self.samples

        def timed(*args, **kwargs):
            start = perf_counter()
            outcome = original(*args, **kwargs)
            samples.append(perf_counter() - start)
            return outcome

        controller_cls.handle_proxy_request = timed

    def take(self) -> list[float]:
        """The samples so far, in ms; starts a new batch."""
        taken = [s * 1000.0 for s in self.samples]
        self.samples.clear()
        return taken

    def close(self) -> None:
        self._cls.handle_proxy_request = self._original


def seed_order(seed: int) -> list[int]:
    order = list(digests.SEED_POOL)
    random.Random(seed).shuffle(order)
    return order


def run(workload: str, seed: int, seconds: float, trace: bool, tally: spec.Tally, out_dir) -> dict:
    config = program.load_default_config()
    setup_s = spec.process_age_s()

    from icnsim.controller import IcnController
    from icnsim.scenario import ScenarioKind
    from icnsim.simulation import run_scenario

    ref = checks.load_reference(program.DEFAULT_CONFIG)
    table = digests.load_table()
    kinds = [ScenarioKind(name) for name in digests.SIM_KINDS[workload]]
    order = seed_order(seed)

    def one_run(run_config, kind, run_seed):
        run_config.seeds = [run_seed]
        start = perf_counter()
        records = run_scenario(run_config, kind, keep_records=True).records[0]
        elapsed = perf_counter() - start
        facts = checks.check_sim_run(
            ref, kind.value, [(r.time_ms, r.ordinal, r.kind.value, r.payload) for r in records]
        )
        digest = checks.log_digest(record.format_line() for record in records)
        checks.check_digest(table, kind.value, run_seed, digest)
        tally.attempted += facts.completed
        return elapsed, facts, digest

    rounds: list[tuple[float, int, int, float, float]] = []  # (host s, requests, events, decision ms p50, p99)
    timer = DecisionTimer(IcnController)
    try:
        measured = 0.0
        while not rounds or measured < seconds:
            runs = [one_run(config, kind, order[len(rounds) % len(order)]) for kind in kinds]
            if not rounds:
                first_digest = runs[0][2]
            round_s = sum(elapsed for elapsed, _, _ in runs)
            decision_ms = timer.take()
            rounds.append(
                (
                    round_s,
                    sum(f.completed for _, f, _ in runs),
                    sum(f.events for _, f, _ in runs),
                    spec.percentile(decision_ms, 50),
                    spec.percentile(decision_ms, 99),
                )
            )
            measured += round_s
    finally:
        timer.close()

    _, _, again = one_run(config, kinds[0], order[0])
    if again != first_digest:
        raise checks.CheckFailed(f"{kinds[0].value} seed {order[0]}: rerun digest differs from the first run")

    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_config = program.load_default_config()
            traced_s = 0.0
            for kind in kinds:
                before = tracer.calls["controller.handle_proxy_request"]
                elapsed, facts, _ = one_run(traced_config, kind, order[0])
                traced_s += elapsed
                calls = tracer.calls["controller.handle_proxy_request"] - before
                if calls != facts.ctrl_responses + facts.deferrals:
                    raise checks.CheckFailed(
                        f"{kind.value}: {calls} traced decisions, but {facts.ctrl_responses} CtrlResponse"
                        f" events reporting {facts.deferrals} deferrals"
                    )
        finally:
            tracer.restore()
        tracer.write_spans(out_dir / f"trace-{workload}-seed{seed}.jsonl")
        return tracer.layer_metrics(untraced_s=rounds[0][0], traced_s=traced_s)

    return {
        "requests_per_s": statistics.median(r[1] / r[0] for r in rounds),
        "events_per_s": statistics.median(r[2] / r[0] for r in rounds),
        "decision_ms_p50": statistics.median(r[3] for r in rounds),
        "decision_ms_p99": statistics.median(r[4] for r in rounds),
        "peak_rss_mb": spec.peak_rss_mb(),
        "setup_s": setup_s,
    }
