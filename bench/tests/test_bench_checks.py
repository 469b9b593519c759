"""The benchmark's own checks refuse deliberately wrong inputs.

Run with ``python3 -m pytest bench/tests -q``; no simulation runs here.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import digests  # noqa: E402
import live  # noqa: E402
import program  # noqa: E402
import sim  # noqa: E402
import spec  # noqa: E402

REF = checks.load_reference(program.DEFAULT_CONFIG)


def direct_run() -> list[tuple]:
    """A DIRECT event stream that has every property the checks ask for."""
    events: list[tuple] = []
    clock = [0.0]

    def emit(kind: str, payload: dict, advance: float = 0.0) -> None:
        clock[0] += advance
        events.append((clock[0], len(events) + 1, kind, payload))

    emit("RunStart", {"scenario": "DIRECT", "cache_order": []})
    emit("ClientRequest", {"url": REF.mpd_path, "repr": None, "seg": None})
    emit("TransferComplete", {"to": REF.client_host, "bytes": REF.mpd_size}, 5.0)
    emit("MpdRetrieved", {"elapsed_ms": 5.0})
    for seg in REF.segments:
        for layer in REF.chain(REF.representation):
            elapsed = REF.min_chunk_ms(layer) + 0.5
            emit("ClientRequest", {"url": REF.segment_path(layer, seg), "repr": layer, "seg": seg})
            emit("TransferComplete", {"to": REF.client_host, "bytes": REF.object_size(layer)}, elapsed)
            emit("ChunkDone", {"repr": layer, "seg": seg, "elapsed_ms": elapsed, "source": "origin"})
    emit("RunEnd", {}, 1.0)
    return events


def renumbered(events: list[tuple]) -> list[tuple]:
    return [(t, i, kind, payload) for i, (t, _, kind, payload) in enumerate(events, 1)]


def test_reference_reads_the_packaged_video():
    assert REF.expected_requests("PREFETCH") == 1795
    assert REF.expected_requests("DISTRIBUTED_PREFETCH") == 2393
    assert REF.boundary == 25
    assert (REF.near_cache, REF.far_cache) == ("cache1", "cache2")


def test_good_run_passes():
    facts = checks.check_sim_run(REF, "DIRECT", direct_run())
    assert facts.completed == 1795


def test_dropped_chunk_done_is_refused():
    events = direct_run()
    drop = next(i for i, e in enumerate(events) if e[2] == "ChunkDone")
    with pytest.raises(checks.CheckFailed, match="never completed"):
        checks.check_sim_run(REF, "DIRECT", renumbered(events[:drop] + events[drop + 1 :]))


def test_time_going_backwards_is_refused():
    events = direct_run()
    t, ordinal, kind, payload = events[10]
    events[10] = (events[9][0] - 0.001, ordinal, kind, payload)
    with pytest.raises(checks.CheckFailed, match="time goes back"):
        checks.check_sim_run(REF, "DIRECT", events)


def test_byte_total_one_object_short_is_refused():
    events = direct_run()
    short = next(i for i, e in enumerate(events) if e[2] == "TransferComplete" and e[3]["bytes"] != REF.mpd_size)
    with pytest.raises(checks.CheckFailed, match="bytes reached"):
        checks.check_sim_run(REF, "DIRECT", renumbered(events[:short] + events[short + 1 :]))


def test_digest_mismatch_is_refused():
    table = {"DIRECT": {"7": checks.log_digest(["a", "b"])}}
    checks.check_digest(table, "DIRECT", 7, checks.log_digest(["a", "b"]))
    with pytest.raises(checks.CheckFailed, match="digest"):
        checks.check_digest(table, "DIRECT", 7, checks.log_digest(["a", "c"]))
    with pytest.raises(checks.CheckFailed, match="no digest"):
        checks.check_digest(table, "DIRECT", 8, checks.log_digest(["a", "b"]))


def live_pass():
    decisions = checks.viewer_plan(REF, list(live.VIEWERS), 20000, random.Random(0))
    answers = [
        (
            200,
            {
                "decision": f"d{i:06d}",
                "ip": REF.origin_ip,
                "port": 80,
                "cache": REF.far_cache_id if d.layer is not None and d.layer >= REF.boundary else REF.near_cache_id,
            },
        )
        for i, d in enumerate(decisions)
    ]
    return decisions, answers


def check_live(decisions, answers, malformed=()):
    checks.check_live_pass(
        REF,
        decisions,
        answers,
        list(malformed),
        far_cache_id=REF.far_cache_id,
        near_cache_id=REF.near_cache_id,
        expected_far=checks.expected_far_answers(REF, list(live.VIEWERS)),
    )


def test_good_live_pass_passes():
    decisions, answers = live_pass()
    assert len(decisions) == 8376
    assert checks.expected_far_answers(REF, list(live.VIEWERS)) == 1196
    check_live(decisions, answers, malformed=[None, 400])


def test_repeated_decision_token_is_refused():
    decisions, answers = live_pass()
    answers[5][1]["decision"] = answers[4][1]["decision"]
    with pytest.raises(checks.CheckFailed, match="repeated"):
        check_live(decisions, answers)


def test_layer_33_answered_by_the_near_cache_is_refused():
    decisions, answers = live_pass()
    index = next(i for i, d in enumerate(decisions) if d.layer == 33)
    answers[index][1]["cache"] = REF.near_cache_id
    with pytest.raises(checks.CheckFailed, match="layer 33"):
        check_live(decisions, answers)


def test_malformed_body_answered_200_is_refused():
    decisions, answers = live_pass()
    with pytest.raises(checks.CheckFailed, match="malformed"):
        check_live(decisions, answers, malformed=[200])


def test_failed_share_does_not_depend_on_the_seed():
    shapes = set()
    for seed in (1, 2, 99):
        decisions = checks.viewer_plan(REF, list(live.VIEWERS), 20000, random.Random(seed))
        posts = live.schedule(decisions)
        shapes.add(tuple(i for i, (index, body) in enumerate(posts) if index is None))
        assert all(body == live.MALFORMED_BODY for index, body in posts if index is None)
    assert len(shapes) == 1 and len(next(iter(shapes))) == 84


def test_seed_order_covers_the_digest_table():
    table = digests.load_table()
    assert sorted(sim.seed_order(5)) == list(digests.SEED_POOL)
    assert sim.seed_order(5) == sim.seed_order(5)
    for kinds in digests.SIM_KINDS.values():
        for kind in kinds:
            assert sorted(table[kind], key=int) == [str(s) for s in digests.SEED_POOL]


def test_benchmark_json_declares_the_printed_metrics():
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == spec.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == spec.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == ["sim-plain", "sim-prefetch", "live-steering"]
