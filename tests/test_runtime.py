"""End-to-end simulator runs on a small 4-layer, 8-segment video."""

from icnsim import controller, runtime
from icnsim.events import EventKind
from icnsim.metrics import derive_run_metrics
from icnsim.mpd import parse_mpd
from icnsim.runtime import SimWorld, build_catalog
from icnsim.scenario import ScenarioKind
from icnsim.simulation import run_single, run_suite

SMALL_TOTAL = 1 + 3 * 8  # MPD plus chain(2) for every segment


def records_for(config, kind, seed=1):
    return run_single(config, kind, 0, seed)


def kinds_of(records):
    return [r.kind for r in records]


def test_full_cache_run_is_mostly_hits(small_config):
    records = records_for(small_config, ScenarioKind.FULL_CACHE)
    m = derive_run_metrics(records)
    assert m.total_requests == SMALL_TOTAL
    assert m.hits + m.misses == SMALL_TOTAL
    assert m.hit_ratio_pct > 85.0
    assert m.misses < 4  # only admission losses during warming
    assert m.video_end_ms is not None


def test_empty_cache_run_never_hits(small_config):
    m = derive_run_metrics(records_for(small_config, ScenarioKind.EMPTY_CACHE))
    assert m.total_requests == SMALL_TOTAL
    assert m.hits == 0
    assert m.misses == SMALL_TOTAL
    assert m.hit_ratio_pct == 0.0


def test_direct_run_does_not_touch_caches(small_config):
    records = records_for(small_config, ScenarioKind.DIRECT)
    m = derive_run_metrics(records)
    assert m.total_requests == SMALL_TOTAL
    assert m.hits == m.misses == 0
    assert m.hit_ratio_pct == 0.0
    assert EventKind.CACHE_SERVE not in kinds_of(records)
    assert EventKind.PROXY_NOTIFY not in kinds_of(records)
    assert EventKind.CTRL_RESPONSE not in kinds_of(records)
    assert len(m.chunk_ms) == SMALL_TOTAL - 1


def test_same_seed_is_byte_identical(small_config):
    first = records_for(small_config, ScenarioKind.PREFETCH, seed=5)
    second = records_for(small_config, ScenarioKind.PREFETCH, seed=5)
    assert [r.format_line() for r in first] == [r.format_line() for r in second]


def test_different_seeds_differ(small_config):
    first = records_for(small_config, ScenarioKind.PREFETCH, seed=5)
    second = records_for(small_config, ScenarioKind.PREFETCH, seed=6)
    assert [r.format_line() for r in first] != [r.format_line() for r in second]


def test_ordinals_and_times_are_monotonic(small_config):
    records = records_for(small_config, ScenarioKind.PREFETCH)
    assert [r.ordinal for r in records] == list(range(1, len(records) + 1))
    times = [r.time_ms for r in records]
    assert times == sorted(times)


def test_playback_pacing_stretches_the_run(small_config):
    records = records_for(small_config, ScenarioKind.FULL_CACHE)
    m = derive_run_metrics(records)
    end = records[-1]
    assert end.kind is EventKind.RUN_END
    playback_start = end.payload["playback_start_ms"]
    # 16 s of video cannot be watched faster than real time
    assert m.video_end_ms >= playback_start + 16_000.0
    # chunk requests spread across playback instead of front-loading
    requests = [r.time_ms for r in records if r.kind is EventKind.CLIENT_REQUEST]
    assert requests[-1] - requests[0] > 8_000.0


def test_prefetch_run_fills_caches_ahead_of_playback(small_config):
    # seed 5 draws an early warmup; on a 16 s clip most seeds warm too late
    records = records_for(small_config, ScenarioKind.PREFETCH, seed=5)
    m = derive_run_metrics(records)
    assert m.prefetch_done == SMALL_TOTAL - 1  # every chunk gets planned once
    assert m.prefetch_idle_ms is not None
    assert m.hits > 0
    assert m.first_hit_ms > m.mpd_ms
    issued = [r for r in records if r.kind is EventKind.PREFETCH_ISSUED]
    assert len(issued) == SMALL_TOTAL - 1
    assert all(r.payload["ok"] for r in issued)


def test_prefetcher_honors_parallelism_bound(small_config):
    records = records_for(small_config, ScenarioKind.PREFETCH)
    prefetcher_ip = small_config.topology.host("prefetcher1").ip
    bound = small_config.control_params.prefetch_parallelism
    live = peak = 0
    for record in records:
        if record.payload.get("client") != prefetcher_ip:
            continue
        if record.kind is EventKind.PROXY_ACCEPT:
            live += 1
            peak = max(peak, live)
        elif record.kind is EventKind.SESSION_CLOSED:
            live -= 1
    assert 1 <= peak <= bound


def test_distributed_layers_split_across_caches(small_config):
    records = records_for(small_config, ScenarioKind.DISTRIBUTED_PREFETCH)
    m = derive_run_metrics(records)
    near, far = m.cache_order
    # 4 layers over two caches: low half near the client, high half behind it
    assert m.requested_layers[near] == {0, 1}
    assert m.requested_layers[far] == {2, 3}
    assert m.total_requests == 1 + 4 * 8


def test_run_tears_down_every_session(small_config):
    world = SimWorld(small_config, ScenarioKind.PREFETCH, 0, 1)
    world.execute()
    leftovers = [
        key for key in world.flows.installations
        if isinstance(key[1], int) and key[1] != 0
    ]
    assert leftovers == []


def test_cache_warm_state_differs_between_scenarios(small_config):
    full = SimWorld(small_config, ScenarioKind.FULL_CACHE, 0, 1)
    assert sum(len(c) for c in full.caches.values()) > 0
    empty = SimWorld(small_config, ScenarioKind.EMPTY_CACHE, 0, 1)
    assert sum(len(c) for c in empty.caches.values()) == 0


def test_activation_etas_are_dropped_once_rules_are_active(small_config):
    for kind in ScenarioKind:
        world = SimWorld(small_config, kind, 0, 1)
        world.execute()
        assert world.activation_eta == {}, kind


def test_every_world_shares_one_parse_of_the_manifest(small_config, monkeypatch):
    runtime.shared_content.cache_clear()
    parses = []

    def counting_parse(*args):
        parses.append(args)
        return parse_mpd(*args)

    # the controller's copy too: an ingest that parsed again would count here
    monkeypatch.setattr(runtime, "parse_mpd", counting_parse)
    monkeypatch.setattr(controller, "parse_mpd", counting_parse)
    worlds = []
    build_world = SimWorld.__init__

    def recording_init(self, *args):
        build_world(self, *args)
        worlds.append(self)

    monkeypatch.setattr(SimWorld, "__init__", recording_init)
    small_config.seeds = [1, 2]
    run_suite(small_config)

    assert len(parses) == 1
    assert len(worlds) == len(ScenarioKind) * 2
    assert all(w.manifest is worlds[0].manifest and w.catalog is worlds[0].catalog for w in worlds)
    # no run has changed the shared value
    mpd_bytes = small_config.mpd_bytes()
    fresh = parse_mpd(mpd_bytes, worlds[0].mpd_path)
    assert worlds[0].manifest == fresh
    assert worlds[0].manifest.url_index == fresh.url_index
    assert worlds[0].catalog == build_catalog(fresh, worlds[0].mpd_path, len(mpd_bytes))
