import yaml
import pytest

from icnsim.cli import default_config_path
from icnsim.errors import ConfigError
from icnsim.scenario import (
    CacheParams,
    ClientParams,
    ControlParams,
    ProxyParams,
    RegistrySpec,
    ScenarioKind,
    load_config,
)


def test_default_config_is_clean(default_config):
    config = default_config
    assert config.kind is ScenarioKind.PREFETCH
    assert config.runs == 20
    assert config.seeds == list(range(1, 21))
    assert config.client.host in config.topology.hosts
    assert config.validate() == []
    assert config.mpd_bytes().startswith(b"<?xml")


def test_default_config_shape(default_config):
    config = default_config
    assert config.client.representation == 18
    assert config.client.distributed_representation == 33
    assert [c.host for c in config.registry.caches] == ["cache1", "cache2"]
    assert config.registry.providers[0].uri_pattern == "/SVCDataset/.*"
    assert config.hostnames["concert.itec.aau.at"] == "origin1"
    assert config.control_params.prefetch_parallelism == 4


def test_kind_override():
    config = load_config(default_config_path(), kind_override="FULL_CACHE")
    assert config.kind is ScenarioKind.FULL_CACHE
    with pytest.raises(ConfigError):
        load_config(default_config_path(), kind_override="TURBO")


def test_representation_depends_on_kind(default_config):
    client = default_config.client
    assert client.representation_for(ScenarioKind.PREFETCH) == 18
    assert client.representation_for(ScenarioKind.DISTRIBUTED_PREFETCH) == 33


def rewrite_config(tmp_path, mutate):
    data = yaml.safe_load(open(default_config_path(), encoding="utf-8"))
    mutate(data)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


def test_runs_expand_to_seed_range(tmp_path):
    def mutate(data):
        data["scenario"]["runs"] = 5
        data["scenario"]["seed_base"] = 100
        data["scenario"].pop("seeds", None)

    config = load_config(rewrite_config(tmp_path, mutate))
    assert config.seeds == [100, 101, 102, 103, 104]


def test_explicit_seed_list_wins(tmp_path):
    def mutate(data):
        data["scenario"]["seeds"] = [7, 11, 13]

    config = load_config(rewrite_config(tmp_path, mutate))
    assert config.seeds == [7, 11, 13]


def test_validate_reports_all_problems(tmp_path):
    def mutate(data):
        data["scenario"]["seeds"] = [1, 1]
        data["registry"]["caches"] = []

    config = load_config(rewrite_config(tmp_path, mutate))
    findings = config.validate()
    assert any("distinct" in f for f in findings)
    assert any("cache" in f for f in findings)


def test_validate_missing_mpd(tmp_path, default_config):
    default_config.mpd_file = tmp_path / "gone.mpd"
    assert any("does not exist" in f for f in default_config.validate())


def test_distributed_needs_two_caches(tmp_path):
    def mutate(data):
        data["scenario"]["kind"] = "DISTRIBUTED_PREFETCH"
        data["registry"]["caches"] = data["registry"]["caches"][:1]

    config = load_config(rewrite_config(tmp_path, mutate))
    assert any("two caches" in f for f in config.validate())


def test_unknown_topology_reference(tmp_path):
    def mutate(data):
        data["client"]["host"] = "ghost"

    config = load_config(rewrite_config(tmp_path, mutate))
    assert any("client host" in f for f in config.validate())


def test_default_config_loads_to_these_dataclasses(default_config):
    config = default_config
    assert config.client == ClientParams(
        host="client1", representation=18, distributed_representation=33,
        startup_delay_s=0.5, buffer_ahead_segments=3,
    )
    assert config.cache_params == CacheParams(capacity_objects=None, admission_failure_rate=0.03)
    assert config.proxy_params == ProxyParams(
        initial_backoff_ms=10.0, backoff_factor=2.0, max_retries=5, accept_queue=128
    )
    assert config.control_params == ControlParams(
        interaction_ms=8.0, interaction_jitter_ms=2.0, flow_install_ms=3.0,
        flow_install_jitter_ms=1.5, analysis_delay_s=(0.1, 0.4), prefetch_warmup_s=(2.0, 25.0),
        prefetch_parallelism=4, lookahead_segments=None,
    )
    assert (config.registry.instance_name, config.registry.instance_description) == (
        "bbb-svc", "layered video demo"
    )


def test_null_or_missing_keys_keep_the_dataclass_defaults(tmp_path):
    def mutate(data):
        data["client"] = {key: None for key in data["client"]}
        for section in ("cache_model", "proxy_model", "control_model"):
            data[section] = {key: None for key in data[section]}
        data["registry"]["instance"] = {"name": None}

    config = load_config(rewrite_config(tmp_path, mutate))
    assert config.client == ClientParams(host="")  # left for validate() to report
    assert any("client host" in f for f in config.validate())
    assert config.cache_params == CacheParams()
    assert config.proxy_params == ProxyParams()
    assert config.control_params == ControlParams()
    assert (config.registry.instance_name, config.registry.instance_description) == (
        RegistrySpec().instance_name, RegistrySpec().instance_description
    )


def test_missing_client_host_reaches_validate(tmp_path):
    def mutate(data):
        del data["client"]["host"]

    config = load_config(rewrite_config(tmp_path, mutate))
    assert any("client host" in f for f in config.validate())
