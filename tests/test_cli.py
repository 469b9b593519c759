import subprocess
import sys
from urllib.parse import urlsplit

import pytest
import yaml

from conftest import SMALL_MPD
from icnsim.cli import default_config_path, main, serve_controller
from icnsim.mpd import _url_path, parse_mpd
from icnsim.proxy import ProxyRequestNotification
from icnsim.scenario import load_config


@pytest.fixture()
def small_yaml(tmp_path):
    """The packaged scenario, shrunk to the 4-layer 8-segment clip."""
    data = yaml.safe_load(open(default_config_path(), encoding="utf-8"))
    mpd = tmp_path / "small.mpd"
    mpd.write_text(SMALL_MPD, encoding="utf-8")
    data["mpd"]["file"] = str(mpd)
    data["mpd"]["url"] = "http://concert.itec.aau.at/SVCDataset/dataset/mpd-temp/small.mpd"
    data["client"]["representation"] = 2
    data["client"]["distributed_representation"] = 3
    data["scenario"]["seeds"] = [1]
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


def test_validate_default_config(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: ")
    assert "(PREFETCH, 20 runs," in out


def test_validate_rejects_broken_config(tmp_path, capsys):
    data = yaml.safe_load(open(default_config_path(), encoding="utf-8"))
    data["registry"]["caches"] = []
    path = tmp_path / "broken.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 1
    assert "invalid:" in capsys.readouterr().err


def test_run_writes_artifacts(small_yaml, tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = main(["run", "--config", str(small_yaml), "--scenario", "FULL_CACHE",
               "--out", str(out_dir)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("case,total,hit,miss,hit_ratio\n")
    assert "scenario: CACHE FULL" in stdout
    assert (out_dir / "full_cache.csv").exists()
    assert (out_dir / "full_cache_summary.txt").exists()
    assert (out_dir / "full_cache_01.events").exists()
    csv_text = (out_dir / "full_cache.csv").read_text()
    assert stdout.startswith(csv_text)


def test_report_reproduces_the_csv(small_yaml, tmp_path, capsys):
    out_dir = tmp_path / "out"
    main(["run", "--config", str(small_yaml), "--scenario", "PREFETCH",
          "--seeds", "5,6", "--out", str(out_dir)])
    capsys.readouterr()
    original = (out_dir / "prefetch.csv").read_bytes()

    rebuilt = tmp_path / "rebuilt.csv"
    rc = main(["report", str(out_dir / "prefetch_01.events"),
               str(out_dir / "prefetch_02.events"), "--csv", str(rebuilt)])
    assert rc == 0
    assert rebuilt.read_bytes() == original


def test_seed_overrides(small_yaml, tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = main(["run", "--config", str(small_yaml), "--scenario", "EMPTY_CACHE",
               "--runs", "2", "--seed-base", "7", "--out", str(out_dir)])
    assert rc == 0
    capsys.readouterr()
    logs = sorted(out_dir.glob("empty_cache_*.events"))
    assert len(logs) == 2
    seeds = []
    for log in logs:
        first = log.read_text().splitlines()[0]
        assert "RunStart" in first
        import json

        seeds.append(json.loads(first.split("\t", 3)[3])["seed"])
    assert seeds == [7, 8]


def test_unknown_scenario_is_rejected_by_argparse(small_yaml):
    with pytest.raises(SystemExit):
        main(["run", "--config", str(small_yaml), "--scenario", "TURBO"])


def test_subprocess_runs_are_byte_identical(small_yaml):
    command = [sys.executable, "-m", "icnsim", "run", "--config", str(small_yaml),
               "--scenario", "PREFETCH", "--seeds", "3"]
    first = subprocess.run(command, capture_output=True, check=True)
    second = subprocess.run(command, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.startswith(b"case,total,hit,miss,hit_ratio\n")


def test_serve_controller_ingests_the_configured_manifest():
    config = load_config(default_config_path())
    topology = config.topology
    controller = serve_controller(config)
    dispatched = []
    # Record prefetch commands instead of POSTing them to the prefetcher's address.
    controller.hooks.dispatch_prefetch = lambda _prefetcher, command: dispatched.append(command) or True

    def create(path, params):
        status, body = controller.handle_management_request("POST", f"onos/icn/{path}", params)
        assert status == 201, body
        return body["id"]

    spec = config.registry
    instance = create("icn", {"name": spec.instance_name, "type": "DISTRIBUTED_SVC_PREFETCH"})

    def endpoint(path, port_key, entry):
        host = topology.host(entry.host)
        return create(path, {
            "instance": instance, "mac": host.mac, "ip": host.ip, port_key: entry.port,
            "location": {"dpid": host.dpid, "port": host.port}, "type": entry.endpoint_type,
        })

    proxy_id = endpoint("proxy", "proxy_port", spec.proxies[0])
    for entry in spec.caches:
        endpoint("cache", "port", entry)
    endpoint("prefetch", "prefetch_port", spec.prefetchers[0])
    for provider in spec.providers:
        create("provider", {"instance": instance, "name": provider.name, "network": provider.network,
                            "uripattern": provider.uri_pattern, "hostpattern": provider.host_pattern})

    client = topology.host(config.client.host)
    hostname = urlsplit(config.mpd_url).hostname
    origin = topology.host(config.hostnames[hostname])

    def ask(uri, sport):
        return controller.handle_proxy_request(ProxyRequestNotification(
            uri=uri, hostname=hostname, smac=client.mac, source_ip=client.ip,
            destination_ip=origin.ip, protocol=6, source_port=sport, destination_port=80,
        ), proxy_id)

    mpd_path = _url_path(config.mpd_url)
    manifest = parse_mpd(config.mpd_bytes(), mpd_path)
    ask(mpd_path, 34000)
    response = ask(manifest.segment_url(33, manifest.start_number), 34001)
    near, far = controller.registry.ordered_caches(instance, client.attachment)
    assert response.cache_id == far.endpoint_id != near.endpoint_id
    assert dispatched
