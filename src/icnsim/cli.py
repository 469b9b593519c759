"""Command line entry points: run, suite, validate, report, serve."""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

from .errors import ConfigError
from .metrics import csv_report, suite_summary, text_summary
from .scenario import ScenarioKind, load_config
from .simulation import report_from_logs, run_scenario, run_suite


def default_config_path() -> Path:
    return Path(str(resources.files("icnsim.data") / "default.yaml"))


def _add_config_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        type=Path,
        default=None,
        help="scenario config file (defaults to the packaged desk-scale setup)",
    )


def _load(args: argparse.Namespace, kind_override: str | None = None):
    path = args.config or default_config_path()
    config = load_config(path, kind_override)
    findings = config.validate()
    if findings:
        for finding in findings:
            print(f"config error: {finding}", file=sys.stderr)
        raise ConfigError(f"{len(findings)} problem(s) in {path}")
    return config


def _apply_seed_overrides(config, args: argparse.Namespace) -> None:
    if getattr(args, "seeds", None):
        config.seeds = [int(s) for s in args.seeds.split(",")]
    elif getattr(args, "runs", None):
        base = args.seed_base if args.seed_base is not None else config.seeds[0]
        config.seeds = list(range(base, base + args.runs))


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load(args, args.scenario)
    _apply_seed_overrides(config, args)
    result = run_scenario(config, out_dir=args.out)
    sys.stdout.write(csv_report(result.report))
    sys.stdout.write("\n" + text_summary(result.report))
    if args.out:
        print(f"\nartifacts in {Path(args.out).resolve()}")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    config = _load(args)
    _apply_seed_overrides(config, args)
    results = run_suite(config, out_dir=args.out)
    reports = [results[kind].report for kind in ScenarioKind]
    sys.stdout.write(suite_summary(reports))
    if args.out:
        print(f"\nartifacts in {Path(args.out).resolve()}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    path = args.config or default_config_path()
    try:
        config = load_config(path)
    except ConfigError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    findings = config.validate()
    if findings:
        for finding in findings:
            print(f"invalid: {finding}", file=sys.stderr)
        return 1
    print(f"ok: {config.name} ({config.kind.value}, {config.runs} runs, {len(config.topology.hosts)} hosts)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = report_from_logs(args.logs)
    output = csv_report(report)
    if args.csv:
        Path(args.csv).write_text(output, encoding="utf-8")
    sys.stdout.write(output)
    sys.stdout.write("\n" + text_summary(report))
    return 0


def serve_controller(config):
    """The controller ``icnsim serve`` exposes; it ingests the config's own manifest."""
    from .controller import IcnController
    from .flows import FlowManager
    from .mpd import _url_path
    from .registry import IcnRegistry
    from .service import HttpHooks

    mpd_bytes = config.mpd_bytes()
    mpd_path = _url_path(config.mpd_url)

    def fetcher(url_path: str, _hostname: str) -> bytes | None:
        return mpd_bytes if url_path == mpd_path else None

    flows = FlowManager(config.topology)
    return IcnController(IcnRegistry(config.topology), flows, HttpHooks(flows, fetcher))


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import make_control_server

    server = make_control_server(serve_controller(_load(args)), args.host, args.port)
    host, port = server.server_address[:2]
    print(f"control service on http://{host}:{port}/onos/icn/ (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icnsim",
        description="URL-steered caching sim: proxies, caches and prefetchers on an emulated SDN fabric",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="run one scenario and print its report")
    _add_config_argument(run_parser)
    run_parser.add_argument(
        "--scenario",
        choices=[kind.value for kind in ScenarioKind],
        default=None,
        help="override the scenario kind from the config",
    )
    run_parser.add_argument("--out", type=Path, default=None, help="write event logs, CSV and summary here")
    run_parser.add_argument("--seeds", default=None, help="comma-separated seed list")
    run_parser.add_argument("--runs", type=int, default=None, help="number of runs (seeds counted up from --seed-base)")
    run_parser.add_argument("--seed-base", type=int, default=None)
    run_parser.set_defaults(handler=_cmd_run)

    suite_parser = commands.add_parser("suite", help="run every scenario and print the side-by-side summary")
    _add_config_argument(suite_parser)
    suite_parser.add_argument("--out", type=Path, default=None)
    suite_parser.add_argument("--seeds", default=None)
    suite_parser.add_argument("--runs", type=int, default=None)
    suite_parser.add_argument("--seed-base", type=int, default=None)
    suite_parser.set_defaults(handler=_cmd_suite)

    validate_parser = commands.add_parser("validate", help="check a scenario config without running it")
    _add_config_argument(validate_parser)
    validate_parser.set_defaults(handler=_cmd_validate)

    report_parser = commands.add_parser("report", help="rebuild CSV and summary from stored event logs")
    report_parser.add_argument("logs", nargs="+", type=Path)
    report_parser.add_argument("--csv", type=Path, default=None)
    report_parser.set_defaults(handler=_cmd_report)

    serve_parser = commands.add_parser("serve", help="expose the management REST interface over HTTP")
    _add_config_argument(serve_parser)
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8181)
    serve_parser.set_defaults(handler=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
