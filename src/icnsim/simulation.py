"""Run scenarios end to end and leave auditable artifacts behind.

Every run writes (optionally) an event log; the CSV and summaries are
derived from exactly those events, so `report` on a stored log reproduces
them byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .events import SimEvent, write_event_log
from .metrics import (
    RunMetrics,
    ScenarioReport,
    csv_report,
    derive_run_metrics,
    suite_summary,
    text_summary,
)
from .runtime import SimWorld
from .scenario import ScenarioConfig, ScenarioKind


@dataclass
class ScenarioResult:
    report: ScenarioReport
    records: list[list[SimEvent]] | None = None


def run_single(
    config: ScenarioConfig, kind: ScenarioKind, run_index: int, seed: int
) -> list[SimEvent]:
    return SimWorld(config, kind, run_index, seed).execute()


def run_scenario(
    config: ScenarioConfig,
    kind: ScenarioKind | None = None,
    out_dir: Path | None = None,
    keep_records: bool = False,
) -> ScenarioResult:
    kind = kind or config.kind
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    result = ScenarioResult(ScenarioReport(kind.value, []), records=[] if keep_records else None)
    stem = kind.value.lower()
    for index, seed in enumerate(config.seeds):
        records = run_single(config, kind, index, seed)
        result.report.runs.append(derive_run_metrics(records))
        if out_dir is not None:
            write_event_log(records, out_dir / f"{stem}_{index + 1:02d}.events")
        if keep_records:
            result.records.append(records)
    if out_dir is not None:
        (out_dir / f"{stem}.csv").write_text(csv_report(result.report), encoding="utf-8")
        (out_dir / f"{stem}_summary.txt").write_text(text_summary(result.report), encoding="utf-8")
    return result


def run_suite(
    config: ScenarioConfig,
    kinds: list[ScenarioKind] | None = None,
    out_dir: Path | None = None,
) -> dict[ScenarioKind, ScenarioResult]:
    """All scenarios over the same seed list, plus a side-by-side summary."""
    kinds = kinds or list(ScenarioKind)
    results = {kind: run_scenario(config, kind, out_dir=out_dir) for kind in kinds}
    if out_dir is not None:
        summary = suite_summary([results[kind].report for kind in kinds])
        (Path(out_dir) / "suite_summary.txt").write_text(summary, encoding="utf-8")
    return results


def report_from_logs(paths: list[Path]) -> ScenarioReport:
    """Rebuild a scenario report from stored event logs."""
    from .events import parse_event_line

    runs: list[RunMetrics] = []
    kind = ""
    for path in paths:
        records = [
            parse_event_line(line)
            for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        metrics = derive_run_metrics(records)
        runs.append(metrics)
        kind = metrics.scenario or kind
    runs.sort(key=lambda m: m.run_index)
    return ScenarioReport(kind, runs)
