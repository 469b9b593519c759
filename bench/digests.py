"""Event-log gate: sha256 of every event log the sim workloads can run.

The table ``digests.json`` holds one digest per scenario kind and seed of
``SEED_POOL``, each over the log as ``write_event_log`` stores it (one
``SimEvent.format_line`` per line).  The sim workloads compare every run
against it.  Regenerate it only when the event stream changes on purpose:

    python3 bench/digests.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
TABLE_PATH = BENCH_DIR / "digests.json"
SEED_POOL = tuple(range(1, 25))
SIM_KINDS = {
    "sim-plain": ("DIRECT", "EMPTY_CACHE", "FULL_CACHE"),
    "sim-prefetch": ("PREFETCH", "DISTRIBUTED_PREFETCH"),
}


def load_table() -> dict:
    return json.loads(TABLE_PATH.read_text(encoding="utf-8"))


def regenerate() -> dict:
    import program
    from checks import log_digest

    config = program.load_default_config()
    from icnsim.scenario import ScenarioKind
    from icnsim.simulation import run_single

    table: dict[str, dict[str, str]] = {}
    for kinds in SIM_KINDS.values():
        for kind in kinds:
            table[kind] = {}
            for seed in SEED_POOL:
                records = run_single(config, ScenarioKind(kind), 0, seed)
                table[kind][str(seed)] = log_digest(record.format_line() for record in records)
                print(f"{kind} seed {seed}: {table[kind][str(seed)]}", file=sys.stderr)
    TABLE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return table


if __name__ == "__main__":
    regenerate()
