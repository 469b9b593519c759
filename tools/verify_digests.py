#!/usr/bin/env python3
"""Check every golden event-log digest against a fresh run.

Runs each scenario kind and seed listed in ``bench/digests.json`` through
``run_single`` on the packaged config, prints every mismatch and exits 1 if
there is any.  The table is only read; ``python3 bench/digests.py``
regenerates it when the event stream changes on purpose.  The runs are
spread over one worker process per CPU this process may use; the full sweep
(5 kinds x 24 seeds) still takes about 40 s on 2 CPUs, so it is not part
of the tests:

    python3 tools/verify_digests.py
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "bench" / "digests.json"
sys.path.insert(0, str(ROOT / "src"))

from icnsim.cli import default_config_path  # noqa: E402
from icnsim.scenario import ScenarioKind, load_config  # noqa: E402
from icnsim.simulation import run_single  # noqa: E402


@lru_cache(maxsize=1)
def _config():
    return load_config(default_config_path())


def _digest(kind: str, seed: str) -> str:
    digest = hashlib.sha256()
    for record in run_single(_config(), ScenarioKind(kind), 0, int(seed)):
        digest.update(record.format_line().encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def main() -> int:
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    runs = [
        (kind, seed, expected)
        for kind, seeds in sorted(table.items())
        for seed, expected in sorted(seeds.items(), key=lambda item: int(item[0]))
    ]
    started = time.perf_counter()
    mismatches = 0
    workers = len(os.sched_getaffinity(0))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        digests = pool.map(_digest, [kind for kind, _, _ in runs], [seed for _, seed, _ in runs])
        for (kind, seed, expected), digest in zip(runs, digests):
            if digest != expected:
                mismatches += 1
                print(f"MISMATCH {kind} seed {seed}: {digest} != {expected}")
    elapsed = time.perf_counter() - started
    print(f"{mismatches} mismatches over {len(runs)} runs ({len(table)} kinds) in {elapsed:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
