"""Behaviour gate: the event stream of every scenario kind matches its golden digest.

``bench/digests.json`` holds sha256 digests of the event logs as
``write_event_log`` stores them (one ``format_line`` per line).  The table is
only read here; a change that means to alter the event stream regenerates it
with ``python3 bench/digests.py`` and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from icnsim.scenario import ScenarioKind
from icnsim.simulation import run_single

DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "digests.json"
SEED = 1


@pytest.fixture(scope="module")
def table():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("kind", list(ScenarioKind), ids=lambda kind: kind.value)
def test_event_log_matches_golden_digest(default_config, table, kind):
    digest = hashlib.sha256()
    for record in run_single(default_config, kind, 0, SEED):
        digest.update(record.format_line().encode("utf-8"))
        digest.update(b"\n")
    assert digest.hexdigest() == table[kind.value][str(SEED)]
