"""Benchmark command for icnsim.

    python3 bench/run.py --workload sim-plain --seed 1 --seconds 20 --trace 0

Runs one workload in this process, checks the program's outputs, and prints
as its last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics of a traced round.  The result, and the spans
of a traced round, are also written under ``bench/out/``.  Exits non-zero
when a check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import spec

WORKLOADS = ("sim-plain", "sim-prefetch", "live-steering")
OUT_DIR = Path(__file__).resolve().parent / "out"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed work to measure, in whole rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import checks
    import program

    tally = spec.Tally()
    try:
        if args.workload == "live-steering":
            import live as workload
        else:
            import sim as workload
        OUT_DIR.mkdir(exist_ok=True)
        values = workload.run(args.workload, args.seed, args.seconds, bool(args.trace), tally, OUT_DIR)
    except program.ProgramError as exc:
        print(f"cannot run: {exc}", file=sys.stderr)
        return 2
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(tally.attempted, 1), "failed": tally.failed, "metrics": {}}))
        return 1

    units = spec.PER_LAYER if args.trace else spec.END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = json.dumps({"correct": True, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics})
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(result + "\n")
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
