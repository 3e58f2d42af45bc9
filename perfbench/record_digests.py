"""Rewrite ``digests.json``: exact result digests of the FULL-size jobs.

Usage, from the repository root::

    python3 perfbench/record_digests.py [FIRST_SEED LAST_SEED]

A benchmark run whose seed is recorded compares its result digest with
the recorded one and fails on a mismatch, so a change that alters what
the program computes cannot pass as a pure speed-up.  Run this only for
a change that is meant to alter results.  The serve workload is not
recorded: its request count follows ``--seconds``, and its daemon is
checked against a batch replay of the same requests instead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digests_for(seed: int) -> dict:
    from perfbench import fleet, replay
    from perfbench.common import FULL, digest, scratch_dir
    from perfbench.inputs import europe_trace

    trace, disk = europe_trace(FULL, seed)
    results, _rows = replay.sweep_job(trace, replay.sweep_configs(disk))
    probed = replay.probed_job(trace, disk, str(scratch_dir() / "telemetry.jsonl"))
    shards, footprints = fleet.fleet_shards(FULL, seed)
    _fleet, fleet_result = fleet.fleet_job(shards, fleet.simulator(footprints))
    return {
        "replay-sweep": digest(replay.totals_by_cell(results)),
        "replay-probed": digest({a: r.totals.to_dict() for a, r in probed.items()}),
        "fleet-hierarchy": digest(fleet.fingerprint(fleet_result)),
    }


def main(argv) -> int:
    first, last = (int(argv[0]), int(argv[1])) if argv else (0, 20)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.common import DIGESTS_PATH, remove_scratch

    table: dict = {}
    try:
        for seed in range(first, last + 1):
            for workload, value in digests_for(seed).items():
                table.setdefault(workload, {})[str(seed)] = value
            print(f"seed {seed}: done", flush=True)
    finally:
        remove_scratch()
    DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
