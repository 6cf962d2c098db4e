"""Write maps_e3.json and expected.json from the program at the current commit.

    python3 perfbench/record_expected.py

The committed files were recorded at commit e69200d and are the reference
every later commit is checked against.  Re-record only when an output is
meant to change, and say so in the change that does it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import jobs  # noqa: E402


def main() -> int:
    from nrooted.ribbon import enumerate_maps, map_to_json

    maps = [map_to_json(m) for n in (1, 2) for m in enumerate_maps(n, 3)]
    jobs.MAPS_PATH.write_text(json.dumps(maps) + "\n")

    digests = {}
    for workload in jobs.WORKLOADS:
        for job in jobs.build(workload, seed=0):
            out = job.call()
            reason = job.check(out)
            if reason is not None:
                print(f"{workload} {job.id}: {reason}", file=sys.stderr)
                return 1
            if job.digest is not None:
                digests[job.id] = job.digest(out)
    checks.EXPECTED_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(maps)} maps and {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
