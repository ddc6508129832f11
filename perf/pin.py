"""Re-pin the result digests of seeds 0 and 1 into ``perf/digests.json``.

Usage (from the repository root): python3 perf/pin.py

Runs every input of the pinned seeds once, untraced, and overwrites the
file.  Only a change that redefines a workload (a benchmark change)
should re-pin; any other change must reproduce the pinned digests.
"""

import json
import sys

from run import DIGESTS, WORK_DIR, INPUTS_PER_SEED, input_seed, run_job
from workloads import WORKLOADS

PINNED_SEEDS = (0, 1)


def main() -> int:
    pins = {}
    WORK_DIR.mkdir(exist_ok=True)
    try:
        for name in WORKLOADS:
            pins[name] = {}
            for seed in PINNED_SEEDS:
                for index in range(INPUTS_PER_SEED):
                    job = run_job(name, input_seed(seed, index), traced=False)
                    if "error" in job or job["failed_operations"]:
                        print(f"{name} input {job['seed']}: {job.get('error', 'failed')}",
                              file=sys.stderr)
                        return 1
                    pins[name][str(job["seed"])] = job["digest"]
                    print(f"{name} input {job['seed']}: {job['digest']}")
    finally:
        WORK_DIR.rmdir()
    DIGESTS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
