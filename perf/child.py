"""Run one benchmark job in a fresh process; print its measurements as JSON.

Usage: python3 perf/child.py WORKLOAD SEED TRACED WORK_DIR

Set-up time starts at this file's first statement, before ``repro`` is
imported.  With TRACED=1 every layer entry point is wrapped (see
``layers.py``) and the job's per-window layer times are included.
"""

import time

STARTED = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import LayerClock  # noqa: E402
from workloads import WORKLOADS, run_workload  # noqa: E402


def main(argv) -> int:
    name, seed, traced, work_dir = argv
    clock = LayerClock() if traced == "1" else None
    windows = {}
    current = ["setup"]
    cpu = {}

    def mark(window: str) -> None:
        # Close the current layer window and open the next one.
        if clock is not None:
            windows[current[0]] = clock.take()
        current[0] = window
        cpu[window] = time.process_time()

    with clock.installed() if clock is not None else contextlib.nullcontext():
        job = run_workload(WORKLOADS[name], int(seed), Path(work_dir), STARTED, mark)
        mark("done")

    job["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # CPU seconds this process got per wall second of the timed run.
    job["cpu_util"] = (cpu["after"] - cpu["run"]) / job["run_s"]
    if clock is not None:
        job["layers"] = windows
        job["missing"] = clock.missing
    print(json.dumps(job))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
