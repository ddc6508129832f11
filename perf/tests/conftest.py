"""Put the benchmark modules and the ``repro`` sources on ``sys.path``.

Run with ``python -m pytest perf/tests -q`` from the repository root.
"""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent.parent
for path in (PERF, PERF.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
