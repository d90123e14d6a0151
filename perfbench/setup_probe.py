"""Time one set-up in a fresh interpreter, for the setup_s metric.

    python3 perfbench/setup_probe.py <workload>

Prints the seconds from before `import prelie` until the workload's
fields and algebras are built.
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402  (imports prelie)

workloads.WORKLOADS[sys.argv[1]]()
print(time.perf_counter() - t0)
