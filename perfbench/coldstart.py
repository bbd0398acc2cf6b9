"""One cold start of a workload: ``python3 perfbench/coldstart.py WORKLOAD``.

Imports ``gtprobe.cli``, makes the workload's first call (its lazy
set-up), then times the workload's reference unit in the same process.
Prints one JSON line; ``ready`` is read from ``time.monotonic``, the clock
the parent started its timer on.
"""

import json
import statistics
import sys
import time

start = time.monotonic()
import gtprobe.cli  # noqa: E402,F401  (the import is what is timed)

imported = time.monotonic()
import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]]
workload.first_call()
ready = time.monotonic()

from refkernel import ReferenceKernel  # noqa: E402

kernel = ReferenceKernel()
kernel.run()
print(
    json.dumps(
        {
            "ready": ready,
            "import_s": imported - start,
            "first_call_s": ready - imported,
            "ref_s": statistics.median(
                sum(times[part] for part in workload.reference)
                for times in (kernel.run() for _ in range(5))
            ),
        }
    )
)
