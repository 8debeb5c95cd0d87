"""Child interpreter of the benchmark: one pass of one workload.

``run.py`` starts this file in a fresh interpreter per pass (so caches,
the allocator and ``ru_maxrss`` start clean every time) with one JSON
argument, and reads the pass record from the last line of stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    start = time.perf_counter()
    import numpy

    import repro  # noqa: F401 - timed: work moved to import time must show

    import_s = time.perf_counter() - start
    if spec["workload"] == "service-drain":
        import servicebench

        record = servicebench.run_pass(
            spec["seed"],
            spec["traced"],
            spec["smoke"],
            spec["trace_out"],
            Path(__file__).resolve().parent / ".work",
        )
    else:
        import simbench

        record = simbench.run_pass(
            spec["workload"],
            spec["seed"],
            spec["traced"],
            spec["smoke"],
            spec["trace_out"],
        )
    # ru_maxrss is KiB on Linux; read last so the whole pass is covered.
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["end_to_end"]["peak_rss_mb"] = peak_kib / 1024.0
    record["numpy"] = numpy.__version__
    if "per_layer" in record:
        record["per_layer"]["bench.import_s"] = import_s
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
