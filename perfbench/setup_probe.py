"""Time one benchmark set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py WORKLOAD

Set-up is importing adet, building the workload's pairs, Nahm matrices and
the CLI parser, and filling mpmath's lazy caches.
"""
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

workloads.make(sys.argv[1], HERE / "results")
print(time.perf_counter() - t0)
