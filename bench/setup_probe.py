"""Time one set-up of a workload in a fresh interpreter.

Usage: python3 bench/setup_probe.py <workload> <path of the checkout's src/>

Prints the seconds from before ``import modrep`` until the workload's
inputs (group tables, field contexts) are ready.
"""

import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[2])
    import workloads  # this directory is on sys.path as the script's

    workloads.setup(sys.argv[1])
    print(repr(time.perf_counter() - t0))
