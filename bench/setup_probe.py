"""Set up one workload in a fresh process and print the monotonic clock when done.

Usage: python3 bench/setup_probe.py WORKLOAD SEED WORKDIR

``run.py`` starts this to time ``setup_s``: interpreter start, imports,
problem construction and schedules, up to the first timed round.
"""

import sys
import time
from pathlib import Path

import run


def main() -> int:
    workload, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    run.prepare()
    from workloads import WORKLOADS

    errors = WORKLOADS[workload]().setup(seed, work)
    ready = time.monotonic()
    if errors:
        print("\n".join(errors), file=sys.stderr)
    print(ready)
    return 0


if __name__ == "__main__":
    sys.exit(main())
