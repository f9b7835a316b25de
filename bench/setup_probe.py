"""Set-up of one workload in a fresh process: import qdecouple, build the systems.

Usage: python3 bench/setup_probe.py <workload> <seed>

`run.py` times this process from start to exit as the workload's set-up.
"""

import sys

from workloads import WORKLOADS

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
