"""One set-up sample: a fresh interpreter brings a workload to ready.

``python3 perfbench/probe.py <workload>`` imports what the workload's
first timed request needs (and, for ``simulate``, builds its sessions),
then exits; ``setup_s`` is the wall time of this process.
"""

import importlib
import sys

if __name__ == "__main__":
    importlib.import_module(sys.argv[1]).ready()
