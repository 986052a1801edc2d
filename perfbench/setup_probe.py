"""One benchmark set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports ``degseq`` from ``src/``, builds the workload's first-round
inputs, prints ``ready`` and then removes any input file it wrote.
run.py times one set-up as the span from starting this process to
reading that line, so interpreter start-up and every import count.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
os.chdir(ROOT)

from workloads import WORKLOADS, CheckFile, load_library  # noqa: E402

try:
    WORKLOADS[sys.argv[1]].build(load_library(), int(sys.argv[2]), 0)
    print("ready", flush=True)
finally:
    CheckFile.cleanup()
