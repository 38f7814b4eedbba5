"""One set-up, timed from outside: interpreter start, ``import sumset_lab``
and the generation of the workload's inputs.

Run:  python3 perfbench/setup_probe.py WORKLOAD SEED   (from the repo root)
"""

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import sumset_lab  # noqa: E402,F401

import workloads  # noqa: E402

name, seed = sys.argv[1], int(sys.argv[2])
if name == "set-queries":
    workloads.queries.generate(seed)
else:
    [workloads.certify_command(*box) for box in workloads.SWEEPS[name]]
