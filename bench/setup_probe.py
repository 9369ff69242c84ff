"""Fresh-process set-up time: import plde and parse a workload's equations.

Usage: python3 bench/setup_probe.py EQUATIONS.json   (PYTHONPATH must hold src)
Prints the elapsed seconds; run by bench/run.py, one process per sample.
"""

import json
import sys
import time

t0 = time.perf_counter()
import plde  # noqa: E402
from plde.equation import PLDE  # noqa: E402

with open(sys.argv[1], encoding="utf-8") as fh:
    equations = [PLDE.from_json(data) for data in json.load(fh)]
print("%.9f %d" % (time.perf_counter() - t0, len(equations)))
