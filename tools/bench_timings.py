"""Wall times of the fdim path that no perfbench workload reaches.

    PYTHONPATH=src python3 tools/bench_timings.py

Prints one JSON object: the environment, the fdim time of the a3:f2 member
cone2:1 (bound 6, seed 7, on a freshly built battery) and, per builtin
ring, the wall time of verify_compact_eq(ring, 6, 7) -- acceptance
criterion 2 -- with a digest of its report, so two commits can be compared
for both speed and answers.
"""

import hashlib
import json
import os
import platform
import sys
import time

import numpy as np

from ghostdim.cli import verify_compact_eq
from ghostdim.dimensions import standard_battery
from ghostdim.rings import BUILTIN_NAMES, builtin_ring
from ghostdim.tensor_ss import fdim_via_ss

BOUND, SEED = 6, 7


def _digest(report):
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()[:16]


def cone2_fdim():
    members, _ = standard_battery(builtin_ring("a3:f2"), BOUND, SEED, min_size=25)
    cx = next(m.cx for m in members if m.ident == "cone2:1")
    t0 = time.perf_counter()
    verdict = fdim_via_ss(cx, BOUND)
    return {"seconds": round(time.perf_counter() - t0, 2), "fdim": verdict.render()}


def criterion_2():
    out = {}
    for name in BUILTIN_NAMES:
        t0 = time.perf_counter()
        ok, report = verify_compact_eq(builtin_ring(name), BOUND, SEED)
        out[name] = {"seconds": round(time.perf_counter() - t0, 2), "pass": ok,
                     "report_sha256_16": _digest(report)}
    return out


def main():
    result = {
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "cores": os.cpu_count()},
        "cone2:1_fdim": cone2_fdim(),
        "criterion_2": criterion_2(),
    }
    result["criterion_2_total_s"] = round(sum(v["seconds"] for v in result["criterion_2"].values()), 2)
    json.dump(result, sys.stdout)
    print()


if __name__ == "__main__":
    main()
