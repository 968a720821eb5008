"""Wall times of the acceptance criteria that no perfbench workload reaches.

    PYTHONPATH=src python3 tools/bench_timings.py

Prints one JSON object: the environment, the fdim time of the a3:f2 member
cone2:1 (bound 6, seed 7, on a freshly built battery) with a digest of each
filtration table that fdim reads (FiltrationTable.to_json) and, per builtin
ring, the wall time of three verify suites with a digest of each report,
so two commits can be compared for both speed and answers:

* criterion 1, verify_summary(ring, 8, 0): ghdim = wdim;
* criterion 2, verify_compact_eq(ring, 6, 7): fdim = pdim on the battery;
* criterion 5, verify_symmetry(ring, 8, 0): ghdim(R) = ghdim(R^op).

The three suites also run on A_3/rad^2 (ghdim = wdim = 2), loaded from its
spec under tests/rings, and wdim (bound 8) is timed on A_4/rad^2 (wdim 3),
with a digest of its report: rings past the builtin sizes, not builtins.

Criterion 6 runs both filtration routes on the pairs of the acceptance
test (tests/helpers.py:criterion_6_pairs): its wall time, the part spent in
resolution_filtration, and per pair whether the routes agree with a digest
of the pair's E-infinity orders and vanishing line.

The host's speed drifts, so raw wall times of two runs are not comparable.
After every timed call the script runs units of the benchmark's reference
computation (perfbench/calibrate.py) for about a fifth of the call's time,
and `scaled_s` gives each suite's time rescaled to the reference machine
speed by the units run beside it, as perfbench rescales its own times.
"""

import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from ghostdim.cli import verify_compact_eq, verify_summary, verify_symmetry
from ghostdim.dimensions import DimReport, standard_battery, wdim_ring
from ghostdim.rings import BUILTIN_NAMES, builtin_ring, load_ring_file
from ghostdim.tensor_ss import default_tests, fdim_via_ss, resolution_filtration, ucss_filtration

TESTS = Path(__file__).resolve().parent.parent / "tests"
sys.path.insert(0, str(TESTS))
from helpers import criterion_6_pairs  # noqa: E402  (the acceptance test's pairs)

sys.path.insert(0, str(TESTS.parent / "perfbench"))
import calibrate  # noqa: E402  (the benchmark's reference units)

CRITERIA = (
    ("criterion_1", verify_summary, 8, 0),
    ("criterion_2", verify_compact_eq, 6, 7),
    ("criterion_5", verify_symmetry, 8, 0),
)


class Clock:
    """Times calls, runs reference units beside each, and files both under a suite."""

    def __init__(self):
        self.reference = calibrate.Reference()
        self.seconds, self.units = {}, {}

    def time(self, suite, fn, *args):
        """fn(*args) and its wall time; the time counts towards suite."""
        t0 = time.perf_counter()
        out = fn(*args)
        seconds = time.perf_counter() - t0
        first = len(self.reference.units)
        self.reference.after(seconds)
        self.seconds[suite] = self.seconds.get(suite, 0.0) + seconds
        self.units.setdefault(suite, []).extend(self.reference.units[first:])
        return out, seconds

    def scaled(self):
        """Each suite's time at the reference machine speed."""
        return {suite: round(s * calibrate.scale(self.units[suite]), 2) for suite, s in self.seconds.items()}


def _digest(report):
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()[:16]


def cone2_fdim(clock):
    members, _ = standard_battery(builtin_ring("a3:f2"), 6, 7, min_size=25)
    cx = next(m.cx for m in members if m.ident == "cone2:1")
    verdict, seconds = clock.time("cone2:1_fdim", fdim_via_ss, cx, 6)
    # the tables fdim read (max_depth = bound + 2), again, untimed
    tables = [_digest(ucss_filtration(cx, z, max_depth=8).to_json()) for z in default_tests(cx)]
    return {"seconds": round(seconds, 2), "fdim": verdict.render(), "tables_sha256_16": tables}


def criterion_6(clock):
    """(per-pair entries, wall time, time in resolution_filtration)."""
    pairs = {}
    total_s = oracle_s = 0.0
    for name, x, z in criterion_6_pairs():
        table, ucss_s = clock.time("criterion_6", ucss_filtration, x, z)
        (e_infty, line), seconds = clock.time("criterion_6", resolution_filtration, x, z)
        total_s += ucss_s + seconds
        oracle_s += seconds
        ok = table.exhausted and table.e_infty == e_infty and table.vanishing_line == line
        cells = {f"{s},{t}": v for (s, t), v in sorted(e_infty.items())}
        pairs[f"{name}/{x.name}/{z.label or f'orders{list(z.orders)}'}"] = {
            "pass": ok, "filtration_sha256_16": _digest({"e_infty": cells, "line": line})}
    return pairs, round(total_s, 2), round(oracle_s, 2)


def a4rad2_wdim(clock):
    ring = load_ring_file(TESTS / "rings" / "a4rad2-f2.json")
    (verdict, witnesses), seconds = clock.time("a4rad2:f2_wdim", wdim_ring, ring, 8)
    report = DimReport(ring=ring.name, quantity="wdim", verdict=verdict, bound=8, witnesses=witnesses)
    return {"seconds": round(seconds, 2), "wdim": verdict.render(), "report_sha256_16": _digest(report.to_json())}


def per_ring(clock, suite, rings, verify, bound, seed):
    out = {}
    for name, ring in rings.items():
        (ok, report), seconds = clock.time(suite, verify, ring, bound, seed)
        out[name] = {"seconds": round(seconds, 2), "pass": ok, "report_sha256_16": _digest(report)}
    return out


def main():
    clock = Clock()
    result = {
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "cores": os.cpu_count()},
        "cone2:1_fdim": cone2_fdim(clock),
    }
    # before the verify suites, which would leave the rings' simples resolved
    result["criterion_6"], result["criterion_6_total_s"], result["criterion_6_oracle_s"] = criterion_6(clock)
    rings = {name: builtin_ring(name) for name in BUILTIN_NAMES}
    a3rad2 = load_ring_file(TESTS / "rings" / "a3rad2-f2.json")
    rings[a3rad2.name] = a3rad2
    for key, verify, bound, seed in CRITERIA:
        result[key] = per_ring(clock, key, rings, verify, bound, seed)
        result[f"{key}_total_s"] = round(sum(v["seconds"] for v in result[key].values()), 2)
    result["a4rad2:f2_wdim"] = a4rad2_wdim(clock)
    result["scaled_s"] = clock.scaled()
    json.dump(result, sys.stdout)
    print()


if __name__ == "__main__":
    main()
