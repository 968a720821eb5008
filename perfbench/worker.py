"""One pass of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload compact-eq --seed 3 [--trace PATH]
    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --workload ss-oracle --record   # rewrite its expected answers

Each pass starts a new process so that module-level caches (builtin rings,
free modules, primality) and per-complex towers start cold, as they do for
a command-line user.  `run.py` starts these processes one at a time.

After every item, and after set-up, the worker runs units of the reference
computation in `calibrate.py` and reports their times, so that `run.py` can
rescale this pass's times to the reference machine speed.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_UNITS = 8           # reference units run after a set-up probe


def setup():
    """Import ghostdim from this checkout and build every builtin ring; returns seconds."""
    if not (SRC / "ghostdim" / "__init__.py").is_file():
        sys.exit(f"worker: no ghostdim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ghostdim
    from ghostdim.rings import BUILTIN_NAMES, builtin_ring

    if Path(ghostdim.__file__).resolve().parent != SRC / "ghostdim":
        sys.exit(f"worker: imported ghostdim from {ghostdim.__file__}, not from {SRC}")
    for name in BUILTIN_NAMES:
        builtin_ring(name)
    return time.perf_counter() - T0


def run_pass(workload, seed, tracer, expected, reference):
    latencies, answers, failures = {}, {}, []
    for item in workload.build(seed, expected):
        elapsed = 0.0

        def timed(fn, *args, **kwargs):
            nonlocal elapsed
            with tracer.item(item.ident):
                t = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed += time.perf_counter() - t

        try:
            answers[item.ident] = item.run(timed)
            latencies[item.ident] = elapsed
        except Exception as exc:  # one bad item must not stop the pass
            failures.append({"item": item.ident, "error": f"{type(exc).__name__}: {exc}"})
            traceback.print_exc(file=sys.stderr)
        reference.after(elapsed)
    return latencies, answers, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", metavar="PATH", help="trace the pass; write its spans here")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="store the answers in expected.json instead of checking them")
    args = parser.parse_args(argv)

    setup_s = setup()
    sys.path.insert(0, str(HERE))
    import calibrate

    # The reference data's memory is not the program's: measure it, to subtract from the peak.
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reference = calibrate.Reference()
    reference_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before) / 1024
    reference.unit()                      # warm-up, not recorded
    reference.units.clear()
    if args.setup_only:
        for _ in range(SETUP_UNITS):
            reference.unit()
        print(json.dumps({"setup_s": setup_s, "ref_units": reference.units}))
        return

    import spans
    from workloads import WORKLOADS, answers_digest, load_expected, record_answers

    workload = WORKLOADS[args.workload]
    tracer = spans.Tracer()
    if args.trace:
        spans.install(tracer)
    expected = None if args.record else load_expected()[workload.name]["answers"]
    latencies, answers, failures = run_pass(workload, args.seed, tracer, expected, reference)
    if args.record:
        if failures:
            sys.exit(f"worker: not recording; {len(failures)} items failed")
        record_answers(workload.name, answers)
        return
    compute_s = sum(latencies.values())
    out = {
        "setup_s": setup_s,
        "compute_s": compute_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - reference_mb,
        "ref_units": reference.units,
        "latencies": latencies,
        "attempted": len(latencies) + len(failures),
        "failures": failures,
        "digest": answers_digest(answers),
    }
    if args.trace:
        stats = tracer.stats(total_for=spans.TOTAL_FOR)
        out["layers"] = spans.layer_metrics(stats, tracer, compute_s)
        out["calls"] = {name: entry["calls"] for name, entry in stats.items()}
        tracer.write(args.trace)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
