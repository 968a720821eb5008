"""The ghostdim benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload compact-eq --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced

Every pass of a workload runs in a fresh interpreter (`worker.py`), one at a
time, and passes repeat for about `--seconds` (a whole number of passes).
With `--trace 0` the run reports the end-to-end metrics: the medians over
passes of compute time and peak RSS, the median and tail latency over every
item execution, and the median of several fresh-process set-ups.  With
`--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, with the tracing overhead.  Every time
is rescaled to the reference machine speed of `calibrate.py` by the
reference units its own process ran; the measured times are printed too.  The last line of standard
output is one JSON object; the lines before it print every metric with its
unit.  Every answer is checked; a failed item counts in `failed`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench"           # raw passes and spans of the last runs
SETUP_PROBES = 5
PASS_TIMEOUT_S = 120


class BenchError(Exception):
    pass


def tail_rank(n, beyond=10):
    """Index into n sorted items of the highest percentile with `beyond` items above it."""
    if n <= beyond:
        raise BenchError(f"{n} items; the tail needs more than {beyond}")
    return n - beyond - 1


def hd_quantile(values, q, grid=20001):
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all order statistics.

    A single order statistic of a few dozen latencies jumps whenever noise
    reorders two items across a gap; this estimate moves smoothly instead.
    """
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = len(v)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    x = np.linspace(0.0, 1.0, grid)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    pdf = np.exp(log_pdf - log_pdf[np.isfinite(log_pdf)].max())
    pdf[~np.isfinite(log_pdf)] = 0.0
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)])
    weights = np.diff(np.interp(np.arange(n + 1) / n, x, cdf / cdf[-1]))
    return float(weights @ v)


def latency_summary(by_item):
    """Median and tail latency over every execution of every item (seconds per execution).

    The tail is the highest percentile with at least ten items beyond it.
    Returns (p50_ms, tail_ms, tail_pct, number of items).
    """
    n = len(by_item)
    q = (tail_rank(n) + 1) / n
    samples = [s for runs in by_item.values() for s in runs]
    return hd_quantile(samples, 0.5) * 1000, hd_quantile(samples, q) * 1000, 100 * q, n


def check_metric_names(emitted, declared):
    """The metrics a run emits must be exactly the ones BENCHMARK.json declares."""
    unknown = sorted(set(emitted) - set(declared))
    missing = sorted(set(declared) - set(emitted))
    if unknown or missing:
        raise BenchError(f"metric names differ from BENCHMARK.json: "
                         f"undeclared {unknown}, not emitted {missing}")


def load_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "run_seconds": spec["run_seconds"],
    }


def worker(*args):
    """Run one worker process to completion and return its JSON line."""
    cmd = [sys.executable, str(WORKER), *map(str, args)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S, env={**os.environ, "PYTHONHASHSEED": "0"})
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} ran past {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload, seed, seconds, traced):
    """Whole passes, as many as fit in `seconds` when rounded to the nearest pass.

    A pass starts while it is expected to end less than half a pass after
    `seconds`.  Traced runs alternate an untraced and a traced pass of the
    same inputs, and count the pair as one pass.
    """
    plain, traced_passes, durations = [], [], []
    start = time.perf_counter()
    while not durations or time.perf_counter() - start + statistics.median(durations) / 2 < seconds:
        began = time.perf_counter()
        plain.append(worker("--workload", workload, "--seed", seed))
        if traced:
            OUT_DIR.mkdir(exist_ok=True)
            path = OUT_DIR / f"spans-{workload}-seed{seed}-pass{len(traced_passes)}.npz"
            traced_passes.append(worker("--workload", workload, "--seed", seed, "--trace", path))
        durations.append(time.perf_counter() - began)
    return plain, traced_passes


def speed_scale(process):
    """Factor that rescales a worker's times to the reference machine speed."""
    return calibrate.scale(process["ref_units"])


def end_to_end(passes, setups):
    per_item = {}
    for p in passes:
        for ident, seconds in p["latencies"].items():
            per_item.setdefault(ident, []).append(seconds * speed_scale(p))
    p50_ms, tail_ms, tail_pct, n = latency_summary(per_item)
    metrics = {
        "wall_s": statistics.median(p["compute_s"] * speed_scale(p) for p in passes),
        "setup_s": statistics.median(s["setup_s"] * speed_scale(s) for s in setups),
        "item_p50_ms": p50_ms,
        "item_tail_ms": tail_ms,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    notes = {"item_tail_pct": round(tail_pct, 1), "items": n, "passes": len(passes),
             "measured_wall_s": statistics.median(p["compute_s"] for p in passes),
             "measured_setup_s": statistics.median(s["setup_s"] for s in setups),
             "unit_ms": 1000 * statistics.fmean(u for p in passes for u in p["ref_units"])}
    return metrics, notes


def per_layer(plain, traced, required, units):
    """Medians over traced passes; times rescaled like the end-to-end ones."""
    for p in traced:
        uncalled = [name for name in required if not p["calls"].get(name)]
        if uncalled:
            raise BenchError(f"instrumentation incomplete: no calls to {uncalled}")

    def value(p, name):
        return p["layers"][name] * (speed_scale(p) if units[name] == "s" else 1.0)

    metrics = {name: statistics.median(value(p, name) for p in traced) for name in traced[0]["layers"]}
    metrics["trace.overhead_frac"] = (statistics.median(p["compute_s"] * speed_scale(p) for p in traced)
                                      / statistics.median(p["compute_s"] * speed_scale(p) for p in plain) - 1)
    return metrics


def run(workload, seed, seconds, trace, spec):
    from workloads import WORKLOADS, load_expected

    setups = [worker("--setup-only") for _ in range(SETUP_PROBES)]
    plain, traced = run_passes(workload, seed, seconds, trace)
    passes = plain + traced
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"passes-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"setups": setups, "plain": plain, "traced": traced}))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    e2e, notes = end_to_end(plain, setups)
    if trace:
        metrics = per_layer(plain, traced, WORKLOADS[workload].required_calls, spec["per_layer"])
        declared = spec["per_layer"]
    else:
        metrics = e2e
        declared = spec["end_to_end"]
    check_metric_names(metrics, declared)
    for p in passes:
        for f in p["failures"]:
            print(f"FAILED {f['item']}: {f['error']}")
    digests = sorted({p["digest"] for p in passes if not p["failures"]})
    recorded = load_expected()[workload]["digest"]
    print(f"# {workload} seed={seed} passes={notes['passes']} items={notes['items']} "
          f"item_tail=p{notes['item_tail_pct']} digest={','.join(digests)} (recorded {recorded})")
    print(f"# measured, not rescaled: wall_s {notes['measured_wall_s']:.6g} setup_s "
          f"{notes['measured_setup_s']:.6g}; reference unit {notes['unit_ms']:.4g} ms "
          f"(rescaled to {1000 * calibrate.UNIT_S:g} ms)")
    for name, value in metrics.items():
        print(f"{workload} {name} {value:.6g} {declared[name]}")
    print(f"{workload} failed_frac {failed / attempted:.6g} ratio")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]} for name, value in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ghostdim" / "__init__.py").is_file():
        print(f"run.py: no ghostdim source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    spec = load_benchmark()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    try:
        results = {name: run(name, args.seed, seconds, args.trace, spec) for name in names}
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
