"""Tests of the benchmark harness's own logic.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize(
    "n, rank, pct",
    [(28, 17, 64.3), (43, 32, 76.7), (75, 64, 86.7), (121, 110, 91.7), (225, 214, 95.6), (11, 0, 9.1)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, rank, pct):
    assert run.tail_rank(n) == rank
    assert sum(i > rank for i in range(n)) == 10
    _, _, tail_pct, count = run.latency_summary({f"item{i}": [i / 1000] for i in range(n)})
    assert count == n
    assert round(tail_pct, 1) == pct


def test_tail_needs_more_than_ten_items():
    with pytest.raises(run.BenchError):
        run.tail_rank(10)


def test_harrell_davis_quantile():
    assert run.hd_quantile([0.25] * 12, 0.5) == pytest.approx(0.25)
    assert run.hd_quantile(range(1, 102), 0.5) == pytest.approx(51.0)
    uniform = [i / 1000 for i in range(1001)]
    for q in (0.1, 0.643, 0.9):
        assert run.hd_quantile(uniform, q) == pytest.approx(q, abs=2e-3)
    values = [1, 2, 3, 10, 11, 12, 100]
    assert run.hd_quantile(values, 0.3) < run.hd_quantile(values, 0.5) < run.hd_quantile(values, 0.7)


def test_latency_summary_pools_every_execution():
    by_item = {f"item{i}": [i / 1000, (i + 1) / 1000] for i in range(21)}
    p50_ms, tail_ms, tail_pct, n = run.latency_summary(by_item)
    assert n == 21
    assert p50_ms == pytest.approx(10.5, abs=0.05)
    assert tail_pct == pytest.approx(100 * 11 / 21)
    assert p50_ms < tail_ms


def _tree(rows):
    """rows: (name, parent index, start, end) in start order."""
    names = sorted({r[0] for r in rows})
    return ([names.index(r[0]) for r in rows], names,
            [r[1] for r in rows], [r[2] for r in rows], [r[3] for r in rows])


def test_self_time_on_nested_tree_with_recursion():
    rows = [
        ("a", -1, 0.0, 10.0),   # 0: root
        ("b", 0, 1.0, 4.0),     # 1: child of a
        ("c", 1, 2.0, 3.0),     # 2: grandchild
        ("a", 0, 5.0, 9.0),     # 3: a calls itself
        ("c", 3, 6.0, 6.5),     # 4: inside the recursive a
        ("a", 3, 7.0, 8.0),     # 5: deeper recursion
    ]
    stats = spans.span_stats(*_tree(rows))
    # a: 10 - (3 + 4) + 4 - (0.5 + 1) + 1 = 6.5
    assert stats["a"]["self_s"] == pytest.approx(6.5)
    assert stats["b"]["self_s"] == pytest.approx(2.0)
    assert stats["c"]["self_s"] == pytest.approx(1.5)
    assert stats["a"]["calls"] == 3
    # total counts only the outermost a; recursion is not counted twice
    assert stats["a"]["total_s"] == pytest.approx(10.0)
    assert stats["c"]["total_s"] == pytest.approx(1.5)
    assert sum(s["self_s"] for s in stats.values()) == pytest.approx(10.0)


def test_total_limited_to_requested_names():
    stats = spans.span_stats(*_tree([("a", -1, 0.0, 2.0), ("b", 0, 0.5, 1.0)]), total_for={"b"})
    assert stats["a"]["total_s"] == 0.0
    assert stats["b"]["total_s"] == pytest.approx(0.5)


def test_tracer_records_only_inside_items():
    tracer = spans.Tracer()
    work = spans._wrap(tracer, "modules.tensor_map", lambda x: x + 1)
    assert work(1) == 2
    with tracer.item("one"):
        work(2)
        work(3)
    stats = tracer.stats()
    assert stats["modules.tensor_map"]["calls"] == 2
    assert list(tracer.items) == ["one"]


def test_smith_bucket():
    assert spans.smith_bucket((3, 16), 2) == "prime.le16"
    assert spans.smith_bucket((65, 1), 12) == "composite.le256"
    assert spans.smith_bucket((300, 2), 3) == "prime.gt256"


def test_emitted_metric_names_must_be_declared():
    declared = {"wall_s": "s", "setup_s": "s"}
    run.check_metric_names({"wall_s": 1.0, "setup_s": 0.2}, declared)
    with pytest.raises(run.BenchError, match="undeclared"):
        run.check_metric_names({"wall_s": 1.0, "setup_s": 0.2, "extra": 1}, declared)
    with pytest.raises(run.BenchError, match="not emitted"):
        run.check_metric_names({"wall_s": 1.0}, declared)


def test_benchmark_json_declares_every_per_layer_metric():
    spec = run.load_benchmark()
    assert dict(spec["per_layer"]) == spans.per_layer_units()
    names = [m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert len(names) == len(set(names))


def test_times_are_rescaled_by_their_own_process_reference_units():
    unit = run.calibrate.UNIT_S
    slowed = {"compute_s": 4.0, "peak_rss_mb": 100.0, "ref_units": [2 * unit] * 3,
              "latencies": {f"item{i}": 0.2 for i in range(11)}}
    # a mean, not a median, of the unit times: 0.5, 0.5 and 2 units average to 1
    fast = {"compute_s": 2.0, "peak_rss_mb": 100.0, "ref_units": [0.5 * unit, 0.5 * unit, 2 * unit],
            "latencies": {f"item{i}": 0.1 for i in range(11)}}
    setups = [{"setup_s": 0.5, "ref_units": [unit, 3 * unit]}, {"setup_s": 0.25, "ref_units": [unit]},
              {"setup_s": 0.3, "ref_units": [unit]}]
    metrics, notes = run.end_to_end([slowed, fast], setups)
    assert metrics["wall_s"] == pytest.approx(2.0)
    assert metrics["item_p50_ms"] == pytest.approx(100.0)
    assert metrics["setup_s"] == pytest.approx(0.25)
    assert notes["measured_wall_s"] == pytest.approx(3.0)
