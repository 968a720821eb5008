import json
import os
import resource
import subprocess
import sys

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from ghostdim.cli import _MEMBER_CHECKS, _SUITES, main
from ghostdim.complexes import complex_to_dict, free_complex, resolution_complex
from ghostdim.dimensions import standard_battery
from ghostdim.modules import make_module
from ghostdim.rings import builtin_ring, make_ring, ring_spec_from_dict, ring_to_dict, zmod


runner = CliRunner()


def invoke(*args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def test_ring_list():
    res = invoke("ring", "list", "--output", "json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert "zmod:4" in data["builtins"]
    assert "ut2:f2" in data["builtins"]


def test_ring_describe_builtin():
    res = invoke("ring", "describe", "--ring", "ut2:f2", "--output", "json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["size"] == 8 and not data["commutative"]


def test_ring_describe_unknown_exits_2():
    res = invoke("ring", "describe", "--ring", "nope:1")
    assert res.exit_code == 2


def test_dim_wdim_json():
    res = invoke("dim", "wdim", "--ring", "zmod:4", "--bound", "6", "--output", "json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["value"] == "∞ (periodic)"


def test_dim_ghdim_text():
    res = invoke("dim", "ghdim", "--ring", "zmod:6", "--bound", "4")
    assert res.exit_code == 0
    assert "value: 0" in res.output


def test_dim_determinism():
    args = ("dim", "ghdim", "--ring", "ut2:f2", "--bound", "5", "--seed", "3", "--output", "json")
    out1 = invoke(*args).output
    out2 = invoke(*args).output
    assert out1 == out2


def test_complex_pdim_from_file(tmp_path):
    res_cx = resolution_complex(make_module(zmod(4), {"orders": [2]}), 2, name="t2")
    path = tmp_path / "c.json"
    path.write_text(json.dumps(complex_to_dict(res_cx)))
    res = invoke("complex", "pdim", "--file", str(path), "--bound", "6", "--output", "json")
    assert res.exit_code == 0
    assert json.loads(res.output)["value"] == "2"
    res = invoke("complex", "fdim", "--file", str(path), "--bound", "6", "--output", "json")
    assert res.exit_code == 0
    assert json.loads(res.output)["value"] == "2"


def test_fdim_of_an_uncertified_complex_exits_2_like_pdim(tmp_path):
    """Z/2 over zmod:4 in degree 0 is not projective, and its flat dimension
    is infinite: fdim refuses the file with one error line, as pdim does,
    and prints no value."""
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({"ring": ring_to_dict(zmod(4)), "lo": 0, "hi": 0,
                                "terms": {"0": {"orders": [2]}}}))
    for quantity in ("pdim", "fdim"):
        res = invoke("complex", quantity, "--file", str(path))
        assert res.exit_code == 2, (quantity, res.output)
        assert res.output.startswith("error: ") and res.output.count("\n") == 1


def test_verify_summary_pass():
    res = invoke("verify", "summary", "--ring", "zmod:6", "--bound", "4", "--output", "json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["result"] == "PASS"
    assert data["ghdim"] == data["wdim"] == "0"
    res = invoke("verify", "summary", "--ring", "zmod:6", "--bound", "4", "--jobs", "2")
    assert res.exit_code == 2


def test_verify_symmetry_pass():
    res = invoke("verify", "symmetry", "--ring", "ut2:f2", "--bound", "5", "--output", "json")
    assert res.exit_code == 0
    assert json.loads(res.output)["status"] == "equal"


def test_verify_flatchar_pass():
    res = invoke("verify", "flatchar", "--ring", "zmod:6", "--bound", "4", "--output", "json")
    assert res.exit_code == 0


def test_verify_determinism():
    args = ("verify", "flatchar", "--ring", "f2", "--bound", "4", "--output", "json")
    out1 = invoke(*args).output
    out2 = invoke(*args).output
    assert out1 == out2


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
RINGS = os.path.join(os.path.dirname(__file__), "rings")


def golden_commands():
    """(golden file, command args) of each line of golden/commands.txt, which
    CI runs too; its paths are relative to the repository root."""
    with open(os.path.join(GOLDEN, "commands.txt")) as fh:
        return [(line.split()[0], line.split()[1:]) for line in fh if line.strip()]


@pytest.mark.parametrize("golden, args", golden_commands())
def test_json_report_matches_golden_file(golden, args, monkeypatch):
    monkeypatch.chdir(os.path.dirname(os.path.dirname(__file__)))
    res = invoke(*args, "--output", "json")
    assert res.exit_code == 0
    with open(os.path.join(GOLDEN, golden), "rb") as fh:
        assert res.output.encode() == fh.read()


def test_verify_compact_eq_pass():
    res = invoke("verify", "compact-eq", "--ring", "f2", "--bound", "4", "--output", "json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["battery_size"] >= 25


def test_verify_rouquier_pass():
    res = invoke("verify", "rouquier", "--ring", "zmod:6", "--bound", "4", "--output", "json")
    assert res.exit_code == 0


def test_corpus_dir_resolution(tmp_path, monkeypatch):
    spec = ring_to_dict(builtin_ring("dual:f2"))
    spec["name"] = "mydual"
    (tmp_path / "mydual.json").write_text(json.dumps(spec))
    monkeypatch.setenv("GHOSTDIM_CORPUS_DIR", str(tmp_path))
    res = invoke("ring", "describe", "--ring", "mydual", "--output", "json")
    assert res.exit_code == 0
    assert json.loads(res.output)["name"] == "mydual"


def test_ring_spec_file_direct_path(tmp_path):
    spec = ring_to_dict(builtin_ring("ut2:f2"))
    spec["name"] = "tri"
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(spec))
    res = invoke("dim", "wdim", "--ring", str(path), "--bound", "4", "--output", "json")
    assert res.exit_code == 0
    assert json.loads(res.output)["value"] == "1"


def test_declared_simples_sharing_a_label_exit_2(tmp_path):
    """Three distinct simples all labelled "S" would be one battery member."""
    with open(os.path.join(RINGS, "a3rad2-f2.json")) as fh:
        spec = json.load(fh)
    for s in spec["simples"]:
        s["label"] = "S"
    path = tmp_path / "same-label.json"
    path.write_text(json.dumps(spec))
    res = invoke("dim", "ghdim", "--ring", str(path), "--bound", "2")
    assert res.exit_code == 2
    assert res.output.count("\n") == 1
    assert res.output.startswith("error: ") and "share the label 'S'" in res.output


_DUAL_SC = ring_to_dict(builtin_ring("dual:f2"))["structure_constants"]


@pytest.mark.parametrize("sc, unit", [
    ([[[1]]], [1, 0]),
    ([_DUAL_SC[0], [[0, 1], [0, "x"]]], [1, 0]),
    (_DUAL_SC, [1, "0"]),
    (_DUAL_SC, [1, 0.5]),
], ids=["sc-shape", "sc-string", "unit-string", "unit-float"])
def test_malformed_ring_file_exit_2(tmp_path, sc, unit):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "bad", "backend": "fp_algebra", "p": 2, "dim": 2,
                                "structure_constants": sc, "unit": unit}))
    res = invoke("ring", "describe", "--ring", str(path))
    assert res.exit_code == 2
    assert res.output.startswith("error: ") and res.output.count("\n") == 1


_FP2 = {"name": "b", "backend": "fp_algebra", "p": 2, "dim": 1, "structure_constants": [[[1]]], "unit": [1]}


@pytest.mark.parametrize("spec", [
    {**_FP2, "simples": 5},
    {**_FP2, "simples": [5]},
    {"name": "b", "backend": "zmod", "n": 1000, "allow_large": "false"},
    {**_FP2, "name": ["b"]},
    {**_FP2, "p": 2**61 - 1},
    {**_FP2, "p": 2**61 - 1, "allow_large": True},
    {"name": "b", "backend": "zmod", "n": 2**61 - 1, "allow_large": True},
], ids=["simples-int", "simples-of-int", "allow-large-string", "name-list", "huge-p", "huge-p-allowed",
        "huge-n-allowed"])
def test_ring_file_boundary_exits_2_fast(tmp_path, spec):
    import time

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    start = time.perf_counter()
    res = invoke("ring", "describe", "--ring", str(path))
    assert time.perf_counter() - start < 2
    assert res.exit_code == 2
    assert res.output.startswith("error: ") and res.output.count("\n") == 1


def test_replay_compact_eq(tmp_path):
    cx = resolution_complex(make_module(zmod(4), {"orders": [2]}), 2, name="t2")
    ce = {
        "kind": "compact-eq",
        "ring": ring_to_dict(zmod(4)),
        "bound": 5,
        "seed": 0,
        "complex": complex_to_dict(cx),
    }
    path = tmp_path / "ce.json"
    path.write_text(json.dumps(ce))
    res = invoke("replay", str(path), "--output", "json")
    assert res.exit_code == 0
    assert json.loads(res.output)["result"] == "PASS"


def test_modulus_past_the_exactness_bound_exits_2(tmp_path):
    m = 2**31 - 1
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "ring": {"name": "big", "backend": "zmod", "n": m, "allow_large": True},
        "lo": 0, "hi": 1, "name": "x",
        "terms": {"0": {"orders": [m] * 3}, "1": {"orders": [m] * 3}},
        "diffs": {"1": [[1, 2, 3], [4, 5, 6], [7, 8, 10]]},
    }))
    res = invoke("complex", "pdim", "--file", str(path), "--bound", "3")
    assert res.exit_code == 2
    assert res.output.count("\n") == 1
    assert "too large for exact int64 arithmetic" in res.output


def test_dim_ghdim_on_a_huge_prime_modulus_returns_quickly(tmp_path):
    import time

    path = tmp_path / "big.json"
    path.write_text(json.dumps({"name": "big", "backend": "zmod", "n": 2**31 - 1,
                                "allow_large": True}))
    start = time.perf_counter()
    res = invoke("dim", "ghdim", "--ring", str(path), "--bound", "3")
    assert time.perf_counter() - start < 20
    assert res.exit_code in (0, 2)


def test_running_out_of_memory_is_one_error_line_and_exit_2():
    """ghdim of A_4/rad^2 at bound 8 needs a 10 201 x 37 639 system (2.9 GiB);
    under a 1.5 GiB address-space cap, set on the child alone, it is refused
    with one error line and exit 2, not a traceback and exit 1 (FAIL)."""
    cap = 3 << 29

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = os.path.dirname(os.path.dirname(os.path.abspath(__import__("ghostdim").__file__)))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    res = subprocess.run([sys.executable, "-m", "ghostdim.cli", "dim", "ghdim", "--ring",
                          os.path.join(RINGS, "a4rad2-f2.json"), "--bound", "8"],
                         env=env, preexec_fn=limit, capture_output=True, text=True, timeout=300)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("error: out of memory") and res.stderr.count("\n") == 1


def _good_complex_data():
    cx = resolution_complex(make_module(zmod(4), {"orders": [2]}), 2, name="t2")
    return complex_to_dict(cx)


def _break_ring(data):
    del data["ring"]


def _break_lo(data):
    data["lo"] = "zero"


def _break_entry(data):
    data["diffs"]["1"] = [[1.5]]


def _break_text_entry(data):
    data["diffs"]["1"] = "x"


def _break_shape(data):
    data["diffs"]["1"] = [[2, 0]]


def _break_ragged(data):
    data["diffs"]["2"] = [[2], [0, 1]]


def _break_order(data):
    data["terms"]["0"] = {"orders": ["two"]}


def _break_terms(data):
    data["terms"] = [1, 2]


def _break_huge_hi(data):
    data["hi"] = 10**30


def _break_missing_term(data):
    del data["terms"]["1"]


def _break_null_term(data):
    data["terms"]["1"] = None


def _break_diff_degree(data):
    data["diffs"]["7"] = [[1]]


# Semantic malformations: well-formed JSON that is not a complex, a module
# map or a ring; validate() at the trust boundary must reject each one.
_UT3 = builtin_ring("ut3:f2")
# E_01 on the free ut3:f2-module of rank 1: it does not commute with the action.
_NOT_A_MODULE_MAP = [[int((i, j) == (0, 1)) for j in range(_UT3.rank)] for i in range(_UT3.rank)]


def _break_equivariance(data):
    data.clear()
    data.update(complex_to_dict(free_complex(_UT3, {0: 1, 1: 1}, name="r2")))
    data["diffs"]["1"] = _NOT_A_MODULE_MAP


def _break_dd(data):
    data["diffs"]["1"], data["diffs"]["2"] = [[2]], [[1]]      # over zmod:4, d1 d2 = 2


def _ring_with_a_simple_breaking_a_relation():
    ring = ring_to_dict(builtin_ring("ut2:f2"))
    ring["simples"][0]["actions"][1] = [[1]]                  # e12 e12 = 0, but 1 . 1 = 1
    return ring


@pytest.mark.parametrize("breaker", [_break_ring, _break_lo, _break_entry, _break_text_entry,
                                     _break_shape, _break_ragged, _break_order, _break_terms,
                                     _break_huge_hi, _break_missing_term, _break_null_term,
                                     _break_diff_degree, _break_equivariance, _break_dd])
def test_malformed_complex_file_exits_2_with_one_line(tmp_path, breaker):
    data = _good_complex_data()
    breaker(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    res = invoke("complex", "pdim", "--file", str(path), "--bound", "3")
    assert res.exit_code == 2
    assert res.output.startswith("error: ") and res.output.count("\n") == 1


@pytest.mark.parametrize("args", [
    ("complex", "pdim", "--file", "noise.bin"),
    ("replay", "noise.bin"),
    ("dim", "wdim", "--ring", "noise.bin"),
    ("complex", "pdim", "--file", "folder"),
    ("replay", "folder"),
], ids=["complex-bytes", "replay-bytes", "ring-bytes", "complex-dir", "replay-dir"])
def test_an_unreadable_input_file_exits_2_with_one_line(tmp_path, args):
    import random

    (tmp_path / "noise.bin").write_bytes(random.Random(0).randbytes(256))
    (tmp_path / "folder").mkdir()
    res = invoke(*(str(tmp_path / a) if a in ("noise.bin", "folder") else a for a in args))
    assert res.exit_code == 2
    assert res.output.startswith("error: ") and res.output.count("\n") == 1


def test_window_and_bound_are_checked(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_good_complex_data()))
    res = invoke("complex", "fdim", "--file", str(path), "--window", "5:1")
    assert res.exit_code == 2
    assert "LO must not exceed HI" in res.output
    # the window leaves out degrees -2 and -1 of X (x) D(X), so 2 is only a lower bound
    res = invoke("complex", "fdim", "--file", str(path), "--window", "0:5", "--output", "json")
    assert res.exit_code == 0 and json.loads(res.output)["value"] == "≥ 2"
    for cmd in (("complex", "pdim", "--file", str(path)), ("dim", "wdim", "--ring", "f2"),
                ("verify", "summary", "--ring", "f2")):
        res = runner.invoke(main, [*cmd, "--bound", "-1"])
        assert res.exit_code == 2
        assert "Invalid value for '--bound'" in res.output


def test_a_window_that_misses_degrees_gives_a_lower_bound(tmp_path):
    path = tmp_path / "res3.json"
    path.write_text(json.dumps(complex_to_dict(resolution_complex(make_module(zmod(4), {"orders": [2]}), 3))))
    values = {}
    for cmd, extra in (("fdim", ()), ("fdim", ("--window", "100:200")), ("pdim", ())):
        res = invoke("complex", cmd, "--file", str(path), "--bound", "6", *extra, "--output", "json")
        assert res.exit_code == 0
        values[(cmd, *extra)] = json.loads(res.output)["value"]
    assert values == {("fdim",): "3", ("fdim", "--window", "100:200"): "≥ 0", ("pdim",): "3"}


def test_replay_of_a_malformed_counterexample_exits_2(tmp_path):
    data = _good_complex_data()
    data["diffs"]["1"] = "x"
    ce = {"kind": "compact-eq", "ring": ring_to_dict(zmod(4)), "bound": 5, "complex": data}
    path = tmp_path / "ce.json"
    path.write_text(json.dumps(ce))
    res = invoke("replay", str(path))
    assert res.exit_code == 2 and res.output.count("\n") == 1
    ce["complex"], ce["bound"] = _good_complex_data(), "five"
    path.write_text(json.dumps(ce))
    res = invoke("replay", str(path))
    assert res.exit_code == 2 and "'bound' must be an integer" in res.output
    ce["bound"] = -3
    path.write_text(json.dumps(ce))
    res = invoke("replay", str(path))
    assert res.exit_code == 2 and "'bound' must be >= 0" in res.output
    probe_on_r = {"kind": "flatchar", "ring": ring_to_dict(_UT3), "bound": 2, "seed": 0,
                  "complex": complex_to_dict(free_complex(_UT3, {0: 1}, name="r")),
                  "map": {"0": _NOT_A_MODULE_MAP}}
    bad_simple = {**ce, "ring": _ring_with_a_simple_breaking_a_relation()}
    for data in ([1], {"counterexamples": [1]}, {"counterexamples": "ab"}, probe_on_r, bad_simple):
        path.write_text(json.dumps(data))
        res = invoke("replay", str(path))
        assert res.exit_code == 2
        assert res.output.startswith("error: ") and res.output.count("\n") == 1


def test_replay_runs_the_suites_own_member_checks():
    path = os.path.join(GOLDEN, "replay-kinds.json")
    res = invoke("replay", path, "--output", "json")
    assert res.exit_code == 0
    with open(os.path.join(GOLDEN, "replay-kinds.out.json"), "rb") as fh:
        assert res.output.encode() == fh.read()
    replayed = json.loads(res.output)["replayed"]
    with open(path) as fh:
        ces = json.load(fh)["counterexamples"]
    assert [got["kind"] for got in replayed] == ["summary", "symmetry", "compact-eq", "flatchar", "rouquier"]
    assert all(got["pass"] for got in replayed)
    assert replayed[3]["factorizations_checked"] == 1
    for ce, got in zip(ces, replayed):
        if ce["kind"] not in ("compact-eq", "rouquier"):
            continue
        ring = make_ring(ring_spec_from_dict(ce["ring"]))
        members, _ = standard_battery(ring, ce["bound"], ce["seed"], min_size=_MEMBER_CHECKS[ce["kind"]][1])
        ident = next(m.ident for m in members if complex_to_dict(m.cx) == ce["complex"])
        _, report = _SUITES[ce["kind"]](ring, ce["bound"], ce["seed"])
        row = next(row for row in report["members"] if row["member"] == ident)
        assert {"kind": ce["kind"], "pass": True, **row} == {"member": ident, **got}


# Any JSON value: null, bools, strings, floats (NaN and infinities too),
# small and huge integers, and lists and objects of these.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=6) | st.floats()
    | st.integers(-3, 12) | st.sampled_from([2**31 - 1, 2**61 - 1, 2**63, 10**30, -(10**30)]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


def _fuzz_targets():
    ring = {**ring_to_dict(builtin_ring("dual:f2")), "allow_large": False}
    replay = {"kind": "compact-eq", "ring": ring_to_dict(zmod(4)), "bound": 3, "seed": 0,
              "complex": _good_complex_data()}
    return {
        "ring": (ring, lambda path: ("ring", "describe", "--ring", path)),
        "complex": (_good_complex_data(), lambda path: ("complex", "pdim", "--file", path, "--bound", "3")),
        "replay": (replay, lambda path: ("replay", path)),
    }


_FUZZ_TARGETS = _fuzz_targets()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_FUZZ_TARGETS)), st.data(), _JSON_VALUES)
def test_one_field_replaced_by_any_json_value_exits_0_or_2(tmp_path_factory, target, data, value):
    base, command = _FUZZ_TARGETS[target]
    field = data.draw(st.sampled_from(sorted(base)), label="field")
    path = tmp_path_factory.mktemp("fuzz") / f"{target}.json"
    path.write_text(json.dumps({**base, field: value}))
    res = invoke(*command(str(path)))
    assert res.exit_code in (0, 2), res.output
    if res.exit_code == 2:
        assert res.output.startswith("error: ") and res.output.count("\n") == 1
