import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import helpers
import rouquier_reference
from ghostdim.cli import main
from ghostdim.complexes import free_complex, resolution_complex
from ghostdim.dimensions import (
    DimReport,
    ghdim_ring,
    module_fdim_tor,
    module_pdim,
    rouquier_build,
    standard_battery,
    symmetry_report,
    wdim_ring,
)
from ghostdim.errors import PdimTooLarge, ValidationError
from ghostdim.ghosts import pdim_complex
from ghostdim.modules import free_module, make_module
from ghostdim.rings import builtin_ring, zmod
from ghostdim.verdicts import verdict_max

Z4 = zmod(4)
UT2 = builtin_ring("ut2:f2")
GOLDEN = Path(__file__).parent / "golden"


def test_module_pdim_projective_is_zero():
    assert module_pdim(free_module(UT2, 1), 5)[0].n == 0
    assert module_pdim(UT2.simples[1], 5)[0].n == 0


def test_module_pdim_ut2_nonprojective_simple():
    v, _ = module_pdim(UT2.simples[0], 5)
    assert v.is_finite and v.n == 1


def test_module_pdim_periodic_z2_over_z4():
    v, _ = module_pdim(make_module(Z4, {"orders": [2]}), 6)
    assert v.is_infinite and v.period == 1


def test_module_pdim_period_two_over_z8():
    z8 = zmod(8)
    v, _ = module_pdim(make_module(z8, {"orders": [2]}), 6)
    assert v.is_infinite and v.period == 2


def test_module_fdim_tor_matches_pdim_when_finite():
    for mod in (UT2.simples[0], UT2.simples[1], free_module(UT2, 1)):
        v1, _ = module_pdim(mod, 6)
        v2 = module_fdim_tor(mod, 6)
        assert v1.is_finite and v2.is_finite and v1.n == v2.n


def test_wdim_values():
    expectations = {
        "zmod:6": ("finite", 0),
        "f2": ("finite", 0),
        "ut2:f2": ("finite", 1),
        "ut3:f2": ("finite", 1),
        "a2:f2": ("finite", 1),
        "zmod:4": ("infinite", None),
        "zmod:9": ("infinite", None),
        "dual:f2": ("infinite", None),
    }
    for name, (kind, n) in expectations.items():
        v, _ = wdim_ring(builtin_ring(name), 8)
        assert v.kind == kind, name
        if n is not None:
            assert v.n == n, name


def test_gldim_equals_wdim():
    for name in ("zmod:6", "ut2:f2", "zmod:4"):
        reports = {}
        for quantity in ("wdim", "gldim"):
            res = CliRunner().invoke(main, ["dim", quantity, "--ring", name, "--bound", "6",
                                            "--output", "json"], catch_exceptions=False)
            assert res.exit_code == 0
            reports[quantity] = json.loads(res.output)
            assert reports[quantity].pop("quantity") == quantity
        assert reports["gldim"] == reports["wdim"]
        v, _ = wdim_ring(builtin_ring(name), 6)
        assert reports["gldim"]["verdict"] == v.to_json()


def test_ghdim_values_and_certificates():
    v, rep = ghdim_ring(zmod(6), 4, seed=0)
    assert v.is_finite and v.n == 0
    v, rep = ghdim_ring(UT2, 6, seed=0)
    assert v.is_finite and v.n == 1
    v, rep = ghdim_ring(Z4, 6, seed=0)
    assert v.is_infinite
    cert = rep["infinite_certificate"][0]
    assert cert["syzygy_period"] == 1
    assert cert["pdim_growth_verified"]
    assert cert["minimal_mod_simples"]


def test_battery_monotone_and_bounded_by_wdim():
    ring = UT2
    small, _ = standard_battery(ring, 6, seed=0, min_size=10)
    big, _ = standard_battery(ring, 6, seed=0, min_size=20)
    v_small = verdict_max([pdim_complex(m.cx, 6) for m in small])
    v_big = verdict_max([pdim_complex(m.cx, 6) for m in big])
    assert v_big.sort_key() >= v_small.sort_key()
    wd, _ = wdim_ring(ring, 6)
    assert v_big.sort_key() <= wd.sort_key()


def test_battery_deterministic():
    a, _ = standard_battery(Z4, 4, seed=3, min_size=12)
    b, _ = standard_battery(Z4, 4, seed=3, min_size=12)
    assert [m.ident for m in a] == [m.ident for m in b]
    for x, y in zip(a, b):
        for k in x.cx.degrees():
            assert np.array_equal(x.cx.diff(k), y.cx.diff(k))


def test_rouquier_free_case():
    x = free_complex(UT2, {0: 1, 2: 1})
    cert = rouquier_build(x, 0)
    assert cert.steps == []
    assert cert.retract_homotopy.mats == {}
    cert.validate()


def test_rouquier_ut2_simple_resolution():
    x = resolution_complex(UT2.simples[0], 2, name="resS1")
    assert pdim_complex(x, 2).n == 1
    cert = rouquier_build(x, 1)
    assert len(cert.steps) == 1
    # finite free ranks at every stage
    base_total = sum(cert.base_model.tgt.term(k).ngens for k in cert.base_model.tgt.degrees())
    assert 0 < base_total < 100
    for st in cert.steps:
        assert 0 < st.free_rank_total < 200
    cert.validate()


def test_rouquier_cone2_over_z4():
    from ghostdim.complexes import Complex

    r = free_module(Z4, 1)
    x = Complex(Z4, 0, 1, {0: r, 1: r}, {1: np.array([[2]])}, name="cone2")
    cert = rouquier_build(x, 1)
    assert len(cert.steps) == 1
    cert.validate()


def test_a_rouquier_certificate_must_be_one_chain_of_triangles():
    """Every piece validates on its own, so only the links between them show
    that a step is out of place or missing."""
    x = resolution_complex(make_module(zmod(12), {"orders": [2]}, label="Z/2"), 3,
                           name="trunc:Z/2:3")
    n = pdim_complex(x, 4).n
    cert = rouquier_build(x, n)
    assert len(cert.steps) == 3
    for steps in (cert.steps[::-1], cert.steps[:-1]):
        with pytest.raises(ValidationError, match="chain"):
            dataclasses.replace(cert, steps=steps).validate()
    cert.validate()


@pytest.mark.parametrize("name, bound", [("ut2:f2", 3), ("zmod:12", 4)])
def test_rouquier_certificate_is_the_fiber_construction_suspended_once(name, bound):
    """Over the `verify rouquier` battery, include, retract and every step
    map equal the fiber construction's components one degree lower, and
    each model is its tower cover suspended once.  The members built are
    those of the suite's golden report that build a certificate."""
    members, _ = standard_battery(helpers.named_ring(name), bound, 0, min_size=15)
    built = []
    for mem in members:
        v = pdim_complex(mem.cx, bound)
        if not v.is_finite or v.n > min(4, bound):
            continue
        cert = rouquier_build(mem.cx, v.n)
        ref = rouquier_reference.on_fibers(mem.cx, v.n)
        pairs = [(cert.include, ref.include), (cert.retract, ref.retract),
                 *zip([st.step_map for st in cert.steps], ref.steps, strict=True)]
        for got, want in pairs:
            lo = min(want.src.lo, want.tgt.lo) - 1
            hi = max(want.src.hi, want.tgt.hi) + 1
            assert all(np.array_equal(got.component(k + 1), want.component(k)) for k in range(lo, hi + 1))
        models = [cert.base_model.tgt, *(st.model.tgt for st in cert.steps)]
        for model, cover in zip(models, ref.covers, strict=True):
            assert [model.term(k + 1).ngens for k in cover.degrees()] == \
                   [cover.term(k).ngens for k in cover.degrees()]
            assert model.lo == cover.lo + 1 and model.hi == cover.hi + 1
        built.append(mem.ident)
    golden = GOLDEN / f"verify-rouquier-{name.replace(':', '-')}-b{bound}.json"
    assert built == [row["member"] for row in json.loads(golden.read_text())["members"] if "triangles" in row]


def test_every_opposite_simple_is_resolved():
    """Unlabelled simples stay apart over the opposite ring, so its battery
    resolves each of them, not only the first."""
    op = helpers.named_ring("a3rad2:f2").opposite()
    idents = {m.ident for m in standard_battery(op, 4, seed=0)[0]}
    assert len({s.label for s in op.simples}) == len(op.simples) == 3
    assert all(f"res:{s.label}" in idents for s in op.simples)


def test_rouquier_rejects_too_small_n():
    x = resolution_complex(UT2.simples[0], 2)
    with pytest.raises(PdimTooLarge):
        rouquier_build(x, 0)


def test_symmetry_reports():
    rep = symmetry_report(zmod(6), 4, seed=0)
    assert rep["status"] == "equal"
    assert rep["ghdim"].n == 0
    rep = symmetry_report(UT2, 6, seed=0)
    assert rep["status"] == "equal"
    assert rep["ghdim"].n == 1 and rep["ghdim_op"].n == 1
    rep = symmetry_report(Z4, 6, seed=0)
    assert rep["status"] == "equal"
    assert rep["ghdim"].is_infinite and rep["ghdim_op"].is_infinite


def test_dim_report_json_roundtrip_and_determinism():
    v, w = wdim_ring(Z4, 5)
    rep = DimReport(ring="zmod:4", quantity="wdim", verdict=v, bound=5, witnesses=w)
    blob1 = json.dumps(rep.to_json(), sort_keys=True)
    v2, w2 = wdim_ring(Z4, 5)
    rep2 = DimReport(ring="zmod:4", quantity="wdim", verdict=v2, bound=5, witnesses=w2)
    blob2 = json.dumps(rep2.to_json(), sort_keys=True)
    assert blob1 == blob2
    assert json.loads(blob1)["value"] == "∞ (periodic)"
