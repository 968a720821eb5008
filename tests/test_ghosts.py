import random

import numpy as np
import pytest

import helpers
from factorization import factor_through_pdim_n
from ghost_reference import (
    chained_composites,
    ghost_factors_through_universal,
    homology_epi,
    is_ghost,
    minimal_generators as reference_generators,
)
from ghostdim import ghosts, modules
from ghostdim.cli import verify_summary
from ghostdim.complexes import (
    ChainMap,
    Complex,
    desuspend,
    free_complex,
    identity_chain,
    module_complex,
    null_homotopy,
    resolution_complex,
    suspend,
    zero_chain,
)
from ghostdim.dimensions import standard_battery
from ghostdim.errors import NoFactorization, ValidationError
from ghostdim.ghosts import (
    Factorization,
    Tower,
    factor_through_projective,
    ghost_tower,
    pdim_complex,
    random_chain_map,
    universal_ghost,
)
from ghostdim.modules import free_module, is_free_module, make_module
from ghostdim.rings import BUILTIN_NAMES, builtin_ring, zmod

Z4 = zmod(4)
UT2 = builtin_ring("ut2:f2")
DUAL = builtin_ring("dual:f2")


def mult_complex(ring, scalar):
    r = free_module(ring, 1)
    return Complex(ring, 0, 1, {0: r, 1: r}, {1: np.array([[scalar]])}, name=f"[{scalar}]")


def test_is_ghost_basics():
    r_cx = module_complex(free_module(Z4, 1))
    assert is_ghost(ChainMap(r_cx, r_cx, {}))
    doubling = ChainMap(r_cx, r_cx, {0: np.array([[2]])})
    assert not is_ghost(doubling)


def test_universal_ghost_on_projective_is_null():
    r_cx = module_complex(free_module(UT2, 1))
    ug = universal_ghost(r_cx)
    assert homology_epi(ug.cover_map)
    assert is_ghost(ug.ghost)
    assert null_homotopy(ug.ghost) is not None


def test_universal_ghost_on_cone2_is_not_null():
    x = mult_complex(Z4, 2)
    ug = universal_ghost(x)
    # cover is R + SR with zero differential
    assert ug.cover.term(0).size == 4 and ug.cover.term(1).size == 4
    assert not ug.cover.diff(1).any()
    assert null_homotopy(ug.ghost) is None


def test_universal_ghost_on_acyclic():
    # zero homology: P = 0 and the ghost is the identity inclusion X -> cone(0 -> X)
    ring = Z4
    r = free_module(ring, 1)
    x = Complex(ring, 0, 1, {0: r, 1: r}, {1: np.array([[1]])})
    assert all(x.homology_at(k).module.is_zero for k in x.degrees())
    ug = universal_ghost(x)
    assert ug.cover.is_zero
    assert null_homotopy(ug.ghost - ChainMap(x, ug.target, ug.ghost.mats)) is not None


def test_tower_soundness():
    x = mult_complex(Z4, 2)
    tower = ghost_tower(x, 3)
    for ug in tower.ugs[:4]:
        assert is_ghost(ug.ghost)
        assert homology_epi(ug.cover_map)
    # the composite is a strict chain map into the suspended stage
    g2 = tower.composite(2)
    g2.validate()
    assert g2.tgt.term(1).orders == suspend(tower.ugs[2].target, 2).term(1).orders


# ---------------------------------------------------------------------------
# The checks inside universal_ghost against the reference checks, which form
# the homology of the cover and of the cone
# ---------------------------------------------------------------------------

def _gens(cx):
    return sum(cx.term(k).ngens for k in cx.degrees())


# Stages double in size with depth (ut3:f2's res:R/x3 has 60 generators,
# its tower stages 162, 372 and 792).  Building and checking the 27 stages
# of the ut3:f2 battery built on more than this takes over a minute, so the
# walk stops there.
STAGE_GENS_CAP = 150


@pytest.mark.parametrize("name, least", (("zmod:12", 100), ("ut3:f2", 73),
                                         ("dual:f2", 104), ("ut2:f3", 104)))
def test_every_tower_stage_passes_the_reference_checks(name, least):
    members, _ = standard_battery(helpers.named_ring(name), 4, seed=0)
    checked = 0
    for mem in members:
        tower = Tower(mem.cx)
        for i in range(4):
            built_on = tower.ugs[i - 1].nxt if i else mem.cx
            if _gens(built_on) > STAGE_GENS_CAP:
                break
            ug = tower.ug(i)
            # the ghost is built on the previous stage's nxt, the complex whose
            # homology that stage's ghost check read
            assert ug.source is built_on
            assert homology_epi(ug.cover_map)
            assert is_ghost(ug.ghost)
            checked += 1
    assert checked >= least


@pytest.mark.parametrize("name", ("zmod:12", "ut2:f3", "dual:f2"))
def test_the_prefix_composite_is_the_chained_product(name):
    """g_s for s <= 3 over the bound-4 battery: the prefix inclusion that the
    tower builds is the product of the step maps, dtype and values."""
    members, _ = standard_battery(helpers.named_ring(name), 4, seed=0)
    checked = 0
    for mem in members:
        tower = Tower(mem.cx)
        for s, want in enumerate(chained_composites(tower, 3)):
            got = tower.composite(s)
            assert got.src is mem.cx and got.mats.keys() == want.mats.keys()
            for k in got.tgt.degrees():
                assert got.tgt.term(k).orders == want.tgt.term(k).orders
            for k, mat in want.mats.items():
                assert got.mats[k].dtype == mat.dtype and np.array_equal(got.mats[k], mat), (s, k)
            checked += 1
    assert checked == 4 * len(members)


def test_a_cover_missing_a_generator_fails_the_surjectivity_check(monkeypatch):
    full = ghosts.minimal_generators
    monkeypatch.setattr(ghosts, "minimal_generators", lambda mod: full(mod)[:, 1:])
    two_gens = free_complex(UT2, {0: 2})
    assert full(two_gens.homology_at(0).module).shape[1] == 2
    for x in (mult_complex(Z4, 2), resolution_complex(UT2.simples[0], 2), two_gens):
        with pytest.raises(ValidationError, match="homology cover failed to be surjective"):
            universal_ghost(x)


def test_a_non_ghost_fails_the_ghost_check(monkeypatch):
    # the identity of a complex with homology, against its own desuspension
    x = mult_complex(Z4, 2)
    with pytest.raises(ValidationError, match="failed the ghost check"):
        ghosts._check_ghost(identity_chain(x), desuspend(x))
    # inside universal_ghost: the cone of the zero map keeps H(X) as a summand
    real = ghosts.cone
    monkeypatch.setattr(ghosts, "cone", lambda f, name="": real(zero_chain(f.src, f.tgt), name=name))
    with pytest.raises(ValidationError, match="failed the ghost check"):
        universal_ghost(x)


RANK_ABOVE_ONE = tuple(n for n in BUILTIN_NAMES if builtin_ring(n).rank > 1) + ("ut2:f3",)


@pytest.mark.parametrize("name", RANK_ABOVE_ONE)
def test_minimal_generators_match_the_two_elimination_greedy(name, monkeypatch):
    greedy = []

    def checked(mod, fn=modules.minimal_generators):
        got = fn(mod)
        want = reference_generators(mod)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        greedy.append(not is_free_module(mod))
        return got
    monkeypatch.setattr(modules, "minimal_generators", checked)
    monkeypatch.setattr(ghosts, "minimal_generators", checked)
    ok, _ = verify_summary(helpers.named_ring(name), 4, 0)
    assert ok and sum(greedy) >= 50


def test_pdim_free_complex_is_zero():
    p = free_complex(Z4, {0: 1, 2: 2})
    assert pdim_complex(p, 4).n == 0


def test_pdim_resolution_of_ut2_simple_is_one():
    res = resolution_complex(UT2.simples[0], 4)
    v = pdim_complex(res, 4)
    assert v.is_finite and v.n == 1
    # lower witness: g_0 is not null
    tower = ghost_tower(res, 1)
    assert tower.nullity(0) is None
    assert tower.nullity(1) is not None


def test_pdim_cone2_is_one():
    # cone(2) over Z/4 is built from two frees in one step, so pdim = 1
    # even though H* has infinite projective dimension as a module.
    x = mult_complex(Z4, 2)
    v = pdim_complex(x, 6)
    assert v.is_finite and v.n == 1


def test_pdim_truncated_resolutions_grow():
    m = make_module(Z4, {"orders": [2]})
    values = []
    for length in (1, 2, 3):
        res = resolution_complex(m, length)
        v = pdim_complex(res, 8)
        assert v.is_finite
        values.append(v.n)
    # strictly increasing with the truncation length, and at least length - 1
    assert values == sorted(values)
    for length, got in zip((1, 2, 3), values):
        assert got >= length - 1
    assert values[-1] >= 2


def test_pdim_bound_exhaustion_reports_at_least():
    m = make_module(Z4, {"orders": [2]})
    res = resolution_complex(m, 4)
    v = pdim_complex(res, 1)
    assert v.kind == "at_least" and v.n == 2


def test_pdim_suspension_invariant():
    res = resolution_complex(UT2.simples[0], 3)
    assert pdim_complex(suspend(res, 2), 4).n == pdim_complex(res, 4).n


def test_ghost_universality_random_search():
    rng = random.Random(7)
    sources = [
        mult_complex(Z4, 2),
        resolution_complex(UT2.simples[0], 2),
        module_complex(free_module(DUAL, 1)),
    ]
    dual_r = free_module(DUAL, 1)
    dual_x_complex = Complex(DUAL, 0, 1, {0: dual_r, 1: dual_r}, {1: DUAL.left_mult(1)})
    targets_by_ring = {
        id(Z4): [mult_complex(Z4, 2), suspend(mult_complex(Z4, 2)), module_complex(free_module(Z4, 1))],
        id(UT2): [resolution_complex(UT2.simples[0], 2), module_complex(UT2.simples[1])],
        id(DUAL): [module_complex(dual_r), dual_x_complex],
    }
    found = 0
    for x in sources:
        ug = universal_ghost(x)
        for w in targets_by_ring[id(x.ring)]:
            for _ in range(40):
                h = random_chain_map(x, w, rng)
                if h.is_zero or not is_ghost(h):
                    continue
                found += 1
                assert ghost_factors_through_universal(h, ug)
    assert found >= 50


def test_factor_through_projective_flat_target():
    # X projective (free in two degrees), any map from a compact factors
    ring = UT2
    x = free_complex(ring, {0: 1, 1: 1})
    a = resolution_complex(ring.simples[0], 2)
    rng = random.Random(3)
    done = 0
    for _ in range(10):
        f = random_chain_map(a, x, rng)
        fact = factor_through_projective(f, universal_ghost(f.tgt))
        fact.validate(f)
        assert not fact.through.diff(1).any() if fact.through.hi >= 1 else True
        done += 1
    assert done == 10


def test_factor_through_projective_zero_map():
    x = free_complex(Z4, {0: 1})
    a = mult_complex(Z4, 2)
    fact = factor_through_pdim_n(ChainMap(a, x, {}), 0)
    assert fact.through.is_zero


def test_factor_through_projective_fails_on_nonflat():
    # a compact with non-projective homology is not a retract of its cover:
    # the identity map cannot factor through a projective
    x = mult_complex(Z4, 2)
    with pytest.raises(NoFactorization):
        factor_through_projective(identity_chain(x), universal_ghost(x))


def test_factor_through_pdim_one_ut2():
    # X = resolution of the non-projective simple, pdim 1; factor maps from R
    ring = UT2
    x = resolution_complex(ring.simples[0], 3)
    assert pdim_complex(x, 3).n == 1
    a = module_complex(free_module(ring, 1))
    rng = random.Random(9)
    checked = 0
    for _ in range(6):
        f = random_chain_map(a, x, rng)
        fact = factor_through_pdim_n(f, 1)
        fact.validate(f)
        assert pdim_complex(fact.through, 1).n <= 1
        checked += 1
    assert checked == 6


def test_factor_through_pdim_one_cone2():
    x = mult_complex(Z4, 2)
    a = module_complex(free_module(Z4, 1))
    f = ChainMap(a, x, {0: np.array([[1]])})
    fact = factor_through_pdim_n(f, 1)
    fact.validate(f)
    assert pdim_complex(fact.through, 2).n <= 1

