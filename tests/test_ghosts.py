import random

import numpy as np
import pytest

import cone_reference
import helpers
from factorization import factor_through_pdim_n
from ghost_reference import (
    chained_composites,
    desuspended_composites,
    ghost,
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
    Tower,
    factor_through_projective,
    ghost_tower,
    pdim_complex,
    random_chain_map,
    universal_ghost,
)
from ghostdim.modules import free_module, is_free_module, make_module
from ghostdim.rings import BUILTIN_NAMES, builtin_ring, make_ring, ring_spec_from_dict, ring_to_dict, zmod

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
    assert homology_epi(ug.f)
    assert is_ghost(ghost(ug))
    assert null_homotopy(ghost(ug)) is not None


def test_universal_ghost_on_cone2_is_not_null():
    x = mult_complex(Z4, 2)
    ug = universal_ghost(x)
    # cover is R + SR with zero differential
    p = ug.f.src
    assert p.term(0).size == 4 and p.term(1).size == 4
    assert not p.diff(1).any()
    assert null_homotopy(ghost(ug)) is None


def test_universal_ghost_on_acyclic():
    # zero homology: P = 0 and the ghost is the identity inclusion X -> cone(0 -> X)
    ring = Z4
    r = free_module(ring, 1)
    x = Complex(ring, 0, 1, {0: r, 1: r}, {1: np.array([[1]])})
    assert all(x.homology_at(k).module.is_zero for k in x.degrees())
    ug = universal_ghost(x)
    assert ug.f.src.is_zero
    assert null_homotopy(ghost(ug) - ChainMap(x, ug.cone, ghost(ug).mats)) is not None


def test_tower_soundness():
    x = mult_complex(Z4, 2)
    tower = ghost_tower(x)
    for ug in map(tower.ug, range(4)):
        assert is_ghost(ghost(ug))
        assert homology_epi(ug.f)
    # the composite is a strict chain map into the stage, the cone over the
    # stage before it
    g2 = tower.composite(2)
    g2.validate()
    want = cone_reference.cone(tower.ugs[2].f).cone
    assert g2.tgt is tower.ugs[2].cone and (g2.tgt.lo, g2.tgt.hi) == (want.lo, want.hi)
    for k in range(want.lo - 1, want.hi + 2):
        assert g2.tgt.term(k).orders == want.term(k).orders
        assert np.array_equal(g2.tgt.diff(k), want.diff(k))


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
            built_on = tower.ugs[i - 1].cone if i else mem.cx
            if _gens(built_on) > STAGE_GENS_CAP:
                break
            ug = tower.ug(i)
            # the ghost is built on the previous stage's cone, the very
            # complex that stage's ghost check solved on
            assert ug.f.tgt is built_on
            assert homology_epi(ug.f)
            assert is_ghost(ghost(ug))
            checked += 1
    assert checked >= least


@pytest.mark.parametrize("name", ("zmod:12", "ut3:f2", "dual:f2", "ut2:f3"))
def test_pdim_forms_no_homology_of_the_last_stage(name):
    """The ghost check solves on the built stage, so after pdim_complex the
    last stage's cone keeps no homology, and every stage the tower went on
    from keeps its own (universal_ghost formed it for the cover)."""
    members, _ = standard_battery(helpers.named_ring(name), 4, seed=0)
    deeper = 0
    for mem in members:
        pdim_complex(mem.cx, 4)
        ugs = ghost_tower(mem.cx).ugs
        assert ugs[-1].cone._homology is None
        assert all(ug.cone._homology is not None for ug in ugs[:-1])
        deeper += len(ugs) > 1
    assert deeper


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


@pytest.mark.parametrize("name", ("zmod:12", "ut3:f2"))
def test_the_composite_target_is_the_cone_over_the_previous_stage(name):
    """W_s, the kept stage, is cone(p_s: P_s -> W_(s-1)) as the reference
    cone builds it: its terms, and its differentials in dtype and values
    (s <= 2, bound-4 battery)."""
    members, _ = standard_battery(helpers.named_ring(name), 4, seed=0)
    for mem in members:
        tower = Tower(mem.cx)
        for s in range(3):
            got = tower.composite(s).tgt
            want = cone_reference.cone(tower.ug(s).f).cone
            assert (got.lo, got.hi) == (want.lo, want.hi)
            for k in range(want.lo - 1, want.hi + 2):
                assert got.term(k).orders == want.term(k).orders
                assert got.diff(k).dtype == want.diff(k).dtype
                assert np.array_equal(got.diff(k), want.diff(k))


def _piece_columns(tower, n, k):
    """Column ranges of d_(W_n),k: X's, then one per summand S P_i, i <= n."""
    cuts = [0, tower.base.term(k).ngens]
    for i in range(n + 1):
        cuts.append(cuts[-1] + tower.ug(i).f.src.term(k - 1).ngens)
    return list(zip(cuts, cuts[1:]))


@pytest.mark.parametrize("name", ("ut3:f2", "a3:f2", "dual:f2", "zmod:12", "ut2:f3"))
def test_the_tower_matches_the_desuspended_stage_layout(name):
    """The stages as cones against the stages X_(i+1) = S^-1 cone(p_i) of
    the earlier layout, with W_n = S^(n+1) X_(n+1), over the bound-4
    battery and every n that pdim_complex reads.  Over F_2 every W_n
    differential and every null-homotopy is bit-identical.  Where -1 != 1
    the term orders are equal, each summand block of a differential agrees
    mod m up to its sign, and g_n is null on both sides or on neither."""
    members, _ = standard_battery(helpers.named_ring(name), 4, seed=0)
    exact = name.endswith(":f2")
    checked = 0
    for mem in members:
        x, m = mem.cx, mem.cx.ring.modulus
        depth = pdim_complex(x, 4).n
        tower = ghost_tower(x)
        for n, want in enumerate(desuspended_composites(x, min(depth, 4))):
            got = tower.composite(n)
            assert (got.tgt.lo, got.tgt.hi) == (want.tgt.lo, want.tgt.hi)
            for k in range(want.tgt.lo - 1, want.tgt.hi + 2):
                assert got.tgt.term(k).orders == want.tgt.term(k).orders, (n, k)
                a, b = got.tgt.diff(k), want.tgt.diff(k)
                if exact:
                    assert a.dtype == b.dtype and np.array_equal(a, b), (n, k)
                    continue
                for lo, hi in _piece_columns(tower, n, k):
                    block, ref = a[:, lo:hi] % m, b[:, lo:hi] % m
                    assert np.array_equal(block, ref) or np.array_equal(block, -ref % m), (n, k)
            h, ref_h = tower.nullity(n), null_homotopy(want)
            assert (h is None) == (ref_h is None), n
            if exact and h is not None:
                assert h.mats.keys() == ref_h.mats.keys()
                assert all(h.mats[k].dtype == ref_h.mats[k].dtype
                           and np.array_equal(h.mats[k], ref_h.mats[k]) for k in h.mats), n
            checked += 1
    assert checked >= len(members)


def test_a_cover_missing_a_generator_fails_the_surjectivity_check(monkeypatch):
    full = ghosts.minimal_generators
    monkeypatch.setattr(ghosts, "minimal_generators", lambda mod: full(mod)[:, 1:])
    two_gens = free_complex(UT2, {0: 2})
    assert full(two_gens.homology_at(0).module).shape[1] == 2
    for x in (mult_complex(Z4, 2), resolution_complex(UT2.simples[0], 2), two_gens):
        with pytest.raises(ValidationError, match="homology cover failed to be surjective"):
            universal_ghost(x)


def test_a_non_ghost_fails_the_ghost_check(monkeypatch):
    # the identity of a complex with homology, the prefix inclusion of x into x
    x = mult_complex(Z4, 2)
    with pytest.raises(ValidationError, match="failed the ghost check"):
        ghosts._check_ghost(x, x)
    # inside universal_ghost: the cone of the zero map keeps H(X) as a summand
    real = ghosts.cone
    monkeypatch.setattr(ghosts, "cone", lambda f, name="": real(zero_chain(f.src, f.tgt), name=name))
    with pytest.raises(ValidationError, match="failed the ghost check"):
        universal_ghost(x)


RANK_ABOVE_ONE = tuple(n for n in BUILTIN_NAMES if builtin_ring(n).rank > 1) + ("ut2:f3",)


@pytest.mark.parametrize("name", RANK_ABOVE_ONE)
def test_minimal_generators_match_the_two_elimination_greedy(name, monkeypatch):
    """On at least 50 distinct non-free modules.  Covers are kept on each
    module, so the summary suite runs on a new copy of the ring, whose
    simples nothing has covered yet, at two seeds."""
    greedy = []

    def checked(mod, fn=modules.minimal_generators):
        got = fn(mod)
        want = reference_generators(mod)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        if not is_free_module(mod):
            greedy.append(mod)          # held, so that no two modules share an id
        return got
    monkeypatch.setattr(modules, "minimal_generators", checked)
    monkeypatch.setattr(ghosts, "minimal_generators", checked)
    ring = make_ring(ring_spec_from_dict(ring_to_dict(helpers.named_ring(name))))
    for seed in (0, 1):
        ok, _ = verify_summary(ring, 4, seed)
        assert ok
    assert len({id(mod) for mod in greedy}) >= 50


def test_pdim_free_complex_is_zero():
    p = free_complex(Z4, {0: 1, 2: 2})
    assert pdim_complex(p, 4).n == 0


def test_pdim_resolution_of_ut2_simple_is_one():
    res = resolution_complex(UT2.simples[0], 4)
    v = pdim_complex(res, 4)
    assert v.is_finite and v.n == 1
    # lower witness: g_0 is not null
    tower = ghost_tower(res)
    assert tower.nullity(0) is None
    assert tower.nullity(1) is not None


def test_a_cached_nullity_keeps_no_composite_target(monkeypatch):
    """The composite's target is the kept stage W_n itself, so on a built
    tower neither composite nor nullity constructs a complex, and the cached
    null-homotopy holds no target of its own."""
    tower = Tower(resolution_complex(UT2.simples[0], 4))
    tower.ug(1)
    built = []
    init = Complex.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(Complex, "__init__", counted)
    for n in (0, 1):
        assert tower.composite(n).tgt is tower.ug(n).cone
    assert tower.nullity(0) is None
    h = tower.nullity(1)
    assert h is not None and h.src is tower.base and h.tgt is tower.ug(1).cone
    assert tower.nullity(1) is h                                  # cached
    assert built == []


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
    dual_x_complex = Complex(DUAL, 0, 1, {0: dual_r, 1: dual_r}, {1: helpers.left_mult(DUAL, 1)})
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
        through = fact.out_of.src
        assert not through.diff(1).any() if through.hi >= 1 else True
        done += 1
    assert done == 10


def test_factor_through_projective_zero_map():
    x = free_complex(Z4, {0: 1})
    a = mult_complex(Z4, 2)
    fact = factor_through_pdim_n(ChainMap(a, x, {}), 0)
    assert fact.out_of.src.is_zero


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
        assert pdim_complex(fact.out_of.src, 1).n <= 1
        checked += 1
    assert checked == 6


def test_factor_through_pdim_one_cone2():
    x = mult_complex(Z4, 2)
    a = module_complex(free_module(Z4, 1))
    f = ChainMap(a, x, {0: np.array([[1]])})
    fact = factor_through_pdim_n(f, 1)
    fact.validate(f)
    assert pdim_complex(fact.out_of.src, 2).n <= 1

