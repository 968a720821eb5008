import gc
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cone_reference
import helpers
import smith_reference
from factorization import direct_sum_complexes
from ghostdim.complexes import (
    ChainMap,
    Complex,
    chain_map_from_dict,
    chain_map_to_dict,
    complex_from_dict,
    complex_to_dict,
    cone,
    chain_map_generators,
    direct_sum_modules,
    dual_complex,
    free_complex,
    homology_order,
    identity_chain,
    module_complex,
    null_homotopy,
    resolution_complex,
    split_inclusion_model,
    suspend,
    zero_chain,
)
from ghostdim.errors import ModulusTooLarge, ParseError, ValidationError
from ghostdim import complexes, ghosts, linalg, modules
from ghostdim.dimensions import module_pdim, rouquier_build, standard_battery
from ghostdim.ghosts import _solve_squares, ghost_tower, pdim_complex, universal_ghost
from ghostdim.modules import (
    FgModule,
    ModuleMap,
    ProjectivityCertificate,
    free_module,
    is_free_module,
    is_projective,
    make_module,
    module_to_descriptor,
)
from ghostdim.rings import BUILTIN_NAMES, builtin_ring, make_ring, ring_spec_from_dict, ring_to_dict, zmod

Z4 = zmod(4)
UT2 = builtin_ring("ut2:f2")
DUAL = builtin_ring("dual:f2")


def homotopic(f, g):
    return null_homotopy(f - g) is not None


def mult_complex(ring, scalar):
    """[R --scalar--> R] in degrees 1, 0."""
    r = free_module(ring, 1)
    return Complex(ring, 0, 1, {0: r, 1: r}, {1: np.array([[scalar]])}, name=f"mult{scalar}")


CONE2 = mult_complex(Z4, 2)


def test_homology_of_multiplication_by_two():
    h = CONE2.homology()
    assert h[0].module.orders == (2,)
    assert h[1].module.orders == (2,)
    # independent oracle: exhaustive cycle/boundary count
    assert helpers.brute_homology_orders(CONE2, 0) == 2
    assert helpers.brute_homology_orders(CONE2, 1) == 2


def test_homology_free_in_degree_zero():
    r = free_module(Z4, 1)
    cx = module_complex(r)
    assert cx.homology_at(0).module.size == 4
    assert cx.homology_at(1).module.is_zero


def test_homology_matches_brute_on_random_zmod_complexes():
    import random

    rng = random.Random(11)
    for n in (4, 6, 8):
        ring = zmod(n)
        r = free_module(ring, 1)
        for _ in range(10):
            lo = 0
            terms = {0: r, 1: r, 2: r}
            # need d.d = 0: pick d1 then d2 with d1 d2 = 0 by brute-force choice
            while True:
                d1 = np.array([[rng.randrange(n)]])
                d2 = np.array([[rng.randrange(n)]])
                if (d1 @ d2) % n == 0:
                    break
            cx = Complex(ring, 0, 2, terms, {1: d1, 2: d2})
            for k in (0, 1, 2):
                assert cx.homology_at(k).module.size == helpers.brute_homology_orders(cx, k)


def test_cone_of_identity_is_contractible():
    c = cone(identity_chain(CONE2)).cone
    h = null_homotopy(identity_chain(c))
    assert h is not None


def test_cone_of_zero_splits():
    x = mult_complex(Z4, 0)
    y = module_complex(free_module(Z4, 1))
    c = cone(zero_chain(x, y)).cone
    # homology splits: H(cone) = H(y) + H(SX)
    sx = suspend(x)
    for k in range(-1, 4):
        assert c.homology_at(k).module.size == y.homology_at(k).module.size * sx.homology_at(k).module.size


def test_cone_triangle_validates_and_les_holds():
    f = ChainMap(CONE2, CONE2, {0: np.array([[2]]), 1: np.array([[2]])})
    tri = helpers.cone_triangle(f)
    tri.validate()
    assert helpers.homology_les_exact(tri)


def test_cone_multiplication_homology():
    # cone(2: R -> R) in degree 0 has H0 = H1 = Z/2
    r = module_complex(free_module(Z4, 1))
    f = ChainMap(r, r, {0: np.array([[2]])})
    c = cone(f).cone
    assert c.homology_at(0).module.orders == (2,)
    assert c.homology_at(1).module.orders == (2,)


def test_null_homotopy_zero_map():
    h = null_homotopy(zero_chain(CONE2, CONE2))
    assert h is not None and not h.mats


def test_null_homotopy_decision_vs_brute():
    import random

    rng = random.Random(5)
    ring = Z4
    r = free_module(ring, 1)
    checked_found = checked_missing = 0
    for _ in range(40):
        d1 = np.array([[rng.choice([0, 2])]])
        x = Complex(ring, 0, 1, {0: r, 1: r}, {1: d1})
        d2 = np.array([[rng.choice([0, 2])]])
        y = Complex(ring, 0, 1, {0: r, 1: r}, {1: d2})
        gens = chain_map_generators(x, y)
        if not gens:
            continue
        f = zero_chain(x, y)
        for g in gens:
            c = rng.randrange(4)
            f = f + ChainMap(x, y, {k: c * mat for k, mat in g.mats.items()})
        got = null_homotopy(f)
        brute = helpers.brute_null_homotopy_exists(f)
        assert (got is not None) == brute
        if got is not None:
            checked_found += 1
        else:
            checked_missing += 1
    assert checked_found and checked_missing


def test_suspension_squares_to_shift():
    s2 = suspend(CONE2, 2)
    assert s2.lo == 2 and s2.hi == 3
    assert np.array_equal(s2.diff(3), CONE2.diff(1))
    s1 = suspend(CONE2, 1)
    assert np.array_equal(s1.diff(2), (-CONE2.diff(1)) % 4)
    down = suspend(s1, -1)
    assert np.array_equal(down.diff(1), CONE2.diff(1))


def test_resolution_of_z2_over_z4():
    m = make_module(Z4, {"orders": [2]})
    res = resolution_complex(m, 3)
    assert res.lo == 0 and res.hi == 3
    for k in range(4):
        assert res.term(k).size == 4
        if k:
            assert np.array_equal(res.diff(k) % 4, np.array([[2]]))
    h = res.homology()
    assert h[0].module.orders == (2,)
    assert h[1].module.is_zero and h[2].module.is_zero
    assert h[3].module.orders == (2,)


def test_resolution_of_projective_is_degree_zero():
    r = free_module(UT2, 1)
    res = resolution_complex(r, 5)
    assert res.lo == res.hi == 0


def test_resolution_of_ut2_simple_stops_at_one():
    s1 = UT2.simples[0]
    res = resolution_complex(s1, 4)
    assert res.hi == 1
    assert res.homology_at(0).module.size == s1.size
    assert res.homology_at(1).module.is_zero
    assert res.certified


def test_connecting_map_and_section():
    """The Rouquier retract is the connecting map cone(g_n) -> S X, and the
    include sends x to (-h x, x), h the tower's null-homotopy of g_n: an
    exact section, retract . include = id on S X."""
    n = pdim_complex(CONE2, 2).n
    cert = rouquier_build(CONE2, n)
    h = ghost_tower(CONE2, n).nullity(n)
    sx = cert.retract.tgt
    assert all(sx.term(k + 1) is CONE2.term(k) for k in CONE2.degrees())
    for k in sx.degrees():
        want = np.vstack([-h.component(k - 1) % 4, np.eye(sx.term(k).ngens, dtype=np.int64)])
        assert np.array_equal(cert.include.component(k), want)
    comp = cert.retract @ cert.include
    ident = identity_chain(sx)
    assert all(np.array_equal(comp.component(k), ident.component(k)) for k in sx.degrees())


def test_split_inclusion_model_puts_the_sign_z4_sees():
    """cone(i) ~ q for R in degree 0 included into R --1--> R: q is R in
    degree 1, tau = [1], and bwd c = (c, -c); (c, c) is no chain map mod 4."""
    r = free_module(Z4, 1)
    b = Complex(Z4, 0, 1, {0: r, 1: r}, {1: np.array([[1]])})
    i = ChainMap(free_complex(Z4, {0: 1}), b, {0: np.array([[1]])})
    model = split_inclusion_model(cone(i), free_complex(Z4, {1: 1}))
    model.validate()
    assert model.bwd.component(1).tolist() == [[1], [3]]
    with pytest.raises(ValidationError):
        ChainMap(model.tgt, model.src, {1: np.array([[1], [1]])}).validate()


def test_direct_sum_complexes_projections():
    a = CONE2
    b = suspend(CONE2)
    total, (ia, ib), (pa, pb) = direct_sum_complexes(a, b)
    total.validate()
    assert homotopic(pa @ ia, identity_chain(a))
    assert (pb @ ia).is_zero


def test_dual_complex_is_valid_and_involutive_on_homology_size():
    dx = dual_complex(CONE2)
    dx.validate()
    assert dx.ring.same_ring(Z4.opposite())
    # over a commutative ring sizes of homology match under duality here
    assert dx.homology_at(0).module.size == 2
    assert dx.homology_at(-1).module.size == 2


def test_complexes_over_one_ring_share_its_zero_module():
    """The zero term of every complex over a ring, and its zero homology, is
    one module kept on the ring."""
    a = resolution_complex(UT2.simples[0], 2)
    b = Complex(UT2, 0, -1, {}, {})
    zero = complexes.zero_module(UT2)
    assert a.term(-5) is b.term(3) is zero and a.homology_at(-5).module is zero
    assert Complex(DUAL, 0, -1, {}, {}).term(0) is not zero


def test_dual_complex_ut2():
    # differential = left multiplication by e12 (nilpotent, so d.d = 0)
    r = free_module(UT2, 1)
    cx = Complex(UT2, 0, 1, {0: r, 1: r}, {1: helpers.left_mult(UT2, 1)})
    dx = dual_complex(cx)
    dx.validate()


def test_complex_serialization_round_trip():
    for cx in (CONE2, resolution_complex(UT2.simples[0], 3)):
        data = complex_to_dict(cx)
        back = complex_from_dict(data)
        assert back.lo == cx.lo and back.hi == cx.hi
        for k in cx.degrees():
            assert back.term(k).orders == cx.term(k).orders
            assert np.array_equal(back.diff(k), cx.diff(k))


def test_chain_map_serialization():
    f = ChainMap(CONE2, CONE2, {0: np.array([[2]]), 1: np.array([[2]])})
    data = chain_map_to_dict(f)
    back = chain_map_from_dict(CONE2, CONE2, data)
    assert all(np.array_equal(back.component(k), f.component(k)) for k in CONE2.degrees())


@pytest.mark.parametrize("data", [[[2]], {"x": [[2]]}, {"0": "x"}, {"0": [[2, 0]]}, {"0": [[1.5]]}])
def test_malformed_chain_map_is_a_parse_error(data):
    with pytest.raises(ParseError):
        chain_map_from_dict(CONE2, CONE2, data)


def test_a_direct_sum_past_the_exactness_bound_is_refused():
    # 6 * m**2 fits in int64 for m = 2**30, 11 * m**2 does not: FgModule keeps
    # check_exact although constructors no longer validate.
    ring = zmod(2**30, allow_large=True)
    five = make_module(ring, {"orders": [2**30] * 5})
    assert five.ngens == 5
    with pytest.raises(ModulusTooLarge):
        direct_sum_modules(five, five)


def test_dd_zero_enforced():
    r = free_module(Z4, 1)
    cx = Complex(Z4, 0, 2, {0: r, 1: r, 2: r}, {1: np.array([[2]]), 2: np.array([[1]])})
    with pytest.raises(ValidationError):
        cx.validate()


def test_zero_complex_everywhere():
    z = Complex.zero(Z4)
    assert z.is_zero
    assert null_homotopy(zero_chain(z, z)) is not None
    tri = helpers.cone_triangle(zero_chain(z, CONE2))
    tri.validate()
    assert suspend(z).is_zero


# ---------------------------------------------------------------------------
# Homology shared by content
# ---------------------------------------------------------------------------

def _reference_homology_at(cx, k):
    """H_k by separate solves and kernels of the cycle matrix (no shared decomposition)."""
    from ghostdim import linalg
    from ghostdim.modules import FgModule, _reduce_mixed_generators

    ring, m, term = cx.ring, cx.ring.modulus, cx.term(k)
    if term.is_zero:
        return None
    cyc = linalg.reduce_coords(linalg.kernel_hetero(cx.diff(k), cx.term(k - 1).orders, m), term.orders)
    cyc = _reduce_mixed_generators(cyc, term.orders, m)
    if cyc.shape[1] == 0:
        return None
    bnd = linalg.reduce_coords(cx.diff(k + 1), term.orders)
    yb = linalg.solve_hetero(cyc, bnd, term.orders, m)
    rel = np.concatenate([yb, linalg.kernel_hetero(cyc, term.orders, m)], axis=1)
    pres = linalg.quotient_presentation([m] * cyc.shape[1], rel, m)
    if not pres.orders:
        return None
    lift = linalg.reduce_coords(cyc @ pres.lift, term.orders)
    acts = []
    for t in range(ring.rank):
        moved = linalg.reduce_coords(term.actions[t] @ lift, term.orders)
        y = linalg.solve_hetero(cyc, moved, term.orders, m)
        acts.append(linalg.reduce_coords(pres.proj @ y, pres.orders))
    return FgModule(ring=ring, orders=pres.orders, actions=tuple(acts)), lift, cyc, pres.proj


def _twin(cx):
    """A distinct complex with the same content: new module and matrix objects."""
    from ghostdim.modules import FgModule

    terms = {k: FgModule(ring=cx.ring, orders=t.orders, actions=tuple(a.copy() for a in t.actions))
             for k, t in cx._terms.items()}
    diffs = {k: d.copy() for k, d in cx._diffs.items()}
    return Complex(cx.ring, cx.lo, cx.hi, terms, diffs, certs=cx.certs)


def _random_complexes(ring, rng):
    """Cones of random maps between free complexes, resolutions and two-term complexes."""
    from ghostdim.ghosts import random_chain_map
    from ghostdim.modules import hom_generators

    out = []
    for _ in range(4):
        a = free_complex(ring, {k: rng.randrange(3) for k in range(3)})
        b = free_complex(ring, {k: rng.randrange(3) for k in range(3)})
        out.append(cone(random_chain_map(a, b, rng)).cone)
    mods = list(ring.simples) + [free_module(ring, 1)]
    if ring.backend == "zmod":
        mods += [make_module(ring, {"orders": [2, 6]}), make_module(ring, {"orders": [4, 3]})]
    out += [resolution_complex(mod, 3) for mod in mods]
    for _ in range(4):
        src, tgt = rng.choice(mods), rng.choice(mods)
        mat = np.zeros((tgt.ngens, src.ngens), dtype=np.int64)
        for g in hom_generators(src, tgt):
            mat += rng.randrange(ring.modulus) * g.mat
        out.append(Complex(ring, 0, 1, {0: tgt, 1: src}, {1: mat}))
    out.append(cone(random_chain_map(out[0], out[-1], rng)).cone)
    return out


@pytest.mark.parametrize("name", ["zmod:12", "ut3:f2", "dual:f2"])
def test_shared_homology_is_bit_identical_to_a_fresh_computation(name):
    import random

    from ghostdim.complexes import _homology_at

    ring = builtin_ring(name)
    rng = random.Random(2024)
    nonzero = 0
    for cx in _random_complexes(ring, rng):
        shared = _twin(cx).homology()
        for k in cx.degrees():
            got = cx.homology()[k]
            assert got is shared[k]
            fresh = _homology_at(cx, k)
            assert got.module.orders == fresh.module.orders
            pairs = [(got.lift, fresh.lift), (got._gens, fresh._gens), (got._proj, fresh._proj),
                     *zip(got.module.actions, fresh.module.actions)]
            ref = _reference_homology_at(cx, k)
            if ref is None:
                assert got.module.is_zero
            else:
                nonzero += 1
                mod, lift, cyc, proj = ref
                assert got.module.orders == mod.orders
                pairs += [(got.lift, lift), (got._gens, cyc), (got._proj, proj),
                          *zip(got.module.actions, mod.actions)]
                coeffs = np.array([[rng.randrange(d)] for d in got.module.orders])
                assert np.array_equal(got.classify(got.lift @ coeffs), coeffs)
            for a, b in pairs:
                assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    assert nonzero >= 5


def test_complexes_with_equal_content_share_one_homology():
    a = mult_complex(Z4, 2)
    b = _twin(a)
    assert a is not b
    for k in a.degrees():
        assert a.homology()[k] is b.homology()[k]


def test_sharing_across_degrees_but_not_ring_names():
    a = mult_complex(Z4, 2)
    shifted = suspend(a, 2)           # same terms and differentials, degrees + 2
    assert np.array_equal(shifted.diff(3), a.diff(1))
    for k in a.degrees():
        assert shifted.homology_at(k + 2) is a.homology_at(k)
        assert a.homology_at(k).module.label == "H"
    renamed = zmod(4, name="z4-renamed")
    b = mult_complex(renamed, 2)
    for k in a.degrees():
        assert b.homology_at(k) is not a.homology_at(k)
        assert b.homology_at(k).module.ring is renamed


def test_shared_homology_dies_with_its_complexes():
    import gc

    from ghostdim import complexes

    ring = zmod(4, name="z4-collected")
    a = mult_complex(ring, 2)
    b = _twin(a)
    key = complexes._homology_key(a, 0, complexes._diff_digests(a))
    hd = a.homology_at(0)
    assert complexes._SHARED_HOMOLOGY[key] is hd is b.homology_at(0)
    del hd
    del a
    gc.collect()
    assert key in complexes._SHARED_HOMOLOGY
    del b
    gc.collect()
    assert key not in complexes._SHARED_HOMOLOGY


def test_shared_homology_arrays_are_read_only():
    hd = mult_complex(Z4, 2).homology_at(0)
    assert hd.module.orders == (2,)
    for arr in (hd.lift, hd._gens, hd._proj, *hd.module.actions):
        with pytest.raises(ValueError):
            arr[0, 0] = 1


def test_homology_eliminates_its_cycle_matrix_once(monkeypatch):
    """H_k != 0 with a nonzero term k - 1: one solve finds the cycles (the
    kernel of d_k) and one more eliminates [cycles | d_(k+1) | A^t cycles],
    besides the solves of quotient_presentation."""
    k_dual = DUAL.simples[0]
    cover, pi = modules.free_cover(k_dual)
    cover_cx = Complex(DUAL, 0, 1, {0: k_dual, 1: cover}, {1: pi.mat})
    smith_mod = linalg.smith_mod
    solves = []

    def counted(a, m, rhs):
        # quotient_presentation's own solves present the quotient, not H_k
        if rhs is not None and sys._getframe(1).f_code.co_name != "quotient_presentation":
            solves.append(rhs)
        return smith_mod(a, m, rhs)

    monkeypatch.setattr(linalg, "smith_mod", counted)
    for cx in (CONE2, cover_cx):
        solves.clear()
        assert not complexes._homology_at(cx, 1).module.is_zero
        assert len(solves) == 2


# -- the certificate rule: a term is free or carries a validated certificate

S2 = UT2.simples[1]                     # projective, not free
Z3_OVER_Z12 = make_module(zmod(12), {"orders": [3]})


def test_free_complexes_cones_and_sums_carry_no_certificates():
    fx = free_complex(UT2, {0: 1, 1: 2})
    built = [CONE2, fx, suspend(fx), module_complex(free_module(UT2, 2)),
             resolution_complex(make_module(Z4, {"orders": [2]}), 3),
             cone(identity_chain(CONE2)).cone, cone(identity_chain(fx)).cone,
             direct_sum_complexes(CONE2, CONE2)[0], direct_sum_complexes(fx, suspend(fx))[0]]
    for cx in built:
        assert cx.certs == {}
        assert cx.certified


def _mixed_complexes(proj):
    """Complexes with a term proj + free (a cone) and free + proj (a direct sum)."""
    ring = proj.ring
    x, y = module_complex(proj), free_complex(ring, {0: 1, 1: 1})
    c = cone(zero_chain(x, y)).cone                          # C_1 = R + proj
    s = direct_sum_complexes(y, x)[0]                         # S_0 = R + proj
    return {1: c, 0: s}


@pytest.mark.parametrize("proj", [S2, Z3_OVER_Z12], ids=["ut2-S2", "z3-over-z12"])
def test_a_free_plus_projective_term_gets_a_block_certificate(proj):
    assert set(module_complex(proj).certs) == {0}
    for k, cx in _mixed_complexes(proj).items():
        assert set(cx.certs) == {k}
        cert = cx.certs[k]
        assert cert.pi.tgt is cx.term(k) and is_free_module(cert.cover)
        cert.validate()
        cx.validate()
        assert cx.certified


@pytest.mark.parametrize("proj", [S2, Z3_OVER_Z12], ids=["ut2-S2", "z3-over-z12"])
def test_validate_rejects_a_tampered_section(proj):
    for k, cx in _mixed_complexes(proj).items():
        cert = cx.certs[k]
        bad = ProjectivityCertificate(
            cover=cert.cover, pi=cert.pi,
            section=ModuleMap(cx.term(k), cert.cover, np.zeros_like(cert.section.mat)))
        terms = {j: cx.term(j) for j in cx.degrees()}
        tampered = Complex(cx.ring, cx.lo, cx.hi, terms, cx._diffs, certs={k: bad})
        with pytest.raises(ValidationError, match="does not split"):
            tampered.validate()


def test_a_non_projective_term_stays_uncertified():
    z2 = make_module(Z4, {"orders": [2]})
    for cx in (module_complex(z2), complex_from_dict(complex_to_dict(module_complex(z2)))):
        assert cx.certs == {} and not cx.certified
        with pytest.raises(ValidationError, match="certified-projective"):
            pdim_complex(cx, 3)


def _fresh(mod):
    """A new module equal to mod, with nothing computed on it yet."""
    return make_module(mod.ring, module_to_descriptor(mod))


def test_each_projective_non_free_term_is_split_once(monkeypatch):
    calls = []
    split = modules.split_surjection
    monkeypatch.setattr(modules, "split_surjection", lambda pi: calls.append(pi.tgt) or split(pi))
    s2 = _fresh(S2)
    cx = module_complex(s2)
    assert calls == [s2] and cx.certified
    calls.clear()
    # the result is kept on the module: a second call splits nothing
    assert module_complex(s2).certified and calls == []
    mixed = _mixed_complexes(_fresh(S2))[1]
    calls.clear()
    parsed = complex_from_dict(complex_to_dict(mixed))
    assert len(calls) == 1 and parsed.certified
    calls.clear()
    # S1 is not projective (one split); its first syzygy is S2 (one more)
    s1 = _fresh(UT2.simples[0])
    res = resolution_complex(s1, 4)
    assert len(calls) == 2 and res.hi == 1 and res.certified
    calls.clear()
    assert resolution_complex(s1, 4).certified and module_pdim(s1, 4)[0].n == 1 and calls == []


def test_each_syzygy_is_covered_once(monkeypatch):
    calls = []
    gens = modules.minimal_generators
    monkeypatch.setattr(modules, "minimal_generators", lambda mod: calls.append(mod) or gens(mod))
    for mod in (make_module(Z4, {"orders": [2]}), _fresh(DUAL.simples[0])):
        calls.clear()
        resolution_complex(mod, 4)
        assert len(calls) == 5 and len({id(m) for m in calls}) == 5
        calls.clear()
        # the syzygy chain is kept on the module: a second call covers nothing
        resolution_complex(mod, 4)
        assert module_pdim(mod, 4)[0].is_infinite and calls == []
        assert module_pdim(_fresh(mod), 4)[0].is_infinite
        assert len(calls) == 2 and len({id(m) for m in calls}) == 2


def test_no_module_pins_a_complex():
    """Each call builds a new complex, so the syzygy chain kept on a builtin
    module keeps no complex alive, nor the homology and tower cached on it."""
    a, b = resolution_complex(DUAL.simples[0], 4), resolution_complex(DUAL.simples[0], 4)
    assert a is not b and (a.lo, a.hi) == (b.lo, b.hi) == (0, 4)
    for k in range(a.lo, a.hi + 2):
        assert np.array_equal(a.diff(k), b.diff(k))
    assert pdim_complex(a, 4).is_finite and a._cache
    ref = weakref.ref(a)
    del a
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("name", ["zmod:12", "ut3:f2", "dual:f2"])
def test_homology_order_is_the_order_of_the_homology_module(name):
    import random

    ring = builtin_ring(name)
    checked = 0
    for cx in _random_complexes(ring, random.Random(7)):
        for k in range(cx.lo - 1, cx.hi + 2):
            assert homology_order(cx, k) == cx.homology_at(k).module.size
            checked += cx.homology_at(k).module.size > 1
    assert checked >= 5


def _same_homology(got, want):
    assert got.module.orders == want.module.orders
    pairs = [(got.lift, want.lift), (got._gens, want._gens), (got._proj, want._proj),
             *zip(got.module.actions, want.module.actions)]
    assert len(got.module.actions) == len(want.module.actions)
    for g, w in pairs:
        assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)


def _random_hom(rng, src_orders, tgt_orders):
    """A random group map Z/d_j -> Z/e_i: entry (i, j) a multiple of e_i / gcd(e_i, d_j)."""
    e = np.array(tgt_orders, dtype=np.int64).reshape(-1, 1)
    d = np.array(src_orders, dtype=np.int64).reshape(1, -1)
    step = e // np.gcd(e, d)
    return (rng.integers(0, 1 << 20, size=step.shape) * step) % e


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 5, 7, 251, 4, 6, 12]))
def test_homology_matches_the_s_based_reference(data, m):
    """C_2 -> C_1 -> C_0 over Z/m, mixed orders over a composite m, empty
    and one-generator terms included: every H_k equals the reference's."""
    ring = zmod(m)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    divs = [d for d in range(2, m + 1) if m % d == 0]
    orders = [tuple(int(rng.choice(divs)) for _ in range(data.draw(st.integers(0, 5))))
              for _ in range(2)]
    d1 = _random_hom(rng, orders[1], orders[0])
    if data.draw(st.booleans()):
        d1[rng.random(d1.shape) < 0.6] = 0
    # C_2 free over Z/m, onto random combinations of the cycles of d_1
    cyc = linalg.kernel_hetero(d1, orders[0], m)
    n2 = data.draw(st.integers(0, 4))
    d2 = linalg.reduce_coords(cyc @ rng.integers(0, m, size=(cyc.shape[1], n2)), orders[1])
    terms = {k: FgModule(ring=ring, orders=o, actions=(np.eye(len(o), dtype=np.int64),))
             for k, o in ((0, orders[0]), (1, orders[1]), (2, (m,) * n2)) if o}
    cx = Complex(ring, 0, 2, terms, {1: d1, 2: d2})
    cx.validate()
    for k in (0, 1, 2):
        _same_homology(complexes._homology_at(cx, k), smith_reference.homology_at(cx, k))


def _identical(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


def _check_map_systems(monkeypatch):
    """Record the add_family and add_equation calls that describe each
    MapSystem, and before each solve or kernel compare the system posed
    with smith_reference.assemble of those calls, in full: the block table
    against the reference's own layout, and the matrix, row orders, right
    side and solvable flag against the np.kron rows with the zero rows
    dropped.  Returns the list, which grows, of (shape, families with Hom
    rows) of each system compared."""
    systems = []
    calls = weakref.WeakKeyDictionary()
    cls = complexes.MapSystem
    add_family, add_equation, solve, kernel = cls.add_family, cls.add_equation, cls.solve, cls.kernel

    def recorded_family(self, name, src, tgt, shift=0):
        calls.setdefault(self, []).append(("family", (name, src, tgt, shift)))
        add_family(self, name, src, tgt, shift)

    def recorded_equation(self, *args):
        calls.setdefault(self, []).append(("equation", args))
        add_equation(self, *args)

    def compare(self):
        big, moduli, rhs, solvable = self.eqs.matrix()
        layout, total, ref_big, ref_moduli, ref_rhs = smith_reference.assemble(self.ring, calls[self])
        blocks = {(name, k): (b.off, b.size, b.src, b.tgt, b.free)
                  for name, fam in self.blocks.items() for k, b in fam.items()}
        assert list(blocks.items()) == list(layout.items())
        live = ref_big.any(axis=1)
        ref_moduli = np.asarray(ref_moduli, dtype=np.int64).reshape(-1)
        assert big.shape == (int(live.sum()), total)
        assert big.dtype == ref_big.dtype and np.array_equal(big, ref_big[live])
        assert np.array_equal(moduli, ref_moduli[live]) and np.array_equal(rhs, ref_rhs[live])
        assert solvable == (not (ref_rhs[~live, 0] % ref_moduli[~live]).any())
        systems.append((big.shape, [name for name, fam in self.blocks.items()
                                    if any(not b.free for b in fam.values())]))

    def checked_solve(self):
        compare(self)
        return solve(self)

    def checked_kernel(self):
        compare(self)
        return kernel(self)

    monkeypatch.setattr(cls, "add_family", recorded_family)
    monkeypatch.setattr(cls, "add_equation", recorded_equation)
    monkeypatch.setattr(cls, "solve", checked_solve)
    monkeypatch.setattr(cls, "kernel", checked_kernel)
    return systems


@pytest.mark.parametrize("name", ["ut3:f2", "zmod:12",
                                  *(n for n in BUILTIN_NAMES if n not in ("ut3:f2", "zmod:12")),
                                  "a3rad2:f2"])
def test_assembly_and_homology_match_the_dense_reference_on_a_battery(name, monkeypatch):
    """Every MapSystem of the bound-4 battery and its pdim (null-homotopy and
    chain-map systems) equals the np.kron reference posed from the calls
    that described it, with its zero rows dropped, and every H_k formed
    equals the S-based reference's.  Every hom generator set, and the
    tensor presentation of every term and homology module with every simple
    left module, equals the reference's built from dense np.kron rows and
    from the relation loop."""
    homologies = []
    homs = []
    tensors = []
    homology_at = complexes._homology_at
    hom_generators, tensor_modules = modules.hom_generators, modules.tensor_modules

    def checked_homology_at(cx, k):
        got = homology_at(cx, k)
        _same_homology(got, smith_reference.homology_at(cx, k))
        homologies.append(k)
        return got

    def checked_hom_generators(src, tgt):
        got = hom_generators(src, tgt)
        want = smith_reference.hom_generators(src, tgt)
        assert len(got) == len(want) and all(_identical(g.mat, w.mat) for g, w in zip(got, want))
        homs.append(len(got))
        return got

    def checked_tensor_modules(right, left):
        got = tensor_modules(right, left)
        if got.free is None:    # a free factor has no balanced relations
            orders, proj, lift = smith_reference.tensor_modules(right, left)
            assert got.module.orders == orders
            assert _identical(got.proj, proj) and _identical(got.lift, lift)
            tensors.append(orders)
        return got

    systems = _check_map_systems(monkeypatch)
    monkeypatch.setattr(complexes, "_homology_at", checked_homology_at)
    monkeypatch.setattr(modules, "hom_generators", checked_hom_generators)
    # a fresh copy of the ring: results kept on a builtin's simples by earlier
    # tests would skip the hom spaces of their sections here
    ring = make_ring(ring_spec_from_dict(ring_to_dict(helpers.named_ring(name))))
    members, _ = standard_battery(ring, 4, seed=0)
    for mem in members:
        pdim_complex(mem.cx, 4)
        # the ghost check forms no homology of the last stage; read every
        # stage's, so that the reference checks at least as many H_k
        for ug in ghost_tower(mem.cx, 0).ugs:
            ug.target.homology()
        for k in mem.cx.degrees():
            for mod in (mem.cx.term(k), mem.cx.homology_at(k).module):
                for simple in ring.opposite().simples:
                    checked_tensor_modules(mod, simple)
    # the rings added after ut3:f2 and zmod:12 form 46 to 79 systems here
    assert len(systems) >= (50 if name in ("ut3:f2", "zmod:12") else 40) and len(homologies) >= 50
    # over the fields every module is free, so no section is sought
    assert tensors and (homs or name in ("f2", "f3", "zmod:2", "zmod:3"))


def test_a_later_family_with_hom_rows_matches_the_reference(monkeypatch):
    """A factorization whose source has non-free terms: the homotopy family
    added after the chain-map family has Hom rows, posed after the chain
    map's equations, and the system still equals the reference posed in the
    order of the calls.  X is S in degree 0 and R in degree 1 with d = 0,
    for each simple S of ut2:f2, so s_0: S -> R has nonzero Hom rows; the
    identity of X lifts through the cover of its homology iff S is
    projective."""
    systems = _check_map_systems(monkeypatch)
    lifts = []
    for simple in UT2.simples:
        x = Complex(UT2, 0, 1, {0: simple, 1: free_module(UT2, 1)}, {})
        cover = universal_ghost(x).cover_map
        got = _solve_squares(x, cover.src, [(identity_chain(x), cover, identity_chain(x), "s")])
        lifts.append(got is not None)
    # u: X -> P first, then the homotopy family s: X -> X of degree +1
    assert [families for _, families in systems] == [["u", "s"]] * len(UT2.simples)
    assert lifts == [is_projective(simple)[0] for simple in UT2.simples] and sorted(lifts) == [False, True]


# ---------------------------------------------------------------------------
# The lean cone: block maps formed when read, no triangle
# ---------------------------------------------------------------------------

CRITERION_7_RINGS = {
    "zmod": [zmod(4), zmod(6), zmod(8), zmod(9)],
    "fp_algebra": [builtin_ring("dual:f2"), builtin_ring("ut2:f2"), builtin_ring("f2")],
}


def _same_maps(got, want):
    return (got.src.lo, got.src.hi, got.tgt.lo, got.tgt.hi) == (want.src.lo, want.src.hi, want.tgt.lo, want.tgt.hi) \
        and got.mats.keys() == want.mats.keys() and all(_identical(got.mats[k], want.mats[k]) for k in want.mats)


@pytest.mark.parametrize("backend", sorted(CRITERION_7_RINGS))
def test_lean_cone_is_bit_identical_to_the_dict_built_reference(backend):
    """The random cones of acceptance criterion 7 (its rings and draws, 300
    per backend): the cone, every block map at every degree, the inclusion
    (helpers.cone_inclusion), connecting() and the test triangle's
    homotopies equal the reference's."""
    import random

    from ghostdim.ghosts import random_chain_map

    rings = CRITERION_7_RINGS[backend]
    rng = random.Random(2026)
    for count in range(300):
        ring = rings[count % len(rings)]
        f = random_chain_map(helpers.random_small_complex(ring, rng), helpers.random_small_complex(ring, rng), rng)
        got, want = cone(f), cone_reference.cone(f)
        assert (got.cone.lo, got.cone.hi) == (want.cone.lo, want.cone.hi)
        for k in range(got.cone.lo - 1, got.cone.hi + 2):
            assert got.cone.term(k).orders == want.cone.term(k).orders
            assert _identical(got.cone.diff(k), want.cone.diff(k))
            for block in ("it", "ish", "pt", "psh"):
                assert _identical(getattr(got, block)(k), getattr(want, block)(k)), (count, k, block)
        assert _same_maps(helpers.cone_inclusion(got), want.triangle.g)
        assert _same_maps(got.connecting(), want.triangle.h)
        tri = helpers.cone_triangle(f)
        for name in ("gf_null", "hg_null", "rot_null"):
            mine, theirs = getattr(tri, name), getattr(want.triangle, name)
            assert mine.mats.keys() == theirs.mats.keys()
            assert all(_identical(mine.mats[k], theirs.mats[k]) for k in theirs.mats)


def test_pdim_builds_no_triangle_and_no_homotopy_outside_null_homotopy(monkeypatch):
    """Over a battery, pdim_complex constructs no Homotopy other than the
    solutions of null_homotopy, no connecting map of a cone or test
    triangle, and no suspension or desuspension at all; a tower stage keeps
    no ConeData."""
    import sys
    from collections import Counter
    from dataclasses import fields

    from ghostdim.ghosts import UniversalGhost

    def caller():
        return sys._getframe(2).f_code.co_name

    homotopies, suspensions, triangles = Counter(), Counter(), Counter()
    init, susp = complexes.Homotopy.__init__, complexes.suspend

    def counted_init(self, *args, **kwargs):
        homotopies[caller()] += 1
        init(self, *args, **kwargs)

    def counted_suspend(*args, **kwargs):
        suspensions[caller()] += 1
        return susp(*args, **kwargs)

    monkeypatch.setattr(complexes.Homotopy, "__init__", counted_init)
    monkeypatch.setattr(complexes, "suspend", counted_suspend)
    monkeypatch.setattr(complexes.ConeData, "connecting", lambda self: triangles.update(["connecting"]))
    monkeypatch.setattr(helpers.Triangle, "__init__", lambda self, *a, **kw: triangles.update(["Triangle"]))
    ring = helpers.named_ring("zmod:12")
    members, _ = standard_battery(ring, 4, seed=0)
    for mem in members:
        pdim_complex(mem.cx, 4)
    assert set(homotopies) == {"null_homotopy"}
    assert not suspensions and "suspend" not in vars(ghosts)
    assert not triangles
    assert [f.name for f in fields(UniversalGhost)] == ["source", "cover", "cover_map", "target"]
    stages = [ug for mem in members if "tower" in mem.cx._cache for ug in mem.cx._cache["tower"].ugs]
    assert len(stages) >= len(members) - 1
    assert not [v for ug in stages for v in vars(ug).values() if isinstance(v, complexes.ConeData)]
