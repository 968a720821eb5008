import numpy as np
import pytest

import helpers
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
    fiber,
    free_complex,
    identity_chain,
    induced_map,
    module_complex,
    null_homotopy,
    resolution_complex,
    section_from_null_homotopy,
    split_inclusion_model,
    suspend,
    zero_chain,
)
from ghostdim.errors import ModulusTooLarge, ParseError, ValidationError
from ghostdim import modules
from ghostdim.dimensions import module_pdim
from ghostdim.ghosts import pdim_complex
from ghostdim.modules import ModuleMap, ProjectivityCertificate, free_module, is_free_module, make_module
from ghostdim.rings import builtin_ring, zmod

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
    tri = cone(identity_chain(CONE2)).triangle
    h = null_homotopy(identity_chain(tri.c))
    assert h is not None


def test_cone_of_zero_splits():
    x = mult_complex(Z4, 0)
    y = module_complex(free_module(Z4, 1))
    tri = cone(zero_chain(x, y)).triangle
    # homology splits: H(cone) = H(y) + H(SX)
    sx = suspend(x)
    for k in range(-1, 4):
        assert tri.c.homology_at(k).module.size == y.homology_at(k).module.size * sx.homology_at(k).module.size


def test_cone_triangle_validates_and_les_holds():
    f = ChainMap(CONE2, CONE2, {0: np.array([[2]]), 1: np.array([[2]])})
    tri = cone(f).triangle
    tri.validate()
    assert helpers.homology_les_exact(tri)


def test_cone_multiplication_homology():
    # cone(2: R -> R) in degree 0 has H0 = H1 = Z/2
    r = module_complex(free_module(Z4, 1))
    f = ChainMap(r, r, {0: np.array([[2]])})
    tri = cone(f).triangle
    assert tri.c.homology_at(0).module.orders == (2,)
    assert tri.c.homology_at(1).module.orders == (2,)


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


def test_fiber_and_section():
    # g = universal-ghost-flavored inclusion into a cone; just test the algebra:
    f = ChainMap(CONE2, CONE2, {0: np.array([[2]]), 1: np.array([[2]])})
    h = null_homotopy(f)
    assert h is not None  # 2*id on this complex is null-homotopic (h=[1] works)
    fib, proj, incl, cd = fiber(f)
    s = section_from_null_homotopy(f, h, fib, proj)
    comp = proj @ s
    assert homotopic(comp, identity_chain(CONE2))
    # in fact exact equality
    ident = identity_chain(CONE2)
    assert all(np.array_equal(comp.component(k), ident.component(k)) for k in CONE2.degrees())


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


def test_dual_complex_ut2():
    # differential = left multiplication by e12 (nilpotent, so d.d = 0)
    r = free_module(UT2, 1)
    cx = Complex(UT2, 0, 1, {0: r, 1: r}, {1: UT2.left_mult(1)})
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
    tri = cone(zero_chain(z, CONE2)).triangle
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
            pairs = [(got.lift, fresh.lift), (got._cycles, fresh._cycles), (got._proj, fresh._proj),
                     *zip(got.module.actions, fresh.module.actions)]
            ref = _reference_homology_at(cx, k)
            if ref is None:
                assert got.module.is_zero
            else:
                nonzero += 1
                mod, lift, cyc, proj = ref
                assert got.module.orders == mod.orders
                pairs += [(got.lift, lift), (got._cycles, cyc), (got._proj, proj),
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


def test_no_sharing_across_degrees_or_ring_names():
    a = mult_complex(Z4, 2)
    shifted = suspend(a, 2)           # same terms and differentials, degrees + 2
    assert np.array_equal(shifted.diff(3), a.diff(1))
    for k in a.degrees():
        assert shifted.homology_at(k + 2) is not a.homology_at(k)
        assert shifted.homology_at(k + 2).degree == k + 2
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
    for arr in (hd.lift, hd._cycles, hd._proj, *hd.module.actions):
        with pytest.raises(ValueError):
            arr[0, 0] = 1


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


def test_each_projective_non_free_term_is_split_once(monkeypatch):
    calls = []
    split = modules.split_surjection
    monkeypatch.setattr(modules, "split_surjection", lambda pi: calls.append(pi.tgt) or split(pi))
    cx = module_complex(S2)
    assert calls == [S2] and cx.certified
    mixed = _mixed_complexes(S2)[1]
    calls.clear()
    parsed = complex_from_dict(complex_to_dict(mixed))
    assert len(calls) == 1 and parsed.certified
    calls.clear()
    # S1 is not projective (one split); its first syzygy is S2 (one more)
    res = resolution_complex(UT2.simples[0], 4)
    assert len(calls) == 2 and res.hi == 1 and res.certified


def test_each_syzygy_is_covered_once(monkeypatch):
    calls = []
    gens = modules.minimal_generators
    monkeypatch.setattr(modules, "minimal_generators", lambda mod: calls.append(mod) or gens(mod))
    for mod in (make_module(Z4, {"orders": [2]}), DUAL.simples[0]):
        calls.clear()
        resolution_complex(mod, 4)
        assert len(calls) == 5 and len({id(m) for m in calls}) == 5
        calls.clear()
        assert module_pdim(mod, 4).is_infinite
        assert len(calls) == 2 and len({id(m) for m in calls}) == 2
