import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
import smith_reference
import validate_reference
from ghostdim import linalg, modules
from ghostdim.errors import RingMismatch, SideMismatch, ValidationError
from ghostdim.modules import (
    FgModule,
    ModuleMap,
    canonical_group,
    find_isomorphism,
    free_cover,
    free_module,
    hom_generators,
    is_projective,
    is_simple,
    kernel_of,
    make_module,
    minimal_generators,
    module_to_descriptor,
    submodule_generated,
    subgroup_order_in,
    subquotient,
    tensor_map,
    tensor_modules,
    zero_module,
)
from ghostdim.rings import BUILTIN_NAMES, _upper_triangular, builtin_ring, zmod


Z4 = zmod(4)
DUAL = builtin_ring("dual:f2")
UT2 = builtin_ring("ut2:f2")
UT3 = builtin_ring("ut3:f2")
UT2_F3 = _upper_triangular(2, 3, "ut2:f3")


def zmod_module(ring, *orders):
    return make_module(ring, {"orders": list(orders)})


def test_hom_group_orders_match_brute():
    pairs = [
        (zmod_module(Z4, 2), zmod_module(Z4, 4)),
        (zmod_module(Z4, 4), zmod_module(Z4, 2)),
        (zmod_module(Z4, 2, 4), zmod_module(Z4, 2)),
        (DUAL.simples[0], DUAL.simples[0]),
        (free_module(DUAL, 1), DUAL.simples[0]),
        (UT2.simples[0], UT2.simples[1]),
        (free_module(UT2, 1), UT2.simples[0]),
    ]
    for src, tgt in pairs:
        gens = hom_generators(src, tgt)
        brute = helpers.brute_hom_maps(src, tgt)
        # the generated group of maps must have exactly |Hom| elements
        m = src.ring.modulus
        if gens:
            cols = np.stack(
                [g.mat.T.reshape(-1) for g in gens], axis=1
            )
            orders = list(tgt.orders) * src.ngens
            got = linalg.subgroup_order(helpers._embed_cols(cols, orders, m), [m] * cols.shape[0], m)
        else:
            got = 1
        assert got == len(brute), (src, tgt)


def test_hom_simple_dual_is_one_dimensional():
    k = DUAL.simples[0]
    gens = hom_generators(k, k)
    assert len(gens) == 1
    assert gens[0].mat[0, 0] == 1


def test_hom_z2_to_z4_generated_by_doubling():
    src, tgt = zmod_module(Z4, 2), zmod_module(Z4, 4)
    gens = hom_generators(src, tgt)
    assert len(gens) == 1
    assert gens[0].mat[0, 0] == 2


def test_hom_to_zero():
    src = zmod_module(Z4, 2)
    zero = make_module(Z4, {"orders": []})
    assert hom_generators(src, zero) == []


def kernel_cokernel(f):
    """(kernel inclusion, cokernel) of a module map: the cokernel is the
    subquotient span(I) / im f of the target."""
    return kernel_of(f), subquotient(f.tgt.ring, f.tgt, linalg.eye(f.tgt.ngens), f.mat, "coker")


def test_kernel_cokernel_of_doubling():
    r = free_module(Z4, 1)
    f = ModuleMap(r, r, np.array([[2]]))
    ker, coker = kernel_cokernel(f)
    assert ker.src.orders == (2,)
    assert coker.module.orders == (2,)
    # exactness element-wise: image of inclusion = set of kernel elements
    kernel_elements = {
        tuple(v) for v in linalg.enumerate_group(r.orders) if (2 * v[0]) % 4 == 0
    }
    included = {
        tuple(helpers.apply_map(ker, w)) for w in linalg.enumerate_group(ker.src.orders)
    }
    assert included == kernel_elements
    # the cokernel classifies the image as zero, and a generator as nonzero
    assert not coker.classify(f.mat).any() and not coker.classify([[2]]).any()
    assert coker.classify([[1]]).tolist() == [[1]]


def test_kernel_cokernel_identity_and_zero():
    r = free_module(Z4, 1)
    ker, coker = kernel_cokernel(ModuleMap(r, r, linalg.eye(1)))
    assert ker.src is coker.module is zero_module(Z4)
    assert coker.classify(linalg.eye(1)).shape == (0, 1)
    z = zmod_module(Z4, 2)
    f = ModuleMap(r, z, linalg.zeros(z.ngens, r.ngens))
    ker, coker = kernel_cokernel(f)
    assert ker.src.size == r.size
    assert coker.module.orders == z.orders
    assert not coker.classify(f.mat).any()


def test_a_zero_subquotient_is_the_rings_zero_module(monkeypatch):
    """Empty gens (with no elimination) and gens that the bounds span both
    give zero_module(ring), keeping no gens."""
    r = free_module(UT2, 1)
    calls = []
    smith_mod = linalg.smith_mod
    monkeypatch.setattr(linalg, "smith_mod", lambda *args: calls.append(args) or smith_mod(*args))
    empty = subquotient(UT2, r, linalg.zeros(r.ngens, 0), linalg.zeros(r.ngens, 0), "E")
    assert empty.module is zero_module(UT2) and calls == []
    spanned = subquotient(UT2, r, linalg.eye(r.ngens), linalg.eye(r.ngens), "Q")
    assert spanned.module is zero_module(UT2) and calls
    for sq in (empty, spanned):
        assert sq.lift.shape == sq._gens.shape == (r.ngens, 0) and sq._proj.shape == (0, 0)
        assert sq.classify(linalg.eye(r.ngens)).shape == (0, r.ngens)


def test_a_free_module_is_cached_with_the_label_of_its_rank():
    """The label of a free module is a function of its rank alone: every
    call gets the one cached module."""
    assert free_module(UT3, 1) is free_module(UT3, 1)
    assert free_module(UT3, 1).label == "R" and free_module(UT3, 2).label == "R^2"


def test_a_free_module_lives_over_the_ring_object_it_was_asked_for():
    """Equal rings, and Z/4 and its opposite (equal structure constants),
    each get a free module of their own."""
    a, b = zmod(4), zmod(4)
    assert free_module(a, 1).ring is a and free_module(b, 1).ring is b
    op = a.opposite()
    assert free_module(op, 1).ring is op and free_module(a, 1).ring is a


def test_free_cover_surjective():
    m = zmod_module(Z4, 2)
    f, pi = free_cover(m)
    assert f.size == 4
    image = {tuple(helpers.apply_map(pi, v)) for v in linalg.enumerate_group(f.orders)}
    assert len(image) == m.size


def test_free_cover_minimal_on_crt_module():
    # over Z/6 the module Z/2 + Z/3 is cyclic (it is Z/6), so one generator suffices
    z6 = zmod(6)
    m = make_module(z6, {"orders": [2, 3]})
    gens = minimal_generators(m)
    assert gens.shape[1] == 1


def test_is_projective_cases():
    r = free_module(Z4, 1)
    flag, sec = is_projective(r)
    assert flag
    z2 = zmod_module(Z4, 2)
    flag, sec = is_projective(z2)
    assert not flag
    # brute: no equivariant section among the <= 4 candidates
    _, pi = free_cover(z2)
    assert not any(
        not ((pi.mat @ s) % 2 - np.eye(1, dtype=np.int64)).any() and True
        for s in helpers.brute_hom_maps(z2, r)
        if not linalg.reduce_coords(pi.mat @ s - np.eye(1, dtype=np.int64), z2.orders).any()
    )
    # projective simple over UT2: the second vertex simple is projective
    s2 = UT2.simples[1]
    flag, cert = is_projective(s2)
    assert flag
    assert cert.pi.src is free_cover(s2)[0]
    assert helpers.maps_equal(cert.pi @ cert.section, ModuleMap(s2, s2, linalg.eye(s2.ngens)))
    # non-projective simple over UT2
    s1 = UT2.simples[0]
    assert not is_projective(s1)[0]


def test_projective_z3_over_z12():
    z12 = zmod(12)
    z3 = make_module(z12, {"orders": [3]})
    flag, sec = is_projective(z3)
    assert flag


def _identical(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "a3rad2:f2"])
def test_kernels_of_syzygy_chains_match_the_reference(name):
    """Each kernel of the syzygy chain of every simple, to length 4, has the
    orders, actions and inclusion of the kernel built by separate
    eliminations for the kernel and for the actions."""
    simples = helpers.named_ring(name).simples
    checked = 0
    for simple in simples:
        below = simple
        for i in range(1, 5):
            pi = free_cover(below)[1]
            got, want = kernel_of(pi, f"syz{i}"), smith_reference.kernel_of(pi, f"syz{i}")
            assert got.src.orders == want.module.orders
            # a zero kernel is the ring's one zero module, labelled "0"
            assert got.src is zero_module(pi.src.ring) if want.module.is_zero else (
                got.src.label == want.module.label)
            assert len(got.src.actions) == len(want.module.actions)
            for g, w in [(got.mat, want.inclusion.mat), *zip(got.src.actions, want.module.actions)]:
                assert _identical(g, w)
            checked += 1
            below = got.src
            if below.is_zero:
                break
    assert checked >= len(simples)


def test_reduce_mixed_generators_matches_the_per_column_loop():
    """The vectorized pull-back equals the reference loop."""
    rng = np.random.default_rng(5)
    for m in (4, 6, 8, 9, 12):
        divs = [d for d in range(2, m + 1) if m % d == 0]
        for _ in range(60):
            orders = [int(rng.choice(divs)) for _ in range(rng.integers(1, 5))]
            gens = rng.integers(0, m, size=(len(orders), len(orders) + rng.integers(0, 4)))
            gens = linalg.reduce_coords(gens, orders)
            got = modules._reduce_mixed_generators(gens, orders, m)
            assert _identical(got, smith_reference._reduce_mixed_generators(gens, orders, m))
    empty = np.zeros((0, 2), dtype=np.int64)
    assert _identical(modules._reduce_mixed_generators(empty, [], 6),
                      smith_reference._reduce_mixed_generators(empty, [], 6))


def test_find_isomorphism_identity_and_syzygy():
    k = DUAL.simples[0]
    iso = find_isomorphism(k, k)
    assert iso is not None
    # syzygy of k over F2[x]/(x2) is k again
    f, pi = free_cover(k)

    ker = kernel_of(pi).src
    assert ker.size == 2
    iso = find_isomorphism(ker, k)
    assert iso is not None


def test_find_isomorphism_rejects_different_sizes():
    assert find_isomorphism(zmod_module(Z4, 2), free_module(Z4, 1)) is None


def test_find_isomorphism_distinguishes_group_types():
    z12 = zmod(12)
    a = make_module(z12, {"orders": [2, 3]})
    b = make_module(z12, {"orders": [6]})
    # same size, isomorphic as groups AND as Z/12-modules (CRT)
    assert canonical_group(a.orders) == canonical_group(b.orders)
    assert find_isomorphism(a, b) is not None
    c = make_module(z12, {"orders": [2, 2]})
    d = make_module(z12, {"orders": [4]})
    assert canonical_group(c.orders) != canonical_group(d.orders)
    assert find_isomorphism(c, d) is None


def test_simplicity_by_exhaustion():
    assert is_simple(DUAL.simples[0])
    assert not is_simple(free_module(DUAL, 1))
    assert is_simple(UT2.simples[0])
    assert is_simple(UT2.simples[1])
    assert not is_simple(zmod_module(Z4, 4))
    assert is_simple(zmod_module(Z4, 2))


def test_submodule_generated_closure():
    # inside the regular module of UT2, e12 generates a 1-dim submodule;
    # e11 generates span{e11, e12}
    r = free_module(UT2, 1)
    basis = np.eye(3, dtype=np.int64)
    # basis order: (0,0)=e11, (0,1)=e12, (1,1)=e22
    span_e12 = submodule_generated(r, basis[:, [1]])
    assert subgroup_order_in(r, span_e12) == 2
    span_e11 = submodule_generated(r, basis[:, [0]])
    assert subgroup_order_in(r, span_e11) == 4


def test_tensor_unit_law():
    # R (x) N = N for N a left module (module over the opposite ring)
    op = UT2.opposite()
    n = op.simples[0]
    r = free_module(UT2, 1)
    t = tensor_modules(r, n)
    assert t.module.size == n.size


def test_tensor_z2_z2_over_z4():
    a = zmod_module(Z4, 2)
    b = zmod_module(Z4, 2)
    t = tensor_modules(a, b)
    assert t.module.orders == (2,)


def test_tensor_side_mismatch():
    with pytest.raises((SideMismatch, RingMismatch)):
        tensor_modules(free_module(UT2, 1), UT2.simples[0])


def test_tensor_functoriality():
    a = free_module(Z4, 1)
    b = zmod_module(Z4, 2)
    f = ModuleMap(a, b, np.array([[1]]))  # reduction mod 2
    n = zmod_module(Z4, 4)
    ta = tensor_modules(a, n)
    tb = tensor_modules(b, n)
    induced = tensor_map(f.mat, np.eye(1, dtype=np.int64), ta, tb)
    assert induced.src.size == 4 and induced.tgt.size == 2
    # surjective since f is
    image = {tuple(helpers.apply_map(induced, v)) for v in linalg.enumerate_group(induced.src.orders)}
    assert len(image) == 2


def test_module_descriptor_round_trip():
    for mod in (UT2.simples[0], free_module(UT2, 2), zmod_module(Z4, 2, 4)):
        d = module_to_descriptor(mod)
        back = make_module(mod.ring, d)
        assert back.orders == mod.orders
        for a, b in zip(back.actions, mod.actions):
            assert np.array_equal(a, b)


def test_presentation_descriptor():
    # presentation matrix for Z/2 over Z/4: one generator, relation 2g
    m = make_module(Z4, {"presentation": [[2]]})
    assert m.orders == (2,)


# ut3:f2 has basis e00, e01, e02, e11, e12, e22; e01 (index 1) is nilpotent,
# so changing its action leaves the unit acting as the identity and breaks
# only the ring relations.  Rank 1 (6 generators) is checked by einsum,
# rank 12 (72 generators) by the sparse products.
@pytest.mark.parametrize("rank", [1, 12])
def test_module_breaking_a_ring_relation_is_rejected(rank):
    free = free_module(UT3, rank)
    assert (free.ngens > modules.SPARSE_CHECK_MIN_GENS) == (rank == 12)
    acts = [a.copy() for a in free.actions]
    acts[1][0, 0] ^= 1
    with pytest.raises(ValidationError, match=re.escape(
            "action violates the ring relations at basis pair (1, 0)")):
        FgModule(UT3, free.orders, tuple(acts)).validate()


@pytest.mark.parametrize("rank", [1, 12])
def test_map_breaking_equivariance_is_rejected(rank):
    free = free_module(UT3, rank)
    mat = np.eye(free.ngens, dtype=np.int64)
    mat[0, 1] ^= 1
    with pytest.raises(ValidationError, match="matrix does not commute with ring action 0"):
        ModuleMap(free, free, mat).validate()


def _outcome(check, arg):
    try:
        check(arg)
    except ValidationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("ring", [UT3, UT2_F3], ids=["ut3:f2", "ut2:f3"])
def test_sparse_and_einsum_checks_report_the_same_failure(ring, monkeypatch):
    rng = np.random.default_rng(5)
    m = ring.modulus
    free = free_module(ring, 3)
    seen = set()
    for trial in range(60):
        acts = [a.copy() for a in free.actions]
        mat = np.eye(free.ngens, dtype=np.int64)
        if trial:
            for _ in range(rng.integers(1, 3)):
                a, i, j = rng.integers(ring.rank), *rng.integers(free.ngens, size=2)
                acts[a][i, j] = (acts[a][i, j] + rng.integers(1, m)) % m
            i, j = rng.integers(free.ngens, size=2)
            mat[i, j] = (mat[i, j] + rng.integers(1, m)) % m
        broken = FgModule.__new__(FgModule)
        broken.ring, broken.orders, broken.actions, broken.label = ring, free.orders, tuple(acts), ""
        f = ModuleMap(free, free, mat)
        for check, arg in ((FgModule.validate, broken), (ModuleMap.validate, f)):
            monkeypatch.setattr(modules, "SPARSE_CHECK_MIN_GENS", 0)
            sparse = _outcome(check, arg)
            monkeypatch.setattr(modules, "SPARSE_CHECK_MIN_GENS", 10**9)
            assert sparse == _outcome(check, arg)
            if not trial:
                assert sparse is None
            seen.add(sparse)
    assert len(seen) > 3


def _rank_one_ring(m, c):
    """Z/m with b_0 b_0 = c b_0 (c a unit mod m); its unit is c^-1 b_0."""
    from ghostdim.rings import Ring, _validate_ring

    ring = Ring(name=f"z{m}c{c}", backend="zmod", modulus=m, rank=1,
                sc=np.full((1, 1, 1), c, dtype=np.int64),
                unit=np.array([pow(c, -1, m)], dtype=np.int64))
    _validate_ring(ring)
    return ring


@st.composite
def _rank_one_case(draw):
    """A rank-1 ring, an unchecked module, and an unchecked map between two checked modules."""
    m = draw(st.sampled_from([4, 6, 8, 9, 12]))
    units = [u for u in range(1, m) if math.gcd(u, m) == 1]
    c = draw(st.sampled_from(units))
    ring = _rank_one_ring(m, c)
    divisors = [d for d in range(2, m + 1) if m % d == 0]

    def matrix(rows, cols):
        return np.array(draw(st.lists(st.integers(0, m - 1), min_size=rows * cols,
                                      max_size=rows * cols)), dtype=np.int64).reshape(rows, cols)

    def corrupt(a):
        if a.size and draw(st.booleans()):
            i, j = draw(st.integers(0, a.shape[0] - 1)), draw(st.integers(0, a.shape[1] - 1))
            a = a.copy()
            a[i, j] = (a[i, j] + draw(st.integers(1, m - 1))) % m
        return a

    def valid_action(orders):
        # c I plus multiples of d_i in row i is well defined and unital
        n = len(orders)
        return (c * np.eye(n, dtype=np.int64) + np.asarray(orders, dtype=np.int64)[:, None] * matrix(n, n)) % m

    def action(orders):
        valid = valid_action(orders)
        kind = draw(st.sampled_from(["valid", "corrupted", "unit-multiple", "random"]))
        if kind == "corrupted":
            return corrupt(valid)
        if kind == "unit-multiple":
            return (draw(st.sampled_from(units)) * valid) % m
        return valid if kind == "valid" else matrix(len(orders), len(orders))

    orders = tuple(draw(st.lists(st.sampled_from(divisors), max_size=4)))
    mod = FgModule.__new__(FgModule)
    mod.ring, mod.orders, mod.actions, mod.label = ring, orders, (action(orders),), ""

    def checked_module():
        ords = tuple(draw(st.lists(st.sampled_from(divisors), max_size=4)))
        mod = FgModule(ring, ords, (valid_action(ords),))
        mod.validate()
        return mod

    src, tgt = checked_module(), checked_module()
    # multiples of d_i / gcd(d_i, e_j) in entry (i, j) are well defined
    step = np.array([[d // math.gcd(d, e) for e in src.orders] for d in tgt.orders],
                    dtype=np.int64).reshape(tgt.ngens, src.ngens)
    valid = (step * matrix(tgt.ngens, src.ngens)) % m
    kind = draw(st.sampled_from(["valid", "corrupted", "random"]))
    mat = valid if kind == "valid" else corrupt(valid) if kind == "corrupted" else matrix(tgt.ngens, src.ngens)
    return mod, ModuleMap(src, tgt, mat)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_rank_one_case())
def test_rank_one_checks_decide_as_the_full_checks(case):
    """Over a rank-1 ring the unit and well-definedness checks imply the rest."""
    mod, f = case
    assert _outcome(FgModule.validate, mod) == _outcome(validate_reference._validate_module, mod)
    assert _outcome(ModuleMap.validate, f) == _outcome(validate_reference._validate_map, f)
