import numpy as np
import pytest

import helpers
import tensor_reference as ref
from ghostdim import complexes, modules, tensor_ss
from ghostdim.cli import verify_compact_eq, verify_flatchar, verify_rouquier
from ghostdim.complexes import (ChainMap, Complex, Homotopy, dual_complex, module_complex,
                                resolution_complex, suspend)
from ghostdim.dimensions import module_pdim, standard_battery
from ghostdim.errors import SideMismatch
from ghostdim.ghosts import ghost_tower, pdim_complex
from ghostdim.modules import FgModule, ModuleMap, free_module, make_module
from ghostdim.rings import builtin_ring, zmod
from ghostdim.tensor_ss import (
    fdim_via_ss,
    resolution_filtration,
    tensor_chain_map,
    tensor_complexes,
    tor,
    ucss_filtration,
)

Z4 = zmod(4)
UT2 = builtin_ring("ut2:f2")


def cone2(ring=Z4, scalar=2, name="cone2"):
    r = free_module(ring, 1)
    return Complex(ring, 0, 1, {0: r, 1: r}, {1: np.array([[scalar]])}, name=name)


def test_tensor_unit_law():
    # R (x) Z has the homology of Z, degreewise
    z = cone2(name="z")
    r_cx = module_complex(free_module(Z4, 1))
    t = tensor_complexes(r_cx, z)
    for k in range(-1, 3):
        assert t.total.homology_at(k).module.size == z.homology_at(k).module.size


def test_tensor_cone2_cone2():
    t = tensor_complexes(cone2(), cone2(name="z"))
    t.total.validate()
    assert t.total.homology_at(0).module.size == 2
    assert t.total.homology_at(1).module.size == 4
    assert t.total.homology_at(2).module.size == 2
    # brute-force against exhaustive enumeration of the small total complex
    for k in (0, 1, 2):
        assert helpers.brute_homology_orders(t.total, k) == t.total.homology_at(k).module.size


def test_tensor_zero_factor():
    z = Complex.zero(Z4)
    t = tensor_complexes(cone2(), z)
    assert t.total.is_zero


def test_tensor_side_mismatch():
    s1 = UT2.simples[0]
    with pytest.raises(SideMismatch):
        tensor_complexes(module_complex(s1), module_complex(s1))


def test_tensor_noncommutative_sides():
    # right simple (x) left simple over UT2
    s1 = module_complex(UT2.simples[0])
    left = module_complex(UT2.opposite().simples[0])
    t = tensor_complexes(s1, left)
    t.total.validate()


def test_tor_projective_vanishes():
    assert tor(free_module(Z4, 1), make_module(Z4, {"orders": [2]}), 4) == {0: 2, 1: 1, 2: 1, 3: 1, 4: 1}


def test_tor_periodic_z2():
    m2 = make_module(Z4, {"orders": [2]})
    assert tor(m2, m2, 5) == {s: 2 for s in range(6)}


def test_tor_semisimple_concentrated():
    z6 = zmod(6)
    m = make_module(z6, {"orders": [2]})
    assert tor(m, make_module(z6, {"orders": [3]}), 3) == {0: 1, 1: 1, 2: 1, 3: 1}


def test_tor_balance():
    pairs = [
        (make_module(Z4, {"orders": [2]}), make_module(Z4, {"orders": [2]})),
        (make_module(Z4, {"orders": [2]}), make_module(Z4, {"orders": [4]})),
        (UT2.simples[0], UT2.opposite().simples[0]),
        (UT2.simples[0], UT2.opposite().simples[1]),
    ]
    for m, n in pairs:
        want = {s: h.size for s, h in ref.tor_via_left(m, n, 4).items()}
        assert tor(m, n, 4) == want, (m.label, n.label)


def test_ucss_projective_line_zero():
    x = module_complex(free_module(Z4, 1))
    table = ucss_filtration(x, make_module(Z4, {"orders": [2]}))
    assert table.vanishing_line == 0
    assert table.exhausted


def test_ucss_matches_resolution_route():
    m2 = make_module(Z4, {"orders": [2]})
    x_list = [
        cone2(),
        suspend(cone2()),
        resolution_complex(m2, 2, name="trunc2"),
        resolution_complex(UT2.simples[0], 2, name="resS1"),
    ]
    z_by_ring = {
        id(Z4): [m2, make_module(Z4, {"orders": [4]})],
        id(UT2): [UT2.opposite().simples[0], UT2.opposite().simples[1]],
    }
    compared = 0
    for x in x_list:
        for z in z_by_ring[id(x.ring)]:
            if helpers.total_order(x) * z.size > 2 ** 10:
                continue
            table = ucss_filtration(x, z)
            assert table.exhausted
            e2, line2 = resolution_filtration(x, z)
            assert table.e_infty == e2, (x.name, z.label)
            assert table.vanishing_line == line2
            compared += 1
    assert compared >= 6


def test_ucss_e2_domination():
    # E-infinity orders are bounded by Tor orders when homologies are modules
    m2 = make_module(Z4, {"orders": [2]})
    x = resolution_complex(m2, 3, name="res3")
    # H(X) = m2 at 0 and the syzygy at 3; test a window where only degree 0 matters
    table = ucss_filtration(x, m2)
    tors = tor(m2, m2, 6)
    for (s, t), order in table.e_infty.items():
        if t == s:  # contributions of H_0(X) sit on the diagonal t = s
            assert order <= tors[s]


def test_fdim_matches_pdim_on_small_battery():
    m2 = make_module(Z4, {"orders": [2]})
    cases = [
        module_complex(free_module(Z4, 1)),
        cone2(),
        resolution_complex(m2, 2, name="t2"),
        resolution_complex(m2, 3, name="t3"),
        resolution_complex(UT2.simples[0], 2, name="rs"),
    ]
    for x in cases:
        v1 = pdim_complex(x, 6)
        v2 = fdim_via_ss(x, 6)
        assert v1.same_verdict(v2), (x.name, str(v1), str(v2))


def test_fdim_bound_exhaustion():
    m2 = make_module(Z4, {"orders": [2]})
    x = resolution_complex(m2, 5, name="t5")
    v = fdim_via_ss(x, 2)
    assert v.kind == "at_least" and v.n == 3
    assert pdim_complex(x, 2).kind == "at_least"


def test_balance_symmetry_max_lines():
    # max vanishing line over (X right, Z left) pairs equals the swapped
    # computation over the opposite ring
    ring = UT2
    op = ring.opposite()
    rights = [resolution_complex(s, 2) for s in ring.simples]
    lefts = [s for s in op.simples]
    fwd = 0
    for x in rights:
        for z in lefts:
            fwd = max(fwd, ucss_filtration(x, z).vanishing_line)
    back = 0
    op_rights = [resolution_complex(s, 2) for s in op.simples]
    op_lefts = [s for s in ring.simples]
    for x in op_rights:
        for z in op_lefts:
            back = max(back, ucss_filtration(x, z).vanishing_line)
    assert fwd == back == 1


def test_filtration_table_json():
    table = ucss_filtration(cone2(), make_module(Z4, {"orders": [2]}))
    data = table.to_json()
    assert data["vanishing_line"] == table.vanishing_line
    assert "e_infty" in data


# ---------------------------------------------------------------------------
# The block routine against the block loops it replaced (tensor_reference)
# ---------------------------------------------------------------------------

IDENTITY_RINGS = ("zmod:12", "ut3:f2", "dual:f2", "a2:f2")


def _assert_same_complex(got, want):
    assert (got.lo, got.hi) == (want.lo, want.hi)
    for n in range(got.lo - 1, got.hi + 2):
        assert got.term(n).orders == want.term(n).orders, n
        assert got.diff(n).dtype == want.diff(n).dtype, n
        assert np.array_equal(got.diff(n), want.diff(n)), n


def _assert_same_chain_map(got, want):
    assert got.mats.keys() == want.mats.keys()
    for k, mat in got.mats.items():
        assert mat.dtype == want.mats[k].dtype and np.array_equal(mat, want.mats[k]), k


def _identity_cases(ring):
    """Right complexes X (certified ones get towers) and left test complexes Z."""
    members, _ = standard_battery(ring, 2, seed=0, min_size=25)
    cones = sorted((m.cx for m in members if m.ident.startswith("cone")),
                   key=lambda cx: sum(cx.term(k).ngens for k in cx.degrees()))[:3]
    resolutions = [resolution_complex(s, 2) for s in ring.simples]
    xs = [(cx, True) for cx in cones + resolutions]
    xs += [(module_complex(s), False) for s in ring.simples if not modules.is_free_module(s)]
    op_simples = ring.opposite().simples
    for x, towered in xs:
        zs = [module_complex(s) for s in op_simples]
        if all(modules.is_free_module(x.term(k)) for k in x.degrees()):
            zs.append(dual_complex(x))
        yield x, towered, zs


@pytest.mark.parametrize("name", IDENTITY_RINGS)
def test_tensor_blocks_match_the_reference_loops(name):
    ring = helpers.named_ring(name)
    checked = 0
    for x, towered, zs in _identity_cases(ring):
        depth = 2 if towered else 0
        for z in zs:
            got, want = tensor_complexes(x, z), ref.tensor_complexes(x, z)
            _assert_same_complex(got.total, want.total)
            assert got.blocks.keys() == want.blocks.keys()
            for n, blocks in got.blocks.items():
                assert [(a, b, off) for a, b, _, off in blocks] == \
                    [(a, b, off) for a, b, _, off in want.blocks[n]]
            for s in range(depth):
                g = ghost_tower(x).composite(s)
                _assert_same_chain_map(tensor_chain_map(g, got), ref.tensor_chain_map(g, want))
            checked += 1
    assert checked >= 5


@pytest.mark.parametrize("name", IDENTITY_RINGS)
def test_augmentation_and_columns_match_the_reference_loops(name):
    ring = helpers.named_ring(name)
    checked = 0
    for s in ring.simples:
        x = resolution_complex(s, 1)
        for zm in ring.opposite().simples:
            q = resolution_complex(zm, 2)
            aug0 = tensor_ss._augmentation_map(q, zm)
            got_q, want_q = tensor_complexes(x, q), ref.tensor_complexes(x, q)
            got_z, want_z = tensor_complexes(x, zm), ref.tensor_complexes(x, zm)
            _assert_same_complex(got_q.total, want_q.total)
            _assert_same_chain_map(tensor_ss._tensor_second_map(got_q, got_z, aug0),
                                   ref._tensor_second_map(want_q, want_z, aug0))
            # the coordinates resolution_filtration reads span the column subcomplex
            total = got_q.total
            for q_max in range(q.lo - 1, q.hi + 1):
                ref_sub, ref_incl = ref._column_subcomplex(want_q, q_max)
                for n in total.degrees():
                    keep = tensor_ss._column_coords(got_q, q_max, n)
                    below = tensor_ss._column_coords(got_q, q_max, n - 1)
                    assert ref_sub.term(n).orders == tuple(total.term(n).orders[i] for i in keep)
                    assert np.array_equal(ref_incl.component(n), np.eye(total.term(n).ngens)[:, keep])
                    assert np.array_equal(ref_sub.diff(n), total.diff(n)[np.ix_(below, keep)])
            checked += 1
    assert checked >= len(ring.simples) * len(ring.opposite().simples)


@pytest.mark.parametrize("name", IDENTITY_RINGS)
def test_free_left_tensor_matches_the_reference_builder(name):
    ring = helpers.named_ring(name)
    op = ring.opposite()
    base = ring.base_ring()
    checked = 0
    for s in ring.simples:
        for mod in module_pdim(s, 2)[1]:
            if modules.is_free_module(mod) or mod.is_zero:
                continue
            for rank in (1, 2):
                free = free_module(op, rank)
                got = modules._tensor_free_left(mod, free, base, "t")
                want = ref._tensor_free_left(mod, free, base, "t")
                assert got.module.orders == want.module.orders and got.shape == want.shape
                for a, b in ((got.proj, want.proj), (got.lift, want.lift)):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
                checked += 1
    assert checked >= 2


# The five constructors, which only build; validate() checks what they built.
CONSTRUCTORS = ((FgModule, "__post_init__"), (ModuleMap, "__post_init__"), (ChainMap, "__init__"),
                (Homotopy, "__init__"), (Complex, "__init__"))


def test_everything_the_constructors_build_validates(monkeypatch):
    """Every object the constructors build in four runs passes validate(): fdim
    and pdim (tensors, duals, towers), probes and factorizations, Rouquier
    certificates (cones, suspensions, equivalences) over a rank-3 ring, and the
    tower-free filtration (resolutions, tensor complexes, augmentations)."""
    built = []
    for cls, name in CONSTRUCTORS:
        def record(self, *args, build=getattr(cls, name), **kwargs):
            build(self, *args, **kwargs)
            built.append(self)
        monkeypatch.setattr(cls, name, record)
    assert verify_compact_eq(zmod(12), 4, 0)[0]
    assert verify_flatchar(builtin_ring("ut3:f2"), 2, 0)[0]
    assert verify_rouquier(builtin_ring("ut2:f2"), 3, 0)[0]
    ut3 = builtin_ring("ut3:f2")
    members, _ = standard_battery(ut3, 2, seed=0, min_size=4)
    for mem in members[:4]:
        for zm in ut3.opposite().simples:
            resolution_filtration(mem.cx, zm)
    assert {type(obj) for obj in built} == {cls for cls, _ in CONSTRUCTORS}
    for obj in built:
        obj.validate()


# ---------------------------------------------------------------------------
# The closed form for free factors against the pair cube, and the kernel
# chain from subgroup orders against homology and induced maps
# ---------------------------------------------------------------------------

def _total_gens(cx):
    return sum(cx.term(k).ngens for k in cx.degrees())


def _same_kind(src, tgt):
    return bool(src.free and tgt.free and src.free[0] == tgt.free[0])


@pytest.mark.parametrize("name", ("ut2:f2", "a2:f2", "ut3:f2", "dual:f2", "ut2:f3"))
def test_tensor_map_matches_the_pair_cube_during_fdim(name, monkeypatch):
    closed = []

    def checked(f_mat, g_mat, src, tgt, fn=tensor_ss.tensor_map):
        got = fn(f_mat, g_mat, src, tgt)
        want = ref.tensor_map(f_mat, g_mat, src, tgt)
        assert got.mat.dtype == want.mat.dtype and np.array_equal(got.mat, want.mat)
        closed.append(_same_kind(src, tgt))
        return got

    monkeypatch.setattr(tensor_ss, "tensor_map", checked)
    members, _ = standard_battery(helpers.named_ring(name), 2, seed=0, min_size=8)
    # the reference pair cube is slow on the largest duals: the six smallest
    for cx in sorted((m.cx for m in members), key=_total_gens)[:6]:
        fdim_via_ss(cx, 2)
    assert any(closed)


@pytest.mark.parametrize("name", ("ut2:f2", "ut3:f2", "ut2:f3"))
def test_tensor_map_matches_the_pair_cube_on_every_kind_of_pair(name):
    """Free-right and free-left pairs take the closed form without building
    proj or lift; mixed pairs and zero blocks take the pair cube."""
    ring = helpers.named_ring(name)
    op = ring.opposite()
    m = ring.modulus
    rng = np.random.default_rng(0)
    rights = [free_module(ring, 0), free_module(ring, 1), free_module(ring, 2), *ring.simples]
    lefts = [free_module(op, 0), free_module(op, 1), free_module(op, 2), *op.simples]
    pairs = [(r, l) for r in rights for l in lefts]
    kinds = set()
    for src_pair in pairs:
        for tgt_pair in pairs:
            src, tgt = modules.tensor_modules(*src_pair), modules.tensor_modules(*tgt_pair)
            (ni_s, nj_s), (ni_t, nj_t) = src.shape, tgt.shape
            f_mat = rng.integers(0, m, size=(ni_t, ni_s)).astype(np.int64)
            g_mat = rng.integers(0, m, size=(nj_t, nj_s)).astype(np.int64)
            got = modules.tensor_map(f_mat, g_mat, src, tgt)
            if _same_kind(src, tgt):
                assert src._coords is None and tgt._coords is None
            want = ref.tensor_map(f_mat, g_mat, src, tgt)
            assert got.mat.dtype == want.mat.dtype and np.array_equal(got.mat, want.mat)
            kinds.add((src.free and src.free[0], tgt.free and tgt.free[0],
                       src.module.is_zero or tgt.module.is_zero))
    # free-right, free-left, free source into a presented target, zero blocks
    assert {(False, False, False), (True, True, False), (False, None, False),
            (False, False, True)} <= kinds


# ut2:f3 is hereditary: of its battery only res:M2, the eighth smallest,
# has a kernel chain longer than one.
@pytest.mark.parametrize("name,smallest,chains", (("zmod:12", 6, 3), ("ut3:f2", 6, 3),
                                                  ("dual:f2", 6, 3), ("ut2:f3", 8, 2)))
def test_ucss_orders_match_the_induced_map_route(name, smallest, chains):
    ring = helpers.named_ring(name)
    members, _ = standard_battery(ring, 3, seed=0, min_size=10)
    checked = 0
    for x in sorted((m.cx for m in members), key=_total_gens)[:smallest]:
        for z in tensor_ss.default_tests(x):
            lo, hi = x.lo + z.lo, x.hi + z.hi
            for window in (None, (lo + 1, hi), (lo, lo)):
                got = ucss_filtration(x, z, window=window)
                want = ref.ucss_filtration(x, z, window=window)
                assert got.h_orders == want.h_orders
                assert got.kernel_orders == want.kernel_orders
                assert got.e_infty == want.e_infty
                assert got.vanishing_line == want.vanishing_line
                checked += any(len(chain) > 1 for chain in got.kernel_orders.values())
    assert checked >= chains


@pytest.mark.parametrize("name", ("ut3:f2", "dual:f2", "zmod:12"))
def test_ucss_forms_no_homology_of_the_tensor(name, monkeypatch):
    """Over the compact battery (bound 3), ucss_filtration forms no H_k of
    any X (x) Z it builds, and its h_orders are the orders of those H_k."""
    totals = []
    formed = []
    build, homology_at = tensor_ss.tensor_complexes, complexes._homology_at

    def recorded_tensor(x, z):
        got = build(x, z)
        totals.append(got.total)
        return got

    def recorded_homology_at(cx, k):
        formed.append(cx)               # held, like the totals, so that ids stay unique
        return homology_at(cx, k)

    monkeypatch.setattr(tensor_ss, "tensor_complexes", recorded_tensor)
    monkeypatch.setattr(complexes, "_homology_at", recorded_homology_at)
    members, _ = standard_battery(helpers.named_ring(name), 3, seed=0, min_size=25)
    tables = [(mem.cx, z, ucss_filtration(mem.cx, z))
              for mem in members for z in tensor_ss.default_tests(mem.cx)]
    assert len(totals) == len(tables)
    assert {id(t) for t in totals}.isdisjoint(id(cx) for cx in formed)
    for x, z, table in tables:
        tot = build(x, z).total
        assert table.h_orders == {t: tot.homology_at(t).module.size for t in table.h_orders}
    assert any(v > 1 for *_, table in tables for v in table.h_orders.values())


def test_filtration_depth_counts_the_stages_read():
    ut3 = builtin_ring("ut3:f2")
    members, _ = standard_battery(ut3, 6, 7, min_size=25)
    x = next(m.cx for m in members if m.ident == "cone:5")
    z = ut3.opposite().simples[0]
    fresh = ucss_filtration(x, z).to_json()
    pdim_complex(x, 4)
    assert len(ghost_tower(x).ugs) > fresh["tower_depth"]
    assert ucss_filtration(x, z).to_json() == fresh


# ---------------------------------------------------------------------------
# W_s (x) Z held as pieces against the tensor of the whole stage
# ---------------------------------------------------------------------------

def _orders_complex(ring, orders, diffs, degrees):
    """The complex over the base ring with these term orders and differentials, validated."""
    base = ring.base_ring()
    terms = {n: FgModule(ring=base, orders=tuple(orders[n]),
                         actions=(np.eye(len(orders[n]), dtype=np.int64),)) for n in degrees}
    cx = Complex(base, degrees[0], degrees[-1], terms, diffs)
    cx.validate()
    return cx


def _add_checked_stage(w, cover, add_stage=tensor_ss._StageTensor.add_stage):
    """Add the stage of `cover` to w.  Returns W_s (x) Z and p_s (x) 1 out of the
    new piece into W_(s-1) (x) Z, a complex and a chain map, both validated."""
    ring = cover.src.ring
    prev = _orders_complex(ring, w.orders, w.diffs, w.degrees)
    old = {n: len(o) for n, o in w.orders.items()}
    add_stage(w, cover)
    now = _orders_complex(ring, w.orders, w.diffs, w.degrees)
    # W_s (x) Z = cone(p_s (x) 1): the new block column is [p_s (x) 1; -d of the piece]
    piece = _orders_complex(ring, {n: o[old[n]:] for n, o in w.orders.items()},
                            {n: d[old[n - 1]:, old[n]:] for n, d in w.diffs.items()}, w.degrees)
    p_tensor = ChainMap(suspend(piece, -1), prev,
                        {n - 1: d[:old[n - 1], old[n]:] for n, d in w.diffs.items()})
    p_tensor.validate()
    return now, p_tensor


# Stage sizes roughly double with depth.  Past this many generators in W_s the
# whole tensor and its homology take too long: of ut3:f2's 392 (stage, Z) pairs
# at stages 0 to 3, 208 are under the cap (8 s), while a cap of 400 took 79 s
# already at stages 0 to 2, so the walk stops there.  The other rings are
# checked in full.
PIECE_GENS_CAP = 150


@pytest.mark.parametrize("name, least", (("zmod:12", 292), ("ut3:f2", 208), ("dual:f2", 208),
                                         ("ut2:f3", 300)))
def test_stage_pieces_match_the_tensor_of_the_whole_stage(name, least):
    """Stages 0 to 3 of the bound-4 battery: every stage of W_s (x) Z built from
    pieces is a complex, p_s (x) 1 is a chain map, and each degree has the term
    orders and the homology order of tensor_complexes(W_s, Z)."""
    members, _ = standard_battery(helpers.named_ring(name), 4, seed=0)
    checked = 0
    for mem in members:
        x = mem.cx
        tower = ghost_tower(x)
        depth = 0
        while depth < 4 and _total_gens(tower.composite(depth).tgt) <= PIECE_GENS_CAP:
            depth += 1
        stages = [tower.composite(s).tgt for s in range(depth)]
        for z in tensor_ss.default_tests(x):
            lo = min(cx.lo for cx in [x, *stages]) + z.lo - 1
            hi = max(cx.hi for cx in [x, *stages]) + z.hi + 1
            w = tensor_ss._StageTensor(tensor_complexes(x, z), range(lo, hi + 1))
            for s, stage in enumerate(stages):
                now, _ = _add_checked_stage(w, tower.ug(s).f)
                whole = tensor_complexes(stage, z).total
                for n in w.degrees:
                    assert sorted(now.term(n).orders) == sorted(whole.term(n).orders), (s, n)
                    assert now.homology_at(n).module.size == whole.homology_at(n).module.size, (s, n)
                checked += 1
    assert checked >= least


# The batteries of the ss-oracle benchmark workload: bound 4, seed 7.
SS_ORACLE_RINGS = ("ut3:f2", "dual:f2", "zmod:12", "a3:f2")


def test_resolution_orders_match_the_induced_map_route():
    """The order-only tower-free route gives, (s, t) by (s, t), the E-infinity
    orders and the line of the homology-module route it replaced: on the
    pairs of acceptance criterion 6 and on the ss-oracle batteries against
    every opposite simple."""
    pairs = [(x, z) for _, x, z in helpers.criterion_6_pairs()]
    for name in SS_ORACLE_RINGS:
        ring = builtin_ring(name)
        members, _ = standard_battery(ring, 4, seed=7, min_size=13)
        pairs += [(mem.cx, z) for mem in members for z in ring.opposite().simples]
    deep = 0
    for x, z in pairs:
        got, want = resolution_filtration(x, z), ref.resolution_filtration(x, z)
        assert got == want, (x.name, z.label)
        deep += got[1] > 0
    assert len(pairs) >= 170 and deep >= 40
