"""Brute-force oracles used across the test suite.

Everything here works by exhaustive enumeration of small groups, so it is
independent of the linear-algebra paths it cross-checks.  `named_ring`
also builds zmod:12 and ut2:f3, the test rings that are not builtins.
`cone_triangle` builds the triangle X -> Y -> cone(f) -> SX with its three
homotopies, which only the tests read, and `homology_les_exact` checks its
long exact sequence by orders.  `random_small_complex` draws the random
complexes of acceptance criterion 7.
`induced_map` and `image_subgroup_order` are the homology-module helpers
that the package used before its tower-free filtration read orders only.
`apply_map` and `left_mult` are the image of a vector under a module map
and the left regular action, which only the tests read.
`criterion_6_pairs` lists the pairs that acceptance criterion 6 compares;
tools/bench_timings.py times the same pairs.  `radical_square_zero_spec`
builds the ring specs committed under tests/rings.
"""

import itertools
import random
from dataclasses import dataclass

import numpy as np

from ghostdim import linalg
from ghostdim.complexes import (
    ChainMap,
    Homotopy,
    check_null_homotopy,
    cone,
    free_complex,
    resolution_complex,
    suspend,
    suspend_between,
)
from ghostdim.ghosts import random_chain_map
from ghostdim.linalg import zeros
from ghostdim.modules import ModuleMap, make_module, subgroup_order_in
from ghostdim.rings import builtin_ring, make_ring, ring_spec_from_dict, zmod


def induced_map(f, k):
    """H_k(f) as a ModuleMap between homology modules (a chain map keeps cycles
    and boundaries, so classifying the pushed cycles is a module map)."""
    hs = f.src.homology_at(k)
    ht = f.tgt.homology_at(k)
    if hs.module.is_zero or ht.module.is_zero:
        return ModuleMap(hs.module, ht.module, zeros(ht.module.ngens, hs.module.ngens))
    pushed = linalg.reduce_coords(f.component(k) @ hs.lift, f.tgt.term(k).orders)
    return ModuleMap(hs.module, ht.module, ht.classify(pushed))


def image_subgroup_order(f):
    """Order of the image subgroup of a module map."""
    return subgroup_order_in(f.tgt, f.mat)


def all_group_maps(src_orders, tgt_orders):
    """Every well-defined group matrix tgt x src, one representative each."""
    ns, nt = len(src_orders), len(tgt_orders)
    if ns == 0 or nt == 0:
        yield np.zeros((nt, ns), dtype=np.int64)
        return
    choices = []
    for j in range(ns):
        for i in range(nt):
            d, e = src_orders[j], tgt_orders[i]
            # x * d = 0 mod e  <=>  x multiple of e // gcd(e, d)
            step = e // np.gcd(e, d)
            choices.append(list(range(0, e, step)))
    for combo in itertools.product(*choices):
        mat = np.zeros((nt, ns), dtype=np.int64)
        idx = 0
        for j in range(ns):
            for i in range(nt):
                mat[i, j] = combo[idx]
                idx += 1
        yield mat


def is_equivariant(mat, src, tgt):
    ords = np.asarray(tgt.orders, dtype=np.int64)[:, None] if tgt.ngens else None
    for t in range(src.ring.rank):
        delta = mat @ src.actions[t] - tgt.actions[t] @ mat
        if tgt.ngens and (delta % ords).any():
            return False
    return True


def brute_hom_maps(src, tgt):
    """All module maps src -> tgt by exhaustive search (small modules only)."""
    out = []
    for mat in all_group_maps(src.orders, tgt.orders):
        if is_equivariant(mat, src, tgt):
            out.append(mat)
    return out


def span_of_maps(maps, tgt_orders, m):
    """Order of the group of maps generated by the given matrices."""
    if not maps:
        return 1
    cols = np.stack([mm.reshape(-1) for mm in maps], axis=1)
    orders = list(tgt_orders) * (cols.shape[0] // max(len(tgt_orders), 1)) if tgt_orders else []
    # vectorize column-major consistent with entry (i, j) -> j * nt + i
    return linalg.subgroup_order(
        _embed_cols(cols, orders, m), [m] * cols.shape[0], m
    )


def _embed_cols(cols, orders, m):
    if not orders:
        return cols
    scale = np.array([m // d for d in orders], dtype=np.int64)
    return (cols * scale[:, None]) % m


def apply_map(f, vec):
    """The image of a coordinate vector under a module map."""
    return linalg.reduce_coords(f.mat @ np.asarray(vec, dtype=np.int64), f.tgt.orders)


def left_mult(ring, t):
    """Matrix of left multiplication by basis element t on the regular module."""
    return ring.sc[t].T % ring.modulus


def maps_equal(f, g):
    """Equal as maps: the matrices agree modulo the target's orders."""
    return np.array_equal(
        linalg.reduce_coords(f.mat, f.tgt.orders), linalg.reduce_coords(g.mat, g.tgt.orders)
    )


def total_order(cx):
    """The product of the orders of every term of a complex."""
    n = 1
    for k in cx.degrees():
        n *= cx.term(k).size
    return n


def in_span(v, gens, ambient_orders, m):
    """Is v in the subgroup generated by the columns of gens?"""
    gens = linalg.as_matrix(gens, rows=len(ambient_orders))
    x = linalg.solve_hetero(gens, np.asarray(v, dtype=np.int64).reshape(-1, 1), ambient_orders, m)
    return x is not None


def hom_group_order(src, tgt):
    """|Hom(src, tgt)| by brute enumeration."""
    return len(brute_hom_maps(src, tgt))


def brute_homology_orders(cx, k):
    """Order of H_k by enumerating cycles and boundaries of small complexes."""
    term = cx.term(k)
    if term.is_zero:
        return 1
    d_out = cx.diff(k)
    d_in = cx.diff(k + 1)
    tgt = cx.term(k - 1)
    src = cx.term(k + 1)
    cycles = set()
    for v in linalg.enumerate_group(term.orders, cap=2 ** 14):
        w = linalg.reduce_coords(d_out @ v, tgt.orders) if tgt.ngens else np.zeros(0, dtype=np.int64)
        if not w.any():
            cycles.add(tuple(int(x) for x in v))
    boundaries = set()
    for u in linalg.enumerate_group(src.orders, cap=2 ** 14):
        w = linalg.reduce_coords(d_in @ u, term.orders)
        boundaries.add(tuple(int(x) for x in w))
    return len(cycles) // len(boundaries)


def brute_null_homotopy_exists(f):
    """Exhaustively search for h with f = dh + hd; for tiny complexes only."""
    x, y = f.src, f.tgt
    degs = [k for k in range(x.lo, x.hi + 1) if not x.term(k).is_zero and not y.term(k + 1).is_zero]
    spaces = []
    for k in degs:
        mats = brute_hom_maps(x.term(k), y.term(k + 1))
        spaces.append(mats)
    total = 1
    for s in spaces:
        total *= len(s)
        if total > 2 ** 12:
            raise ValueError("too many candidate homotopies for brute search")
    for combo in itertools.product(*spaces):
        h = {k: mat for k, mat in zip(degs, combo)}
        ok = True
        for k in range(x.lo, x.hi + 1):
            tgt_term = y.term(k)
            if tgt_term.is_zero:
                continue
            acc = np.zeros((tgt_term.ngens, x.term(k).ngens), dtype=np.int64)
            if k in h:
                acc = acc + y.diff(k + 1) @ h[k]
            if k - 1 in h:
                acc = acc + h[k - 1] @ x.diff(k)
            delta = linalg.reduce_coords(acc - f.component(k), tgt_term.orders)
            if delta.any():
                ok = False
                break
        if ok:
            return True
    return False


def named_ring(name):
    """A builtin ring, zmod:12, ut2:f3 (see _ut2_f3), or a<n>rad2:f2 (see
    radical_square_zero_spec)."""
    if name == "ut2:f3":
        return _ut2_f3()
    if name.endswith("rad2:f2"):
        return make_ring(ring_spec_from_dict(radical_square_zero_spec(int(name[1:-7]))))
    return zmod(12) if name == "zmod:12" else builtin_ring(name)


def radical_square_zero_spec(n):
    """The F_2 ring spec of A_n/rad^2, named a<n>rad2:f2: the linear quiver
    1 -> ... -> n with every path of length 2 set to zero.

    The basis is e_1, ..., e_n and then the arrows v -> v + 1, so dim = 2n - 1.
    Products concatenate paths ("first this one, then that one"), as in the
    builtin a<n>:f2, and a product of two arrows is zero.  A Nakayama algebra
    of global dimension n - 1; the simple at v is 1 on e_v and 0 elsewhere.
    """
    paths = [(v, v) for v in range(n)] + [(v, v + 1) for v in range(n - 1)]
    index = {pth: t for t, pth in enumerate(paths)}
    dim = len(paths)
    sc = np.zeros((dim, dim, dim), dtype=np.int64)
    for (a_s, a_t), a in index.items():
        for (b_s, b_t), b in index.items():
            if a_t == b_s and (a_s, b_t) in index:
                sc[a, b, index[(a_s, b_t)]] = 1
    return {
        "backend": "fp_algebra", "name": f"a{n}rad2:f2", "p": 2, "dim": dim,
        "structure_constants": sc.tolist(), "unit": [1] * n + [0] * (n - 1),
        "simples": [{"dim": 1, "actions": [[[int(t == v)]] for t in range(dim)]}
                    for v in range(n)],
    }


def _ut2_f3():
    """T_2(F_3) on the basis (2 e11, e12, e22): the unit is 2 b_0 + b_2, so
    unit coefficients other than 0 and 1 and the signs that F_2 hides show."""
    sc = np.zeros((3, 3, 3), dtype=np.int64)
    sc[0, 0, 0] = 2       # (2 e11)(2 e11) = e11 = 2 b_0
    sc[0, 1, 1] = 2       # (2 e11) e12 = 2 e12
    sc[1, 2, 1] = 1       # e12 e22 = e12
    sc[2, 2, 2] = 1
    return make_ring(ring_spec_from_dict({
        "backend": "fp_algebra", "name": "ut2:f3", "p": 3, "dim": 3,
        "structure_constants": sc.tolist(), "unit": [2, 0, 1],
        "simples": [{"dim": 1, "actions": [[[2]], [[0]], [[0]]]},
                    {"dim": 1, "actions": [[[0]], [[0]], [[1]]]}],
    }))


def shift_identification(sa, a, k, times=1):
    """The canonical iso H_k(sa) = H_{k-times}(a) where sa = S^times a.

    Suspension keeps the cycle and boundary subgroups (negating d does not
    change kernels or images), so classifying the lifted representatives is
    an isomorphism.
    """
    hs = sa.homology_at(k)
    ht = a.homology_at(k - times)
    if hs.module.is_zero:
        return ModuleMap(hs.module, ht.module, zeros(ht.module.ngens, 0))
    return ModuleMap(hs.module, ht.module, ht.classify(hs.lift))


@dataclass
class Triangle:
    """A -> B -> C -> SA with stored null-homotopies of consecutive composites."""

    a: object
    b: object
    c: object
    f: ChainMap
    g: ChainMap
    h: ChainMap
    gf_null: Homotopy
    hg_null: Homotopy
    rot_null: Homotopy          # (Sf) . h ~ 0

    def validate(self):
        for cx in (self.a, self.b, self.c):
            cx.validate()
        for mp in (self.f, self.g, self.h):
            mp.validate()
        check_null_homotopy(self.g @ self.f, self.gf_null)
        check_null_homotopy(self.h @ self.g, self.hg_null)
        sf = suspend_between(self.f, self.h.tgt, suspend(self.b), 1)
        check_null_homotopy(sf @ self.h, self.rot_null)


def cone_triangle(f):
    """The triangle  X -> Y -> C -> SX  of C = cone(f), with its homotopies:
    i.f ~ 0 via h(x) = (0, x), proj.i = 0 exactly, and (Sf).proj ~ 0 via
    H(y, x) = y."""
    cd = cone(f)
    x, y, c = f.src, f.tgt, cd.cone
    proj = cd.connecting()
    return Triangle(
        a=x, b=y, c=c, f=f, g=cd.inclusion(), h=proj,
        gf_null=Homotopy(x, c, {k: cd.ish(k + 1) for k in x.degrees()}),
        hg_null=Homotopy(y, proj.tgt, {}),
        rot_null=Homotopy(c, suspend(y), {k: cd.pt(k) for k in c.degrees() if not c.term(k).is_zero}),
    )


def random_small_complex(ring, rng):
    """A free complex of length at most 1, or the cone of a random map
    between free complexes, sometimes suspended: the random complexes of
    acceptance criterion 7."""
    kind = rng.randrange(3)
    if kind == 0:
        return free_complex(ring, {k: 1 for k in range(rng.choice([1, 2]))})
    a = free_complex(ring, {0: 1, 1: 1} if rng.random() < 0.5 else {0: 1})
    b = free_complex(ring, {0: 1})
    f = random_chain_map(a, b, rng)
    cx = cone(f).cone
    if rng.random() < 0.3:
        cx = suspend(cx, rng.choice([-1, 1]))
    return cx


def homology_les_exact(tri):
    """Check exactness of the homology long exact sequence of a triangle.

    Uses |im| . |im next| = |middle| together with zero composites, which is
    equivalent to exactness for finite groups.
    """
    a, b, c = tri.a, tri.b, tri.c
    lo = min(a.lo, b.lo, c.lo) - 1
    hi = max(a.hi, b.hi, c.hi) + 1
    for k in range(lo, hi + 1):
        f_star = induced_map(tri.f, k)
        g_star = induced_map(tri.g, k)
        conn = shift_identification(tri.h.tgt, a, k) @ induced_map(tri.h, k)
        f_prev = induced_map(tri.f, k - 1)
        # composites vanish
        for left, right in ((f_star, g_star), (g_star, conn)):
            comp = right @ left
            if comp.mat.any():
                return False
        if (f_prev @ conn).mat.any():
            return False
        # order bookkeeping at each of the three spots
        hb = b.homology_at(k).module.size
        hc = c.homology_at(k).module.size
        ha_prev = a.homology_at(k - 1).module.size
        if image_subgroup_order(f_star) * image_subgroup_order(g_star) != hb:
            return False
        if image_subgroup_order(g_star) * image_subgroup_order(conn) != hc:
            return False
        if image_subgroup_order(conn) * image_subgroup_order(f_prev) != ha_prev:
            return False
    return True


CRITERION_6_RINGS = ("zmod:4", "zmod:6", "zmod:8", "zmod:9", "zmod:12", "ut2:f2", "dual:f2", "a2:f2")


def criterion_6_pairs():
    """(ring name, X, Z) for every pair with a small total complex that
    acceptance criterion 6 compares: X runs over truncated resolutions of
    the simples and one random cone, Z over the opposite simples (and one
    cyclic module over Z/m)."""
    for name in CRITERION_6_RINGS:
        ring = builtin_ring(name)
        xs = []
        for s in ring.simples:
            xs.append(resolution_complex(s, 2, name=f"t2:{s.label}"))
            xs.append(resolution_complex(s, 3, name=f"t3:{s.label}"))
        rng = random.Random(11)
        a = free_complex(ring, {0: 1, 1: 1})
        b = free_complex(ring, {0: 1})
        xs.append(cone(random_chain_map(a, b, rng), name="rc").cone)
        zs = list(ring.opposite().simples)
        if ring.backend == "zmod":
            zs.append(make_module(ring, {"orders": [ring.modulus // 2]} if ring.modulus % 2 == 0
                                  else {"orders": [ring.modulus // 3]}))
        for x in xs:
            if x.is_zero:
                continue
            for z in zs:
                if total_order(x) * z.size > 2 ** 10:
                    continue
                yield name, x, z
