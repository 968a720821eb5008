"""Bounded chain complexes with certified-projective terms.

These are the concrete model of compact objects: a complex knows its ring,
its degree range, a module for every degree and the differentials between
them.  Strict chain maps modulo chain homotopy represent morphisms in the
homotopy category, which agrees with the derived category on bounded
complexes of projectives.  A term is certified iff it is structurally free
(is_free_module, zero included) or carries a ProjectivityCertificate, which
validate() checks; free terms carry none, and a sum of a free and a
certified term gets the block certificate with an identity block.

Sign conventions (fixed once, used everywhere):

* suspension shifts degrees up by one and negates the differential;
* cone(f: X -> Y) has terms Y_k + X_{k-1} and d(y, x) = (dy + fx, -dx).

All homotopy questions (nullity, chain-map solving, factorizations through
cones) are linear systems over the base arithmetic and go through
:class:`MapSystem`, which poses each block of unknowns and each equation as
sparse triples on one linalg.Congruences as it is described, and asks it
for a solution or the kernel.  The system's format stays in linalg.

The zero terms of every complex over a ring, and every zero subquotient
over it (zero homology, a zero kernel), are one module kept on the ring
(modules.zero_module).

Complex, ChainMap and Homotopy follow the validation policy of
:mod:`ghostdim.modules`: constructors only build, and validate() checks in
full (Complex.validate checks its terms too).  It runs at the trust boundary
(complex_from_dict, chain_map_from_dict), in the certificates
(check_null_homotopy checks each h_k as a module map; Equivalence checks
its chain maps), and on the solutions of chain_map_generators.  Cones,
sums, suspensions and the equivalences below are formulas on blocks,
proved at each site.  A cone is its complex and the split of each
term: its block maps are slices of the identity, formed when read.

Homology is computed once per content, not once per complex or degree.  A
ghost tower forms no homology for its checks beyond its stages' own: the
ghost check of a stage solves against the differential of the next stage,
whose homology is formed only if the tower goes on from it (see
ghosts.universal_ghost).  Complexes built apart, or shifted, can still have
the same content, so Complex.homology first looks H_k up by a digest of
everything _homology_at reads: the ring (name, backend, modulus, structure
constants, unit and declared simples), term k (its orders and action
matrices), the orders of term k-1, and the shapes and bytes of d_k and
d_(k+1) (each d_k digested once per complex).  The degree is not read: H_k
is labelled "H" at every degree, so S^n X shares H_(k+n) with H_k of X
when the suspension leaves d unchanged (n even, or over F_2).
_homology_at is deterministic in exactly these inputs, so a shared result
is bit-identical to a fresh one.  A shared H_k (a modules.Subquotient)
lives as long as some complex holds it (a weak-valued table, no size limit
to tune) and its arrays are read-only.
"""

from __future__ import annotations

import weakref
from collections import namedtuple
from dataclasses import dataclass

# The blake2b that hashlib re-exports.  Importing hashlib would also load
# OpenSSL, whose hashes go unused here: 3.6 MB more resident memory.
from _blake2 import blake2b

import numpy as np

from . import linalg
from .errors import ParseError, ValidationError
from .linalg import as_matrix, eye, zeros
from .modules import (
    FgModule,
    ModuleMap,
    ProjectivityCertificate,
    _cover,
    _kept,
    _syzygy,
    _zero_subquotient,
    free_map,
    free_module,
    hom_congruences,
    is_free_module,
    is_projective,
    kernel_generators,
    make_module,
    module_to_descriptor,
    module_unit_columns,
    subquotient,
    zero_module,
)
from .rings import ring_to_dict


def direct_sum_modules(a, b, label=""):
    """a + b: block-diagonal actions satisfy the axioms blockwise."""
    orders = a.orders + b.orders
    acts = []
    for t in range(a.ring.rank):
        blk = zeros(a.ngens + b.ngens, a.ngens + b.ngens)
        blk[: a.ngens, : a.ngens] = a.actions[t]
        blk[a.ngens :, a.ngens :] = b.actions[t]
        acts.append(blk)
    return FgModule(ring=a.ring, orders=orders, actions=tuple(acts), label=label or f"{a.label}+{b.label}")


class Complex:
    """A bounded complex.  Immutable once built; derived data is cached."""

    def __init__(self, ring, lo, hi, terms, diffs, certs=None, name=""):
        self.ring = ring
        self.lo = lo
        self.hi = hi
        self._terms = dict(terms)
        self._diffs = {k: as_matrix(d) for k, d in diffs.items()}
        self.name = name
        self._zero = zero_module(ring)
        self._cache = {}
        self.certs = {k: c for k, c in (certs or {}).items() if c is not None}

    @classmethod
    def zero(cls, ring):
        return cls(ring, 0, -1, {}, {})

    def term(self, k):
        return self._terms.get(k, self._zero)

    def diff(self, k):
        """Matrix of d_k: term(k) -> term(k-1); correctly shaped zeros if absent."""
        d = self._diffs.get(k)
        if d is None:
            return zeros(self.term(k - 1).ngens, self.term(k).ngens)
        return d

    def degrees(self):
        return range(self.lo, self.hi + 1)

    @property
    def certified(self):
        """Every term is structurally free or carries a certificate."""
        return all(k in self.certs or is_free_module(t) for k, t in self._terms.items())

    @property
    def length(self):
        return max(self.hi - self.lo, 0)

    @property
    def is_zero(self):
        return all(self.term(k).is_zero for k in self.degrees())

    def validate(self):
        """Terms, differentials (module maps with d.d = 0) and certificates."""
        for k in self.degrees():
            t = self.term(k)
            if not t.ring.same_ring(self.ring):
                raise ValidationError(f"term {k} lives over {t.ring.name}")
            t.validate()
        for k in self.degrees():
            d = self.diff(k)
            if d.shape != (self.term(k - 1).ngens, self.term(k).ngens):
                raise ValidationError(f"differential {k} has shape {d.shape}")
            ModuleMap(self.term(k), self.term(k - 1), d).validate()
            dd = self.diff(k - 1) @ d
            if linalg.reduce_coords(dd, self.term(k - 2).orders).any():
                raise ValidationError(f"d.d != 0 at degree {k}")
        for cert in self.certs.values():
            cert.validate()

    # -- derived data ------------------------------------------------------

    def homology(self):
        if "homology" not in self._cache:
            diffs = _diff_digests(self)
            self._cache["homology"] = {k: _shared_homology(self, k, diffs) for k in self.degrees()}
        return self._cache["homology"]

    def homology_at(self, k):
        if self.lo <= k <= self.hi:
            return self.homology()[k]
        return _zero_subquotient(self.ring, self.term(k))

    def cache_get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def __repr__(self):
        nm = self.name or "C"
        return f"{nm}[{self.lo}..{self.hi}]@{self.ring.name}"


def _homology_at(cx, k):
    """H_k = cycles / boundaries, a Subquotient of term k over cx.ring,
    labelled "H" at every degree (a zero H_k is the ring's zero module)."""
    term = cx.term(k)
    # a zero term has no cycles to find
    cyc = kernel_generators(cx.diff(k), term, cx.term(k - 1)) if term.ngens else zeros(0, 0)
    # cycles and boundaries are submodules, so H_k gets the induced action
    return subquotient(cx.ring, term, cyc, linalg.reduce_coords(cx.diff(k + 1), term.orders), "H")


# H_k of every complex built in this process, by content digest.  An entry
# lives as long as some complex's homology cache holds it.
_SHARED_HOMOLOGY = weakref.WeakValueDictionary()


def _digest(obj, build):
    """A content digest kept on obj (a ring or module, immutable once built)."""
    def digest():
        h = blake2b(digest_size=32)
        build(h)
        return h.digest()
    return _kept(obj, "_digest", digest)


def _update_array(h, a):
    a = np.ascontiguousarray(a)
    h.update(repr((a.dtype.str, a.shape)).encode())
    h.update(memoryview(a))


def _ring_digest(ring):
    def build(h):
        h.update(repr((ring.name, ring.backend, ring.modulus, ring.rank)).encode())
        _update_array(h, ring.sc)
        _update_array(h, ring.unit)
        for s in ring.simples or ():
            h.update(repr(s.label).encode())
            h.update(_module_digest(s))
    return _digest(ring, build)


def _module_digest(mod):
    def build(h):
        h.update(repr(mod.orders).encode())
        for a in mod.actions:
            _update_array(h, a)
    return _digest(mod, build)


def _diff_digests(cx):
    """Digest of every d_k that H_lo..H_hi read, each computed once: {k: digest}."""
    out = {}
    for k in range(cx.lo, cx.hi + 2):
        h = blake2b(digest_size=32)
        _update_array(h, cx.diff(k))
        out[k] = h.digest()
    return out


def _homology_key(cx, k, diffs):
    """Digest of everything _homology_at(cx, k) reads; diffs[j] digests d_j."""
    h = blake2b(digest_size=32)
    h.update(_ring_digest(cx.ring))
    h.update(repr(cx.term(k - 1).orders).encode())
    h.update(_module_digest(cx.term(k)))
    h.update(diffs[k])
    h.update(diffs[k + 1])
    return h.digest()


def _shared_homology(cx, k, diffs):
    """_homology_at(cx, k), computed once for all complexes with the same content."""
    key = _homology_key(cx, k, diffs)
    found = _SHARED_HOMOLOGY.get(key)
    if found is not None:
        return found
    hd = _homology_at(cx, k)
    for a in (hd.lift, hd._gens, hd._proj, *hd.module.actions):
        a.flags.writeable = False
    return _SHARED_HOMOLOGY.setdefault(key, hd)


# ---------------------------------------------------------------------------
# Chain maps and homotopies
# ---------------------------------------------------------------------------

class ChainMap:
    """A strict degree-zero chain map: d . f = f . d exactly."""

    def __init__(self, src, tgt, mats):
        self.src = src
        self.tgt = tgt
        self.mats = {}
        for k, mat in mats.items():
            mat = as_matrix(mat, rows=tgt.term(k).ngens, cols=src.term(k).ngens)
            mat = linalg.reduce_coords(mat % tgt.ring.modulus, tgt.term(k).orders)
            if mat.any():
                self.mats[k] = mat

    def component(self, k):
        mat = self.mats.get(k)
        if mat is None:
            return zeros(self.tgt.term(k).ngens, self.src.term(k).ngens)
        return mat

    def validate(self):
        if not self.src.ring.same_ring(self.tgt.ring):
            raise ValidationError("chain map across different rings")
        lo = min(self.src.lo, self.tgt.lo)
        hi = max(self.src.hi, self.tgt.hi)
        for k in range(lo, hi + 1):
            ModuleMap(self.src.term(k), self.tgt.term(k), self.component(k)).validate()
            lhs = self.tgt.diff(k) @ self.component(k)
            rhs = self.component(k - 1) @ self.src.diff(k)
            if linalg.reduce_coords(lhs - rhs, self.tgt.term(k - 1).orders).any():
                raise ValidationError(f"does not commute with differentials at degree {k}")

    @property
    def is_zero(self):
        return not self.mats

    def __matmul__(self, other):
        mats = {}
        for k in range(min(other.src.lo, self.tgt.lo), max(other.src.hi, self.tgt.hi) + 1):
            mats[k] = self.component(k) @ other.component(k)
        return ChainMap(other.src, self.tgt, mats)

    def __add__(self, other):
        mats = {}
        for k in set(self.mats) | set(other.mats):
            mats[k] = self.component(k) + other.component(k)
        return ChainMap(self.src, self.tgt, mats)

    def __sub__(self, other):
        mats = {}
        for k in set(self.mats) | set(other.mats):
            mats[k] = self.component(k) - other.component(k)
        return ChainMap(self.src, self.tgt, mats)

    def __neg__(self):
        return ChainMap(self.src, self.tgt, {k: -v for k, v in self.mats.items()})

    def __repr__(self):
        return f"ChainMap({self.src!r} -> {self.tgt!r})"


def identity_chain(cx):
    return ChainMap(cx, cx, {k: eye(cx.term(k).ngens) for k in cx.degrees()})


def zero_chain(src, tgt):
    return ChainMap(src, tgt, {})


class Homotopy:
    """Degree +1 maps h with  target relation  f = d h + h d."""

    def __init__(self, src, tgt, mats):
        self.src = src
        self.tgt = tgt
        self.mats = {}
        for k, mat in mats.items():
            mat = as_matrix(mat, rows=tgt.term(k + 1).ngens, cols=src.term(k).ngens)
            mat = linalg.reduce_coords(mat % tgt.ring.modulus, tgt.term(k + 1).orders)
            if mat.any():
                self.mats[k] = mat

    def component(self, k):
        mat = self.mats.get(k)
        if mat is None:
            return zeros(self.tgt.term(k + 1).ngens, self.src.term(k).ngens)
        return mat

    def validate(self):
        for k in self.mats:
            ModuleMap(self.src.term(k), self.tgt.term(k + 1), self.component(k)).validate()

    def bounds(self, f):
        """Check  f = d h + h d  exactly."""
        for k in range(min(f.src.lo, f.tgt.lo) - 1, max(f.src.hi, f.tgt.hi) + 2):
            acc = self.tgt.diff(k + 1) @ self.component(k) + self.component(k - 1) @ f.src.diff(k)
            if linalg.reduce_coords(acc - f.component(k), f.tgt.term(k).orders).any():
                return False
        return True


def check_null_homotopy(f, h):
    h.validate()
    if not h.bounds(f):
        raise ValidationError("claimed null-homotopy fails f = dh + hd")


# ---------------------------------------------------------------------------
# The linear-system engine for maps between complexes
# ---------------------------------------------------------------------------

# The unknowns of U_k: src -> tgt for one (family, degree), columns off..off+size:
# U[i, j] at off + j * tgt.ngens + i (column-major), or, out of a free source,
# the images T of its module generators, U[:, (j, tt)] = A^tt T[:, j].
_Block = namedtuple("_Block", "off size src tgt free")


class MapSystem:
    """Joint linear system over unknown families of degreewise module maps.

    A family (src, tgt, shift) stands for unknown maps U_k: src_k -> tgt_{k+shift}
    for every degree where both ends are nonzero.  Equations are matrix
    identities  sum_i  pre_i @ U_{k_i} @ post_i = rhs,  read entrywise as
    congruences modulo the target row orders.

    The system is posed on one linalg.Congruences while it is described:
    add_family lays out a block of unknowns per degree (the block table
    `blocks`, {family: {k: _Block}}) and poses its Hom rows, and
    add_equation poses its rows, so the rows follow the order of the calls.

    Every homotopy question is posed through two builders, which hold the
    sign and degree conventions once:

    * add_chain_map_equations: a family U is a chain map, d U_k = U_(k-1) d;
    * add_homotopy_equations: left = sum pre.U.post + d h + h d for a new
      family h, over the ChainMaps pre and post of each listed family U.

    Maps out of a free module are parametrized directly by the images of
    its module generators (no constraints at all), which keeps the systems
    rank-of-the-algebra-squared smaller than the naive group-coordinate
    encoding; other blocks get explicit well-definedness and equivariance
    rows.  Equations whose domain is free are likewise restricted to module
    generators.
    """

    def __init__(self, ring):
        self.ring = ring
        self.m = ring.modulus
        self.eqs = linalg.Congruences(0, ring.modulus)
        self.blocks = {}

    def add_family(self, name, src, tgt, shift=0):
        """Lay out the blocks of a family; a block out of a non-free source poses its Hom rows."""
        rank = self.ring.rank
        blocks = self.blocks[name] = {}
        for k in range(min(src.lo, tgt.lo - shift), max(src.hi, tgt.hi - shift) + 1):
            s, t = src.term(k), tgt.term(k + shift)
            if s.is_zero or t.is_zero:
                continue
            free = is_free_module(s)
            size = (s.ngens // rank if free else s.ngens) * t.ngens
            off = self.eqs.unknowns(size)
            blocks[k] = _Block(off, size, s, t, free)
            if not free:
                hom_congruences(self.eqs, s, t, off)

    def add_equation(self, tgt_term, src_term, rhs, terms):
        """Pose sum pre @ U_k @ post = rhs; terms: list of (family_name, degree, pre, post).

        Entry (a, b) is row b * pre.rows + a of the equation's block, so a
        term pre @ U_k @ post adds the triples of kron(post.T, pre) (the
        column-major vectorization) at the block's columns; out of a free
        source it is the sum over tt of kron(post[tt::rank].T, pre A^tt).
        """
        m, rank = self.m, self.ring.rank
        rhs = as_matrix(rhs, rows=tgt_term.ngens, cols=src_term.ngens)
        restrict = None
        if is_free_module(src_term) and rank > 1:
            # maps out of a free module agree iff they agree on generators
            restrict = module_unit_columns(self.ring, src_term.ngens // rank)
            rhs = (rhs @ restrict) % m
        if rhs.size == 0:
            return
        self.eqs.block(np.tile(tgt_term.orders, rhs.shape[1]), rhs.T)
        for name, k, pre, post in terms:
            blk = self.blocks[name].get(k)
            if blk is None:
                continue  # unknown block is identically zero there
            pre = as_matrix(pre, rows=tgt_term.ngens, cols=blk.tgt.ngens) % m
            post = as_matrix(post, rows=blk.src.ngens, cols=src_term.ngens)
            post = (post if restrict is None else post @ restrict) % m
            if blk.free:
                pieces = [((pre @ blk.tgt.actions[tt]) % m, post[tt::rank]) for tt in range(rank)]
            else:
                pieces = [(pre, post)]
            for left, right in pieces:
                rows, cols, vals = linalg.kron_nonzeros(right.T, left)
                self.eqs.add(rows, blk.off + cols, vals)

    def add_chain_map_equations(self, name, src, tgt):
        """A family U: src -> tgt of degree 0 that commutes with d."""
        self.add_family(name, src, tgt)
        for k in range(min(src.lo, tgt.lo), max(src.hi, tgt.hi) + 1):
            below = tgt.term(k - 1)
            if below.is_zero or src.term(k).is_zero:
                continue
            self.add_equation(
                below,
                src.term(k),
                zeros(below.ngens, src.term(k).ngens),
                [
                    (name, k, tgt.diff(k), eye(src.term(k).ngens)),
                    (name, k - 1, -eye(below.ngens), src.diff(k)),
                ],
            )

    def add_homotopy_equations(self, hname, left, via=()):
        """left = sum pre.U.post + d h + h d, h a new degree +1 family hname.

        via lists (family, pre, post) with ChainMaps pre and post.  A degree
        where either end of left is zero carries no equation: left_k is an
        empty matrix there.
        """
        src, tgt = left.src, left.tgt
        self.add_family(hname, src, tgt, shift=1)
        for k in range(min(src.lo, tgt.lo), max(src.hi, tgt.hi) + 1):
            tgt_term = tgt.term(k)
            src_term = src.term(k)
            if tgt_term.is_zero or src_term.is_zero:
                continue
            self.add_equation(
                tgt_term,
                src_term,
                left.component(k),
                [(name, k, pre.component(k), post.component(k)) for name, pre, post in via] + [
                    (hname, k, tgt.diff(k + 1), eye(src_term.ngens)),
                    (hname, k - 1, eye(tgt_term.ngens), src.diff(k)),
                ],
            )

    def solve(self):
        """One solution as {family: {k: matrix}}, or None."""
        flat = self.eqs.solve()
        return None if flat is None else self._unpack(flat)

    def kernel(self):
        """Generators of the solution space of the homogeneous system."""
        gens = self.eqs.kernel()
        return [self._unpack(gens[:, c]) for c in range(gens.shape[1])]

    def _unpack(self, flat):
        out = {}
        for name, blocks in self.blocks.items():
            out[name] = {}
            for k, (off, size, s, t, free) in blocks.items():
                x = flat[off : off + size]
                out[name][k] = (free_map(s, t, x.reshape(-1, t.ngens).T).mat if free
                                else x.reshape(s.ngens, t.ngens).T)
        return out


def null_homotopy(f):
    """Solve f = dh + hd; returns a verified Homotopy or None.

    The underlying diagonalization is a complete decision procedure: None
    means the finite linear system has no solution.
    """
    sys = MapSystem(f.src.ring)
    sys.add_homotopy_equations("h", f)
    sol = sys.solve()
    if sol is None:
        return None
    h = Homotopy(f.src, f.tgt, sol["h"])
    check_null_homotopy(f, h)
    return h


def chain_map_generators(src, tgt):
    """Generators of the group of strict chain maps src -> tgt."""
    sys = MapSystem(src.ring)
    sys.add_chain_map_equations("f", src, tgt)
    out = []
    for sol in sys.kernel():
        cm = ChainMap(src, tgt, sol["f"])
        cm.validate()
        if not cm.is_zero:
            out.append(cm)
    return out


# ---------------------------------------------------------------------------
# Suspension and cones
# ---------------------------------------------------------------------------

def suspend(cx, times=1):
    """Shift degrees up by `times` and scale differentials by (-1)^times (still a complex)."""
    if times == 0:
        return cx
    sign = -1 if times % 2 else 1
    terms = {k + times: cx.term(k) for k in cx.degrees() if not cx.term(k).is_zero}
    diffs = {k + times: (sign * cx.diff(k)) % cx.ring.modulus for k in cx.degrees()}
    certs = {k + times: c for k, c in cx.certs.items()}
    return Complex(cx.ring, cx.lo + times, cx.hi + times, terms, diffs, certs=certs,
                   name=f"S^{times}({cx.name})" if cx.name else "")


def prefix_inclusion(x, w):
    """The chain map x -> w onto the leading coordinates of each term of w.

    A chain map whenever the x columns of every d_w are [d_x; 0]: the
    inclusion of Y into cone(f: X -> Y), the universal ghost, and the tower
    composite g_n (the prefix layout of ghosts.Tower).
    """
    return ChainMap(x, w, {k: np.eye(w.term(k).ngens, x.term(k).ngens, dtype=np.int64)
                           for k in x.degrees()})


@dataclass
class ConeData:
    """cone(f: X -> Y) and its block maps.  C_k = Y_k + X_(k-1) splits at
    n_Y(k) = Y_k.ngens, so each block injection and projection is a slice of
    the identity there (zero-sized outside the cone's support)."""

    f: ChainMap
    cone: Complex

    def _split(self, k):
        return self.f.tgt.term(k).ngens, self.cone.term(k).ngens

    def it(self, k):
        """Y_k -> C_k."""
        ny, n = self._split(k)
        return np.eye(n, ny, dtype=np.int64)

    def ish(self, k):
        """X_(k-1) -> C_k."""
        ny, n = self._split(k)
        return np.eye(n, n - ny, -ny, dtype=np.int64)

    def pt(self, k):
        """C_k -> Y_k."""
        ny, n = self._split(k)
        return np.eye(ny, n, dtype=np.int64)

    def psh(self, k):
        """C_k -> X_(k-1)."""
        ny, n = self._split(k)
        return np.eye(n - ny, n, ny, dtype=np.int64)

    def connecting(self):
        """C -> S X, (y, x) -> x: a chain map as d_(SX) = -d_X."""
        return ChainMap(self.cone, suspend(self.f.src), {k: self.psh(k) for k in self.cone.degrees()})


def cone(f, name=""):
    """Mapping cone of f: X -> Y, with its block maps (ConeData).

    Built unchecked: the terms are direct sums, and d = [[d, f], [0, -d]]
    has d.d = [[0, d f - f d], [0, 0]] = 0 for a chain map f.
    """
    x, y = f.src, f.tgt
    ring = x.ring
    lo = min(y.lo, x.lo + 1)
    hi = max(y.hi, x.hi + 1)
    terms = {k: direct_sum_modules(y.term(k), x.term(k - 1), label=f"C{k}") for k in range(lo, hi + 1)}
    diffs = {}
    for k in range(lo, hi + 1):
        # d(y, x) = (dy + fx, -dx)
        top = np.concatenate([y.diff(k), f.component(k - 1)], axis=1)
        bot = np.concatenate(
            [zeros(x.term(k - 2).ngens, y.term(k).ngens), (-x.diff(k - 1)) % ring.modulus], axis=1
        )
        diffs[k] = np.concatenate([top, bot], axis=0)
    certs = {k: _sum_certificate(terms[k], y.term(k), y.certs.get(k), x.term(k - 1), x.certs.get(k - 1))
             for k in range(lo, hi + 1)}
    c = Complex(ring, lo, hi, terms, diffs, certs=certs, name=name or f"cone({x.name or 'X'})")
    return ConeData(f=f, cone=c)


def _sum_certificate(total, a, cert_a, b, cert_b):
    """Certificate of total = a + b, or None.

    None when neither summand has a certificate: then both are free and so
    is the sum, or one is uncertified and so is the sum.  Otherwise the
    block sum of the two certificates, a free summand standing in with its
    identity (None if that summand is not free).
    """
    if cert_a is None and cert_b is None:
        return None
    blocks = []
    for mod, cert in ((a, cert_a), (b, cert_b)):
        if cert is None:
            if not is_free_module(mod):
                return None
            ident = ModuleMap(mod, mod, eye(mod.ngens))
            cert = ProjectivityCertificate(cover=mod, pi=ident, section=ident)
        blocks.append(cert)
    cert_a, cert_b = blocks
    cover = direct_sum_modules(cert_a.cover, cert_b.cover)
    na, nb = cert_a.cover.ngens, cert_b.cover.ngens
    pi = zeros(total.ngens, na + nb)
    pi[: a.ngens, :na] = cert_a.pi.mat
    pi[a.ngens :, na:] = cert_b.pi.mat
    sec = zeros(na + nb, total.ngens)
    sec[:na, : a.ngens] = cert_a.section.mat
    sec[na:, a.ngens :] = cert_b.section.mat
    return ProjectivityCertificate(
        cover=cover,
        pi=ModuleMap(cover, total, pi),
        section=ModuleMap(total, cover, sec),
    )


# ---------------------------------------------------------------------------
# Homology orders
# ---------------------------------------------------------------------------

def homology_order(cx, k):
    """|H_k| from orders alone: |C_k| / (|im d_k| |im d_(k+1)|).

    Two diagonal-only eliminations (linalg.subgroup_order); no cycle basis,
    presentation or homology module is formed.
    """
    term = cx.term(k)
    if term.is_zero:
        return 1
    m = cx.ring.modulus
    out = linalg.subgroup_order(cx.diff(k), cx.term(k - 1).orders, m)
    into = linalg.subgroup_order(cx.diff(k + 1), term.orders, m)
    return term.size // (out * into)


# ---------------------------------------------------------------------------
# Resolutions
# ---------------------------------------------------------------------------

def resolution_complex(module, length, name=""):
    """A length-`length` complex of projectives with H_0 = module.

    Uses minimal free covers; stops early by placing a projective kernel as
    the final term, so finite projective dimension yields the honest finite
    resolution.  H_k = 0 for 0 < k < length; H_length is the last syzygy.
    Each d_k is a kernel inclusion after a cover map, so d.d = 0, and the
    certificates are the splits that split_surjection checked.

    The covers, kernel inclusions and certificates are the module's own
    (modules._syzygy, _cover and is_projective): computed once per module
    and kept on it for as long as it lives, the chain growing to the longest
    length asked for.  Every call builds a fresh Complex from them, so no
    homology or tower cache of a returned complex is tied to the module.
    """
    ring = module.ring
    if module.is_zero:
        return Complex.zero(ring)
    name = name or f"res({module.label})"
    flag, cert = is_projective(module)
    if flag:
        return Complex(ring, 0, 0, {0: module}, {}, certs={0: cert}, name=name)
    if length < 1:
        raise ValidationError("a non-projective module needs length >= 1 to resolve")
    terms = {}
    diffs = {}
    certs = {}
    prev_incl = None
    current = module
    k = 0
    while k <= length:
        if 0 < k < length:
            flag, certs[k] = is_projective(current)
            if flag:
                terms[k] = current
                diffs[k] = prev_incl.mat
                break
        # truncation at k == length: the last term is the cover of the current syzygy
        cover, pi = _cover(current)
        terms[k] = cover
        if prev_incl is not None:
            diffs[k] = linalg.reduce_coords(prev_incl.mat @ pi.mat, prev_incl.tgt.orders)
        if k == length:
            break
        prev_incl = _syzygy(module, k + 1)
        current = prev_incl.src
        if current.is_zero:
            break
        k += 1
    return Complex(ring, 0, max(terms), terms, diffs, certs=certs, name=name)


def free_complex(ring, ranks, name=""):
    """A complex of free modules with zero differentials (nothing to check)."""
    terms = {k: free_module(ring, r) for k, r in ranks.items() if r > 0}
    if not terms:
        return Complex.zero(ring)
    lo, hi = min(terms), max(terms)
    return Complex(ring, lo, hi, terms, {}, name=name)


def module_complex(module, name=""):
    """The module placed in degree 0, with no differential to check.  It is
    a compact object iff it is free or projective (then certified);
    homology-only uses may pass others."""
    return Complex(module.ring, 0, 0, {0: module}, {}, certs={0: is_projective(module)[1]},
                   name=name or module.label)


# ---------------------------------------------------------------------------
# Equivalences
# ---------------------------------------------------------------------------

@dataclass
class Equivalence:
    """Mutually inverse homotopy equivalences with stored witnesses."""

    src: object
    tgt: object
    fwd: ChainMap             # src -> tgt
    bwd: ChainMap             # tgt -> src
    fwd_bwd: Homotopy         # fwd . bwd ~ id_tgt
    bwd_fwd: Homotopy         # bwd . fwd ~ id_src

    def validate(self):
        self.fwd.validate()
        self.bwd.validate()
        check_null_homotopy(self.fwd @ self.bwd - identity_chain(self.tgt), self.fwd_bwd)
        check_null_homotopy(self.bwd @ self.fwd - identity_chain(self.src), self.bwd_fwd)


def split_inclusion_model(cd, q):
    """The equivalence  cone(i) ~ q  for a split inclusion i: A -> B.

    cd is cone(i); every component of i is a coordinate inclusion, and q is
    the complex on B's remaining coordinates, in their order.  With e: q -> B
    embedding those coordinates and r = i^T:
        fwd (b, a) = e^T b,   bwd c = (e c, -tau c),   tau = r d_B e;
    fwd . bwd = id exactly, and bwd . fwd - id = d(-s) + (-s) d for
    s(b, a) = (0, r b).  fwd and bwd are chain maps because i is one and
    i r + e e^T = id degreewise (so d_q = e^T d_B e); the Equivalence's
    validate() checks both maps and both witnesses.
    """
    i, c = cd.f, cd.cone
    b = i.tgt

    def split(k):
        r = i.component(k).T
        return r, eye(b.term(k).ngens)[:, ~r.any(axis=0)]

    fwd, bwd, minus_s = {}, {}, {}
    for k in c.degrees():
        r, e = split(k)
        tau = split(k - 1)[0] @ b.diff(k) @ e
        fwd[k] = e.T @ cd.pt(k)
        bwd[k] = cd.it(k) @ e - cd.ish(k) @ tau
        minus_s[k] = -cd.ish(k + 1) @ r @ cd.pt(k)
    return Equivalence(src=c, tgt=q, fwd=ChainMap(c, q, fwd), bwd=ChainMap(q, c, bwd),
                       fwd_bwd=Homotopy(q, q, {}), bwd_fwd=Homotopy(c, c, minus_s))


# ---------------------------------------------------------------------------
# Duals (free-termed complexes only)
# ---------------------------------------------------------------------------

def dual_free_map(ring, mat, src_rank, tgt_rank):
    """Group matrix of Hom(-, R) applied to a map of free right modules.

    mat: free(src_rank) -> free(tgt_rank) over ring.  The result maps
    free_{R^op}(tgt_rank) -> free_{R^op}(src_rank).
    """
    rk = ring.rank
    units = zeros(src_rank * rk, src_rank)
    for j in range(src_rank):
        units[j * rk : (j + 1) * rk, j] = ring.unit
    values = (mat @ units) % ring.modulus   # column i: image of module generator i
    # functional phi_(j,t) with phi(e_j) = b_t, zero on other copies, sends
    # generator i to sum_s values[j, s, i] b_t b_s = sum_(s,k) values[j, s, i] sc[t, s, k] b_k
    out = np.einsum("jsi,tsk->ikjt", values.reshape(tgt_rank, rk, src_rank), ring.sc) % ring.modulus
    return out.reshape(src_rank * rk, tgt_rank * rk)


def dual_complex(cx):
    """D(X) = Hom(X, R): a complex over the opposite ring; X must be free-termed.

    Hom(-, R) is an additive functor to R^op-modules, so each D(d_k) is a
    module map and D(d) D(d) = D(d d) = 0 up to the signs.
    """
    ring = cx.ring
    op = ring.opposite()
    ranks = {}
    for k in cx.degrees():
        t = cx.term(k)
        if t.is_zero:
            continue
        if not is_free_module(t):
            raise ValidationError("dual_complex needs free terms")
        ranks[k] = t.ngens // ring.rank
    if not ranks:
        return Complex.zero(op)
    lo, hi = -max(ranks), -min(ranks)
    terms = {-k: free_module(op, r) for k, r in ranks.items()}
    diffs = {}
    for k in list(ranks):
        # d^D at degree -k+1 ... build D of d_k: X_k -> X_{k-1}
        if (k - 1) not in ranks and cx.term(k - 1).is_zero:
            continue
        src_rank = ranks.get(k, 0)
        tgt_rank = ranks.get(k - 1, 0)
        if src_rank == 0 or tgt_rank == 0:
            continue
        dmat = dual_free_map(ring, cx.diff(k), src_rank, tgt_rank)
        sign = -1 if (k % 2) else 1
        diffs[-(k - 1)] = (sign * dmat) % ring.modulus
    return Complex(op, lo, hi, terms, diffs, name=f"D({cx.name or 'X'})")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def complex_to_dict(cx):
    return {
        "ring": ring_to_dict(cx.ring),
        "lo": cx.lo,
        "hi": cx.hi,
        "name": cx.name,
        "terms": {str(k): module_to_descriptor(cx.term(k)) for k in cx.degrees()},
        "diffs": {str(k): cx.diff(k).tolist() for k in cx.degrees() if cx.diff(k).size},
    }


def complex_from_dict(data, ring=None):
    """Parse a serialized complex (see complex_to_dict); malformed data raises ParseError."""
    from .rings import make_ring, ring_spec_from_dict

    if not isinstance(data, dict):
        raise ParseError("a complex must be a JSON object")
    for key in ("lo", "hi", "terms") if ring is not None else ("ring", "lo", "hi", "terms"):
        if key not in data:
            raise ParseError(f"complex is missing field {key!r}")
    if not isinstance(data["terms"], dict) or not isinstance(data.get("diffs", {}), dict):
        raise ParseError("complex fields 'terms' and 'diffs' must be JSON objects")
    if ring is None:
        ring = make_ring(ring_spec_from_dict(data["ring"]))
    lo, hi = linalg.parse_int(data["lo"], "complex 'lo'"), linalg.parse_int(data["hi"], "complex 'hi'")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ParseError("complex 'name' must be a string")
    # One term per degree, as complex_to_dict writes them; checked before
    # anything is built for a degree, so a huge range fails fast.
    degrees = {_parse_degree(k, "complex 'terms'"): desc for k, desc in data["terms"].items()}
    if len(degrees) != len(data["terms"]) or len(degrees) != max(hi - lo + 1, 0) or (
            degrees and not lo <= min(degrees) <= max(degrees) <= hi):
        raise ParseError(f"complex 'terms' must have exactly one entry per degree {lo}..{hi}")
    terms = {k: make_module(ring, desc) for k, desc in sorted(degrees.items())}
    diffs = {}
    for kstr, mat in data.get("diffs", {}).items():
        k = _parse_degree(kstr, "complex 'diffs'")
        if not lo <= k <= hi:
            raise ParseError(f"differential {k} lies outside the degrees {lo}..{hi}")
        diffs[k] = linalg.parse_matrix(mat, f"differential {k}",
                                       rows=terms.get(k - 1, zero_module(ring)).ngens,
                                       cols=terms[k].ngens) % ring.modulus
    certs = {k: is_projective(t)[1] for k, t in terms.items()}
    cx = Complex(ring, lo, hi, terms, diffs, certs=certs, name=name)
    cx.validate()
    return cx


def chain_map_to_dict(f):
    return {k: mat.tolist() for k, mat in sorted(f.mats.items())}


def chain_map_from_dict(src, tgt, data):
    """Parse a serialized chain map (see chain_map_to_dict); malformed data raises ParseError."""
    if not isinstance(data, dict):
        raise ParseError("a chain map must be a JSON object")
    mats = {}
    for kstr, mat in data.items():
        k = _parse_degree(kstr, "chain map")
        mats[k] = linalg.parse_matrix(mat, f"chain map component {k}",
                                      rows=tgt.term(k).ngens, cols=src.term(k).ngens)
    f = ChainMap(src, tgt, mats)
    f.validate()
    return f


def _parse_degree(text, where):
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad degree {text!r} in {where}") from None
