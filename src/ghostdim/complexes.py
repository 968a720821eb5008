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
:class:`MapSystem`.

Complex, ChainMap and Homotopy follow the validation policy of
:mod:`ghostdim.modules`: constructors only build, and validate() checks in
full (Complex.validate checks its terms too).  It runs at the trust boundary
(complex_from_dict, chain_map_from_dict), in the certificates
(check_null_homotopy checks each h_k as a module map; Equivalence and
Triangle check their chain maps), and on the solutions of
chain_map_generators.  Cones, fibers, sums, suspensions and the
equivalences below are formulas on blocks, proved at each site.

Homology is computed once per content, not once per complex.  A ghost
tower forms no homology for its checks beyond its stages' own: the ghost
check of a stage reads the homology of the next stage, the very complex
the tower goes on with (see ghosts.universal_ghost).  Complexes built apart
can still have the same content, so Complex.homology first looks H_k up by
a digest of everything _homology_at reads: the ring (name, backend,
modulus, structure constants, unit and declared simples), the degree k,
term k (its orders and action matrices), the orders of term k-1, and the
shapes and bytes of d_k and d_(k+1) (each d_k digested once per complex).
_homology_at is deterministic in exactly these inputs, so a shared result
is bit-identical to a fresh one.  The shared HomologyData lives as long as
some complex holds it (a weak-valued table, no size limit to tune) and its
arrays are read-only.
"""

from __future__ import annotations

import weakref
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
    _hom_constraint_rows,
    _projectivity,
    _reduce_mixed_generators,
    free_cover,
    free_module,
    is_free_module,
    is_projective,
    kernel_of,
    make_module,
    module_to_descriptor,
    module_unit_columns,
)
from .rings import ring_to_dict


def zero_module(ring):
    return FgModule(ring=ring, orders=(), actions=tuple(zeros(0, 0) for _ in range(ring.rank)), label="0")


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
        return _zero_homology(self, k)

    def cache_get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def __repr__(self):
        nm = self.name or "C"
        return f"{nm}[{self.lo}..{self.hi}]@{self.ring.name}"


@dataclass
class HomologyData:
    """H_k of a complex: the module, chosen cycle representatives and the cycle group.

    Shared between complexes with the same content (see _shared_homology),
    so its arrays are read-only.
    """

    degree: int
    module: FgModule          # the homology module (over the same ring)
    lift: np.ndarray          # term coordinates of chosen cycle representatives
    _cycles: np.ndarray
    _proj: np.ndarray
    _term: FgModule

    def classify(self, cols):
        """Coordinates in homology of the given cycle columns."""
        cols = as_matrix(cols, rows=self._term.ngens)
        if self.module.is_zero:
            return zeros(0, cols.shape[1])
        y = linalg.solve_hetero(self._cycles, cols, self._term.orders, self._term.ring.modulus)
        if y is None:
            raise ValidationError("classify() got a non-cycle")
        return linalg.reduce_coords(self._proj @ y, self.module.orders)


def _zero_homology(cx, k):
    z = zero_module(cx.ring)
    return HomologyData(degree=k, module=z, lift=zeros(cx.term(k).ngens, 0),
                        _cycles=zeros(cx.term(k).ngens, 0), _proj=zeros(0, 0), _term=cx.term(k))


def _homology_at(cx, k):
    ring = cx.ring
    m = ring.modulus
    term = cx.term(k)
    if term.is_zero:
        return _zero_homology(cx, k)
    below = cx.term(k - 1)
    cyc = linalg.kernel_hetero(cx.diff(k), below.orders, m)
    cyc = linalg.reduce_coords(cyc, term.orders)
    cyc = _reduce_mixed_generators(cyc, term.orders, m)
    if cyc.shape[1] == 0:
        return _zero_homology(cx, k)
    # One decomposition of the cycle matrix answers every solve and the kernel.
    cycles = linalg.SmithSolver(linalg.scale_rows(cyc, term.orders, m), m)

    def in_cycles(cols):
        return cycles.solve_matrix(linalg.scale_rows(cols, term.orders, m))

    yb = in_cycles(linalg.reduce_coords(cx.diff(k + 1), term.orders))
    if yb is None:
        raise ValidationError("boundaries are not cycles; differential is broken")
    rel = np.concatenate([yb, cycles.kernel()], axis=1)
    pres = linalg.quotient_presentation([m] * cyc.shape[1], rel, m)
    if not pres.orders:
        return _zero_homology(cx, k)
    lift = linalg.reduce_coords(cyc @ pres.lift, term.orders)
    acts = []
    for t in range(ring.rank):
        y = in_cycles(linalg.reduce_coords(term.actions[t] @ lift, term.orders))
        acts.append(linalg.reduce_coords(pres.proj @ y, pres.orders))
    # cycles and boundaries are submodules, so H_k gets the induced action
    h = FgModule(ring=ring, orders=pres.orders, actions=tuple(acts), label=f"H{k}")
    return HomologyData(degree=k, module=h, lift=lift, _cycles=cyc, _proj=pres.proj, _term=term)


# H_k of every complex built in this process, by content digest.  An entry
# lives as long as some complex's homology cache holds it.
_SHARED_HOMOLOGY = weakref.WeakValueDictionary()


def _digest(obj, build):
    """A content digest cached on obj (a ring or module, immutable once built)."""
    cached = getattr(obj, "_digest", None)
    if cached is None:
        h = blake2b(digest_size=32)
        build(h)
        cached = h.digest()
        object.__setattr__(obj, "_digest", cached)
    return cached


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
    h.update(repr((k, cx.term(k - 1).orders)).encode())
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
    for a in (hd.lift, hd._cycles, hd._proj, *hd.module.actions):
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

class MapSystem:
    """Joint linear system over unknown families of degreewise module maps.

    A family (src, tgt, shift) stands for unknown maps U_k: src_k -> tgt_{k+shift}
    for every degree where both ends are nonzero.  Equations are matrix
    identities  sum_i  pre_i @ U_{k_i} @ post_i = rhs,  read entrywise as
    congruences modulo the target row orders.

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
        self.families = {}
        self.equations = []

    def add_family(self, name, src, tgt, shift=0):
        degs = []
        for k in range(min(src.lo, tgt.lo - shift), max(src.hi, tgt.hi - shift) + 1):
            if not src.term(k).is_zero and not tgt.term(k + shift).is_zero:
                degs.append(k)
        self.families[name] = (src, tgt, shift, degs)

    def add_equation(self, tgt_term, src_term, rhs, terms):
        """terms: list of (family_name, degree, pre_matrix, post_matrix)."""
        self.equations.append((tgt_term, src_term, as_matrix(rhs, rows=tgt_term.ngens, cols=src_term.ngens), terms))

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

    def _block_info(self, name, k):
        src, tgt, shift, _ = self.families[name]
        s, t = src.term(k), tgt.term(k + shift)
        if is_free_module(s):
            rank = self.ring.rank
            return ("free", s, t, (s.ngens // rank) * t.ngens)
        return ("generic", s, t, s.ngens * t.ngens)

    def _layout(self):
        offsets = {}
        total = 0
        for name, (src, tgt, shift, degs) in self.families.items():
            for k in degs:
                kind, s, t, size = self._block_info(name, k)
                offsets[(name, k)] = (total, size, kind)
                total += size
        return offsets, total

    def _term_contribution(self, name, k, pre, post, tgt_term, eq_cols):
        """Rows (eq entries x block vars) of pre @ U_k @ post for this block."""
        kind, s, t, size = self._block_info(name, k)
        pre = as_matrix(pre, rows=tgt_term.ngens, cols=t.ngens)
        post = as_matrix(post, rows=s.ngens, cols=eq_cols)
        if kind == "generic":
            return np.kron(post.T, pre) % self.m
        rank = self.ring.rank
        out = zeros(tgt_term.ngens * eq_cols, size)
        for tt in range(rank):
            # U columns (j, tt) equal act^tt @ T[:, j]; collect P_tt
            p_t = post[tt::rank, :]                    # a x eq_cols
            pre_a = (pre @ t.actions[tt]) % self.m
            out = (out + np.kron(p_t.T, pre_a)) % self.m
        return out

    def _assemble(self):
        offsets, total = self._layout()
        rows = []
        moduli = []
        rhs_rows = []
        for name, (src, tgt, shift, degs) in self.families.items():
            for k in degs:
                kind, s, t, size = self._block_info(name, k)
                if kind != "generic":
                    continue
                block_rows, block_mods = _hom_constraint_rows(s, t)
                if block_rows.shape[0]:
                    off = offsets[(name, k)][0]
                    wide = zeros(block_rows.shape[0], total)
                    wide[:, off : off + size] = block_rows
                    rows.append(wide)
                    moduli.extend(block_mods)
                    rhs_rows.append(zeros(block_rows.shape[0], 1))
        for tgt_term, src_term, rhs, terms in self.equations:
            post_restrict = None
            eq_cols = src_term.ngens
            if is_free_module(src_term) and self.ring.rank > 1:
                # maps out of a free module agree iff they agree on generators
                post_restrict = module_unit_columns(self.ring, src_term.ngens // self.ring.rank)
                eq_cols = post_restrict.shape[1]
            nr = tgt_term.ngens * eq_cols
            if nr == 0:
                continue
            wide = zeros(nr, total)
            for name, k, pre, post in terms:
                if (name, k) not in offsets:
                    continue  # unknown block is identically zero there
                src, tgt, shift, _ = self.families[name]
                post = as_matrix(post, rows=src.term(k).ngens, cols=src_term.ngens)
                if post_restrict is not None:
                    post = (post @ post_restrict) % self.m
                off, size, kind = offsets[(name, k)]
                contrib = self._term_contribution(name, k, pre, post, tgt_term, eq_cols)
                wide[:, off : off + size] = (wide[:, off : off + size] + contrib) % self.m
            rows.append(wide)
            moduli.extend(list(tgt_term.orders) * eq_cols)
            rhs_used = rhs if post_restrict is None else (rhs @ post_restrict) % self.m
            rhs_rows.append(rhs_used.T.reshape(-1, 1))
        if rows:
            big = np.concatenate(rows, axis=0)
            rhs_full = np.concatenate(rhs_rows, axis=0)
        else:
            big = zeros(0, total)
            rhs_full = zeros(0, 1)
        return offsets, total, big, moduli, rhs_full

    def solve(self):
        """One solution as {family: {k: matrix}}, or None."""
        offsets, total, big, moduli, rhs = self._assemble()
        sol = linalg.solve_hetero(big, rhs, moduli, self.m)
        if sol is None:
            return None
        return self._unpack(sol[:, 0], offsets)

    def kernel(self):
        """Generators of the solution space of the homogeneous system."""
        offsets, total, big, moduli, _ = self._assemble()
        gens = linalg.kernel_hetero(big, moduli, self.m)
        gens = linalg.reduce_generators(gens, self.m)
        return [self._unpack(gens[:, c], offsets) for c in range(gens.shape[1])]

    def _unpack(self, flat, offsets):
        result = {name: {} for name in self.families}
        for (name, k), (off, size, kind) in offsets.items():
            _, s, t, _ = self._block_info(name, k)
            if kind == "generic":
                block = flat[off : off + size].reshape(s.ngens, t.ngens).T
            else:
                rank = self.ring.rank
                a = s.ngens // rank
                targets = flat[off : off + size].reshape(a, t.ngens).T
                block = zeros(t.ngens, s.ngens)
                for j in range(a):
                    for tt in range(rank):
                        block[:, j * rank + tt] = (t.actions[tt] @ targets[:, j]) % self.m
            result[name][k] = block
        return result


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
# Suspension, cones, triangles
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


def suspend_between(f, src, tgt, times):
    """Suspended map with caller-supplied (already suspended) endpoints."""
    return ChainMap(src, tgt, {k + times: m for k, m in f.mats.items()})


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
    kind: str = "cone"

    def validate(self):
        for cx in (self.a, self.b, self.c):
            cx.validate()
        for mp in (self.f, self.g, self.h):
            mp.validate()
        check_null_homotopy(self.g @ self.f, self.gf_null)
        check_null_homotopy(self.h @ self.g, self.hg_null)
        sf = suspend_between(self.f, self.h.tgt, suspend(self.b), 1)
        check_null_homotopy(sf @ self.h, self.rot_null)


@dataclass
class ConeData:
    triangle: Triangle
    cone: object
    # per-degree block injections/projections as raw matrices
    inj_target: dict      # Y_k -> C_k
    inj_shift: dict       # X_{k-1} -> C_k
    pr_target: dict       # C_k -> Y_k
    pr_shift: dict        # C_k -> X_{k-1}

    # shape-safe accessors (zero blocks outside the cone's support)
    def it(self, k):
        got = self.inj_target.get(k)
        return got if got is not None else zeros(self.cone.term(k).ngens, self.triangle.b.term(k).ngens)

    def ish(self, k):
        got = self.inj_shift.get(k)
        return got if got is not None else zeros(self.cone.term(k).ngens, self.triangle.a.term(k - 1).ngens)

    def pt(self, k):
        got = self.pr_target.get(k)
        return got if got is not None else zeros(self.triangle.b.term(k).ngens, self.cone.term(k).ngens)

    def psh(self, k):
        got = self.pr_shift.get(k)
        return got if got is not None else zeros(self.triangle.a.term(k - 1).ngens, self.cone.term(k).ngens)


def cone(f, name=""):
    """Mapping cone with its triangle  X -> Y -> C -> SX  and homotopies.

    Built unchecked: the terms are direct sums, d = [[d, f], [0, -d]] has
    d.d = [[0, d f - f d], [0, 0]] = 0 for a chain map f, and the block
    injections and projections (so incl, proj and the homotopies) are
    module maps that commute with these d as the sign rules say.
    """
    x, y = f.src, f.tgt
    ring = x.ring
    lo = min(y.lo, x.lo + 1)
    hi = max(y.hi, x.hi + 1)
    terms = {}
    inj_t, inj_s, pr_t, pr_s = {}, {}, {}, {}
    for k in range(lo, hi + 1):
        yk = y.term(k)
        xk1 = x.term(k - 1)
        terms[k] = direct_sum_modules(yk, xk1, label=f"C{k}")
        n = yk.ngens + xk1.ngens
        it = zeros(n, yk.ngens)
        it[: yk.ngens] = eye(yk.ngens)
        js = zeros(n, xk1.ngens)
        js[yk.ngens :] = eye(xk1.ngens)
        inj_t[k], inj_s[k] = it, js
        pt = zeros(yk.ngens, n)
        pt[:, : yk.ngens] = eye(yk.ngens)
        ps = zeros(xk1.ngens, n)
        ps[:, yk.ngens :] = eye(xk1.ngens)
        pr_t[k], pr_s[k] = pt, ps
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
    incl = ChainMap(y, c, {k: inj_t[k] for k in c.degrees()})
    sx = suspend(x)
    proj = ChainMap(c, sx, {k: pr_s[k] for k in c.degrees()})
    # i.f ~ 0 via h(x) = (0, x)
    h1 = Homotopy(x, c, {k: inj_s[k + 1] for k in range(x.lo, x.hi + 1) if (k + 1) in inj_s})
    # proj.incl = 0 exactly
    h2 = Homotopy(y, sx, {})
    # (Sf).proj ~ 0 via H(y, x) = y
    h3 = Homotopy(c, suspend(y), {k: pr_t[k] for k in c.degrees() if not c.term(k).is_zero})
    tri = Triangle(a=x, b=y, c=c, f=f, g=incl, h=proj, gf_null=h1, hg_null=h2, rot_null=h3)
    return ConeData(triangle=tri, cone=c, inj_target=inj_t, inj_shift=inj_s, pr_target=pr_t, pr_shift=pr_s)


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


def desuspend(cx, times=1):
    return suspend(cx, -times)


def fiber(g):
    """F = S^-1 cone(g: X -> W), with projection F -> X and inclusion S^-1 W -> F.

    Returns (F, proj_to_src, incl_from_desusp_target, cone_data).  F has
    d(w, x) = (-dw - gx, dx), so the block projection and injection are chain maps.
    """
    cd = cone(g)
    f = desuspend(cd.cone)
    proj = ChainMap(f, g.src, {k: cd.psh(k + 1) for k in f.degrees()})
    wdown = desuspend(g.tgt)
    incl = ChainMap(wdown, f, {k: cd.it(k + 1) for k in f.degrees()})
    return f, proj, incl, cd


def section_from_null_homotopy(g, h, fib, proj):
    """If g ~ 0 via h, the fiber projection splits: s(x) = (-h x, x), proj.s = id.

    s is a chain map exactly because g = dh + hd, which h was checked for.
    """
    mats = {}
    for k in fib.degrees():
        x_part = g.src.term(k)
        if x_part.is_zero:
            continue
        n_w = g.tgt.term(k + 1).ngens
        block = zeros(n_w + x_part.ngens, x_part.ngens)
        block[:n_w] = (-h.component(k)) % g.src.ring.modulus
        block[n_w:] = eye(x_part.ngens)
        mats[k] = block
    return ChainMap(g.src, fib, mats)


# ---------------------------------------------------------------------------
# Induced maps on homology
# ---------------------------------------------------------------------------

def induced_map(f, k):
    """H_k(f) as a ModuleMap between homology modules (a chain map keeps cycles
    and boundaries, so classifying the pushed cycles is a module map)."""
    hs = f.src.homology_at(k)
    ht = f.tgt.homology_at(k)
    if hs.module.is_zero or ht.module.is_zero:
        return ModuleMap(hs.module, ht.module, zeros(ht.module.ngens, hs.module.ngens))
    pushed = linalg.reduce_coords(f.component(k) @ hs.lift, f.tgt.term(k).orders)
    return ModuleMap(hs.module, ht.module, ht.classify(pushed))


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
    """
    ring = module.ring
    if module.is_zero:
        return Complex.zero(ring)
    flag, cert, covered = _projectivity(module)
    if flag:
        return Complex(ring, 0, 0, {0: module}, {}, certs={0: cert}, name=name or f"res({module.label})")
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
            flag, certs[k], covered = _projectivity(current)
            if flag:
                terms[k] = current
                diffs[k] = prev_incl.mat
                break
        # truncation at k == length: the last term is the cover of the current syzygy
        cover, pi = covered if k < length else free_cover(current)
        terms[k] = cover
        if prev_incl is not None:
            diffs[k] = linalg.reduce_coords(prev_incl.mat @ pi.mat, prev_incl.tgt.orders)
        if k == length:
            break
        ker = kernel_of(pi, label=f"syz{k + 1}")
        current = ker.module
        prev_incl = ker.inclusion
        if current.is_zero:
            break
        k += 1
    hi = max(terms)
    return Complex(ring, 0, hi, terms, diffs, certs=certs, name=name or f"res({module.label})")


def free_complex(ring, ranks, name=""):
    """A complex of free modules with zero differentials (nothing to check)."""
    terms = {k: free_module(ring, r) for k, r in ranks.items() if r > 0}
    if not terms:
        return Complex.zero(ring)
    lo, hi = min(terms), max(terms)
    return Complex(ring, lo, hi, terms, {}, name=name)


def module_complex(module, degree=0, name=""):
    """The module placed in one degree, with no differential to check.  It is
    a compact object iff it is free or projective (then certified);
    homology-only uses may pass others."""
    ring = module.ring
    terms = {degree: module}
    certs = {degree: is_projective(module)[1]}
    return Complex(ring, degree, degree, terms, {}, certs=certs, name=name or module.label)


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
    i, c = cd.triangle.f, cd.cone
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


def suspend_equivalence(e, src, tgt, times):
    """e suspended `times` times onto caller-supplied (already suspended)
    endpoints; the homotopy witnesses pick up a sign (-1)^times."""
    sign = -1 if times % 2 else 1
    return Equivalence(
        src=src, tgt=tgt,
        fwd=suspend_between(e.fwd, src, tgt, times), bwd=suspend_between(e.bwd, tgt, src, times),
        fwd_bwd=Homotopy(tgt, tgt, {k + times: sign * v for k, v in e.fwd_bwd.mats.items()}),
        bwd_fwd=Homotopy(src, src, {k + times: sign * v for k, v in e.bwd_fwd.mats.items()}))


# ---------------------------------------------------------------------------
# Duals (free-termed complexes only)
# ---------------------------------------------------------------------------

def dual_free_map(ring, mat, src_rank, tgt_rank):
    """Group matrix of Hom(-, R) applied to a map of free right modules.

    mat: free(src_rank) -> free(tgt_rank) over ring.  The result maps
    free_{R^op}(tgt_rank) -> free_{R^op}(src_rank).
    """
    rk = ring.rank
    op = ring.opposite()
    out = zeros(src_rank * rk, tgt_rank * rk)
    units = zeros(src_rank * rk, src_rank)
    for j in range(src_rank):
        units[j * rk : (j + 1) * rk, j] = ring.unit
    values = (mat @ units) % ring.modulus   # column i: image of module generator i
    for j in range(tgt_rank):
        for t in range(rk):
            # functional phi with phi(e_j) = b_t, zero on other copies
            col = zeros(src_rank * rk, 1)
            for i in range(src_rank):
                v = values[j * rk : (j + 1) * rk, i]
                prod = np.zeros(rk, dtype=np.int64)
                for s in range(rk):
                    if v[s]:
                        prod = (prod + int(v[s]) * ring.sc[t, s, :]) % ring.modulus
                col[i * rk : (i + 1) * rk, 0] = prod
            out[:, j * rk + t] = col[:, 0]
    return out


def dual_complex(cx, name=""):
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
    return Complex(op, lo, hi, terms, diffs, name=name or f"D({cx.name or 'X'})")


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
