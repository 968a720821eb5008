"""Finitely generated modules over a finite ring, and the maps between them.

A module is a mixed-order abelian group (orders d_i | m) together with one
action matrix per ring basis element.  All module-level questions (hom
spaces, kernels, cokernels, splittings) reduce to linear congruences mod m
and are answered by :mod:`ghostdim.linalg`.

Matrices act on *group coordinates*: a ModuleMap's column j is the image of
the j-th group generator of the source.  Two matrices represent the same
map exactly when they agree entrywise modulo the target row orders, so maps
are stored in that canonical reduction.

Validation policy.  The constructors of FgModule and ModuleMap normalize
their input and trust it; validate() checks the axioms in full.  It runs at
the trust boundary (make_module, rings.make_ring, and in complexes
complex_from_dict and chain_map_from_dict), in the certificates over every
map they carry, and on solver outputs that no certificate checks again.
Every other construction site says in one line why it builds a module or a
module map.  FgModule keeps one O(1) comparison: check_exact, the bound on
every product over the module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NonSimpleDeclared, ParseError, RingMismatch, ValidationError
from .linalg import as_matrix, eye, zeros
from .rings import ENUMERATION_CAP

# Above this many generators, and over a ring of rank > 1, the relation and
# equivariance checks multiply by nonzeros (linalg.sparse_product_sum); at or
# below it einsum's dense products are faster.  Measured on the checks the
# summary workload makes.
SPARSE_CHECK_MIN_GENS = 16


@dataclass(eq=False)
class FgModule:
    ring: object
    orders: tuple
    actions: tuple
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(int(d) for d in self.orders))
        acts = tuple(as_matrix(a, rows=self.ngens, cols=self.ngens) % self.ring.modulus
                     for a in self.actions)
        object.__setattr__(self, "actions", acts)
        if self.orders:
            # The bound on every product over this module (not a validation).
            linalg.check_exact(self.ring.modulus, self.ngens + self.ring.rank)

    @property
    def ngens(self):
        return len(self.orders)

    @property
    def size(self):
        return linalg.group_size(self.orders)

    @property
    def is_zero(self):
        return self.ngens == 0

    def elements(self):
        return linalg.enumerate_group(self.orders, cap=ENUMERATION_CAP)

    def validate(self):
        """Raise ValidationError unless the actions make this a right module."""
        ring = self.ring
        m = ring.modulus
        n = self.ngens
        for d in self.orders:
            if d < 2 or m % d:
                raise ValidationError(f"generator order {d} must divide m = {m} and exceed 1")
        if len(self.actions) != ring.rank:
            raise ValidationError(f"need {ring.rank} action matrices, got {len(self.actions)}")
        ords = np.asarray(self.orders, dtype=np.int64)
        for t, a in enumerate(self.actions):
            # well-definedness: a[i, j] * d_j = 0 mod d_i
            if n and ((a * ords[None, :]) % ords[:, None]).any():
                raise ValidationError(f"action matrix {t} is not well defined on the group")
        if n == 0:
            return
        unit_combo = sum(int(u) * a for u, a in zip(ring.unit, self.actions)) % m
        if (linalg.reduce_coords(unit_combo, self.orders) != linalg.reduce_coords(eye(n), self.orders)).any():
            raise ValidationError("unit does not act as the identity")
        r = ring.rank
        if r == 1:
            # Rank 1 (b_0 b_0 = c b_0, unit u b_0): the ring's unit axiom gives
            # u c = 1 (mod m), so the unit check (u A = I row-wise) gives A = c I
            # row-wise, and with well-definedness A A = c A modulo the row
            # orders.  The relation check below cannot fail.
            return
        acts = np.stack(self.actions)                             # rank x n x n
        # (x . b_s) . b_t = x . (b_s b_t):  A^t A^s = sum_k sc[s,t,k] A^k
        if n > SPARSE_CHECK_MIN_GENS:
            # Products keyed (t, s, i, k); the second term is -sc[s,t,:] . A^k
            # in the same flat layout.
            keys, sums = linalg.sparse_product_sum([
                (acts, acts),
                (-ring.sc.transpose(1, 0, 2).reshape(1, r * r, r), acts.reshape(1, r, n * n)),
            ])
            bad = sums % ords[keys // n % n] != 0
            if bad.any():
                t, s = np.divmod(keys[bad] // (n * n), r)
                pair = min(zip(s.tolist(), t.tolist()))
                raise ValidationError(f"action violates the ring relations at basis pair {pair}")
            return
        lhs = np.einsum("tij,sjk->stik", acts, acts)
        rhs = np.einsum("stk,kij->stij", ring.sc, acts)
        delta = (lhs - rhs) % ords[None, None, :, None]
        if delta.any():
            bad = np.argwhere(delta)[0]
            raise ValidationError(f"action violates the ring relations at basis pair ({bad[0]}, {bad[1]})")

    def __repr__(self):
        tag = self.label or "M"
        return f"{tag}{list(self.orders)}@{self.ring.name}"


@dataclass(eq=False)
class ModuleMap:
    src: FgModule
    tgt: FgModule
    mat: np.ndarray

    def __post_init__(self):
        self.mat = as_matrix(self.mat, rows=self.tgt.ngens, cols=self.src.ngens)
        self.mat = linalg.reduce_coords(self.mat % self.tgt.ring.modulus, self.tgt.orders)

    # Sums, differences and composites of module maps are module maps.
    def __matmul__(self, other):
        # self after other
        return ModuleMap(other.src, self.tgt, self.mat @ other.mat)

    def __add__(self, other):
        return ModuleMap(self.src, self.tgt, self.mat + other.mat)

    def __sub__(self, other):
        return ModuleMap(self.src, self.tgt, self.mat - other.mat)

    def __neg__(self):
        return ModuleMap(self.src, self.tgt, -self.mat)

    @property
    def is_zero(self):
        return not self.mat.any()

    def validate(self):
        """Raise unless the matrix is a well-defined, equivariant group map."""
        if not self.src.ring.same_ring(self.tgt.ring):
            raise RingMismatch(f"{self.src.ring.name} vs {self.tgt.ring.name}")
        if not self.mat.size:
            return
        m = self.src.ring.modulus
        src_ord = np.asarray(self.src.orders, dtype=np.int64)
        tgt_ord = np.asarray(self.tgt.orders, dtype=np.int64)
        if ((self.mat * src_ord[None, :]) % tgt_ord[:, None]).any():
            raise ValidationError("matrix is not well defined on the source group")
        nt, ns = self.mat.shape
        linalg.check_exact(m, nt + ns)
        if self.src.ring.rank == 1:
            # Both actions are c I modulo their row orders (FgModule.validate),
            # so with well-definedness F A_src = c F = A_tgt F modulo the
            # target orders: equivariance cannot fail.
            return
        src_acts = np.stack(self.src.actions)
        tgt_acts = np.stack(self.tgt.actions)
        if max(nt, ns) > SPARSE_CHECK_MIN_GENS:
            # F A^t - A^t F, both keyed (t, i, k)
            keys, sums = linalg.sparse_product_sum([(self.mat[None], src_acts),
                                                    (-tgt_acts, self.mat[None])])
            bad = sums % tgt_ord[keys // ns % nt] != 0
            if bad.any():
                t = int(keys[bad][0] // (nt * ns))
                raise ValidationError(f"matrix does not commute with ring action {t}")
            return
        delta = (np.einsum("ij,tjk->tik", self.mat, src_acts)
                 - np.einsum("tij,jk->tik", tgt_acts, self.mat)) % tgt_ord[None, :, None]
        if delta.any():
            t = int(np.argwhere(delta)[0][0])
            raise ValidationError(f"matrix does not commute with ring action {t}")

    def __repr__(self):
        return f"Map({self.src!r} -> {self.tgt!r})"


# ---------------------------------------------------------------------------
# Hom spaces
# ---------------------------------------------------------------------------

def hom_congruences(eqs, src, tgt, off):
    """Pose on eqs (a linalg.Congruences) the rows cutting Hom(src, tgt) out of
    all tgt.ngens x src.ngens matrices U, entry U[i, j] being unknown
    off + j * tgt.ngens + i (column-major).

    Well-definedness is d_j U[i, j] = 0 (mod e_i) wherever the target order
    e_i does not divide the source order d_j.  Over a ring of rank > 1,
    equivariance is U A_t - A'_t U = 0 for each t, which on vec(U) is
    kron(A_t^T, I) - kron(I, A'_t).
    """
    ns, nt = src.ngens, tgt.ngens
    d = np.asarray(src.orders, dtype=np.int64)
    e = np.asarray(tgt.orders, dtype=np.int64)
    j, i = np.nonzero(d[:, None] % e[None, :])
    if j.size:
        eqs.block(e[i], zeros(j.size, 1))
        eqs.add(np.arange(j.size), off + j * nt + i, d[j])
    rank = src.ring.rank
    if rank > 1:
        # One block for all t, row t * ns * nt + j * nt + i.  Stacked over t,
        # kron(A_t^T, I) is the kron of the stacked A_t^T, and kron(I, A'_t)
        # is kron(I, stacked A'_t) with its rows reordered.
        eqs.block(np.tile(e, rank * ns), zeros(rank * ns * nt, 1))
        rows, cols, vals = linalg.kron_nonzeros(np.concatenate([a.T for a in src.actions]), eye(nt))
        eqs.add(rows, off + cols, vals)
        rows, cols, vals = linalg.kron_nonzeros(eye(ns), np.concatenate(tgt.actions))
        j, t, i = rows // (rank * nt), rows // nt % rank, rows % nt      # row (j, t, i) of that kron
        eqs.add((t * ns + j) * nt + i, off + cols, -vals)


def hom_generators(src, tgt):
    """A reduced generating set of Hom(src, tgt) as a list of ModuleMap.

    Over an F_p-algebra this is an F_p-basis; over Z/n it generates the hom
    group (which may have mixed orders).
    """
    if not src.ring.same_ring(tgt.ring):
        raise RingMismatch(f"{src.ring.name} vs {tgt.ring.name}")
    ns, nt = src.ngens, tgt.ngens
    if ns == 0 or nt == 0:
        return []
    eqs = linalg.Congruences(ns * nt, src.ring.modulus)
    hom_congruences(eqs, src, tgt, 0)
    sols = eqs.kernel()
    out = []
    seen = set()
    for c in range(sols.shape[1]):
        mat = sols[:, c].reshape(ns, nt).T
        f = ModuleMap(src, tgt, mat)
        keyb = f.mat.tobytes()
        if f.is_zero or keyb in seen:
            continue
        seen.add(keyb)
        out.append(f)
    return out


# ---------------------------------------------------------------------------
# Subquotients, kernels, cokernels
# ---------------------------------------------------------------------------

@dataclass
class Subquotient:
    """span(gens) / span(bounds) inside an ambient module: H_k of a complex
    (cycles over boundaries), a kernel (no bounds) or a quotient (gens the
    identity).

    lift holds ambient representatives of the module's generators, and
    classify gives the module coordinates of columns in span(gens).  A zero
    subquotient is the ring's zero module and keeps no gens.  H_k is shared
    between complexes with the same content, so its arrays are made
    read-only (complexes._shared_homology).
    """

    module: FgModule
    lift: np.ndarray
    _gens: np.ndarray         # ambient columns spanning the numerator
    _proj: np.ndarray         # gens coordinates -> module coordinates
    _ambient: FgModule

    def classify(self, cols):
        """Module coordinates of ambient columns that lie in span(gens)."""
        cols = as_matrix(cols, rows=self._ambient.ngens)
        if self.module.is_zero:
            return zeros(0, cols.shape[1])
        y = linalg.solve_hetero(self._gens, cols, self._ambient.orders, self.module.ring.modulus)
        if y is None:
            raise ValidationError("classify() got a column outside span(gens)")
        return linalg.reduce_coords(self._proj @ y, self.module.orders)


def kernel_generators(mat, src, tgt):
    """Generators of the kernel of the group map mat: src -> tgt, reduced mod
    the orders of src.  There are at most src.ngens of them (kernel_hetero
    gives at most one per unknown), so there is nothing to thin."""
    return linalg.reduce_coords(linalg.kernel_hetero(mat, tgt.orders, src.ring.modulus), src.orders)


def zero_module(ring):
    """The zero module over ring: one per ring, kept on it."""
    return _kept(ring, "_zero_module", lambda: FgModule(
        ring=ring, orders=(), actions=tuple(zeros(0, 0) for _ in range(ring.rank)), label="0"))


def _zero_subquotient(ring, ambient):
    """A zero subquotient of ambient: zero_module(ring), keeping no gens."""
    return Subquotient(module=zero_module(ring), lift=zeros(ambient.ngens, 0),
                       _gens=zeros(ambient.ngens, 0), _proj=zeros(0, 0), _ambient=ambient)


def subquotient(ring, ambient, gens, bounds, label):
    """span(gens) / span(bounds) inside ambient, as a module over ring.

    The columns of gens must span a submodule, and those of bounds must lie
    in it.  One elimination of [gens | bounds | A^0 gens | ... |
    A^(rank-1) gens] expresses the bounds and the moved generators in gens
    coordinates (Y_b, Y_t), and its kernel gives the relations among the
    gens; the quotient presentation of (Z/m)^g by [Y_b | kernel] gives the
    module.  A^t maps gens . lift to gens . Y_t . lift, so the action on the
    module is proj . Y_t . lift: another solution Y_t differs by a relation,
    which proj kills.  Empty gens (no elimination) and a quotient with no
    orders both give zero_module(ring).
    """
    m = ring.modulus
    g, nb = gens.shape[1], bounds.shape[1]
    if not g:
        return _zero_subquotient(ring, ambient)
    moved = [linalg.reduce_coords(a @ gens, ambient.orders) for a in ambient.actions]
    dec = linalg.eliminate(gens, np.concatenate([bounds, *moved], axis=1), ambient.orders, m)
    y = dec.solution()
    if y is None:
        raise ValidationError("the bounds or the moved generators leave span(gens)")
    pres = linalg.quotient_presentation([m] * g, np.concatenate([y[:, :nb], dec.kernel()], axis=1), m)
    if not pres.orders:
        return _zero_subquotient(ring, ambient)
    # reduced between the two products, each a sum of g products of residues (check_exact)
    acts = [linalg.reduce_coords(pres.proj @ ((y[:, nb + t * g:nb + (t + 1) * g] @ pres.lift) % m),
                                 pres.orders)
            for t in range(ring.rank)]
    module = FgModule(ring=ring, orders=pres.orders, actions=tuple(acts), label=label)
    lift = linalg.reduce_coords(gens @ pres.lift, ambient.orders)
    return Subquotient(module=module, lift=lift, _gens=gens, _proj=pres.proj, _ambient=ambient)


def kernel_of(f, label=""):
    """Kernel of a module map, as its inclusion: a module map into f.src."""
    ker = subquotient(f.src.ring, f.src, kernel_generators(f.mat, f.src, f.tgt), zeros(f.src.ngens, 0),
                      label)
    # the lift of a kernel is the inclusion of a submodule
    return ModuleMap(ker.module, f.src, ker.lift)


def _reduce_mixed_generators(gens, orders, m):
    """Thin a generating set of a subgroup of a mixed-order group."""
    gens = as_matrix(gens, rows=len(orders))
    if gens.shape[1] <= gens.shape[0]:
        return gens
    # work in (Z/m)^k via the embedding x_i -> (m/d_i) x_i, which is injective
    scale = np.array([m // d for d in orders], dtype=np.int64)[:, None]
    red = linalg.reduce_generators((gens * scale) % m, m)
    # pull back: the columns of red are columns of G T (reduce_generators),
    # so combinations of the embedded gens, and the scales divide them
    return linalg.reduce_coords(red // scale, orders)


def submodule_generated(module, cols):
    """Ambient generators of the smallest submodule containing the columns.

    One pass of all action matrices suffices: the group span of
    {A^t c_j} is closed under every A^s because A^s A^t is a combination
    of the A^k, and it contains the c_j via the unit combination.
    """
    m = module.ring.modulus
    cols = as_matrix(cols, rows=module.ngens)
    if cols.shape[1] == 0:
        return cols
    moved = [linalg.reduce_coords(a @ cols, module.orders) for a in module.actions]
    new = np.concatenate(moved, axis=1)
    return _reduce_mixed_generators(new, module.orders, m)


def subgroup_order_in(module, cols):
    return linalg.subgroup_order(cols, module.orders, module.ring.modulus)


# ---------------------------------------------------------------------------
# Free modules and covers
# ---------------------------------------------------------------------------

# Results that depend on a module alone are kept on it (and a ring's digest
# on the ring, in ghostdim.complexes): a module is immutable once built, so
# such a result is computed once and lives exactly as long as the module
# does.  A builtin simple lives for the whole process, and so do its cover,
# projectivity and syzygy chain, up to the longest length asked for.

def _kept(obj, key, build):
    """build(), computed once per object and kept on it under key."""
    found = getattr(obj, key, None)
    if found is None:
        found = build()
        object.__setattr__(obj, key, found)
    return found


def is_free_module(mod):
    """Structurally a free_module output (same orders and block actions)."""
    def build():
        ring = mod.ring
        if mod.ngens % ring.rank or any(d != ring.modulus for d in mod.orders):
            return False
        model = free_module(ring, mod.ngens // ring.rank)
        return all(np.array_equal(a, b) for a, b in zip(mod.actions, model.actions))
    return _kept(mod, "_is_free", build)


def free_module(ring, rank):
    """(free right module)^rank; group generators are basis elements per copy.
    One per (ring, rank), kept on the ring."""
    kept = _kept(ring, "_free_modules", dict)
    if rank in kept:
        return kept[rank]
    # Copies of the regular module, a module by the ring's associativity.
    orders = tuple([ring.modulus] * (ring.rank * rank))
    regular = ring.regular_actions()
    acts = []
    for t in range(ring.rank):
        blocks = np.zeros((ring.rank * rank, ring.rank * rank), dtype=np.int64)
        for c in range(rank):
            lo = c * ring.rank
            blocks[lo:lo + ring.rank, lo:lo + ring.rank] = regular[t]
        acts.append(blocks)
    mod = FgModule(ring=ring, orders=orders, actions=tuple(acts), label=f"R^{rank}" if rank != 1 else "R")
    object.__setattr__(mod, "_is_free", True)
    kept[rank] = mod
    return mod


def free_rank(module):
    """Rank of a free module built by free_module."""
    return module.ngens // module.ring.rank


def module_unit_columns(ring, rank):
    """Group coordinates of the module generators (the unit of each copy)."""
    cols = zeros(ring.rank * rank, rank)
    for c in range(rank):
        cols[c * ring.rank:(c + 1) * ring.rank, c] = ring.unit
    return cols


def free_map(free_src, tgt, targets):
    """The module map free_src -> tgt sending the j-th module generator to targets[:, j].

    free_src must come from free_module; there is exactly one such map, and
    its column (j, t) is targets[:, j] . b_t, equivariant by tgt's axioms.
    """
    targets = as_matrix(targets, rows=tgt.ngens, cols=free_rank(free_src))
    moved = np.stack(tgt.actions) @ targets                  # [t, :, j] = A^t targets[:, j]
    return ModuleMap(free_src, tgt, moved.transpose(1, 2, 0).reshape(tgt.ngens, free_src.ngens))


def minimal_generators(module):
    """A minimum-size generating set, computed once per module and kept on it.

    With a trivial action (Z/n backend) coprime cyclic factors are packed
    into single generators via CRT; otherwise greedy thinning of the group
    basis is used, which is minimum over an F_p-algebra since it maps to an
    inclusion-minimal spanning set of M / rad M.  Homology is shared by
    content, so towers over equal complexes ask again for the same module.
    """
    def build():
        gens = _minimal_generators(module)
        gens.flags.writeable = False
        return gens
    return _kept(module, "_minimal_generators", build)


def _minimal_generators(module):
    n = module.ngens
    if n == 0:
        return zeros(0, 0)
    if is_free_module(module):
        # the unit of each copy; greedy over the group basis would miss these
        return module_unit_columns(module.ring, n // module.ring.rank)
    if module.ring.rank == 1:
        groups = []
        used = []
        for i, d in enumerate(module.orders):
            ps = set(linalg.factorize(d))
            for grp, taken in zip(groups, used):
                if taken.isdisjoint(ps):
                    grp.append(i)
                    taken |= ps
                    break
            else:
                groups.append([i])
                used.append(set(ps))
        gens = zeros(n, len(groups))
        for c, grp in enumerate(groups):
            for i in grp:
                gens[i, c] = 1
        return gens
    # The columns A^t e_i, i in a trial set, generate the submodule that set
    # spans (see submodule_generated), so one subgroup order per trial
    # decides whether it still generates.
    total = module.size
    keep = list(range(n))
    for c in range(n):
        trial = [i for i in keep if i != c]
        if not trial:
            continue
        moved = np.concatenate([a[:, trial] for a in module.actions], axis=1)
        if subgroup_order_in(module, moved) == total:
            keep = trial
    return eye(n)[:, keep]


def free_cover(module):
    """A surjection from a free module onto the module, via minimal generators."""
    gens = minimal_generators(module)
    rank = gens.shape[1]
    f = free_module(module.ring, rank)
    pi = free_map(f, module, gens)
    return f, pi


def split_surjection(pi):
    """A section s with pi . s = id exactly, or None.

    Sections M -> R^g are found through Hom(M, R)^g: a generating set
    phi_1, ..., phi_L of Hom(M, R) is computed once and the section is a
    combination s = sum c[i, l] inj_i . phi_l of copies, which keeps the
    linear system small over high-rank algebras.  pi . s and id are module
    maps, so they agree once they agree on gens, the images under pi of
    the free generators, which generate M when pi is onto: the unknowns
    c[i, l] solve sum c[i, l] pi[:, copy i] . phi_l . gens = gens.
    """
    module = pi.tgt
    f = pi.src
    ring = module.ring
    m = ring.modulus
    n = module.ngens
    if n == 0:
        return ModuleMap(module, f, zeros(f.ngens, 0))
    homs = hom_generators(module, free_module(ring, 1))
    if not homs:
        return None
    g, rank, nh = f.ngens // ring.rank, ring.rank, len(homs)
    gens = (pi.mat @ module_unit_columns(ring, g)) % m                 # n x g
    phis = np.stack([phi.mat for phi in homs])                         # nh x rank x n
    # Entry (a, b) of pi[:, copy i] . phi_l . gens has key ((i nh + l) n + a) g + b;
    # it is row b n + a (column-major) of column i nh + l.
    keys, vals = linalg.sparse_product_sum([(pi.mat.reshape(n, g, rank).transpose(1, 0, 2),
                                             (phis @ gens) % m)])
    col, a, b = keys // (n * g), keys // g % n, keys % g
    eqs = linalg.Congruences(g * nh, m)
    eqs.block(np.tile(module.orders, g), gens.T)
    eqs.add(b * n + a, col, vals)
    sol = eqs.solve()
    if sol is None:
        return None
    smat = (sol.reshape(g, nh) @ phis.reshape(nh, rank * n)).reshape(f.ngens, n)
    sec = ModuleMap(module, f, smat)
    comp = pi @ sec
    if not np.array_equal(comp.mat, linalg.reduce_coords(eye(n), module.orders)):
        raise ValidationError("section failed verification")
    return sec


@dataclass
class ProjectivityCertificate:
    """A section of a surjection from a free module: pi . section = id."""

    cover: FgModule
    pi: ModuleMap
    section: ModuleMap

    def validate(self):
        self.pi.validate()
        self.section.validate()
        comp = self.pi @ self.section
        if not np.array_equal(comp.mat, linalg.reduce_coords(eye(self.pi.tgt.ngens), self.pi.tgt.orders)):
            raise ValidationError("projectivity certificate does not split")


def _cover(module):
    """free_cover(module), computed once per module and kept on it."""
    return _kept(module, "_free_cover", lambda: free_cover(module))


def is_projective(module):
    """Decide projectivity; returns (flag, certificate or None).

    A free module (the zero module included) is projective by construction
    and gets no certificate.  Any other module is projective iff its minimal
    free cover (_cover) splits, and the certificate is that split.  Computed
    once per module and kept on it for as long as it lives.
    """
    def build():
        if is_free_module(module):
            return True, None
        cover, pi = _cover(module)
        sec = split_surjection(pi)
        if sec is None:
            return False, None
        return True, ProjectivityCertificate(cover=cover, pi=pi, section=sec)
    return _kept(module, "_projective", build)


def _syzygy(module, i):
    """The inclusion K_i -> K_(i-1) of the i-th syzygy (i >= 1) of the module:
    K_i is the kernel of the cover of K_(i-1), K_0 = module.

    The chain K_1, K_2, ... is kept on the module for as long as it lives
    and extended on demand, so each syzygy is built and covered once; its
    labels count from this module, as syz1, syz2, ...
    """
    chain = _kept(module, "_syzygy_chain", list)
    while len(chain) < i:
        below = chain[-1].src if chain else module
        chain.append(kernel_of(_cover(below)[1], label=f"syz{len(chain) + 1}"))
    return chain[i - 1]


# ---------------------------------------------------------------------------
# Isomorphism search
# ---------------------------------------------------------------------------

def canonical_group(orders):
    """Multiset of prime-power components; equal iff the groups are isomorphic."""
    return tuple(sorted(p ** e for d in orders for p, e in linalg.factorize(int(d)).items()))


def is_invertible(f):
    """A module map between finite modules is invertible iff |src| = |tgt| and ker = 0."""
    if f.src.size != f.tgt.size:
        return False
    kg = linalg.kernel_hetero(f.mat, f.tgt.orders, f.src.ring.modulus)
    kg = linalg.reduce_coords(kg, f.src.orders)
    return not kg.any()


# The search budget of find_isomorphism: hom spaces with more generators are
# not searched, and at most this many combinations are tried.
ISO_MAX_GENS = 12
ISO_MAX_CANDIDATES = 20000


def find_isomorphism(a, b):
    """Search for an invertible module map a -> b.

    Returns a ModuleMap or None.  None means "no isomorphism found within the
    search budget": it is only a definite negative when the cheap structural
    rejections fired or the hom space was fully enumerated.
    """
    if not a.ring.same_ring(b.ring):
        raise RingMismatch(f"{a.ring.name} vs {b.ring.name}")
    if a.size != b.size or canonical_group(a.orders) != canonical_group(b.orders):
        return None
    if a.is_zero:
        return ModuleMap(a, b, zeros(0, 0))
    gens = hom_generators(a, b)
    if not gens:
        return None
    if len(gens) > ISO_MAX_GENS:
        return None
    m = a.ring.modulus
    # single generators (and their unit multiples) catch most real cases
    for g in gens:
        for u in range(1, m):
            cand = ModuleMap(a, b, u * g.mat)
            if is_invertible(cand):
                return cand
    budget = ISO_MAX_CANDIDATES
    for coeffs in itertools.product(range(m), repeat=len(gens)):
        budget -= 1
        if budget < 0:
            return None
        mat = sum(c * g.mat for c, g in zip(coeffs, gens))
        cand = ModuleMap(a, b, mat)
        if not cand.is_zero and is_invertible(cand):
            return cand
    return None


# ---------------------------------------------------------------------------
# Tensor products (right module over R  x  left module = module over R^op)
# ---------------------------------------------------------------------------

class TensorModule:
    """M (x)_R N as a module over the base ring, with pair-coordinate data:
    `proj` maps row-major pairs (i, j) onto normalized coordinates, `lift`
    back.  A free-factor tensor passes coords=None and builds the two only
    when first read."""

    def __init__(self, module, shape, coords, free):
        self.module = module
        self.shape = shape            # (right.ngens, left.ngens)
        self.free = free              # (swapped, free factor, other factor) or None
        self._coords = coords         # (proj, lift) or None

    proj = property(lambda self: self._pair_coords()[0])
    lift = property(lambda self: self._pair_coords()[1])

    def _pair_coords(self):
        if self._coords is None:
            self._coords = _free_pair_coords(*self.free)
        return self._coords


def _tensor_free_right(right, left, base, label, swapped):
    """R^a (x) N = N^a: basis copy-c of b_t tensored with n is act_N^t(n) in copy c.
    Swapped, it is M (x) (R^op)^b = M^b for (right, left) = ((R^op)^b, M).
    Over the base ring Z/m, any group is a module under the identity action."""
    a = right.ngens // right.ring.rank
    orders = tuple(left.orders) * a
    mod = FgModule(ring=base, orders=orders, actions=(eye(len(orders)),), label=label)
    shape = (left.ngens, right.ngens) if swapped else (right.ngens, left.ngens)
    return TensorModule(mod, shape, None, (swapped, right, left))


def _tensor_free_left(right, left, base, label):
    """M (x) (R^op)^b = M^b: the free-right form on the swapped pair."""
    return _tensor_free_right(left, right, base, label, True)


def _free_pair_coords(swapped, right, left):
    """proj and lift of _tensor_free_right(right, left, ..., swapped)."""
    ring = right.ring
    m = ring.modulus
    rank = ring.rank
    a = right.ngens // rank
    nj = left.ngens
    npair = right.ngens * nj
    orders = tuple(left.orders) * a
    proj = zeros(a * nj, npair)
    lift = zeros(npair, a * nj)
    for c in range(a):
        for t in range(rank):
            col_block = (c * rank + t) * nj
            proj[c * nj:(c + 1) * nj, col_block:col_block + nj] = left.actions[t]
        for t in range(rank):
            u = int(ring.unit[t])
            if u:
                col_block = (c * rank + t) * nj
                lift[col_block:col_block + nj, c * nj:(c + 1) * nj] = u * eye(nj)
    proj = linalg.reduce_coords(proj % m, orders) if orders else proj
    if swapped:
        # pair (j, i) of the free-right form is pair (i, j) of M (x) (R^op)^b
        swap = np.arange(npair).reshape(right.ngens, nj).T.reshape(-1)
        proj, lift = proj[:, swap], lift[swap]
    return proj, lift


def tensor_modules(right, left):
    """Tensor a right module with a left module (a module over the opposite ring).

    Free factors short-circuit the balanced quotient: R^a (x) N = N^a and
    M (x) (R^op)^b = M^b with explicit coordinate maps.
    """
    ring = right.ring
    if ring.modulus != left.ring.modulus or ring.rank != left.ring.rank:
        raise RingMismatch(f"{ring.name} vs {left.ring.name}")
    if not ring.opposite().same_ring(left.ring):
        from .errors import SideMismatch

        raise SideMismatch(
            f"left factor must be a module over {ring.name}^op, got {left.ring.name}"
        )
    m = ring.modulus
    base = ring.base_ring()
    label = f"{right.label or 'M'}(x){left.label or 'N'}"
    if ring.rank > 1:
        if is_free_module(right):
            return _tensor_free_right(right, left, base, label, False)
        if is_free_module(left):
            return _tensor_free_left(right, left, base, label)
    ni, nj = right.ngens, left.ngens
    # gcd(d_i, e_j), row-major pairs (i, j)
    pair_orders = tuple(int(np.gcd(d, e)) for d in right.orders for e in left.orders)
    npair = ni * nj
    rel_mat = zeros(npair, 0)
    if ring.rank > 1:
        # The balanced relations (m . b_t) (x) n - m (x) (b_t . n): the nonzero
        # columns of kron(A_t, I) - kron(I, A'_t), column (i, j) of t posed as
        # row t * npair + i * nj + j; stacked over t as in hom_congruences.
        rels = linalg.Congruences(npair, m)
        rels.block(np.full(ring.rank * npair, m), zeros(ring.rank * npair, 1))
        rels.add(*linalg.kron_nonzeros(np.concatenate([a.T for a in right.actions]), eye(nj)))
        rows, cols, vals = linalg.kron_nonzeros(eye(ni), np.concatenate([a.T for a in left.actions]))
        i, t, j = rows // (ring.rank * nj), rows // nj % ring.rank, rows % nj   # row (i, t, j) of that kron
        rels.add((t * ni + i) * nj + j, cols, -vals)
        rel_mat = linalg.reduce_coords(rels.matrix()[0].T, pair_orders)
    pres = linalg.quotient_presentation(pair_orders, rel_mat, m)
    # a group over the base ring Z/m: the identity action makes it a module
    mod = FgModule(
        ring=base,
        orders=pres.orders,
        actions=(eye(len(pres.orders)),),
        label=label,
    )
    proj = pres.proj if pres.orders else zeros(0, npair)
    lift = pres.lift if pres.orders else zeros(npair, 0)
    return TensorModule(mod, (right.ngens, left.ngens), (proj, lift), None)


def tensor_map(f_mat, g_mat, src_tensor, tgt_tensor):
    """Induced map on tensors for group matrices f: M -> M' and g: N -> N'.

    src_tensor presents M (x) N and tgt_tensor presents M' (x) N'.  Pair
    coordinates are row-major; the Kronecker product is never materialized:
    (f (x) g) vec(V) = vec(f V g^T) columnwise over the lift.  Between two
    tensors of one free kind, proj (f (x) g) lift has a closed form.
    """
    m = src_tensor.module.ring.modulus
    k = src_tensor.module.ngens
    if k == 0 or tgt_tensor.module.is_zero:
        mat = zeros(tgt_tensor.module.ngens, k)
    elif src_tensor.free and tgt_tensor.free and src_tensor.free[0] == tgt_tensor.free[0]:
        # R^a (x) N -> R^a' (x) N' (a free left factor swaps f and g): block
        # (c', c) is sum_t r[c', c, t] A_t g, where r[c', c, t] = sum_s u_s
        # f[c' rank + t, c rank + s] are the coordinates of f(e_c) for the unit
        # u = sum_s u_s b_s, and A_t are the actions on N'.
        swapped, free, other = tgt_tensor.free
        f_mat, g_mat = (g_mat, f_mat) if swapped else (f_mat, g_mat)
        rank = free.ring.rank
        a_t, a_s = f_mat.shape[0] // rank, f_mat.shape[1] // rank
        r = np.einsum("ptcs,s->pct", f_mat.reshape(a_t, rank, a_s, rank), free.ring.unit) % m
        ag = np.stack([act @ g_mat for act in other.actions]) % m
        mat = (np.einsum("pct,tij->picj", r, ag) % m).reshape(a_t * other.ngens, k)
    else:
        ni_s, nj_s = src_tensor.shape
        cube = src_tensor.lift.reshape(ni_s, nj_s, k)
        t1 = np.tensordot(f_mat, cube, axes=(1, 0)) % m          # ni_t x nj_s x k
        t2 = np.tensordot(g_mat, t1, axes=(1, 1)) % m            # nj_t x ni_t x k
        moved = np.transpose(t2, (1, 0, 2)).reshape(-1, k)
        mat = (tgt_tensor.proj @ moved) % m
    return ModuleMap(src_tensor.module, tgt_tensor.module, mat)


# ---------------------------------------------------------------------------
# Descriptors and validation helpers
# ---------------------------------------------------------------------------

def make_module(ring, descriptor, label=""):
    """Build a module from a JSON-style descriptor and validate it in full.

    zmod: {"orders": [...]} or {"presentation": [[...]]} (columns are relations
    among the generators).  fp_algebra: {"dim": d, "actions": [d x d] * rank}.
    """
    mod = _module_from_descriptor(ring, descriptor, label)
    mod.validate()
    return mod


def _module_from_descriptor(ring, descriptor, label):
    if not isinstance(descriptor, dict):
        raise ParseError(f"a module descriptor must be a JSON object, got {descriptor!r}")
    if ring.backend == "zmod":
        if "orders" in descriptor:
            if not isinstance(descriptor["orders"], list):
                raise ParseError("module 'orders' must be a list")
            orders = [linalg.parse_int(d, "module order") for d in descriptor["orders"]]
            for d in orders:
                if d < 2 or ring.modulus % d:
                    raise ParseError(f"order {d} does not divide {ring.modulus}")
            return FgModule(ring=ring, orders=tuple(orders),
                            actions=(eye(len(orders)),), label=label or descriptor.get("label", ""))
        if "presentation" in descriptor:
            pres_mat = linalg.parse_matrix(descriptor["presentation"], "module presentation")
            g = pres_mat.shape[0]
            pres = linalg.quotient_presentation([ring.modulus] * g, pres_mat, ring.modulus)
            return FgModule(ring=ring, orders=pres.orders,
                            actions=(eye(len(pres.orders)),), label=label or descriptor.get("label", ""))
        raise ParseError("zmod module descriptor needs 'orders' or 'presentation'")
    if "dim" not in descriptor or "actions" not in descriptor:
        raise ParseError("fp_algebra module descriptor needs 'dim' and 'actions'")
    dim = linalg.parse_int(descriptor["dim"], "module 'dim'")
    if dim < 0 or not isinstance(descriptor["actions"], list):
        raise ParseError("module 'dim' must be >= 0 and 'actions' a list")
    acts = [linalg.parse_matrix(a, "action matrix", rows=dim, cols=dim) for a in descriptor["actions"]]
    if len(acts) != ring.rank:
        raise ParseError(f"need {ring.rank} action matrices, got {len(acts)}")
    return FgModule(ring=ring, orders=tuple([ring.modulus] * dim), actions=tuple(acts),
                    label=label or descriptor.get("label", ""))


def module_to_descriptor(module):
    if module.ring.backend == "zmod":
        return {"orders": list(module.orders), "label": module.label}
    return {
        "dim": module.ngens,
        "actions": [a.tolist() for a in module.actions],
        "label": module.label,
    }


def is_simple(module):
    """No proper nonzero submodule: every nonzero element generates."""
    if module.is_zero:
        return False
    for v in module.elements():
        if not v.any():
            continue
        span = submodule_generated(module, v.reshape(-1, 1))
        if subgroup_order_in(module, span) != module.size:
            return False
    return True


def validate_simple_list(ring, mods):
    for i, s in enumerate(mods):
        if not is_simple(s):
            raise NonSimpleDeclared(f"declared simple #{i} of {ring.name} is not simple")
    # Schur: a nonzero map between simples is an isomorphism, so two simples
    # are isomorphic exactly when the hom space between them is nonzero.
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            if hom_generators(mods[i], mods[j]):
                raise NonSimpleDeclared(
                    f"declared simples #{i} and #{j} of {ring.name} are isomorphic"
                )
