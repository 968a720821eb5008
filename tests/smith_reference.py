"""Reference code for the bit-identity tests of linalg and complexes.

Every basis, certificate and report downstream reads what these produce,
so the faster code must return exactly what the reference returns.

* `_smith_prime` is the dense Gauss-Jordan elimination that the
  zero-skipping kernel replaced, copied unchanged but for the `pivots`,
  `rhs` and `reduced` fields that SmithDecomposition gained later.
* `SmithSolver` is the solver that multiplied by the dense r x r row
  transform S and solved row by row, before a solve carried its
  right-hand sides along the elimination; it asks smith_mod for S by
  reads="all", which a solve no longer forms.
* `homology_at` is complexes._homology_at on one SmithSolver of the cycle
  matrix, and `assemble` the MapSystem assembly by np.kron of dense
  blocks (`_term_contribution`), without dropping zero rows.
* `kernel_of` is the kernel of a module map as the package built it before
  kernels and homology became one subquotient: a kernel elimination, a
  quotient presentation and a second elimination for the actions
  (`submodule_from_generators`), on generators thinned by the per-column
  pull-back loop of `_reduce_mixed_generators`.
* `reduce_generators` read the generators off S^-1 as the columns
  S^-1[:, i] * D_ii of a reads="all" decomposition, before they were read
  off one solve pass as the columns G T_i (S^-1 D = G T mod m).
* `_hom_constraint_rows` builds the rows of a hom space densely, by np.kron
  and a loop over entries; `hom_generators` solves them as
  modules.hom_generators did.  `tensor_relations` is the loop that built
  the balanced relations of modules.tensor_modules, and `tensor_modules`
  presents the tensor product by it.
"""

from math import gcd

import numpy as np

from ghostdim import linalg
from dataclasses import dataclass

from ghostdim.complexes import _zero_homology
from ghostdim.errors import ValidationError
from ghostdim.linalg import SmithDecomposition, as_matrix, eye, modinv, smith_mod, zeros
from ghostdim.modules import (
    FgModule,
    ModuleMap,
    Subquotient,
    is_free_module,
    module_unit_columns,
)


def _hom_constraint_rows(src, tgt):
    """Rows (matrix, row_orders) cutting out Hom(src, tgt) inside all matrices.

    Unknowns are the entries of a tgt.ngens x src.ngens matrix, vectorized
    column-major.  Returns (rows, moduli); rows may be empty.
    """
    m = src.ring.modulus
    ns, nt = src.ngens, tgt.ngens
    nvar = ns * nt
    blocks = []
    moduli = []
    # well-definedness rows, one per entry whose source order is not killed
    wd_rows = []
    wd_mods = []
    for j, dj in enumerate(src.orders):
        for i, ei in enumerate(tgt.orders):
            if dj % ei:
                row = zeros(1, nvar)
                row[0, j * nt + i] = dj
                wd_rows.append(row)
                wd_mods.append(ei)
    if wd_rows:
        blocks.append(np.concatenate(wd_rows, axis=0))
        moduli.extend(wd_mods)
    if src.ring.rank > 1:
        ident_t = eye(nt)
        for t in range(src.ring.rank):
            # U @ actS - actT @ U = 0, vectorized column-major
            block = (np.kron(src.actions[t].T, ident_t) - np.kron(eye(ns), tgt.actions[t])) % m
            blocks.append(block)
            moduli.extend(list(tgt.orders) * ns)
    if not blocks:
        return zeros(0, nvar), []
    return np.concatenate(blocks, axis=0), moduli


def hom_generators(src, tgt):
    """modules.hom_generators on the dense rows of _hom_constraint_rows."""
    m = src.ring.modulus
    ns, nt = src.ngens, tgt.ngens
    if ns == 0 or nt == 0:
        return []
    rows, moduli = _hom_constraint_rows(src, tgt)
    sols = linalg.kernel_hetero(rows, moduli, m)
    sols = linalg.reduce_generators(sols, m)
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


def tensor_relations(right, left):
    """The balanced relations of right (x) left, one column each, by the loop."""
    ring = right.ring
    m = ring.modulus
    ni, nj = right.ngens, left.ngens
    npair = ni * nj
    rels = []
    if ring.rank > 1:
        for t in range(ring.rank):
            am = right.actions[t]          # action of b_t on the right module
            an = left.actions[t]           # right action of b_t in R^op = left action of b_t
            for i in range(ni):
                for j in range(nj):
                    vec = np.zeros(npair, dtype=np.int64)
                    for k in range(ni):
                        if am[k, i]:
                            vec[k * nj + j] += am[k, i]
                    for l in range(nj):
                        if an[l, j]:
                            vec[i * nj + l] -= an[l, j]
                    if vec.any():
                        rels.append(vec % m)
    return np.stack(rels, axis=1) if rels else zeros(npair, 0)


def tensor_modules(right, left):
    """(orders, proj, lift) of the balanced quotient of modules.tensor_modules,
    its relations built by tensor_relations."""
    m = right.ring.modulus
    npair = right.ngens * left.ngens
    pair_orders = tuple(int(np.gcd(d, e)) for d in right.orders for e in left.orders)
    rel_mat = tensor_relations(right, left)
    rel_mat = linalg.reduce_coords(rel_mat, pair_orders) if npair else rel_mat
    pres = linalg.quotient_presentation(pair_orders, rel_mat, m)
    proj = pres.proj if pres.orders else zeros(0, npair)
    lift = pres.lift if pres.orders else zeros(npair, 0)
    return pres.orders, proj, lift


def _smith_prime(a, m, track_sinv):
    """Gauss-Jordan diagonalization over the field Z/m, m prime.

    One vectorized clearing pass per pivot, then a single column sweep,
    which is substantially faster than the generic gcd walk.
    """
    d = as_matrix(a).copy() % m
    r, c = d.shape
    s = eye(r)
    s_inv = eye(r) if track_sinv else None
    t = eye(c)
    pivot_cols = []
    row = 0
    for col in range(c):
        if row == r:
            break
        nz = np.nonzero(d[row:, col])[0]
        if nz.size == 0:
            continue
        i = row + int(nz[0])
        if i != row:
            d[[row, i]] = d[[i, row]]
            s[[row, i]] = s[[i, row]]
            if track_sinv:
                s_inv[:, [row, i]] = s_inv[:, [i, row]]
        pv = int(d[row, col])
        if pv != 1:
            inv = modinv(pv, m)
            d[row] = (d[row] * inv) % m
            s[row] = (s[row] * inv) % m
            if track_sinv:
                s_inv[:, row] = (s_inv[:, row] * pv) % m
        colvals = d[:, col].copy()
        colvals[row] = 0
        hits = np.nonzero(colvals)[0]
        if hits.size:
            q = colvals[hits]
            d[hits] = (d[hits] - np.outer(q, d[row])) % m
            s[hits] = (s[hits] - np.outer(q, s[row])) % m
            if track_sinv:
                s_inv[:, row] = (s_inv[:, row] + s_inv[:, hits] @ q) % m
        pivot_cols.append(col)
        row += 1
    npiv = len(pivot_cols)
    non_pivot = [j for j in range(c) if j not in set(pivot_cols)]
    perm = pivot_cols + non_pivot
    d = d[:, perm]
    t = t[:, perm]
    if npiv and c > npiv:
        b = d[:npiv, npiv:]
        if b.any():
            t[:, npiv:] = (t[:, npiv:] - t[:, :npiv] @ b) % m
            d[:npiv, npiv:] = 0
    diag = np.array([d[i, i] for i in range(min(r, c))], dtype=np.int64)
    return SmithDecomposition(m=m, diag=diag, s=s, s_inv=s_inv, t=t, shape=(r, c),
                              pivots=pivot_cols, rhs=None, reduced=None)


class SmithSolver:
    """Cache one decomposition of A and answer many solve/kernel queries."""

    def __init__(self, a, m):
        self.m = m
        self.a = as_matrix(a) % m
        self.dec = smith_mod(self.a, m, "all", None)

    def solve(self, b):
        """One solution x of A x = b (mod m), or None if none exists."""
        x = self.solve_matrix(np.asarray(b, dtype=np.int64).reshape(-1, 1))
        return None if x is None else x[:, 0]

    def solve_matrix(self, b):
        """Columnwise solve; returns None if any column is unsolvable."""
        m = self.m
        b = as_matrix(b, rows=self.a.shape[0]) % m
        r, c = self.dec.shape
        cb = (self.dec.s @ b) % m
        z = zeros(c, b.shape[1])
        for i in range(r):
            di = int(self.dec.diag[i]) if i < len(self.dec.diag) else 0
            g = gcd(di, m)
            row = cb[i]
            if (row % g).any():
                return None
            if i < c and g != m:
                inv = modinv(di // g, m // g)
                z[i] = ((row // g) * inv) % (m // g)
        return (self.dec.t @ z) % m

    def kernel(self):
        """Columns generating {x : A x = 0 (mod m)}."""
        m = self.m
        r, c = self.dec.shape
        cols = []
        for j in range(c):
            dj = int(self.dec.diag[j]) if j < len(self.dec.diag) else 0
            ann = m // gcd(dj, m)
            if ann != m:
                # ann * d_j = 0 mod m; for d_j = 0 this is ann = 1, a free column.
                cols.append((self.dec.t[:, j] * ann) % m)
        if not cols:
            return zeros(c, 0)
        return np.stack(cols, axis=1)


def solve_hetero(a, b, row_orders, m):
    a2 = linalg.scale_rows(a, row_orders, m)
    b2 = linalg.scale_rows(as_matrix(b, rows=len(row_orders)), row_orders, m)
    if a2.shape[0] == 0:
        return zeros(a2.shape[1], b2.shape[1])
    return SmithSolver(a2, m).solve_matrix(b2)


def kernel_hetero(a, row_orders, m):
    a2 = linalg.scale_rows(a, row_orders, m)
    if a2.shape[0] == 0:
        return eye(a2.shape[1])
    return SmithSolver(a2, m).kernel()


def homology_at(cx, k):
    ring = cx.ring
    m = ring.modulus
    term = cx.term(k)
    if term.is_zero:
        return _zero_homology(cx, k)
    below = cx.term(k - 1)
    cyc = kernel_hetero(cx.diff(k), below.orders, m)
    cyc = linalg.reduce_coords(cyc, term.orders)
    cyc = _reduce_mixed_generators(cyc, term.orders, m)
    if cyc.shape[1] == 0:
        return _zero_homology(cx, k)
    # One decomposition of the cycle matrix answers every solve and the kernel.
    cycles = SmithSolver(linalg.scale_rows(cyc, term.orders, m), m)

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
    return Subquotient(module=h, lift=lift, _gens=cyc, _proj=pres.proj, _ambient=term)


@dataclass
class Submodule:
    module: FgModule          # abstract presentation of the submodule
    inclusion: ModuleMap      # into the ambient module
    _gens: np.ndarray         # ambient coordinates of the chosen generators
    _expr: object             # callable: ambient columns -> submodule coordinates

    def express(self, cols):
        return self._expr(cols)


def submodule_from_generators(ambient, gens, label=""):
    """The submodule generated (as a group) by the given ambient columns.

    The columns must already be closed under the ring action, as kernels and
    action-closures are; use :func:`submodule_generated` first otherwise.
    """
    m = ambient.ring.modulus
    gens = as_matrix(gens, rows=ambient.ngens)
    g = gens.shape[1]
    rel = linalg.kernel_hetero(gens, ambient.orders, m)
    pres = linalg.quotient_presentation([m] * g, rel, m)
    sub_orders = pres.orders
    incl_mat = linalg.reduce_coords(gens @ pres.lift, ambient.orders) if sub_orders else zeros(ambient.ngens, 0)

    def express(cols):
        cols = as_matrix(cols, rows=ambient.ngens)
        y = linalg.solve_hetero(gens, cols, ambient.orders, m)
        if y is None:
            raise ValidationError("vector is not in the submodule")
        return linalg.reduce_coords(pres.proj @ y, sub_orders) if sub_orders else zeros(0, cols.shape[1])

    # The columns are closed under the action, so each A^t . incl is expressed
    # exactly: sub is the submodule they span and incl is equivariant.  One
    # elimination expresses [A^0 incl | ... | A^(rank-1) incl].
    n = incl_mat.shape[1]
    moved = express(np.concatenate([a @ incl_mat for a in ambient.actions], axis=1))
    acts = [moved[:, t * n:(t + 1) * n] for t in range(ambient.ring.rank)]
    sub = FgModule(ring=ambient.ring, orders=sub_orders, actions=tuple(acts), label=label)
    incl = ModuleMap(sub, ambient, incl_mat)
    return Submodule(module=sub, inclusion=incl, _gens=gens, _expr=express)


def kernel_of(f, label=""):
    """Kernel of a module map, with its inclusion."""
    m = f.src.ring.modulus
    kg = linalg.kernel_hetero(f.mat, f.tgt.orders, m)
    kg = linalg.reduce_coords(kg, f.src.orders)
    kg = _reduce_mixed_generators(kg, f.src.orders, m)
    return submodule_from_generators(f.src, kg, label=label)


def reduce_generators(gens, m):
    """Replace the columns of gens by at most `rows` columns with the same span.

    Uses colspan(G) = S^-1 @ colspan(D): the nonzero diagonal entries give
    scaled columns of S^-1 generating the same subgroup of (Z/m)^rows.
    """
    g = as_matrix(gens) % m
    if g.shape[1] == 0 or not g.any():
        return zeros(g.shape[0], 0)
    dec = smith_mod(g, m, "all", None)
    cols = []
    for i, di in enumerate(dec.diag):
        if di % m:
            cols.append((dec.s_inv[:, i] * int(di)) % m)
    if not cols:
        return zeros(g.shape[0], 0)
    return np.stack(cols, axis=1)


def _reduce_mixed_generators(gens, orders, m):
    """Thin a generating set of a subgroup of a mixed-order group."""
    gens = as_matrix(gens, rows=len(orders))
    if gens.shape[1] <= gens.shape[0]:
        return gens
    # work in (Z/m)^k via the embedding x_i -> (m/d_i) x_i, which is injective
    scale = np.array([m // d for d in orders], dtype=np.int64)
    emb = (gens * scale[:, None]) % m
    red = reduce_generators(emb, m)
    # pull back: columns of red are divisible by the scales again
    out = zeros(len(orders), red.shape[1])
    for c in range(red.shape[1]):
        col = red[:, c]
        if ((col % scale) != 0).any():
            # mixing happened across coordinates of unequal order; fall back
            return gens
        out[:, c] = col // scale
    return linalg.reduce_coords(out, orders)


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


def assemble(self):
    """(offsets, total, matrix, row moduli, right side) of a MapSystem, zero rows kept."""
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
            contrib = _term_contribution(self, name, k, pre, post, tgt_term, eq_cols)
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
