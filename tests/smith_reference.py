"""Reference code for the bit-identity tests of linalg and complexes.

Every basis, certificate and report downstream reads what these produce,
so the faster code must return exactly what the reference returns.

* `smith_mod` (with `_smith_prime`, `_prime_null_columns` and its own
  `SmithDecomposition`) is the kernel as it was while it tracked the row
  transform S, its inverse S^-1 and the column transform T on both paths,
  chosen by a `reads` argument ("diag", "solve" or "all"), copied
  unchanged.  linalg.smith_mod now reduces one array [A | B] and forms
  neither S nor S^-1, nor T over a prime; `quotient_presentation` is the
  presentation that read S and S^-1 off a reads="all" decomposition.
* `SmithSolver` is the solver that multiplied by the dense r x r row
  transform S and solved row by row, before a solve carried its
  right-hand sides along the elimination; it asks the reference smith_mod
  for S by reads="all".
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

from ghostdim.errors import ValidationError
from ghostdim.linalg import (
    _PRIME_CACHE,
    QuotientPresentation,
    as_matrix,
    check_exact,
    eye,
    factorize,
    modinv,
    xgcd,
    zeros,
)
from ghostdim.modules import (
    FgModule,
    ModuleMap,
    Subquotient,
    is_free_module,
    module_unit_columns,
    zero_module,
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


@dataclass
class SmithDecomposition:
    """D = S @ A @ T mod m, D diagonal; s_inv is the mod-m inverse of S.

    The fields of the reference smith_mod's decomposition; it answers no
    solve or kernel query of its own (SmithSolver does).

    The caller names what it reads (smith_mod's `reads`): a matrix it does
    not read is None.  pivots lists the pivot columns of the prime path in
    ascending order (None on the composite path).

    A solve (reads="solve") reads no S: rhs is S @ B mod m for the
    right-hand sides B that rode along the row operations.  Its T is formed
    on the composite path only; over a prime, `reduced` is the reduced A,
    whose pivot rows give the solution and the kernel in closed form.
    """

    m: int
    diag: np.ndarray        # length min(rows, cols)
    s: np.ndarray
    s_inv: np.ndarray
    t: np.ndarray
    shape: tuple
    pivots: list
    rhs: np.ndarray
    reduced: np.ndarray


# What a caller of smith_mod reads: the diagonal alone (orders), a solution
# and the kernel (the right-hand sides carried along, no S), or S, S^-1 and
# T (quotient presentations).
READS = ("diag", "solve", "all")


def _prime_null_columns(d, pivot_cols, m):
    """The kernel of a reduced prime-path D, one column per non-pivot column j.

    Column j is e_j with -D[:npiv, j] (mod m) in the pivot rows: the last
    columns of T.
    """
    c = d.shape[1]
    npiv = len(pivot_cols)
    pivots = set(pivot_cols)
    non_pivot = [j for j in range(c) if j not in pivots]
    null = zeros(c, c - npiv)
    null[non_pivot, np.arange(c - npiv)] = 1
    if npiv and c > npiv:
        null[pivot_cols] = (-d[:npiv, non_pivot]) % m
    return null


def _smith_prime(a, m, reads, rhs):
    """Gauss-Jordan diagonalization over the field Z/m, m prime.

    One pass of row operations on D (from A), and on S (from I) for
    reads="all".  A solve reduces [A | B] instead, with the right-hand sides
    B as extra columns that the pivot search never reads, so B ends as
    S @ B without S being formed.  Each pivot updates only the rows with a
    nonzero in the pivot column, and only the columns where the pivot row
    is nonzero: the systems the package builds are mostly zeros.  In D
    these columns all lie at or right of the pivot column, because the
    pivot row is zero to its left (every earlier column has its pivot
    above it).  The reduced D is [I C; 0 0] up to the column permutation
    that puts the pivot columns first, so T has a closed form: that
    permutation, with -C (mod m) in the pivot rows of the non-pivot
    columns.  Only reads="all" forms it; a solve reads the solution and
    the kernel off the reduced D and B.

    The columns are taken in order, so a column gets a pivot iff it is not
    in the span of the columns before it: the pivots left of any column k
    count the rank of the first k columns.  With reads="diag" only D is
    reduced.

    D and S are two arrays, not one augmented block [A | I]: returning S
    out of the block meant holding both at once, and that raised the peak
    memory of the compact-eq benchmark workload by about 3 MB (5 %).
    """
    a = as_matrix(a)
    r, c = a.shape
    # A solve eliminates [A | B]: its pivot row carries B's columns along.
    d = np.empty((r, c + (0 if rhs is None else rhs.shape[1])), dtype=np.int64)
    np.remainder(a, m, out=d[:, :c])
    if rhs is not None:
        d[:, c:] = rhs
    s = eye(r) if reads == "all" else None
    s_inv = eye(r) if reads == "all" else None
    pivot_cols = []
    row = 0
    for col in range(c):
        if row == r:
            break
        nz = d[row:, col].nonzero()[0]
        if nz.size == 0:
            continue
        i = row + int(nz[0])
        if i != row:
            d[[row, i], col:] = d[[i, row], col:]
            if s is not None:
                s[[row, i]] = s[[i, row]]
                s_inv[:, [row, i]] = s_inv[:, [i, row]]
        rows = [(d, d[row, col:], col)] + ([(s, s[row], 0)] if s is not None else [])
        pv = int(d[row, col])
        if pv != 1:
            inv = modinv(pv, m)
            for _, vec, _ in rows:
                np.multiply(vec, inv, out=vec)
                np.remainder(vec, m, out=vec)
            if s_inv is not None:
                s_inv[:, row] = (s_inv[:, row] * pv) % m
        hits = d[:, col].nonzero()[0]
        if hits.size > 1:
            hits = hits[hits != row]
            q = d[hits, col]
            for mat, vec, first in rows:
                cols = vec.nonzero()[0]
                live = (hits[:, None], first + cols)
                block = np.multiply.outer(q, vec[cols])
                np.subtract(mat[live], block, out=block)
                np.remainder(block, m, out=block)
                mat[live] = block
            if s_inv is not None:
                s_inv[:, row] = (s_inv[:, row] + s_inv[:, hits] @ q) % m
        pivot_cols.append(col)
        row += 1
    npiv = len(pivot_cols)
    t = None
    if reads == "all":
        t = zeros(c, c)
        t[pivot_cols, np.arange(npiv)] = 1
        t[:, npiv:] = _prime_null_columns(d, pivot_cols, m)
    diag = np.zeros(min(r, c), dtype=np.int64)
    diag[:npiv] = 1
    return SmithDecomposition(m=m, diag=diag, s=s, s_inv=s_inv, t=t, shape=(r, c),
                              pivots=pivot_cols, rhs=None if rhs is None else d[:, c:],
                              reduced=d[:, :c] if reads == "solve" else None)


def smith_mod(a, m, reads, rhs):
    """Diagonalize a mod m by unimodular row and column operations.

    Returns a SmithDecomposition.  No divisibility chain is enforced on the
    diagonal; none of the callers needs it.  `reads` (one of READS) names
    what the caller reads, and only that is formed: the diagonal; for
    "solve" the right-hand sides rhs (a matrix with a's rows) carried
    along the row operations, and T on the composite path; or all of S,
    S^-1 and T.  rhs is None unless reads is "solve".  D is reduced by the
    same steps whatever is read, so the diagonal does not depend on it.
    """
    if reads not in READS:
        raise ValueError(f"reads must be one of {READS}, got {reads!r}")
    if (rhs is None) != (reads != "solve"):
        raise ValueError("right-hand sides ride along a solve, and only a solve")
    a = as_matrix(a)
    check_exact(m, max(a.shape))
    if rhs is not None:
        rhs = as_matrix(rhs, rows=a.shape[0]) % m
    if m not in _PRIME_CACHE:
        _PRIME_CACHE[m] = factorize(m) == {m: 1}
    if _PRIME_CACHE[m]:
        return _smith_prime(a, m, reads, rhs)
    d = a % m
    r, c = d.shape
    # row operations act on D, S and the right-hand sides, column operations on D and T
    s = eye(r) if reads == "all" else None
    s_inv = eye(r) if reads == "all" else None
    t = eye(c) if reads != "diag" else None
    row_mats = [mat for mat in (d, s, rhs) if mat is not None]
    col_mats = [d] + ([t] if t is not None else [])

    def row_step(k, i):
        # Zero d[i, k] using row k, keeping S and S^-1 in sync.
        av = int(d[k, k])
        bv = int(d[i, k])
        if bv == 0:
            return
        if av != 0 and bv % av == 0:
            q = bv // av
            for mat in row_mats:
                mat[i] = (mat[i] - q * mat[k]) % m
            if s_inv is not None:
                s_inv[:, k] = (s_inv[:, k] + q * s_inv[:, i]) % m
            return
        g, x, y = xgcd(av, bv)
        ag, bg = av // g, bv // g
        for mat in row_mats:
            rk = (x * mat[k] + y * mat[i]) % m
            ri = (-bg * mat[k] + ag * mat[i]) % m
            mat[k], mat[i] = rk, ri
        if s_inv is not None:
            ck = (ag * s_inv[:, k] + bg * s_inv[:, i]) % m
            ci = (-y * s_inv[:, k] + x * s_inv[:, i]) % m
            s_inv[:, k], s_inv[:, i] = ck, ci

    def col_step(k, j):
        av = int(d[k, k])
        bv = int(d[k, j])
        if bv == 0:
            return
        if av != 0 and bv % av == 0:
            q = bv // av
            for mat in col_mats:
                mat[:, j] = (mat[:, j] - q * mat[:, k]) % m
            return
        g, x, y = xgcd(av, bv)
        ag, bg = av // g, bv // g
        for mat in col_mats:
            ck = (x * mat[:, k] + y * mat[:, j]) % m
            cj = (-bg * mat[:, k] + ag * mat[:, j]) % m
            mat[:, k], mat[:, j] = ck, cj

    for k in range(min(r, c)):
        sub = d[k:, k:]
        nz = np.nonzero(sub)
        if nz[0].size == 0:
            break
        # Prefer a unit pivot: with one, a single vectorized sweep clears
        # everything, which is the common (field) case.
        vals = sub[nz]
        unit_mask = np.gcd(vals, m) == 1
        if unit_mask.any():
            pos = int(np.argmax(unit_mask))
        else:
            pos = int(np.argmin(vals))
        i0, j0 = int(nz[0][pos]) + k, int(nz[1][pos]) + k
        if i0 != k:
            for mat in row_mats:
                mat[[k, i0]] = mat[[i0, k]]
            if s_inv is not None:
                s_inv[:, [k, i0]] = s_inv[:, [i0, k]]
        if j0 != k:
            for mat in col_mats:
                mat[:, [k, j0]] = mat[:, [j0, k]]

        if gcd(int(d[k, k]), m) == 1:
            inv = modinv(d[k, k], m)
            col = d[k + 1:, k]
            if col.any():
                q = (col * inv) % m
                for mat in row_mats:
                    mat[k + 1:] = (mat[k + 1:] - np.outer(q, mat[k])) % m
                if s_inv is not None:
                    s_inv[:, k] = (s_inv[:, k] + s_inv[:, k + 1:] @ q) % m
            row = d[k, k + 1:]
            if row.any():
                q = (row * inv) % m
                for mat in col_mats:
                    mat[:, k + 1:] = (mat[:, k + 1:] - np.outer(mat[:, k], q)) % m
            continue

        while True:
            for i in range(k + 1, r):
                row_step(k, i)
            if not d[k, k + 1:].any():
                break
            for j in range(k + 1, c):
                col_step(k, j)
            if not d[k + 1:, k].any():
                break

    diag = np.array([d[i, i] for i in range(min(r, c))], dtype=np.int64)
    return SmithDecomposition(m=m, diag=diag, s=s, s_inv=s_inv, t=t, shape=(r, c), pivots=None,
                              rhs=rhs, reduced=None)


def quotient_presentation(ambient_orders, relations, m):
    """Present the quotient of a mixed-order group by a relation subgroup."""
    k = len(ambient_orders)
    rel = as_matrix(relations, rows=k, cols=0) % m
    full = np.concatenate([rel, np.diag(np.asarray(ambient_orders, dtype=np.int64)).reshape(k, k)], axis=1) if k else zeros(0, 0)
    if k == 0:
        return QuotientPresentation(orders=(), proj=zeros(0, 0), lift=zeros(0, 0))
    dec = smith_mod(full, m, "all", None)
    new_orders = []
    keep = []
    for i in range(k):
        di = int(dec.diag[i]) if i < len(dec.diag) else 0
        delta = gcd(di, m)  # gcd(0, m) = m: a free Z/m coordinate
        if delta > 1:
            new_orders.append(delta)
            keep.append(i)
    if not keep:
        return QuotientPresentation(orders=(), proj=zeros(0, k), lift=zeros(k, 0))
    proj = dec.s[keep] % np.array(new_orders, dtype=np.int64)[:, None]
    lift = linalg.reduce_coords(dec.s_inv[:, keep], ambient_orders)
    return QuotientPresentation(orders=tuple(int(o) for o in new_orders), proj=proj, lift=lift)


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


def _zero_homology(cx, k):
    """H_k = 0: the ring's zero module, with no cycles kept."""
    term = cx.term(k)
    return Subquotient(module=zero_module(cx.ring), lift=zeros(term.ngens, 0),
                       _gens=zeros(term.ngens, 0), _proj=zeros(0, 0), _ambient=term)


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
    h = FgModule(ring=ring, orders=pres.orders, actions=tuple(acts), label="H")
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


def _layout(ring, described):
    """{(name, k): (offset, size, source term, target term, free)} of the
    families described, in the order they were added, and the number of
    unknowns.  A block out of a free source has an unknown per module
    generator image, any other block one per matrix entry."""
    layout = {}
    total = 0
    for what, call in described:
        if what != "family":
            continue
        name, src, tgt, shift = call
        for k in range(min(src.lo, tgt.lo - shift), max(src.hi, tgt.hi - shift) + 1):
            s, t = src.term(k), tgt.term(k + shift)
            if s.is_zero or t.is_zero:
                continue
            free = is_free_module(s)
            size = (s.ngens // ring.rank if free else s.ngens) * t.ngens
            layout[(name, k)] = (total, size, s, t, free)
            total += size
    return layout, total


def _term_contribution(ring, block, pre, post, tgt_term, eq_cols):
    """Rows (eq entries x block vars) of pre @ U_k @ post for this block."""
    _, size, s, t, free = block
    m = ring.modulus
    pre = as_matrix(pre, rows=tgt_term.ngens, cols=t.ngens)
    post = as_matrix(post, rows=s.ngens, cols=eq_cols)
    if not free:
        return np.kron(post.T, pre) % m
    rank = ring.rank
    out = zeros(tgt_term.ngens * eq_cols, size)
    for tt in range(rank):
        # U columns (j, tt) equal act^tt @ T[:, j]; collect P_tt
        p_t = post[tt::rank, :]                    # a x eq_cols
        pre_a = (pre @ t.actions[tt]) % m
        out = (out + np.kron(p_t.T, pre_a)) % m
    return out


def assemble(ring, described):
    """(layout, total, matrix, row moduli, right side) of a MapSystem, zero rows kept.

    described lists the calls that built the system, in order: ("family",
    (name, src, tgt, shift)) and ("equation", (tgt_term, src_term, rhs,
    terms)).  A family's Hom rows and an equation's rows are posed where the
    call stands.
    """
    m = ring.modulus
    layout, total = _layout(ring, described)
    rows = []
    moduli = []
    rhs_rows = []
    for what, call in described:
        if what == "family":
            for (name, k), (off, size, s, t, free) in layout.items():
                if name != call[0] or free:
                    continue
                block_rows, block_mods = _hom_constraint_rows(s, t)
                if block_rows.shape[0]:
                    wide = zeros(block_rows.shape[0], total)
                    wide[:, off : off + size] = block_rows
                    rows.append(wide)
                    moduli.extend(block_mods)
                    rhs_rows.append(zeros(block_rows.shape[0], 1))
            continue
        tgt_term, src_term, rhs, terms = call
        rhs = as_matrix(rhs, rows=tgt_term.ngens, cols=src_term.ngens)
        post_restrict = None
        eq_cols = src_term.ngens
        if is_free_module(src_term) and ring.rank > 1:
            # maps out of a free module agree iff they agree on generators
            post_restrict = module_unit_columns(ring, src_term.ngens // ring.rank)
            eq_cols = post_restrict.shape[1]
        nr = tgt_term.ngens * eq_cols
        if nr == 0:
            continue
        wide = zeros(nr, total)
        for name, k, pre, post in terms:
            if (name, k) not in layout:
                continue  # unknown block is identically zero there
            block = layout[(name, k)]
            off, size = block[:2]
            post = as_matrix(post, rows=block[2].ngens, cols=src_term.ngens)
            if post_restrict is not None:
                post = (post @ post_restrict) % m
            contrib = _term_contribution(ring, block, pre, post, tgt_term, eq_cols)
            wide[:, off : off + size] = (wide[:, off : off + size] + contrib) % m
        rows.append(wide)
        moduli.extend(list(tgt_term.orders) * eq_cols)
        rhs_used = rhs if post_restrict is None else (rhs @ post_restrict) % m
        rhs_rows.append(rhs_used.T.reshape(-1, 1))
    if rows:
        big = np.concatenate(rows, axis=0)
        rhs_full = np.concatenate(rhs_rows, axis=0)
    else:
        big = zeros(0, total)
        rhs_full = zeros(0, 1)
    return layout, total, big, moduli, rhs_full
