"""Exact linear algebra over Z/m.

Every solver in the package bottoms out here.  The two backends share one
arithmetic substrate: a finite abelian group of exponent dividing m is a
direct sum of Z/d_i with d_i | m, and a congruence  sum_j a_ij x_j = b_i
(mod e_i)  with e_i | m is equivalent, after scaling the row by m // e_i,
to the same congruence mod m.  So mixed-order systems become systems over
the single modulus m and are solved by one routine.

The workhorse is a Smith-style diagonalization mod m.  The elementary
gcd-combination matrices

    [[x, y], [-b//g, a//g]]     with  x*a + y*b == g == gcd(a, b)

have determinant 1, so they are invertible mod m; row swaps and
add-a-multiple steps likewise.  The result is D = S @ A @ T (mod m) with
D diagonal and S, T invertible mod m.  Solving, kernels, quotient
presentations and generating-set reduction all read off D.

The kernel's one operation is to row-reduce one array [A mod m | B mod m]:
the pivot search and the column operations read A's columns only, so B
ends as S @ B mod m and S is never formed.  Over a prime no T is formed
either: the reduced A is [I C; 0 0] up to the order of its columns, so
x[pivots] = the first rows of the reduced B, and the kernel is
e_j - C[:, j] over the non-pivot columns j.  Generating-set reduction reads
G T off the same pass (S^-1 D = G T).  A quotient presentation, which
reads S, eliminates [F | I], so S is its reduced right-hand side, and
solves S X = I for the columns of S^-1 it reads.

Every system of the package is posed on Congruences, from (row, col,
value) triples such as kron_nonzeros gives for a Kronecker product, and
solved by it, so the format of a system stays in this module.

Over F_2, where most systems of the package live, the kernel reduces bit
rows: each row of [A | B] is one Python int, packed from the nonzeros of
the caller's arrays, and A's columns are indexed as ints over the rows.
A pivot is then one XOR per row it touches, and the reduced rows stay
packed until a solution, kernel or rhs is read.  The pivots and row
operations are those of the int64 pass, so every result is bit-identical
to it.  On a 2-core Xeon, back to back, the 665 x 1014 F_2 system of a
null-homotopy in the summary workload (3302 nonzeros) is solved in 7.6 ms
from bit rows against 12.5 ms in int64, and no int64 copy of it is made.

Other moduli keep entries reduced into [0, m) and compute in exact int64.
That is exact only while every sum of products of residues fits, so the
kernel checks its bound (check_exact) and refuses a larger modulus with
ModulusTooLarge instead of returning a wrong answer: a ring built with
allow_large can have any modulus.  That kernel stays in int64 rather than
float64 BLAS because it gains its speed from skipping zeros: a 684 x 1014
system of the summary workload eliminated in int64 in 25 ms (2-core Xeon),
while one dense 1014 x 1014 float64 product (OpenBLAS, default threads)
took 39 ms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import ModulusTooLarge, ParseError

INT64_MAX = int(np.iinfo(np.int64).max)


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b == g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def modinv(a, m):
    """Inverse of a mod m; a must be a unit."""
    return pow(int(a) % m, -1, m)


def as_matrix(a, rows=None, cols=None):
    """Coerce to a 2-d int64 array, materializing an explicit shape for empties."""
    arr = np.asarray(a, dtype=np.int64)
    if arr.ndim != 2:
        if arr.size == 0:
            arr = arr.reshape(rows if rows is not None else 0, cols if cols is not None else 0)
        else:
            raise ValueError(f"expected 2-d matrix, got shape {arr.shape}")
    return arr


def parse_int(value, what):
    """An integer read from untrusted input (JSON); ParseError for anything else."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def parse_matrix(value, what, rows=None, cols=None):
    """A 2-d int64 matrix read from untrusted nested lists.

    ParseError unless the value is a rectangular matrix of integers and,
    where rows or cols is given, has that many rows or columns.  A bare
    empty list stands for an empty matrix of the expected shape.
    """
    try:
        arr = np.array(value)
    except ValueError:
        raise ParseError(f"{what} is not a rectangular matrix") from None
    if arr.size == 0 and arr.ndim != 2 and not (rows or 0) * (cols or 0):
        arr = arr.reshape(rows or 0, cols or 0)
    if arr.ndim != 2 or (arr.size and arr.dtype.kind != "i"):
        raise ParseError(f"{what} must be a matrix of integers")
    if (rows is not None and arr.shape[0] != rows) or (cols is not None and arr.shape[1] != cols):
        raise ParseError(f"{what} has shape {arr.shape}, expected ({rows}, {cols})")
    return arr.astype(np.int64)


def zeros(rows, cols):
    return np.zeros((rows, cols), dtype=np.int64)


def eye(n):
    return np.eye(n, dtype=np.int64)


@dataclass
class SmithDecomposition:
    """One elimination of [A | B] mod m: D = S @ A @ T with D diagonal.

    S is never formed: `reduced` is the reduced [A | B], an int64 array or,
    over F_2, BitRows, and rhs reads S @ B off its last `width` columns
    (None when smith_mod was given no right-hand side).  T is formed on
    the composite path of a solve only; over a prime the reduced A's pivot
    rows give the solution and the kernel in closed form, and pivots lists
    its pivot columns in ascending order (None on the composite path).
    """

    m: int
    diag: np.ndarray        # length min(rows, cols)
    t: np.ndarray
    shape: tuple
    pivots: list
    reduced: object         # the reduced [A | B]
    width: int              # B's columns; None without a right-hand side

    @property
    def rhs(self):
        """S @ B mod m, or None."""
        if self.width is None:
            return None
        return self.reduced[:, self.shape[1]:]

    def solution(self):
        """One x with A x = B (mod m), or None if some column of B has none."""
        m = self.m
        r, c = self.shape
        rhs = self.rhs
        if self.pivots is not None:
            npiv = len(self.pivots)
            if rhs[npiv:].any():
                return None
            x = zeros(c, self.width)
            x[self.pivots] = rhs[:npiv]
            return x
        # D z = rhs row by row: g = gcd(D_ii, m) must divide row i, and then
        # z_i = (rhs_i / g) (D_ii / g)^-1 mod m / g.  A row past the diagonal
        # or with D_ii = 0 has g = m, so it must be zero and leaves z_i = 0.
        d = np.zeros(r, dtype=np.int64)
        d[:self.diag.size] = self.diag
        g = np.gcd(d, m)
        if (rhs % g[:, None]).any():
            return None
        z = zeros(c, self.width)
        live = np.flatnonzero(g[:min(r, c)] != m)
        if live.size:
            unit, mod = d[live] // g[live], m // g[live]
            inv = np.array([pow(int(u), -1, int(q)) for u, q in zip(unit, mod)], dtype=np.int64)
            z[live] = ((rhs[live] // g[live, None]) * inv[:, None]) % mod[:, None]
        return (self.t @ z) % m

    def kernel(self):
        """Columns generating {x : A x = 0 (mod m)}."""
        m = self.m
        c = self.shape[1]
        if self.pivots is not None:
            return _prime_null_columns(self.reduced[:len(self.pivots), :c], self.pivots, m)
        # ann_j D_jj = 0 mod m: the column T_j scaled by ann_j lies in the
        # kernel; ann_j = 1 for D_jj = 0 (a free column), and m for a unit.
        d = np.zeros(c, dtype=np.int64)
        d[:self.diag.size] = self.diag
        ann = m // np.gcd(d, m)
        keep = ann != m
        return (self.t[:, keep] * ann[keep]) % m


class BitRows:
    """The rows of a matrix over F_2 as Python ints, bit j for column j.

    Indexing by a pair of slices unpacks that block, and only that block,
    into an int64 array.
    """

    def __init__(self, rows, ncols):
        self.rows, self.ncols = rows, ncols

    def __getitem__(self, key):
        rows, cols = key
        lo, hi, _ = cols.indices(self.ncols)
        width = max(hi - lo, 0)
        nbytes = (width + 7) // 8
        mask = (1 << width) - 1
        picked = self.rows[rows]
        packed = b"".join(((x >> lo) & mask).to_bytes(nbytes, "little") for x in picked)
        packed = np.frombuffer(packed, dtype=np.uint8).reshape(len(picked), nbytes)
        return np.unpackbits(packed, axis=1, count=width, bitorder="little").astype(np.int64)


def check_exact(m, terms):
    """Refuse m unless a sum of `terms` products of residues mod m fits in int64.

    terms * m**2 bounds every intermediate of the kernel: the row updates
    q * row, the product T z of a composite solve over at most
    max(rows, cols) products, and the two-term gcd combinations of the
    composite path (hence at least 2).
    """
    terms = max(terms, 2)
    if terms * m * m > INT64_MAX:
        raise ModulusTooLarge(
            f"modulus {m} is too large for exact int64 arithmetic on sums of {terms} products "
            f"(needs {terms} * m**2 <= 2**63 - 1)")


def sum_by_key(keys, vals):
    """The sorted distinct keys and the exact sum of vals at each."""
    if keys.size == 0:
        return keys, vals
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    start = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[start], np.add.reduceat(vals[order], start)


def sparse_product_sum(terms):
    """Sum the products x[p] @ y[q] of stacked matrices, at a cost set by their nonzeros.

    Each term is a pair of int64 stacks x (P, a, b) and y (Q, b, c); entry
    (i, k) of x[p] @ y[q] has flat index ((p * Q + q) * a + i) * c + k, and
    the terms are summed entry by entry, so they must share one flat layout.
    Every nonzero x[p, i, j] meets every nonzero y[q, j, k] once: the work
    follows the number of such pairs, not the size of the matrices, which
    pays on the mostly-zero action matrices of modules.  Returns the sorted
    flat indices that some product reached and the exact sums there.  The
    caller keeps the sums in range (check_exact).
    """
    keys, vals = [], []
    for x, y in terms:
        p, i, j = x.nonzero()
        yj, q, k = y.transpose(1, 0, 2).nonzero()       # sorted by yj
        first = np.searchsorted(yj, j)
        count = np.searchsorted(yj, j, side="right") - first
        px = np.repeat(np.arange(p.size), count)
        py = np.arange(px.size) - np.repeat(np.cumsum(count) - count - first, count)
        keys.append(((p[px] * y.shape[0] + q[py]) * x.shape[1] + i[px]) * y.shape[2] + k[py])
        vals.append(x[p, i, j][px] * y[q, yj, k][py])
    return sum_by_key(np.concatenate(keys), np.concatenate(vals))


def kron_nonzeros(x, y):
    """The (row, col, value) triples of the nonzeros of kron(x, y), one per
    pair of nonzeros of x and y."""
    a, b = x.nonzero()
    c, d = y.nonzero()
    rows = (a[:, None] * y.shape[0] + c).ravel()
    cols = (b[:, None] * y.shape[1] + d).ravel()
    return rows, cols, np.multiply.outer(x[a, b], y[c, d]).ravel()


class Congruences:
    """Congruences mod m, posed block by block as sparse triples.

    unknowns(n) adds n unknowns and returns the index of the first, so
    unknowns can be added while rows are posed.  block(row_orders, rhs)
    opens a block of rows (row i a congruence mod row_orders[i] with right
    side rhs[i]), and add(rows, cols, vals) adds entries to it, rows counted
    from its first row.  Nothing is keyed or allocated until the system is
    read: matrix() sums the entries and reduces them mod m before it
    allocates the dense matrix of the rows left nonzero, once, and solve()
    and kernel() answer from that matrix.  A zero row refutes the system
    iff its right side is nonzero.
    """

    def __init__(self, ncols, m):
        self.ncols, self.m = ncols, m
        self.nrows = self.first = 0
        self.orders, self.rhs, self.rows, self.cols, self.vals = [], [], [], [], []

    def unknowns(self, n):
        self.ncols += n
        return self.ncols - n

    def block(self, row_orders, rhs):
        self.first = self.nrows
        self.nrows += len(row_orders)
        self.orders.append(np.asarray(row_orders, dtype=np.int64))
        self.rhs.append(np.asarray(rhs, dtype=np.int64).reshape(-1))

    def add(self, rows, cols, vals):
        self.rows.append(self.first + rows)
        self.cols.append(cols)
        self.vals.append(vals % self.m)

    def matrix(self):
        """(matrix, row orders, right side as one column, solvable), zero rows dropped."""
        keys = _concat(self.rows) * self.ncols + _concat(self.cols)
        keys, sums = sum_by_key(keys, _concat(self.vals))
        sums %= self.m
        nonzero = sums != 0
        rows, cols = np.divmod(keys[nonzero], self.ncols)
        live = np.bincount(rows, minlength=self.nrows) > 0
        orders, rhs = _concat(self.orders), _concat(self.rhs)
        a = zeros(int(live.sum()), self.ncols)
        a[(np.cumsum(live) - 1)[rows], cols] = sums[nonzero]
        return a, orders[live], rhs[live, None], not (rhs[~live] % orders[~live]).any()

    def solve(self):
        """One solution x, a vector of ncols, or None."""
        a, orders, rhs, solvable = self.matrix()
        x = solve_hetero(a, rhs, orders, self.m) if solvable else None
        return None if x is None else x[:, 0]

    def kernel(self):
        """Generators of the solutions of the homogeneous system, reduced: one column each."""
        a, orders, _, _ = self.matrix()
        return reduce_generators(kernel_hetero(a, orders, self.m), self.m)


def _concat(parts):
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def factorize(n):
    """The prime factorization of n by trial division, {p: e} in ascending p.

    Takes sqrt(n) steps: callers bound n (check_exact) before calling.
    """
    out = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


_PRIME_CACHE = {}


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


def _smith_prime(d, c, m):
    """Gauss-Jordan reduction of d = [A | B] over the field Z/m, m prime.

    A is the first c columns; the pivot search reads only those, and each
    row operation acts on the whole row, so B ends as S @ B without S
    being formed.  Each pivot updates only the rows with a nonzero in the
    pivot column, and only the columns where the pivot row is nonzero: the
    systems the package builds are mostly zeros.  These columns all lie at
    or right of the pivot column, because the pivot row is zero to its
    left (every earlier column has its pivot above it).  The reduced A is
    [I C; 0 0] up to the column permutation that puts the pivot columns
    first, so a solve reads the solution and the kernel off it and forms
    no T.

    The columns are taken in order, so a column gets a pivot iff it is not
    in the span of the columns before it: the pivots left of any column k
    count the rank of the first k columns.  Returns the pivot columns.

    This is the pass for odd primes; over F_2, _smith_f2 takes the same
    pivots and makes the same row operations on bit rows.
    """
    r = d.shape[0]
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
        vec = d[row, col:]
        pv = int(d[row, col])
        if pv != 1:
            np.multiply(vec, modinv(pv, m), out=vec)
            np.remainder(vec, m, out=vec)
        hits = d[:, col].nonzero()[0]
        if hits.size > 1:
            hits = hits[hits != row]
            cols = vec.nonzero()[0]
            live = (hits[:, None], col + cols)
            block = np.multiply.outer(d[hits, col], vec[cols])
            np.subtract(d[live], block, out=block)
            np.remainder(block, m, out=block)
            d[live] = block
        pivot_cols.append(col)
        row += 1
    return pivot_cols


def _pack_f2(a, b):
    """[A | B] mod 2 as bit rows, and A's columns as bit masks of their rows.

    Read off the nonzeros of the caller's arrays, one bit per odd entry: no
    reduced copy of the dense A or B is made, and the cost beyond finding
    the nonzeros follows their number.
    """
    r, c = a.shape
    rows, cols = [0] * r, [0] * c
    i, j = a.nonzero()
    for row, col, v in zip(i.tolist(), j.tolist(), a[i, j].tolist()):
        if v & 1:
            rows[row] |= 1 << col
            cols[col] |= 1 << row
    if b is not None:
        i, j = b.nonzero()
        for row, col, v in zip(i.tolist(), (j + c).tolist(), b[i, j].tolist()):
            if v & 1:
                rows[row] |= 1 << col
    return rows, cols


def _smith_f2(rows, cols, c):
    """The pass of _smith_prime over F_2, on bit rows of [A | B] and bit columns of A.

    rows[i] has bit j for a one in column j, and cols[j] bit i for a one in
    row i, for each of A's c columns.  The pivot of a column is its lowest
    set bit at or below `row`, the row _smith_prime takes; it is 1, so a
    pivot XORs its row into every other row with a one in the pivot column,
    and the mask of those rows into every column where the pivot row has a
    one.  The rows at or below `row` are zero left of the pivot column, so
    a swap and an update touch no column left of it, and the pivot column
    is not read again.  Returns the pivot columns.
    """
    r = len(rows)
    amask = (1 << c) - 1
    pivot_cols = []
    row = 0
    for col in range(c):
        if row == r:
            break
        below = cols[col] >> row
        if not below:
            continue
        i = row + (below & -below).bit_length() - 1
        hits = cols[col] ^ (1 << i)
        piv = rows[i]
        if i != row:
            rows[row], rows[i] = piv, rows[row]
            flip = (1 << row) | (1 << i)
            x = ((piv ^ rows[i]) & amask) >> (col + 1)
            while x:
                low = x & -x
                cols[col + low.bit_length()] ^= flip
                x ^= low
        if hits:
            x = hits
            while x:
                low = x & -x
                rows[low.bit_length() - 1] ^= piv
                x ^= low
            x = (piv & amask) >> (col + 1)
            while x:
                low = x & -x
                cols[col + low.bit_length()] ^= hits
                x ^= low
        pivot_cols.append(col)
        row += 1
    return pivot_cols


def _smith_composite(d, c, m, t):
    """Diagonalize the first c columns of d = [A | B] mod m, m composite, in place.

    Row operations act on whole rows of d, so B ends as S @ B; column
    operations act on A's columns and on T, if one is given (the identity).
    """
    r = d.shape[0]
    a = d[:, :c]
    col_mats = [a] if t is None else [a, t]

    def row_step(k, i):
        # Zero a[i, k] using row k.
        av = int(a[k, k])
        bv = int(a[i, k])
        if bv == 0:
            return
        if av != 0 and bv % av == 0:
            d[i] = (d[i] - (bv // av) * d[k]) % m
            return
        g, x, y = xgcd(av, bv)
        ag, bg = av // g, bv // g
        rk = (x * d[k] + y * d[i]) % m
        ri = (-bg * d[k] + ag * d[i]) % m
        d[k], d[i] = rk, ri

    def col_step(k, j):
        av = int(a[k, k])
        bv = int(a[k, j])
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
        sub = a[k:, k:]
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
            d[[k, i0]] = d[[i0, k]]
        if j0 != k:
            for mat in col_mats:
                mat[:, [k, j0]] = mat[:, [j0, k]]

        if gcd(int(a[k, k]), m) == 1:
            inv = modinv(a[k, k], m)
            col = a[k + 1:, k]
            if col.any():
                q = (col * inv) % m
                d[k + 1:] = (d[k + 1:] - np.outer(q, d[k])) % m
            row = a[k, k + 1:]
            if row.any():
                q = (row * inv) % m
                for mat in col_mats:
                    mat[:, k + 1:] = (mat[:, k + 1:] - np.outer(mat[:, k], q)) % m
            continue

        while True:
            for i in range(k + 1, r):
                row_step(k, i)
            if not a[k, k + 1:].any():
                break
            for j in range(k + 1, c):
                col_step(k, j)
            if not a[k + 1:, k].any():
                break


def smith_mod(a, m, rhs):
    """Row-reduce the one array [A mod m | B mod m], B = rhs, to D = S @ A @ T.

    The pivot search and the column operations read A's columns only; the
    row operations act on whole rows, so B ends as S @ B (the decomposition's
    rhs) and no S is formed.  The modulus picks the path: m = 2 reduces bit
    rows packed from the nonzeros of a and rhs, with no int64 copy of
    either (_smith_f2); another prime, or a composite, reduces an int64 copy.  rhs is None for the diagonal alone, or a
    matrix with a's rows for a solve (solution(), kernel()); a solve forms
    T on the composite path, where the kernel and the solution read it.
    No divisibility chain is enforced on the diagonal; none of the callers
    needs it, and D is reduced by the same steps whatever B is.
    """
    a = as_matrix(a)
    r, c = a.shape
    check_exact(m, max(r, c))
    b = None if rhs is None else as_matrix(rhs, rows=r)
    width = None if b is None else b.shape[1]
    t = None
    if m == 2:
        rows, cols = _pack_f2(a, b)
        pivots = _smith_f2(rows, cols, c)
        d = BitRows(rows, c + (width or 0))
    else:
        d = np.concatenate([a] if b is None else [a, b], axis=1)
        np.remainder(d, m, out=d)
        if m not in _PRIME_CACHE:
            _PRIME_CACHE[m] = factorize(m) == {m: 1}
        if _PRIME_CACHE[m]:
            pivots = _smith_prime(d, c, m)
        else:
            pivots = None
            t = None if b is None else eye(c)
            _smith_composite(d, c, m, t)
            diag = d.diagonal()[:min(r, c)].copy()
    if pivots is not None:
        diag = np.zeros(min(r, c), dtype=np.int64)
        diag[:len(pivots)] = 1
    return SmithDecomposition(m=m, diag=diag, t=t, shape=(r, c), pivots=pivots, reduced=d, width=width)


def reduce_generators(gens, m):
    """Replace the columns of gens by at most `rows` columns with the same span.

    D = S G T gives S^-1 D = G T (mod m), and colspan(G) = S^-1 colspan(D):
    the columns G T_i with D_ii != 0 generate it.  So one solve pass, with
    no right-hand side and no S, gives them: over a prime the pivot columns
    of G, and on the composite path G T_i over the live diagonal.
    """
    g = as_matrix(gens) % m
    if g.shape[1] == 0 or not g.any():
        return zeros(g.shape[0], 0)
    dec = smith_mod(g, m, zeros(g.shape[0], 0))
    if dec.pivots is not None:
        return g[:, dec.pivots]
    return (g @ dec.t[:, np.flatnonzero(dec.diag % m)]) % m


# ---------------------------------------------------------------------------
# Mixed-order helpers.  A "group" here is a tuple of orders (d_1, ..., d_k),
# each d_i | m, standing for  Z/d_1 + ... + Z/d_k.  Vectors are coordinate
# columns reduced mod the per-coordinate order.
# ---------------------------------------------------------------------------

def reduce_coords(v, orders):
    """Reduce each coordinate row of v modulo its order."""
    v = np.asarray(v, dtype=np.int64)
    if len(orders) == 0:
        return v
    mod = np.asarray(orders, dtype=np.int64)
    if v.ndim == 1:
        return v % mod
    return v % mod[:, None]


def scale_rows(a, row_orders, m):
    """Embed row congruences mod e_i into congruences mod m.

    Rows mod m already come back unreduced and uncopied: smith_mod reduces
    into an array of its own, so a solve copies such a system once, not twice.
    """
    a = as_matrix(a, rows=len(row_orders))
    factors = np.array([m // e for e in row_orders], dtype=np.int64)
    if (factors == 1).all():
        return a
    out = a * factors[:, None]
    out %= m
    return out


def eliminate(a, b, row_orders, m):
    """One elimination of [a | b], row i a congruence mod row_orders[i].

    Returns the SmithDecomposition of the scaled system (see
    scale_rows): its solution() solves a @ x = b, and its kernel()
    generates {x : a @ x = 0}.  x is only meaningful modulo the column
    orders of whatever group it parametrizes; any representative mod m is
    returned.
    """
    b = as_matrix(b, rows=len(row_orders))
    return smith_mod(scale_rows(a, row_orders, m), m, scale_rows(b, row_orders, m))


def solve_hetero(a, b, row_orders, m):
    """One solution of  a @ x = b  where row i is a congruence mod row_orders[i], or None."""
    if len(row_orders) == 0:
        return zeros(as_matrix(a, rows=0).shape[1], as_matrix(b, rows=0).shape[1])
    return eliminate(a, b, row_orders, m).solution()


def kernel_hetero(a, row_orders, m):
    """Generators of {x : a @ x = 0 (mod row_orders, rowwise)} as columns mod m."""
    if len(row_orders) == 0:
        return eye(as_matrix(a, rows=0).shape[1])
    return eliminate(a, zeros(len(row_orders), 0), row_orders, m).kernel()


@dataclass
class QuotientPresentation:
    """Q = (Z/d_1 + ... + Z/d_k) / <relation columns>, normalized.

    proj maps ambient coordinates to Q coordinates; lift picks representatives
    (proj @ lift = identity on Q).  orders lists the invariant factors > 1.
    """

    orders: tuple
    proj: np.ndarray   # len(orders) x k
    lift: np.ndarray   # k x len(orders)


def quotient_presentation(ambient_orders, relations, m):
    """Present the quotient of a mixed-order group by a relation subgroup.

    F = [relations | diag(ambient_orders)] presents the quotient, and one
    elimination of [F | I] gives D = S F T with S as its right-hand side.
    proj is the kept rows of S; lift is the kept columns of S^-1, solved for
    from S X = I[:, keep], whose solution is unique as S is invertible mod
    m.  Most presentations end with S = I and skip that solve.
    """
    k = len(ambient_orders)
    if k == 0:
        return QuotientPresentation(orders=(), proj=zeros(0, 0), lift=zeros(0, 0))
    full = np.concatenate([as_matrix(relations, rows=k, cols=0),
                           np.diag(np.asarray(ambient_orders, dtype=np.int64))], axis=1)
    dec = smith_mod(full, m, eye(k))
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
    s = dec.rhs
    proj = s[keep] % np.array(new_orders, dtype=np.int64)[:, None]
    if np.count_nonzero(s) == k and (s.diagonal() == 1).all():
        lift = eye(k)[:, keep]
    else:
        lift = smith_mod(s, m, eye(k)[:, keep]).solution()
    lift = reduce_coords(lift, ambient_orders)
    return QuotientPresentation(orders=tuple(int(o) for o in new_orders), proj=proj, lift=lift)


def group_size(orders):
    n = 1
    for d in orders:
        n *= int(d)
    return n


def enumerate_group(orders, cap=None):
    """Yield every element of the group as an int64 vector.  cap guards blowup."""
    if cap is not None and group_size(orders) > cap:
        raise ValueError(f"group of order {group_size(orders)} exceeds enumeration cap {cap}")
    ranges = [range(int(d)) for d in orders]
    for tup in itertools.product(*ranges):
        yield np.array(tup, dtype=np.int64)


def subgroup_order(gens, ambient_orders, m, split=None):
    """Order of the subgroup of the mixed group generated by the given columns.

    With split, the pair (order of the first split columns, order of all).
    Scaling row i by m / d_i (scale_rows) embeds the group into (Z/m)^k, and
    there a span has order prod m / gcd(D_ii, m) over the Smith diagonal, so
    only the diagonal is formed.  Over a prime the order is m^rank, and one
    pass gives both orders of a split: the pivots left of the split count
    the rank of the first split columns.  A composite modulus has no such
    prefix rule, so the first columns get a pass of their own.
    """
    a = scale_rows(gens, ambient_orders, m)
    dec = smith_mod(a, m, None)
    whole = _diagonal_span_order(dec.diag, m)
    if split is None:
        return whole
    if dec.pivots is not None:
        return m ** sum(1 for col in dec.pivots if col < split), whole
    return _diagonal_span_order(smith_mod(a[:, :split], m, None).diag, m), whole


def _diagonal_span_order(diag, m):
    n = 1
    for di in diag:
        n *= m // gcd(int(di), m)
    return n
