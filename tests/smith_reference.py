"""Reference elimination for the bit-identity test of linalg._smith_prime.

`_smith_prime` below is the dense Gauss-Jordan elimination that the
zero-skipping kernel replaced, copied unchanged but for the `pivots`
field that SmithDecomposition gained later.  Every basis,
certificate and report downstream reads the decomposition, so the kernel
must return exactly what this one returns.
"""

import numpy as np

from ghostdim.linalg import SmithDecomposition, as_matrix, eye, modinv


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
                              pivots=pivot_cols)
