"""Reference module and map checks for the rank-1 shortcut test.

`_validate_module` and `_validate_map` below are the checks that
ghostdim.modules ran before it stopped at the unit and well-definedness
checks over a ring of rank 1, copied unchanged.  Over such a ring the
shortened checks must accept and reject exactly what these do.
"""

import numpy as np

from ghostdim import linalg
from ghostdim.errors import RingMismatch, ValidationError
from ghostdim.linalg import eye
from ghostdim.modules import SPARSE_CHECK_MIN_GENS


def _validate_module(mod):
    ring = mod.ring
    m = ring.modulus
    n = mod.ngens
    for d in mod.orders:
        if d < 2 or m % d:
            raise ValidationError(f"generator order {d} must divide m = {m} and exceed 1")
    if len(mod.actions) != ring.rank:
        raise ValidationError(f"need {ring.rank} action matrices, got {len(mod.actions)}")
    ords = np.asarray(mod.orders, dtype=np.int64)
    for t, a in enumerate(mod.actions):
        # well-definedness: a[i, j] * d_j = 0 mod d_i
        if n and ((a * ords[None, :]) % ords[:, None]).any():
            raise ValidationError(f"action matrix {t} is not well defined on the group")
    if n == 0:
        return
    unit_combo = sum(int(u) * a for u, a in zip(ring.unit, mod.actions)) % m
    if (linalg.reduce_coords(unit_combo, mod.orders) != linalg.reduce_coords(eye(n), mod.orders)).any():
        raise ValidationError("unit does not act as the identity")
    acts = np.stack(mod.actions)                              # rank x n x n
    r = ring.rank
    linalg.check_exact(m, n + r)
    # (x . b_s) . b_t = x . (b_s b_t):  A^t A^s = sum_k sc[s,t,k] A^k
    if r > 1 and n > SPARSE_CHECK_MIN_GENS:
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
    delta = (lhs - rhs) % np.asarray(mod.orders)[None, None, :, None]
    if delta.any():
        bad = np.argwhere(delta)[0]
        raise ValidationError(f"action violates the ring relations at basis pair ({bad[0]}, {bad[1]})")


def _validate_map(f):
    if not f.src.ring.same_ring(f.tgt.ring):
        raise RingMismatch(f"{f.src.ring.name} vs {f.tgt.ring.name}")
    m = f.src.ring.modulus
    src_ord = np.asarray(f.src.orders, dtype=np.int64)
    tgt_ord = np.asarray(f.tgt.orders, dtype=np.int64)
    if f.mat.size:
        if ((f.mat * src_ord[None, :]) % tgt_ord[:, None]).any():
            raise ValidationError("matrix is not well defined on the source group")
        src_acts = np.stack(f.src.actions)
        tgt_acts = np.stack(f.tgt.actions)
        nt, ns = f.mat.shape
        linalg.check_exact(m, nt + ns)
        if f.src.ring.rank > 1 and max(nt, ns) > SPARSE_CHECK_MIN_GENS:
            # F A^t - A^t F, both keyed (t, i, k)
            keys, sums = linalg.sparse_product_sum([(f.mat[None], src_acts),
                                                    (-tgt_acts, f.mat[None])])
            bad = sums % tgt_ord[keys // ns % nt] != 0
            if bad.any():
                t = int(keys[bad][0] // (nt * ns))
                raise ValidationError(f"matrix does not commute with ring action {t}")
            return
        delta = (np.einsum("ij,tjk->tik", f.mat, src_acts)
                 - np.einsum("tij,jk->tik", tgt_acts, f.mat)) % tgt_ord[None, :, None]
        if delta.any():
            t = int(np.argwhere(delta)[0][0])
            raise ValidationError(f"matrix does not commute with ring action {t}")
