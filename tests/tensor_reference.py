"""Reference tensor constructions for the bit-identity tests of ghostdim.tensor_ss.

`tensor_complexes`, `tensor_chain_map`, `_tensor_second_map` and
`_column_subcomplex` below are the block loops that tensor_ss ran before
they became callers of one block routine, and `_tensor_free_left` is the
free-left builder that ghostdim.modules kept beside the free-right one,
copied unchanged.  The total complexes, the induced chain maps, the column
subcomplexes and the tensor modules must come out exactly as these build
them.  `TensorComplex` is the dataclass these functions return, with the
`block_index` they use.
"""

from dataclasses import dataclass

from ghostdim import linalg
from ghostdim.complexes import ChainMap, Complex
from ghostdim.linalg import eye, zeros
from ghostdim.modules import FgModule, TensorModule, tensor_map, tensor_modules
from ghostdim.tensor_ss import _as_left_complex


@dataclass
class TensorComplex:
    """Total tensor complex over the base ring, with per-bidegree block data."""

    total: Complex
    x: Complex
    z: Complex
    blocks: dict          # n -> list of (a, b, TensorModule, offset)

    def block_index(self, n):
        return {(a, b): (tm, off) for a, b, tm, off in self.blocks.get(n, [])}


def tensor_complexes(x, z):
    """X (x)_R Z with Koszul signs; Z is a complex over the opposite ring."""
    ring = x.ring
    z = _as_left_complex(ring, z)
    base = ring.base_ring()
    lo = x.lo + z.lo
    hi = x.hi + z.hi
    blocks = {}
    terms = {}
    tms = {}
    for a in x.degrees():
        if x.term(a).is_zero:
            continue
        for b in z.degrees():
            if z.term(b).is_zero:
                continue
            tms[(a, b)] = tensor_modules(x.term(a), z.term(b))
    for n in range(lo, hi + 1):
        entry = []
        off = 0
        orders = []
        for a in x.degrees():
            b = n - a
            tm = tms.get((a, b))
            if tm is None or tm.module.is_zero:
                continue
            entry.append((a, b, tm, off))
            off += tm.module.ngens
            orders.extend(tm.module.orders)
        blocks[n] = entry
        terms[n] = FgModule(ring=base, orders=tuple(orders),
                            actions=(eye(len(orders)),), label=f"T{n}")
    diffs = {}
    for n in range(lo, hi + 1):
        src_blocks = blocks.get(n, [])
        tgt_blocks = blocks.get(n - 1, [])
        tgt_index = {(a, b): (tm, off) for a, b, tm, off in tgt_blocks}
        mat = zeros(terms[n - 1].ngens if (n - 1) in terms else 0,
                    terms[n].ngens if n in terms else 0)
        if mat.size == 0:
            continue
        for a, b, tm, off in src_blocks:
            ncols = tm.module.ngens
            hit = tgt_index.get((a - 1, b))
            if hit is not None and x.diff(a).size:
                tmt, toff = hit
                sub = tensor_map(x.diff(a), eye(z.term(b).ngens), tm, tmt)
                mat[toff:toff + tmt.module.ngens, off:off + ncols] = sub.mat
            hit = tgt_index.get((a, b - 1))
            if hit is not None and z.diff(b).size:
                tmt, toff = hit
                sign = -1 if a % 2 else 1
                sub = tensor_map(eye(x.term(a).ngens), (sign * z.diff(b)) % ring.modulus, tm, tmt)
                mat[toff:toff + tmt.module.ngens, off:off + ncols] = sub.mat
        diffs[n] = mat
    total = Complex(base, lo, hi, terms, diffs, name=f"({x.name})(x)({z.name})")
    return TensorComplex(total=total, x=x, z=z, blocks=blocks)


def tensor_chain_map(f, src_tensor):
    """The induced map  f (x) id_Z  out of src_tensor = f.src (x) Z."""
    z = src_tensor.z
    tgt_tensor = tensor_complexes(f.tgt, z)
    mats = {}
    for n in src_tensor.total.degrees():
        src_blocks = src_tensor.blocks.get(n, [])
        tgt_index = tgt_tensor.block_index(n)
        mat = zeros(tgt_tensor.total.term(n).ngens, src_tensor.total.term(n).ngens)
        for a, b, tm, off in src_blocks:
            hit = tgt_index.get((a, b))
            if hit is None:
                continue
            tmt, toff = hit
            comp = f.component(a)
            if not comp.any():
                continue
            sub = tensor_map(comp, eye(z.term(b).ngens), tm, tmt)
            mat[toff:toff + tmt.module.ngens, off:off + tm.module.ngens] = sub.mat
        mats[n] = mat
    return ChainMap(src_tensor.total, tgt_tensor.total, mats, check=True)


def _tensor_second_map(src_tensor, tgt_tensor, g):
    """Induced map  id_X (x) g  for g: Z -> Z' a map of left complexes."""
    x = src_tensor.x
    mats = {}
    for n in src_tensor.total.degrees():
        mat = zeros(tgt_tensor.total.term(n).ngens, src_tensor.total.term(n).ngens)
        tgt_index = tgt_tensor.block_index(n)
        for a, b, tm, off in src_tensor.blocks.get(n, []):
            comp = g.component(b)
            if not comp.any():
                continue
            hit = tgt_index.get((a, b))
            if hit is None:
                continue
            tmt, toff = hit
            sub = tensor_map(eye(x.term(a).ngens), comp, tm, tmt)
            mat[toff:toff + tmt.module.ngens, off:off + tm.module.ngens] = sub.mat
        mats[n] = mat
    return ChainMap(src_tensor.total, tgt_tensor.total, mats, check=True)


def _column_subcomplex(txq, q_max):
    """The subcomplex of Tot(X (x) Q) spanned by blocks with Q-degree <= q_max."""
    total = txq.total
    base = total.ring
    terms = {}
    incl_mats = {}
    keep = {}
    for n in total.degrees():
        orders = []
        rows = []
        kept = []
        for a, b, tm, off in txq.blocks.get(n, []):
            if b <= q_max:
                kept.append((a, b, tm, off, len(orders)))
                orders.extend(tm.module.orders)
        keep[n] = kept
        terms[n] = FgModule(ring=base, orders=tuple(orders), actions=(eye(len(orders)),))
        inc = zeros(total.term(n).ngens, len(orders))
        for a, b, tm, off, sub_off in kept:
            inc[off:off + tm.module.ngens, sub_off:sub_off + tm.module.ngens] = eye(tm.module.ngens)
        incl_mats[n] = inc
    diffs = {}
    for n in total.degrees():
        if n - 1 < total.lo:
            continue
        proj = incl_mats[n - 1].T if (n - 1) in incl_mats else zeros(0, total.term(n - 1).ngens)
        diffs[n] = proj @ total.diff(n) @ incl_mats[n]
    sub = Complex(base, total.lo, total.hi, terms, diffs)
    incl = ChainMap(sub, total, incl_mats, check=True)
    return sub, incl


def _tensor_free_left(right, left, base, label):
    """M (x) (R^op)^b = M^b: m tensored with copy-c of b_t is act_M^t(m) in copy c."""
    ring = right.ring
    m = ring.modulus
    rank = ring.rank
    b = left.ngens // rank
    ni = right.ngens
    npair = ni * left.ngens
    orders = tuple(right.orders) * b
    proj = zeros(b * ni, npair)
    lift = zeros(npair, b * ni)
    for i in range(ni):
        for c in range(b):
            for t in range(rank):
                col = i * left.ngens + c * rank + t
                proj[c * ni:(c + 1) * ni, col] = right.actions[t][:, i]
    for c in range(b):
        for t in range(rank):
            u = int(ring.unit[t])
            if u:
                for i in range(ni):
                    lift[i * left.ngens + c * rank + t, c * ni + i] = u
    proj = linalg.reduce_coords(proj % m, orders) if orders else proj
    mod = FgModule(ring=base, orders=orders, actions=(eye(len(orders)),), label=label)
    return TensorModule(module=mod, proj=proj, lift=lift, shape=(right.ngens, left.ngens))
