"""Reference tensor constructions for the bit-identity tests of ghostdim.tensor_ss.

`tensor_complexes`, `tensor_chain_map`, `_tensor_second_map` and
`_column_subcomplex` below are the block loops that tensor_ss ran before
they became callers of one block routine, and `_tensor_free_left` is the
free-left builder that ghostdim.modules kept beside the free-right one,
copied unchanged but for the positional `TensorModule` call.  The total complexes, the induced chain maps, the column
subcomplexes and the tensor modules must come out exactly as these build
them.  `TensorComplex` is the dataclass these functions return, with the
`block_index` they use.

`tensor_map` is the pair-cube route that ghostdim.modules took for every
pair of tensor modules before free factors got their closed form, copied
unchanged; the block loops here use it, so they share no tensor-map code
with the package.

`tor_via_left` computes Tor by resolving the left module instead of the
right one, as ghostdim.tensor_ss did beside `tor` until it had no caller
there; the Tor-balance test compares the two.

`ucss_filtration` is the one ghostdim.tensor_ss ran before it read the
kernel chain from subgroup orders, copied unchanged: it forms the homology
of every target W_s (x) Z and takes the kernel of the induced map by
`_kernel_order_of`.  Here it runs on these block loops.
"""

from dataclasses import dataclass

import numpy as np

from ghostdim import linalg
from ghostdim.complexes import ChainMap, Complex, induced_map, module_complex, resolution_complex
from ghostdim.errors import ValidationError
from ghostdim.ghosts import ghost_tower
from ghostdim.linalg import eye, zeros
from ghostdim.modules import FgModule, ModuleMap, TensorModule, subgroup_order_in, tensor_modules
from ghostdim.tensor_ss import FiltrationTable, _as_left_complex


@dataclass
class TensorComplex:
    """Total tensor complex over the base ring, with per-bidegree block data."""

    total: Complex
    x: Complex
    z: Complex
    blocks: dict          # n -> list of (a, b, TensorModule, offset)

    def block_index(self, n):
        return {(a, b): (tm, off) for a, b, tm, off in self.blocks.get(n, [])}


def _checked(obj):
    """What a reference builder builds, validated (the package trusts its own)."""
    obj.validate()
    return obj


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
    total = _checked(Complex(base, lo, hi, terms, diffs, name=f"({x.name})(x)({z.name})"))
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
    return _checked(ChainMap(src_tensor.total, tgt_tensor.total, mats))


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
    return _checked(ChainMap(src_tensor.total, tgt_tensor.total, mats))


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
    sub = _checked(Complex(base, total.lo, total.hi, terms, diffs))
    incl = _checked(ChainMap(sub, total, incl_mats))
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
    return TensorModule(mod, (right.ngens, left.ngens), (proj, lift), None)


def tensor_map(f_mat, g_mat, src_tensor, tgt_tensor):
    """Induced map on tensors for group matrices f: M -> M' and g: N -> N'.

    src_tensor presents M (x) N and tgt_tensor presents M' (x) N'.  Pair
    coordinates are row-major; the Kronecker product is never materialized:
    (f (x) g) vec(V) = vec(f V g^T) columnwise over the lift.
    """
    m = src_tensor.module.ring.modulus
    ni_s, nj_s = src_tensor.shape
    lift = src_tensor.lift
    k = lift.shape[1]
    if k == 0 or tgt_tensor.module.is_zero:
        mat = zeros(tgt_tensor.module.ngens, src_tensor.module.ngens)
        return ModuleMap(src_tensor.module, tgt_tensor.module, mat)
    cube = lift.reshape(ni_s, nj_s, k)
    t1 = np.tensordot(f_mat, cube, axes=(1, 0)) % m          # ni_t x nj_s x k
    t2 = np.tensordot(g_mat, t1, axes=(1, 1)) % m            # nj_t x ni_t x k
    moved = np.transpose(t2, (1, 0, 2)).reshape(-1, k)
    mat = (tgt_tensor.proj @ moved) % m
    return ModuleMap(src_tensor.module, tgt_tensor.module, mat)


def tor_via_left(m_right, n_left, max_degree):
    """The same Tor computed by resolving the left module instead."""
    res = resolution_complex(n_left, max_degree + 1)
    t = tensor_complexes(module_complex(m_right), res)
    return {s: t.total.homology_at(s).module for s in range(max_degree + 1)}


def _kernel_order_of(ind):
    """Order of the kernel subgroup of a ModuleMap between finite modules."""
    m = ind.src.ring.modulus
    kg = linalg.kernel_hetero(ind.mat, ind.tgt.orders, m)
    kg = linalg.reduce_coords(kg, ind.src.orders)
    return subgroup_order_in(ind.src, kg)


def ucss_filtration(x, z, window=None, max_depth=None):
    """Filtration of H(X (x) Z) by kernels of the tower-induced maps.

    A class has filtration s when it dies under g_s (x) Z but not under
    g_{s-1} (x) Z; the E-infinity order at (s, t) is the index jump of the
    kernel chain.  Only total degrees inside the window are read.
    """
    ring = x.ring
    z = _as_left_complex(ring, z)
    txz = tensor_complexes(x, z)
    lo, hi = txz.total.lo, txz.total.hi
    if window is not None:
        lo, hi = max(lo, window[0]), min(hi, window[1])
    degrees = [t for t in range(lo, hi + 1)]
    h_orders = {t: txz.total.homology_at(t).module.size for t in degrees}
    tower = ghost_tower(x, 0)
    if max_depth is None:
        max_depth = max(x.length + 1, 1)
    kernel_orders = {t: [] for t in degrees}
    exhausted = all(v == 1 for v in h_orders.values())
    s = 0
    while not exhausted:
        if s >= max_depth:
            break
        gs = tower.composite(s)
        gxz = tensor_chain_map(gs, txz)
        exhausted = True
        for t in degrees:
            ind = induced_map(gxz, t)
            k_order = _kernel_order_of(ind)
            prev = kernel_orders[t][-1] if kernel_orders[t] else None
            if prev is not None and k_order % prev:
                raise ValidationError("kernel filtration failed to be nested")
            kernel_orders[t].append(k_order)
            if k_order != h_orders[t]:
                exhausted = False
        s += 1
    e_infty = {}
    line = 0
    for t in degrees:
        chain = kernel_orders[t]
        prev = 1
        for s_idx, k in enumerate(chain):
            jump = k // prev
            if jump > 1:
                e_infty[(s_idx, t)] = jump
                line = max(line, s_idx)
            prev = k
    return FiltrationTable(
        x_name=x.name or "X",
        z_name=z.name or "Z",
        window=(lo, hi),
        h_orders=h_orders,
        kernel_orders=kernel_orders,
        e_infty=e_infty,
        vanishing_line=line,
        exhausted=exhausted,
        depth=len(tower.ugs),
    )
