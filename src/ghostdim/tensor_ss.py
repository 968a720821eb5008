"""Derived tensor products, Tor, and the universal-coefficient filtration.

Complexes here have projective terms, so the plain total tensor product
computes the derived tensor.  The E-infinity data of the universal
coefficient spectral sequence is read off directly from the ghost tower:
a homology class of X (x) Z has filtration s exactly when it dies under
g_s (x) Z but not under g_{s-1} (x) Z.  No page bookkeeping is needed; the
filtration is exact and finite because compact objects have finite
projective dimension.

An independent second route (`resolution_filtration`) computes the same
numbers from a free resolution of the left module, filtering the total
complex by resolution degree, with no towers anywhere.  It is order-only
as well: it forms no homology module, column subcomplex or induced map,
and shares no shortcut with the tower route.

Every tensor map goes through one block routine, `_tensor_blocks`: the
total differential, f (x) 1 and 1 (x) g.  As everywhere in the package,
constructors do not validate; the total complex and both induced chain
maps are sound for the reasons given at `_tensor_blocks`.  The
filtration's stage tensors W_s (x) Z are held as pieces from the same
routine (`_StageTensor`), for the reason given there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .complexes import (
    ChainMap,
    Complex,
    dual_complex,
    homology_order,
    is_free_module,
    module_complex,
    resolution_complex,
    suspend,
)
from .errors import RingMismatch, SideMismatch, ValidationError
from .ghosts import ghost_tower
from .linalg import eye, zeros
from .modules import FgModule, free_cover, kernel_generators, tensor_map, tensor_modules
from .verdicts import Verdict


@dataclass
class TensorComplex:
    """Total tensor complex over the base ring, with per-bidegree block data."""

    total: Complex
    x: Complex
    z: Complex
    blocks: dict          # n -> list of (a, b, TensorModule, offset)


def _as_left_complex(ring, z):
    if isinstance(z, FgModule):
        z = module_complex(z)
    if z.ring.modulus != ring.modulus or z.ring.rank != ring.rank:
        raise RingMismatch(f"{ring.name} vs {z.ring.name}")
    if not z.ring.same_ring(ring.opposite()):
        raise SideMismatch(f"left factor must live over {ring.name}^op")
    return z


# Built from blocks, the results need no validate() (their terms are groups
# over the base ring Z/m, modules under the identity action):
# * d = d_X (x) 1 + (-1)^a 1 (x) d_Z has d.d = 0, since the two mixed terms
#   through (a-1, b-1) carry the Koszul signs (-1)^(a-1) and (-1)^a;
# * f (x) 1 and 1 (x) g of chain maps f, g are chain maps: a degree-zero f
#   keeps a, hence the sign.
def _tensor_blocks(src_blocks, tgt_blocks, shift, parts):
    """Matrices n -> (Tot_n(src) -> Tot_(n+shift)(tgt)) of a sum of tensor maps.

    Each part (da, factors) sends pair block (a, b) to (a + da, b + shift - da)
    by tensor_map(*factors(a, b)).  A block is skipped when either factor is
    zero or the target block is absent; an empty matrix is left out.
    """
    mats = {}
    for n, blocks in src_blocks.items():
        tgt_index = {(a, b): (tm, off) for a, b, tm, off in tgt_blocks.get(n + shift, [])}
        rows = sum(tm.module.ngens for tm, _ in tgt_index.values())
        cols = sum(tm.module.ngens for _, _, tm, _ in blocks)
        if not rows or not cols:
            continue
        mat = zeros(rows, cols)
        for a, b, tm, off in blocks:
            for da, factors in parts:
                hit = tgt_index.get((a + da, b + shift - da))
                if hit is None:
                    continue
                f, g = factors(a, b)
                if not (f.any() and g.any()):
                    continue
                tmt, toff = hit
                sub = tensor_map(f, g, tm, tmt)
                mat[toff:toff + tmt.module.ngens, off:off + tm.module.ngens] = sub.mat
        mats[n] = mat
    return mats


def _tensor_layout(x, z, degrees):
    """Blocks n -> [(a, b, TensorModule, offset)] of Tot_n(X (x) Z), n in degrees."""
    blocks = {}
    for n in degrees:
        entry = []
        off = 0
        for a in x.degrees():
            if x.term(a).is_zero or z.term(n - a).is_zero:
                continue
            tm = tensor_modules(x.term(a), z.term(n - a))
            if tm.module.is_zero:
                continue
            entry.append((a, n - a, tm, off))
            off += tm.module.ngens
        blocks[n] = entry
    return blocks


def _block_orders(entry):
    return [o for _, _, tm, _ in entry for o in tm.module.orders]


def _koszul_dz(x, z):
    """Factors of (-1)^a 1 (x) d_Z on block (a, b), for _tensor_blocks."""
    def factors(a, b):
        sign = -1 if a % 2 else 1
        return eye(x.term(a).ngens), (sign * z.diff(b)) % x.ring.modulus
    return factors


def tensor_complexes(x, z):
    """X (x)_R Z with Koszul signs; Z is a complex over the opposite ring."""
    ring = x.ring
    z = _as_left_complex(ring, z)
    base = ring.base_ring()
    lo = x.lo + z.lo
    hi = x.hi + z.hi
    blocks = _tensor_layout(x, z, range(lo, hi + 1))
    terms = {}
    for n, entry in blocks.items():
        orders = _block_orders(entry)
        terms[n] = FgModule(ring=base, orders=tuple(orders),
                            actions=(eye(len(orders)),), label=f"T{n}")

    def d_x(a, b):
        return x.diff(a), eye(z.term(b).ngens)

    diffs = _tensor_blocks(blocks, blocks, -1, [(-1, d_x), (0, _koszul_dz(x, z))])
    total = Complex(base, lo, hi, terms, diffs, name=f"({x.name})(x)({z.name})")
    return TensorComplex(total=total, x=x, z=z, blocks=blocks)


def tensor_chain_map(f, src_tensor):
    """The induced map  f (x) id_Z  out of src_tensor = f.src (x) Z."""
    z = src_tensor.z
    tgt_tensor = tensor_complexes(f.tgt, z)
    mats = _tensor_blocks(src_tensor.blocks, tgt_tensor.blocks, 0,
                          [(0, lambda a, b: (f.component(a), eye(z.term(b).ngens)))])
    return ChainMap(src_tensor.total, tgt_tensor.total, mats)


def tor(m_right, n_left, max_degree):
    """|Tor_s(M, N)| for s <= max_degree, by resolving the right module: the
    orders of H_s of the tensor complex, with no homology module formed."""
    res = resolution_complex(m_right, max_degree + 1)
    t = tensor_complexes(res, module_complex(n_left))
    return {s: homology_order(t.total, s) for s in range(max_degree + 1)}


# ---------------------------------------------------------------------------
# Tower-kernel filtration (the spectral sequence's E-infinity data)
# ---------------------------------------------------------------------------

@dataclass
class FiltrationTable:
    x_name: str
    z_name: str
    window: tuple                 # (lo, hi) total degrees
    h_orders: dict                # t -> |H_t(X (x) Z)|
    kernel_orders: dict           # t -> [|K_0|, |K_1|, ...]
    e_infty: dict                 # (s, t) -> order of the filtration quotient
    vanishing_line: int
    exhausted: bool
    depth: int                    # tower stages read

    def to_json(self):
        return {
            "x": self.x_name,
            "z": self.z_name,
            "window": list(self.window),
            "h_orders": {str(t): int(v) for t, v in sorted(self.h_orders.items())},
            "e_infty": {f"{s},{t}": int(v) for (s, t), v in sorted(self.e_infty.items())},
            "vanishing_line": self.vanishing_line,
            "exhausted": self.exhausted,
            "tower_depth": self.depth,
        }


class _StageTensor:
    """W_s (x) Z in the total degrees of a range, held as pieces.

    W_s = cone(p_s: P_s -> W_(s-1)) is W_(s-1) + S P_s degreewise, with
    g_s: X -> W_s the prefix inclusion (the prefix layout of ghosts.Tower).
    So W_s (x) Z is held as pieces, X (x) Z in the coordinates of
    tensor_complexes(X, Z), then (S P_i) (x) Z for i = 0..s, and Tot_n lists
    the pieces in that order.  A stage appends one block column to each d_n:
    p_s (x) 1, with p_s's rows cut by the pieces of W_(s-1), and the new
    piece's own (-1)^a 1 (x) d_Z.  This is cone(p_s (x) Z) in the previous
    stage's coordinates, built unchecked because - (x) Z is additive and
    preserves the cone of a chain map degreewise; the pieces are built once
    and no W_s (x) Z is formed whole.  Only the current stage's orders and
    differentials are kept.
    """

    def __init__(self, txz, degrees):
        self.z = txz.z
        self.degrees = degrees
        self.pieces = [(txz.x, txz.blocks)]
        self.orders = {n: list(txz.total.term(n).orders) for n in degrees}
        self.sizes = {n: [len(self.orders[n])] for n in degrees}
        self.diffs = {n: txz.total.diff(n) for n in degrees if n - 1 in degrees}

    def add_stage(self, cover):
        """Append the piece of the stage's cover p_s: P_s -> W_(s-1)."""
        z = self.z
        p = suspend(cover.src)              # the cone's S P_s
        blocks = _tensor_layout(p, z, self.degrees)
        own = _tensor_blocks(blocks, blocks, -1, [(0, _koszul_dz(p, z))])
        cross = []
        start = {}                          # W-degree -> first row of the next piece in it
        for piece, piece_blocks in self.pieces:
            def factors(a, b, piece=piece):
                lo = start.get(a - 1, 0)
                return cover.component(a - 1)[lo:lo + piece.term(a - 1).ngens], eye(z.term(b).ngens)
            cross.append(_tensor_blocks(blocks, piece_blocks, -1, [(-1, factors)]))
            for a in p.degrees():
                start[a - 1] = start.get(a - 1, 0) + piece.term(a - 1).ngens
        for a in p.degrees():
            if start.get(a - 1, 0) != cover.tgt.term(a - 1).ngens:
                raise ValidationError("tower stage is not the cone over the previous stage")
        self.pieces.append((p, blocks))
        for n in self.degrees:
            new = _block_orders(blocks[n])
            self.sizes[n].append(len(new))
            self.orders[n].extend(new)
        for n, old in self.diffs.items():
            d = zeros(len(self.orders[n - 1]), len(self.orders[n]))
            d[:old.shape[0], :old.shape[1]] = old
            row = 0
            for size, mats in zip(self.sizes[n - 1], cross):
                if n in mats:
                    d[row:row + size, old.shape[1]:] = mats[n]
                row += size
            if n in own:
                d[old.shape[0]:, old.shape[1]:] = own[n]
            self.diffs[n] = d


def ucss_filtration(x, z, window=None, max_depth=None):
    """Filtration of H(X (x) Z) by kernels of the tower-induced maps.

    A class has filtration s when it dies under g_s (x) Z but not under
    g_{s-1} (x) Z; the E-infinity order at (s, t) is the index jump of the
    kernel chain.  Only total degrees inside the window are read.

    E-infinity reads only the orders of the kernels, so no homology module
    is formed, of X (x) Z or of a target W_s (x) Z.  |H_t(X (x) Z)| comes
    from orders alone (complexes.homology_order).  For phi = g_s (x) Z, B'_t
    the boundaries of W_s (x) Z and L_t the reduced cycle generators of d_t
    on X (x) Z (none are formed where H_t = 0),
        |ker H_t(phi)| = |H_t(X (x) Z)| / |im H_t(phi)|,
        |im H_t(phi)| = |B'_t + phi(L_t)| / |B'_t|,
    because L_t spans the cycles, hence the cycles modulo boundaries, and the
    chain map phi sends boundaries into B'_t.  Both are subgroup orders in
    the term of degree t.

    W_s (x) Z is held as pieces (_StageTensor): X (x) Z, built once, and one
    piece per stage's free cover (W_s = W_(s-1) + S P_s), so each stage
    appends to the previous one and g_s is the prefix inclusion, phi(L_t)
    being L_t padded with zeros.  One elimination of [B'_t | phi(L_t)], the
    B'_t columns first, gives both orders over a prime field
    (linalg.subgroup_order with a split).

    X must be a certified complex of projectives, as for
    ghosts.pdim_complex: only then does the filtration end where the
    flat dimension is.
    """
    if not x.certified:
        raise ValidationError("ucss_filtration needs a certified-projective complex")
    ring = x.ring
    z = _as_left_complex(ring, z)
    txz = tensor_complexes(x, z)
    tot = txz.total
    lo, hi = tot.lo, tot.hi
    if window is not None:
        lo, hi = max(lo, window[0]), min(hi, window[1])
    degrees = [t for t in range(lo, hi + 1)]
    h_orders = {t: homology_order(tot, t) for t in degrees}
    cycles = {t: kernel_generators(tot.diff(t), tot.term(t), tot.term(t - 1))
              for t in degrees if h_orders[t] > 1}
    if max_depth is None:
        max_depth = max(x.length + 1, 1)
    kernel_orders = {t: [] for t in degrees}
    exhausted = all(v == 1 for v in h_orders.values())
    w = _StageTensor(txz, range(lo, hi + 2))
    s = 0
    while not exhausted:
        if s >= max_depth:
            break
        w.add_stage(ghost_tower(x).ug(s).f)
        exhausted = True
        for t in degrees:
            image = 1
            if t in cycles:
                bounds = w.diffs[t + 1]
                gens = zeros(len(w.orders[t]), bounds.shape[1] + cycles[t].shape[1])
                gens[:, :bounds.shape[1]] = bounds
                gens[:cycles[t].shape[0], bounds.shape[1]:] = cycles[t]
                b_order, total = linalg.subgroup_order(gens, w.orders[t], ring.modulus,
                                                       split=bounds.shape[1])
                image = total // b_order
            k_order = h_orders[t] // image
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
        depth=s,
    )


# ---------------------------------------------------------------------------
# Independent route: filter the total complex of X (x) (free resolution of Z)
# ---------------------------------------------------------------------------

def resolution_filtration(x, z_module):
    """E-infinity orders per (s, t) from a free resolution of the left module.

    Builds Tot(X (x) Q) for Q -> Z a resolution, filters by resolution
    degree, and pushes the column filtration through the augmentation
    quasi-isomorphism onto H(X (x) Z).  Tower-free by construction.

    Only orders are read.  The columns F_s (blocks of Q-degree <= s) span a
    subcomplex, so with Z_t(F_s) the cycles of F_s and B_t the boundaries of
    X (x) Z, the image of H_t(F_s) under the augmentation has order
        |B_t + aug_t Z_t(F_s)| / |B_t|,
    two subgroup orders in Tot_t(X (x) Z), |B_t| formed once per t.
    """
    zc = module_complex(z_module)
    txz = tensor_complexes(x, zc)
    lo, hi = txz.total.lo, txz.total.hi
    smax = hi - x.lo + 1
    q = resolution_complex(z_module, smax)
    txq = tensor_complexes(x, q)
    aug = _tensor_second_map(txq, txz, _augmentation_map(q, z_module))
    m = x.ring.modulus
    degrees = range(lo, hi + 1)
    h_orders = {t: homology_order(txz.total, t) for t in degrees}
    for t in degrees:
        got = homology_order(txq.total, t)
        if got != h_orders[t]:
            raise ValidationError(
                f"augmentation is not a quasi-isomorphism at degree {t}: {got} vs {h_orders[t]}"
            )
    bounds = {t: txz.total.diff(t + 1) for t in degrees}
    b_orders = {t: linalg.subgroup_order(bounds[t], txz.total.term(t).orders, m) for t in degrees}
    e_infty = {}
    images = {t: [] for t in degrees}
    for s in range(0, smax + 1):
        for t in degrees:
            keep = _column_coords(txq, s, t)
            cycles = linalg.kernel_hetero(txq.total.diff(t)[:, keep],
                                          txq.total.term(t - 1).orders, m)
            pushed = aug.component(t)[:, keep] @ cycles
            total = linalg.subgroup_order(np.concatenate([bounds[t], pushed], axis=1),
                                          txz.total.term(t).orders, m)
            images[t].append(total // b_orders[t])
        if all(images[t][-1] == h_orders[t] for t in images):
            break
    line = 0
    for t, chain in images.items():
        prev = 1
        for s_idx, v in enumerate(chain):
            if v % prev:
                raise ValidationError("column filtration failed to be nested")
            jump = v // prev
            if jump > 1:
                e_infty[(s_idx, t)] = jump
                line = max(line, s_idx)
            prev = v
        if chain and chain[-1] != h_orders[t]:
            raise ValidationError("column filtration failed to exhaust homology")
    return e_infty, line


def _column_coords(txq, s, t):
    """Coordinates in Tot_t(X (x) Q) of F_s, the blocks of Q-degree <= s.

    d never raises the Q-degree, so these blocks span a subcomplex.
    """
    return [off + i for _, b, tm, off in txq.blocks.get(t, []) if b <= s
            for i in range(tm.module.ngens)]


def _augmentation_map(q, z_module):
    """The chain map from the resolution onto the module in degree zero.

    Its degree-0 matrix is the identity, or the module's cover, the very one
    resolution_complex resolved with (kept on the module), which kills
    d_1's image.
    """
    zc = module_complex(z_module)
    f0 = q.term(0)
    if q.hi == 0 and f0 is z_module:
        # projective module: the resolution is the module itself
        return ChainMap(q, zc, {0: eye(z_module.ngens)})
    cover, pi = free_cover(z_module)
    if cover.ngens != f0.ngens:
        raise ValidationError("unexpected resolution shape for augmentation")
    return ChainMap(q, zc, {0: pi.mat})


def _tensor_second_map(src_tensor, tgt_tensor, g):
    """Induced map  id_X (x) g  for g: Z -> Z' a map of left complexes."""
    x = src_tensor.x
    mats = _tensor_blocks(src_tensor.blocks, tgt_tensor.blocks, 0,
                          [(0, lambda a, b: (eye(x.term(a).ngens), g.component(b)))])
    return ChainMap(src_tensor.total, tgt_tensor.total, mats)


# ---------------------------------------------------------------------------
# Flat dimension via the spectral sequence
# ---------------------------------------------------------------------------

def default_tests(x):
    """Left-module test objects: the opposite ring's simples, plus the dual
    complex of X when X is free-termed (the dual detects pdim exactly)."""
    ring = x.ring
    op = ring.opposite()
    tests = []
    if op.simples:
        for s in op.simples:
            tests.append(module_complex(s, name=f"simple:{s.label}"))
    if all(is_free_module(x.term(k)) or x.term(k).is_zero for k in x.degrees()):
        tests.append(dual_complex(x))
    return tests


def fdim_via_ss(x, bound, window=None):
    """Least n <= bound with E-infinity vanishing line <= n across all tests.

    A window that leaves out a total degree of some X (x) Z leaves classes
    unread there, so the line it finds is then only a lower bound.
    """
    if x.is_zero:
        return Verdict.finite(0)
    tests = default_tests(x)
    if not tests:
        raise ValidationError("fdim_via_ss needs at least one left test object")
    line = 0
    partial = False
    for z in tests:
        table = ucss_filtration(x, z, window=window, max_depth=bound + 2)
        if not table.exhausted:
            return Verdict.at_least(bound + 1)
        line = max(line, table.vanishing_line)
        if line > bound:
            return Verdict.at_least(bound + 1)
        partial = partial or table.window != (x.lo + z.lo, x.hi + z.hi)
    return Verdict.at_least(line) if partial else Verdict.finite(line)
