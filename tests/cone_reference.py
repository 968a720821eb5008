"""The mapping cone as the package built it before its block maps were
formed when read: `cone` stores the four per-degree dicts of block
injections and projections and builds the whole triangle, three homotopies
and two suspensions included.  Copied unchanged but for the Triangle, which
now lives in helpers.  The lean cone must give bit-identical blocks and
maps (test_complexes)."""

from dataclasses import dataclass

import numpy as np

from helpers import Triangle
from ghostdim.complexes import (
    ChainMap,
    Complex,
    Homotopy,
    _sum_certificate,
    direct_sum_modules,
    suspend,
)
from ghostdim.linalg import eye, zeros


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
    """Mapping cone with its triangle  X -> Y -> C -> SX  and homotopies."""
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
