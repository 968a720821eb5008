"""The Rouquier construction on fibers, as the package built it before its
certificate moved one degree up onto the tower's own cones.

Y_j = S^-1 cone(g_j) is the fiber of the tower composite g_j: X -> W_j.
The retract is the fiber's projection Y_n -> X, the include sends x to
(-h x, x) for the tower's null-homotopy h of g_n, each step
m_j: Y_(j-1) -> Y_j keeps S^-1 W_(j-1) first and X last, and the third
terms are the tower covers P_j themselves.  The package's certificate must
be this one suspended once (test_dimensions).
"""

from dataclasses import dataclass

from ghostdim.complexes import ChainMap, identity_chain
from ghostdim.ghosts import ghost_tower
from ghostdim.linalg import eye, zeros
from helpers import fiber


@dataclass
class FiberConstruction:
    include: ChainMap        # X -> Y_n
    retract: ChainMap        # Y_n -> X
    steps: list              # m_j: Y_(j-1) -> Y_j, j = 1..n
    covers: list             # P_0, ..., P_n


def on_fibers(x, n):
    """The fiber construction for pdim x <= n; every map it holds is checked,
    and retract . include = id exactly."""
    tower = ghost_tower(x, n)
    h = tower.nullity(n)
    fibers = [fiber(tower.composite(j)) for j in range(n + 1)]
    ys = [f for f, _, _ in fibers]
    y_n, retract, cd = fibers[n]
    mats = {}
    for k in y_n.degrees():
        n_w = cd.f.tgt.term(k + 1).ngens
        block = zeros(n_w + x.term(k).ngens, x.term(k).ngens)
        block[:n_w] = -h.component(k) % x.ring.modulus
        block[n_w:] = eye(x.term(k).ngens)
        mats[k] = block
    include = ChainMap(x, y_n, mats)
    steps = []
    for j in range(1, n + 1):
        prev, y_j = ys[j - 1], ys[j]
        mats = {}
        for k in prev.degrees():
            n_prev, n_next, n_x = prev.term(k).ngens, y_j.term(k).ngens, x.term(k).ngens
            mats[k] = eye(n_next)[:, [*range(n_prev - n_x), *range(n_next - n_x, n_next)]]
        steps.append(ChainMap(prev, y_j, mats))
    for f in (include, retract, *steps):
        f.validate()
    comp, ident = retract @ include, identity_chain(x)
    assert all((comp.component(k) == ident.component(k)).all() for k in x.degrees())
    return FiberConstruction(include=include, retract=retract, steps=steps,
                             covers=[tower.ugs[j].cover for j in range(n + 1)])
