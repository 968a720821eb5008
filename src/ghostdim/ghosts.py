"""Ghost maps, universal ghosts, ghost towers, and projective dimension.

A ghost induces zero on homology.  The universal ghost out of X is the
inclusion of X into the cone of a homology-surjective map from a free
complex; every ghost out of X factors through it, so the tower of iterated
universal ghosts X -> W_0 -> W_1 -> ..., each stage the cone over the one
before, decides projective dimension: pdim X <= n iff the (n+1)-fold
composite is null-homotopic.

Every bounded complex of projectives has pdim at most its length (it is
built from its terms in that many extension steps), so the tower search
always terminates once the bound reaches the length.

Homotopy-witness convention: all factorization solvers return witnesses h
for  (claimed identity's left side) - (right side) = d h + h d  where the
claimed identity is written  f ~ (composite); concretely every
Factorization stores a witness for  f - out_of . into.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .complexes import (
    ChainMap,
    Complex,
    Homotopy,
    MapSystem,
    chain_map_generators,
    check_null_homotopy,
    cone,
    free_complex,
    identity_chain,
    null_homotopy,
    prefix_inclusion,
    zero_chain,
)
from .errors import NoFactorization, ValidationError
from .modules import free_map, minimal_generators, subgroup_order_in
from .verdicts import Verdict


@dataclass
class UniversalGhost:
    """Triangle  P -> X -> Y -> SP  with P free, P -> X onto homology,
    and the universal ghost g: X -> Y = cone(P -> X).  Y, the next tower
    stage, is kept (the ghost check solved on it); g, the prefix inclusion
    of X's coordinates, is formed when read."""

    source: Complex
    cover: Complex
    cover_map: ChainMap
    target: Complex

    @property
    def ghost(self):
        return prefix_inclusion(self.source, self.target)


def universal_ghost(x):
    """Build the universal ghost out of x from a minimal homology cover.

    Two checks run on what is built, and neither forms homology that the
    tower does not need anyway:

    * the cover P -> X is onto homology.  P has zero differential, so
      H_k(P) = P_k with the identity as lift, and H_k of the cover is the
      class of each column of its matrix in H_k(X), which the cover needed;
    * g: X -> Y = cone(P -> X) is a ghost: H_k(g) is zero iff every
      g_k . lift is a boundary of Y, one solve per degree against d_Y.
      The homology of Y is formed only if the tower goes on from it.

    Each failure raises ValidationError.
    """
    ring = x.ring
    hom = x.homology()
    ranks = {}
    reps = {}
    for k in x.degrees():
        hk = hom[k]
        if hk.module.is_zero:
            continue
        gens = minimal_generators(hk.module)
        ranks[k] = gens.shape[1]
        reps[k] = linalg.reduce_coords(hk.lift @ gens, x.term(k).orders)
    p = free_complex(ring, ranks, name=f"P({x.name or 'X'})")
    # A chain map: each free_map sends P's generators to cycles, and d_P = 0.
    mats = {}
    for k, cols in reps.items():
        mats[k] = free_map(p.term(k), x.term(k), cols).mat
    cover_map = ChainMap(p, x, mats)
    _check_onto_homology(cover_map)
    y = cone(cover_map, name=f"UG({x.name or 'X'})").cone
    _check_ghost(x, y)
    return UniversalGhost(source=x, cover=p, cover_map=cover_map, target=y)


def _check_onto_homology(cover_map):
    """Raise unless the cover P -> X, P free with zero differential, is onto H(X)."""
    x = cover_map.tgt
    for k in x.degrees():
        hk = x.homology_at(k)
        if hk.module.is_zero:
            continue
        # the image of H_k(P) = P_k: the classes of the cover's columns
        if subgroup_order_in(hk.module, hk.classify(cover_map.component(k))) != hk.module.size:
            raise ValidationError("homology cover failed to be surjective")


def _check_ghost(x, y):
    """Raise unless the prefix inclusion g: X -> Y induces zero on homology.
    g_k . lift is the lift padded with zeros, already reduced, as the
    leading orders of Y_k are X_k's, and H_k(g) = 0 iff one solve of
    d_Y,k+1 . c = g_k . lift has a solution: no homology of Y is formed."""
    m = x.ring.modulus
    for k in x.degrees():
        hk = x.homology_at(k)
        if hk.module.is_zero:
            continue
        pushed = linalg.zeros(y.term(k).ngens, hk.lift.shape[1])
        pushed[:hk.lift.shape[0]] = hk.lift
        if linalg.solve_hetero(y.diff(k + 1), pushed, y.term(k).orders, m) is None:
            raise ValidationError("cofiber of a homology epi failed the ghost check")


class Tower:
    """The ghost tower of a complex: its universal ghosts, extended on demand.

    ugs[n] is the universal ghost out of W_(n-1) (W_(-1) = X, the base), and
    its target is the next stage W_n = cone(p_n: P_n -> W_(n-1)), P_n a free
    cover of H(W_(n-1)).  g_n: X -> W_n is the composite of the first n+1
    ghosts.

    The prefix layout, the one complexes.cone owns: degreewise W_n =
    W_(n-1) + S P_n, the new summand last, and
        d_(W_n) = [d_(W_(n-1))  p_n]
                  [     0        0 ]
    as P_n has zero differential.  Each ghost W_(n-1) -> W_n is the block
    inclusion, so g_n is the prefix inclusion [I; 0] of X's coordinates.
    """

    def __init__(self, x):
        self.base = x
        self.ugs = []
        self._nullities = {}

    def extend_to(self, n):
        while len(self.ugs) <= n:
            self.ugs.append(universal_ghost(self.ugs[-1].target if self.ugs else self.base))

    def ug(self, i):
        self.extend_to(i)
        return self.ugs[i]

    def composite(self, n):
        """g_n: X -> W_n, on the kept stage; a chain map, as the X columns
        of every d_(W_n) are [d_X; 0]."""
        return prefix_inclusion(self.base, self.ug(n).target)

    def nullity(self, n):
        """A checked null-homotopy of g_n, or None; cached."""
        if n not in self._nullities:
            self._nullities[n] = null_homotopy(self.composite(n))
        return self._nullities[n]


def ghost_tower(x, n):
    """The tower to depth n, built on (and cached with) the complex."""
    tower = x.cache_get("tower", lambda: Tower(x))
    tower.extend_to(n)
    return tower


def pdim_complex(x, bound):
    """Least n <= bound with the tower composite null, else ">= bound+1".

    Every bounded complex of projectives has finite pdim (at most its
    length), so the open verdict only appears when bound < length.
    """
    if x.is_zero:
        return Verdict.finite(0)
    if not x.certified:
        raise ValidationError("pdim needs a certified-projective complex")
    tower = ghost_tower(x, 0)
    for n in range(bound + 1):
        if tower.nullity(n) is not None:
            return Verdict.finite(n)
        if n >= x.length:
            raise ValidationError(
                f"tower composite not null at n = {n} >= length {x.length}; internal error"
            )
    return Verdict.at_least(bound + 1)


# ---------------------------------------------------------------------------
# Constructive factorizations
# ---------------------------------------------------------------------------

@dataclass
class Factorization:
    through: Complex
    into: ChainMap            # A -> B
    out_of: ChainMap          # B -> X
    witness: Homotopy         # f - out_of . into = d w + w d

    def validate(self, f):
        self.into.validate()
        self.out_of.validate()
        check_null_homotopy(f - self.out_of @ self.into, self.witness)


def solve_chain_map_through(f, p):
    """Solve  f ~ p . t  for a chain map t: A -> P; returns (t, witness) or None.

    witness bounds  f - p.t.
    """
    got = _solve_squares(f.src, p.src, [(f, p, identity_chain(f.src), "s")])
    return None if got is None else (got[0], got[1]["s"])


def factor_through_projective(f, ug):
    """Factor a map from a compact through a compact projective complex.

    f: A -> X with H*(X) projective, and ug the universal ghost out of X.
    Returns a Factorization through the free cover complex of X.  Raises
    NoFactorization when the composite does not lift, which happens exactly
    when the precondition fails.
    """
    got = solve_chain_map_through(f, ug.cover_map)
    if got is None:
        raise NoFactorization("map does not factor through the cover; is H*(X) projective?")
    t, s = got
    fact = Factorization(through=ug.cover, into=t, out_of=ug.cover_map, witness=s)
    fact.validate(f)
    return fact


def _solve_squares(unknown_src, unknown_tgt, squares):
    """Find a chain map u with  left ~ pre . u . post  for every square.

    squares: list of (left: ChainMap S->T, pre: ChainMap (unknown_tgt)->T,
    post: ChainMap S->(unknown_src), hname).  Returns (u, witnesses) or None;
    each witness bounds  left - pre.u.post.
    """
    sys = MapSystem(unknown_src.ring)
    sys.add_chain_map_equations("u", unknown_src, unknown_tgt)
    for left, pre, post, hname in squares:
        sys.add_homotopy_equations(hname, left, via=[("u", pre, post)])
    sol = sys.solve()
    if sol is None:
        return None
    u = ChainMap(unknown_src, unknown_tgt, sol["u"])
    u.validate()
    hs = {}
    for left, pre, post, hname in squares:
        hs[hname] = Homotopy(left.src, left.tgt, sol[hname])
        check_null_homotopy(left - pre @ u @ post, hs[hname])
    return u, hs


# ---------------------------------------------------------------------------
# Random chain maps (battery construction)
# ---------------------------------------------------------------------------

def random_chain_map(src, tgt, rng):
    gens = chain_map_generators(src, tgt)
    if not gens:
        return zero_chain(src, tgt)
    m = src.ring.modulus
    f = zero_chain(src, tgt)
    for g in gens:
        c = rng.randrange(m)
        if c:
            f = f + ChainMap(src, tgt, {k: c * mat for k, mat in g.mats.items()})
    return f
