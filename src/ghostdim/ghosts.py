"""Ghost maps, universal ghosts, ghost towers, and projective dimension.

A ghost induces zero on homology.  The universal ghost out of X is the
cofiber of a homology-surjective map from a free complex; every ghost out
of X factors through it, so the tower of iterated universal ghosts decides
projective dimension: pdim X <= n iff the (n+1)-fold composite is
null-homotopic.

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
    desuspend,
    direct_sum_complexes,
    fiber,
    free_complex,
    identity_chain,
    null_homotopy,
    suspend,
    suspend_between,
    zero_chain,
)
from .errors import NoFactorization, ValidationError
from .modules import free_map, minimal_generators, subgroup_order_in
from .verdicts import Verdict


@dataclass
class UniversalGhost:
    """Triangle  P -> X -> Y -> SP  with P free, P -> X onto homology,
    and the universal ghost g: X -> Y = cone(P -> X).  nxt = S^-1 Y is the
    next tower stage; its homology answered the ghost check."""

    source: Complex
    cover: Complex
    cover_map: ChainMap
    ghost: ChainMap
    cone_data: object
    nxt: Complex

    @property
    def target(self):
        return self.cone_data.cone


def universal_ghost(x):
    """Build the universal ghost out of x from a minimal homology cover.

    Two checks run on what is built, each against homology the tower needs
    anyway rather than homology formed only for the check:

    * the cover P -> X is onto homology.  P has zero differential, so
      H_k(P) = P_k with the identity as lift, and H_k of the cover is the
      class of each column of its matrix in H_k(X);
    * g: X -> Y = cone(P -> X) is a ghost.  S^-1 Y has the cycles and
      boundaries of Y one degree down (negating d changes no kernel or
      image, as shift_identification states), so H_k(g) is zero iff every
      g_k . lift classifies to zero in H_(k-1)(S^-1 Y), which is the next
      tower stage.

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
    mats = {}
    for k, cols in reps.items():
        mats[k] = free_map(p.term(k), x.term(k), cols).mat
    cover_map = ChainMap(p, x, mats, check=True)
    _check_onto_homology(cover_map)
    cd = cone(cover_map, name=f"UG({x.name or 'X'})")
    ghost = cd.triangle.g
    nxt = desuspend(cd.cone)
    _check_ghost(ghost, nxt)
    return UniversalGhost(source=x, cover=p, cover_map=cover_map, ghost=ghost, cone_data=cd, nxt=nxt)


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


def _check_ghost(g, nxt):
    """Raise unless g: X -> Y induces zero on homology; nxt is S^-1 Y."""
    x = g.src
    for k in x.degrees():
        hk = x.homology_at(k)
        if hk.module.is_zero:
            continue
        pushed = linalg.reduce_coords(g.component(k) @ hk.lift, g.tgt.term(k).orders)
        if nxt.homology_at(k - 1).classify(pushed).any():
            raise ValidationError("cofiber of a homology epi failed the ghost check")


@dataclass
class TowerStage:
    index: int
    stage: Complex            # X_i
    ug: UniversalGhost        # built on X_i
    delta: ChainMap           # X_i -> cone(p_i) = S X_{i+1}
    shifted_target: Complex   # W_i = S^i cone(p_i) = S^{i+1} X_{i+1}
    composite: ChainMap       # g_i : X -> W_i
    step_map: ChainMap = None  # W_{i-1} -> W_i (absent at stage 0)


class Tower:
    """The ghost tower of a complex; stages extend on demand and are cached."""

    def __init__(self, x):
        self.base = x
        self.stages = []
        self._nullities = {}

    def extend_to(self, n):
        while len(self.stages) <= n:
            self._add_stage()

    def _add_stage(self):
        i = len(self.stages)
        current = self.stages[-1].stage if self.stages else self.base
        ug = universal_ghost(current)
        delta = ug.ghost
        step = None
        if i == 0:
            w = ug.target
            composite = delta
        else:
            prev = self.stages[-1]
            w = suspend(ug.target, i)
            step = suspend_between(delta, prev.shifted_target, w, i)
            composite = step @ prev.composite
        self.stages.append(
            TowerStage(index=i, stage=ug.nxt, ug=ug, delta=delta, shifted_target=w,
                       composite=composite, step_map=step)
        )

    def stage(self, i):
        self.extend_to(i)
        return self.stages[i]

    def composite(self, n):
        """g_n: the composite of n+1 ghosts out of the base."""
        return self.stage(n).composite

    def nullity(self, n):
        """Null-homotopy of g_n, or None; cached."""
        self.extend_to(n)
        if n not in self._nullities:
            self._nullities[n] = null_homotopy(self.composite(n))
        return self._nullities[n]

    def to_json(self, depth):
        self.extend_to(depth)
        out = []
        for st in self.stages[: depth + 1]:
            entry = {
                "index": st.index,
                "cover_ranks": {str(k): st.ug.cover.term(k).ngens for k in st.ug.cover.degrees()},
                "ghost_components": {str(k): st.delta.component(k).tolist() for k in sorted(st.delta.mats)},
            }
            if st.index in self._nullities:
                entry["composite_null"] = self._nullities[st.index] is not None
            out.append(entry)
        return {"base": self.base.name, "stages": out}


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
        check_null_homotopy(f - self.out_of @ self.into, self.witness)


def solve_chain_map_through(f, p):
    """Solve  f ~ p . t  for a chain map t: A -> P; returns (t, witness) or None.

    witness bounds  f - p.t.
    """
    got = _solve_squares(f.src, p.src, [(f, p, identity_chain(f.src), "s")])
    return None if got is None else (got[0], got[1]["s"])


def factor_through_projective(f, ug=None):
    """Factor a map from a compact through a compact projective complex.

    f: A -> X with H*(X) projective.  Returns a Factorization through the
    free cover complex of X.  Raises NoFactorization when the composite
    does not lift, which happens exactly when the precondition fails.
    """
    if ug is None:
        ug = universal_ghost(f.tgt)
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
    u = ChainMap(unknown_src, unknown_tgt, sol["u"], check=True)
    hs = {}
    for left, pre, post, hname in squares:
        hs[hname] = Homotopy(left.src, left.tgt, sol[hname])
        check_null_homotopy(left - pre @ u @ post, hs[hname])
    return u, hs


def _solve_squares_sign_tolerant(unknown_src, unknown_tgt, squares):
    """Like _solve_squares, retrying with flipped signs on single squares.

    Triangle rotations only determine the fill-in squares up to sign; any
    solution feeds a construction whose end result is verified outright, so
    accepting a flipped square is sound.
    """
    got = _solve_squares(unknown_src, unknown_tgt, squares)
    if got is not None:
        return got
    for i in range(len(squares)):
        trial = list(squares)
        left, pre, post, hname = trial[i]
        trial[i] = (-left, pre, post, hname)
        got = _solve_squares(unknown_src, unknown_tgt, trial)
        if got is not None:
            return got
    return None


def factor_through_pdim_n(f, n, _verify=True):
    """Factor f: A -> X through a compact B with pdim B <= n.

    The weak-pushout construction: factor the ghost composite out of X
    through a lower-dimensional compact recursively, push out along a
    factorization through a compact projective, and correct the discrepancy
    through the cover of X.  Precondition: pdim X <= n.
    """
    a, x = f.src, f.tgt
    if f.is_zero:
        z = Complex.zero(x.ring)
        return Factorization(through=z, into=zero_chain(a, z), out_of=zero_chain(z, x),
                             witness=Homotopy(a, x, {}))
    tower = ghost_tower(x, 0)
    if n == 0:
        return factor_through_projective(f, ug=tower.stage(0).ug)
    st = tower.stage(0)
    p_map = st.ug.cover_map                 # p: P -> X
    pp = st.ug.cover
    c0 = st.ug.target                       # cone(p) = S X_1
    delta = st.ug.ghost                     # X -> C0, the universal ghost
    x1 = st.ug.nxt                          # the first tower stage, S^-1 C0
    rprime = ChainMap(x1, pp, {k: st.ug.cone_data.psh(k + 1) for k in x1.degrees()}, check=True)

    # 1. recursively factor  delta . f : A -> C0  through pdim <= n-1
    sub = factor_through_pdim_n(delta @ f, n - 1, _verify=False)
    dtil, h, phi = sub.through, sub.into, sub.out_of

    # 2. Z = fiber(h), with its triangle  S^-1 D -> Z -> A -> D
    z, z_proj, z_incl, _ = fiber(h)
    phi_down = suspend_between(phi, desuspend(dtil), x1, -1)

    # 3. fill psi: Z -> P with  p.psi ~ f.z_proj  and  psi.z_incl ~ r'.phi_down
    got = _solve_squares_sign_tolerant(
        z,
        pp,
        [
            (f @ z_proj, p_map, identity_chain(z), "sq1"),
            (rprime @ phi_down, identity_chain(pp), z_incl, "sq2"),
        ],
    )
    if got is None:
        raise NoFactorization("triangle fill-in for the comparison map failed")
    psi, _ = got

    # 4. factor psi through the compact projective cover of P
    proj_fact = factor_through_projective(psi, ug=ghost_tower(pp, 0).stage(0).ug)
    q_cx, tau, j = proj_fact.through, proj_fact.into, proj_fact.out_of

    # 5. weak pushout: B' = cone(tau . z_incl), with fills sigma and rho
    c1 = tau @ z_incl                       # S^-1 D -> Q
    bprime_cd = cone(c1)
    bprime = bprime_cd.cone
    iota = bprime_cd.triangle.g             # Q -> B'
    pi_d = bprime_cd.triangle.h             # B' -> S S^-1 D (same terms as D)
    dtil_raised = pi_d.tgt
    h_raised = ChainMap(a, dtil_raised, h.mats, check=True)
    got = _solve_squares_sign_tolerant(
        a,
        bprime,
        [
            (iota @ tau, identity_chain(bprime), z_proj, "sq1"),
            (h_raised, pi_d, identity_chain(a), "sq2"),
        ],
    )
    if got is None:
        raise NoFactorization("weak-pushout fill-in (sigma) failed")
    sigma, _ = got
    phi_raised = ChainMap(dtil_raised, c0, phi.mats, check=True)
    got = _solve_squares_sign_tolerant(
        bprime,
        x,
        [
            (p_map @ j, identity_chain(x), iota, "sq1"),
            (phi_raised @ pi_d, delta, identity_chain(bprime), "sq2"),
        ],
    )
    if got is None:
        raise NoFactorization("weak-pushout fill-in (rho) failed")
    rho, _ = got

    # 6. correct the discrepancy through the cover: f - rho.sigma ~ p.qmap
    eps = f - rho @ sigma
    got = solve_chain_map_through(eps, p_map)
    if got is None:
        raise NoFactorization("correction map through the cover failed")
    qmap, _ = got

    # 7. assemble B = B' + P
    b, (inj_b, inj_p), (pr_b, pr_p) = direct_sum_complexes(bprime, pp, name="B")
    into = inj_b @ sigma + inj_p @ qmap
    out_of = rho @ pr_b + p_map @ pr_p
    witness = null_homotopy(f - out_of @ into)
    if witness is None:
        raise NoFactorization("assembled factorization is not homotopic to f")
    fact = Factorization(through=b, into=into, out_of=out_of, witness=witness)
    if _verify:
        fact.validate(f)
    return fact


# ---------------------------------------------------------------------------
# Random chain maps (battery construction and universality checks)
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
            f = f + ChainMap(src, tgt, {k: c * mat for k, mat in g.mats.items()}, check=False)
    return f


def ghost_factors_through_universal(h, ug):
    """Does  h ~ t . g  hold for some t out of the universal-ghost target?"""
    got = _solve_squares(
        ug.target,
        h.tgt,
        [(h, identity_chain(h.tgt), ug.ghost, "sq1")],
    )
    return got is not None
