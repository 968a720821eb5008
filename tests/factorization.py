"""Factorization through a compact of pdim <= n, which only the tests call.

`factor_through_pdim_n` is the weak-pushout construction: factor the ghost
composite out of X recursively, push out along a factorization through a
compact projective, and correct the discrepancy through the cover of X.
Together with the ghost lemma it shows that a map out of a compact factors
through pdim <= n exactly when pdim X <= n.  No verdict of ghostdim rests on
it, so it lives here with the pieces that only it uses: the sign-tolerant
square solver and the direct sum of complexes.
"""

import numpy as np

from ghostdim.complexes import (
    ChainMap,
    Complex,
    Homotopy,
    _sum_certificate,
    cone,
    desuspend,
    direct_sum_modules,
    fiber,
    identity_chain,
    null_homotopy,
    suspend_between,
    zero_chain,
)
from ghostdim.errors import NoFactorization
from ghostdim.ghosts import (
    Factorization,
    _solve_squares,
    factor_through_projective,
    ghost_tower,
    solve_chain_map_through,
)
from ghostdim.linalg import eye, zeros


def direct_sum_complexes(a, b, name=""):
    """a + b with block-diagonal d, and its block injections and projections."""
    ring = a.ring
    lo, hi = min(a.lo, b.lo), max(a.hi, b.hi)
    terms, diffs, certs = {}, {}, {}
    for k in range(lo, hi + 1):
        terms[k] = direct_sum_modules(a.term(k), b.term(k))
        certs[k] = _sum_certificate(terms[k], a.term(k), a.certs.get(k), b.term(k), b.certs.get(k))
        top = np.concatenate([a.diff(k), zeros(a.term(k - 1).ngens, b.term(k).ngens)], axis=1)
        bot = np.concatenate([zeros(b.term(k - 1).ngens, a.term(k).ngens), b.diff(k)], axis=1)
        diffs[k] = np.concatenate([top, bot], axis=0)
    total = Complex(ring, lo, hi, terms, diffs, certs=certs, name=name)
    inj_a = ChainMap(a, total, {k: np.concatenate([eye(a.term(k).ngens), zeros(b.term(k).ngens, a.term(k).ngens)], axis=0) for k in range(lo, hi + 1)})
    inj_b = ChainMap(b, total, {k: np.concatenate([zeros(a.term(k).ngens, b.term(k).ngens), eye(b.term(k).ngens)], axis=0) for k in range(lo, hi + 1)})
    pr_a = ChainMap(total, a, {k: np.concatenate([eye(a.term(k).ngens), zeros(a.term(k).ngens, b.term(k).ngens)], axis=1) for k in range(lo, hi + 1)})
    pr_b = ChainMap(total, b, {k: np.concatenate([zeros(b.term(k).ngens, a.term(k).ngens), eye(b.term(k).ngens)], axis=1) for k in range(lo, hi + 1)})
    return total, (inj_a, inj_b), (pr_a, pr_b)


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
        return factor_through_projective(f, ug=tower.ug(0))
    ug = tower.ug(0)
    p_map = ug.cover_map                 # p: P -> X
    pp = ug.cover
    c0 = ug.target                       # cone(p) = S X_1
    delta = ug.ghost                     # X -> C0, the universal ghost
    x1 = ug.nxt                          # the first tower stage, S^-1 C0
    # the block projection of S^-1 cone(p) onto P, a chain map as in fiber()
    rprime = ChainMap(x1, pp, {k: ug.cone_data.psh(k + 1) for k in x1.degrees()})

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
    proj_fact = factor_through_projective(psi, ug=ghost_tower(pp, 0).ug(0))
    q_cx, tau, j = proj_fact.through, proj_fact.into, proj_fact.out_of

    # 5. weak pushout: B' = cone(tau . z_incl), with fills sigma and rho
    c1 = tau @ z_incl                       # S^-1 D -> Q
    bprime_cd = cone(c1)
    bprime = bprime_cd.cone
    iota = bprime_cd.triangle.g             # Q -> B'
    pi_d = bprime_cd.triangle.h             # B' -> S S^-1 D (same terms as D)
    dtil_raised = pi_d.tgt                  # S S^-1 D: D's terms and differentials
    h_raised = ChainMap(a, dtil_raised, h.mats)
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
    phi_raised = ChainMap(dtil_raised, c0, phi.mats)
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
