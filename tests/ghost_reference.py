"""Reference homology checks and cover generators for the tests of ghostdim.ghosts.

`is_ghost` and `homology_epi` are the checks that `universal_ghost` ran
before it read only what the tower builds anyway (the homology of the
stage it covers, and one solve against the next stage's differential),
copied unchanged: each forms the induced map on homology in every degree,
so the homology of the cover and of the cone, which the package never
builds for its checks.  They are the independent oracles for every tower
stage.

`minimal_generators` is the greedy thinning that ghostdim.modules ran
before it tested each trial set with one elimination, copied unchanged:
it closes each trial set under the ring action (`submodule_generated`)
and then orders the closure.  The package must choose exactly the
generators this one chooses.

`ghost` is the universal ghost X -> cone(p) of a tower stage, the prefix
inclusion that the package forms where it reads it.
`ghost_factors_through_universal` asks whether a ghost factors through the
universal ghost, the universal property the tests check.

`chained_composites` builds each tower composite g_s as the product of
the ghosts, g_s = delta_s . g_(s-1), each delta_s the universal ghost
W_(s-1) -> W_s.  The prefix inclusion that the package builds directly
must equal it bit for bit.

`desuspended_composites` builds the tower the way ghostdim.ghosts did
before its stages were the cones themselves, on the package's
`universal_ghost`: the stages X_0 = X and X_(i+1) = S^-1 cone(p_i), each
the desuspension of a universal ghost's cone, and g_n the prefix
inclusion X -> W_n = S^(n+1) X_(n+1).  Over F_2 no sign shows, and the
package's W_n and its null-homotopies must equal these bit for bit.
"""

from ghostdim import linalg
from ghostdim.complexes import identity_chain, prefix_inclusion, suspend
from ghostdim.ghosts import _solve_squares, universal_ghost
from ghostdim.linalg import eye, zeros
from ghostdim.modules import (
    is_free_module,
    module_unit_columns,
    subgroup_order_in,
    submodule_generated,
)
from helpers import image_subgroup_order, induced_map


def is_ghost(f):
    """True iff the induced map on every homology degree is zero."""
    lo = min(f.src.lo, f.tgt.lo)
    hi = max(f.src.hi, f.tgt.hi)
    for k in range(lo, hi + 1):
        if induced_map(f, k).mat.any():
            return False
    return True


def homology_epi(f):
    """True iff the induced map on homology is surjective in every degree."""
    lo = min(f.src.lo, f.tgt.lo)
    hi = max(f.src.hi, f.tgt.hi)
    for k in range(lo, hi + 1):
        ind = induced_map(f, k)
        if image_subgroup_order(ind) != ind.tgt.size:
            return False
    return True



def minimal_generators(module):
    """A minimum-size generating set.

    With a trivial action (Z/n backend) coprime cyclic factors are packed
    into single generators via CRT; otherwise greedy thinning of the group
    basis is used, which is minimum over an F_p-algebra since it maps to an
    inclusion-minimal spanning set of M / rad M.
    """
    n = module.ngens
    if n == 0:
        return zeros(0, 0)
    if is_free_module(module):
        # the unit of each copy; greedy over the group basis would miss these
        return module_unit_columns(module.ring, n // module.ring.rank)
    if module.ring.rank == 1:
        groups = []
        used = []
        for i, d in enumerate(module.orders):
            ps = set(linalg.factorize(d))
            for grp, taken in zip(groups, used):
                if taken.isdisjoint(ps):
                    grp.append(i)
                    taken |= ps
                    break
            else:
                groups.append([i])
                used.append(set(ps))
        gens = zeros(n, len(groups))
        for c, grp in enumerate(groups):
            for i in grp:
                gens[i, c] = 1
        return gens
    cols = list(range(n))
    gens = eye(n)
    total = module.size
    keep = cols[:]
    for c in cols:
        trial = [i for i in keep if i != c]
        if not trial:
            continue
        span = submodule_generated(module, gens[:, trial])
        if subgroup_order_in(module, span) == total:
            keep = trial
    return gens[:, keep]


def ghost(ug):
    """The universal ghost X -> cone(p) of the stage ug = cone(p: P -> X)."""
    return prefix_inclusion(ug.f.tgt, ug.cone)


def ghost_factors_through_universal(h, ug):
    """Does  h ~ t . g  hold for some t out of the universal-ghost target?"""
    got = _solve_squares(
        ug.cone,
        h.tgt,
        [(h, identity_chain(h.tgt), ghost(ug), "sq1")],
    )
    return got is not None


def chained_composites(tower, n):
    """[g_0, ..., g_n] of the tower, each the product delta_s . g_(s-1)."""
    composites = []
    for s in range(n + 1):
        delta = ghost(tower.ug(s))
        composites.append(delta @ composites[-1] if composites else delta)
    return composites


def desuspended_composites(x, n):
    """[g_0, ..., g_n] over the desuspended stages X_(i+1) = S^-1 cone(p_i)."""
    stage, composites = x, []
    for i in range(n + 1):
        stage = suspend(universal_ghost(stage).cone, -1)
        composites.append(prefix_inclusion(x, suspend(stage, i + 1)))
    return composites
