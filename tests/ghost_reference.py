"""Reference homology checks and cover generators for the tests of ghostdim.ghosts.

`is_ghost` and `homology_epi` are the checks that `universal_ghost` ran
before it checked against the homology the tower needs anyway, copied
unchanged: each forms the induced map on homology in every degree, so the
homology of the cover and of the cone, which the package no longer builds
for its checks.  They are the independent oracles for every tower stage.

`minimal_generators` is the greedy thinning that ghostdim.modules ran
before it tested each trial set with one elimination, copied unchanged:
it closes each trial set under the ring action (`submodule_generated`)
and then orders the closure.  The package must choose exactly the
generators this one chooses.

`ghost_factors_through_universal` asks whether a ghost factors through the
universal ghost, the universal property the tests check.

`chained_composites` builds each tower composite g_s as the product of the
suspended ghosts, g_s = S^s delta_s . g_(s-1), the way ghosts.Tower built
it before it built the prefix inclusion directly; the product is copied
unchanged.  The package's g_s must equal it bit for bit.
"""

from ghostdim import linalg
from ghostdim.complexes import identity_chain, induced_map, suspend, suspend_between
from ghostdim.ghosts import _solve_squares
from ghostdim.linalg import eye, zeros
from ghostdim.modules import (
    image_subgroup_order,
    is_free_module,
    module_unit_columns,
    subgroup_order_in,
    submodule_generated,
)


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


def ghost_factors_through_universal(h, ug):
    """Does  h ~ t . g  hold for some t out of the universal-ghost target?"""
    got = _solve_squares(
        ug.target,
        h.tgt,
        [(h, identity_chain(h.tgt), ug.ghost, "sq1")],
    )
    return got is not None


def chained_composites(tower, n):
    """[g_0, ..., g_n] of the tower, each the product of the step maps."""
    composites = []
    for i in range(n + 1):
        ug = tower.ug(i)
        delta = ug.ghost
        if i == 0:
            w = ug.target
            composite = delta
        else:
            w = suspend(ug.target, i)
            step = suspend_between(delta, prev_w, w, i)
            composite = step @ composite
        prev_w = w
        composites.append(composite)
    return composites
