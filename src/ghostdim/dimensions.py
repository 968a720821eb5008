"""Ring-level dimensions and the Rouquier witness construction.

Module-level projective dimension is decided by syzygy iteration; infinite
dimension is only reported with a periodicity certificate (two isomorphic
syzygies).  Weak dimension is the maximum over the declared simples; over a
finite ring this equals global dimension, and finitely generated flat
modules are projective, so the syzygy route and the Tor-vanishing route
must agree and are both run.

Ghost dimension is the supremum of complex-level pdim over a battery of
compacts.  No single compact has infinite pdim (pdim is at most the
length), so infinity is certified by a growing family: truncations of a
periodic minimal resolution, whose pdim provably grows without bound, plus
the periodicity certificate that the family continues.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .complexes import (
    ChainMap,
    Complex,
    Equivalence,
    Homotopy,
    cone,
    free_complex,
    identity_chain,
    resolution_complex,
    split_inclusion_model,
    suspend,
)
from .errors import NoSimplesDeclared, PdimTooLarge, ValidationError
from .ghosts import (
    ghost_tower,
    pdim_complex,
    random_chain_map,
)
from .linalg import eye
from .modules import (
    _syzygy,
    find_isomorphism,
    free_module,
    is_projective,
    make_module,
    submodule_generated,
    subquotient,
)
from .tensor_ss import tor
from .verdicts import Verdict, verdict_max


# ---------------------------------------------------------------------------
# Module-level dimensions
# ---------------------------------------------------------------------------

def module_pdim(module, bound):
    """Projective dimension by syzygy iteration with periodicity detection.

    Returns (verdict, syzygies): Verdict.finite(n) when the n-th syzygy is
    projective, Verdict.infinite(...) when two non-projective syzygies are
    isomorphic, else Verdict.at_least(bound + 1); and the syzygies met on
    the way, the module first.
    """
    current = module
    history = [current]
    verdict = None
    for i in range(bound + 1):
        if is_projective(current)[0]:
            verdict = Verdict.finite(i)
            break
        for j in range(len(history) - 1):
            if find_isomorphism(history[j], current) is not None:
                verdict = Verdict.infinite(period=i - j, start=j)
                break
        if verdict is not None:
            break
        current = _syzygy(module, i + 1).src
        history.append(current)
    if verdict is None:
        verdict = Verdict.at_least(bound + 1)
    return verdict, history


def module_fdim_tor(module, bound):
    """Flat dimension via Tor vanishing against the opposite ring's simples.

    Valid oracle: every finitely generated left module has a finite simple
    filtration, so Tor_{n+1}(M, -) vanishes on all left modules iff it
    vanishes on the simples.  Returns finite(n) when Tor_{n+1} is the first
    all-zero row, else at_least(bound + 1).
    """
    op = module.ring.opposite()
    if not op.simples:
        raise NoSimplesDeclared(f"{module.ring.name} has no declared simples")
    rows = {}
    for s in op.simples:
        for degree, order in tor(module, s, bound + 1).items():
            rows[degree] = max(rows.get(degree, 0), order)
    for n in range(bound + 2):
        if rows.get(n, 1) == 1:
            # Tor_n vanished for all tests; all later degrees vanish too
            return Verdict.finite(max(n - 1, 0))
    return Verdict.at_least(bound + 1)


def wdim_ring(ring, bound):
    """Weak dimension: maximum flat = projective dimension of the simples.

    Runs both the syzygy route and the Tor route and insists they agree
    (finitely generated flat modules over a finite ring are projective).
    """
    if not ring.simples:
        raise NoSimplesDeclared(f"{ring.name} has no declared simples")
    verdicts = []
    witnesses = []
    for s in ring.simples:
        v_syz, syzygies = module_pdim(s, bound)
        v_tor = module_fdim_tor(s, bound)
        if v_syz.is_finite:
            if not (v_tor.is_finite and v_tor.n == v_syz.n):
                raise ValidationError(
                    f"syzygy pdim {v_syz} and Tor flat dim {v_tor} disagree on {s.label}"
                )
        elif v_tor.is_finite:
            raise ValidationError(
                f"Tor flat dim finite ({v_tor}) but syzygy route found {v_syz} on {s.label}"
            )
        verdicts.append(v_syz)
        witnesses.append(
            {
                "module": s.label or "S",
                "pdim": v_syz.to_json(),
                "tor_flat_dim": v_tor.to_json(),
                "syzygy_orders": [list(m.orders) for m in syzygies],
            }
        )
    return verdict_max(verdicts), witnesses


# ---------------------------------------------------------------------------
# Battery construction
# ---------------------------------------------------------------------------

@dataclass
class BatteryMember:
    ident: str
    cx: Complex
    provenance: str = ""


def _proper_divisors(n):
    """The divisors d of n with 1 < d < n, ascending, by trial division up to sqrt(n)."""
    small, large = [], []
    d = 2
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


_CYCLIC_COUNT = 2


def _cyclic_modules(ring, rng):
    """A few cyclic test modules R / xR."""
    out = []
    if ring.backend == "zmod":
        divisors = _proper_divisors(ring.modulus)
        rng.shuffle(divisors)
        for d in divisors[:_CYCLIC_COUNT]:
            out.append(make_module(ring, {"orders": [d]}, label=f"Z/{d}"))
        return out
    reg = free_module(ring, 1)
    tries = 0
    while len(out) < _CYCLIC_COUNT and tries < 10 * _CYCLIC_COUNT:
        tries += 1
        x = np.array([rng.randrange(ring.modulus) for _ in range(ring.rank)], dtype=np.int64)
        if not x.any():
            continue
        span = submodule_generated(reg, x.reshape(-1, 1))
        q = subquotient(ring, reg, eye(reg.ngens), span, f"R/x{tries}").module
        if q.is_zero or q.size == reg.size:
            continue
        out.append(q)
    return out


def standard_battery(ring, bound, seed, min_size=25):
    """The seeded compact-object battery used by ghdim and the verify suites.

    Resolutions of simples (full when finite, growing truncations when the
    syzygies are periodic), a few cyclics, and cones of random maps between
    shifted frees.
    """
    rng = random.Random(seed)
    members = [
        BatteryMember(ident="free:1", cx=free_complex(ring, {0: 1}, name="free:1"),
                      provenance="the free module in degree 0"),
        BatteryMember(ident="free:2span", cx=free_complex(ring, {0: 1, 2: 1}, name="free:2span"),
                      provenance="two free summands with a gap"),
    ]
    periodic_families = []
    test_modules = []
    if ring.simples:
        test_modules.extend(ring.simples)
    test_modules.extend(_cyclic_modules(ring, rng))
    seen = set()
    for mod in test_modules:
        label = mod.label or f"M{len(members)}"
        if label in seen:
            continue
        seen.add(label)
        v, _ = module_pdim(mod, bound)
        if v.is_finite:
            res = resolution_complex(mod, max(v.n, 1), name=f"res:{label}")
            members.append(BatteryMember(ident=f"res:{label}", cx=res,
                                         provenance=f"resolution, module pdim {v.n}"))
        else:
            lengths = list(range(1, bound + 2))
            for length in lengths:
                res = resolution_complex(mod, length, name=f"trunc:{label}:{length}")
                members.append(BatteryMember(ident=f"trunc:{label}:{length}", cx=res,
                                             provenance="truncated resolution (periodic syzygy)"))
            if v.is_infinite:
                periodic_families.append((mod, v, lengths))
    count = 0
    while len(members) < min_size and count < 4 * min_size:
        count += 1
        shape_a = {k: rng.choice([1, 1, 2]) for k in range(rng.choice([1, 2]))}
        shape_b = {k: rng.choice([1, 1, 2]) for k in range(rng.choice([1, 2]))}
        a = free_complex(ring, shape_a)
        b = free_complex(ring, shape_b)
        f = random_chain_map(a, b, rng)
        cx = cone(f, name=f"cone:{count}").cone
        if cx.is_zero:
            continue
        members.append(BatteryMember(ident=f"cone:{count}", cx=cx, provenance="cone of random map"))
        if rng.random() < 0.25 and len(members) >= 2:
            # one iterated cone for variety
            g = random_chain_map(members[-2].cx, cx, rng)
            cx2 = cone(g, name=f"cone2:{count}").cone
            members.append(BatteryMember(ident=f"cone2:{count}", cx=cx2,
                                         provenance="cone between cones"))
    members.sort(key=lambda m: m.ident)
    return members, periodic_families


def _verify_minimal_mod_simples(res, simples):
    """All differentials vanish after tensoring with every simple.

    This is minimality of the resolution; it forces the E2 page of the
    truncation's spectral sequence to be concentrated where homology lives,
    which is what makes pdim(trunc_L) >= L - 1.
    """
    ring = res.ring
    for s in simples:
        for k in res.degrees():
            d = res.diff(k)
            if not d.size:
                continue
            # tensoring a map of frees with R/rad-style simples kills
            # exactly the radical entries; check via the induced tensor map
            from .modules import tensor_modules, tensor_map

            tsrc = tensor_modules(res.term(k), s)
            ttgt = tensor_modules(res.term(k - 1), s)
            induced = tensor_map(d, eye(s.ngens), tsrc, ttgt)
            if induced.mat.any():
                return False
    return True


def ghdim_ring(ring, bound, seed=0, battery=None):
    """Ghost dimension: sup of pdim over the battery, with an infinity
    certificate from growing truncation families when syzygies are periodic.

    Returns (verdict, report dict)."""
    if battery is None:
        battery = standard_battery(ring, bound, seed)
    members, periodic_families = battery
    values = []
    rows = []
    for mem in members:
        v = pdim_complex(mem.cx, bound)
        values.append(v)
        rows.append({"member": mem.ident, "pdim": v.to_json(), "provenance": mem.provenance})
    report = {"battery": rows, "bound": bound, "seed": seed}
    if periodic_families:
        fam_reports = []
        op_simples = ring.opposite().simples or ()
        for mod, v_mod, lengths in periodic_families:
            by_len = {}
            for row in rows:
                if row["member"].startswith(f"trunc:{mod.label}:"):
                    by_len[int(row["member"].rsplit(":", 1)[1])] = row["pdim"]
            largest = max(lengths)
            res = resolution_complex(mod, largest)
            minimal = _verify_minimal_mod_simples(res, op_simples) if op_simples else False
            growth_ok = all(
                by_len.get(length, {}).get("n", -1) >= length - 1
                for length in lengths
                if by_len.get(length, {}).get("kind") == "finite"
            )
            fam_reports.append(
                {
                    "module": mod.label,
                    "syzygy_period": v_mod.period,
                    "minimal_mod_simples": minimal,
                    "pdim_growth_verified": growth_ok,
                    "truncation_pdims": {str(k): v for k, v in sorted(by_len.items())},
                }
            )
            if not growth_ok:
                raise ValidationError(
                    f"truncation family of {mod.label} failed its growth certificate"
                )
        report["infinite_certificate"] = fam_reports
        fam = periodic_families[0]
        return Verdict.infinite(period=fam[1].period, start=fam[1].period_start), report
    return verdict_max(values), report


# ---------------------------------------------------------------------------
# Rouquier witness
# ---------------------------------------------------------------------------

@dataclass
class RouquierStep:
    index: int
    step_map: ChainMap           # C_(j-1) -> C_j
    model: Equivalence           # cone(step_map) ~ S P_j

    @property
    def free_rank_total(self):
        return sum(self.model.tgt.term(k).ngens for k in self.model.tgt.degrees())


@dataclass
class RouquierCertificate:
    target: Complex              # C_n
    include: ChainMap            # S X -> C_n (exact section)
    retract: ChainMap            # C_n -> S X
    retract_homotopy: Homotopy   # witness for id - retract . include (zero)
    base_model: Equivalence      # C_0 ~ S P_0
    steps: list

    def validate(self):
        """Every complex, chain map and witness the certificate holds, and
        that its pieces form one chain of triangles: the base model starts at
        C_0, each step starts where the one before it ends, and the last one
        ends at the target."""
        from .complexes import check_null_homotopy

        end = self.base_model.src                    # C_0
        for st in self.steps:
            if st.step_map.src is not end:
                raise ValidationError(f"rouquier step {st.index} does not start where the chain ends")
            end = st.step_map.tgt
        if end is not self.target:
            raise ValidationError("the chain of rouquier steps does not end at the target")
        self.target.validate()
        for f in (self.include, self.retract):
            f.validate()
        sx = self.retract.tgt
        check_null_homotopy(identity_chain(sx) - self.retract @ self.include, self.retract_homotopy)
        self.base_model.validate()
        for st in self.steps:
            st.step_map.validate()
            st.model.validate()
            st.model.src.validate()


def rouquier_build(x, n):
    """Realize S x as a retract of an n-step extension of finite frees.

    Requires pdim x <= n (PdimTooLarge otherwise); every level built from R
    is closed under suspension, so S x certifies the bound for x.  The
    certificate carries the chain of triangles, an equivalence of each third
    term with a suspended tower cover S P_j (a finite free complex with zero
    differential), and the exact retraction coming from the null-homotopy h
    of the tower composite.

    C_j = cone(g_j: x -> W_j) is W_j + x_(k-1) degreewise, and W_j is
    W_(j-1) + P_j,(k-1) (the prefix layout of ghosts.Tower).  So g_0 and
    each step m_j: C_(j-1) -> C_j are coordinate inclusions, with cokernels
    S P_0 and S P_j, and split_inclusion_model gives each cone's
    equivalence.  The retract is the connecting map C_n -> S x, and the
    include sends x to (-h x, x), a chain map exactly because g_n = dh + hd.
    """
    tower = ghost_tower(x, n)
    h = tower.nullity(n)
    if h is None:
        raise PdimTooLarge(f"pdim {x.name or 'X'} exceeds {n}")
    cones = [cone(tower.composite(j)) for j in range(n + 1)]
    top = cones[n]
    retract = top.connecting()
    sx = retract.tgt
    include = ChainMap(sx, top.cone, {k: top.ish(k) - top.it(k) @ h.component(k - 1) for k in sx.degrees()})
    # retract . include = id on the nose
    retract_homotopy = Homotopy(sx, sx, {})
    base_model = split_inclusion_model(cones[0], suspend(tower.ugs[0].cover))
    steps = []
    for j in range(1, n + 1):
        prev, c_j = cones[j - 1].cone, cones[j].cone
        mats = {}
        for k in prev.degrees():
            # keep W_(j-1) first and x last; a chain map as g_j extends g_(j-1)
            n_prev, n_next, n_x = prev.term(k).ngens, c_j.term(k).ngens, x.term(k - 1).ngens
            mats[k] = eye(n_next)[:, [*range(n_prev - n_x), *range(n_next - n_x, n_next)]]
        m_j = ChainMap(prev, c_j, mats)
        model = split_inclusion_model(cone(m_j), suspend(tower.ugs[j].cover))
        steps.append(RouquierStep(index=j, step_map=m_j, model=model))
    cert = RouquierCertificate(
        target=top.cone,
        include=include,
        retract=retract,
        retract_homotopy=retract_homotopy,
        base_model=base_model,
        steps=steps,
    )
    cert.validate()
    return cert


# ---------------------------------------------------------------------------
# Symmetry
# ---------------------------------------------------------------------------

def symmetry_report(ring, bound, seed=0):
    """ghdim of the ring and of its opposite, both computed from scratch."""
    v1, rep1 = ghdim_ring(ring, bound, seed=seed)
    op = ring.opposite()
    v2, rep2 = ghdim_ring(op, bound, seed=seed)
    if v1.kind == "at_least" or v2.kind == "at_least":
        status = "inconclusive"
    else:
        status = "equal" if v1.same_verdict(v2) else "unequal"
    return {
        "ring": ring.name,
        "ghdim": v1,
        "ghdim_op": v2,
        "status": status,
        "left": rep1,
        "right": rep2,
    }


# ---------------------------------------------------------------------------
# DimReport
# ---------------------------------------------------------------------------

@dataclass
class DimReport:
    ring: str
    quantity: str
    verdict: Verdict
    bound: int
    seed: int = 0
    witnesses: object = field(default_factory=list)

    def to_json(self):
        return {
            "ring": self.ring,
            "quantity": self.quantity,
            "value": self.verdict.render(),
            "verdict": self.verdict.to_json(),
            "bound": self.bound,
            "seed": self.seed,
            "witnesses": self.witnesses,
        }
