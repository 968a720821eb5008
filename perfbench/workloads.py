"""The benchmark's workloads: inputs made from a seed, the calls timed, and the checks.

Battery structure is fixed at the seeds the acceptance suite uses (0 for
ghdim, 7 for the compact batteries).  The run's seed draws a random change of
basis of every free term of every battery member: each input complex is
replaced by an isomorphic one with different matrices.  Verdicts and
filtrations are isomorphism invariants, so every seed has the same expected
answers and, the sizes being equal, about the same cost.  A seed that drew
new batteries would draw new member sizes too, and member cost grows steeply
with size (fdim of one a3:f2 member of the seed-7 battery takes minutes).

Bounds and battery sizes are smaller than the acceptance suite's, so that one
pass takes about ten seconds and a run can take the median of several passes.

An item is one timed unit: `run(timed)` calls the program only through
`timed(fn, *args)`, checks the result outside the timed region, and returns
the rendered answer, which is compared with `expected.json`.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass
class Workload:
    name: str
    build: Callable          # (seed, expected answers or None) -> list of Item
    required_calls: tuple    # span names that must be called when traced


@dataclass
class Item:
    ident: str
    run: Callable            # (timed) -> rendered answer


class CheckFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _transvection(term, i, j, coeffs):
    """Matrix of the module map sending generator j to g_j + g_i * a, fixing the others.

    `term` is free of some rank over a ring with basis b_0..b_(d-1); its group
    generators are g_k * b_t, in column k * d + t, and a = sum_s coeffs[s] b_s.
    """
    from ghostdim.linalg import eye

    d = term.ring.rank
    mat = eye(term.ngens)
    g_i = np.zeros(term.ngens, dtype=np.int64)
    g_i[i * d:(i + 1) * d] = term.ring.unit
    g_i_a = sum(c * (term.actions[s] @ g_i) for s, c in enumerate(coeffs))
    for t in range(d):
        mat[:, j * d + t] += term.actions[t] @ g_i_a
    return mat % term.ring.modulus


def random_automorphism(term, rng):
    """A random automorphism of a free module and its inverse, as matrices.

    A product of elementary transvections; the inverse is the product of
    their inverses in reverse order.  Terms of rank below 2 get the identity.
    """
    from ghostdim.linalg import eye
    from ghostdim.modules import free_rank

    m = term.ring.modulus
    rank = free_rank(term)
    fwd, bwd = eye(term.ngens), eye(term.ngens)
    if rank < 2:
        return fwd, bwd
    for _ in range(2 * rank * rank):
        i, j = rng.sample(range(rank), 2)
        coeffs = [rng.randrange(m) for _ in range(term.ring.rank)]
        fwd = (_transvection(term, i, j, coeffs) @ fwd) % m
        bwd = (bwd @ _transvection(term, i, j, [-c % m for c in coeffs])) % m
    return fwd, bwd


def change_basis(cx, rng):
    """An isomorphic copy of a complex of free modules, with fresh caches."""
    from ghostdim.complexes import Complex
    from ghostdim.linalg import reduce_coords
    from ghostdim.modules import is_free_module

    m = cx.ring.modulus
    autos = {}
    for k in range(cx.lo - 1, cx.hi + 1):
        term = cx.term(k)
        if term.is_zero or not is_free_module(term):
            autos[k] = None
        else:
            autos[k] = random_automorphism(term, rng)
    diffs = {}
    for k in cx.degrees():
        d = cx.diff(k)
        if autos.get(k - 1) is not None:
            d = autos[k - 1][0] @ d
        if autos.get(k) is not None:
            d = d @ autos[k][1]
        diffs[k] = reduce_coords(d % m, cx.term(k - 1).orders)
    terms = {k: cx.term(k) for k in cx.degrees()}
    return Complex(cx.ring, cx.lo, cx.hi, terms, diffs, certs=cx.certs, name=cx.name)


def change_basis_all(members, rng):
    """Battery members, each under its own random change of basis."""
    from ghostdim.dimensions import BatteryMember

    return [BatteryMember(ident=mem.ident, cx=change_basis(mem.cx, rng), provenance=mem.provenance)
            for mem in members]


def battery(ring_name, bound, seed, min_size, rng):
    """Members of `standard_battery` at a fixed seed, each under a random change of basis."""
    from ghostdim.dimensions import standard_battery
    from ghostdim.rings import builtin_ring

    members, _ = standard_battery(builtin_ring(ring_name), bound, seed, min_size=min_size)
    return change_basis_all(members, rng)


def load_expected():
    return json.loads(EXPECTED_PATH.read_text())


def record_answers(workload, answers):
    """Store a workload's answers and their digest in expected.json."""
    data = load_expected() if EXPECTED_PATH.exists() else {}
    data[workload] = {"digest": answers_digest(answers), "answers": answers}
    EXPECTED_PATH.write_text(json.dumps(data, indent=1, ensure_ascii=False, sort_keys=True) + "\n")


def answers_digest(answers):
    """A short digest of every rendered answer of a pass, keyed by item."""
    blob = json.dumps(sorted(answers.items()), ensure_ascii=False).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _check_expected(expected, ident, answer):
    """Compare with the recorded answer; `expected` is None while recording."""
    if expected is None:
        return
    want = expected.get(ident)
    if want is None:
        raise CheckFailed(f"{ident}: no recorded answer")
    if want != answer:
        raise CheckFailed(f"{ident}: answer {answer!r}, recorded {want!r}")


# ---------------------------------------------------------------------------
# summary: ghdim = wdim on every builtin ring (acceptance criterion 1)
# ---------------------------------------------------------------------------

SUMMARY_BOUND = 4
SUMMARY_BATTERY_SEED = 0
SUMMARY_MIN_SIZE = 12
# The builtin rings, ordered so that the five whose ghdim items cost about
# the same (~0.1 s, the median item) run seconds apart.  Run back to back,
# they share the machine's short changes of speed and move the median item
# latency together; spaced out, their noise averages.
SUMMARY_ORDER = ("f2", "a3:f2", "f3", "dual:f2", "zmod:8", "zmod:12", "zmod:2", "a2:f2",
                 "zmod:4", "zmod:9", "ut2:f2", "zmod:3", "ut3:f2", "zmod:6")

# wdim = ghdim of the builtin corpus, as the README's table gives it.
CORPUS_TABLE = {
    "zmod:2": "0", "zmod:3": "0", "zmod:4": "∞ (periodic)", "zmod:6": "0",
    "zmod:8": "∞ (periodic)", "zmod:9": "∞ (periodic)", "zmod:12": "∞ (periodic)",
    "f2": "0", "f3": "0", "dual:f2": "∞ (periodic)",
    "ut2:f2": "1", "ut3:f2": "1", "a2:f2": "1", "a3:f2": "1",
}


def _check_corpus(name, kind, answer):
    if CORPUS_TABLE[name] != answer:
        raise CheckFailed(f"{kind}({name}) = {answer}, the corpus table says {CORPUS_TABLE[name]}")


def summary_items(seed, expected):
    from ghostdim.dimensions import ghdim_ring, standard_battery, wdim_ring
    from ghostdim.rings import BUILTIN_NAMES, builtin_ring

    if sorted(SUMMARY_ORDER) != sorted(BUILTIN_NAMES):
        raise ValueError(f"SUMMARY_ORDER {SUMMARY_ORDER} is not an order of {BUILTIN_NAMES}")
    rng = random.Random(seed)
    ghdims = {}
    items = []
    for name in SUMMARY_ORDER:
        def run_ghdim(timed, name=name):
            ring = builtin_ring(name)
            members, families = timed(standard_battery, ring, SUMMARY_BOUND, SUMMARY_BATTERY_SEED,
                                      min_size=SUMMARY_MIN_SIZE)
            verdict, _ = timed(ghdim_ring, ring, SUMMARY_BOUND, seed=SUMMARY_BATTERY_SEED,
                               battery=(change_basis_all(members, rng), families))
            ghdims[name] = verdict
            answer = verdict.render()
            _check_corpus(name, "ghdim", answer)
            _check_expected(expected, f"ghdim:{name}", answer)
            return answer

        def run_wdim(timed, name=name):
            verdict, _ = timed(wdim_ring, builtin_ring(name), SUMMARY_BOUND)
            answer = verdict.render()
            _check_corpus(name, "wdim", answer)
            _check_expected(expected, f"wdim:{name}", answer)
            if name in ghdims and not ghdims[name].same_verdict(verdict):
                raise CheckFailed(f"{name}: ghdim {ghdims[name].render()} != wdim {answer}")
            return answer

        items.append(Item(f"ghdim:{name}", run_ghdim))
        items.append(Item(f"wdim:{name}", run_wdim))
    return items


# ---------------------------------------------------------------------------
# compact-eq: fdim via the spectral sequence = pdim via ghost towers (criterion 2)
# ---------------------------------------------------------------------------

COMPACT_RINGS = ("ut3:f2", "dual:f2", "zmod:12")
COMPACT_BOUND = 4
COMPACT_BATTERY_SEED = 7
COMPACT_MIN_SIZE = 13


def compact_eq_items(seed, expected):
    from ghostdim.ghosts import pdim_complex
    from ghostdim.tensor_ss import fdim_via_ss

    rng = random.Random(seed)
    items = []
    for ring_name in COMPACT_RINGS:
        members = battery(ring_name, COMPACT_BOUND, COMPACT_BATTERY_SEED, COMPACT_MIN_SIZE, rng)
        for mem in members:
            ident = f"{ring_name}/{mem.ident}"

            def run(timed, cx=mem.cx, ident=ident):
                pdim = timed(pdim_complex, cx, COMPACT_BOUND)
                fdim = timed(fdim_via_ss, cx, COMPACT_BOUND)
                if not pdim.same_verdict(fdim):
                    raise CheckFailed(f"{ident}: pdim {pdim.render()} != fdim {fdim.render()}")
                answer = pdim.render()
                _check_expected(expected, ident, answer)
                return answer

            items.append(Item(ident, run))
    return items


# ---------------------------------------------------------------------------
# ss-oracle: tower-kernel filtration = tower-free resolution filtration (criterion 6)
# ---------------------------------------------------------------------------

ORACLE_RINGS = ("ut3:f2", "dual:f2", "zmod:12", "a3:f2")
ORACLE_BOUND = 4
ORACLE_BATTERY_SEED = 7
ORACLE_MIN_SIZE = 13


def _render_filtration(e_infty, line):
    cells = ",".join(f"{s}:{t}={v}" for (s, t), v in sorted(e_infty.items()))
    return f"line={line};{cells}"


def ss_oracle_items(seed, expected):
    from ghostdim.rings import builtin_ring
    from ghostdim.tensor_ss import resolution_filtration, ucss_filtration

    rng = random.Random(seed)
    items = []
    for ring_name in ORACLE_RINGS:
        simples = builtin_ring(ring_name).opposite().simples
        members = battery(ring_name, ORACLE_BOUND, ORACLE_BATTERY_SEED, ORACLE_MIN_SIZE, rng)
        for mem in members:
            for z in simples:
                ident = f"{ring_name}/{mem.ident}/{z.label}"

                def run(timed, cx=mem.cx, z=z, ident=ident):
                    table = timed(ucss_filtration, cx, z)
                    e_infty, line = timed(resolution_filtration, cx, z)
                    if not table.exhausted:
                        raise CheckFailed(f"{ident}: tower filtration not exhausted")
                    if table.e_infty != e_infty or table.vanishing_line != line:
                        raise CheckFailed(f"{ident}: filtrations differ: "
                                          f"{_render_filtration(table.e_infty, table.vanishing_line)}"
                                          f" vs {_render_filtration(e_infty, line)}")
                    answer = _render_filtration(e_infty, line)
                    _check_expected(expected, ident, answer)
                    return answer

                items.append(Item(ident, run))
    return items


# Each workload names the functions its traced run must reach.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("summary", summary_items, ("dimensions.wdim_ring",)),
        Workload("compact-eq", compact_eq_items,
                 ("modules.tensor_map", "tensor_ss.tensor_complexes")),
        Workload("ss-oracle", ss_oracle_items, ("tensor_ss.resolution_filtration",)),
    )
}
