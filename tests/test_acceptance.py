"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines and timings.
"""

import random
import time

import helpers
from ghostdim.cli import (
    verify_compact_eq,
    verify_flatchar,
    verify_rouquier,
    verify_summary,
    verify_symmetry,
)
from ghostdim.complexes import ChainMap, null_homotopy, zero_chain
from ghostdim.ghosts import random_chain_map
from ghostdim.rings import BUILTIN_NAMES, builtin_ring, zmod
from ghostdim.tensor_ss import resolution_filtration, ucss_filtration


def _stamp(name, t0, extra=""):
    print(f"ACCEPTANCE {name}: PASS ({time.time() - t0:.1f}s) {extra}".rstrip())


EXPECTED_SUMMARY = {
    "zmod:2": "0",
    "zmod:3": "0",
    "zmod:4": "∞ (periodic)",
    "zmod:6": "0",
    "zmod:8": "∞ (periodic)",
    "zmod:9": "∞ (periodic)",
    "zmod:12": "∞ (periodic)",
    "f2": "0",
    "f3": "0",
    "dual:f2": "∞ (periodic)",
    "ut2:f2": "1",
    "ut3:f2": "1",
    "a2:f2": "1",
    "a3:f2": "1",
}


def test_criterion_1_summary_theorem_suite():
    """ghdim verdict equals wdim verdict on every builtin ring at bound 8."""
    t0 = time.time()
    for name in BUILTIN_NAMES:
        ring = builtin_ring(name)
        ok, report = verify_summary(ring, 8, 0)
        assert ok, f"{name}: ghdim {report['ghdim']} != wdim {report['wdim']}"
        assert report["ghdim"] == EXPECTED_SUMMARY[name], (name, report["ghdim"])
        assert report["wdim"] == EXPECTED_SUMMARY[name]
    elapsed = time.time() - t0
    assert elapsed < 60, f"summary suite took {elapsed:.1f}s, budget is 60s"
    _stamp("1 (summary theorem, ghdim = wdim, all builtins, bound 8)", t0)


def test_criterion_2_compact_equality_suite():
    """fdim_via_ss verdict = pdim_complex verdict on >= 25 battery members per ring."""
    t0 = time.time()
    for name in BUILTIN_NAMES:
        ring = builtin_ring(name)
        ok, report = verify_compact_eq(ring, 6, 7)
        assert report["battery_size"] >= 25, name
        assert ok, f"{name}: disagreements {report.get('counterexamples')}"
    elapsed = time.time() - t0
    assert elapsed < 300, f"compact-eq suite took {elapsed:.1f}s, budget is 300s"
    _stamp("2 (fdim = cfdim = pdim on compacts, bound 6, seed 7)", t0)


def test_criterion_3_flat_characterization():
    """Universal ghost nullity tracks flatness; maps into flats factor through
    compact projectives, constructively."""
    t0 = time.time()
    for name in BUILTIN_NAMES:
        ring = builtin_ring(name)
        ok, report = verify_flatchar(ring, 6, 0)
        assert ok, f"{name}: {report.get('counterexamples')}"
        flats = [row for row in report["members"] if row["flat_homology"]]
        assert flats, f"{name}: battery contained no flat member"
        factored = sum(row.get("factorizations_checked", 0) for row in flats)
        assert factored > 0, f"{name}: no factorizations were exercised"
    _stamp("3 (flat characterization and projective factorization)", t0)


def test_criterion_4_rouquier_witness():
    """rouquier_build succeeds with <= n triangles and finite free ranks."""
    t0 = time.time()
    built = 0
    for name in ("ut2:f2", "a2:f2", "a3:f2", "zmod:6"):
        ring = builtin_ring(name)
        ok, report = verify_rouquier(ring, 6, 0)
        assert ok, f"{name}: {report.get('counterexamples')}"
        rows = [row for row in report["members"] if not row.get("skipped")]
        assert rows, f"{name}: nothing was built"
        for row in rows:
            assert row["ok"]
            assert all(r > 0 for r in row["stage_ranks"]) or row["triangles"] == 0
            assert row["retract_exact"]
        built += len(rows)
    assert built >= 40
    _stamp("4 (Rouquier witnesses)", t0, extra=f"[{built} builds]")


def test_criterion_5_symmetry():
    """ghdim(R) = ghdim(R^op) on every builtin, both sides computed."""
    t0 = time.time()
    for name in BUILTIN_NAMES:
        ring = builtin_ring(name)
        ok, report = verify_symmetry(ring, 8, 0)
        assert ok, f"{name}: {report}"
        assert report["status"] == "equal"
        assert report["ghdim"] == EXPECTED_SUMMARY[name]
    _stamp("5 (left-right symmetry of ghdim, bound 8)", t0)


def test_the_theorem_at_global_dimension_2():
    """On A_3/rad^2, of global dimension 2, ghdim = wdim = 2 (summary, bound 8),
    and criteria 2, 4 and 5 pass there: the theorem checked at a finite value
    above 1, which no builtin ring reaches."""
    t0 = time.time()
    ring = helpers.named_ring("a3rad2:f2")
    ok, report = verify_summary(ring, 8, 0)
    assert ok and report["ghdim"] == report["wdim"] == "2", report
    ok, report = verify_compact_eq(ring, 6, 7)
    assert ok and report["battery_size"] >= 25, report.get("counterexamples")
    ok, report = verify_rouquier(ring, 6, 0)
    assert ok and any(not row.get("skipped") for row in report["members"])
    ok, report = verify_symmetry(ring, 8, 0)
    assert ok and report["ghdim"] == report["ghdim_op"] == "2", report
    _stamp("A_3/rad^2 (ghdim = wdim = 2; compact-eq, Rouquier, symmetry)", t0)


def test_criterion_6_spectral_sequence_cross_oracle():
    """Tower-kernel filtration matches the tower-free resolution filtration
    exactly, per (s, t), on all pairs with small total complexes."""
    t0 = time.time()
    compared = 0
    for name, x, z in helpers.criterion_6_pairs():
        table = ucss_filtration(x, z)
        assert table.exhausted
        e2, line2 = resolution_filtration(x, z)
        assert table.e_infty == e2, (name, x.name, z.label, table.e_infty, e2)
        assert table.vanishing_line == line2
        compared += 1
    assert compared >= 25
    _stamp("6 (spectral-sequence cross-oracle)", t0, extra=f"[{compared} pairs]")


def test_criterion_7_les_and_homotopy_soundness():
    """1000 seeded random triangles per backend pass homology LES exactness;
    null-homotopy decisions agree with exhaustive search."""
    t0 = time.time()
    backends = {
        "zmod": [zmod(4), zmod(6), zmod(8), zmod(9)],
        "fp_algebra": [builtin_ring("dual:f2"), builtin_ring("ut2:f2"), builtin_ring("f2")],
    }
    for backend, rings in backends.items():
        rng = random.Random(2026)
        checked = 0
        while checked < 1000:
            ring = rings[checked % len(rings)]
            a = helpers.random_small_complex(ring, rng)
            b = helpers.random_small_complex(ring, rng)
            f = random_chain_map(a, b, rng)
            tri = helpers.cone_triangle(f)
            assert helpers.homology_les_exact(tri), f"{backend}: LES failed for seed state {checked}"
            checked += 1
        assert checked == 1000
    # exhaustive homotopy cross-check on systems with <= 2^10 candidates
    for backend, rings in backends.items():
        rng = random.Random(7)
        agreements = 0
        found = missing = 0
        while agreements < 120:
            ring = rings[agreements % len(rings)]
            a = helpers.random_small_complex(ring, rng)
            b = helpers.random_small_complex(ring, rng)
            from ghostdim.complexes import chain_map_generators

            gens = chain_map_generators(a, b)
            f = zero_chain(a, b)
            for g in gens:
                c = rng.randrange(ring.modulus)
                f = f + ChainMap(a, b, {k: c * mat for k, mat in g.mats.items()})
            try:
                brute = helpers.brute_null_homotopy_exists(f)
            except ValueError:
                continue  # candidate space too large; skip per the cap
            got = null_homotopy(f) is not None
            assert got == brute, f"{backend}: solver disagrees with brute force"
            found += got
            missing += not got
            agreements += 1
        assert found and missing, f"{backend}: cross-check did not see both outcomes"
    _stamp("7 (LES exactness x2000 and homotopy-solver soundness)", t0)
