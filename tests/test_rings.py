import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import helpers

from ghostdim.errors import BadUnit, NonAssociative, NonSimpleDeclared, ParseError, ValidationError
from ghostdim.rings import (
    BUILTIN_NAMES,
    RingSpec,
    _upper_triangular,
    builtin_ring,
    make_ring,
    ring_spec_from_dict,
    ring_to_dict,
    zmod,
)


def test_builtins_all_validate():
    for name in BUILTIN_NAMES:
        ring = builtin_ring(name)
        assert ring.size <= 2 ** 8
        assert ring.simples is not None and len(ring.simples) >= 1


def test_builtin_rings_keep_their_serialized_form():
    """ring_to_dict of every builtin, and of T_2(F_3), digests as committed:
    the pair algebras share one builder and set their simples' labels from
    the descriptors."""
    rings = {name: builtin_ring(name) for name in BUILTIN_NAMES}
    rings["ut2:f3"] = _upper_triangular(2, 3, "ut2:f3")
    got = {name: hashlib.sha256(json.dumps(ring_to_dict(r), sort_keys=True).encode()).hexdigest()[:16]
           for name, r in rings.items()}
    want = json.loads((Path(__file__).parent / "golden" / "ring-digests.json").read_text())
    assert got == want


def test_zmod6_simples():
    ring = zmod(6)
    orders = sorted(s.orders[0] for s in ring.simples)
    assert orders == [2, 3]


def test_dual_numbers_unique_simple():
    ring = builtin_ring("dual:f2")
    assert len(ring.simples) == 1
    s = ring.simples[0]
    assert s.orders == (2,)
    # x acts by zero on the simple
    assert s.actions[1][0, 0] == 0


def test_nonassociative_rejected():
    sc = np.zeros((2, 2, 2), dtype=np.int64)
    sc[0, 0, 0] = 1
    sc[0, 1, 1] = 1
    sc[1, 0, 1] = 1
    sc[1, 1, 0] = 1  # x^2 = 1 with x*unit games: (x x) x = x, x (x x) = x ... adjust to break
    # break associativity explicitly: make x*x = 1 but also x*1 = 0
    sc[1, 0, 1] = 0
    spec = RingSpec(name="bad", backend="fp_algebra", p=2, dim=2,
                    structure_constants=sc.tolist(), unit=[1, 0])
    with pytest.raises((NonAssociative, BadUnit)):
        make_ring(spec)


def test_bad_unit_rejected():
    sc = np.zeros((1, 1, 1), dtype=np.int64)
    sc[0, 0, 0] = 1
    spec = RingSpec(name="bad", backend="fp_algebra", p=3, dim=1,
                    structure_constants=sc.tolist(), unit=[2])
    with pytest.raises(BadUnit):
        make_ring(spec)


def test_opposite_involution_on_data():
    for name in ("ut2:f2", "a3:f2", "zmod:4"):
        ring = builtin_ring(name)
        opop = ring.opposite().opposite()
        assert ring.same_ring(opop)
        assert np.array_equal(ring.sc, opop.sc)


def test_opposite_zmod_unchanged():
    ring = zmod(4)
    assert ring.same_ring(ring.opposite())


def test_opposite_triangular_validates():
    ring = builtin_ring("ut2:f2")
    op = ring.opposite()
    # validation re-ran inside opposite(); spot-check noncommutativity is preserved
    assert not ring.is_commutative()
    assert not op.is_commutative()
    assert not np.array_equal(ring.sc, op.sc)
    # simples transported and still simple (validated on construction)
    assert len(op.simples) == 2


def test_ring_spec_round_trip():
    ring = builtin_ring("ut2:f2")
    data = ring_to_dict(ring)
    ring2 = make_ring(ring_spec_from_dict(data))
    assert ring.same_ring(ring2)
    assert len(ring2.simples) == 2


def test_malformed_structure_constants():
    with pytest.raises(ParseError):
        ring_spec_from_dict(
            {"name": "bad", "backend": "fp_algebra", "p": 2, "dim": 2,
             "structure_constants": [[[1, 0], [0, 0]]], "unit": [1, 0]}
        )


def test_ring_cap():
    with pytest.raises(ValidationError):
        zmod(512)
    zmod(512, allow_large=True)


def test_base_ring():
    ring = builtin_ring("ut2:f2")
    base = ring.base_ring()
    assert base.rank == 1 and base.modulus == 2
    assert zmod(4).base_ring() is zmod(4).base_ring() or True  # just total


def test_builtin_simple_lists_validate_from_their_specs():
    # make_ring checks a declared simple list in full: each simple, and no
    # two isomorphic (a nonzero hom between simples, by Schur).
    for name in BUILTIN_NAMES:
        ring = builtin_ring(name)
        again = make_ring(ring_spec_from_dict(ring_to_dict(ring)))
        assert len(again.simples) == len(ring.simples)


def test_declared_isomorphic_simples_are_rejected():
    data = ring_to_dict(builtin_ring("ut2:f2"))
    data["simples"] = data["simples"] + data["simples"][:1]
    with pytest.raises(NonSimpleDeclared, match="#0 and #2 of ut2:f2 are isomorphic"):
        make_ring(ring_spec_from_dict(data))


@pytest.mark.parametrize("n", [3, 4])
def test_committed_radical_square_zero_specs_are_the_helpers(n):
    """tests/rings/a<n>rad2-f2.json is radical_square_zero_spec(n), a ring of
    dimension 2n - 1 with n simples."""
    path = Path(__file__).parent / "rings" / f"a{n}rad2-f2.json"
    spec = helpers.radical_square_zero_spec(n)
    assert json.loads(path.read_text()) == spec
    ring = make_ring(ring_spec_from_dict(spec))
    assert ring.rank == 2 * n - 1 and len(ring.simples) == n and ring.size <= 2 ** 8
