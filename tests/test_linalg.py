import tracemalloc
from functools import lru_cache
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
import smith_reference
from ghostdim import linalg
from ghostdim.errors import ModulusTooLarge
from ghostdim.linalg import (
    enumerate_group,
    kernel_hetero,
    quotient_presentation,
    reduce_generators,
    smith_mod,
    solve_hetero,
    subgroup_order,
    xgcd,
)


small_modulus = st.integers(min_value=2, max_value=16)


def solve_mod(a, b, m):
    x = solve_hetero(a, np.asarray(b, dtype=np.int64).reshape(-1, 1), [m] * len(a), m)
    return None if x is None else x[:, 0]


def kernel_mod(a, m):
    return kernel_hetero(a, [m] * len(a), m)


def random_matrix(data, m, max_dim=4):
    rows = data.draw(st.integers(min_value=0, max_value=max_dim))
    cols = data.draw(st.integers(min_value=0, max_value=max_dim))
    entries = data.draw(
        st.lists(st.integers(min_value=0, max_value=m - 1), min_size=rows * cols, max_size=rows * cols)
    )
    return np.array(entries, dtype=np.int64).reshape(rows, cols)


def sparse_matrix(data, m, max_rows, max_cols):
    """A random matrix mod m of any density, empty and single-row shapes included."""
    rows = data.draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, max_rows)))
    cols = data.draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, max_cols)))
    density = data.draw(st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.5, 1.0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((rows, cols)) < density
    return np.where(mask, rng.integers(1, m, size=(rows, cols)), 0).astype(np.int64)


@given(st.integers(-300, 300), st.integers(-300, 300))
def test_xgcd(a, b):
    g, x, y = xgcd(a, b)
    assert g == np.gcd(a, b)
    assert x * a + y * b == g


@settings(max_examples=200, deadline=None)
@given(st.data(), small_modulus)
def test_smith_decomposition_identities(data, m):
    """The reference's D = S A T and S S^-1 = I; smith_mod reduces [A | B] to
    the same diagonal with B ending as S B, and forms T on the composite
    path of a solve only."""
    a = sparse_matrix(data, m, 12, 16)
    dec = smith_reference.smith_mod(a, m, "all", None)
    r, c = a.shape
    # D = S A T and S S^-1 = I, all mod m
    d = np.zeros((r, c), dtype=np.int64)
    for i, di in enumerate(dec.diag):
        d[i, i] = di
    assert np.array_equal((dec.s @ a @ dec.t) % m, d % m)
    assert np.array_equal((dec.s @ dec.s_inv) % m, np.eye(r, dtype=np.int64) % m)
    assert np.array_equal((dec.s_inv @ dec.s) % m, np.eye(r, dtype=np.int64) % m)
    # no right-hand side: the diagonal alone
    diag = smith_mod(a, m, None)
    assert np.array_equal(diag.diag, dec.diag)
    assert diag.t is None and diag.rhs is None
    # a solve carries B along the row operations in place of forming S: it
    # ends as S B; T is formed on the composite path only
    b = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).integers(0, m, size=(r, 3))
    solve = smith_mod(a, m, b)
    assert np.array_equal(solve.diag, dec.diag)
    assert np.array_equal(solve.rhs, (dec.s @ b) % m)
    if solve.pivots is None:
        assert np.array_equal(solve.t, dec.t)
    else:
        assert solve.t is None


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 5, 7, 251]), st.booleans())
def test_smith_prime_is_bit_identical_to_the_reference(data, m, with_rhs):
    """Over a prime smith_mod forms neither S nor T: its right-hand sides end
    as the reference's S B, and its kernel is the reference's last columns
    of T."""
    a = sparse_matrix(data, m, 40, 60)
    b = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).integers(0, m, size=(a.shape[0], 2))
    got = smith_mod(a, m, b if with_rhs else None)
    want = smith_reference.smith_mod(a, m, "all", None)
    assert (got.m, got.shape, got.pivots) == (want.m, want.shape, want.pivots)
    assert got.diag.dtype == want.diag.dtype and np.array_equal(got.diag, want.diag)
    assert got.t is None
    if with_rhs:
        assert np.array_equal(got.rhs, (want.s @ b) % m)
        null = got.kernel()
        assert null.dtype == want.t.dtype and np.array_equal(null, want.t[:, len(want.pivots):])
    else:
        assert got.rhs is None


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(["wide", "tall", "both", "zero", "row"]), st.sampled_from([0, 1, 2, 70]),
       st.booleans())
def test_f2_bit_rows_are_bit_identical_across_word_widths(data, kind, width, zero_cols):
    """Over F_2 smith_mod packs [A | B] into bit rows: draws past one 64-bit
    word in either direction, a zero matrix, a single row, all-zero columns,
    and unreduced entries, with B of width 0, 1, 2 and 70, give the
    reference's pivots, S B and kernel."""
    rows = {"wide": (1, 40), "tall": (65, 150), "both": (65, 120), "zero": (0, 150), "row": (1, 1)}[kind]
    cols = {"wide": (65, 200), "tall": (1, 40), "both": (65, 120), "zero": (0, 150), "row": (1, 200)}[kind]
    r, c = data.draw(st.integers(*rows)), data.draw(st.integers(*cols))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    density = 0.0 if kind == "zero" else data.draw(st.sampled_from([0.01, 0.05, 0.2, 0.5]))
    a = np.where(rng.random((r, c)) < density, rng.integers(-3, 4, size=(r, c)), 0)
    if zero_cols:
        a[:, rng.random(c) < 0.3] = 0
    b = rng.integers(-3, 4, size=(r, width))
    got = smith_mod(a, 2, b)
    want = smith_reference.smith_mod(a, 2, "all", None)
    assert got.pivots == want.pivots and np.array_equal(got.diag, want.diag)
    rhs = got.rhs
    assert rhs.dtype == np.int64 and np.array_equal(rhs, (want.s @ b) % 2)
    null = got.kernel()
    assert null.dtype == np.int64 and np.array_equal(null, want.t[:, len(want.pivots):])
    x = got.solution()
    solvable = not rhs[len(want.pivots):].any()
    assert (x is not None) == solvable
    if solvable:
        assert x.shape == (c, width) and not ((a @ x - b) % 2).any()


def test_f2_solve_makes_no_dense_copy_of_the_system():
    """The F_2 path packs A and B from the caller's arrays: a sparse solve's
    peak allocation stays far below the size of the dense A."""
    rng = np.random.default_rng(7)
    a = (rng.random((2000, 4000)) < 0.001).astype(np.int64)
    b = rng.integers(0, 2, size=(2000, 1))
    tracemalloc.start()
    try:
        smith_mod(a, 2, b).solution()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes / 4


@lru_cache(maxsize=None)
def prime_across_bound(terms, above):
    """The largest prime m with terms * m**2 <= 2**63 - 1, or the smallest prime past it."""
    m = isqrt(linalg.INT64_MAX // terms)
    step = 1 if above else -1
    m += 1 if above else 0
    while linalg.factorize(m) != {m: 1}:
        m += step
    return m


def exact_residues(a, x, m):
    return [sum(int(a[i, j]) * int(x[j]) for j in range(a.shape[1])) % m for i in range(a.shape[0])]


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(min_value=2, max_value=12), st.booleans())
def test_kernel_is_exact_below_its_bound_and_refuses_past_it(data, k, above):
    m = prime_across_bound(k, above)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, m, size=(k, k), dtype=np.int64)
    b = np.array(exact_residues(a, rng.integers(0, m, size=k), m), dtype=np.int64)
    if above:
        with pytest.raises(ModulusTooLarge):
            solve_mod(a, b, m)
        return
    x = solve_mod(a, b, m)
    assert x is not None
    assert exact_residues(a, x, m) == b.tolist()


def test_kernel_refuses_mersenne_31_at_twelve_unknowns():
    m = 2**31 - 1
    a = np.random.default_rng(0).integers(0, m, size=(12, 12), dtype=np.int64)
    with pytest.raises(ModulusTooLarge, match="too large for exact int64"):
        solve_mod(a, a[:, 0], m)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=5, max_size=5),
       st.sampled_from([0.0, 0.05, 0.3, 1.0]), st.integers(0, 2**32 - 1))
def test_sparse_product_sum_matches_einsum(dims, density, seed):
    p, q, a, b, c = dims
    rng = np.random.default_rng(seed)
    x = np.where(rng.random((p, a, b)) < density, rng.integers(-6, 7, size=(p, a, b)), 0)
    y = np.where(rng.random((q, b, c)) < density, rng.integers(-6, 7, size=(q, b, c)), 0)
    keys, sums = linalg.sparse_product_sum([(x, y), (-x, y), (x, y)])
    dense = np.zeros(p * q * a * c, dtype=np.int64)
    dense[keys] = sums
    assert np.array_equal(dense, np.einsum("pij,qjk->pqik", x, y).reshape(-1))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=4, max_size=4),
       st.sampled_from([0.0, 0.3, 1.0]), st.integers(0, 2**32 - 1))
def test_kron_nonzeros_are_the_nonzeros_of_kron(dims, density, seed):
    rng = np.random.default_rng(seed)
    x, y = (np.where(rng.random(shape) < density, rng.integers(-6, 7, size=shape), 0)
            for shape in (dims[:2], dims[2:]))
    rows, cols, vals = linalg.kron_nonzeros(x, y)
    dense = np.zeros((dims[0] * dims[2], dims[1] * dims[3]), dtype=np.int64)
    dense[rows, cols] = vals
    assert np.array_equal(dense, np.kron(x, y)) and vals.all()
    assert len(set(zip(rows.tolist(), cols.tolist()))) == rows.size


def test_congruences_sum_entries_and_keep_the_live_rows():
    eqs = linalg.Congruences(3, 6)
    eqs.block([6, 3, 2], [1, 0, 5])
    eqs.add(np.array([0, 0, 1, 1]), np.array([2, 2, 0, 1]), np.array([4, 3, 6, 12]))
    eqs.block([6], [0])
    eqs.add(np.array([0]), np.array([1]), np.array([-1]))
    a, orders, rhs, solvable = eqs.matrix()
    # rows 1 and 2 sum to zero mod 6; row 2's right side 5 is not 0 mod 2
    assert np.array_equal(a, [[0, 0, 1], [0, 5, 0]]) and a.dtype == np.int64
    assert orders.tolist() == [6, 6] and rhs.tolist() == [[1], [0]] and not solvable
    eqs = linalg.Congruences(2, 5)
    a, orders, rhs, solvable = eqs.matrix()
    assert a.shape == (0, 2) and orders.shape == (0,) and rhs.shape == (0, 1) and solvable


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(min_value=2, max_value=9))
def test_solve_matches_brute_force(data, m):
    a = random_matrix(data, m, max_dim=3)
    rows, cols = a.shape
    x_true = data.draw(st.lists(st.integers(0, m - 1), min_size=cols, max_size=cols))
    use_solvable = data.draw(st.booleans())
    if use_solvable:
        b = (a @ np.array(x_true, dtype=np.int64)) % m
    else:
        b = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=rows, max_size=rows)), dtype=np.int64)
    x = solve_mod(a, b, m)
    brute_solvable = any(
        np.array_equal((a @ v) % m, b % m) for v in enumerate_group([m] * cols)
    ) if cols <= 3 and m ** cols <= 1000 else None
    if x is not None:
        assert np.array_equal((a @ x) % m, b % m)
        if brute_solvable is not None:
            assert brute_solvable
    else:
        if brute_solvable is not None:
            assert not brute_solvable
        assert not use_solvable or rows == 0 or True  # unsolvable only if b was random


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(min_value=2, max_value=9))
def test_kernel_spans_all_solutions(data, m):
    a = random_matrix(data, m, max_dim=3)
    rows, cols = a.shape
    k = kernel_mod(a, m)
    # every kernel generator really is in the kernel
    assert not ((a @ k) % m).any()
    # and they span: compare subgroup order with brute count
    if cols <= 3 and m ** cols <= 1000:
        count = sum(1 for v in enumerate_group([m] * cols) if not ((a @ v) % m).any())
        assert subgroup_order(k, [m] * cols, m) == count


@settings(max_examples=100, deadline=None)
@given(st.data(), small_modulus)
def test_reduce_generators_preserves_span(data, m):
    g = random_matrix(data, m, max_dim=4)
    red = reduce_generators(g, m)
    orders = [m] * g.shape[0]
    assert subgroup_order(g, orders, m) == subgroup_order(red, orders, m)
    assert red.shape[1] <= max(g.shape[0], 0)
    for j in range(red.shape[1]):
        assert helpers.in_span(red[:, j], g, orders, m)


def divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 4, 6, 8, 9, 12]), st.sampled_from(["random", "zero", "full"]))
def test_reduce_generators_matches_the_s_inverse_reference(data, m, kind):
    """One solve pass gives the columns G T_i that the reference read off
    S^-1 D: random matrices, zero matrices, and full row rank ones (a unit
    upper-triangular block among random columns)."""
    g = sparse_matrix(data, m, 12, 16)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if kind == "zero":
        g = np.zeros_like(g)
    elif kind == "full":
        rows = g.shape[0]
        units = [u for u in range(1, m) if np.gcd(u, m) == 1]
        tri = np.triu(rng.integers(0, m, size=(rows, rows)), 1) + np.diag(rng.choice(units, size=rows))
        g = np.concatenate([tri, g], axis=1)[:, rng.permutation(rows + g.shape[1])]
    got, want = reduce_generators(g, m), smith_reference.reduce_generators(g, m)
    assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)
    if kind == "full":
        assert got.shape[1] == g.shape[0]


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 4, 6, 8, 9, 12]))
def test_quotient_presentation_round_trip(data, m):
    k = data.draw(st.integers(0, 3))
    orders = [data.draw(st.sampled_from([d for d in divisors(m) if d > 1])) for _ in range(k)]
    nrel = data.draw(st.integers(0, 3))
    rel = np.array(
        [[data.draw(st.integers(0, o - 1)) for _ in range(nrel)] for o in orders], dtype=np.int64
    ).reshape(k, nrel)
    q = quotient_presentation(orders, rel, m)
    # proj is surjective with proj @ lift = id, and kills the relations
    if q.orders:
        pl = (q.proj @ q.lift) % np.array(q.orders, dtype=np.int64)[:, None]
        assert np.array_equal(pl, np.eye(len(q.orders), dtype=np.int64) % np.array(q.orders)[:, None])
        killed = linalg.reduce_coords(q.proj @ rel, q.orders)
        assert not killed.any()
    # order of quotient = |ambient| / |span of relations|
    span = subgroup_order(rel, orders, m)
    assert linalg.group_size(q.orders) * span == linalg.group_size(orders)


def _same_presentation(got, want):
    assert got.orders == want.orders
    for field in ("proj", "lift"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w), field


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 4, 5, 6, 7, 8, 9, 12]), st.sampled_from(["zero", "sparse", "dense"]))
def test_quotient_presentation_matches_the_s_inverse_reference(data, m, kind):
    """S from the right-hand side of [F | I] and S^-1 solved for are the
    reference's tracked S and S^-1: orders from the divisors of m, 1
    included, and zero, sparse or dense relations."""
    k = data.draw(st.integers(0, 8))
    orders = [data.draw(st.sampled_from(divisors(m))) for _ in range(k)]
    nrel = data.draw(st.integers(0, 10))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    density = {"zero": 0.0, "sparse": 0.15, "dense": 1.0}[kind]
    rel = np.where(rng.random((k, nrel)) < density, rng.integers(0, m, size=(k, nrel)), 0)
    rel = linalg.reduce_coords(rel.astype(np.int64), orders)
    _same_presentation(quotient_presentation(orders, rel, m),
                       smith_reference.quotient_presentation(orders, rel, m))


def test_quotient_presentation_without_relations_is_not_the_identity():
    """With no relations the elimination still permutes and combines the
    coordinates: (2, 4, 2, 4) mod 4 is presented as the reference presents it."""
    orders, rel = (2, 4, 2, 4), np.zeros((4, 0), dtype=np.int64)
    _same_presentation(quotient_presentation(orders, rel, 4),
                       smith_reference.quotient_presentation(orders, rel, 4))


def _presented_span_order(gens, orders, m):
    """|span| as |ambient| / |ambient / span|, by quotient_presentation."""
    return linalg.group_size(orders) // linalg.group_size(quotient_presentation(orders, gens, m).orders)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 5, 7, 251, 4, 6, 9, 12]))
def test_subgroup_order_and_its_split_match_the_quotient_presentation(data, m):
    prime = m in (2, 3, 5, 7, 251)
    a = sparse_matrix(data, m, *((40, 60) if prime else (12, 16)))
    rows, cols = a.shape
    if prime:
        orders = [m] * rows
    else:
        orders = [data.draw(st.sampled_from([d for d in divisors(m) if d > 1])) for _ in range(rows)]
        a = linalg.reduce_coords(a, orders)
    whole = _presented_span_order(a, orders, m)
    assert subgroup_order(a, orders, m) == whole
    for split in sorted({0, cols // 2, cols, data.draw(st.integers(0, cols))}):
        first = _presented_span_order(a[:, :split], orders, m)
        assert subgroup_order(a, orders, m, split=split) == (first, whole), split


def test_solve_hetero_mixed_orders():
    # Z/2 -> Z/4 maps: x -> a*x needs 2a = 0 mod 4, i.e. a in {0, 2}
    m = 4
    a = np.array([[2]], dtype=np.int64)  # coefficient 2 on the unknown, target Z/4
    sol = solve_hetero(a, np.array([[2]]), [4], m)
    assert sol is not None
    assert (2 * sol[0, 0]) % 4 == 2
    assert solve_hetero(a, np.array([[1]]), [4], m) is None


def test_kernel_hetero_inclusion_kernel():
    # multiplication by 2 on Z/4: kernel is {0, 2}
    m = 4
    k = kernel_hetero(np.array([[2]]), [4], m)
    assert subgroup_order(k, [4], m) == 2


def test_empty_shapes():
    m = 4
    assert smith_mod(np.zeros((0, 0)), m, None).diag.size == 0
    assert kernel_mod(np.zeros((0, 3)), m).shape == (3, 3)  # no equations: everything
    assert solve_mod(np.zeros((0, 2)), np.zeros((0,)), m) is not None
    q = quotient_presentation((), np.zeros((0, 0)), m)
    assert q.orders == ()


def test_solver_reuse():
    """Every right-hand side of a composite system is solved, one at a time
    and all at once, and the batch solves each column as a single solve does."""
    m = 6
    a = np.array([[2, 3], [0, 3]], dtype=np.int64)
    bs = np.stack([(a @ x) % m for x in enumerate_group([6, 6])], axis=1)
    for j in range(bs.shape[1]):
        got = solve_hetero(a, bs[:, j:j + 1], [m, m], m)
        assert got is not None
        assert np.array_equal((a @ got[:, 0]) % m, bs[:, j])
        assert np.array_equal(got, smith_reference.solve_hetero(a, bs[:, j:j + 1], [m, m], m))
    batch = solve_hetero(a, bs, [m, m], m)
    assert np.array_equal((a @ batch) % m, bs)
    assert np.array_equal(batch, np.concatenate(
        [solve_hetero(a, bs[:, j:j + 1], [m, m], m) for j in range(bs.shape[1])], axis=1))


PRIMES = (2, 3, 5, 7, 251)
COMPOSITES = (4, 6, 12)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(PRIMES + COMPOSITES))
def test_solve_and_kernel_match_the_s_based_reference(data, m):
    """Empty, one-row, unsolvable and mixed-order systems included."""
    prime = m in PRIMES
    a = sparse_matrix(data, m, *((40, 60) if prime else (12, 16)))
    rows, cols = a.shape
    if prime:
        orders = [m] * rows
    else:
        orders = [data.draw(st.sampled_from([d for d in divisors(m) if d > 1])) for _ in range(rows)]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    nb = data.draw(st.integers(0, 3))
    if data.draw(st.booleans()):
        b = a @ rng.integers(0, m, size=(cols, nb))          # solvable
    else:
        b = rng.integers(0, m, size=(rows, nb))               # mostly not, past the rank
    b = linalg.reduce_coords(b, orders)
    got = solve_hetero(a, b, orders, m)
    want = smith_reference.solve_hetero(a, b, orders, m)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.dtype == want.dtype and np.array_equal(got, want)
    got = kernel_hetero(a, orders, m)
    want = smith_reference.kernel_hetero(a, orders, m)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_solve_and_kernel_of_a_tall_system_form_no_square_matrix():
    """A dense r x r S of a 6 000-row system would take 288 MB."""
    import tracemalloc

    rng = np.random.default_rng(0)
    a = (rng.random((6000, 4)) < 0.5).astype(np.int64)
    b = a @ np.array([[1], [0], [1], [1]]) % 2
    tracemalloc.start()
    try:
        x = solve_hetero(a, b, [2] * 6000, 2)
        k = kernel_hetero(a, [2] * 6000, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x is not None and np.array_equal((a @ x) % 2, b)
    assert not ((a @ k) % 2).any()
    assert peak < 20 * 2**20, peak
