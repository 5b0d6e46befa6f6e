import random

import exact_oracle
import pytest
from forms_oracle import random_basis_change
from hypothesis import given, settings
from hypothesis import strategies as st

from zlat.classify import BLOCK_RANK, CATALOG, block_multisets
from zlat.exact import (
    determinant,
    hermite_normal_form,
    hermite_normal_form_mod,
    identity,
    inertia,
    integer_kernel,
    mat_mul,
    rank,
    saturate,
    smith_normal_form,
    transpose,
)
from zlat.lattice import parse_lattice_expr

A2 = [[-2, 1], [1, -2]]
U = [[0, 1], [1, 0]]
E6 = [
    [-2, 1, 0, 0, 0, 0],
    [1, -2, 1, 0, 0, 0],
    [0, 1, -2, 1, 0, 1],
    [0, 0, 1, -2, 1, 0],
    [0, 0, 0, 1, -2, 0],
    [0, 0, 1, 0, 0, -2],
]


def snf_uvd(m):
    """(U, D, V) with U*M*V = D: `smith_normal_form` with V = transpose(V^T)."""
    u, d, vt = smith_normal_form(m)
    return u, d, transpose(vt)


def snf_diag(m):
    _, d, _ = smith_normal_form(m)
    n = min(len(d), len(d[0]) if d else 0)
    return [d[i][i] for i in range(n)]


def test_snf_already_diagonal():
    assert snf_diag([[2, 0], [0, 2]]) == [2, 2]


def test_snf_a2():
    # hand row/column elimination: [[-2,1],[1,-2]] -> diag(1,3)
    assert snf_diag(A2) == [1, 3]


def test_snf_u_unimodular():
    assert snf_diag(U) == [1, 1]


def test_snf_transform_identity():
    u, d, v = snf_uvd(A2)
    assert mat_mul(mat_mul(u, A2), v) == d
    assert determinant(u) in (1, -1)
    assert determinant(v) in (1, -1)


def test_hnf_identity():
    assert hermite_normal_form(identity(3)) == identity(3)


def test_hnf_hand_reduction():
    # swap rows, clear below, reduce above: [[2,0],[1,1]] -> [[1,1],[0,2]]
    assert hermite_normal_form([[2, 0], [1, 1]]) == [[1, 1], [0, 2]]


def test_hnf_zero_matrix():
    assert hermite_normal_form([[0, 0], [0, 0]]) == []


def test_kernel_column_vector():
    ker = integer_kernel([[1], [1]])
    assert len(ker) == 1
    assert ker[0] in ([1, -1], [-1, 1])


def test_kernel_of_u_times_e1():
    # (x, y) . (0, 1)^T = 0 forces y = 0
    m = mat_mul(U, [[1], [0]])
    assert m == [[0], [1]]
    assert integer_kernel(m) == [[1, 0]]


def test_kernel_invertible_empty():
    assert integer_kernel(A2) == []


def test_saturate_scaled_rows():
    assert saturate([[2, 0]]) == [[1, 0]]
    assert saturate([[2, 2]]) == [[1, 1]]
    assert saturate([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]


def test_saturate_full_rank_is_the_whole_lattice():
    assert saturate([[2]]) == [[1]]
    assert saturate([[1, 1], [1, -1]]) == [[1, 0], [0, 1]]
    assert saturate([[3, 1, 0], [0, 2, 0], [5, 5, 7]]) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_saturate_rank_deficient():
    try:
        saturate([[1, 1], [2, 2]])
    except ValueError as e:
        assert "rank deficient" in str(e)
    else:
        raise AssertionError("expected error")


def test_inertia_u():
    assert inertia(U) == (1, 0, 1)


def test_inertia_e6_negative_definite():
    assert inertia(E6) == (0, 0, 6)


def test_inertia_diagonal():
    g = [[2, 0, 0, 0], [0, -6, 0, 0], [0, 0, -6, 0], [0, 0, 0, -6]]
    assert inertia(g) == (1, 0, 3)


def rand_matrix(rng, rows, cols, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_snf_random_sweep():
    # spec invariant: U*M*V = D, det(U), det(V) = +-1, divisibility chain,
    # on at least 200 random small matrices
    rng = random.Random(12345)
    for _ in range(220):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = rand_matrix(rng, rows, cols)
        u, d, v = snf_uvd(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert determinant(u) in (1, -1)
        assert determinant(v) in (1, -1)
        diag = [d[i][i] for i in range(min(rows, cols))]
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0


def _kernel_cases():
    """Random matrices of shape 1-10 x 1-10 with entries -5..5, every third
    one a product through a narrower middle (rank below both sides), and the
    zero matrices."""
    rng = random.Random(99)
    for i in range(240):
        rows, cols = rng.randint(1, 10), rng.randint(1, 10)
        if i % 3:
            yield rand_matrix(rng, rows, cols, bound=5)
        else:
            inner = rng.randint(0, max(0, min(rows, cols) - 1))
            yield mat_mul(rand_matrix(rng, rows, inner, 2), rand_matrix(rng, inner, cols, 2)) if inner \
                else [[0] * cols for _ in range(rows)]
    yield from ([[0] * cols for _ in range(rows)] for rows in (1, 3, 10) for cols in (1, 4, 10))


def test_kernel_rows_annihilate_and_saturated():
    for m in _kernel_cases():
        rows = len(m)
        ker = integer_kernel(m)
        assert ker == exact_oracle.integer_kernel(m)
        for row in ker:
            prod = mat_mul([row], m)
            assert all(x == 0 for x in prod[0])
        if ker:
            assert saturate(ker) == hermite_normal_form(ker)
        assert len(ker) == rows - rank(m)


@given(
    st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    ),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=150, deadline=None)
def test_inertia_scale_and_negate(m, scale):
    g = [[m[i][j] + m[j][i] for j in range(3)] for i in range(3)]
    np_, nz, nm = inertia(g)
    assert np_ + nz + nm == 3
    scaled = [[scale * x for x in row] for row in g]
    assert inertia(scaled) == (np_, nz, nm)
    neg = [[-x for x in row] for row in g]
    assert inertia(neg) == (nm, nz, np_)


def test_determinant_matches_snf():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n)
        diag = snf_diag(m)
        prod = 1
        for x in diag:
            prod *= x
        assert abs(determinant(m)) == prod
        assert determinant(transpose(m)) == determinant(m)


# symmetric elimination against the characteristic-polynomial oracle ----------

@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices of size <= 12: plain entries (often
    singular), all-zero diagonals, or B^T D B with zero and negative D."""
    n = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(("entries", "zero-diagonal", "congruence")))
    cells = st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n)
    if kind == "congruence":
        b = draw(cells)
        d = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        return [[sum(b[k * n + i] * d[k] * b[k * n + j] for k in range(n)) for j in range(n)]
                for i in range(n)]
    m = draw(cells)
    return [[0 if kind == "zero-diagonal" and i == j else m[min(i, j) * n + max(i, j)]
             for j in range(n)] for i in range(n)]


@given(symmetric_matrices())
@settings(max_examples=300, deadline=None)
def test_inertia_matches_char_poly_oracle(g):
    assert inertia(g) == exact_oracle.inertia(g)


@st.composite
def sparse_symmetric_matrices(draw):
    """Symmetric integer matrices of size <= 28 with entries in [-3, 3], each
    pair (i, j) nonzero with probability 0.05-0.5, the diagonal sometimes all zero."""
    n = draw(st.integers(0, 28))
    density = draw(st.floats(0.05, 0.5))
    zero_diagonal = draw(st.booleans())
    rng = draw(st.randoms(use_true_random=False))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + zero_diagonal, n):
            if rng.random() < density:
                a[i][j] = a[j][i] = rng.choice((-3, -2, -1, 1, 2, 3))
    return a


@st.composite
def dense_congruent_matrices(draw):
    """B^T D B of size 6-22 with B in [-3, 3] and D in [-4, 4] (zeros allowed): dense remainders."""
    n = draw(st.integers(6, 22))
    rng = draw(st.randoms(use_true_random=False))
    b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    d = [rng.randint(-4, 4) for _ in range(n)]
    return [[sum(b[k][i] * d[k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


@given(st.one_of(sparse_symmetric_matrices(), dense_congruent_matrices()))
@settings(max_examples=150, deadline=None)
def test_inertia_matches_dense_elimination_and_char_poly(g):
    assert inertia(g) == exact_oracle.dense_inertia(g) == exact_oracle.inertia(g)


def test_inertia_negative_pivot_keeps_remainder_sign():
    assert inertia([[-2, 1], [1, 1]]) == (1, 0, 1)
    assert inertia([[0, 0], [0, 0]]) == (0, 2, 0)
    assert inertia([[0, 3, 0], [3, 0, 0], [0, 0, 0]]) == (1, 1, 1)


def test_inertia_rejects_non_symmetric():
    with pytest.raises(ValueError):
        inertia([[0, 1], [2, 0]])


def test_inertia_of_large_catalog_sums_under_basis_change():
    rng = random.Random(22)
    for expr, sig in (("3U+2E8", (3, 0, 19)), ("U(3)+E8(-1)+2E8+A1+<6>", (10, 0, 18)),
                      ("2U+U(2)+4D4+A2(2)+A1+2<-6>+<6>", (4, 0, 24))):
        l = random_basis_change(parse_lattice_expr(expr), rng, 3 * len(expr))
        g = l.gram_rows()
        assert inertia(g) == exact_oracle.inertia(g) == sig


# whole-row Smith form against the closure version ---------------------------

@st.composite
def integer_matrices(draw):
    """Integer matrices of up to 6 x 6: plain entries, products B*C through a
    smaller inner dimension (rank deficient), all zero, or with no rows."""
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(("entries", "low-rank", "zero")))
    if kind == "low-rank" and rows and cols:
        k = draw(st.integers(0, min(rows, cols) - 1))
        b = [draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k)) for _ in range(rows)]
        c = [draw(st.lists(st.integers(-4, 4), min_size=cols, max_size=cols)) for _ in range(k)]
        return [[sum(b[i][t] * c[t][j] for t in range(k)) for j in range(cols)] for i in range(rows)]
    cell = st.just(0) if kind == "zero" else st.integers(-30, 30)
    return [draw(st.lists(cell, min_size=cols, max_size=cols)) for _ in range(rows)]


@given(integer_matrices())
@settings(max_examples=400, deadline=None)
def test_snf_matches_closure_oracle(m):
    assert snf_uvd(m) == exact_oracle.smith_normal_form(m)


def test_snf_matches_closure_oracle_on_grams():
    rng = random.Random(31)
    for expr in ("U(6)+A2(2)+2<-6>", "2U+U(3)+2A2+6A2+E6", "U(2)+4D4+A1+<6>"):
        g = random_basis_change(parse_lattice_expr(expr), rng, 2 * len(expr)).gram_rows()
        assert snf_uvd(g) == exact_oracle.smith_normal_form(g)
    assert snf_uvd([]) == exact_oracle.smith_normal_form([]) == ([], [], [])
    assert snf_uvd([[], []]) == exact_oracle.smith_normal_form([[], []])


# one-transform Smith form against the closure oracle ------------------------

@st.composite
def matrices_with_zero_rows(draw):
    """`integer_matrices` with a drawn subset of rows set to zero."""
    m = draw(integer_matrices())
    zero = draw(st.sets(st.integers(0, max(len(m) - 1, 0)), max_size=len(m)))
    return [[0] * len(row) if i in zero else row for i, row in enumerate(m)]


def _assert_one_transform_matches(m):
    u, d, v = exact_oracle.smith_normal_form(m)
    assert smith_normal_form(m, with_u=False) == (None, d, transpose(v))
    assert smith_normal_form(m, with_v=False) == (u, d, None)


@given(st.one_of(integer_matrices(), matrices_with_zero_rows()))
@settings(max_examples=300, deadline=None)
def test_one_transform_snf_matches_full(m):
    _assert_one_transform_matches(m)


def test_one_transform_snf_matches_full_on_catalog_sums():
    # every 97th of the 15646 nonempty sums, and all of rank <= 3
    sums = [blocks for i, blocks in enumerate(block_multisets(CATALOG, 10)[1:])
            if i % 97 == 0 or sum(BLOCK_RANK[b] for b in blocks) <= 3]
    grams = [parse_lattice_expr("+".join(blocks)).gram_rows() for blocks in sums]
    assert {len(g) for g in grams} == set(range(1, 11))
    for g in grams:
        _assert_one_transform_matches(g)


# Hermite form modulo den against the HNF of den*I stacked on the rows ---------

@st.composite
def rows_over_den(draw):
    """0-4 rows of width n <= 12 with den in 1..12: entries of either sign,
    entries >= den, sparse rows and zero rows."""
    n = draw(st.integers(0, 12))
    den = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("entries", "sparse", "zero")))
        cell = {"entries": st.integers(-3 * den, 3 * den),
                "sparse": st.sampled_from((0, 0, 0, 1, -1, den, den + 1, -den - 2)),
                "zero": st.just(0)}[kind]
        rows.append(draw(st.lists(cell, min_size=n, max_size=n)))
    return rows, den, n


@given(rows_over_den())
@settings(max_examples=400, deadline=None)
def test_hnf_mod_matches_hnf_of_stacked_rows(case):
    rows, den, n = case
    stacked = [[den if i == j else 0 for j in range(n)] for i in range(n)] + rows
    assert hermite_normal_form_mod(rows, den, n) == hermite_normal_form(stacked)
