import ast
from fractions import Fraction
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from catext import exactlin
from catext.exactlin import Echelon, FieldSpec, Matrix, kernel_basis, rank, rref, solve_matrix
from catext.fdalgebra import AlgModule, FDAlgebra

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
QQ = FieldSpec.rationals()

FIELDS = [F2, F3, F5, QQ]


def coerce(k: FieldSpec, x):
    """The scalar x as an element of k: a residue in [0, p) or a Fraction."""
    if k.is_prime_field:
        return int(x) % k.characteristic
    return x if isinstance(x, Fraction) else Fraction(x)


def test_field_spec_invariants():
    assert F2.characteristic == 2
    assert QQ.characteristic == 0
    with pytest.raises(ValueError):
        FieldSpec.prime(4)
    with pytest.raises(ValueError):
        FieldSpec.prime(1)
    with pytest.raises(ValueError):
        FieldSpec("rationals", 3)


def test_scalar_ops():
    assert F3.inv(2) == 2
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert coerce(F5, -1) == 4
    assert coerce(QQ, 2) == Fraction(2)
    with pytest.raises(ZeroDivisionError):
        F2.inv(0)


def test_rref_identity_f2():
    m = Matrix(F2, F2.eye(2))
    r, piv = rref(m)
    assert F2.equal(r, m.a)
    assert piv == [0, 1]


def test_rref_rank_one_f2():
    r, piv = rref(Matrix(F2, F2.array([[1, 1], [1, 1]])))
    assert r.tolist() == [[1, 1], [0, 0]]
    assert piv == [0]


def test_rref_empty():
    m = Matrix(F3, F3.zeros(0, 4))
    r, piv = rref(m)
    assert r.shape == (0, 4)
    assert piv == []


def test_kernel_identity_empty():
    assert len(kernel_basis(Matrix(F5, F5.eye(3)))) == 0


def test_kernel_zero_matrix_full():
    k = kernel_basis(Matrix(F3, F3.zeros(2, 2)))
    assert len(k) == 2


def test_kernel_row_f2():
    k = kernel_basis(Matrix(F2, F2.array([[1, 1]])))
    assert k.tolist() == [[1, 1]]


def _column(field, entries) -> Matrix:
    return Matrix(field, field.array(entries).reshape(-1, 1))


def test_solve_identity():
    x = solve_matrix(Matrix(F3, F3.eye(3)), _column(F3, [1, 2, 0]))
    assert x[:, 0].tolist() == [1, 2, 0]


def test_solve_inconsistent():
    assert solve_matrix(Matrix(F2, F2.zeros(2, 2)), _column(F2, [1, 0])) is None


def test_solve_back_substitution():
    x = solve_matrix(Matrix(F2, F2.array([[1, 1], [0, 1]])), _column(F2, [0, 1]))
    assert x[:, 0].tolist() == [1, 1]


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_matrix(Matrix(F2, F2.eye(2)), _column(F2, [1, 0, 0]))


def _random_matrix(field, rows, cols, entries):
    return Matrix(field, field.array(np.array(entries).reshape(rows, cols)))


@st.composite
def matrices(draw, fields=FIELDS):
    field = draw(st.sampled_from(fields))
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 5))
    entries = draw(st.lists(st.integers(-6, 6), min_size=rows * cols,
                            max_size=rows * cols))
    return _random_matrix(field, rows, cols, entries)


@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@given(matrices())
def test_rref_idempotent(m):
    r1, p1 = rref(m)
    r2, p2 = rref(Matrix(m.field, r1))
    assert m.field.equal(r1, r2) and p1 == p2


@given(matrices())
def test_kernel_vectors_annihilate(m):
    k = kernel_basis(m)
    for i in range(len(k)):
        prod = m.field.matmul(m.a, k[i])
        assert m.field.is_zero(prod)


@given(matrices(), st.lists(st.integers(-6, 6), min_size=5, max_size=5))
def test_solve_exact_on_consistent_systems(m, xs):
    x = m.field.array(xs[:m.cols])
    b = m.field.matmul(m.a, x)
    got = solve_matrix(m, Matrix(m.field, b.reshape(-1, 1)))
    assert got is not None
    assert m.field.equal(m.field.matmul(m.a, got[:, 0]), b)


def test_solve_matrix_consistency():
    a = Matrix(F3, F3.array([[1, 2], [0, 1]]))
    b = Matrix(F3, F3.array([[1, 0], [2, 2]]))
    x = solve_matrix(a, b)
    assert F3.equal(F3.matmul(a.a, x), b.a)


def test_echelon_membership():
    e = Echelon(F2, 3)
    assert e.add([1, 1, 0])
    assert not e.add([1, 1, 0])
    assert e.add([0, 0, 1])
    assert e.contains([1, 1, 1])
    assert not e.contains([1, 0, 0])
    assert e.rank == 2
    assert len(e.basis_matrix()) == 2


def test_vector_enumeration_guard():
    assert len(F2.vectors(3)) == 8
    with pytest.raises(ValueError):
        QQ.vectors(1)
    with pytest.raises(ValueError):
        F5.vectors(20)


@given(st.sampled_from(FIELDS), st.integers(1, 5),
       st.lists(st.lists(st.integers(-6, 6), min_size=5, max_size=5), max_size=8))
def test_echelon_matches_rref_rank(field, dim, rows):
    rows = [r[:dim] for r in rows]
    e = Echelon(field, dim)
    for r in rows:
        before = e.contains(r)
        added = e.add(r)
        assert added != before  # enlarges the span iff not already inside
        assert e.contains(r)
    expected = rank(Matrix(field, field.array(rows))) if rows else 0
    assert e.rank == expected
    basis = e.basis_matrix()
    assert len(basis) == expected
    for i in range(len(basis)):
        assert e.contains(basis[i])


# -- differential tests against a pure-Python int oracle, entries in [0, p) ------
#
# At p = 2^31 - 1 a single product comes close to 2^62, so a sum of three
# unreduced int64 products can overflow; 65521, the largest prime below 2^16,
# is above the old object-path bound 2^15 but inside the one-product bound.

WORD_FIELDS = [FieldSpec.prime(2**31 - 1), FieldSpec.prime(65521), F3]


def _py_matmul(a, b, cols, p):
    return [[sum(row[t] * b[t][j] for t in range(len(b))) % p for j in range(cols)]
            for row in a]


def _py_rank(rows, p):
    rows = [[v % p for v in r] for r in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(v - f * w) % p for v, w in zip(rows[i], rows[r])]
        r += 1
    return r


def _residues(rnd, p, rows, cols):
    """rows x cols residues from the whole range [0, p), half of them from its
    top quarter, where sums of products leave int64 first."""
    top = p - 1 - p // 4
    return [[rnd.randrange(top if rnd.random() < 0.5 else 0, p) for _ in range(cols)]
            for _ in range(rows)]


def _entries(draw, p, rows, cols):
    """`_residues` from a drawn seed: hypothesis draws only the seed, which
    keeps large matrices cheap to generate."""
    return _residues(Random(draw(st.integers(0, 2**32 - 1))), p, rows, cols)


@st.composite
def word_products(draw, p):
    n, m, l = (draw(st.integers(0, 6)) for _ in range(3))
    return _entries(draw, p, n, m), _entries(draw, p, m, l), l


@st.composite
def word_systems(draw, p):
    """A matrix of rank at most r with more than r rows, as a product of
    random factors, and one more vector."""
    r = draw(st.integers(2, 6))
    rows, cols = r + draw(st.integers(1, 3)), draw(st.integers(r, 8))
    left, right = _entries(draw, p, rows, r), _entries(draw, p, r, cols)
    return _py_matmul(left, right, cols, p), _entries(draw, p, 1, cols)[0]


word_fields = pytest.mark.parametrize("field", WORD_FIELDS, ids=lambda k: f"F{k.p}")


@word_fields
@given(data=st.data())
def test_matmul_matches_int_oracle(field, data):
    a, b, l = data.draw(word_products(field.p))
    an = np.array(a, dtype=np.int64).reshape(len(a), len(b))
    bn = np.array(b, dtype=np.int64).reshape(len(b), l)
    assert field.matmul(an, bn).tolist() == _py_matmul(a, b, l, field.p)
    if a:
        assert field.matmul(an[0], bn).tolist() == _py_matmul(a[:1], b, l, field.p)[0]
    # stacks of two products: the second factors are p - 1 - a and b upside down
    p = field.p
    a2, b2 = [[p - 1 - v for v in row] for row in a], b[::-1]
    stack_a = np.stack([an, np.array(a2, dtype=np.int64).reshape(an.shape)])
    stack_b = np.stack([bn, np.array(b2, dtype=np.int64).reshape(bn.shape)])
    assert field.matmul(stack_a, stack_b).tolist() \
        == [_py_matmul(a, b, l, p), _py_matmul(a2, b2, l, p)]
    assert field.matmul(stack_a, bn).tolist() \
        == [_py_matmul(a, b, l, p), _py_matmul(a2, b, l, p)]


@given(data=st.data())
def test_stacked_matmul_over_rationals(data):
    s, n, m, l = (data.draw(st.integers(0, 4)) for _ in range(4))
    entry = st.fractions(min_value=-9, max_value=9, max_denominator=9)
    a = [[[data.draw(entry) for _ in range(m)] for _ in range(n)] for _ in range(s)]
    b = [[[data.draw(entry) for _ in range(l)] for _ in range(m)] for _ in range(s)]
    want = [[[sum((x[i][t] * y[t][j] for t in range(m)), Fraction(0)) for j in range(l)]
             for i in range(n)] for x, y in zip(a, b)]
    got = QQ.matmul(QQ.array(a).reshape(s, n, m), QQ.array(b).reshape(s, m, l))
    assert got.shape == (s, n, l) and got.tolist() == want


def test_matmul_takes_more_than_2_16_stacked_products():
    """The split product slices the inner axis of a stacked right factor,
    not its stack axis."""
    p = 2**31 - 1
    k = FieldSpec.prime(p)
    rng = np.random.default_rng(7)
    a = rng.integers(0, p, size=(70_000, 2, 3), dtype=np.int64)
    b = rng.integers(0, p, size=(70_000, 3, 2), dtype=np.int64)
    want = (a.astype(object) @ b.astype(object)) % p
    assert k.matmul(a, b).tolist() == want.tolist()


def test_matmul_chunks_the_inner_dimension():
    p = 2**31 - 1
    k = FieldSpec.prime(p)
    n = (1 << 16) + 5  # more than one chunk of the split product
    a = np.full((2, n), p - 1, dtype=np.int64)
    a[1, ::3] = 1 << 30
    b = np.full((n, 1), p - 2, dtype=np.int64)
    want = [sum(int(x) for x in row) * (p - 2) % p for row in a]
    assert k.matmul(a, b)[:, 0].tolist() == want
    assert k.matmul(a[1], b[:, 0]).tolist() == want[1]


@word_fields
@given(data=st.data())
def test_rank_and_kernel_match_int_oracle(field, data):
    rows, _ = data.draw(word_systems(field.p))
    p, cols = field.p, len(rows[0])
    m = Matrix(field, field.array(rows))
    r = _py_rank(rows, p)
    assert rank(m) == r
    ker = kernel_basis(m).tolist()
    assert len(ker) == cols - r
    assert _py_rank(ker, p) == len(ker)
    kernel_columns = [list(c) for c in zip(*ker)]
    assert all(v == 0 for row in _py_matmul(rows, kernel_columns, len(ker), p) for v in row)


@word_fields
@given(data=st.data())
def test_echelon_matches_int_oracle(field, data):
    rows, probe = data.draw(word_systems(field.p))
    p = field.p
    e = Echelon(field, len(probe))
    for i, row in enumerate(rows):
        assert e.contains(row) == (_py_rank(rows[:i + 1], p) == _py_rank(rows[:i], p))
        e.add(row)
        assert e.rank == _py_rank(rows[:i + 1], p)
    assert e.contains(probe) == (_py_rank(rows + [probe], p) == _py_rank(rows, p))


@st.composite
def word_algebras(draw, p):
    """Random structure constants (not necessarily associative), two algebra
    elements and right action matrices of a random module dimension."""
    d, n = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    structure = [_entries(draw, p, d, d) for _ in range(d)]
    a, b = _entries(draw, p, 2, d)
    actions = [_entries(draw, p, n, n) for _ in range(d)]
    return structure, a, b, actions


def _algebra(field, structure):
    d = len(structure)
    c = np.array(structure, dtype=np.int64)
    return FDAlgebra(field, d, (*np.nonzero(c), c[np.nonzero(c)]), field.zeros(d))


@word_fields
@given(data=st.data())
def test_algebra_products_match_int_oracle(field, data):
    c, a, b, _ = data.draw(word_algebras(field.p))
    p, d = field.p, len(c)
    alg = _algebra(field, c)
    av, bv = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)

    def py_mul(x, y):
        return [sum(x[i] * y[j] * c[i][j][l] for i in range(d) for j in range(d)) % p
                for l in range(d)]
    assert alg.mul(av, bv).tolist() == py_mul(a, b)
    basis = [[int(i == j) for j in range(d)] for i in range(d)]
    assert alg.right_mult_matrix(bv).T.tolist() == [py_mul(e, b) for e in basis]
    assert alg.left_mult_matrix(av).T.tolist() == [py_mul(a, e) for e in basis]


@word_fields
@given(data=st.data())
def test_stacked_algebra_products_match_int_oracle(field, data):
    """Row t of the product of two stacks is the product of their rows t."""
    c, _, _, _ = data.draw(word_algebras(field.p))
    p, d, rows = field.p, len(c), data.draw(st.integers(0, 4))
    a, b = _entries(data.draw, p, rows, d), _entries(data.draw, p, rows, d)
    alg = _algebra(field, c)
    an, bn = (np.array(x, dtype=np.int64).reshape(rows, d) for x in (a, b))
    want = [[sum(x[i] * y[j] * c[i][j][l] for i in range(d) for j in range(d)) % p
             for l in range(d)] for x, y in zip(a, b)]
    assert alg.mul(an, bn).tolist() == want
    assert [alg.mul(x, y).tolist() for x, y in zip(an, bn)] == want


@pytest.mark.parametrize("d", [0, 3])
@pytest.mark.parametrize("field", [F3, FieldSpec.rationals()], ids=["F3", "Q"])
def test_products_without_constants_are_zero(field, d):
    alg = FDAlgebra(field, d, ([], [], [], []), field.zeros(d))
    stack = field.array([[1] * d] * 2).reshape(2, d)
    assert field.equal(alg.mul(stack, stack), field.zeros(2, d))
    assert field.equal(alg.mul(stack[0], stack[1]), field.zeros(d))
    assert field.equal(alg.mul(stack[:0], stack[:0]), field.zeros(0, d))


@word_fields
@given(data=st.data())
def test_module_right_of_matches_int_oracle(field, data):
    c, a, _, actions = data.draw(word_algebras(field.p))
    p, n = field.p, len(actions[0])
    mod = AlgModule(_algebra(field, c), n, "right",
                    right_action=[np.array(m, dtype=np.int64).reshape(n, n) for m in actions])
    want = [[sum(a[i] * m[r][s] for i, m in enumerate(actions)) % p for s in range(n)]
            for r in range(n)]
    assert mod.right_of(np.array(a, dtype=np.int64)).tolist() == want


# -- the sparse product --------------------------------------------------------------

def _py_sparse_matmul(rows, cols, vals, n, x, w, zero=0):
    out = [[zero] * w for _ in range(n)]
    for r, c, v in zip(rows, cols, vals):
        out[r] = [o + v * y for o, y in zip(out[r], x[c])]
    return out


@pytest.mark.parametrize("p", [2, 3, 65521, 2**31 - 1])
@pytest.mark.parametrize("n,inner,w,terms", [(1, 1, 1, 1), (4, 7, 3, 3000), (9, 5, 1, 500),
                                             (3, 4, 0, 20), (3, 4, 2, 0)])
def test_sparse_matmul_matches_int_oracle(p, n, inner, w, terms):
    """Entries repeat at the same place, and most of them come from the top
    quarter of [0, p): unreduced, a row of them leaves int64 at p = 2^31 - 1."""
    k = FieldSpec.prime(p)
    rnd = Random(p + n * inner * w + terms)
    rows = [rnd.randrange(n) for _ in range(terms)]
    cols = [rnd.randrange(inner) for _ in range(terms)]
    vals = _residues(rnd, p, 1, terms)[0]
    x = _residues(rnd, p, inner, w)
    want = [[v % p for v in row] for row in _py_sparse_matmul(rows, cols, vals, n, x, w)]
    args = [np.array(a, dtype=np.int64) for a in (rows, cols, vals)]
    xn = np.array(x, dtype=np.int64).reshape(inner, w)
    assert k.sparse_matmul(*args, n, xn).tolist() == want
    # a right factor in (-p, 0]
    assert k.sparse_matmul(*args, n, -xn).tolist() == [[-v % p for v in row] for row in want]


def test_sparse_matmul_sums_many_terms_per_row():
    """2^16 + 5 terms of (p - 1)^2 into one row and 1000 into another: each
    reduced term is below 2^31, so the sums stay exact in int64."""
    p = 2**31 - 1
    k = FieldSpec.prime(p)
    t = (1 << 16) + 5
    rows = np.array([0] * t + [2] * 1000, dtype=np.int64)
    cols = np.arange(len(rows), dtype=np.int64) % 3
    vals = np.full(len(rows), p - 1, dtype=np.int64)
    x = np.array([[p - 1, 1 << 30], [p - 2, p - 1], [1, p - 3]], dtype=np.int64)
    want = [[v % p for v in row]
            for row in _py_sparse_matmul(rows.tolist(), cols.tolist(), vals.tolist(), 3,
                                         x.tolist(), 2)]
    assert k.sparse_matmul(rows, cols, vals, 3, x).tolist() == want


@given(data=st.data())
def test_sparse_matmul_over_rationals(data):
    n, inner, w, terms = (data.draw(st.integers(0, 4)) for _ in range(4))
    terms = terms if n and inner else 0
    entry = st.fractions(min_value=-9, max_value=9, max_denominator=9)
    rows = [data.draw(st.integers(0, n - 1)) for _ in range(terms)]
    cols = [data.draw(st.integers(0, inner - 1)) for _ in range(terms)]
    vals = [data.draw(entry) for _ in range(terms)]
    x = [[data.draw(entry) for _ in range(w)] for _ in range(inner)]
    got = QQ.sparse_matmul(np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
                           QQ.array(vals), n, QQ.array(x).reshape(inner, w))
    assert got.shape == (n, w)
    assert got.tolist() == _py_sparse_matmul(rows, cols, vals, n, x, w, Fraction(0))


# -- the float64 branch of FieldSpec.matmul -----------------------------------------
#
# A product whose left factor has at least 16 rows and which makes at least 2^16
# multiply-adds runs in float64 while inner (p - 1)^2 < 2^53.  At p = 2^31 - 1
# that never holds; at 65521 it holds up to inner dimension about 2^21.

BLAS_PRIMES = [2, 3, 65521, 2**31 - 1]


@pytest.mark.parametrize("p", BLAS_PRIMES)
@pytest.mark.parametrize("n,m,l", [(16, 64, 64), (40, 70, 33), (100, 24, 90)])
def test_matmul_above_the_size_gate_matches_int_oracle(p, n, m, l):
    assert n >= 16 and n * m * l >= 1 << 16
    k = FieldSpec.prime(p)
    rnd = Random(n * m * l + p)
    a, b = _residues(rnd, p, n, m), _residues(rnd, p, m, l)
    an, bn = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    want = _py_matmul(a, b, l, p)
    assert k.matmul(an, bn).tolist() == want
    # a left factor in (-p, 0]: the branch reduces negative sums as well
    assert k.matmul(-an, bn).tolist() == [[-v % p for v in row] for row in want]


@pytest.mark.parametrize("p", BLAS_PRIMES)
def test_stacked_matmul_above_the_size_gate_matches_int_oracle(p):
    k = FieldSpec.prime(p)
    rnd = Random(p)
    a = [_residues(rnd, p, 32, 48) for _ in range(3)]
    b = [_residues(rnd, p, 48, 50) for _ in range(3)]
    sa, sb = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    assert k.matmul(sa, sb).tolist() == [_py_matmul(x, y, 50, p) for x, y in zip(a, b)]
    assert k.matmul(sa, sb[0]).tolist() == [_py_matmul(x, b[0], 50, p) for x in a]


@pytest.mark.parametrize("p", [2, 3, 65521, 1048573])
def test_float_branch_reduces_signed_products_to_int64_residues(p):
    """Past the size gate and below the exactness bound, with left entries
    anywhere in (-p, p): the product is int64, every entry is a residue in
    [0, p), and it equals the Python-int product reduced mod p."""
    n, m, l = 40, 48, 72
    assert n >= exactlin._BLAS_ROWS and n * m * l >= exactlin._BLAS_WORK
    assert m * (p - 1) ** 2 < 1 << 53 and exactlin._is_prime(p)
    k = FieldSpec.prime(p)
    rnd = Random(p)
    a = [[rnd.randrange(-p + 1, p) for _ in range(m)] for _ in range(n)]
    a[0] = [-(p - 1)] * m  # the most negative row sum
    b = _residues(rnd, p, m, l)
    got = k.matmul(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
    assert got.dtype == np.int64 and got.shape == (n, l)
    assert ((0 <= got) & (got < p)).all()
    assert got.tolist() == _py_matmul(a, b, l, p)


def test_float_branch_stops_at_the_exactness_bound():
    """Just below 2^26, 2 (p - 1)^2 < 2^53 <= 3 (p - 1)^2: inner dimension 2
    takes the float branch and 3 does not.  Three odd products near 2^52 sum
    to an odd number above 2^53, which float64 cannot hold."""
    p = 2**26 - 5
    k = FieldSpec.prime(p)
    assert 2 * (p - 1) ** 2 < 1 << 53 <= 3 * (p - 1) ** 2
    for inner in (2, 3):
        a = np.full((256, inner), p - 1, dtype=np.int64)
        b = np.full((inner, 128), p - 1, dtype=np.int64)
        a[1::2] = p - 2
        b[:, 1::2] = p - 2
        want = _py_matmul(a.tolist(), b.tolist(), 128, p)
        assert k.matmul(a, b).tolist() == want
        assert k.matmul(a[None], b[None]).tolist() == [want]


# -- the row-blocked elimination against the pivot loop ------------------------------

def _reference_eliminate(field, m):
    """The one-pivot-at-a-time loop that reduced every matrix before the
    blocked driver: in place, returns the pivot columns."""
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if len(nz) == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = field.reduce(m[r] * field.inv(m[r, c]))
        col = np.array(m[:, c], copy=True)
        col[r] = field.zero
        nzr = np.nonzero(col)[0]
        if len(nzr):
            m[nzr] = field.reduce(m[nzr] - np.outer(col[nzr], m[r]))
        pivots.append(c)
        r += 1
    return pivots


def _reference_rref(m):
    work = np.array(m.a, copy=True)
    return work, _reference_eliminate(m.field, work)


class ReferenceEchelon:
    """The one-vector insertion `Echelon.add` made before every insertion
    went through `extend`: reduce v against the basis, scale it to 1 at its
    first non-zero entry, clear that column in the old rows and append it."""

    def __init__(self, field, dim):
        self.field, self.mat, self.pivots = field, field.zeros(0, dim), []

    def add(self, v) -> bool:
        field = self.field
        v = field.array(v).reshape(-1)
        coeffs = v[self.pivots]
        if np.any(coeffs):
            v = field.reduce(v - field.matmul(coeffs, self.mat))
        nz = np.nonzero(v)[0]
        if len(nz) == 0:
            return False
        piv = int(nz[0])
        v = field.reduce(v * field.inv(v[piv]))
        col = self.mat[:, piv]
        rows = np.nonzero(col)[0]
        if len(rows):
            self.mat[rows] = field.reduce(self.mat[rows] - np.outer(col[rows], v))
        self.mat = np.concatenate([self.mat, v.reshape(1, -1)], axis=0)
        self.pivots.append(piv)
        return True

    def basis(self) -> np.ndarray:
        return self.mat[np.argsort(self.pivots)]


BLOCK_FIELDS = [FieldSpec.prime(p) for p in BLAS_PRIMES] + [QQ]


# -- the pivot loop against the eager reference ----------------------------------
#
# Over F_p `_pivot_loop` sums row updates unreduced while int64 has room for
# them.  NumPy int64 arithmetic on arrays wraps silently, also under -W error,
# so only a comparison with the loop that reduces every update catches an
# overflow.


@st.composite
def one_block_matrices(draw):
    """At most one block of rows, of bounded rank, dense or sparse; over F_p
    with entries from the whole range [0, p), half from its top quarter."""
    field = draw(st.sampled_from(BLOCK_FIELDS))
    rnd = Random(draw(st.integers(0, 2**32 - 1)))
    big = field.is_prime_field
    rows, cols = rnd.randrange(0, 65 if big else 13), rnd.randrange(0, 49 if big else 13)
    r = rnd.randrange(0, min(rows, cols) + 2)
    if not r:
        return Matrix(field, field.zeros(rows, cols))
    if big:
        left, right = _residues(rnd, field.p, rows, r), _residues(rnd, field.p, r, cols)
    else:
        left = [[rnd.randrange(-6, 7) for _ in range(r)] for _ in range(rows)]
        right = [[rnd.randrange(-6, 7) for _ in range(cols)] for _ in range(r)]
    right = field.array(right)
    sparse = [[rnd.random() < 0.5 for _ in range(cols)] for _ in range(r)]
    right[np.array(sparse, dtype=bool).reshape(r, cols)] = field.zero
    return Matrix(field, field.matmul(field.array(left).reshape(rows, r), right))


def _check_pivot_loop(field, a):
    want = np.array(a, copy=True)
    pivots = _reference_eliminate(field, want)
    got = np.array(a, copy=True)
    assert exactlin._pivot_loop(field, got) == pivots
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    return pivots


@given(one_block_matrices())
def test_pivot_loop_matches_eager_reference(m):
    _check_pivot_loop(m.field, m.a)


_PIVOT_LOOP_CASES = {
    "0x4": ([], (0, 4), 0),
    "4x0": ([], (4, 0), 0),
    "one-row": ([0, 2, 1, 4], (1, 4), 1),
    "all-zero": ([0] * 20, (4, 5), 0),
    "full-rank": ([0, 0, 1, 1, 2, 3, 0, 1, 4], (3, 3), 3),
    "tall": ([1, 2, 3, 4, 0, 1, 2, 0, 5, 6, 1, 1], (6, 2), 2),
    "wide": ([1, 0, 2, 3, 4, 5, 0, 1, 6, 2, 2, 1], (2, 6), 2),
    "repeated-rows": ([1, 2, 3, 4, 1, 2, 3, 4, 0, 1, 1, 0, 1, 2, 3, 4], (4, 4), 2),
}


@pytest.mark.parametrize("case", _PIVOT_LOOP_CASES)
@pytest.mark.parametrize("field", BLOCK_FIELDS, ids=lambda k: f"F{k.p}" if k.p else "Q")
def test_pivot_loop_fixed_shapes(field, case):
    entries, shape, rank_ = _PIVOT_LOOP_CASES[case]
    a = field.array(np.array(entries, dtype=np.int64).reshape(shape))
    assert len(_check_pivot_loop(field, a)) == rank_


def test_pivot_loop_reduces_rows_that_run_out_of_room():
    """At p = 2^31 - 1 an entry has room for two unreduced updates.  Row 3
    takes three updates of (p - 1)^2 in columns 3 and 4, more than int64
    holds, so it is reduced on the way.  It is then the pivot row of column
    3 with one update pending and pivot -3, so it is reduced before it is
    scaled."""
    p = 2**31 - 1
    k = FieldSpec.prime(p)
    assert ((1 << 63) - p) // (p - 1) ** 2 == 2 and 3 * (p - 1) ** 2 >= 1 << 63
    t = p - 1
    a = np.array([[1, 0, 0, t, t], [0, 1, 0, t, t], [0, 0, 1, t, t], [t, t, t, 0, 5]],
                 dtype=np.int64)
    assert _check_pivot_loop(k, a) == [0, 1, 2, 3]


@st.composite
def tall_matrices(draw):
    """More than one 64-row block, of bounded rank, often sparse, with a
    leading band of zero columns in the first rows so that later blocks find
    pivots before the earlier ones."""
    field = draw(st.sampled_from(BLOCK_FIELDS))
    rnd = Random(draw(st.integers(0, 2**32 - 1)))
    big = field.is_prime_field
    rows = rnd.randrange(65, 200 if big else 140)
    cols = rnd.randrange(1, 48 if big else 14)
    r = rnd.randrange(0, min(rows, cols) + 2)
    hi = field.p if big else 7
    left = np.array([[rnd.randrange(hi) for _ in range(r)] for _ in range(rows)],
                    dtype=np.int64).reshape(rows, r)
    right = np.array([[rnd.randrange(hi) if rnd.random() < 0.4 else 0 for _ in range(cols)]
                      for _ in range(r)], dtype=np.int64).reshape(r, cols)
    a = field.matmul(field.array(left), field.array(right)) if r else field.zeros(rows, cols)
    band = rnd.randrange(0, cols + 1)
    a[:rnd.randrange(0, rows), :band] = field.zero
    return Matrix(field, a)


@given(tall_matrices())
def test_blocked_rref_matches_pivot_loop(m):
    work, pivots = _reference_rref(m)
    r, got = rref(m)
    assert got == pivots
    assert r.tolist() == work.tolist()
    assert rank(m) == len(pivots)


@given(tall_matrices())
def test_blocked_kernel_matches_pivot_loop(m):
    field = m.field
    work, pivots = _reference_rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    want = field.zeros(len(free), m.cols)
    want[np.arange(len(free)), free] = field.one
    want[:, pivots] = field.reduce(-work[:len(pivots), free].T)
    assert kernel_basis(m).tolist() == want.tolist()


@given(tall_matrices(), st.integers(0, 2**32 - 1))
def test_blocked_solve_matches_pivot_loop(m, seed):
    field, rnd = m.field, Random(seed)
    x = field.array([[rnd.randrange(5) for _ in range(2)] for _ in range(m.cols)])
    b = field.matmul(m.a, x.reshape(m.cols, 2))
    b[:, 1] = field.array([rnd.randrange(5) for _ in range(m.rows)])  # mostly inconsistent
    for rhs in (b, b[:, :1]):
        aug = np.concatenate([np.array(m.a, copy=True), rhs], axis=1)
        pivots = _reference_eliminate(field, aug)
        got = solve_matrix(m, Matrix(field, np.array(rhs, copy=True)))
        if any(p >= m.cols for p in pivots):
            assert got is None
            continue
        want = field.zeros(m.cols, rhs.shape[1])
        for i, pc in enumerate(pivots):
            want[pc] = aug[i, m.cols:]
        assert got.tolist() == want.tolist()


@given(tall_matrices(), st.lists(st.integers(1, 90), min_size=1, max_size=6))
def test_echelon_extend_matches_add_and_pivot_loop(m, sizes):
    field = m.field
    added, extended = Echelon(field, m.cols), Echelon(field, m.cols)
    ref = ReferenceEchelon(field, m.cols)
    for row in m.a:
        assert added.add(row) == ref.add(row)
    start = 0
    for size in sizes + [m.rows]:
        before = extended.rank
        assert extended.extend(m.a[start:start + size]) == extended.rank - before
        start += size
    work, pivots = _reference_rref(m)
    assert extended.rank == added.rank == len(ref.pivots) == len(pivots)
    assert extended.basis_matrix().tolist() == added.basis_matrix().tolist() \
        == ref.basis().tolist() == work[:len(pivots)].tolist()
    assert all(extended.contains(row) for row in m.a)


@pytest.mark.parametrize("field,entry,basis", [
    (F2, 2, [[0, 1]]), (F3, 3, [[0, 1]]), (QQ, 3, [[1, Fraction(1, 3)]])],
    ids=["F2", "F3", "Q"])
def test_echelon_coerces_lists_into_the_field(field, entry, basis):
    """A list is read into the field by every entry point, so over F_p an
    entry p is 0 and never taken as a pivot."""
    for insert in (lambda e: e.extend([[entry, 1]]), lambda e: e.add([entry, 1])):
        e = Echelon(field, 2)
        assert insert(e)
        assert e.basis_matrix().tolist() == basis
        assert e.contains([entry, 1]) and e.contains([[entry, 1], [0, 0]])
        assert not e.contains([1, 0])


def test_echelon_extend_takes_lists_and_empty_blocks():
    e = Echelon(F3, 3)
    assert e.extend([[0, 1, 1], [0, 2, 2]]) == 1
    assert e.extend(F3.zeros(0, 3)) == 0
    assert e.extend([[1, 1, 0], [0, 0, 1]]) == 2
    assert e.basis_matrix().tolist() == F3.eye(3).tolist()



@pytest.mark.parametrize("field", [QQ, F2, FieldSpec.prime(2**31 - 1)],
                         ids=["Q", "F2", "F2147483647"])
def test_echelon_of_the_zero_space(field):
    """Blocks and vectors of a zero-dimensional space: each is zero, so it
    lies in the span and enlarges nothing."""
    e = Echelon(field, 0)
    assert e.extend(field.zeros(0, 0)) == 0 and e.extend(field.zeros(3, 0)) == 0
    assert e.contains(field.zeros(0)) and e.contains(field.zeros(2, 0))
    assert not e.add(field.zeros(0))
    assert e.rank == 0 and e.basis_matrix().shape == (0, 0)

# -- every field product goes through FieldSpec.matmul ------------------------------

_PRODUCT_CALLS = {"tensordot", "dot", "matmul", "einsum"}
_SCATTER_CALLS = {"at", "reduceat"}  # np.add.at / np.add.reduceat: sparse sums


def test_field_products_only_in_the_kernel():
    """An unguarded int64 product overflows once two terms near p^2 are summed,
    so outside exactlin.py no module may multiply arrays or scatter-add terms
    itself."""
    src = Path(__file__).resolve().parent.parent / "src" / "catext"
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "exactlin.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno}: @")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _PRODUCT_CALLS \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id in ("np", "numpy"):
                found.append(f"{path.name}:{node.lineno}: np.{node.func.attr}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _SCATTER_CALLS \
                    and isinstance(node.func.value, ast.Attribute) \
                    and node.func.value.attr == "add":
                found.append(f"{path.name}:{node.lineno}: add.{node.func.attr}")
    assert not found, "field sums outside FieldSpec.matmul and sparse_matmul: " + ", ".join(found)
