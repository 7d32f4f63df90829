import tracemalloc
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from catext import fdalgebra
from catext.fdalgebra import (AlgHom, AlgModule, FDAlgebra, basis_products, dual_numbers,
                              field_algebra, free_module, group_algebra, opposite_algebra, regular_bimodule, trivial_extension,
                              upper_triangular_algebra, validate_algebra, validate_hom,
                              validate_module, zero_module)
from catext.exactlin import FieldSpec
from catext.fincat import linearize
from catext.presets import F2, F3, QQ, cyclic_monoid, field_product, poset_a2
from catext.validation import Report
from test_exactlin import coerce

ALGEBRAS = [field_algebra(F2), dual_numbers(QQ), group_algebra([2], F2),
            group_algebra([2, 2], F3), upper_triangular_algebra(2, F2),
            field_product(F3, 2)]


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.name)
def test_fixture_algebras_valid(alg):
    assert validate_algebra(alg).ok


SLICE_ALGEBRAS = ALGEBRAS + [upper_triangular_algebra(3, QQ), linearize(poset_a2(), F3),
                             linearize(cyclic_monoid(3, 1), QQ)]


@pytest.mark.parametrize("alg", SLICE_ALGEBRAS, ids=lambda a: a.name)
def test_basis_mult_matrices_are_structure_slices(alg):
    for j in range(alg.dim):
        e = alg.field.eye(alg.dim)[j]
        for got, want in ((alg.right_mult_matrix(e), alg.structure[:, j, :].T),
                          (alg.left_mult_matrix(e), alg.structure[j].T)):
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()


@pytest.mark.parametrize("alg", SLICE_ALGEBRAS, ids=lambda a: a.name)
def test_mult_matrices_return_fresh_arrays(alg):
    before = np.array(alg.structure, copy=True)
    for mult in (alg.right_mult_matrix, alg.left_mult_matrix):
        mult(alg.field.eye(alg.dim)[0])[...] = alg.field.one
    assert alg.field.equal(alg.structure, before)


@pytest.mark.parametrize("alg", SLICE_ALGEBRAS, ids=lambda a: a.name)
def test_mult_matrices_of_columns_stack_along_last_axis(alg):
    k = alg.field
    cols = k.array([[(i * 7 + t * 3) % 5 for t in range(3)] for i in range(alg.dim)])
    for mult in (alg.right_mult_matrix, alg.left_mult_matrix):
        got = mult(cols)
        assert got.shape == (alg.dim, alg.dim, 3)
        for t in range(3):
            assert got[:, :, t].tolist() == mult(cols[:, t]).tolist()


def skew_matrix_algebra(k: FieldSpec) -> FDAlgebra:
    """M_2(k) in the basis f = E11 + E21, E12, E21, E22: f f = f, but
    f E12 = E12 + E22, so fA is spanned by no set of basis elements."""
    basis = [np.array(m) for m in ([[1, 0], [1, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]],
                                    [[0, 0], [0, 1]])]

    def coords(m):  # m = a f + b E12 + (c - a) E21 + d E22
        (a, b), (c, d) = m.tolist()
        return [a, b, c - a, d]
    constants = [(i, j, l, c) for i, x in enumerate(basis) for j, y in enumerate(basis)
                 for l, c in enumerate(coords(x @ y)) if c]
    return FDAlgebra(k, 4, tuple(map(list, zip(*constants))),
                     k.array(coords(np.eye(2, dtype=np.int64))), name="M2-skew")


PROJECTIVE_ALGEBRAS = SLICE_ALGEBRAS + [linearize(cyclic_monoid(4, 2), F2),
                                        FDAlgebra(F2, 0, ([], [], [], []), F2.zeros(0)),
                                        skew_matrix_algebra(F3)]


@pytest.mark.parametrize("alg", PROJECTIVE_ALGEBRAS, ids=lambda a: a.name or "zero")
def test_projectives_match_the_dense_constants(alg):
    """Against the dense c[i, j, l]: the heads are the basis elements e with
    e in J_e = {l : c[e, j, l] != 0 for some j} and e e_l = e_l for every l
    in J_e, each with the span J_e, smallest first, then the span of A; each
    idempotent's coefficients, the unit's last; and each P_e's action
    constants give (e_i e_j)_l for i and l in J_e."""
    k, d = alg.field, alg.dim
    eye = k.eye(d)
    want = {}
    for e in range(d):
        span = sorted({l for j in range(d) for l in range(d) if alg.structure[e, j, l] != 0})
        if e in span and all(alg.structure[e, l].tolist() == eye[l].tolist() for l in span):
            want[e] = span
    heads, spans, idempotents = alg.projectives
    assert {int(e): s.tolist() for e, s in zip(heads, spans)} == want
    assert idempotents.tolist() == [eye[e].tolist() for e in heads] + [alg.unit.tolist()]
    assert len(spans) == len(heads) + 1 and spans[-1].tolist() == list(range(d))
    assert [len(s) for s in spans[:-1]] == sorted(len(s) for s in want.values())
    for (rows, cols, vals), span in zip(alg.projective_actions, spans):
        n = len(span)
        got = k.sparse_matmul(rows, cols, vals, d * n, k.eye(n)).reshape(d, n, n)
        assert got.tolist() == alg.structure[np.ix_(span, range(d), span)].transpose(1, 2, 0).tolist()


@pytest.mark.parametrize("c", [poset_a2(), cyclic_monoid(3, 1), cyclic_monoid(4, 2)],
                         ids=lambda c: c.name)
def test_projectives_of_a_category_algebra_are_its_idempotent_morphisms(c):
    """e_f e_g = e_(g then f), so P_e is spanned by the composites g then e."""
    pos = c.index.pos
    heads, spans, _ = linearize(c, F3).projectives
    idempotents = [f for f in c.mor if c.compose.get((f, f)) == f]
    assert sorted(heads.tolist()) == sorted(pos[f] for f in idempotents)
    for e, span in zip(heads.tolist(), spans):
        f = next(f for f in idempotents if pos[f] == e)
        assert span.tolist() == sorted({pos[h] for (_, g), h in c.compose.items() if g == f})


def test_zero_vector_mult_matrices_over_rationals_hold_fractions():
    alg = upper_triangular_algebra(2, QQ)
    for mat in (alg.right_mult_matrix(QQ.zeros(alg.dim)),
                alg.left_mult_matrix(QQ.zeros(alg.dim))):
        assert mat.shape == (alg.dim, alg.dim)
        assert all(type(v) is Fraction and v == 0 for v in mat.reshape(-1))


def test_dual_numbers_by_hand():
    dn = dual_numbers(F2)
    one, eps = F2.eye(2)
    assert F2.equal(dn.mul(one, eps), eps)
    assert F2.equal(dn.mul(eps, one), eps)
    assert F2.is_zero(dn.mul(eps, eps))


def test_broken_algebra_reports_unit_failure():
    # e1 * e1 = e2 but no element acts as a unit
    bad = FDAlgebra(field=F2, dim=2, constants=([0], [0], [1], [1]), unit=F2.array([1, 0]))
    rep = validate_algebra(bad)
    assert not rep.ok
    assert any(v.code == "unit" for v in rep.violations)


def test_hom_identity_valid():
    g = group_algebra([2], F2)
    assert validate_hom(AlgHom(g, g, F2.eye(g.dim))).ok


def test_hom_augmentation_valid():
    kz2 = group_algebra([2], F2)
    aug = AlgHom(kz2, field_algebra(F2), F2.array([[1, 1]]))
    assert validate_hom(aug).ok


def test_hom_zero_map_fails_unit():
    k = field_algebra(F3)
    rep = validate_hom(AlgHom(k, k, F3.zeros(1, 1)))
    assert any(v.code == "unit" for v in rep.violations)


def test_opposite_commutative_unchanged():
    g = group_algebra([2, 2], F3)
    assert F3.equal(opposite_algebra(g).structure, g.structure)


def test_opposite_transposes_triangular():
    ut = upper_triangular_algebra(2, F2)
    op = opposite_algebra(ut)
    assert F2.equal(op.structure, np.swapaxes(ut.structure, 0, 1))
    assert validate_algebra(op).ok


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.name)
def test_opposite_involutive_and_valid(alg):
    op = opposite_algebra(alg)
    assert validate_algebra(op).ok
    opop = opposite_algebra(op)
    assert alg.field.equal(opop.structure, alg.structure)
    assert alg.field.equal(opop.unit, alg.unit)


def test_trivial_extension_dual_numbers():
    te = trivial_extension(field_algebra(QQ), regular_bimodule(field_algebra(QQ)))
    dn = dual_numbers(QQ)
    assert QQ.equal(te.structure, dn.structure)
    # (0,1)(0,1) = (0, 0)
    eps = QQ.eye(te.dim)[1]
    assert QQ.is_zero(te.mul(eps, eps))


def test_trivial_extension_zero_module_is_lambda():
    lam = group_algebra([2], F2)
    te = trivial_extension(lam, zero_module(lam, side="bi"))
    assert te.dim == lam.dim
    assert F2.equal(te.structure, lam.structure)
    assert F2.equal(te.unit, lam.unit)


def test_trivial_extension_projection_actions():
    kk = field_product(F2, 2)
    mod = AlgModule(kk, 1, "bi",
                    left_action=[F2.array([[1]]), F2.array([[0]])],
                    right_action=[F2.array([[0]]), F2.array([[1]])])
    assert validate_module(mod).ok
    te = trivial_extension(kk, mod)
    assert validate_algebra(te).ok
    e1 = F2.eye(te.dim)[0]   # (e1, 0)
    m = F2.eye(te.dim)[2]    # (0, m)
    assert F2.equal(te.mul(e1, m), m)       # (e1,0).(0,m) = (0, e1.m) = (0,m)
    assert F2.is_zero(te.mul(m, e1))        # (0,m).(e1,0) = (0, m.e1) = 0


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.name)
def test_trivial_extension_regular_always_valid(alg):
    te = trivial_extension(alg, regular_bimodule(alg))
    assert validate_algebra(te).ok
    k = alg.field
    d = alg.dim
    e, ea = k.eye(te.dim), k.eye(d)
    # the algebra part embeds unitally; the module part squares to zero
    for i in range(d, te.dim):
        for j in range(d, te.dim):
            assert k.is_zero(te.mul(e[i], e[j]))
    for i in range(d):
        for j in range(d):
            prod = te.mul(e[i], e[j])
            assert k.is_zero(prod[d:])
            assert k.equal(prod[:d], alg.mul(ea[i], ea[j]))


def test_trivial_extension_commutative_case():
    # commutative algebra with its regular (symmetric) bimodule
    g = group_algebra([2], F3)
    te = trivial_extension(g, regular_bimodule(g))
    e = F3.eye(te.dim)
    for i in range(te.dim):
        for j in range(te.dim):
            assert F3.equal(te.mul(e[i], e[j]), te.mul(e[j], e[i]))


def test_trivial_extension_requires_bimodule():
    lam = field_algebra(F2)
    with pytest.raises(ValueError):
        trivial_extension(lam, free_module(lam, 1, side="right"))


def test_group_algebra_order_one_is_field():
    a = group_algebra([1], F3)
    assert a.dim == 1
    assert F3.equal(a.structure, field_algebra(F3).structure)


def test_group_algebra_z2_is_dual_numbers_in_disguise():
    # over F2, t = 1 + g satisfies t^2 = 0
    a = group_algebra([2], F2)
    t = F2.array([1, 1])
    assert F2.is_zero(a.mul(t, t))
    # change of basis 1, t is invertible, giving k[t]/(t^2)
    dn = dual_numbers(F2)
    mat = F2.array([[1, 1], [0, 1]])  # sends 1 -> 1, eps -> 1+g
    hom = AlgHom(dn, a, mat)
    assert validate_hom(hom).ok


def test_group_algebra_klein_over_f3():
    a = group_algebra([2, 2], F3)
    assert a.dim == 4
    assert validate_algebra(a).ok


def test_free_module_rank_zero():
    fm = free_module(field_algebra(F2), 0)
    assert fm.dim == 0
    assert validate_module(fm).ok


def test_free_module_rank_one_over_field():
    fm = free_module(field_algebra(F3), 1)
    assert fm.dim == 1
    assert F3.equal(fm.right_action[0], F3.eye(1))


def test_free_module_rank_two_dual_numbers_block_diagonal():
    dn = dual_numbers(F2)
    fm = free_module(dn, 2)
    assert fm.dim == 4
    assert validate_module(fm).ok
    for mat in fm.right_action:
        assert F2.is_zero(mat[:2, 2:])
        assert F2.is_zero(mat[2:, :2])


@pytest.mark.parametrize("side", ["left", "right", "bi"])
def test_free_module_sides_validate(side):
    fm = free_module(group_algebra([2], F3), 2, side=side)
    assert validate_module(fm).ok


def test_free_module_builds_only_the_requested_side():
    a = group_algebra([2], F3)
    assert free_module(a, 2, "right").left_action == []
    assert free_module(a, 2, "left").right_action == []
    bi = free_module(a, 2, "bi")
    assert len(bi.left_action) == len(bi.right_action) == a.dim
    with pytest.raises(ValueError):
        free_module(a, 1, "middle")


def test_corrupted_module_reports_witness():
    fm = free_module(dual_numbers(F2), 1)
    fm.right_action[1] = F2.array([[1, 0], [0, 1]])  # eps now acts as identity
    rep = validate_module(fm)
    assert not rep.ok
    assert any(v.code == "right-action" for v in rep.violations)


# -- constants -------------------------------------------------------------------

def test_constants_are_c_ordered_without_zeros():
    alg = FDAlgebra(F3, 2, ([1, 0, 0, 1], [0, 1, 0, 1], [1, 1, 0, 0], [2, 1, 3, 1]),
                    F3.array([1, 0]))
    assert [x.tolist() for x in alg.constants] == [[0, 1, 1], [1, 0, 1], [1, 1, 0], [1, 2, 1]]
    assert alg.structure.tolist() == [[[0, 0], [0, 1]], [[0, 2], [1, 0]]]


@pytest.mark.parametrize("constants", [
    ([0], [0], [2], [1]), ([0], [-1], [0], [1]), ([2], [0], [0], [1]),  # out of range
    ([0, 0], [1, 1], [0, 0], [1, 1]), ([1, 1], [0, 0], [1, 1], [0, 1]),  # repeated
    ([0, 1], [0], [0], [1]), ([0], [0], [0], [1, 1]),  # unmatched lengths
])
def test_bad_constants_raise(constants):
    with pytest.raises(ValueError):
        FDAlgebra(F2, 2, constants, F2.array([1, 0]))


# -- the dense-loop validators as references --------------------------------------

def _ref_combine(k, coeffs, mats, n):
    """sum_i coeffs[i] mats[i], one term at a time."""
    out = k.zeros(n, n)
    for x, mat in zip(coeffs, mats):
        if x:
            out = k.reduce(out + k.reduce(x * mat))
    return out


COMBINE_FIELDS = [F2, F3, FieldSpec.prime(65521), FieldSpec.prime(2**31 - 1), QQ]


@pytest.mark.parametrize("k", COMBINE_FIELDS, ids=lambda k: f"F{k.p}" if k.p else "Q")
@pytest.mark.parametrize("d, n", [(0, 0), (0, 2), (3, 0), (1, 1), (3, 2), (4, 3)])
@pytest.mark.parametrize("stack", [(), (5,), (2, 3)])
def test_actions_of_a_stack_are_the_per_element_sums(k, d, n, stack):
    """right_of and left_of of a (..., d) stack of algebra elements give the
    (..., n, n) stack of sum_i a_i rho_i and sum_i a_i lam_i, element by
    element, whatever the action matrices are."""
    rng = Random(f"{k.p}-{d}-{n}-{stack}")

    def draw(*shape):
        if k.is_prime_field:
            return k.array(np.array([rng.randrange(k.p) for _ in range(int(np.prod(shape)))],
                                    dtype=np.int64).reshape(shape))
        return k.array([Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                        for _ in range(int(np.prod(shape)))]).reshape(shape)
    alg = FDAlgebra(k, d, basis_products(k, []), k.zeros(d))
    rights, lefts = [draw(n, n) for _ in range(d)], [draw(n, n) for _ in range(d)]
    mod = AlgModule(alg, n, "bi", right_action=rights, left_action=lefts)
    elements = draw(*stack, d)
    for action_of, mats in ((mod.right_of, rights), (mod.left_of, lefts)):
        got = action_of(elements)
        assert got.shape == (*stack, n, n) and got.dtype == k.dtype
        for idx in np.ndindex(*stack):
            assert got[idx].tolist() == _ref_combine(k, elements[idx], mats, n).tolist()


def _ref_mul(a, x, y):
    return a.field.matmul(y, _ref_combine(a.field, x, a.structure, a.dim))


def ref_validate_algebra(a):
    rep = Report()
    k = a.field
    c = a.structure
    for i in range(a.dim):
        for j in range(a.dim):
            # row l: (e_i e_j) e_l against e_i (e_j e_l)
            lhs = _ref_combine(k, c[i, j], c, a.dim)
            rhs = k.matmul(c[j], c[i])
            if not k.equal(lhs, rhs):
                bad = next((l for l in range(a.dim) if not k.equal(lhs[l], rhs[l])), None)
                rep.add("associativity", "(e_i e_j) e_l != e_i (e_j e_l)",
                        i=a.basis_labels[i], j=a.basis_labels[j],
                        l=None if bad is None else a.basis_labels[bad])
    for j in range(a.dim):
        ej = k.eye(a.dim)[j]
        if not k.equal(_ref_mul(a, a.unit, ej), ej):
            rep.add("unit", "unit * e_j != e_j", j=a.basis_labels[j])
        if not k.equal(_ref_mul(a, ej, a.unit), ej):
            rep.add("unit", "e_j * unit != e_j", j=a.basis_labels[j])
    return rep


def ref_validate_module(m):
    rep = Report()
    a = m.algebra
    k = a.field
    c = a.structure
    has_right = m.side in ("right", "bi")
    has_left = m.side in ("left", "bi")
    if has_right and len(m.right_action) != a.dim:
        rep.add("shape", "right action family has wrong length")
        return rep
    if has_left and len(m.left_action) != a.dim:
        rep.add("shape", "left action family has wrong length")
        return rep
    for fam, nm in ((m.right_action if has_right else [], "right"),
                    (m.left_action if has_left else [], "left")):
        for i, mat in enumerate(fam):
            if mat.shape != (m.dim, m.dim):
                rep.add("shape", f"{nm} action matrix has wrong shape", i=a.basis_labels[i])
                return rep
    if has_right:
        for i in range(a.dim):
            for j in range(a.dim):
                if not k.equal(_ref_combine(k, c[i, j], m.right_action, m.dim),
                               k.matmul(m.right_action[j], m.right_action[i])):
                    rep.add("right-action", "v.(e_i e_j) != (v.e_i).e_j",
                            i=a.basis_labels[i], j=a.basis_labels[j])
        if not k.equal(_ref_combine(k, a.unit, m.right_action, m.dim), k.eye(m.dim)):
            rep.add("unit", "right action of unit is not identity")
    if has_left:
        for i in range(a.dim):
            for j in range(a.dim):
                if not k.equal(_ref_combine(k, c[i, j], m.left_action, m.dim),
                               k.matmul(m.left_action[i], m.left_action[j])):
                    rep.add("left-action", "(e_i e_j).v != e_i.(e_j.v)",
                            i=a.basis_labels[i], j=a.basis_labels[j])
        if not k.equal(_ref_combine(k, a.unit, m.left_action, m.dim), k.eye(m.dim)):
            rep.add("unit", "left action of unit is not identity")
    if m.side == "bi":
        for i in range(a.dim):
            for j in range(a.dim):
                if not k.equal(k.matmul(m.left_action[i], m.right_action[j]),
                               k.matmul(m.right_action[j], m.left_action[i])):
                    rep.add("bimodule", "left and right actions do not commute",
                            i=a.basis_labels[i], j=a.basis_labels[j])
    return rep


def ref_validate_hom(h):
    rep = Report()
    k = h.source.field
    if h.matrix.shape != (h.target.dim, h.source.dim):
        rep.add("shape", "hom matrix has wrong shape", shape=h.matrix.shape)
        return rep
    if not k.equal(h.apply(h.source.unit), h.target.unit):
        rep.add("unit", "h(1) != 1")
    e = k.eye(h.source.dim)
    for i in range(h.source.dim):
        for j in range(h.source.dim):
            lhs = h.apply(_ref_mul(h.source, e[i], e[j]))
            rhs = _ref_mul(h.target, h.matrix[:, i], h.matrix[:, j])
            if not k.equal(lhs, rhs):
                rep.add("multiplicative", "h(e_i e_j) != h(e_i) h(e_j)",
                        i=h.source.basis_labels[i], j=h.source.basis_labels[j])
    return rep


REF_FIELDS = [QQ] + [FieldSpec.prime(p) for p in (2, 3, 65521, 2**31 - 1)]
ref_fields = pytest.mark.parametrize("k", REF_FIELDS,
                                     ids=lambda k: f"F{k.p}" if k.is_prime_field else "Q")
GENUINE = [field_algebra, dual_numbers, lambda k: group_algebra([2], k),
           lambda k: upper_triangular_algebra(2, k), lambda k: field_product(k, 2)]


def _scalar(rnd, k, zeros=0.5):
    if rnd.random() < zeros:
        return 0
    if k.is_prime_field:  # half of them from the top quarter of [0, p)
        return rnd.randrange(k.p - 1 - k.p // 4 if rnd.random() < 0.5 else 0, k.p)
    return Fraction(rnd.randint(-3, 3), rnd.randint(1, 3))


def _matrix(rnd, k, rows, cols, zeros=0.5):
    return k.array([[_scalar(rnd, k, zeros) for _ in range(cols)]
                    for _ in range(rows)]).reshape(rows, cols)


def _random_algebra(rnd, k):
    """A genuine algebra, or random, mostly non-associative constants of a
    random density with a random unit."""
    if rnd.random() < 1 / 3:
        return rnd.choice(GENUINE)(k)
    d, zeros = rnd.randint(0, 4), rnd.random()
    tensor = k.array([[[_scalar(rnd, k, zeros) for _ in range(d)] for _ in range(d)]
                      for _ in range(d)]).reshape(d, d, d)
    nz = np.nonzero(tensor)
    return FDAlgebra(k, d, (*nz, tensor[nz]), _matrix(rnd, k, 1, d).reshape(d))


def _random_module(rnd, alg):
    """A free module or random action matrices, sometimes with one entry changed."""
    k = alg.field
    side = rnd.choice(["left", "right", "bi"])
    if rnd.random() < 1 / 3:
        mod = free_module(alg, rnd.randint(0, 2), side)
    else:
        n, zeros = rnd.randint(0, 3), rnd.random()
        mod = AlgModule(alg, n, side)
        if side != "left":
            mod.right_action = [_matrix(rnd, k, n, n, zeros) for _ in range(alg.dim)]
        if side != "right":
            mod.left_action = [_matrix(rnd, k, n, n, zeros) for _ in range(alg.dim)]
    families = [f for f in (mod.right_action, mod.left_action) if f]
    if mod.dim and families and rnd.random() < 0.5:
        mat = rnd.choice(rnd.choice(families))
        mat[rnd.randrange(mod.dim), rnd.randrange(mod.dim)] = coerce(k, _scalar(rnd, k, 0))
    return mod


def _violations(rep):
    return [(v.code, v.message, v.witness) for v in rep.violations]


@ref_fields
@given(seed=st.integers(0, 2**32 - 1))
def test_validate_algebra_matches_dense_reference(k, seed):
    alg = _random_algebra(Random(seed), k)
    assert _violations(validate_algebra(alg)) == _violations(ref_validate_algebra(alg))


@ref_fields
@given(seed=st.integers(0, 2**32 - 1))
def test_validate_module_matches_dense_reference(k, seed):
    rnd = Random(seed)
    mod = _random_module(rnd, _random_algebra(rnd, k))
    assert _violations(validate_module(mod)) == _violations(ref_validate_module(mod))


@ref_fields
@given(seed=st.integers(0, 2**32 - 1))
def test_validate_hom_matches_dense_reference(k, seed):
    rnd = Random(seed)
    source, target = _random_algebra(rnd, k), _random_algebra(rnd, k)
    if source.dim == target.dim and rnd.random() < 0.5:
        matrix = k.eye(source.dim)
    else:
        matrix = _matrix(rnd, k, target.dim, source.dim, rnd.random())
    hom = AlgHom(source, target, matrix)
    want = _violations(ref_validate_hom(hom))
    for terms in (1, 7, 1 << 18):  # one pair per block, a few, all pairs at once
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fdalgebra, "BLOCK_TERMS", terms)
            assert _violations(validate_hom(hom)) == want


def test_validate_hom_memory_is_bounded_by_blocks():
    # k[Z/50] has 2,500 constants: all 2,500 basis pairs in one stacked
    # product would hold 6.25 M product terms (50 MB per array)
    g = group_algebra([50], F3)
    hom = AlgHom(g, g, F3.eye(g.dim))
    tracemalloc.start()
    try:
        assert validate_hom(hom).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
