from fractions import Fraction

import numpy as np
import pytest

from catext.fdalgebra import (AlgHom, AlgModule, FDAlgebra, dual_numbers, field_algebra,
                              free_module, group_algebra, identity_hom, opposite_algebra,
                              regular_bimodule, trivial_extension, upper_triangular_algebra,
                              validate_algebra, validate_hom, validate_module, zero_module)
from catext.fincat import linearize
from catext.presets import F2, F3, QQ, cyclic_monoid, field_product, poset_a2

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
        e = alg.basis_vector(j)
        for got, want in ((alg.right_mult_matrix(e), alg.structure[:, j, :].T),
                          (alg.left_mult_matrix(e), alg.structure[j].T)):
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()


@pytest.mark.parametrize("alg", SLICE_ALGEBRAS, ids=lambda a: a.name)
def test_mult_matrices_return_fresh_arrays(alg):
    before = np.array(alg.structure, copy=True)
    for mult in (alg.right_mult_matrix, alg.left_mult_matrix):
        mult(alg.basis_vector(0))[...] = alg.field.one
    assert alg.field.equal(alg.structure, before)


def test_zero_vector_mult_matrices_over_rationals_hold_fractions():
    alg = upper_triangular_algebra(2, QQ)
    for mat in (alg.right_mult_matrix(QQ.zeros(alg.dim)),
                alg.left_mult_matrix(QQ.zeros(alg.dim))):
        assert mat.shape == (alg.dim, alg.dim)
        assert all(type(v) is Fraction and v == 0 for v in mat.reshape(-1))


def test_dual_numbers_by_hand():
    dn = dual_numbers(F2)
    one, eps = dn.basis_vector(0), dn.basis_vector(1)
    assert F2.equal(dn.mul(one, eps), eps)
    assert F2.equal(dn.mul(eps, one), eps)
    assert F2.is_zero(dn.mul(eps, eps))


def test_broken_algebra_reports_unit_failure():
    # e1 * e1 = e2 but no element acts as a unit
    c = F2.zeros(2, 2, 2)
    c[0, 0, 1] = 1
    bad = FDAlgebra(field=F2, dim=2, structure=c, unit=F2.array([1, 0]))
    rep = validate_algebra(bad)
    assert not rep.ok
    assert any(v.code == "unit" for v in rep.violations)


def test_hom_identity_valid():
    assert validate_hom(identity_hom(group_algebra([2], F2))).ok


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
    eps = te.basis_vector(1)
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
    e1 = te.basis_vector(0)   # (e1, 0)
    m = te.basis_vector(2)    # (0, m)
    assert F2.equal(te.mul(e1, m), m)       # (e1,0).(0,m) = (0, e1.m) = (0,m)
    assert F2.is_zero(te.mul(m, e1))        # (0,m).(e1,0) = (0, m.e1) = 0


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.name)
def test_trivial_extension_regular_always_valid(alg):
    te = trivial_extension(alg, regular_bimodule(alg))
    assert validate_algebra(te).ok
    k = alg.field
    d = alg.dim
    # the algebra part embeds unitally; the module part squares to zero
    for i in range(d, te.dim):
        for j in range(d, te.dim):
            assert k.is_zero(te.mul(te.basis_vector(i), te.basis_vector(j)))
    for i in range(d):
        for j in range(d):
            prod = te.mul(te.basis_vector(i), te.basis_vector(j))
            assert k.is_zero(prod[d:])
            assert k.equal(prod[:d], alg.mul(alg.basis_vector(i), alg.basis_vector(j)))


def test_trivial_extension_commutative_case():
    # commutative algebra with its regular (symmetric) bimodule
    g = group_algebra([2], F3)
    te = trivial_extension(g, regular_bimodule(g))
    for i in range(te.dim):
        for j in range(te.dim):
            assert F3.equal(te.mul(te.basis_vector(i), te.basis_vector(j)),
                            te.mul(te.basis_vector(j), te.basis_vector(i)))


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
