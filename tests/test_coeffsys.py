import pytest

from catext.coeffsys import (disjoint_fiber_category, forget_left_action,
                             underlying_group_category, validate_bimodule,
                             validate_precosheaf, validate_right_module)
from catext.fdalgebra import AlgHom, field_algebra, group_algebra
from catext.fincat import validate_category
from catext.presets import (F2, F3, QQ, a2_augmentation_precosheaf, constant_precosheaf,
                            corrupt_bimodule, cyclic_monoid, field_product, one_object_group,
                            poset_a2, precosheaf_from, projection_bimodule_system,
                            regular_bimodule_system, regular_right_module_system,
                            trivial_category, zero_bimodule_system, zero_right_module_system)

CATS = [trivial_category(), poset_a2(), one_object_group(2), cyclic_monoid(3, 1)]


@pytest.mark.parametrize("cat", CATS, ids=lambda c: c.name)
def test_constant_precosheaf_valid(cat):
    assert validate_precosheaf(constant_precosheaf(cat, field_algebra(F2))).ok
    assert validate_precosheaf(constant_precosheaf(cat, group_algebra([2], F3))).ok


def test_augmentation_precosheaf_valid():
    assert validate_precosheaf(a2_augmentation_precosheaf(F2)).ok


def test_zero_map_precosheaf_reports_unit():
    cat = poset_a2()
    kz2 = group_algebra([2], F2)
    kk = field_algebra(F2)
    zero = AlgHom(kz2, kk, F2.zeros(1, 2))
    pre = precosheaf_from(cat, {"0": kz2, "1": kk}, {"a": zero})
    rep = validate_precosheaf(pre)
    assert any(v.code == "unit" for v in rep.violations)


def test_precosheaf_verdict_is_kept_and_copied_per_call():
    kz2 = group_algebra([2], F2)
    zero = AlgHom(kz2, field_algebra(F2), F2.zeros(1, 2))
    pre = precosheaf_from(poset_a2(), {"0": kz2, "1": field_algebra(F2)}, {"a": zero})
    first = validate_precosheaf(pre)
    assert not first.ok
    first.add("mine", "added by the caller")
    again = validate_precosheaf(pre)
    assert again.violations == first.violations[:-1]
    assert validate_right_module(regular_right_module_system(pre)).violations \
        == again.violations


def test_functor_law_violation_detected():
    # Z/2 acting on k[Z/3] by inversion is a precosheaf; rewiring the identity
    # slot to the inversion breaks the functor laws
    cat = cyclic_monoid(2, 0)  # Z/2: morphisms t0 (id), t1 with t1 t1 = t0
    kz3 = group_algebra([3], F2)
    inv = F2.zeros(3, 3)
    for i, g in enumerate(kz3.basis_labels):
        inv[kz3.basis_labels.index(((3 - g[0]) % 3,)), i] = 1
    pre = precosheaf_from(cat, {"*": kz3}, {"t1": AlgHom(kz3, kz3, inv)})
    assert validate_precosheaf(pre).ok  # inversion has order two: a functor
    bad = precosheaf_from(cat, {"*": kz3}, {"t1": AlgHom(kz3, kz3, inv)})
    bad.maps[cat.identity["*"]] = AlgHom(kz3, kz3, inv)
    rep = validate_precosheaf(bad)
    assert any(v.code == "functor" for v in rep.violations)


@pytest.mark.parametrize("cat", CATS, ids=lambda c: c.name)
def test_regular_bimodule_valid_everywhere(cat):
    for alg in (field_algebra(F2), group_algebra([2], F2)):
        pre = constant_precosheaf(cat, alg)
        assert validate_bimodule(regular_bimodule_system(pre)).ok


def test_augmented_regular_bimodule_valid():
    pre = a2_augmentation_precosheaf(F2)
    assert validate_bimodule(regular_bimodule_system(pre)).ok
    assert validate_bimodule(zero_bimodule_system(pre)).ok


def test_projection_bimodule_valid():
    assert validate_bimodule(projection_bimodule_system(F2)).ok
    assert validate_bimodule(projection_bimodule_system(QQ)).ok


def test_corrupted_bimodule_reports_witness():
    pre = a2_augmentation_precosheaf(F2)
    bad = corrupt_bimodule(regular_bimodule_system(pre))
    rep = validate_bimodule(bad)
    assert not rep.ok
    v = rep.violations[0]
    assert v.witness  # explicit witness data


@pytest.mark.parametrize("cat", CATS, ids=lambda c: c.name)
def test_right_module_systems_valid(cat):
    pre = constant_precosheaf(cat, group_algebra([2], F2))
    assert validate_right_module(regular_right_module_system(pre)).ok
    assert validate_right_module(zero_right_module_system(pre)).ok


def test_corrupted_right_module_detected():
    pre = constant_precosheaf(trivial_category(), group_algebra([2], F2))
    sys_ = regular_right_module_system(pre)
    # this matrix has order three, so it cannot represent an involution
    sys_.modules["*"].right_action[1] = F2.array([[0, 1], [1, 1]])
    rep = validate_right_module(sys_)
    assert not rep.ok


@pytest.mark.parametrize("cat", CATS, ids=lambda c: c.name)
def test_forgetting_left_action_stays_valid(cat):
    pre = constant_precosheaf(cat, group_algebra([2], F2))
    bm = regular_bimodule_system(pre)
    assert validate_right_module(forget_left_action(bm)).ok


def test_underlying_group_trivial():
    pre = constant_precosheaf(trivial_category(), field_algebra(F2))
    n = zero_right_module_system(pre)
    cat = underlying_group_category(n, "*")
    assert len(cat.mor) == 1
    assert validate_category(cat).ok


def test_underlying_group_f2():
    pre = constant_precosheaf(trivial_category(), field_algebra(F2))
    n = regular_right_module_system(pre)
    cat = underlying_group_category(n, "*")
    assert len(cat.mor) == 2
    assert validate_category(cat).ok
    m = ("*", (1,))
    assert cat.then(m, m) == ("*", (0,))


def test_underlying_group_klein():
    pre = constant_precosheaf(trivial_category(), field_product(F2, 2))
    n = regular_right_module_system(pre)
    cat = underlying_group_category(n, "*")
    assert len(cat.mor) == 4
    assert validate_category(cat).ok
    a, b = ("*", (1, 0)), ("*", (0, 1))
    assert cat.then(a, b) == ("*", (1, 1))
    assert cat.then(a, a) == ("*", (0, 0))


def test_underlying_group_needs_prime_field():
    pre = constant_precosheaf(trivial_category(), field_algebra(QQ))
    n = regular_right_module_system(pre)
    with pytest.raises(ValueError):
        underlying_group_category(n, "*")


@pytest.mark.parametrize("cat", CATS, ids=lambda c: c.name)
def test_group_categories_are_groupoids(cat):
    pre = constant_precosheaf(cat, group_algebra([2], F2))
    n = regular_right_module_system(pre)
    union = disjoint_fiber_category(n)
    assert validate_category(union).ok
    # groupoid: every endomorphism has an inverse
    for f in union.mor:
        x = union.dom(f)
        assert any(union.then(f, g) == union.identity[x] for g in union.endos(x))
    for x in cat.objects:
        sub = underlying_group_category(n, x)
        assert validate_category(sub).ok
