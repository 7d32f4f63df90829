from itertools import product as iproduct

import numpy as np
import pytest

from catext.coeffsys import (AlgebraPrecosheaf, PrecosheafModule, abelian_group_category,
                             disjoint_fiber_category, underlying_group_category,
                             validate_bimodule, validate_precosheaf, validate_right_module)
from catext.exactlin import FieldSpec
from catext.fdalgebra import AlgHom, AlgModule, field_algebra, group_algebra
from catext.fincat import FinCategory, linearize, validate_category
from catext.presets import (F2, F3, QQ, a2_augmentation_precosheaf, constant_precosheaf,
                            cyclic_monoid, field_product, one_object_group,
                            poset_a2, precosheaf_from, projection_bimodule_system,
                            regular_bimodule_system, regular_right_module_system,
                            trivial_category, zero_bimodule_system, zero_right_module_system)
from catext.validation import Report
from test_exactlin import coerce

CATS = [trivial_category(), poset_a2(), one_object_group(2), cyclic_monoid(3, 1)]
F5 = FieldSpec.prime(5)


def forget_left_action(m: PrecosheafModule) -> PrecosheafModule:
    mods = {x: AlgModule(mod.algebra, mod.dim, "right",
                         right_action=[np.array(r, copy=True) for r in mod.right_action])
            for x, mod in m.modules.items()}
    return PrecosheafModule(m.precosheaf, mods, dict(m.maps),
                            name=f"{m.name}-as-right" if m.name else "")


def corrupt_bimodule(m: PrecosheafModule) -> PrecosheafModule:
    """Flip one left-action entry at the first object; breaks compatibility."""
    k = m.precosheaf.field
    x = m.base.objects[0]
    mods = dict(m.modules)
    old = mods[x]
    left = [np.array(a, copy=True) for a in old.left_action]
    if old.dim == 0 or not left:
        raise ValueError("cannot corrupt an empty bimodule")
    left[0][0, 0] = coerce(k, left[0][0, 0] + 1)
    mods[x] = AlgModule(old.algebra, old.dim, "bi",
                        right_action=[np.array(a, copy=True) for a in old.right_action],
                        left_action=left)
    return PrecosheafModule(m.precosheaf, mods, dict(m.maps), name=f"{m.name}-corrupt")


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


def test_abelian_group_category_labels_and_identity():
    cat = abelian_group_category((2, 3), "x")
    assert validate_category(cat).ok
    assert cat.objects == ("x",) and cat.name == "Z/2xZ/3"
    assert list(cat.mor) == [("x", e) for e in iproduct(range(2), range(3))]
    assert cat.identity == {"x": ("x", (0, 0))}
    assert cat.then(("x", (1, 2)), ("x", (1, 2))) == ("x", (0, 1))


def test_abelian_group_category_is_bounded():
    with pytest.raises(ValueError, match="^composition table with 2002225 entries "
                                         "exceeds desk scale$"):
        abelian_group_category((1415,), "*")
    with pytest.raises(ValueError, match="cyclic orders must be >= 1"):
        abelian_group_category((2, 0), "*")


@pytest.mark.parametrize("k", [F2, F3], ids=["F2", "F3"])
def test_underlying_group_is_an_abelian_group_category(k):
    n = regular_right_module_system(constant_precosheaf(trivial_category(), field_product(k, 2)))
    got = underlying_group_category(n, "*")
    want = abelian_group_category((k.characteristic,) * 2, "*")
    assert got.name == "N(*)"
    assert list(got.mor.items()) == list(want.mor.items())
    assert got.identity == want.identity
    assert list(got.compose.items()) == list(want.compose.items())
    assert [e for _, e in got.mor] == k.vectors(2)


@pytest.mark.parametrize("orders", [(1,), (2,), (3,), (4,), (2, 2), (2, 3)], ids=str)
@pytest.mark.parametrize("k", [F2, F3, QQ], ids=["F2", "F3", "Q"])
def test_group_algebra_is_the_linearized_group_category(orders, k):
    lin = linearize(abelian_group_category(orders, "*"), k)
    alg = group_algebra(list(orders), k)
    assert [e for _, e in lin.basis_labels] == list(alg.basis_labels)
    assert len(lin.constants) == len(alg.constants) == 4
    assert all(np.array_equal(u, v) for u, v in zip(lin.constants, alg.constants))
    assert k.equal(lin.unit, alg.unit)


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


# -- the merged module-system validator against the two it replaced ---------------

def _reference_functoriality(rep, sys_):
    cat = sys_.base
    k = sys_.precosheaf.field
    for x in cat.objects:
        if not k.equal(sys_.on(cat.identity[x]), k.eye(sys_.at(x).dim)):
            rep.add("functor", "module map at identity is not the identity", object=x)
    for (f, g), h in cat.compose.items():
        if not k.equal(sys_.on(h), k.matmul(sys_.on(g), sys_.on(f))):
            rep.add("functor", "M(fg) != M(g) . M(f)", f=f, g=g)


def reference_validate_bimodule(m) -> Report:
    """The bimodule validator as written before the two system types merged:
    the oracle for `validate_bimodule`."""
    from catext.fdalgebra import validate_module
    rep = validate_precosheaf(m.precosheaf)
    if not rep.ok:
        return rep
    cat = m.base
    k = m.precosheaf.field
    for x in cat.objects:
        if x not in m.modules:
            rep.add("bimodule", "no module at object", object=x)
            continue
        if m.at(x).side != "bi":
            rep.add("bimodule", "module at object is not a bimodule", object=x)
            continue
        sub = validate_module(m.at(x))
        if not sub.ok:
            rep.add("bimodule", "invalid bimodule at object", object=x,
                    first=sub.violations[0].code)
    if not rep.ok:
        return rep
    for f, (x, y) in cat.mor.items():
        mf = m.maps.get(f)
        if mf is None or mf.shape != (m.at(y).dim, m.at(x).dim):
            rep.add("bimodule", "module map missing or mis-shaped", f=f)
    if not rep.ok:
        return rep
    _reference_functoriality(rep, m)
    for f, (x, y) in cat.mor.items():
        af = m.precosheaf.on(f).matrix
        mf = m.on(f)
        mx, my = m.at(x), m.at(y)
        for i in range(m.precosheaf.at(x).dim):
            lhs = k.matmul(mf, mx.left_action[i])
            rhs = k.matmul(my.left_of(af[:, i]), mf)
            if not k.equal(lhs, rhs):
                bad = next(j for j in range(mx.dim) if not k.equal(lhs[:, j], rhs[:, j]))
                rep.add("compatibility", "M(f)(r.m) != A(f)(r).M(f)(m)",
                        f=f, r=i, m=bad)
            lhs = k.matmul(mf, mx.right_action[i])
            rhs = k.matmul(my.right_of(af[:, i]), mf)
            if not k.equal(lhs, rhs):
                bad = next(j for j in range(mx.dim) if not k.equal(lhs[:, j], rhs[:, j]))
                rep.add("compatibility", "M(f)(m.s) != M(f)(m).A(f)(s)",
                        f=f, s=i, m=bad)
    return rep


def reference_validate_right_module(n) -> Report:
    """The right-module validator as written before the merge: the oracle
    for `validate_right_module`."""
    from catext.fdalgebra import validate_module
    rep = validate_precosheaf(n.precosheaf)
    if not rep.ok:
        return rep
    cat = n.base
    k = n.precosheaf.field
    for x in cat.objects:
        if x not in n.modules:
            rep.add("right-module", "no module at object", object=x)
            continue
        if n.at(x).side != "right":
            rep.add("right-module", "module at object is not right-sided", object=x)
            continue
        sub = validate_module(n.at(x))
        if not sub.ok:
            rep.add("right-module", "invalid module at object", object=x,
                    first=sub.violations[0].code)
    if not rep.ok:
        return rep
    for f, (x, y) in cat.mor.items():
        nf = n.maps.get(f)
        if nf is None or nf.shape != (n.at(y).dim, n.at(x).dim):
            rep.add("right-module", "module map missing or mis-shaped", f=f)
    if not rep.ok:
        return rep
    _reference_functoriality(rep, n)
    for f, (x, y) in cat.mor.items():
        af = n.precosheaf.on(f).matrix
        nf = n.on(f)
        nx, ny = n.at(x), n.at(y)
        for i in range(n.precosheaf.at(x).dim):
            lhs = k.matmul(nf, nx.right_action[i])
            rhs = k.matmul(ny.right_of(af[:, i]), nf)
            if not k.equal(lhs, rhs):
                bad = next(j for j in range(nx.dim) if not k.equal(lhs[:, j], rhs[:, j]))
                rep.add("compatibility", "N(f)(m.s) != N(f)(m).A(f)(s)",
                        f=f, s=i, m=bad)
    return rep


def _edited(sys_, modules=None, maps=None):
    """A copy of a module system with some modules or maps replaced; a value
    of None deletes the entry."""
    mods, mats = dict(sys_.modules), dict(sys_.maps)
    for table, edits in ((mods, modules or {}), (mats, maps or {})):
        for key, val in edits.items():
            if val is None:
                del table[key]
            else:
                table[key] = val
    return PrecosheafModule(sys_.precosheaf, mods, mats, name=f"{sys_.name}-edited")


def _systems():
    kz2 = group_algebra([2], F2)
    out = []
    for cat in CATS:
        pre = constant_precosheaf(cat, kz2)
        out += [(f"regular-bi-{cat.name}", regular_bimodule_system(pre)),
                (f"regular-right-{cat.name}", regular_right_module_system(pre)),
                (f"zero-bi-{cat.name}", zero_bimodule_system(pre)),
                (f"zero-right-{cat.name}", zero_right_module_system(pre))]
    aug = a2_augmentation_precosheaf(F2)
    regular_aug = regular_bimodule_system(aug)
    out += [("projection-F2", projection_bimodule_system(F2)),
            ("projection-Q", projection_bimodule_system(QQ)),
            ("corrupt", corrupt_bimodule(regular_aug)),
            ("forget-left", forget_left_action(regular_aug)),
            ("forget-left-corrupt", forget_left_action(corrupt_bimodule(regular_aug)))]
    right_aug = regular_right_module_system(aug)
    x0 = right_aug.at("0")
    bad_action = AlgModule(x0.algebra, x0.dim, "right",
                           right_action=[x0.right_action[0], F2.array([[0, 1], [1, 1]])])
    out += [("wrong-side-bi", _edited(regular_aug, modules={"1": right_aug.at("1")})),
            ("wrong-side-right", _edited(right_aug, modules={"0": regular_aug.at("0")})),
            ("invalid-right", _edited(right_aug, modules={"0": bad_action})),
            ("missing-module", _edited(regular_aug, modules={"0": None})),
            ("missing-map", _edited(right_aug, maps={"a": None})),
            ("mis-shaped-map", _edited(regular_aug, maps={"a": F2.zeros(2, 2)})),
            ("broken-identity", _edited(right_aug, maps={"i0": F2.zeros(2, 2)}))]
    # on B(Z/2) with k[Z/2] constant: t1 -> [[0,1],[1,1]] has order three, so
    # M(t1 t1) != M(t1)^2; t1 -> [[1,1],[0,1]] is an involution that commutes
    # with neither action of the non-identity basis element
    group = constant_precosheaf(one_object_group(2), kz2)
    bi, right = regular_bimodule_system(group), regular_right_module_system(group)
    order_three, shear = F2.array([[0, 1], [1, 1]]), F2.array([[1, 1], [0, 1]])
    out += [("broken-composite-bi", _edited(bi, maps={"t1": order_three})),
            ("broken-composite-right", _edited(right, maps={"t1": order_three})),
            ("broken-compatibility-bi", _edited(bi, maps={"t1": shear})),
            ("broken-compatibility-right", _edited(right, maps={"t1": shear}))]
    return out


SYSTEMS = _systems()


@pytest.mark.parametrize("sys_", [s for _, s in SYSTEMS], ids=[n for n, _ in SYSTEMS])
def test_module_system_validators_match_references(sys_):
    assert validate_bimodule(sys_).as_dict() == reference_validate_bimodule(sys_).as_dict()
    assert validate_right_module(sys_).as_dict() \
        == reference_validate_right_module(sys_).as_dict()


def test_reference_systems_reach_every_check():
    """Each kind of violation the validators report occurs among SYSTEMS, so
    the comparison above covers every branch, left and right laws included."""
    seen = set()
    for _, sys_ in SYSTEMS:
        for rep in (validate_bimodule(sys_), validate_right_module(sys_)):
            seen |= {(v.code, v.message, tuple(v.witness)) for v in rep.violations}
    for code, message, witness in [
            ("bimodule", "no module at object", ("object",)),
            ("bimodule", "module at object is not a bimodule", ("object",)),
            ("bimodule", "invalid bimodule at object", ("object", "first")),
            ("bimodule", "module map missing or mis-shaped", ("f",)),
            ("right-module", "module at object is not right-sided", ("object",)),
            ("right-module", "invalid module at object", ("object", "first")),
            ("right-module", "module map missing or mis-shaped", ("f",)),
            ("functor", "module map at identity is not the identity", ("object",)),
            ("functor", "M(fg) != M(g) . M(f)", ("f", "g")),
            ("compatibility", "M(f)(r.m) != A(f)(r).M(f)(m)", ("f", "r", "m")),
            ("compatibility", "M(f)(m.s) != M(f)(m).A(f)(s)", ("f", "s", "m")),
            ("compatibility", "N(f)(m.s) != N(f)(m).A(f)(s)", ("f", "s", "m"))]:
        assert (code, message, witness) in seen


# -- the functor laws against the loops they replaced ----------------------------

def reference_validate_precosheaf(a) -> Report:
    """The precosheaf validator as written before the functor laws moved to
    `fincat.functor_failures`: the oracle for `validate_precosheaf`."""
    from catext.fdalgebra import validate_algebra, validate_hom
    rep = Report()
    cat = a.base
    cat_rep = validate_category(cat)
    if not cat_rep.ok:
        rep.extend(cat_rep)
        return rep
    k = a.field
    for x in cat.objects:
        if x not in a.algebras:
            rep.add("precosheaf", "no algebra at object", object=x)
            continue
        sub = validate_algebra(a.at(x))
        if not sub.ok:
            rep.add("precosheaf", "invalid algebra at object", object=x,
                    first=sub.violations[0].code)
    if not rep.ok:
        return rep
    for f, (x, y) in cat.mor.items():
        h = a.maps.get(f)
        if h is None:
            rep.add("precosheaf", "no algebra map at morphism", f=f)
            continue
        if h.matrix.shape != (a.at(y).dim, a.at(x).dim):
            rep.add("precosheaf", "map shape does not match endpoint algebras", f=f)
            continue
        sub = validate_hom(h)
        for v in sub.violations:
            rep.add(v.code, f"algebra map at morphism fails: {v.message}", f=f, **v.witness)
    if not rep.ok:
        return rep
    for x in cat.objects:
        if not k.equal(a.on(cat.identity[x]).matrix, k.eye(a.at(x).dim)):
            rep.add("functor", "map at identity is not the identity", object=x)
    for (f, g), h in cat.compose.items():
        lhs = a.on(h).matrix
        rhs = k.matmul(a.on(g).matrix, a.on(f).matrix)  # A(f) then A(g)
        if not k.equal(lhs, rhs):
            rep.add("functor", "A(fg) != A(g) . A(f)", f=f, g=g)
    return rep


LAW_FIELDS = [F2, F5, FieldSpec.prime(2**31 - 1), QQ]
law_fields = pytest.mark.parametrize("k", LAW_FIELDS, ids=lambda k: f"F{k.p}" if k.p else "Q")


def _raised_entries(maps: dict, k):
    """(f, matrix) for every entry of every matrix maps[f], raised by one."""
    for f, mat in maps.items():
        for i, j in iproduct(range(mat.shape[0]), range(mat.shape[1])):
            bad = np.array(mat, copy=True)
            bad[i, j] = coerce(k, bad[i, j] + 1)
            yield f, bad


def _automorphism_fixtures(k):
    """Precosheaves whose maps are algebra automorphisms, each valid, with
    one map replaced by a second automorphism: every map stays an algebra
    map, so only the functor laws can fail.  k[Z/3] on B(Z/3) with
    g -> g^2, and k x k on A2 with the swap of the factors."""
    kz3, kk = group_algebra([3], k), field_product(k, 2)
    square = k.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    swap = k.array([[0, 1], [1, 0]])
    for pre, auto in ((constant_precosheaf(one_object_group(3), kz3), square),
                      (constant_precosheaf(poset_a2(), kk), swap)):
        yield pre
        for f, h in pre.maps.items():
            yield AlgebraPrecosheaf(pre.base, pre.algebras,
                                    {**pre.maps, f: AlgHom(h.source, h.target, auto)})


@law_fields
def test_precosheaf_validator_matches_reference(k):
    """On the automorphism fixtures and on every single-entry corruption of
    the maps of the augmentation precosheaf, violation lists agree in code,
    message, witness and order."""
    pres = list(_automorphism_fixtures(k))
    aug = a2_augmentation_precosheaf(k)
    pres += [AlgebraPrecosheaf(aug.base, aug.algebras,
                               {**aug.maps, f: AlgHom(aug.on(f).source, aug.on(f).target, bad)})
             for f, bad in _raised_entries({f: h.matrix for f, h in aug.maps.items()}, k)]
    seen = set()
    for pre in pres:
        got = validate_precosheaf(pre)
        assert got.as_dict() == reference_validate_precosheaf(pre).as_dict()
        seen |= {v.message for v in got.violations}
    assert {"map at identity is not the identity", "A(fg) != A(g) . A(f)"} <= seen


@law_fields
def test_module_system_validators_match_references_on_raised_entries(k):
    """Every single-entry corruption of the maps of the regular systems."""
    seen = set()
    for cat in CATS:
        pre = constant_precosheaf(cat, group_algebra([2], k))
        for sys_ in (regular_bimodule_system(pre), regular_right_module_system(pre)):
            for f, bad in _raised_entries(sys_.maps, k):
                edited = _edited(sys_, maps={f: bad})
                for new, old in ((validate_bimodule, reference_validate_bimodule),
                                 (validate_right_module, reference_validate_right_module)):
                    got = new(edited)
                    assert got.as_dict() == old(edited).as_dict()
                    seen |= {v.message for v in got.violations}
    assert {"module map at identity is not the identity", "M(fg) != M(g) . M(f)"} <= seen


def reference_disjoint_fiber_category(n) -> FinCategory:
    """The fiber enumerator as written before it was built from
    `underlying_group_category`: the oracle for its table order."""
    k = n.precosheaf.field
    p = k.characteristic
    mor, identity, compose = {}, {}, {}
    for x in n.base.objects:
        elems = k.vectors(n.at(x).dim)
        for e in elems:
            mor[(x, e)] = (x, x)
        identity[x] = (x, tuple(0 for _ in range(n.at(x).dim)))
        for e in elems:
            for g in elems:
                compose[((x, e), (x, g))] = (x, tuple((a + b) % p for a, b in zip(e, g)))
    return FinCategory(tuple(n.base.objects), mor, identity, compose, name="N_disjoint")


@pytest.mark.parametrize("cat", CATS, ids=lambda c: c.name)
def test_disjoint_fiber_tables_keep_their_order(cat):
    for pre in (constant_precosheaf(cat, group_algebra([2], F2)),
                constant_precosheaf(cat, field_product(F3, 2))):
        n = regular_right_module_system(pre)
        got, want = disjoint_fiber_category(n), reference_disjoint_fiber_category(n)
        assert got.objects == want.objects and got.name == want.name
        assert list(got.mor.items()) == list(want.mor.items())
        assert list(got.identity.items()) == list(want.identity.items())
        assert list(got.compose.items()) == list(want.compose.items())
