import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from catext import constructions
from catext.constructions import (check_composition_antihom, check_degeneration,
                                  extension_algebra, gr_algebra, gr_bimodule,
                                  gr_right_module, skew_algebra)
from catext.coeffsys import PrecosheafModule, validate_bimodule, validate_right_module
from catext.exactlin import FieldSpec
from catext.fdalgebra import (AlgHom, AlgModule, FDAlgebra, dual_numbers, field_algebra,
                              group_algebra, join_constants, opposite_algebra,
                              regular_bimodule, trivial_extension, upper_triangular_algebra,
                              validate_algebra)
from catext.fincat import CatFunctor, FinCategory, linearize, validate_category
from catext.presets import (F2, F3, QQ, a2_augmentation_precosheaf, constant_precosheaf,
                            cyclic_monoid, discrete_category, field_product, one_object_group,
                            poset_a2, precosheaf_from, projection_bimodule_system,
                            regular_bimodule_system, regular_right_module_system,
                            trivial_category, zero_bimodule_system, zero_right_module_system)
from test_coeffsys import forget_left_action
from test_exactlin import coerce
from test_fincat import is_isomorphism


def fixtures_bimodule():
    """(category, precosheaf, bimodule) triples used across these tests."""
    out = []
    ct = trivial_category()
    at = constant_precosheaf(ct, field_algebra(F2))
    out.append((ct, at, regular_bimodule_system(at)))
    c2 = poset_a2()
    a2 = constant_precosheaf(c2, field_algebra(F2))
    out.append((c2, a2, regular_bimodule_system(a2)))
    aug = a2_augmentation_precosheaf(F2)
    out.append((poset_a2(), aug, regular_bimodule_system(aug)))
    cz = one_object_group(2)
    az = constant_precosheaf(cz, group_algebra([2], F2))
    out.append((cz, az, regular_bimodule_system(az)))
    pb = projection_bimodule_system(F2)
    out.append((pb.base, pb.precosheaf, pb))
    return out


# -- skew algebra ---------------------------------------------------------------

def test_skew_trivial_category_is_lambda():
    ct = trivial_category()
    lam = group_algebra([2], F3)
    sk = skew_algebra(ct, constant_precosheaf(ct, lam))
    assert sk.dim == lam.dim
    assert F3.equal(sk.structure, lam.structure)
    assert F3.equal(sk.unit, lam.unit)


def test_skew_constant_equals_linearize():
    c = poset_a2()
    sk = skew_algebra(c, constant_precosheaf(c, field_algebra(F2)))
    lin = linearize(c, F2)
    assert sk.dim == lin.dim == 3
    assert F2.equal(sk.structure, lin.structure)
    assert F2.equal(sk.unit, lin.unit)


def test_skew_z2_endomorphisms_is_group_algebra():
    c = one_object_group(2)
    sk = skew_algebra(c, constant_precosheaf(c, field_algebra(F2)))
    ga = group_algebra([2], F2)
    assert sk.dim == 2
    assert F2.equal(sk.structure, ga.structure)


def test_skew_dimension_formula():
    aug = a2_augmentation_precosheaf(F2)
    sk = skew_algebra(aug.base, aug)
    assert sk.dim == sum(aug.at(aug.base.cod(f)).dim for f in aug.base.mor)
    assert validate_algebra(sk).ok


# -- extension algebra ------------------------------------------------------------

@pytest.mark.parametrize("c,a,m", fixtures_bimodule(),
                         ids=["pt-reg", "a2-reg", "a2-aug-reg", "bz2-kz2-reg", "pt-proj"])
def test_extension_algebra_associative_unital(c, a, m):
    ext = extension_algebra(c, a, m)
    assert validate_algebra(ext).ok
    assert ext.dim == sum(a.at(c.cod(f)).dim + m.at(c.cod(f)).dim for f in c.mor)


def test_extension_degenerates_to_trivial_extension():
    ct = trivial_category()
    at = constant_precosheaf(ct, field_algebra(F2))
    mt = regular_bimodule_system(at)
    assert check_degeneration("trivial-ext", ct, at, mt).passed


def test_extension_degenerates_to_skew():
    c = poset_a2()
    a = constant_precosheaf(c, field_algebra(F2))
    assert check_degeneration("skew", c, a, zero_bimodule_system(a)).passed


def test_extension_product_by_hand_on_a2():
    # component at a of (s,n at a) * (r,m at i0) with r = m = s = n = 1:
    # t = s A(a)(r) = 1 and w = s.M(a)(m) + n.A(a)(r) = 1 + 1 = 0 over F2
    c = poset_a2()
    a = constant_precosheaf(c, field_algebra(F2))
    m = regular_bimodule_system(a)
    ext = extension_algebra(c, a, m)
    idx = {b: t for t, b in enumerate(ext.basis_labels)}
    u = F2.zeros(ext.dim)  # (1,1) at a
    u[idx[("a", "a", 0)]] = 1
    u[idx[("a", "m", 0)]] = 1
    v = F2.zeros(ext.dim)  # (1,1) at i0
    v[idx[("i0", "a", 0)]] = 1
    v[idx[("i0", "m", 0)]] = 1
    prod = ext.mul(u, v)   # u * v is supported at i0 then a = a
    assert prod[idx[("a", "a", 0)]] == 1
    assert prod[idx[("a", "m", 0)]] == 0


def test_extension_unit_is_sum_of_block_units():
    c = poset_a2()
    a = a2_augmentation_precosheaf(F2)
    m = regular_bimodule_system(a)
    ext = extension_algebra(c, a, m)
    idx = {b: t for t, b in enumerate(ext.basis_labels)}
    expected = F2.zeros(ext.dim)
    for x in c.objects:
        ux = a.at(x).unit
        for i in range(a.at(x).dim):
            expected[idx[(c.identity[x], "a", i)]] = ux[i]
    assert F2.equal(ext.unit, expected)


def test_extension_works_over_rationals():
    ct = trivial_category()
    at = constant_precosheaf(ct, field_algebra(QQ))
    mt = regular_bimodule_system(at)
    ext = extension_algebra(ct, at, mt)
    assert validate_algebra(ext).ok
    te = trivial_extension(field_algebra(QQ),
                           regular_bimodule_system(at).at("*"))
    assert QQ.equal(ext.structure, te.structure)


# -- Grothendieck constructions -----------------------------------------------------

def test_gr_algebra_point():
    ct = trivial_category()
    ga = gr_algebra(ct, constant_precosheaf(ct, field_algebra(F2)))
    assert len(ga.mor) == 2
    assert validate_category(ga).ok
    # multiplicative monoid {0, 1}
    z, o = ((0,), "id"), ((1,), "id")
    assert ga.then(z, o) == z
    assert ga.then(o, o) == o
    assert ga.identity["*"] == o


def test_gr_algebra_a2_count():
    c = poset_a2()
    ga = gr_algebra(c, constant_precosheaf(c, field_algebra(F2)))
    assert len(ga.mor) == 6
    assert validate_category(ga).ok


def test_gr_algebra_identity_law():
    c = poset_a2()
    ga = gr_algebra(c, constant_precosheaf(c, field_algebra(F2)))
    for u in ga.mor:
        assert ga.then(u, ga.identity[ga.cod(u)]) == u
        assert ga.then(ga.identity[ga.dom(u)], u) == u


def test_gr_bimodule_zero_iso_to_gr_algebra():
    c = poset_a2()
    a = constant_precosheaf(c, field_algebra(F2))
    gm = gr_bimodule(c, a, zero_bimodule_system(a))
    ga = gr_algebra(c, a)
    fun = CatFunctor(gm, ga, {x: x for x in gm.objects},
                     {(r, m, f): (r, f) for (r, m, f) in gm.mor})
    assert is_isomorphism(fun)


def test_gr_right_module_zero_iso_to_gr_algebra():
    c = poset_a2()
    a = constant_precosheaf(c, field_algebra(F2))
    gn = gr_right_module(c, a, zero_right_module_system(a))
    ga = gr_algebra(c, a)
    fun = CatFunctor(gn, ga, {x: x for x in gn.objects},
                     {(r, m, f): (r, f) for (r, m, f) in gn.mor})
    assert is_isomorphism(fun)


def test_gr_composition_laws_differ_exactly_in_left_term():
    ct = trivial_category()
    at = constant_precosheaf(ct, field_algebra(F2))
    gm = gr_bimodule(ct, at, regular_bimodule_system(at))
    gn = gr_right_module(ct, at, regular_right_module_system(at))
    one = ((1,), (1,), "id")
    assert gm.then(one, one) == ((1,), (0,), "id")
    assert gn.then(one, one) == ((1,), (0,), "id")
    u, v = ((0,), (1,), "id"), ((1,), (1,), "id")
    assert gn.then(u, v) == ((0,), (0,), "id")   # n + N(g)(m).s = 1 + 1
    assert gm.then(u, v) == ((0,), (1,), "id")   # s.M(g)(m) + n.A(g)(r) = 1 + 0


def test_gr_identity_laws_with_modules():
    ct = trivial_category()
    at = constant_precosheaf(ct, field_algebra(F2))
    for g in (gr_bimodule(ct, at, regular_bimodule_system(at)),
              gr_right_module(ct, at, regular_right_module_system(at))):
        for u in g.mor:
            assert g.then(u, g.identity[g.cod(u)]) == u
            assert g.then(g.identity[g.dom(u)], u) == u


@pytest.mark.parametrize("c,a,m", fixtures_bimodule(),
                         ids=["pt-reg", "a2-reg", "a2-aug-reg", "bz2-kz2-reg", "pt-proj"])
def test_gr_constructions_are_categories(c, a, m):
    assert validate_category(gr_bimodule(c, a, m)).ok
    assert validate_category(gr_algebra(c, a)).ok


def test_gr_needs_finite_field():
    ct = trivial_category()
    at = constant_precosheaf(ct, field_algebra(QQ))
    with pytest.raises(ValueError):
        gr_algebra(ct, at)


# -- composition transport ----------------------------------------------------------

@pytest.mark.parametrize("c,a,m", fixtures_bimodule(),
                         ids=["pt-reg", "a2-reg", "a2-aug-reg", "bz2-kz2-reg", "pt-proj"])
def test_transport_antihom_on_all_fixtures(c, a, m):
    v = check_composition_antihom(c, a, m)
    assert v.passed, v.detail


def test_transport_zero_bimodule_reduces_to_skew():
    c = poset_a2()
    a = constant_precosheaf(c, field_algebra(F2))
    v = check_composition_antihom(c, a, zero_bimodule_system(a))
    assert v.passed


def test_transport_catches_corrupted_table():
    ct = trivial_category()
    at = constant_precosheaf(ct, field_algebra(F2))
    mt = regular_bimodule_system(at)
    gm = gr_bimodule(ct, at, mt)
    key = (((1,), (0,), "id"), ((1,), (1,), "id"))
    bad = dict(gm.compose)
    bad[key] = ((0,), (0,), "id")
    mt.gr = FinCategory(gm.objects, dict(gm.mor), dict(gm.identity), bad)
    v = check_composition_antihom(ct, at, mt)
    assert not v.passed
    assert v.witness is not None


def _reference_transport(gr, ext):
    """The per-pair loop that the blocked check replaced: three embeddings
    and one product per composable pair."""
    k = ext.field
    index = {b: t for t, b in enumerate(ext.basis_labels)}

    def embed(r, mm, f):
        v = k.zeros(ext.dim)
        for i, ri in enumerate(r):
            v[index[(f, "a", i)]] = coerce(k, ri)
        for j, mj in enumerate(mm):
            v[index[(f, "m", j)]] = coerce(k, mj)
        return v
    checked = 0
    for (u, v), w in gr.compose.items():
        checked += 1
        if not k.equal(embed(*w), ext.mul(embed(*v), embed(*u))):
            return False, {"u": u, "v": v}, checked
    return True, None, checked


@pytest.mark.parametrize("terms", [1, 500, 1 << 18])
def test_transport_blocks_keep_the_per_pair_verdict(monkeypatch, terms):
    """Whatever the block size, the verdict, the witness and the count of
    pairs checked up to the first failure are the per-pair loop's."""
    monkeypatch.setattr(constructions, "BLOCK_TERMS", terms)
    c = poset_a2()
    a = constant_precosheaf(c, group_algebra([2], F2))
    m = regular_bimodule_system(a)
    gr, ext = gr_bimodule(c, a, m), extension_algebra(c, a, m)
    keys = list(gr.compose)
    cases = [gr]
    for key in (keys[0], keys[len(keys) // 2 + 3], keys[-1]):
        bad = dict(gr.compose)
        r, mm, f = bad[key]
        bad[key] = (r, tuple((x + 1) % 2 for x in mm), f)
        cases.append(FinCategory(gr.objects, dict(gr.mor), dict(gr.identity), bad))

    def check(table):
        m.gr = table
        return check_composition_antihom(c, a, m)
    for table in cases:
        v = check(table)
        assert (v.passed, v.witness, v.pairs_checked) == _reference_transport(table, ext)
    assert [check(t).passed for t in cases] == [True, False, False, False]


def test_transport_refuses_an_entry_that_names_no_morphism():
    c = poset_a2()
    a = constant_precosheaf(c, group_algebra([2], F2))
    m = regular_bimodule_system(a)
    gr = gr_bimodule(c, a, m)
    bad = dict(gr.compose)
    bad[next(iter(bad))] = "zz"
    m.gr = FinCategory(gr.objects, dict(gr.mor), dict(gr.identity), bad)
    with pytest.raises(ValueError, match="names no morphism"):
        check_composition_antihom(c, a, m)


# -- degenerations ---------------------------------------------------------------------

def test_degeneration_rationals_dual_numbers():
    ct = trivial_category()
    at = constant_precosheaf(ct, field_algebra(QQ))
    mt = regular_bimodule_system(at)
    assert check_degeneration("trivial-ext", ct, at, mt).passed


@pytest.mark.parametrize("k", [F3, QQ], ids=["F3", "Q"])
def test_failed_degeneration_names_the_first_differing_entries(k):
    """With the fiber products in the wrong order (the opposite algebra) or one
    constant changed, the witness is the first four differing (i, j, l) of
    the dense tensors in C order."""
    ct = trivial_category()
    at = constant_precosheaf(ct, upper_triangular_algebra(2, k))
    mt = regular_bimodule_system(at)
    real = extension_algebra(ct, at, mt)
    i, j, l, c = real.constants
    changed = FDAlgebra(k, real.dim, (i, j, l, np.concatenate([c[:-1], [c[-1] + 1]])),
                        real.unit, real.basis_labels)
    te = trivial_extension(at.at("*"), mt.at("*"))
    for wrong, detail in ((opposite_algebra(real), "the opposite square-zero extension"),
                          (changed, None)):
        mt.extension_algebra = wrong
        v = check_degeneration("trivial-ext", ct, at, mt)
        want = [tuple(w) for w in np.argwhere(wrong.structure != te.structure)[:4].tolist()]
        assert not v.passed and v.witness == {"entries": want} and len(want) >= 1
        assert (detail in v.detail) if detail else v.detail == "equality fails"


def test_degeneration_requires_degenerate_input():
    c = poset_a2()
    a = constant_precosheaf(c, field_algebra(F2))
    m = regular_bimodule_system(a)
    with pytest.raises(ValueError):
        check_degeneration("trivial-ext", c, a, m)
    with pytest.raises(ValueError):
        check_degeneration("skew", c, a, m)
    with pytest.raises(ValueError):
        check_degeneration("nonsense", c, a, zero_bimodule_system(a))


@pytest.mark.parametrize("check", [
    lambda c, a, m: check_composition_antihom(c, a, m),
    lambda c, a, m: check_degeneration("trivial-ext", c, a, m),
    lambda c, a, m: check_degeneration("skew", c, a, m)], ids=["antihom", "trivial-ext", "skew"])
def test_checks_refuse_a_category_or_precosheaf_of_another_system(check):
    """Both checks read the algebra kept on m, so a category or precosheaf
    other than m's is refused, also one that differs only in a map; equal
    copies of them are accepted."""
    ct = trivial_category()
    at = constant_precosheaf(ct, field_algebra(F2))
    cz, kk = one_object_group(2), field_product(F2, 2)
    az = constant_precosheaf(cz, kk)
    g = next(f for f in cz.mor if f not in cz.identity.values())
    swapped = precosheaf_from(cz, dict(az.algebras), {g: AlgHom(kk, kk, F2.array([[0, 1], [1, 0]]))})
    for c, a, m in [(poset_a2(), at, regular_bimodule_system(at)),
                    (ct, constant_precosheaf(ct, group_algebra([2], F2)), zero_bimodule_system(at)),
                    (cz, swapped, zero_bimodule_system(az))]:
        with pytest.raises(ValueError, match="those of the system"):
            check(c, a, m)
    copy = trivial_category()
    assert check(copy, constant_precosheaf(copy, field_algebra(F2)), zero_bimodule_system(at)).passed


def test_degeneration_skew_on_cyclic_monoid():
    c = cyclic_monoid(3, 1)
    a = constant_precosheaf(c, field_algebra(F2))
    assert check_degeneration("skew", c, a, zero_bimodule_system(a)).passed


def test_one_object_extension_is_opposite_square_zero_extension():
    # the square-zero extension and its opposite coincide exactly when the
    # algebra is commutative and the bimodule symmetric; over one object the
    # extension algebra must be the square-zero extension, never the opposite
    from catext.fdalgebra import opposite_algebra
    for m in (projection_bimodule_system(F2),
              regular_bimodule_system(constant_precosheaf(trivial_category(),
                                                          group_algebra([2], F2)))):
        c, a = m.base, m.precosheaf
        ext = extension_algebra(c, a, m)
        te = trivial_extension(a.at(c.objects[0]), m.at(c.objects[0]))
        k = a.field
        assert k.equal(ext.structure, te.structure)
        assert k.equal(ext.unit, te.unit)
    # asymmetric actions: the two orientations genuinely differ
    pb = projection_bimodule_system(F2)
    te = trivial_extension(pb.precosheaf.at("*"), pb.at("*"))
    assert not F2.equal(te.structure, opposite_algebra(te).structure)
    v = check_degeneration("trivial-ext", pb.base, pb.precosheaf, pb)
    assert v.passed, f"{v.detail} {v.witness}"


# -- noncommutative fibers ----------------------------------------------------------
# UT(2) is not commutative and its regular bimodule is not symmetric, so these
# fixtures tell the fiber product s A(g)(r) from its opposite A(g)(r) s.

UT2 = upper_triangular_algebra(2, F2)


def fixtures_noncommutative():
    """Precosheaves with a UT(2) fiber: constant on A2 and B(Z/2), and A2 with
    the diagonal UT(2) -> k x k along the arrow."""
    diag = AlgHom(UT2, field_product(F2, 2), F2.array([[1, 0, 0], [0, 0, 1]]))
    return [constant_precosheaf(poset_a2(), UT2),
            constant_precosheaf(one_object_group(2), UT2),
            precosheaf_from(poset_a2(), {"0": UT2, "1": diag.target}, {"a": diag})]


def _identity_block(alg, ident):
    """Structure constants and unit of alg on the basis elements at ident."""
    idx = [t for t, b in enumerate(alg.basis_labels) if b[0] == ident]
    return alg.structure[np.ix_(idx, idx, idx)], alg.unit[idx]


def test_skew_trivial_category_is_noncommutative_lambda():
    ct = trivial_category()
    sk = skew_algebra(ct, constant_precosheaf(ct, UT2))
    assert F2.equal(sk.structure, UT2.structure)
    assert F2.equal(sk.unit, UT2.unit)


def test_extension_trivial_category_is_noncommutative_trivial_extension():
    ct = trivial_category()
    a = constant_precosheaf(ct, UT2)
    m = regular_bimodule_system(a)
    ext = extension_algebra(ct, a, m)
    te = trivial_extension(UT2, regular_bimodule(UT2))
    assert F2.equal(ext.structure, te.structure)
    assert F2.equal(ext.unit, te.unit)
    assert check_degeneration("trivial-ext", ct, a, m).passed


def test_bimodule_system_keeps_gr_of_the_bimodule():
    """`PrecosheafModule.gr` is Gr(A, M) on a bimodule system and Gr(A, N) on
    a right-module system.  With a UT(2) fiber the two laws differ in the
    order of the algebra term, so the tables tell them apart."""
    ct = trivial_category()
    a = constant_precosheaf(ct, UT2)
    m, n = regular_bimodule_system(a), regular_right_module_system(a)
    for system, build, name in ((m, gr_bimodule, "Gr(A,M)"), (n, gr_right_module, "Gr(A,N)")):
        want = build(ct, a, system)
        assert (system.gr.name, system.gr.mor, system.gr.compose) == \
            (name, want.mor, want.compose)
    assert m.gr.compose != n.gr.compose


@pytest.mark.parametrize("a", fixtures_noncommutative(),
                         ids=["a2-ut2-reg", "bz2-ut2-reg", "a2-ut2-diag-reg"])
def test_noncommutative_fibers(a):
    c = a.base
    m = regular_bimodule_system(a)
    ext = extension_algebra(c, a, m)
    gr = gr_bimodule(c, a, m)
    assert validate_algebra(ext).ok
    v = check_composition_antihom(c, a, m)
    assert v.passed, f"{v.detail} {v.witness}"
    assert validate_category(gr).ok
    assert check_degeneration("skew", c, a, zero_bimodule_system(a)).passed
    # at each identity the algebras restrict to A(x) |x M(x) and A(x)
    sk = skew_algebra(c, a)
    for x in c.objects:
        te = trivial_extension(a.at(x), m.at(x))
        structure, unit = _identity_block(ext, c.identity[x])
        assert F2.equal(structure, te.structure) and F2.equal(unit, te.unit)
        structure, unit = _identity_block(sk, c.identity[x])
        assert F2.equal(structure, a.at(x).structure) and F2.equal(unit, a.at(x).unit)


# -- one Grothendieck enumerator ---------------------------------------------------
# The three enumerators as they were written out separately, kept as oracles for
# the shared one: same morphisms, identities and composites, in the same order.

def reference_gr_algebra(c, a):
    k = a.field
    fibers = {f: a.at(c.cod(f)).elements() for f in c.mor}
    mor = {}
    for f in c.mor:
        for r in fibers[f]:
            mor[(r, f)] = c.mor[f]
    identity = {x: (tuple(int(v) for v in a.at(x).unit), c.identity[x]) for x in c.objects}
    compose = {}
    for (f, g), h in c.compose.items():
        ag = a.on(g).matrix
        alg_z = a.at(c.cod(g))
        for r in fibers[f]:
            agr = k.matmul(ag, k.array(r))
            for s in fibers[g]:
                t = alg_z.mul(agr, k.array(s))
                compose[((r, f), (s, g))] = (tuple(int(v) for v in t), h)
    return mor, identity, compose


def reference_gr_bimodule(c, a, m):
    k = a.field
    fib_a = {f: a.at(c.cod(f)).elements() for f in c.mor}
    fib_m = {f: k.vectors(m.at(c.cod(f)).dim) for f in c.mor}
    mor = {}
    for f in c.mor:
        for r in fib_a[f]:
            for mm in fib_m[f]:
                mor[(r, mm, f)] = c.mor[f]
    identity = {x: (tuple(int(v) for v in a.at(x).unit), tuple(0 for _ in range(m.at(x).dim)),
                    c.identity[x]) for x in c.objects}
    compose = {}
    for (f, g), h in c.compose.items():
        z = c.cod(g)
        ag, mg = a.on(g).matrix, m.on(g)
        alg_z, mod_z = a.at(z), m.at(z)
        left_s = {s: mod_z.left_of(k.array(s)) for s in fib_a[g]} if mod_z.dim else None
        for r in fib_a[f]:
            agr = k.matmul(ag, k.array(r))
            right_agr = mod_z.right_of(agr) if mod_z.dim else None
            for mm in fib_m[f]:
                mgm = k.matmul(mg, k.array(mm)) if mod_z.dim else None
                for s in fib_a[g]:
                    t = tuple(int(v) for v in alg_z.mul(k.array(s), agr))
                    for n in fib_m[g]:
                        if mod_z.dim:
                            w = k.reduce(k.matmul(left_s[s], mgm)
                                         + k.matmul(right_agr, k.array(n)))
                            wt = tuple(int(v) for v in w)
                        else:
                            wt = ()
                        compose[((r, mm, f), (s, n, g))] = (t, wt, h)
    return mor, identity, compose


def reference_gr_right_module(c, a, n):
    k = a.field
    fib_a = {f: a.at(c.cod(f)).elements() for f in c.mor}
    fib_n = {f: k.vectors(n.at(c.cod(f)).dim) for f in c.mor}
    mor = {}
    for f in c.mor:
        for r in fib_a[f]:
            for mm in fib_n[f]:
                mor[(r, mm, f)] = c.mor[f]
    identity = {x: (tuple(int(v) for v in a.at(x).unit), tuple(0 for _ in range(n.at(x).dim)),
                    c.identity[x]) for x in c.objects}
    compose = {}
    for (f, g), h in c.compose.items():
        z = c.cod(g)
        ag, ng = a.on(g).matrix, n.on(g)
        alg_z, mod_z = a.at(z), n.at(z)
        for r in fib_a[f]:
            agr = k.matmul(ag, k.array(r))
            for mm in fib_n[f]:
                ngm = k.matmul(ng, k.array(mm)) if mod_z.dim else None
                for s in fib_a[g]:
                    t = tuple(int(v) for v in alg_z.mul(agr, k.array(s)))
                    rs = mod_z.right_of(k.array(s)) if mod_z.dim else None
                    for nn in fib_n[g]:
                        if mod_z.dim:
                            w = k.reduce(k.array(nn) + k.matmul(rs, ngm))
                            wt = tuple(int(v) for v in w)
                        else:
                            wt = ()
                        compose[((r, mm, f), (s, nn, g))] = (t, wt, h)
    return mor, identity, compose


F5, F7 = FieldSpec.prime(5), FieldSpec.prime(7)


def fixtures_enumerator():
    """(id, category, precosheaf): field (F3, F5, F7), dual-number, k[Z/2] and
    UT(2) fibers over the preset categories, plus the non-constant A2 fixtures."""
    cats = {"pt": trivial_category(), "a2": poset_a2(), "disc2": discrete_category(2),
            "cyc31": cyclic_monoid(3, 1), "bz2": one_object_group(2)}
    algs = {"f3": field_algebra(F3), "f5": field_algebra(F5), "f7": field_algebra(F7),
            "dual": dual_numbers(F2), "kz2": group_algebra([2], F2), "ut2": UT2}
    out = [(f"{cn}-{an}", c, constant_precosheaf(c, alg))
           for cn, c in cats.items() for an, alg in algs.items()]
    out.append(("a2-aug", poset_a2(), a2_augmentation_precosheaf(F2)))
    out.append(("a2-ut2-diag", poset_a2(), fixtures_noncommutative()[2]))
    return out


def _same_tables(cat, ref):
    mor, identity, compose = ref
    assert list(cat.mor.items()) == list(mor.items())
    assert cat.identity == identity
    assert list(cat.compose.items()) == list(compose.items())


@pytest.mark.parametrize("system", ["regular", "zero"])
@pytest.mark.parametrize("name,c,a", fixtures_enumerator(),
                         ids=[e[0] for e in fixtures_enumerator()])
def test_shared_enumerator_matches_reference(name, c, a, system):
    if system == "regular":
        m, n = regular_bimodule_system(a), regular_right_module_system(a)
    else:
        m, n = zero_bimodule_system(a), zero_right_module_system(a)
    _same_tables(gr_algebra(c, a), reference_gr_algebra(c, a))
    _same_tables(gr_bimodule(c, a, m), reference_gr_bimodule(c, a, m))
    _same_tables(gr_right_module(c, a, n), reference_gr_right_module(c, a, n))


def explicit_a2_systems(k):
    """k[Z/2] on both objects of A2, and a right-module and a bimodule system
    whose carriers have different dimensions at 0 and 1: the right module
    sends the trivial module k at 0 into k[Z/2] at 1 by 1 -> 1 + g, the
    bimodule sends k[Z/2] at 0 onto the trivial bimodule k at 1 by the
    augmentation."""
    c = poset_a2()
    a = constant_precosheaf(c, group_algebra([2], k))
    alg = a.at("0")
    one = [k.eye(1)] * 2  # 1 and g both act as the identity on k
    regular = regular_bimodule(alg)
    n = PrecosheafModule(a, {"0": AlgModule(alg, 1, "right", right_action=one),
                             "1": AlgModule(alg, 2, "right",
                                            right_action=regular.right_action)},
                         {"i0": k.eye(1), "i1": k.eye(2), "a": k.array([[1], [1]])})
    m = PrecosheafModule(a, {"0": regular,
                             "1": AlgModule(alg, 1, "bi", right_action=one, left_action=one)},
                         {"i0": k.eye(2), "i1": k.eye(1), "a": k.array([[1, 1]])})
    return c, a, n, m


@pytest.mark.parametrize("k", [F2, F3], ids=["F2", "F3"])
def test_shared_enumerator_matches_reference_on_explicit_a2_systems(k):
    c, a, n, m = explicit_a2_systems(k)
    assert validate_right_module(n).ok and validate_bimodule(m).ok
    _same_tables(gr_right_module(c, a, n), reference_gr_right_module(c, a, n))
    _same_tables(gr_bimodule(c, a, m), reference_gr_bimodule(c, a, m))


def _peak_bytes(build, *args):
    tracemalloc.start()
    try:
        build(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gr_bimodule_peak_memory_is_half_the_reference():
    """k^4 over F2 with the regular bimodule on the point: 65,536 entries.
    The composites are computed per pair of fibers and `compose` reuses the
    morphism labels, so the build peaks at most at half the per-element
    reference (measured: 9.6 MB against 23.9 MB)."""
    c = trivial_category()
    a = constant_precosheaf(c, field_product(F2, 4))
    m = regular_bimodule_system(a)
    assert 2 * _peak_bytes(gr_bimodule, c, a, m) <= _peak_bytes(reference_gr_bimodule, c, a, m)


def test_shared_enumerator_matches_reference_on_projection_bimodule():
    pb = projection_bimodule_system(F2)
    c, a = pb.base, pb.precosheaf
    _same_tables(gr_bimodule(c, a, pb), reference_gr_bimodule(c, a, pb))
    n = forget_left_action(pb)
    _same_tables(gr_right_module(c, a, n), reference_gr_right_module(c, a, n))


# -- per-basis builders -----------------------------------------------------------
# skew_algebra and extension_algebra as they were written with one right
# multiplication per basis index of A(cod f), kept as oracles for the builders
# that read each composable pair from one array expression.

def _entries(mat, row, col, out):
    """Constants (row + j, col, out + l, mat[l, j]) for the non-zero mat[l, j]."""
    l, j = np.nonzero(mat)
    return row + j, np.full(len(j), col), out + l, mat[l, j]


def reference_skew_algebra(c, a):
    k = a.field
    dims = {f: a.at(c.cod(f)).dim for f in c.mor}
    start = dict(zip(c.mor, np.cumsum([0, *dims.values()]).tolist()))
    blocks = []
    for (f, g), h in c.compose.items():
        ag = a.on(g).matrix
        target = a.at(c.cod(g))
        for i in range(dims[f]):
            blocks.append(_entries(target.right_mult_matrix(ag[:, i]),
                                   start[g], start[f] + i, start[h]))
    unit = k.zeros(sum(dims.values()))
    for x in c.objects:
        f = c.identity[x]
        unit[start[f]:start[f] + dims[f]] = a.at(x).unit
    return FDAlgebra(field=k, dim=len(unit), constants=join_constants(blocks), unit=unit,
                     basis_labels=tuple((f, i) for f in c.mor for i in range(dims[f])),
                     name="A[C]")


def reference_extension_algebra(c, a, m):
    k = a.field
    da = {f: a.at(c.cod(f)).dim for f in c.mor}
    dm = {f: m.at(c.cod(f)).dim for f in c.mor}
    start = dict(zip(c.mor, np.cumsum([0] + [da[f] + dm[f] for f in c.mor]).tolist()))
    mstart = {f: start[f] + da[f] for f in c.mor}
    blocks = []
    for (f, g), h in c.compose.items():
        ag = a.on(g).matrix
        alg_z, mod_z = a.at(c.cod(g)), m.at(c.cod(g))
        rights = mod_z.right_of(ag.T)
        for i in range(da[f]):
            blocks.append(_entries(alg_z.right_mult_matrix(ag[:, i]),
                                   start[g], start[f] + i, start[h]))
            blocks.append(_entries(rights[i], mstart[g], start[f] + i, mstart[h]))
        if mod_z.dim and alg_z.dim:
            w = k.matmul(np.stack(mod_z.left_action), m.on(g))
            j, l, i = np.nonzero(w)
            blocks.append((start[g] + j, mstart[f] + i, mstart[h] + l, w[j, l, i]))
    unit = k.zeros(sum(da.values()) + sum(dm.values()))
    for x in c.objects:
        f = c.identity[x]
        unit[start[f]:start[f] + da[f]] = a.at(x).unit
    basis = tuple(b for f in c.mor for b in [(f, "a", i) for i in range(da[f])]
                  + [(f, "m", j) for j in range(dm[f])])
    return FDAlgebra(field=k, dim=len(unit), constants=join_constants(blocks), unit=unit,
                     basis_labels=basis, name="A|xM")


def _assert_same_algebra(ours, ref):
    """Dimension, labels, name, and the constants and unit bit for bit:
    dtype, shape, values and the type of every element."""
    assert (ours.dim, ours.basis_labels, ours.name) == (ref.dim, ref.basis_labels, ref.name)
    for x, y in zip((*ours.constants, ours.unit), (*ref.constants, ref.unit)):
        assert (x.dtype, x.shape) == (y.dtype, y.shape)
        assert x.tolist() == y.tolist()
        assert list(map(type, x.tolist())) == list(map(type, y.tolist()))
    if ours.field is QQ:
        assert {type(v) for v in (*ours.constants[3], *ours.unit)} <= {Fraction}


def fixtures_builders():
    """(id, precosheaf, bimodule systems) over Q, F2 and F3: constant UT(2) on
    the point, A2 and B(Z/2), UT(2) -> k x k along the arrow of A2, the
    augmentation precosheaf on A2, k[Z/2] on the cyclic monoid, and the
    explicit A2 bimodule whose carriers differ at 0 and 1; each with its
    regular and zero bimodule systems, plus the projection bimodule."""
    out = []
    for name, k in (("Q", QQ), ("F2", F2), ("F3", F3)):
        ut2 = upper_triangular_algebra(2, k)
        diag = AlgHom(ut2, field_product(k, 2), k.array([[1, 0, 0], [0, 0, 1]]))
        pres = {"pt-ut2": constant_precosheaf(trivial_category(), ut2),
                "a2-ut2": constant_precosheaf(poset_a2(), ut2),
                "bz2-ut2": constant_precosheaf(one_object_group(2), ut2),
                "a2-ut2-diag": precosheaf_from(poset_a2(), {"0": ut2, "1": diag.target},
                                               {"a": diag}),
                "a2-aug": a2_augmentation_precosheaf(k),
                "cyc31-kz2": constant_precosheaf(cyclic_monoid(3, 1), group_algebra([2], k))}
        for pn, a in pres.items():
            out.append((f"{name}-{pn}", a, [regular_bimodule_system(a), zero_bimodule_system(a)]))
        _, a, _, m = explicit_a2_systems(k)
        out.append((f"{name}-a2-explicit", a, [m]))
        pb = projection_bimodule_system(k)
        out.append((f"{name}-pt-proj", pb.precosheaf, [pb]))
    return out


@pytest.mark.parametrize("name,a,systems", fixtures_builders(),
                         ids=[e[0] for e in fixtures_builders()])
def test_builders_match_per_basis_reference(name, a, systems):
    c = a.base
    _assert_same_algebra(skew_algebra(c, a), reference_skew_algebra(c, a))
    for m in systems:
        assert validate_bimodule(m).ok
        _assert_same_algebra(extension_algebra(c, a, m), reference_extension_algebra(c, a, m))


def test_bimodule_system_keeps_its_extension_algebra():
    """`PrecosheafModule.extension_algebra` is built once, on first use, and
    equals `extension_algebra` of the system."""
    a = a2_augmentation_precosheaf(F3)
    m = regular_bimodule_system(a)
    kept = m.extension_algebra
    assert m.extension_algebra is kept
    _assert_same_algebra(kept, extension_algebra(a.base, a, m))
