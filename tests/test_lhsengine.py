import tracemalloc
from itertools import product as iproduct
from pathlib import Path

import numpy as np
import pytest

from catext.extcheck import check_extension, fiber_extension
from catext.fdalgebra import dual_numbers, field_algebra, group_algebra
from catext.fincat import FinCategory
from catext.coeffsys import abelian_group_category
from catext.homengine import (CatModule, bar_pullback, cat_ext_dims, constant_module,
                              group_cohomology_dims, nerve_cohomology_dims,
                              representable_module, restrict, validate_cat_module)
from catext.lhsengine import (_LhsContext, abutment, e2_page, fiber_restriction,
                              h_local_system, lhs_report)
from catext.presets import (F2, F3, QQ, constant_precosheaf, discrete_category,
                            one_object_group, poset_a2, regular_right_module_system,
                            trivial_category, zero_right_module_system)
from test_homengine import greedy_generators


def point_fixture(coeff=F2):
    ct = trivial_category()
    at = constant_precosheaf(ct, field_algebra(F2))
    nt = regular_right_module_system(at)
    ext = fiber_extension(ct, at, nt)
    return ct, at, nt, ext, constant_module(ext.base, coeff), constant_module(ext.total, coeff)


def a2_fixture(coeff=F2, module="regular"):
    c = poset_a2()
    a = constant_precosheaf(c, field_algebra(F2))
    n = (regular_right_module_system(a) if module == "regular"
         else zero_right_module_system(a))
    ext = fiber_extension(c, a, n)
    return c, a, n, ext, constant_module(ext.base, coeff), constant_module(ext.total, coeff)


# -- fiber restriction -------------------------------------------------------------

def test_fiber_restriction_constant_coefficients():
    c, a, n, ext, g, f = point_fixture()
    fx = fiber_restriction(n, f, "*")
    assert list(fx.cat.mor) == [("*", (0,)), ("*", (1,))]  # Z/2
    assert fx.dims == {"*": 1}
    assert validate_cat_module(fx).ok
    assert all(F2.equal(m, F2.eye(1)) for m in fx.mats.values())


def test_fiber_restriction_zero_fiber():
    c, a, n, ext, g, f = a2_fixture(module="zero")
    fx = fiber_restriction(n, f, "0")
    assert len(fx.cat.mor) == 1
    assert fx.dims["0"] == f.dims["0"]


def test_fiber_restriction_reads_action_from_composition():
    c, a, n, ext, g, f = point_fixture()
    # restricted representable module: action matrices read off the table
    rep = representable_module(ext.total, F2, "*")
    fx = fiber_restriction(n, rep, "*")
    assert validate_cat_module(fx).ok
    lift = ext.iota.on_mor(("*", (1,)))
    assert F2.equal(fx.on(("*", (1,))), rep.on(lift))
    assert not F2.equal(fx.on(("*", (1,))), F2.eye(fx.dims["*"]))  # genuinely nontrivial


# -- local systems -------------------------------------------------------------------

def test_local_system_degree_zero_is_invariants():
    c, a, n, ext, g, f = point_fixture()
    h0 = h_local_system(c, a, n, f, 0)
    assert h0.module.dims == {"*": 1}
    assert validate_cat_module(h0.module).ok
    for u in ext.base.mor:
        assert F2.equal(h0.module.on(u), F2.eye(1))


def test_local_system_zero_fibers():
    c, a, n, ext, g, f = a2_fixture(module="zero")
    h0 = h_local_system(c, a, n, f, 0)
    assert h0.module.dims == {x: f.dims[x] for x in c.objects}
    assert validate_cat_module(h0.module).ok
    for q in (1, 2):
        hq = h_local_system(c, a, n, f, q)
        assert all(d == 0 for d in hq.module.dims.values())


def test_local_system_degree_zero_invariants_of_twisted_module():
    # with a representable coefficient module the fiber acts nontrivially;
    # H^0 must be the invariant subspace, computed here independently as
    # the kernel of (action - identity)
    from catext.exactlin import Matrix, kernel_basis
    c, a, n, ext, g, f = point_fixture()
    rep = representable_module(ext.total, F2, "*")
    fx = fiber_restriction(n, rep, "*")
    stacked = np.concatenate(
        [F2.reduce(fx.on(m) - F2.eye(fx.dims["*"])) for m in fx.cat.mor], axis=0)
    inv_dim = len(kernel_basis(Matrix(F2, stacked)))
    h0 = h_local_system(c, a, n, rep, 0)
    assert h0.module.dims["*"] == inv_dim
    assert validate_cat_module(h0.module).ok


def test_local_system_positive_degree_zero_component_acts_by_zero():
    c, a, n, ext, g, f = point_fixture()
    for q in (1, 2):
        hq = h_local_system(c, a, n, f, q)
        assert hq.module.dims == {"*": 1}
        assert validate_cat_module(hq.module).ok
        assert F2.is_zero(hq.module.on(((0,), "id")))
        assert F2.equal(hq.module.on(((1,), "id")), F2.eye(1))


def pullback(ctx, lift, q: int, cochains=None) -> np.ndarray:
    """`bar_pullback` of a lift on the given cochains of C^q(N(y); F(y)), by
    default on its identity matrix: then the result is the matrix of the
    pullback, which the oracles build."""
    x, y = ctx.c.mor[lift[-1]]
    fx, fy = ctx.fibers[x], ctx.fibers[y]
    if cochains is None:
        cochains = ctx.k.eye((len(fy.mor) - 1) ** q * ctx.f.dims[y])
    return bar_pullback(ctx.k, fx, fy, ctx.alpha(lift), ctx.f.on(lift), cochains, q)


def test_pullback_along_zero_homomorphism_is_zero():
    # alpha = 0 sends every tuple of non-zero elements to a tuple of zeros,
    # where normalized cochains vanish
    c, a, n, ext, g, f = point_fixture()
    ctx = _LhsContext(c, a, n, f, qmax=2)
    for q in (1, 2):
        mat = pullback(ctx, ctx.canonical_lift(((0,), "id")), q)
        assert mat.shape == (1, 1)
        assert F2.is_zero(mat)
        ident = pullback(ctx, ctx.canonical_lift(((1,), "id")), q)
        assert F2.equal(ident, F2.eye(1))


@pytest.mark.parametrize("make", [point_fixture, a2_fixture], ids=["pt", "a2"])
def test_local_system_functorial(make):
    c, a, n, ext, g, f = make()
    for q in range(3):
        hq = h_local_system(c, a, n, f, q)
        assert validate_cat_module(hq.module).ok


def test_lift_independence_point_fixture():
    c, a, n, ext, g, f = point_fixture()
    ctx = _LhsContext(c, a, n, f, qmax=2)
    for q in range(3):
        for base_mor in ext.base.mor:
            lifts = [m for m in ext.total.mor if ext.pi.on_mor(m) == base_mor]
            assert len(lifts) == 2
            maps = [ctx.induced_class_map(lift, q) for lift in lifts]
            for other in maps[1:]:
                assert F2.equal(maps[0], other)


def test_lift_independence_a2_fixture():
    c, a, n, ext, g, f = a2_fixture()
    ctx = _LhsContext(c, a, n, f, qmax=2)
    for q in range(3):
        for base_mor in ext.base.mor:
            lifts = [m for m in ext.total.mor if ext.pi.on_mor(m) == base_mor]
            maps = [ctx.induced_class_map(lift, q) for lift in lifts]
            for other in maps[1:]:
                assert F2.equal(maps[0], other)


# -- E2 and abutment -------------------------------------------------------------------

def test_e2_zero_fibers_concentrated_in_row_zero():
    c, a, n, ext, g, f = a2_fixture(module="zero")
    table = e2_page(c, a, n, g, f, 2, 2)
    base_ext = cat_ext_dims(ext.base, g, restrict_along_iso(ext, f), 2)
    for p in range(3):
        assert table[(p, 0)] == base_ext[p]
        for q in (1, 2):
            assert table[(p, q)] == 0


def reference_alpha(ctx, lift) -> list:
    """The fiber map of a lift (r, m, f) as computed before it was read from
    the table of Gr(A, N): m -> N(f)(m) . r through the module's matrices, on
    fiber positions."""
    r, _, fbase = lift
    x, y = ctx.c.mor[fbase]
    kc = ctx.n.precosheaf.field
    nf = ctx.n.on(fbase)
    right_r = ctx.n.at(y).right_of(kc.array(r)) if ctx.n.at(y).dim else None

    def apply(m: tuple) -> tuple:
        if ctx.n.at(y).dim == 0:
            return ()
        img = kc.matmul(right_r, kc.matmul(nf, kc.array(m)))
        return tuple(int(v) for v in img)
    pos_y = ctx.fibers[y].index.pos
    return [pos_y[(y, apply(m))] for _, m in ctx.fibers[x].index.labels]


def _alpha_fixtures() -> list:
    """(name, A, N) of the LHS problem files and of LHS fixtures with
    non-identity algebra maps, Klein fibers, a zero module and F3."""
    from catext import cliio
    from catext.fdalgebra import group_algebra
    from catext.presets import a2_augmentation_precosheaf
    out = []
    for path in sorted((Path(__file__).resolve().parent.parent / "problems").glob("*.yaml")):
        built = cliio.build(cliio.parse(path.read_text()))
        if built.right_module is not None:
            out.append((path.stem, built.precosheaf, built.right_module))
    a2_kz2 = constant_precosheaf(poset_a2(), group_algebra([2], F2))
    for name, a in [("a2-aug", a2_augmentation_precosheaf(F2)), ("a2-kz2", a2_kz2),
                    ("bz2-kz2", constant_precosheaf(one_object_group(2), group_algebra([2], F2))),
                    ("pt-f3", constant_precosheaf(trivial_category(), field_algebra(F3)))]:
        out.append((name, a, regular_right_module_system(a)))
    out.append(("a2-kz2-zero", a2_kz2, zero_right_module_system(a2_kz2)))
    return out


ALPHA_FIXTURES = _alpha_fixtures()


@pytest.mark.parametrize("a,n", [t[1:] for t in ALPHA_FIXTURES],
                         ids=[t[0] for t in ALPHA_FIXTURES])
def test_alpha_read_from_table_matches_module_formula(a, n):
    """For every lift of every Gr(A) morphism."""
    c = a.base
    ext = n.extension
    ctx = _LhsContext(c, a, n, constant_module(ext.total, a.field), qmax=0)
    lifts = 0
    for u in ext.base.mor:
        for lift in (v for v in ext.total.mor if ext.pi.on_mor(v) == u):
            assert ctx.alpha(lift) == reference_alpha(ctx, lift)
            lifts += 1
    assert lifts == len(ext.total.mor)


@pytest.mark.parametrize("a,n", [t[1:] for t in ALPHA_FIXTURES],
                         ids=[t[0] for t in ALPHA_FIXTURES])
def test_fiber_bar_route_equals_both_nerve_routes(a, n):
    """On every fiber N(x), with constant coefficients and with Hom(-, x) of
    Gr(A, N) restricted (on which the fiber acts non-trivially)."""
    ext = n.extension
    for x in a.base.objects:
        for f in (constant_module(ext.total, a.field), representable_module(ext.total, a.field, x)):
            fx = fiber_restriction(n, f, x)
            bar = group_cohomology_dims(fx.cat, fx, 2)
            assert bar == nerve_cohomology_dims(fx.cat, fx, 2, normalized=True)
            assert bar == nerve_cohomology_dims(fx.cat, fx, 2)


def loop_pullback_matrix(ctx, lift, q: int) -> np.ndarray:
    """The pullback of a lift built one q-tuple at a time, on lists of tuples
    of non-identity fiber positions and a dict of their indices: the oracle
    `bar_pullback` is compared against."""
    x, y = ctx.c.mor[lift[-1]]
    phi, al = ctx.f.on(lift), ctx.alpha(lift)
    nvx, nvy = ctx.f.dims[x], ctx.f.dims[y]

    def tuples(fiber) -> list:
        e = fiber.index.pos[fiber.identity[fiber.objects[0]]]
        return list(iproduct([g for g in range(len(fiber.mor)) if g != e], repeat=q))
    tx, ty = tuples(ctx.fibers[x]), tuples(ctx.fibers[y])
    iy = {t: i for i, t in enumerate(ty)}
    mat = ctx.k.zeros(len(tx) * nvx, len(ty) * nvy)
    if nvx and nvy:
        for i, t in enumerate(tx):
            j = iy.get(tuple(al[m] for m in t))
            if j is not None:
                mat[i * nvx:(i + 1) * nvx, j * nvy:(j + 1) * nvy] = phi
    return mat


@pytest.mark.parametrize("a,n", [t[1:] for t in ALPHA_FIXTURES],
                         ids=[t[0] for t in ALPHA_FIXTURES])
def test_pullback_matches_loop_oracle(a, n):
    """For every lift at q <= 2, with constant coefficients over the prime
    field and over Q and with each Hom(-, x) of Gr(A, N): on the identity
    cochains the pullback is the oracle's matrix (over Q an object array with
    Fraction(0) where alpha hits the identity), on other cochains it is that
    matrix times them, and writing into it leaves F(lift) as it was."""
    ext = n.extension
    for f in (constant_module(ext.total, a.field), constant_module(ext.total, QQ),
              *(representable_module(ext.total, a.field, x) for x in a.base.objects)):
        ctx = _LhsContext(a.base, a, n, f, qmax=0)
        k = f.field
        for lift in ext.total.mor:
            kept = np.array(f.on(lift), copy=True)
            for q in range(3):
                got, want = pullback(ctx, lift, q), loop_pullback_matrix(ctx, lift, q)
                assert got.dtype == want.dtype and got.shape == want.shape, (lift, q)
                assert np.array_equal(got, want), (lift, q)
                assert list(map(type, got.flat)) == list(map(type, want.flat)), (lift, q)
                cochains = k.array(np.arange(want.shape[1] * 2).reshape(-1, 2) % 3)
                assert np.array_equal(pullback(ctx, lift, q, cochains), k.matmul(want, cochains))
                got[...] = 1
                assert np.array_equal(f.on(lift), kept), (lift, q)


def test_pullback_allocates_no_dense_matrix():
    """(Z/2)^3 over F2 at q = 4 with trivial coefficients: pulling 15
    cochains back along the identity peaks far below the 2401 x 2401 int64
    matrix (46 MB) of the pullback."""
    g = abelian_group_category((2, 2, 2), "*")
    cochains = F2.array(np.arange(2401 * 15).reshape(2401, 15) % 2)
    tracemalloc.start()
    try:
        got = bar_pullback(F2, g, g, list(range(8)), F2.eye(1), cochains, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, cochains)
    assert peak < 2401 * 2401 * 8 // 20


@pytest.mark.parametrize("a,n", [t[1:] for t in ALPHA_FIXTURES],
                         ids=[t[0] for t in ALPHA_FIXTURES])
def test_fiber_generators_are_the_greedy_ones(a, n):
    """The fiber builder names the generators the greedy search would find."""
    for x, fiber in n.fibers.items():
        e = fiber.index.pos[fiber.identity[x]]
        assert n.fiber_generators[x] == greedy_generators(fiber.index.table, e).tolist()


def restrict_along_iso(ext, f):
    """Transport a module over Gr(A, 0) through the forgetful isomorphism."""
    from catext.fincat import CatFunctor
    fun = CatFunctor(ext.base, ext.total,
                     {x: x for x in ext.base.objects},
                     {(r, fb): (r, (), fb) for (r, fb) in ext.base.mor})
    return restrict(f, fun)


def test_modules_must_live_over_gr_an_and_gr_a():
    """The categories are compared as objects first and by their morphisms
    when the objects differ: a module over an equal copy is accepted, one
    over another category is refused."""
    c, a, n, ext, g, f = point_fixture()
    total = ext.total
    copy = FinCategory(total.objects, dict(total.mor), dict(total.identity), dict(total.compose))
    assert e2_page(c, a, n, g, constant_module(copy, F2), 1, 1) == e2_page(c, a, n, g, f, 1, 1)
    with pytest.raises(ValueError, match=r"^coefficient module is not over Gr\(A, N\)$"):
        e2_page(c, a, n, g, constant_module(ext.base, F2), 1, 1)
    with pytest.raises(ValueError, match=r"^weight module is not over Gr\(A\)$"):
        e2_page(c, a, n, f, f, 1, 1)



@pytest.mark.parametrize("entry", [
    lambda c, a, n, g, f: h_local_system(c, a, n, f, 0),
    lambda c, a, n, g, f: e2_page(c, a, n, g, f, 1, 1),
    lambda c, a, n, g, f: abutment(c, a, n, g, f, 1),
    lambda c, a, n, g, f: lhs_report(c, a, n, g, f, (1, 1, 1))],
    ids=["h-local-system", "e2-page", "abutment", "lhs-report"])
def test_entry_points_refuse_a_category_or_precosheaf_of_another_system(entry):
    """Every entry point reads the extension kept on n, so c and a must be
    n's category and precosheaf: a precosheaf over discrete(2) and F3, or
    another category, is refused as the constructions checks refuse it;
    equal copies are accepted."""
    c, a, n, ext, g, f = a2_fixture()
    other = constant_precosheaf(discrete_category(2), field_algebra(F3))
    for bad_c, bad_a in [(c, other), (trivial_category(), a)]:
        with pytest.raises(ValueError, match="^the category and precosheaf must be those of"):
            entry(bad_c, bad_a, n, g, f)
    copy = poset_a2()
    entry(copy, constant_precosheaf(copy, field_algebra(F2)), n, g, f)

def test_weight_that_is_not_a_module_is_an_input_error():
    """A weight whose matrices break the functor law is refused with its
    first violation before any resolution: the sum of r's coordinates on
    Gr(A) of the dual numbers is not multiplicative."""
    c = trivial_category()
    a = constant_precosheaf(c, dual_numbers(F2))
    n = regular_right_module_system(a)
    ext = fiber_extension(c, a, n)
    w = CatModule(ext.base, F2, {"*": 1},
                  {u: F2.array([[sum(u[0]) % 2]]) for u in ext.base.mor}, name="w")
    first = validate_cat_module(w).violations[0]
    with pytest.raises(ValueError, match=r"^weight module is not a module over Gr\(A\): ") as err:
        e2_page(c, a, n, w, constant_module(ext.total, F2), 1, 1)
    assert str(err.value).endswith(str(first))


def test_abutment_zero_fibers_matches_base():
    c, a, n, ext, g, f = a2_fixture(module="zero")
    abut = abutment(c, a, n, g, f, 3)
    assert abut == cat_ext_dims(ext.base, g, restrict_along_iso(ext, f), 3)


def test_abutment_degree_zero_for_constants_is_one():
    c, a, n, ext, g, f = point_fixture()
    assert abutment(c, a, n, g, f, 0)[0] == 1


def test_report_zero_fibers_all_equal():
    c, a, n, ext, g, f = a2_fixture(module="zero")
    rep = lhs_report(c, a, n, g, f, (3, 3, 3))
    assert rep.verdicts == ["equal"] * 4
    assert rep.collapse in ("row", "empty")
    assert rep.ok


def test_report_semisimple_fibers_collapse():
    # fibers of order 2, coefficients in characteristic 3
    for make in (point_fixture, a2_fixture):
        c, a, n, ext, g, f = make(coeff=F3)
        rep = lhs_report(c, a, n, g, f, (2, 2, 2))
        assert all(rep.e2.get((p, q), 0) == 0 for p in range(3) for q in (1, 2))
        assert rep.verdicts == ["equal"] * 3


def test_report_point_fixture_never_violates():
    c, a, n, ext, g, f = point_fixture()
    rep = lhs_report(c, a, n, g, f, (2, 2, 2))
    assert all(v in ("equal", "bounded") for v in rep.verdicts)
    assert rep.ok
    for m in range(3):
        assert rep.e2_diagonal_sum(m) >= rep.abutment_dims[m]


def test_report_group_base_full_row():
    c = one_object_group(2)
    a = constant_precosheaf(c, field_algebra(F2))
    n = regular_right_module_system(a)
    ext = fiber_extension(c, a, n)
    assert check_extension(ext).ok
    g = constant_module(ext.base, F2)
    f = constant_module(ext.total, F2)
    rep = lhs_report(c, a, n, g, f, (2, 2, 2))
    assert [rep.e2[(p, 0)] for p in range(3)] == [1, 1, 1]
    assert rep.abutment_dims == [1, 1, 1]
    assert rep.verdicts == ["equal"] * 3
    # cross-check the abutment with the independent nerve route
    assert nerve_cohomology_dims(ext.total, f, 2) == rep.abutment_dims


def test_report_twisted_weight_multi_row():
    c = one_object_group(2)
    a = constant_precosheaf(c, field_algebra(F2))
    n = regular_right_module_system(a)
    ext = fiber_extension(c, a, n)
    T = CatModule(ext.base, F2, {"*": 1},
                  {u: F2.array([[u[0][0]]]) for u in ext.base.mor}, name="T")
    assert validate_cat_module(T).ok
    f = constant_module(ext.total, F2)
    rep = lhs_report(c, a, n, T, f, (2, 2, 2))
    assert rep.collapse == "none"
    assert rep.ok
    for m in range(3):
        assert rep.e2_diagonal_sum(m) >= rep.abutment_dims[m]


def test_caps_are_raised_to_total_degree():
    c, a, n, ext, g, f = point_fixture()
    rep = lhs_report(c, a, n, g, f, (0, 0, 2))
    assert rep.caps == (2, 2, 2)
    assert rep.ok


def test_report_over_non_constant_precosheaf():
    # augmentation precosheaf: the algebra maps are genuinely non-identity,
    # so the composition transport and the alpha twist are fully exercised
    from catext.extcheck import check_extension as check_ext
    from catext.presets import a2_augmentation_precosheaf
    pre = a2_augmentation_precosheaf(F2)
    c = pre.base
    n = regular_right_module_system(pre)
    ext = fiber_extension(c, pre, n)
    assert len(ext.total.mor) == 24 and len(ext.base.mor) == 8
    assert check_ext(ext).ok
    f = constant_module(ext.total, F2)
    rep = lhs_report(c, pre, n, constant_module(ext.base, F2), f, (2, 2, 2))
    assert rep.verdicts == ["equal"] * 3
    ctx = _LhsContext(c, pre, n, f, qmax=2)
    for q in range(3):
        assert validate_cat_module(ctx.local_system(q).module).ok
        for bm in ext.base.mor:
            lifts = [m for m in ext.total.mor if ext.pi.on_mor(m) == bm]
            maps = [ctx.induced_class_map(lift, q) for lift in lifts]
            for other in maps[1:]:
                assert F2.equal(maps[0], other)


def test_report_representable_weight_with_group_coefficients():
    # A2 base with k[Z/2] coefficients, Klein fibers, projective weight:
    # the page is a single column whose dims independently match the abutment
    from catext.fdalgebra import group_algebra
    c = poset_a2()
    a = constant_precosheaf(c, group_algebra([2], F2))
    n = regular_right_module_system(a)
    ext = fiber_extension(c, a, n)
    g = representable_module(ext.base, F2, "1")
    f = constant_module(ext.total, F2)
    rep = lhs_report(c, a, n, g, f, (2, 2, 2))
    assert rep.collapse == "column"
    assert [rep.e2[(0, q)] for q in range(3)] == [1, 2, 3]
    assert rep.abutment_dims == [1, 2, 3]
    assert rep.verdicts == ["equal"] * 3
