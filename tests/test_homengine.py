import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product as iproduct
from math import gcd
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catext.coeffsys import abelian_group_category, abelian_group_generators
from catext.exactlin import Echelon, FieldSpec, Matrix, kernel_basis, rref, solve_matrix
from catext.extcheck import fiber_extension
from catext.fdalgebra import (AlgModule, FDAlgebra, dual_numbers, field_algebra,
                              free_module, group_algebra, validate_module, zero_module)
from catext.fincat import CatFunctor, FinCategory, linearize, validate_category
from catext import homengine
from catext.homengine import (CatModule, CochainComplex, Subquotient, _act, _FreeModule,
                              bar_cochain_complex, bar_subquotients, cat_ext_dims,
                              cohomology_dims, constant_module, ext_dims,
                              ext_dims_from_resolution, free_resolution,
                              group_cohomology_dims, hom_space_dim, module_generators,
                              nerve_cochain_complex, nerve_cohomology_dims,
                              representable_module, restrict, subquotient,
                              to_algebra_module, validate_cat_module,
                              validate_resolution)
from catext.presets import (F2, F3, QQ, constant_precosheaf, cyclic_monoid,
                            discrete_category, one_object_group, poset_a2,
                            regular_right_module_system, trivial_category)
from catext.validation import Report
from test_exactlin import ReferenceEchelon, coerce

CATS = [trivial_category(), poset_a2(), one_object_group(2), discrete_category(2)]
F5 = FieldSpec.prime(5)
WORD_FIELDS = [FieldSpec.prime(65521), FieldSpec.prime(2**31 - 1)]
word_fields = pytest.mark.parametrize("field", WORD_FIELDS, ids=lambda k: f"F{k.p}")


def _residue(rnd: Random, p: int) -> int:
    """A residue from the whole range [0, p), half the time from its top
    quarter, where sums of products leave int64 first."""
    return rnd.randrange(p - 1 - p // 4 if rnd.random() < 0.5 else 0, p)


# -- cat modules -------------------------------------------------------------------

@pytest.mark.parametrize("cat", CATS, ids=lambda c: c.name)
def test_constant_module_valid(cat):
    assert validate_cat_module(constant_module(cat, F2)).ok
    assert validate_cat_module(constant_module(cat, QQ)).ok


def test_representable_module_on_a2():
    c = poset_a2()
    m = representable_module(c, F2, "1")
    assert m.dims == {"0": 1, "1": 1}
    assert validate_cat_module(m).ok
    m0 = representable_module(c, F2, "0")
    assert m0.dims == {"0": 1, "1": 0}
    assert validate_cat_module(m0).ok


def test_broken_cat_module_detected():
    c = poset_a2()
    m = constant_module(c, F2)
    m.mats["a"] = F2.zeros(1, 1)
    rep = validate_cat_module(m)
    assert rep.ok  # zero on the only arrow is still functorial
    m.mats["i0"] = F2.zeros(1, 1)
    assert not validate_cat_module(m).ok


def test_cat_module_on_a_damaged_table_reports_the_category():
    """A table entry (t, t) -> zz naming no morphism: the category's
    violations are the module's verdict, and no functor law is checked."""
    c = FinCategory(("*",), {"id": ("*", "*"), "t": ("*", "*")}, {"*": "id"},
                    {("id", "id"): "id", ("id", "t"): "t", ("t", "id"): "t", ("t", "t"): "zz"})
    m = CatModule(c, F2, {"*": 1}, {"id": F2.eye(1), "t": F2.eye(1)})
    rep = validate_cat_module(m)
    assert rep.as_dict() == validate_category(c).as_dict()
    assert [(v.message, v.witness) for v in rep.violations] == [
        ("composite not a morphism", {"f": "t", "g": "t", "h": "zz"})]


def reference_validate_cat_module(m) -> Report:
    """The module validator as written before the functor laws moved to
    `fincat.functor_failures`: the oracle for `validate_cat_module`."""
    rep = Report()
    c = m.cat
    k = m.field
    for f, (x, y) in c.mor.items():
        mat = m.mats.get(f)
        if mat is None or mat.shape != (m.dims[x], m.dims[y]):
            rep.add("shape", "matrix missing or mis-shaped", f=f)
    if not rep.ok:
        return rep
    for x in c.objects:
        if not k.equal(m.on(c.identity[x]), k.eye(m.dims[x])):
            rep.add("functor", "F(1_x) != id", object=x)
    for (f, g), h in c.compose.items():
        if not k.equal(m.on(h), k.matmul(m.on(f), m.on(g))):
            rep.add("functor", "F(fg) != F(f) F(g)", f=f, g=g)
    return rep


LAW_FIELDS = [F2, F5, FieldSpec.prime(2**31 - 1), QQ]


def _law_modules(k):
    """Valid modules with matrices of several shapes, among them the
    constant module on the 18 morphisms of Gr(A, N) of an A2 fixture."""
    c = poset_a2()
    a = constant_precosheaf(c, field_algebra(F2))
    ext = fiber_extension(c, a, regular_right_module_system(a))
    return [representable_module(cyclic_monoid(3, 1), k, "*"),
            representable_module(c, k, "1"), representable_module(c, k, "0"),
            constant_module(one_object_group(3), k), constant_module(ext.total, k)]


def _single_entry_corruptions(m):
    """Copies of m with one matrix entry raised by one, for every entry."""
    k = m.field
    for f, mat in m.mats.items():
        for i, j in iproduct(range(mat.shape[0]), range(mat.shape[1])):
            bad = np.array(mat, copy=True)
            bad[i, j] = coerce(k, bad[i, j] + 1)
            yield CatModule(m.cat, k, m.dims, {**m.mats, f: bad}, name=f"{m.name}-{f}")


@pytest.mark.parametrize("k", LAW_FIELDS, ids=lambda k: f"F{k.p}" if k.p else "Q")
def test_cat_module_validator_matches_reference(k):
    seen = 0
    for m in _law_modules(k):
        assert validate_cat_module(m).ok and reference_validate_cat_module(m).ok
        for bad in _single_entry_corruptions(m):
            want = reference_validate_cat_module(bad).as_dict()
            assert validate_cat_module(bad).as_dict() == want
            seen += not want["ok"]
    assert seen > 20
    c = poset_a2()
    broken = constant_module(c, k)
    broken.mats["i0"] = k.zeros(1, 1)
    misshaped = constant_module(c, k)
    misshaped.mats["a"] = k.zeros(2, 1)
    for m in (broken, misshaped):
        assert validate_cat_module(m).as_dict() == reference_validate_cat_module(m).as_dict()
        assert not validate_cat_module(m).ok


def test_restrict_identity_functor():
    c = poset_a2()
    m = representable_module(c, F2, "1")
    ident = CatFunctor(c, c, {x: x for x in c.objects}, {f: f for f in c.mor})
    r = restrict(m, ident)
    assert r.dims == m.dims
    assert all(F2.equal(r.on(f), m.on(f)) for f in c.mor)


def test_restrict_constant_is_constant():
    ct = trivial_category()
    at = constant_precosheaf(ct, field_algebra(F2))
    ext = fiber_extension(ct, at, regular_right_module_system(at))
    k_base = constant_module(ext.base, F2)
    res = restrict(k_base, ext.pi)
    assert res.dims == {x: 1 for x in ext.total.objects}
    assert all(F2.equal(res.on(f), F2.eye(1)) for f in ext.total.mor)
    assert validate_cat_module(res).ok


def test_restrict_along_projection_ignores_module_component():
    c = poset_a2()
    a = constant_precosheaf(c, field_algebra(F2))
    n = regular_right_module_system(a)
    ext = fiber_extension(c, a, n)
    g = representable_module(ext.base, F2, "1")
    res = restrict(g, ext.pi)
    for (r, m, f) in ext.total.mor:
        assert F2.equal(res.on((r, m, f)), g.on((r, f)))
    assert validate_cat_module(res).ok


# -- conversion to algebra modules ----------------------------------------------------

def test_to_algebra_module_constant_a2():
    c = poset_a2()
    alg = linearize(c, F2)
    mod = to_algebra_module(constant_module(c, F2), alg)
    assert mod.dim == 2
    assert validate_module(mod).ok
    # the arrow routes the component at object 1 into the component at object 0
    a_idx = list(c.mor).index("a")
    assert mod.right_action[a_idx][0, 1] == 1


def zero_cat_module(c: FinCategory, k: FieldSpec) -> CatModule:
    return CatModule(c, k, {x: 0 for x in c.objects},
                     {f: k.zeros(0, 0) for f in c.mor}, name="0")


def test_to_algebra_module_zero():
    c = poset_a2()
    mod = to_algebra_module(zero_cat_module(c, F2), linearize(c, F2))
    assert mod.dim == 0


@pytest.mark.parametrize("cat", CATS, ids=lambda c: c.name)
def test_to_algebra_module_always_valid(cat):
    alg = linearize(cat, F2)
    for m in (constant_module(cat, F2), representable_module(cat, F2, cat.objects[0])):
        assert validate_module(to_algebra_module(m, alg)).ok


def test_representable_converts_to_projective():
    c = poset_a2()
    alg = linearize(c, F2)
    proj = to_algebra_module(representable_module(c, F2, "1"), alg)
    other = to_algebra_module(constant_module(c, F2), alg)
    assert ext_dims(alg, proj, other, 2) [1:] == [0, 0]


# -- generators and resolutions ---------------------------------------------------------

def test_generators_of_free_module_are_block_units():
    dn = dual_numbers(F2)
    cover = module_generators(free_module(dn, 2))
    assert cover.shape == (2 * dn.dim, 2 * dn.dim)  # two generators


def test_generators_of_zero_module():
    assert module_generators(free_module(dual_numbers(F2), 0)).shape == (0, 0)


def test_free_module_resolves_trivially():
    for alg in (dual_numbers(F2), linearize(poset_a2(), F3)):
        res = free_resolution(alg, free_module(alg, 1), 3)
        assert res.ranks == [1, 0, 0, 0]
        assert validate_resolution(res).ok


def test_dual_numbers_trivial_module_is_periodic():
    dn = dual_numbers(F2)
    triv = AlgModule(dn, 1, "right", right_action=[F2.eye(1), F2.zeros(1, 1)])
    res = free_resolution(dn, triv, 4)
    assert res.ranks == [1, 1, 1, 1, 1]
    assert validate_resolution(res).ok
    assert ext_dims(dn, triv, triv, 3) == [1, 1, 1, 1]


def test_semisimple_sign_module():
    kz2 = group_algebra([2], F3)
    sign = AlgModule(kz2, 1, "right", right_action=[F3.eye(1), F3.array([[2]])])
    res = free_resolution(kz2, sign, 3)
    # a free cover of a 1-dimensional module over a 2-dimensional algebra can
    # never be injective, so the ranks stay 1; Ext still vanishes upward
    assert res.ranks == [1, 1, 1, 1]
    assert validate_resolution(res).ok
    assert ext_dims(kz2, sign, sign, 2) == [1, 0, 0]
    triv = AlgModule(kz2, 1, "right", right_action=[F3.eye(1), F3.eye(1)])
    assert ext_dims(kz2, sign, triv, 2) == [0, 0, 0]
    assert ext_dims(kz2, triv, sign, 2) == [0, 0, 0]


def test_ext_of_free_module():
    alg = group_algebra([2], F2)
    g = free_module(alg, 2)
    f = AlgModule(alg, 1, "right", right_action=[F2.eye(1), F2.eye(1)])
    dims = ext_dims(alg, g, f, 2)
    assert dims == [2 * f.dim, 0, 0]


def test_ext_rejects_side_mismatch():
    alg = group_algebra([2], F2)
    with pytest.raises(ValueError):
        ext_dims(alg, free_module(alg, 1, side="left"), free_module(alg, 1), 1)


def test_resolution_over_rationals():
    dn = dual_numbers(QQ)
    triv = AlgModule(dn, 1, "right", right_action=[QQ.eye(1), QQ.zeros(1, 1)])
    assert ext_dims(dn, triv, triv, 2) == [1, 1, 1]


@pytest.mark.parametrize("field", [F2, QQ], ids=["F2", "Q"])
def test_zero_dimensional_algebra_resolves(field):
    """Over the zero algebra every free module is 0: a stage's rank is not
    its cover's width over dim A = 0, and Ext vanishes."""
    zero = FDAlgebra(field, 0, ([], [], [], []), field.zeros(0))
    mod = zero_module(zero)
    res = free_resolution(zero, mod, 3)
    assert res.ranks == [0, 0, 0, 0]
    assert validate_resolution(res).ok
    assert ext_dims_from_resolution(res, mod, 2) == [0, 0, 0]


# -- the resolution against one built from free_module action matrices ------------------

def reference_module_generators(mod: AlgModule, span_rows=None) -> list:
    """module_generators with the span closure of free_module's time: every
    image rho_j v of a seed v is added to the span one at a time."""
    k = mod.algebra.field

    def generated(vecs, ech=None):
        ech = ech if ech is not None else Echelon(k, mod.dim)
        for v in vecs:
            for rho in mod.right_action:
                ech.add(k.matmul(rho, v))
        return ech

    if span_rows is None:
        full_rank, basis_rows = mod.dim, k.eye(mod.dim)
    else:
        target = Echelon(k, mod.dim)
        for row in span_rows:
            target.add(row)
        full_rank, basis_rows = target.rank, target.basis_matrix()
    if full_rank == 0:
        return []
    d = mod.algebra.dim
    candidates = []
    if span_rows is None and mod.dim % d == 0:
        for off in range(0, mod.dim, d):
            v = k.zeros(mod.dim)
            v[off:off + d] = mod.algebra.unit
            candidates.append(v)
    candidates.extend(np.array(row, copy=True) for row in basis_rows)
    gens, ech = [], Echelon(k, mod.dim)
    for v in candidates:
        if ech.rank == full_rank:
            break
        if not ech.contains(v):
            gens.append(v)
            generated([v], ech)
    i = 0
    while i < len(gens) and len(gens) > 1:
        rest = gens[:i] + gens[i + 1:]
        if generated(rest).rank == full_rank:
            gens = rest
        else:
            i += 1
    if len(gens) > 1:
        summed = k.reduce(sum(gens[1:], start=np.array(gens[0], copy=True)))
        if generated([summed]).rank == full_rank:
            gens = [summed]
    return gens


def reference_free_resolution(algebra: FDAlgebra, module: AlgModule, length: int):
    """(ranks, aug, gens, boundaries) with every kernel stage searched in
    free_module(algebra, rank) and every column t d + j of a cover computed
    as rho_j v_t, one column at a time."""
    k, d = algebra.field, algebra.dim

    def cover(mod, vecs):
        out = k.zeros(mod.dim, len(vecs) * d)
        for t, v in enumerate(vecs):
            for j in range(d):
                out[:, t * d + j] = k.matmul(mod.right_action[j], v)
        return out

    g0 = reference_module_generators(module)
    ranks, gens, boundaries = [len(g0)], [], []
    aug = prev = cover(module, g0)
    for _ in range(length):
        fmod = free_module(algebra, ranks[-1])
        ker = kernel_basis(Matrix(k, prev))
        kgens = reference_module_generators(fmod, ker) if ranks[-1] and len(ker) else []
        imgs = k.zeros(fmod.dim, len(kgens))
        for t, v in enumerate(kgens):
            imgs[:, t] = v
        prev = cover(fmod, kgens)
        ranks.append(len(kgens))
        gens.append(imgs)
        boundaries.append(prev)
    return ranks, aug, gens, boundaries


def _resolution_cases(k):
    """Algebras with right modules: category algebras with their constant and
    representable modules, a group algebra, and the dual numbers and
    k[x]/(x^3 - 2x) (a structure constant 2) acting on k^2 with x acting by 0,
    whose every stage has rank 2."""
    cases = [(dual_numbers(k), AlgModule(dual_numbers(k), 2, "right",
                                         right_action=[k.eye(2), k.zeros(2, 2)]))]
    c = k.zeros(3, 3, 3)
    for a, b in iproduct(range(3), repeat=2):
        c[a, b, a + b if a + b < 3 else a + b - 2] = coerce(k, 1 if a + b < 3 else 2)
    cubic = FDAlgebra(k, 3, (*np.nonzero(c), c[np.nonzero(c)]), k.array([1, 0, 0]))
    cases.append((cubic, AlgModule(cubic, 2, "right",
                                   right_action=[k.eye(2), k.zeros(2, 2), k.zeros(2, 2)])))
    kz = group_algebra([2, 2], k)
    cases.append((kz, AlgModule(kz, 1, "right", right_action=[k.eye(1)] * 4)))
    for cat in (cyclic_monoid(4, 2), poset_a2()):
        alg = linearize(cat, k)
        cases.append((alg, to_algebra_module(constant_module(cat, k), alg)))
        cases.append((alg, to_algebra_module(representable_module(cat, k, cat.objects[0]),
                                             alg)))
    return cases


@pytest.mark.parametrize("field", [QQ, F2, F3] + WORD_FIELDS,
                         ids=lambda k: f"F{k.p}" if k.is_prime_field else "Q")
def test_free_resolution_matches_free_module_reference(field):
    def same(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tolist() == b.tolist()

    top = 0
    for alg, mod in _resolution_cases(field):
        res = free_resolution(alg, mod, 3)
        ranks, aug, gens, boundaries = reference_free_resolution(alg, mod, 3)
        assert res.ranks == ranks
        assert same(res.aug, aug)
        read_back = [field.matmul(b.reshape(len(b), b.shape[1] // alg.dim, alg.dim), alg.unit)
                     for b in res.boundaries]
        assert len(read_back) == len(gens) and all(map(same, read_back, gens))
        assert len(res.boundaries) == len(boundaries) \
            and all(map(same, res.boundaries, boundaries))
        top = max(top, *ranks)
    assert top >= 2


def test_resolution_eliminates_each_stage_once(monkeypatch):
    """Each stage's kernel comes out of one elimination in reduced form, so no
    Echelon reads a basis back (boundaries of at most 64 rows are not
    eliminated through an Echelon either)."""
    calls = {"kernel_basis": 0, "basis_matrix": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(homengine, "kernel_basis", counted("kernel_basis", kernel_basis))
    monkeypatch.setattr(Echelon, "basis_matrix", counted("basis_matrix", Echelon.basis_matrix))
    kernel_gens = 0
    for alg, mod in _resolution_cases(F3):
        res = free_resolution(alg, mod, 3)
        assert max(b.shape[0] for b in res.boundaries) <= 64
        kernel_gens += sum(res.ranks[1:])
    assert calls == {"kernel_basis": 3 * len(_resolution_cases(F3)), "basis_matrix": 0}
    assert kernel_gens > 0



def scan_picks(mod, span_rows) -> int:
    """The number of rows the greedy scan of module_generators picks before
    any pruning, replayed with free_module's action matrices."""
    k = mod.algebra.field
    if isinstance(mod, _FreeModule):
        mod = free_module(mod.algebra, mod.rank)
    rows = k.eye(mod.dim) if span_rows is None else span_rows
    ech, picks = Echelon(k, mod.dim), 0
    for row in rows:
        if ech.rank == len(rows):
            break
        if not ech.contains(row):
            picks += 1
            for rho in mod.right_action:
                ech.add(k.matmul(rho, row))
    return picks


def test_each_pick_is_acted_on_once(monkeypatch):
    """The images of each picked row are computed once and kept: the drop
    pass, the sum test and the cover read them, so _act runs once per pick."""
    searched, acts = [], [0]
    real_act, real_search = homengine._act, homengine.module_generators

    def act(*args):
        acts[0] += 1
        return real_act(*args)

    def search(mod, span_rows=None):
        searched.append((mod, span_rows))
        return real_search(mod, span_rows)

    monkeypatch.setattr(homengine, "_act", act)
    monkeypatch.setattr(homengine, "module_generators", search)
    for alg, mod in _resolution_cases(F3):
        free_resolution(alg, mod, 3)
    monkeypatch.undo()
    picks = [scan_picks(mod, rows) for mod, rows in searched]
    assert acts[0] == sum(picks)
    assert max(picks) >= 2  # so a drop test ran

KERNEL_FIELDS = [QQ, F2, F3] + WORD_FIELDS


@st.composite
def kernel_shapes(draw, k, shape):
    """A matrix of exactly rank r: a left factor with the identity in r of its
    rows times a right factor with the identity in r of its columns, the
    other entries random and about a third of the right ones zero."""
    rnd = Random(draw(st.integers(0, 2**32 - 1)))
    rows = {"no-rows": 0, "tall": rnd.randrange(65, 100)}.get(shape, rnd.randrange(1, 13))
    cols = 0 if shape == "no-cols" else rnd.randrange(1, 13)
    r = min(rows, cols) if shape == "full-rank" else rnd.randrange(0, min(rows, cols) + 1)

    def scalar():
        return _residue(rnd, k.p) if k.is_prime_field else rnd.randint(-6, 6)

    left = k.array([[scalar() for _ in range(r)] for _ in range(rows)]).reshape(rows, r)
    right = k.array([[scalar() if rnd.random() < 2 / 3 else 0 for _ in range(cols)]
                     for _ in range(r)]).reshape(r, cols)
    left[rnd.sample(range(rows), r)] = k.eye(r)
    right[:, rnd.sample(range(cols), r)] = k.eye(r)
    return k.matmul(left, right)


@pytest.mark.parametrize("shape", ["no-rows", "no-cols", "full-rank", "tall", "small"])
@pytest.mark.parametrize("field", KERNEL_FIELDS,
                         ids=lambda k: f"F{k.p}" if k.is_prime_field else "Q")
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_reversed_kernel_is_the_reduced_basis(field, shape, data):
    a = data.draw(kernel_shapes(field, shape))
    got = kernel_basis(Matrix(field, a[:, ::-1]))[::-1, ::-1]
    ker = kernel_basis(Matrix(field, a))
    ech = Echelon(field, a.shape[1])
    if len(ker):
        ech.extend(ker)
    want = ech.basis_matrix()
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tolist() == want.tolist()


# -- free boundaries straight from the structure constants ------------------------------

def reference_free_action_matrix(algebra: FDAlgebra, imgs: np.ndarray) -> np.ndarray:
    """The per-basis loop that the product over the tensor replaced: column t*d + j is
    the image of generator t times e_j, one target block at a time."""
    k = algebra.field
    d = algebra.dim
    rank_src = imgs.shape[1]
    out = k.zeros(imgs.shape[0], rank_src * d)
    rmats = [algebra.right_mult_matrix(k.eye(d)[j]).T for j in range(d)]
    for t in range(rank_src):
        blocks = imgs[:, t].reshape(-1, d)
        for j in range(d):
            out[:, t * d + j] = k.matmul(blocks, rmats[j]).reshape(-1)
    return out


@st.composite
def free_maps(draw, k):
    """Random structure constants (not necessarily associative) of dimension
    1-4 and generator images of 0-3 sources in a free module of rank 0-3,
    about a third of them zero columns.  Hypothesis draws only the seed."""
    rnd = Random(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 4))
    rank_tgt, rank_src = draw(st.integers(0, 3)), draw(st.integers(0, 3))

    def scalar():
        if k.is_prime_field:
            return _residue(rnd, k.p)
        return Fraction(rnd.randint(-9, 9), rnd.randint(1, 4))

    structure = k.array([[[scalar() for _ in range(d)] for _ in range(d)] for _ in range(d)])
    imgs = k.zeros(rank_tgt * d, rank_src)
    for t in range(rank_src):
        if rnd.random() < 2 / 3:
            imgs[:, t] = k.array([scalar() for _ in range(rank_tgt * d)])
    nz = np.nonzero(structure)
    return FDAlgebra(k, d, (*nz, structure[nz]), k.zeros(d)), imgs


@pytest.mark.parametrize("field", WORD_FIELDS + [F3, QQ],
                         ids=lambda k: f"F{k.p}" if k.is_prime_field else "Q")
@given(data=st.data())
def test_free_action_matrix_matches_per_basis_loop(field, data):
    alg, imgs = data.draw(free_maps(field))
    free = _FreeModule(alg, imgs.shape[0] // alg.dim, imgs.shape[0])
    got = np.concatenate([field.zeros(0, free.dim), *(_act(free, v) for v in imgs.T)]).T
    want = reference_free_action_matrix(alg, imgs)
    assert got.shape == want.shape == (imgs.shape[0], imgs.shape[1] * alg.dim)
    assert got.tolist() == want.tolist()


# -- cat-level Ext and the three cohomology routes ---------------------------------------

def test_cat_ext_point():
    c = trivial_category()
    g = constant_module(c, F3)
    assert cat_ext_dims(c, g, g, 2) == [1, 0, 0]


def test_cat_ext_point_vector_spaces():
    # over the one-morphism category modules are plain vector spaces:
    # Ext^0 = hom dimension, nothing higher
    c = trivial_category()
    v2 = CatModule(c, F3, {"*": 2}, {"id": F3.eye(2)})
    v3 = CatModule(c, F3, {"*": 3}, {"id": F3.eye(3)})
    assert validate_cat_module(v2).ok and validate_cat_module(v3).ok
    assert cat_ext_dims(c, v2, v3, 2) == [6, 0, 0]
    assert cat_ext_dims(c, v2, v2, 2) == [4, 0, 0]


def test_cat_ext_a2_constant():
    c = poset_a2()
    k = constant_module(c, F2)
    assert cat_ext_dims(c, k, k, 3) == [1, 0, 0, 0]


def test_cat_ext_group_case():
    c = one_object_group(2)
    k = constant_module(c, F2)
    assert cat_ext_dims(c, k, k, 3) == [1, 1, 1, 1]


@pytest.mark.parametrize("cat", CATS, ids=lambda c: c.name)
@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "Q"])
def test_oracle_equivalence_constant(cat, field):
    f = constant_module(cat, field)
    assert cohomology_dims(cat, f, 3) == nerve_cohomology_dims(cat, f, 3)


@pytest.mark.parametrize("cat", CATS, ids=lambda c: c.name)
def test_oracle_equivalence_representable(cat):
    f = representable_module(cat, F2, cat.objects[-1])
    assert cohomology_dims(cat, f, 3) == nerve_cohomology_dims(cat, f, 3)


def test_oracle_equivalence_with_zero_component():
    # Hom(-, source) on the arrow category vanishes at the sink
    c = poset_a2()
    r0 = representable_module(c, F2, "0")
    assert r0.dims == {"0": 1, "1": 0}
    assert cohomology_dims(c, r0, 3) == nerve_cohomology_dims(c, r0, 3) == [0, 0, 0, 0]
    assert cat_ext_dims(c, r0, r0, 2) == [1, 0, 0]


@pytest.mark.parametrize("cat", CATS, ids=lambda c: c.name)
def test_normalized_nerve_agrees(cat):
    f = constant_module(cat, F2)
    assert nerve_cohomology_dims(cat, f, 3) == \
        nerve_cohomology_dims(cat, f, 3, normalized=True)


def test_nerve_complex_is_a_complex():
    for cat in CATS:
        cc = nerve_cochain_complex(cat, constant_module(cat, F2), 3)
        assert cc.validate().ok


def test_two_point_category_counts_components():
    c = discrete_category(2)
    assert nerve_cohomology_dims(c, constant_module(c, F2), 3) == [2, 0, 0, 0]


# -- group cohomology ----------------------------------------------------------------------

def group(*orders):
    return abelian_group_category(orders, "*")


def trivial(c, k, dim=1):
    """k^dim with every morphism of c acting as the identity."""
    return CatModule(c, k, {x: dim for x in c.objects}, {f: k.eye(dim) for f in c.mor})


def test_trivial_group():
    g = group(1)
    assert group_cohomology_dims(g, trivial(g, F2, 3), 3) == [3, 0, 0, 0]


def test_z2_mod2():
    g = group(2)
    assert group_cohomology_dims(g, trivial(g, F2), 4) == [1, 1, 1, 1, 1]


def test_z2_mod3():
    g = group(2)
    assert group_cohomology_dims(g, trivial(g, F3), 4) == [1, 0, 0, 0, 0]


def test_z3_mod3():
    g = group(3)
    assert group_cohomology_dims(g, trivial(g, F3), 4) == [1, 1, 1, 1, 1]


def test_klein_group_mod2_degree_counts():
    # H^*(Z/2 x Z/2; F2) is polynomial on two degree-1 classes
    g = group(2, 2)
    assert group_cohomology_dims(g, trivial(g, F2), 2) == [1, 2, 3]


def test_nontrivial_group_module():
    g = group(2)
    sign = CatModule(g, F3, {"*": 1}, {("*", (0,)): F3.eye(1), ("*", (1,)): F3.array([[2]])})
    assert validate_cat_module(sign).ok
    assert group_cohomology_dims(g, sign, 3) == [0, 0, 0, 0]


def test_bar_complex_is_complex():
    g = group(2, 2)
    cc = bar_cochain_complex(g, trivial(g, F2), 2)
    assert cc.validate().ok


def test_bar_complex_is_normalized():
    # C^q = maps((G - 0)^q, V): (|G| - 1)^q dim V coordinates, not |G|^q dim V
    z5 = group(5)
    assert bar_cochain_complex(z5, trivial(z5, F5), 4).dims == \
        [1, 4, 16, 64, 256, 1024]
    klein3 = group(2, 2, 2)
    assert bar_cochain_complex(klein3, trivial(klein3, F2), 3).dims[:4] == \
        [1, 7, 49, 343]
    one = group(1)
    for nv in (0, 1, 3):
        assert bar_cochain_complex(one, trivial(one, F3, nv), 3).dims == \
            [nv, 0, 0, 0, 0]


def s3() -> FinCategory:
    """The symmetric group on three letters as a one-object category."""
    perms = list(permutations(range(3)))
    compose = {(("*", f), ("*", g)): ("*", tuple(g[f[i]] for i in range(3)))
               for f in perms for g in perms}
    return FinCategory(("*",), {("*", f): ("*", "*") for f in perms},
                       {"*": ("*", (0, 1, 2))}, compose, name="S3")


@pytest.mark.parametrize("cat,message", [
    (poset_a2(), "one-object category"),
    (cyclic_monoid(3, 1), "a table row is not a permutation"),
    (s3(), "the table is not symmetric"),
], ids=["a2", "cyclic31", "s3"])
def test_bar_route_needs_an_abelian_group(cat, message):
    assert validate_category(cat).ok
    f = constant_module(cat, F2)
    for call in (lambda: bar_cochain_complex(cat, f, 1),
                 lambda: group_cohomology_dims(cat, f, 1)):
        with pytest.raises(ValueError, match=message):
            call()


def latin_square() -> FinCategory:
    """One object, morphisms t0, t1, t2 with t0 named the identity, composed
    by (ti, tj) -> t((-i - j) mod 3): a symmetric Latin square with no
    identity element, so every row is a permutation but it is no group."""
    t = [f"t{i}" for i in range(3)]
    return FinCategory(("*",), {f: ("*", "*") for f in t}, {"*": "t0"},
                       {(t[i], t[j]): t[(-i - j) % 3] for i in range(3) for j in range(3)},
                       name="latin3")


@pytest.mark.parametrize("call,verb", [(group_cohomology_dims, "take bar cochains of"),
                                       (nerve_cohomology_dims, "take nerve cochains of"),
                                       (cohomology_dims, "linearize")],
                         ids=["bar", "nerve", "resolution"])
def test_cohomology_routes_refuse_a_table_that_is_no_category(call, verb):
    c = latin_square()
    rep = validate_category(c)
    assert {v.code for v in rep.violations} == {"identity-law", "associativity"}
    with pytest.raises(ValueError, match=f"^cannot {verb} invalid category: "
                                         r"\[identity-law\] left identity fails \(f='t1'\)\n"):
        call(c, constant_module(c, F3), 3)


def test_bar_route_reads_preset_groups():
    # B(Z/3) from the presets is abelian_group_category((3,)) under other labels
    for cat in (one_object_group(3), group(3)):
        assert group_cohomology_dims(cat, constant_module(cat, F3), 3) == [1, 1, 1, 1]


@pytest.fixture
def small_cells(monkeypatch):
    """CELL_LIMIT lowered to 10,000 entries; records the shape of every
    matrix the field allocates."""
    monkeypatch.setattr(homengine, "CELL_LIMIT", 10_000)
    shapes = []

    def zeros(self, *shape, _orig=FieldSpec.zeros):
        shapes.append(shape)
        return _orig(self, *shape)
    monkeypatch.setattr(FieldSpec, "zeros", zeros)
    return shapes


def _largest(shapes) -> int:
    return max((int(np.prod(s)) for s in shapes), default=0)


def test_nerve_differentials_are_checked_before_allocation(small_cells):
    # unnormalized B(Z/12): chains 1, 12, 144, 1728, so d[2] is 1728 x 144
    c = one_object_group(12)
    f = constant_module(c, F2)
    assert nerve_cohomology_dims(c, f, 1) == [1, 1]
    small_cells.clear()
    with pytest.raises(ValueError, match="^cochain differential of 1728 x 144 = 248832 "
                                         "entries exceeds desk-scale limit 10000$"):
        nerve_cohomology_dims(c, f, 2)
    assert _largest(small_cells) <= 10_000


def test_bar_differentials_are_checked_before_allocation(small_cells):
    # (Z/2)^3: normalized cochains 1, 7, 49, 343, so d[2] is 343 x 49
    g = group(2, 2, 2)
    f = trivial(g, F2)
    assert group_cohomology_dims(g, f, 1) == [1, 3]
    small_cells.clear()
    with pytest.raises(ValueError, match="^cochain differential of 343 x 49 = 16807 "
                                         "entries exceeds desk-scale limit 10000$"):
        bar_cochain_complex(g, f, 3)
    assert _largest(small_cells) <= 10_000


def reference_bar_cochain_complex(c: FinCategory, module: CatModule,
                                  max_q: int) -> CochainComplex:
    """Unnormalized bar cochains C^q = maps(G^q, V) of the group c, on tuples
    of morphisms multiplied with `then`: the oracle the normalized complex is
    compared against."""
    k = module.field
    nv = module.dims["*"]
    tuples = [list(iproduct(c.mor, repeat=q)) for q in range(max_q + 2)]
    index = [{t: i for i, t in enumerate(ts)} for ts in tuples]
    dims = [len(ts) * nv for ts in tuples]
    diffs = []
    minus = coerce(k, -1)
    for q in range(max_q + 1):
        mat = k.zeros(dims[q + 1], dims[q])
        if nv:
            for t_new in tuples[q + 1]:
                r0 = index[q + 1][t_new] * nv

                def accumulate(t_old, block):
                    c0 = index[q][t_old] * nv
                    mat[r0:r0 + nv, c0:c0 + nv] = k.reduce(
                        mat[r0:r0 + nv, c0:c0 + nv] + block)

                accumulate(t_new[1:], module.on(t_new[0]))
                sign = k.one
                for i in range(1, q + 1):
                    sign = coerce(k, sign * minus)
                    merged = t_new[:i - 1] + (c.then(t_new[i - 1], t_new[i]),) + t_new[i + 1:]
                    accumulate(merged, sign * k.eye(nv))
                sign = coerce(k, sign * minus)
                accumulate(t_new[:q], sign * k.eye(nv))
        diffs.append(mat)
    return CochainComplex(k, dims, diffs)


@st.composite
def groups_with_modules(draw):
    """One or two cyclic factors of order 1-4, over F2, F3 or F5, with a
    trivial module of dimension 0-2 or the sign module of an even factor."""
    orders = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))
    field = draw(st.sampled_from([F2, F3, F5]))
    g = group(*orders)
    even = [i for i, n in enumerate(orders) if n % 2 == 0]
    if even and draw(st.booleans()):
        i = draw(st.sampled_from(even))
        p = field.characteristic
        return g, CatModule(g, field, {"*": 1}, {(x, e): field.array([[(-1) ** e[i] % p]])
                                                 for x, e in g.mor})
    return g, trivial(g, field, draw(st.integers(0, 2)))


@settings(deadline=None)
@given(groups_with_modules())
def test_normalized_bar_complex_matches_unnormalized(case):
    g, module = case
    assert validate_cat_module(module).ok
    # up to degree 3, lowered for the larger groups so that the reference's
    # top cochain space keeps at most 2000 coordinates (|G| = 16 would need
    # a dense 65536 x 4096 differential at degree 3)
    max_q = max([1] + [q for q in (2, 3)
                       if len(g.mor) ** (q + 1) * max(module.dims["*"], 1) <= 2000])
    normalized = bar_cochain_complex(g, module, max_q)
    assert normalized.validate().ok
    reference = reference_bar_cochain_complex(g, module, max_q)
    assert normalized.cohomology_dims() == reference.cohomology_dims()


def loop_bar_cochain_complex(c: FinCategory, module: CatModule,
                             max_q: int) -> CochainComplex:
    """The normalized bar complex built one (q + 1)-tuple at a time, on lists
    of tuples of non-identity positions and dicts of their indices: the oracle
    the arithmetic layout of `bar_cochain_complex` is compared against."""
    k = module.field
    nv = module.dims["*"]
    table = c.index.table.tolist()
    e = c.index.pos[c.identity["*"]]
    tuples = [list(iproduct([g for g in range(len(table)) if g != e], repeat=q))
              for q in range(max_q + 2)]
    index = [{t: i for i, t in enumerate(ts)} for ts in tuples]
    dims = [len(ts) * nv for ts in tuples]
    acts = [module.on(f) for f in c.index.labels]
    diag = np.arange(nv)
    diffs = []
    for q in range(max_q + 1):
        mat = k.zeros(dims[q + 1], dims[q])
        if nv:
            for r, t_new in enumerate(tuples[q + 1]):
                r0 = r * nv
                c0 = index[q][t_new[1:]] * nv
                mat[r0:r0 + nv, c0:c0 + nv] += acts[t_new[0]]
                sign = 1
                for i in range(1, q + 1):
                    sign = -sign
                    g = table[t_new[i - 1]][t_new[i]]
                    if g != e:
                        c0 = index[q][t_new[:i - 1] + (g,) + t_new[i + 1:]] * nv
                        mat[r0 + diag, c0 + diag] += sign
                c0 = index[q][t_new[:q]] * nv
                mat[r0 + diag, c0 + diag] -= sign
        diffs.append(k.reduce(mat))
    return CochainComplex(k, dims, diffs)


def _assert_bar_matches_loop(g, module, max_q):
    """Equal dims, and differentials of equal dtype, shape and entries."""
    got = bar_cochain_complex(g, module, max_q)
    want = loop_bar_cochain_complex(g, module, max_q)
    assert got.dims == want.dims
    assert len(got.d) == len(want.d) == max_q + 1
    for q, (mat, ref) in enumerate(zip(got.d, want.d)):
        assert mat.dtype == ref.dtype and mat.shape == ref.shape, q
        assert np.array_equal(mat, ref), q


@settings(deadline=None)
@given(groups_with_modules())
def test_bar_differentials_match_loop_oracle(case):
    g, module = case
    # up to degree 3, lowered so that the loop oracle fills at most 20,000 cells
    m, nv = len(g.mor) - 1, module.dims["*"]
    _assert_bar_matches_loop(g, module, max([1] + [q for q in (2, 3)
                                                   if m ** (2 * q + 1) * nv * nv <= 20_000]))


def _rotation(g: FinCategory, k: FieldSpec) -> CatModule:
    """Z/4 acting on k^2 by powers of the quarter turn."""
    turn = np.array([[0, -1], [1, 0]])
    return CatModule(g, k, {"*": 2}, {(x, e): k.array(np.linalg.matrix_power(turn, e[0]))
                                      for x, e in g.mor})


@pytest.mark.parametrize("field", [FieldSpec.prime(2**31 - 1), QQ], ids=["F2^31-1", "Q"])
@pytest.mark.parametrize("orders,module", [
    ((4,), "rotation"), ((2, 3), "sign"), ((2, 2), "trivial"), ((1,), "trivial")])
def test_bar_differentials_match_loop_oracle_over_large_fields(field, orders, module):
    g = group(*orders)
    if module == "rotation":
        f = _rotation(g, field)
    elif module == "sign":
        f = CatModule(g, field, {"*": 1}, {(x, e): field.array([[(-1) ** e[0]]])
                                           for x, e in g.mor})
    else:
        f = trivial(g, field, 2)
    assert validate_cat_module(f).ok
    _assert_bar_matches_loop(g, f, 3)


@given(st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=2),
       st.integers(0, 2), st.sampled_from([F2, F3]))
def test_h0_of_trivial_module_is_the_module(orders, dim, field):
    g = group(*orders)
    dims = group_cohomology_dims(g, trivial(g, field, dim), 1)
    assert dims[0] == dim


def test_three_engines_agree_on_one_object_groupoid():
    cat = one_object_group(2)
    k = constant_module(cat, F2)
    a = cohomology_dims(cat, k, 3)
    b = nerve_cohomology_dims(cat, k, 3)
    c = group_cohomology_dims(cat, k, 3)
    assert a == b == c


# -- hom spaces as the degree-zero oracle ------------------------------------------------

@pytest.mark.parametrize("cat", CATS, ids=lambda c: c.name)
def test_ext0_equals_nat_transform_dimension(cat):
    alg = linearize(cat, F2)
    mods = [to_algebra_module(constant_module(cat, F2), alg),
            to_algebra_module(representable_module(cat, F2, cat.objects[0]), alg)]
    for g in mods:
        for f in mods:
            assert ext_dims(alg, g, f, 0)[0] == hom_space_dim(g, f)


def test_ext_of_a_simple_module_tells_hom_blocks_from_their_transposes():
    # S_1 on A2 is k at "1" and 0 at "0".  Its resolution has ranks 1, 2, 2.
    # With rank-1 stages a Hom differential built from the transposed action
    # matrices is the transpose of the right one and has its rank, but here
    # it gives Ext^0 = Ext^1 = 1 instead of 0
    c = poset_a2()
    s1 = CatModule(c, F2, {"0": 0, "1": 1},
                   {"i0": F2.zeros(0, 0), "i1": F2.eye(1), "a": F2.zeros(0, 1)}, name="S1")
    assert validate_cat_module(s1).ok
    k = constant_module(c, F2)
    assert cat_ext_dims(c, s1, k, 2) == [0, 0, 0]
    alg = linearize(c, F2)
    assert hom_space_dim(to_algebra_module(s1, alg), to_algebra_module(k, alg)) == 0


# -- word-size primes: the resolution route against the nerve route and Hom ------------

def _py_inverse(rows: list, p: int):
    """Inverse of a square matrix mod p by Gauss-Jordan on Python ints, or
    None when it is singular."""
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c] % p), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], p - 2, p)
        aug[c] = [v * inv % p for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [(v - f * w) % p for v, w in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def _conjugated_diagonal(rnd: Random, field: FieldSpec, diag: list) -> np.ndarray:
    """P diag(diag) P^-1 for a random invertible P with entries from all of [0, p)."""
    p, n = field.p, len(diag)
    while True:
        P = [[_residue(rnd, p) for _ in range(n)] for _ in range(n)]
        P_inv = _py_inverse(P, p)
        if P_inv is not None:
            break
    return field.array([[sum(P[i][l] * diag[l] * P_inv[l][j] for l in range(n)) % p
                         for j in range(n)] for i in range(n)])


@word_fields
@given(seed=st.integers(0, 2**32 - 1), n0=st.integers(1, 3), n1=st.integers(1, 3))
def test_word_size_oracle_equivalence_random_arrow(field, seed, n0, n1):
    rnd = Random(seed)
    c = poset_a2()
    arrow = field.array([[_residue(rnd, field.p) for _ in range(n1)] for _ in range(n0)])
    f = CatModule(c, field, {"0": n0, "1": n1},
                  {"i0": field.eye(n0), "i1": field.eye(n1), "a": arrow})
    assert validate_cat_module(f).ok
    assert cohomology_dims(c, f, 3) == nerve_cohomology_dims(c, f, 3)


@word_fields
@given(seed=st.integers(0, 2**32 - 1), signs=st.lists(st.sampled_from([1, -1]),
                                                       min_size=1, max_size=3))
def test_word_size_oracle_equivalence_conjugated_involution(field, seed, signs):
    c = one_object_group(2)
    g = _conjugated_diagonal(Random(seed), field, [s % field.p for s in signs])
    n = len(signs)
    f = CatModule(c, field, {"*": n}, {"t0": field.eye(n), "t1": g})
    assert validate_cat_module(f).ok
    dims = cohomology_dims(c, f, 3)
    assert dims == nerve_cohomology_dims(c, f, 3)
    # p is odd, so the invariants are the +1 eigenspace and nothing is higher
    assert dims == [signs.count(1), 0, 0, 0]


@word_fields
@given(seed=st.integers(0, 2**32 - 1),
       diag=st.lists(st.sampled_from([1, -1, 0]), min_size=1, max_size=3))
def test_word_size_ext0_equals_hom_on_cyclic_monoid(field, seed, diag):
    c = cyclic_monoid(3, 1)  # t^3 = t
    alg = linearize(c, field)

    def module(t):
        n = t.shape[0]
        return CatModule(c, field, {"*": n}, {"t0": field.eye(n), "t1": t,
                                              "t2": field.matmul(t, t)})
    twisted = module(_conjugated_diagonal(Random(seed), field, [v % field.p for v in diag]))
    mods = [constant_module(c, field), module(field.eye(2)), twisted]
    assert all(validate_cat_module(m).ok for m in mods)
    mods = [to_algebra_module(m, alg) for m in mods]
    for g in mods:
        for f in mods:
            assert ext_dims(alg, g, f, 0)[0] == hom_space_dim(g, f)


# -- random small categories: the resolution route against the nerve route and Hom -----

def random_poset(rnd: Random) -> FinCategory:
    """The transitive closure of a random DAG on 1-4 objects as a category: one
    arrow x -> y for each x <= y."""
    objs = tuple(str(x) for x in range(rnd.randint(1, 4)))
    below = {(x, x) for x in objs}
    below |= {(x, y) for x in objs for y in objs if x < y and rnd.random() < 0.5}
    for z in objs:  # Warshall: close under paths through z
        below |= {(x, y) for x, w in below if w == z for v, y in below if v == z}
    return FinCategory(objs, {f"{x}<{y}": (x, y) for x, y in below},
                       {x: f"{x}<{x}" for x in objs},
                       {(f"{x}<{y}", f"{y}<{z}"): f"{x}<{z}"
                        for x, y in below for v, z in below if v == y}, name="poset")


def random_small_category(rnd: Random) -> FinCategory:
    kind = rnd.randrange(3)
    if kind == 0:
        return random_poset(rnd)
    if kind == 1:
        return abelian_group_category((rnd.randint(1, 3), rnd.randint(1, 3)), "*")
    n = rnd.randint(1, 4)
    return cyclic_monoid(n, rnd.randrange(n))


@given(seed=st.integers(0, 2**32 - 1))
def test_random_small_categories(seed):
    """On a random poset, abelian group or cyclic monoid over F2, F3, F5 or
    F7 with constant or representable coefficients: the resolution route
    agrees with the nerve route, the constant module's resolution is exact,
    and Ext^0 is the dimension of the Hom space."""
    rnd = Random(seed)
    c = random_small_category(rnd)
    assert validate_category(c).ok
    field = FieldSpec.prime(rnd.choice([2, 3, 5, 7]))
    k = constant_module(c, field)
    f = k if rnd.random() < 0.5 else representable_module(c, field, rnd.choice(c.objects))
    dims = cohomology_dims(c, f, 2)
    assert dims == nerve_cohomology_dims(c, f, 2)
    alg = linearize(c, field)
    g = to_algebra_module(k, alg)
    assert validate_resolution(free_resolution(alg, g, 3)).ok
    assert dims[0] == hom_space_dim(g, to_algebra_module(f, alg))


# -- subquotients ---------------------------------------------------------------------

NOT_A_COCYCLE = "^vector is not a cocycle modulo boundaries$"


def test_subquotient_projection_roundtrip():
    g = group(3)
    cc = bar_cochain_complex(g, trivial(g, F3), 2)
    sq = subquotient(F3, cc.d[1], cc.d[0])
    assert sq.dim == 1
    coords = sq.project(sq.reps)
    assert F3.equal(coords, F3.eye(1))
    # c = delta_1 is no cocycle: (dc)(1, 1) = c(1) - c(2) + c(1) = 2
    bad = F3.zeros(cc.dims[1])
    bad[0] = 1
    assert not F3.is_zero(F3.matmul(cc.d[1], bad)), "fixture accidentally a cocycle"
    with pytest.raises(ValueError):
        sq.project(bad)


def test_subquotient_with_no_classes_refuses_non_cocycles():
    """H^1(Z/2; F3) = 0, and c = [1] is no cocycle: (dc)(1, 1) = c(1) + c(1) = 2.
    A subquotient with no classes still checks its input."""
    g = group(2)
    bar = bar_cochain_complex(g, trivial(g, F3), 1)
    sq = subquotient(F3, bar.d[1], bar.d[0])
    assert sq.dim == 0 and F3.matmul(bar.d[1], F3.array([1])).tolist() == [2]
    with pytest.raises(ValueError, match=NOT_A_COCYCLE):
        sq.project(F3.array([1]))
    assert sq.project(F3.zeros(1)).shape == (0, 1)


@dataclass(eq=False)
class SolverSubquotient:
    """The subquotient before it worked in kernel coordinates.  The columns of
    S = [image basis | reps] are independent.  `_rows` are independent rows
    of S and `_inverse` is the inverse of S[_rows], so v is in the span of S
    iff S x = v for x = _inverse v[_rows].  With no classes it projects
    without that check."""

    field: FieldSpec
    reps: np.ndarray
    _solver: np.ndarray
    _rows: list
    _inverse: np.ndarray
    _n_image: int

    @property
    def dim(self) -> int:
        return self.reps.shape[1]

    def project(self, vecs: np.ndarray) -> np.ndarray:
        k = self.field
        if vecs.ndim == 1:
            vecs = vecs.reshape(-1, 1)
        if self.dim == 0:
            return k.zeros(0, vecs.shape[1])
        vecs = k.reduce(vecs)
        x = k.matmul(self._inverse, vecs[self._rows])
        if not k.equal(k.matmul(self._solver, x), vecs):
            raise ValueError("vector is not a cocycle modulo boundaries")
        return x[self._n_image:, :]


def solver_subquotient(field, d_out, d_in) -> SolverSubquotient:
    """Three eliminations: the kernel basis, then the rref of [d_in | kernel]
    whose pivots are an image basis and then the representatives, then the
    rref of [S^T | I] to invert S.  The oracle of `subquotient`."""
    ambient = d_out.shape[1]
    ker = kernel_basis(Matrix(field, d_out)).T
    cols = ker if d_in is None else np.concatenate([d_in, ker], axis=1)
    picked = rref(Matrix(field, cols))[1]
    n_img = len([c for c in picked if c < cols.shape[1] - ker.shape[1]])
    solver = cols[:, picked]
    reps = solver[:, n_img:]
    if not reps.shape[1]:
        return SolverSubquotient(field, field.zeros(ambient, 0), field.zeros(ambient, 0),
                                 [], field.zeros(0, 0), n_img)
    # rref [S^T | I] = [U S^T | U] with U S^T the identity at the pivots R,
    # so U = (S[R]^T)^-1 and the inverse of S[R] is U^T
    n = solver.shape[1]
    red, rows = rref(Matrix(field, np.concatenate([solver.T, field.eye(n)], axis=1)))
    return SolverSubquotient(field, reps, solver, rows, np.array(red[:, ambient:].T), n_img)


def _assert_same_classes(got: Subquotient, want: SolverSubquotient, d_out, d_in,
                         rnd: Random) -> None:
    """The representatives of the oracle, by dtype, shape and values; its
    coordinates of random cocycles plus boundaries; and at every unit vector
    its coordinates or its refusal.  Where the oracle has no classes it does
    not check, so there a refusal is checked against d_out e != 0."""
    k = got.field
    assert (got.reps.dtype, got.reps.shape, got.reps.tolist()) == \
        (want.reps.dtype, want.reps.shape, want.reps.tolist())
    coords = k.array([[rnd.randrange(5) for _ in range(3)]
                      for _ in range(want.dim)]).reshape(want.dim, 3)
    vecs = k.matmul(want.reps, coords)
    if d_in is not None:
        y = k.array([[rnd.randrange(5) for _ in range(3)] for _ in range(d_in.shape[1])])
        vecs = k.reduce(vecs + k.matmul(d_in, y.reshape(d_in.shape[1], 3)))
    assert got.project(vecs).tolist() == want.project(vecs).tolist() == coords.tolist()
    for j in range(d_out.shape[1]):
        e = k.zeros(d_out.shape[1])
        e[j] = k.one
        if k.is_zero(k.matmul(d_out, e)):
            x, y = got.project(e), want.project(e)
            assert (x.dtype, x.shape, x.tolist()) == (y.dtype, y.shape, y.tolist()), j
            continue
        with pytest.raises(ValueError, match=NOT_A_COCYCLE):
            got.project(e)
        if want.dim:
            with pytest.raises(ValueError, match=NOT_A_COCYCLE):
                want.project(e)


@pytest.mark.parametrize("orders,field,q", [
    ((3,), F3, 1), ((3,), F3, 2), ((2, 2), F2, 2), ((5,), FieldSpec.prime(5), 1),
    ((2, 2), FieldSpec.prime(65521), 0), ((3,), FieldSpec.prime(2**31 - 1), 0), ((2,), QQ, 0),
])
def test_subquotient_projection_matches_solve(orders, field, q):
    """The kernel-coordinate projection gives the coordinates a solve against
    the oracle's [image basis | reps] gives, and the oracle's refusals."""
    g = group(*orders)
    cc = bar_cochain_complex(g, trivial(g, field, 2), q + 1)
    d_in = cc.d[q - 1] if q else None
    sq, want = subquotient(field, cc.d[q], d_in), solver_subquotient(field, cc.d[q], d_in)
    assert sq.dim > 0
    rnd = Random(q)
    coords = field.array([[rnd.randrange(5) for _ in range(3)] for _ in range(sq.dim)])
    vecs = field.matmul(sq.reps, coords)
    if q:
        y = field.array([[rnd.randrange(5) for _ in range(3)] for _ in range(d_in.shape[1])])
        vecs = field.reduce(vecs + field.matmul(d_in, y))
    assert sq.project(vecs).tolist() == coords.tolist()
    ref = solve_matrix(Matrix(field, want._solver), Matrix(field, vecs))
    assert ref[want._n_image:].tolist() == coords.tolist()
    _assert_same_classes(sq, want, cc.d[q], d_in, rnd)


def reference_subquotient(field, d_out, d_in):
    """The subquotient before it picked its columns from one rref: image
    columns, then kernel rows, each kept iff one-vector insertion grew the
    span."""
    ambient = d_out.shape[1]
    ker = kernel_basis(Matrix(field, d_out))
    ech = ReferenceEchelon(field, ambient)
    image_cols = []
    if d_in is not None:
        for j in range(d_in.shape[1]):
            col = d_in[:, j]
            if ech.add(col):
                image_cols.append(np.array(col, copy=True))
    reps = []
    for i in range(len(ker)):
        row = ker[i]
        if ech.add(row):
            reps.append(np.array(row, copy=True))
    n_img = len(image_cols)
    if not reps:
        return SolverSubquotient(field, field.zeros(ambient, 0), field.zeros(ambient, 0),
                                 [], field.zeros(0, 0), n_img)
    solver = np.stack(image_cols + reps, axis=1)
    n = solver.shape[1]
    red, rows = rref(Matrix(field, np.concatenate([solver.T, field.eye(n)], axis=1)))
    return SolverSubquotient(field, np.stack(reps, axis=1), solver, rows,
                             np.array(red[:, ambient:].T), n_img)


SUBQUOTIENT_FIELDS = [QQ] + [FieldSpec.prime(p) for p in (2, 3, 65521, 2**31 - 1)]


@st.composite
def cochain_pairs(draw):
    """(field, d_out, d_in) with d_out d_in = 0: d_in None, of rank 0 or of
    low rank, d_out sometimes injective (no kernel), and an ambient dimension
    sometimes above 64 so that the rrefs of d_out and of the oracle's
    [d_in | kernel] are blocked."""
    field = draw(st.sampled_from(SUBQUOTIENT_FIELDS))
    kind = draw(st.sampled_from(["low-rank", "none", "zero", "injective"]))
    n = draw(st.sampled_from([6, 70, 3, 10, 1, 0]))
    rnd = Random(draw(st.integers(0, 2**32 - 1)))
    width = rnd.randrange(1, 8)
    hi = field.p if field.is_prime_field else 5

    def low_rank(rows, cols, r):
        left = field.array([[rnd.randrange(hi) for _ in range(r)] for _ in range(rows)])
        right = field.array([[rnd.randrange(hi) if rnd.random() < 0.5 else 0
                              for _ in range(cols)] for _ in range(r)])
        return field.matmul(left.reshape(rows, r), right.reshape(r, cols))

    if kind == "injective":
        return field, np.concatenate([field.eye(n), low_rank(2, n, 1)]), field.zeros(n, width)
    d_in = None if kind == "none" else field.zeros(n, width) if kind == "zero" \
        else low_rank(n, width, rnd.randrange(1, 4))
    # ker(ann) = im(d_in); dropping rows of ann leaves classes to represent
    ann = field.eye(n) if d_in is None else kernel_basis(Matrix(field, d_in.T))
    mixed = field.matmul(low_rank(rnd.randrange(0, 3), len(ann), 1), ann)
    return field, np.concatenate([ann[rnd.randrange(0, 4):], mixed]), d_in


@given(cochain_pairs())
def test_subquotient_matches_one_vector_reference(pair):
    """The oracle keeps every field, dtype, shape and values, the two
    insertion loops gave; the subquotient has its representatives,
    coordinates and refusals."""
    field, d_out, d_in = pair
    want = solver_subquotient(field, d_out, d_in)
    _assert_same_subquotient(want, reference_subquotient(field, d_out, d_in))
    _assert_same_classes(subquotient(field, d_out, d_in), want, d_out, d_in, Random(0))


@given(cochain_pairs())
def test_subquotient_runs_at_most_two_eliminations(pair):
    """The kernel basis of d_out, and with d_in one rref more, of the
    boundaries in kernel coordinates: dim C^(q-1) rows.  Nothing of
    dim ker x (ambient + dim ker) is eliminated to invert a basis."""
    field, d_out, d_in = pair
    shapes = []

    def counted(fn):
        def run(m):
            shapes.append(m.a.shape)
            return fn(m)
        return run
    with pytest.MonkeyPatch.context() as mp:
        for name in ("rref", "kernel_basis"):
            mp.setattr(homengine, name, counted(getattr(homengine, name)))
        subquotient(field, d_out, d_in)
    assert shapes[0] == d_out.shape
    if d_in is None:
        assert len(shapes) == 1
    else:
        assert len(shapes) <= 2 and all(s[0] == d_in.shape[1] for s in shapes[1:]), shapes


def _assert_same_subquotient(got, want, where=()) -> None:
    """Every field equal: arrays by dtype, shape and values."""
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tolist()) == (b.dtype, b.shape, b.tolist()), \
                (*where, f.name)
        else:
            assert a == b, (*where, f.name)


# -- fiber subquotients from the generator rows of the bar differentials -------------

def greedy_generators(table: np.ndarray, e: int) -> np.ndarray:
    """Positions generating the group with composition table `table` and
    identity position e, picked greedily in position order: a position joins
    when the ones before it do not reach it.  What they reach grows from e by
    gathers table[reached][:, picked] until nothing new appears; in a finite
    group that is the subgroup they generate.  The oracle of the generators
    `abelian_group_generators` names."""
    reached = np.zeros(len(table), dtype=bool)
    reached[e] = True
    picked: list = []
    for g in range(len(table)):
        if reached[g]:
            continue
        picked.append(g)
        grown = True
        while grown:
            hit = table[reached][:, picked]
            grown = not reached[hit].all()
            reached[hit] = True
    return np.array(picked, dtype=np.int64)


def _generator_positions(c: FinCategory) -> list:
    return greedy_generators(c.index.table, c.index.pos[c.identity[c.objects[0]]]).tolist()


# every shape the bar tests build (`groups_with_modules` draws one or two
# factors of order 1-4), and F_p^3 for the fiber primes
GENERATOR_SHAPES = [*((n,) for n in range(1, 9)),
                    *((a, b) for a in range(1, 5) for b in range(1, 5)),
                    (2, 2, 2), (3, 3), (5, 5), (2, 1, 3), (3, 3, 3), (5, 5, 5), (7, 7, 7)]


@pytest.mark.parametrize("orders", GENERATOR_SHAPES)
def test_named_generators_are_the_greedy_ones(orders):
    """The unit vectors of the cyclic factors, at the positions
    `abelian_group_generators` names, are the greedy search's picks, in the
    same order; over F_p^d that is 1, p, ..., p^(d - 1)."""
    assert abelian_group_generators(orders) == _generator_positions(group(*orders))
    if len(set(orders)) == 1 and orders[0] > 1:
        assert abelian_group_generators(orders) == [orders[0] ** i for i in range(len(orders))]


@pytest.mark.parametrize("orders,count", [
    ((1,), 0), ((2,), 1), ((3,), 1), ((5,), 1), ((8,), 1), ((6,), 1),
    ((2, 2), 2), ((2, 2, 2), 3), ((3, 3), 2), ((5, 5), 2), ((2, 4), 2)])
def test_generators_generate_the_group(orders, count):
    """Named from the cyclic factors: none for the trivial group, one for a
    cyclic group, r for (Z/p)^r; what they reach from the identity by
    composing on the right is the whole group."""
    g = group(*orders)
    gens = abelian_group_generators(orders)
    assert len(gens) == count and gens == sorted(gens)
    labels = g.index.labels
    reached, frontier = {g.identity["*"]}, [g.identity["*"]]
    while frontier:
        frontier = [h for f in frontier for h in {g.then(f, labels[s]) for s in gens}
                    if h not in reached]
        reached.update(frontier)
    assert reached == set(g.mor)


def _twisted(g: FinCategory, k: FieldSpec, orders: tuple) -> CatModule:
    """k^2 with commuting actions of the cyclic factors: when p divides some
    n_i, factor i acts by the unipotent [[1, 1], [0, 1]] if p | n_i and
    trivially otherwise; else by diag(1, z_i) with z_i a root of unity of
    order gcd(n_i, p - 1)."""
    p = k.p
    if any(n % p == 0 for n in orders):
        def act(e):
            return [[1, sum(a for a, n in zip(e, orders) if n % p == 0)], [0, 1]]
    else:
        roots = []
        for n in orders:
            r, x = 1, 2
            while gcd(n, p - 1) > 1 and r == 1:
                r, x = pow(x, (p - 1) // gcd(n, p - 1), p), x + 1
            roots.append(r)

        def act(e):
            z = 1
            for r, a in zip(roots, e):
                z = z * pow(r, a, p) % p
            return [[1, 0], [0, z]]
    return CatModule(g, k, {"*": 2}, {(x, e): k.array(act(e)) for x, e in g.mor})


P31 = 2**31 - 1


@pytest.mark.parametrize("orders,p,kind", [
    ((1,), 2, "trivial"), ((1,), 65521, "twisted"), ((2,), 2, "twisted"),
    ((2,), P31, "twisted"), ((3,), 3, "twisted"), ((3,), P31, "trivial"),
    ((4,), 2, "twisted"), ((4,), 5, "twisted"), ((5,), 5, "trivial"),
    ((5,), 65521, "twisted"), ((6,), 3, "twisted"), ((6,), 7, "twisted"),
    ((7,), 7, "twisted"), ((7,), 2, "trivial"), ((8,), 2, "twisted"), ((8,), 3, "trivial"),
    ((2, 2), 2, "twisted"), ((2, 2), 3, "twisted"), ((2, 2), P31, "trivial"),
    ((2, 2, 2), 2, "trivial"), ((2, 2, 2), 2, "twisted"), ((2, 2, 2), 65521, "trivial"),
    ((2, 4), 2, "twisted"), ((2, 4), 5, "trivial"), ((3, 3), 3, "trivial"),
    ((3, 3), 3, "twisted"), ((3, 3), 7, "twisted"),
])
def test_bar_subquotients_match_subquotients_on_all_rows(orders, p, kind):
    """ker d^q from the generator rows is the kernel of all of d^q, so every
    field of each subquotient, dtype, shape and values, is the one all rows
    give, for q <= 3."""
    g, k = group(*orders), FieldSpec.prime(p)
    module = trivial(g, k) if kind == "trivial" else _twisted(g, k, orders)
    assert validate_cat_module(module).ok
    bar = bar_cochain_complex(g, module, 3)
    got = bar_subquotients(g, bar, abelian_group_generators(orders))
    assert len(got) == 4
    for q, sq in enumerate(got):
        _assert_same_subquotient(sq, subquotient(k, bar.d[q], bar.d[q - 1] if q else None), (q,))


def test_bar_subquotients_need_every_generator():
    """Mutation check: with one named generator of (Z/2)^2 dropped, the rows
    left no longer cut out the cocycles: over F2, ker d^2 grows from 4 to 5
    and H^2 reads 4 instead of 3."""
    g = group(2, 2)
    bar = bar_cochain_complex(g, trivial(g, F2), 2)
    named = abelian_group_generators((2, 2))
    gens = homengine._ranks(g)[named]
    d2 = bar.d[2].reshape(3, 9, 9)
    assert len(kernel_basis(Matrix(F2, d2[gens].reshape(-1, 9)))) == 4
    assert len(kernel_basis(Matrix(F2, d2[gens[:1]].reshape(-1, 9)))) == 5
    assert [sq.dim for sq in bar_subquotients(g, bar, named)] == [1, 2, 3]
    assert [sq.dim for sq in bar_subquotients(g, bar, named[:1])] == [1, 2, 4]
