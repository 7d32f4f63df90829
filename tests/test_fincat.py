import tracemalloc
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catext import fincat
from catext.exactlin import FieldSpec
from catext.fdalgebra import (AlgHom, group_algebra, upper_triangular_algebra,
                              validate_algebra, validate_hom)
from catext.fincat import (CatFunctor, FinCategory, functor_failures, linearize,
                           nerve_chains, validate_category, validate_functor)
from catext.homengine import representable_module
from catext.presets import (a2_augmentation_precosheaf, constant_precosheaf,
                            cyclic_monoid, discrete_category, F2, F3, one_object_group, poset_a2,
                            regular_right_module_system, trivial_category,
                            zero_right_module_system)
from catext.validation import Report
from test_exactlin import coerce

FIXTURES = [trivial_category(), poset_a2(), cyclic_monoid(3, 1),
            one_object_group(2), discrete_category(2), cyclic_monoid(2, 1)]
# Gr(A, N) for A = k[Z/2] over F2, constant on A2, and N the regular right
# module: 48 morphisms on two objects, so the laws are checked over hom blocks
# of different sizes
A2_Z2 = regular_right_module_system(constant_precosheaf(poset_a2(), group_algebra([2], F2)))


def broken_category() -> FinCategory:
    """A2 with one composite deliberately wrong (t then identity != t)."""
    c = poset_a2()
    compose = dict(c.compose)
    compose[("a", "i1")] = "i1"  # violates identity law and dom/cod coherence
    return FinCategory(c.objects, dict(c.mor), dict(c.identity), compose, name="A2-broken")


def opposite(c: FinCategory) -> FinCategory:
    """Reverse all arrows; involutive."""
    rep = validate_category(c)
    if not rep.ok:
        raise ValueError(f"opposite of invalid category: {rep.summary()}")
    mor = {f: (cod_, d) for f, (d, cod_) in c.mor.items()}
    compose = {(g, f): h for (f, g), h in c.compose.items()}
    return FinCategory(c.objects, mor, dict(c.identity), compose,
                       name=f"{c.name}^op" if c.name else "op")


def is_isomorphism(fun: CatFunctor) -> bool:
    """True iff fun is bijective on objects and morphisms and a functor."""
    if not validate_functor(fun).ok:
        return False
    s, t = fun.source, fun.target
    objs = set(fun.obj_map[x] for x in s.objects)
    mors = set(fun.mor_map[f] for f in s.mor)
    return len(objs) == len(s.objects) == len(t.objects) \
        and len(mors) == len(s.mor) == len(t.mor)


@pytest.mark.parametrize("cat", FIXTURES, ids=lambda c: c.name)
def test_fixtures_are_categories(cat):
    assert validate_category(cat).ok


def test_one_object_one_morphism_valid():
    assert validate_category(trivial_category()).ok


def test_broken_fixture_reports_violation():
    rep = validate_category(broken_category())
    assert not rep.ok
    codes = {v.code for v in rep.violations}
    assert codes & {"identity-law", "associativity", "dom-cod"}
    assert all(v.witness for v in rep.violations)


def test_unknown_morphism_in_compose_key_is_reported():
    c = poset_a2()
    compose = dict(c.compose)
    compose[("zz", "i0")] = "i0"
    rep = validate_category(FinCategory(c.objects, dict(c.mor), dict(c.identity), compose))
    assert [(v.code, v.witness) for v in rep.violations] == [
        ("composition", {"f": "zz", "g": "i0", "h": "i0"})]


def reference_validate(c: FinCategory) -> Report:
    """All-pairs, all-triples check of the category axioms: the oracle for
    `validate_category`.  Every compose key must name morphisms."""
    def composable(f, g):
        return c.cod(f) == c.dom(g)

    rep = Report()
    for f, (d, cod_) in c.mor.items():
        if d not in c.objects or cod_ not in c.objects:
            rep.add("dom-cod", "morphism endpoints not objects", f=f, dom=d, cod=cod_)
    for x in c.objects:
        i = c.identity.get(x)
        if i is None or i not in c.mor:
            rep.add("identity", "missing identity morphism", object=x)
            continue
        if c.mor[i] != (x, x):
            rep.add("identity", "identity is not an endomorphism", object=x, id=i)
    for f in c.mor:
        for g in c.mor:
            defined = (f, g) in c.compose
            if composable(f, g) and not defined:
                rep.add("composition", "missing composite", f=f, g=g)
            if not composable(f, g) and defined:
                rep.add("composition", "composite defined for non-composable pair", f=f, g=g)
    for (f, g), h in c.compose.items():
        if h not in c.mor:
            rep.add("composition", "composite not a morphism", f=f, g=g, h=h)
            continue
        if composable(f, g) and c.mor[h] != (c.dom(f), c.cod(g)):
            rep.add("dom-cod", "composite has wrong endpoints", f=f, g=g, h=h)
    if not rep.ok:
        return rep
    for f, (d, cod_) in c.mor.items():
        if c.then(c.identity[d], f) != f:
            rep.add("identity-law", "left identity fails", f=f)
        if c.then(f, c.identity[cod_]) != f:
            rep.add("identity-law", "right identity fails", f=f)
    for f in c.mor:
        for g in c.mor:
            if not composable(f, g):
                continue
            fg = c.then(f, g)
            for h in c.mor:
                if not composable(g, h):
                    continue
                if c.then(fg, h) != c.then(f, c.then(g, h)):
                    rep.add("associativity", "(fg)h != f(gh)", f=f, g=g, h=h)
    return rep


@st.composite
def mutated_categories(draw):
    """A fixture with compose entries reassigned (half the time to a parallel
    morphism, which breaks only the laws), deleted or added and codomains
    moved; compose keys always name morphisms."""
    c = draw(st.sampled_from(FIXTURES + [broken_category(), A2_Z2.gr]))
    mor, compose = dict(c.mor), dict(c.compose)
    labels = list(c.mor)
    targets = labels + ["zz"]
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["parallel", "parallel", "parallel",
                                   "reassign", "delete", "add", "move"]))
        if op == "move":
            f = draw(st.sampled_from(labels))
            mor[f] = (mor[f][0], draw(st.sampled_from(list(c.objects) + ["nowhere"])))
        elif op == "add":
            key = (draw(st.sampled_from(labels)), draw(st.sampled_from(labels)))
            compose[key] = draw(st.sampled_from(targets))
        elif compose:
            key = draw(st.sampled_from(list(compose)))
            if op == "delete":
                del compose[key]
            elif op == "parallel" and compose[key] in mor:
                ends = mor[compose[key]]
                compose[key] = draw(st.sampled_from([f for f in labels if mor[f] == ends]))
            else:
                compose[key] = draw(st.sampled_from(targets))
    return FinCategory(c.objects, mor, dict(c.identity), compose, name=c.name)


@settings(max_examples=300)
@given(mutated_categories())
def test_validate_category_matches_reference(cat):
    expected = reference_validate(cat).as_dict()
    rep = validate_category(cat)
    assert rep.as_dict() == expected
    rep.add("extra", "added by the caller")
    rep.extend(reference_validate(broken_category()))
    assert validate_category(cat).as_dict() == expected


def test_a2_z2_fixture_has_48_morphisms():
    assert len(A2_Z2.gr.mor) == 48 and validate_category(A2_Z2.gr).ok


@settings(max_examples=100)
@given(mutated_categories())
def test_validate_category_in_small_chunks_matches_reference(cat):
    """With the associativity check taking 100 table cells at a time, the
    entries of the 48-morphism fixture are split two per gather."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fincat, "CHUNK", 100)
        assert validate_category(cat).as_dict() == reference_validate(cat).as_dict()


def test_associativity_witnesses_across_chunks_keep_position_order(monkeypatch):
    # reassign composites of non-identity entries to parallel morphisms, so
    # only the laws break, then check one entry per gather
    c = A2_Z2.gr
    compose = dict(c.compose)
    idents = set(c.identity.values())
    keys = [key for key in compose if not idents & set(key)]
    for key in keys[::7]:
        ends = c.mor[compose[key]]
        compose[key] = [f for f in c.mor if c.mor[f] == ends and f != compose[key]][0]
    broken = FinCategory(c.objects, dict(c.mor), dict(c.identity), compose)
    monkeypatch.setattr(fincat, "CHUNK", 1)
    rep = validate_category(broken)
    codes = [v.code for v in rep.violations]
    assert codes.count("associativity") > 10
    assert rep.as_dict() == reference_validate(broken).as_dict()


def test_validate_category_memory_is_bounded_by_chunks():
    # B(Z/128) has 2,097,152 composable triples: one gather over all of them
    # would hold 8 MB per int32 array and 16 MB per index array
    c = one_object_group(128)
    tracemalloc.start()
    try:
        assert validate_category(c).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_index_past_the_cell_limit_is_refused_before_allocation():
    # the 1,875-morphism Gr(A, N) fits; 4,097 morphisms are the first count past
    assert 1875 ** 2 < fincat.CELL_LIMIT == 4096 ** 2 < 4097 ** 2
    c = discrete_category(4097)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            validate_category(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == ("composition table of 4097 x 4097 = 16785409 cells exceeds "
                              "desk-scale limit 16777216")
    assert peak < 2**20


def test_opposite_commutative_monoid_unchanged():
    # multiplication of {1, t} with t^2 = t is commutative
    c = cyclic_monoid(2, 1)
    op = opposite(c)
    assert op.compose == c.compose


def test_opposite_reverses_a2():
    op = opposite(poset_a2())
    assert op.dom("a") == "1" and op.cod("a") == "0"


@pytest.mark.parametrize("cat", FIXTURES, ids=lambda c: c.name)
def test_opposite_involutive(cat):
    op2 = opposite(opposite(cat))
    assert op2.mor == cat.mor
    assert op2.compose == cat.compose
    assert validate_category(opposite(cat)).ok


def test_nerve_counts_a2():
    c = poset_a2()
    assert len(nerve_chains(c, 0)) == 2
    assert len(nerve_chains(c, 1)) == 3
    # exhaustive composability check: i0i0, i0a, a i1, i1i1
    assert len(nerve_chains(c, 2)) == 4
    assert set(nerve_chains(c, 2)) == {("i0", "i0"), ("i0", "a"), ("a", "i1"), ("i1", "i1")}


def test_nerve_degree_zero_is_objects():
    c = discrete_category(3)
    assert nerve_chains(c, 0) == [(x,) for x in c.objects]


@pytest.mark.parametrize("cat", FIXTURES, ids=lambda c: c.name)
@pytest.mark.parametrize("n", [0, 1, 2])
def test_nerve_recurrence(cat, n):
    # chains of degree n+1 = sum over chains of degree n of out-degree of the end
    chains_n = nerve_chains(cat, n)
    chains_n1 = nerve_chains(cat, n + 1)
    def end(ch):
        return ch[0] if n == 0 else cat.cod(ch[-1])
    outdeg = {x: sum(1 for f in cat.mor if cat.dom(f) == x) for x in cat.objects}
    assert len(chains_n1) == sum(outdeg[end(ch)] for ch in chains_n)


def test_nerve_chains_refuses_a_degree_before_building_it(monkeypatch):
    # B(Z/30) has 900 chains of degree 2 and 27,000 of degree 3, which would
    # take about 2 MB as tuples
    monkeypatch.setattr(fincat, "NERVE_LIMIT", 1000)
    c = one_object_group(30)
    assert len(nerve_chains(c, 2)) == 900
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^nerve enumeration of 27000 chains exceeds "
                                             "desk-scale limit 1000$"):
            nerve_chains(c, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_normalized_nerve_drops_identities():
    c = poset_a2()
    assert nerve_chains(c, 1, normalized=True) == [("a",)]
    assert nerve_chains(c, 2, normalized=True) == []


def test_linearize_trivial_category_is_field():
    a = linearize(trivial_category(), F3)
    assert a.dim == 1
    assert validate_algebra(a).ok


def test_linearize_a2_isomorphic_to_upper_triangular():
    a = linearize(poset_a2(), F2)
    assert a.dim == 3
    assert validate_algebra(a).ok
    # explicit isomorphism onto the 2x2 triangular matrix algebra
    ut = upper_triangular_algebra(2, F2)
    # basis order of a: (i0, i1, a); of ut: ((0,0), (0,1), (1,1))
    mat = F2.zeros(3, 3)
    send = {"i0": (1, 1), "i1": (0, 0), "a": (0, 1)}
    for j, lab in enumerate(a.basis_labels):
        mat[ut.basis_labels.index(send[lab]), j] = 1
    hom = AlgHom(a, ut, mat)
    assert validate_hom(hom).ok
    from catext.exactlin import Matrix, rank
    assert rank(Matrix(F2, mat)) == 3


def test_linearize_disjoint_union_is_product():
    a = linearize(discrete_category(2), F2)
    assert a.dim == 2
    assert validate_algebra(a).ok
    e0, e1 = F2.eye(2)
    assert F2.is_zero(a.mul(e0, e1))
    assert F2.equal(a.mul(e0, e0), e0)


@pytest.mark.parametrize("cat", FIXTURES, ids=lambda c: c.name)
def test_linearize_always_associative_unital(cat):
    assert validate_algebra(linearize(cat, F2)).ok
    assert validate_algebra(linearize(cat, FieldSpec.rationals())).ok


def test_functor_validation():
    c = poset_a2()
    ident = CatFunctor(c, c, {x: x for x in c.objects}, {f: f for f in c.mor})
    assert validate_functor(ident).ok
    assert is_isomorphism(ident)
    bad = CatFunctor(c, c, {x: x for x in c.objects},
                     {"i0": "i0", "i1": "i1", "a": "i1"})
    assert not validate_functor(bad).ok


def reference_validate_functor(fun: CatFunctor) -> Report:
    """Entry-by-entry check of the functor laws: the oracle for
    `validate_functor`.  A source entry that names a morphism the source does
    not have has no image, so it is not preserved."""
    rep = Report()
    s, t = fun.source, fun.target
    for x in s.objects:
        if fun.obj_map.get(x) not in t.objects:
            rep.add("functor", "object image missing", object=x)
    for f in s.mor:
        img = fun.mor_map.get(f)
        if img not in t.mor:
            rep.add("functor", "morphism image missing", f=f)
        elif t.mor[img] != (fun.obj_map.get(s.dom(f)), fun.obj_map.get(s.cod(f))):
            rep.add("functor", "image endpoints wrong", f=f, image=img)
    if not rep.ok:
        return rep
    for x in s.objects:
        if fun.mor_map[s.identity[x]] != t.identity[fun.obj_map[x]]:
            rep.add("functor", "identity not preserved", object=x)
    for (f, g), h in s.compose.items():
        if any(m not in s.mor for m in (f, g, h)) \
                or t.compose.get((fun.mor_map[f], fun.mor_map[g])) != fun.mor_map[h]:
            rep.add("functor", "composition not preserved", f=f, g=g)
    return rep


def reference_functor_failures(c: FinCategory, k: FieldSpec, mats: dict, contravariant: bool):
    """Entry-by-entry check of the functor laws of a matrix family: the
    oracle for `functor_failures`."""
    objects = [x for x in c.objects
               if not k.equal(mats[c.identity[x]], k.eye(len(mats[c.identity[x]])))]
    pairs = []
    for (f, g), h in c.compose.items():
        composite = k.matmul(mats[f], mats[g]) if contravariant else k.matmul(mats[g], mats[f])
        if not k.equal(mats[h], composite):
            pairs.append((f, g))
    return objects, pairs


FUNCTORS = [CatFunctor(c, c, {x: x for x in c.objects}, {f: f for f in c.mor})
            for c in FIXTURES + [A2_Z2.gr]] + [A2_Z2.extension.pi, A2_Z2.extension.iota]


@st.composite
def mutated_functors(draw):
    """A functor with images reassigned (mostly to a parallel morphism, which
    breaks only the composition law), removed or moved to another object, and
    source entries added that name a morphism the source does not have."""
    fun = draw(st.sampled_from(FUNCTORS))
    s, t = fun.source, fun.target
    obj_map, mor_map, compose = dict(fun.obj_map), dict(fun.mor_map), dict(s.compose)
    labels = list(s.mor)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["parallel", "parallel", "parallel", "reassign", "drop",
                                   "object", "unknown entry"]))
        f = draw(st.sampled_from(labels))
        if op == "parallel" and mor_map.get(f) in t.mor:
            ends = t.mor[mor_map[f]]
            mor_map[f] = draw(st.sampled_from([g for g in t.mor if t.mor[g] == ends]))
        elif op in ("parallel", "reassign"):
            mor_map[f] = draw(st.sampled_from(list(t.mor)))
        elif op == "drop":
            mor_map.pop(f, None)
        elif op == "object":
            obj_map[draw(st.sampled_from(s.objects))] = draw(
                st.sampled_from(list(t.objects) + ["nowhere"]))
        else:
            key = draw(st.sampled_from([(f, "zz"), ("zz", f), (f, f)]))
            compose[key] = draw(st.sampled_from([f, "zz"]))
            if draw(st.booleans()):
                mor_map["zz"] = mor_map.get(f, f)
    source = FinCategory(s.objects, s.mor, s.identity, compose, name=s.name)
    return CatFunctor(source, t, obj_map, mor_map)


@settings(max_examples=200)
@given(mutated_functors())
def test_validate_functor_matches_reference(fun):
    assert validate_functor(fun).as_dict() == reference_validate_functor(fun).as_dict()


def test_validate_functor_reports_an_entry_of_an_unknown_morphism():
    c = poset_a2()
    compose = dict(c.compose)
    compose[("a", "zz")] = "a"
    source = FinCategory(c.objects, c.mor, c.identity, compose)
    fun = CatFunctor(source, c, {x: x for x in c.objects}, {f: f for f in c.mor})
    assert [(v.message, v.witness) for v in validate_functor(fun).violations] == [
        ("composition not preserved", {"f": "a", "g": "zz"})]


def test_linearize_rejects_broken_category():
    with pytest.raises(ValueError):
        linearize(broken_category(), F2)


# -- functor laws of a matrix family ---------------------------------------------

def _chain3() -> FinCategory:
    """The poset 0 -> 1 -> 2, whose arrows a and b compose to ab."""
    mor = {"i0": ("0", "0"), "i1": ("1", "1"), "i2": ("2", "2"),
           "a": ("0", "1"), "b": ("1", "2"), "ab": ("0", "2")}
    compose = {(x, x): x for x in ("i0", "i1", "i2")}
    compose.update({("i0", "a"): "a", ("a", "i1"): "a", ("i1", "b"): "b", ("b", "i2"): "b",
                    ("i0", "ab"): "ab", ("ab", "i2"): "ab", ("a", "b"): "ab"})
    return FinCategory(("0", "1", "2"), mor, {"0": "i0", "1": "i1", "2": "i2"}, compose)


@pytest.mark.parametrize("field", [F2, F3, FieldSpec.prime(2**31 - 1), FieldSpec.rationals()],
                         ids=lambda k: f"F{k.p}" if k.p else "Q")
def test_functor_failures_reads_the_factor_order(field):
    c = _chain3()
    assert validate_category(c).ok
    a, b = field.array([[1, 1], [0, 1]]), field.array([[1, 0], [1, 1]])
    mats = {f: field.eye(2) for f in ("i0", "i1", "i2")}
    mats.update({"a": a, "b": b, "ab": field.matmul(b, a)})  # a then b, covariantly
    assert functor_failures(c, field, mats, contravariant=False) == ([], [])
    assert functor_failures(c, field, mats, contravariant=True) == ([], [("a", "b")])
    mats["ab"] = field.matmul(a, b)
    assert functor_failures(c, field, mats, contravariant=True) == ([], [])
    mats["i1"] = field.zeros(2, 2)  # 0 . 0 = 0, so only the entries with a or b fail
    assert functor_failures(c, field, mats, contravariant=True) == (
        ["1"], [("a", "i1"), ("i1", "b")])


def test_functor_failures_stacks_mixed_shapes_in_table_order():
    # the module k at 0, k^2 at 1 and 0 at 2: three factor shapes
    c = _chain3()
    k = F3
    mats = {"i0": k.eye(1), "i1": k.eye(2), "i2": k.eye(0), "a": k.array([[1], [2]]),
            "b": k.zeros(0, 2), "ab": k.zeros(0, 1)}
    assert functor_failures(c, k, mats, contravariant=False) == ([], [])
    mats["i0"] = k.array([[2]])  # into k^0 every map agrees, so ab passes
    assert functor_failures(c, k, mats, contravariant=False) == (
        ["0"], [("i0", "i0"), ("i0", "a")])


FAMILY_FIELDS = [F2, F3, FieldSpec.prime(65521), FieldSpec.prime(2**31 - 1),
                 FieldSpec.rationals()]


@cache
def _families(k: FieldSpec) -> list:
    """(category, matrices, contravariant) for families that satisfy the
    functor laws on carriers of different dimensions: the representable
    modules Hom(-, y), 0 at an object with no morphism to y, and their
    transposes, which are covariant; the algebra maps k[Z/2] -> k of the
    augmentation precosheaf on A2 and its regular and zero module systems.
    Over Q the 48-morphism fixture, with its 16 x 16 blocks, is left out to
    keep the `Fraction` products few."""
    out = []
    cats = [_chain3(), poset_a2(), cyclic_monoid(3, 1)] + [A2_Z2.gr] * bool(k.p)
    for c in cats:
        for y in c.objects:
            mats = representable_module(c, k, y).mats
            out.append((c, mats, True))
            out.append((c, {f: np.array(m.T, copy=True) for f, m in mats.items()}, False))
    aug = a2_augmentation_precosheaf(k)
    out.append((aug.base, {f: h.matrix for f, h in aug.maps.items()}, False))
    out.append((aug.base, regular_right_module_system(aug).maps, False))
    out.append((aug.base, zero_right_module_system(aug).maps, False))
    return out


def test_family_fixtures_have_carriers_of_different_dimensions():
    for k in FAMILY_FIELDS:
        for c, mats, contravariant in _families(k):
            assert functor_failures(c, k, mats, contravariant) == ([], [])
        sizes = {frozenset(len(mats[c.identity[x]]) for x in c.objects)
                 for c, mats, _ in _families(k)}
        assert any(len(s) > 1 and 0 in s for s in sizes)


@st.composite
def matrix_families(draw):
    """A family of `_families` with up to three matrix entries raised by one,
    so that its identities and table entries fail in varied places."""
    k = draw(st.sampled_from(FAMILY_FIELDS))
    c, mats, contravariant = draw(st.sampled_from(_families(k)))
    mats = dict(mats)
    for _ in range(draw(st.integers(0, 3))):
        f = draw(st.sampled_from(list(c.mor)))
        bad = np.array(mats[f], copy=True)
        if bad.size:
            i, j = draw(st.integers(0, bad.shape[0] - 1)), draw(st.integers(0, bad.shape[1] - 1))
            bad[i, j] = coerce(k, bad[i, j] + 1)
            mats[f] = bad
    return c, k, mats, contravariant


@settings(max_examples=150)
@given(matrix_families(), st.sampled_from([1, 37, fincat.CHUNK]))
def test_functor_failures_matches_reference(family, chunk):
    """With CHUNK at 1 or 37 cells the entries are checked over many
    slices of the table."""
    c, k, mats, contravariant = family
    want = reference_functor_failures(c, k, mats, contravariant)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fincat, "CHUNK", chunk)
        assert functor_failures(c, k, mats, contravariant) == want
