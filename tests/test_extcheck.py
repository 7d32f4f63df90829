import time

import pytest

from catext import extcheck
from catext.coeffsys import PrecosheafModule, disjoint_fiber_category
from catext.constructions import gr_algebra, gr_bimodule
from catext.extcheck import CatExtension, check_extension, fiber_extension
from catext.fdalgebra import AlgModule, field_algebra, group_algebra
from catext.fincat import CatFunctor, FinCategory
from catext.presets import (F2, F3, constant_precosheaf, one_object_group, poset_a2,
                            regular_bimodule_system, regular_right_module_system,
                            trivial_category, zero_right_module_system)
from test_coeffsys import forget_left_action


def connecting_morphisms(e: CatExtension, f, g) -> list:
    """All h in Mor K with (f then iota(h)) = g in the total category."""
    total = e.total
    out = []
    for h in e.kernel.mor:
        ih = e.iota.on_mor(h)
        if total.cod(f) == total.dom(ih) and total.then(f, ih) == g:
            out.append(h)
    return out


def identity_kernel_extension(cat):
    """K = identities only, E = B = cat, iota inclusion, pi identity."""
    kernel = FinCategory(cat.objects,
                         {cat.identity[x]: (x, x) for x in cat.objects},
                         dict(cat.identity),
                         {(cat.identity[x], cat.identity[x]): cat.identity[x]
                          for x in cat.objects})
    iota = CatFunctor(kernel, cat, {x: x for x in cat.objects},
                      {f: f for f in kernel.mor})
    pi = CatFunctor(cat, cat, {x: x for x in cat.objects},
                    {f: f for f in cat.mor})
    return CatExtension(kernel, cat, cat, iota, pi)


def test_trivial_kernel_extension_valid():
    assert check_extension(identity_kernel_extension(poset_a2())).ok


def test_point_fixture_extension():
    ct = trivial_category()
    at = constant_precosheaf(ct, field_algebra(F2))
    nt = regular_right_module_system(at)
    ext = fiber_extension(ct, at, nt)
    assert len(ext.total.mor) == 4
    assert len(ext.base.mor) == 2
    assert len(ext.kernel.mor) == 2
    assert check_extension(ext).ok


def test_zero_module_gives_isomorphic_projection():
    ct = trivial_category()
    at = constant_precosheaf(ct, field_algebra(F2))
    ext = fiber_extension(ct, at, zero_right_module_system(at))
    assert len(ext.kernel.mor) == len(ext.kernel.objects)
    assert len(ext.total.mor) == len(ext.base.mor)
    assert check_extension(ext).ok


def test_two_object_fixture_extension():
    c = poset_a2()
    a = constant_precosheaf(c, field_algebra(F2))
    n = regular_right_module_system(a)
    ext = fiber_extension(c, a, n)
    assert check_extension(ext).ok


def test_bigger_fiber_extension():
    c = poset_a2()
    a = constant_precosheaf(c, group_algebra([2], F3))
    n = regular_right_module_system(a)
    ext = fiber_extension(c, a, n)
    assert check_extension(ext).ok


def test_connecting_morphism_is_difference_of_components():
    ct = trivial_category()
    at = constant_precosheaf(ct, field_algebra(F3))
    nt = regular_right_module_system(at)
    ext = fiber_extension(ct, at, nt)
    for f in ext.total.mor:
        for g in ext.total.mor:
            if ext.pi.on_mor(f) != ext.pi.on_mor(g):
                continue
            hs = connecting_morphisms(ext, f, g)
            assert len(hs) == 1
            (_, m1, _), (_, m2, _) = f, g
            diff = tuple((b - a_) % 3 for a_, b in zip(m1, m2))
            assert hs[0] == ("*", diff)


def test_existence_failure_reported():
    # two parallel arrows collapsed by pi with only identities in the kernel
    e = FinCategory(("x", "y"),
                    {"ix": ("x", "x"), "iy": ("y", "y"),
                     "t1": ("x", "y"), "t2": ("x", "y")},
                    {"x": "ix", "y": "iy"},
                    {("ix", "ix"): "ix", ("iy", "iy"): "iy",
                     ("ix", "t1"): "t1", ("t1", "iy"): "t1",
                     ("ix", "t2"): "t2", ("t2", "iy"): "t2"})
    b = FinCategory(("x", "y"),
                    {"jx": ("x", "x"), "jy": ("y", "y"), "s": ("x", "y")},
                    {"x": "jx", "y": "jy"},
                    {("jx", "jx"): "jx", ("jy", "jy"): "jy",
                     ("jx", "s"): "s", ("s", "jy"): "s"})
    kernel = FinCategory(("x", "y"), {"kx": ("x", "x"), "ky": ("y", "y")},
                         {"x": "kx", "y": "ky"},
                         {("kx", "kx"): "kx", ("ky", "ky"): "ky"})
    iota = CatFunctor(kernel, e, {"x": "x", "y": "y"}, {"kx": "ix", "ky": "iy"})
    pi = CatFunctor(e, b, {"x": "x", "y": "y"},
                    {"ix": "jx", "iy": "jy", "t1": "s", "t2": "s"})
    rep = check_extension(CatExtension(kernel, e, b, iota, pi))
    assert not rep.ok
    assert any(v.code == "torsor-existence" for v in rep.violations)
    assert all("f" in v.witness for v in rep.violations)
    assert [(v.code, v.witness) for v in rep.violations] == [
        ("torsor-existence", {"f": "t1", "g": "t2"}),
        ("torsor-existence", {"f": "t2", "g": "t1"})]


def test_object_set_mismatch_is_structural_error():
    ct = trivial_category()
    at = constant_precosheaf(ct, field_algebra(F2))
    ext = fiber_extension(ct, at, regular_right_module_system(at))
    other = poset_a2()
    with pytest.raises(ValueError):
        check_extension(CatExtension(other, ext.total, ext.base, ext.iota, ext.pi))


def test_bimodule_composition_law_breaks_torsor_condition():
    # with a two-sided bimodule in the composition law, a non-invertible
    # algebra component makes the connecting morphism non-unique
    ct = trivial_category()
    at = constant_precosheaf(ct, field_algebra(F2))
    mt = regular_bimodule_system(at)
    total = gr_bimodule(ct, at, mt)
    base = gr_algebra(ct, at)
    kernel = disjoint_fiber_category(forget_left_action(mt))
    iota = CatFunctor(kernel, total, {x: x for x in kernel.objects},
                      {(x, m): ((1,), m, ct.identity[x]) for (x, m) in kernel.mor})
    pi = CatFunctor(total, base, {x: x for x in total.objects},
                    {(r, m, f): (r, f) for (r, m, f) in total.mor})
    rep = check_extension(CatExtension(kernel, total, base, iota, pi))
    assert not rep.ok
    codes = {v.code for v in rep.violations}
    assert codes & {"torsor-existence", "torsor-uniqueness"}
    m0, m1 = ((0,), (0,), "id"), ((0,), (1,), "id")
    assert [(v.code, v.witness) for v in rep.violations] == [
        ("torsor-uniqueness", {"f": m0, "g": m0, "count": 2}),
        ("torsor-existence", {"f": m0, "g": m1}),
        ("torsor-existence", {"f": m1, "g": m0}),
        ("torsor-uniqueness", {"f": m1, "g": m1, "count": 2})]


def reference_torsor_violations(e: CatExtension) -> list:
    """All-pairs torsor check: the oracle for the per-morphism one in
    `check_extension`, on an extension that passes the structural checks."""
    found = []
    for f in e.total.mor:
        for g in e.total.mor:
            same_image = e.pi.on_mor(f) == e.pi.on_mor(g)
            if e.total.mor[f] != e.total.mor[g]:
                if same_image:
                    found.append(("torsor-existence", {"f": f, "g": g}))
                continue
            count = len(connecting_morphisms(e, f, g))
            if same_image and count == 0:
                found.append(("torsor-existence", {"f": f, "g": g}))
            elif same_image and count > 1:
                found.append(("torsor-uniqueness", {"f": f, "g": g, "count": count}))
            elif not same_image and count == 1:
                found.append(("torsor-converse", {"f": f, "g": g}))
    return found


def cyclic_extension(n: int, k: int, m: int, a: int) -> CatExtension:
    """B(Z/k) -> B(Z/n) -> B(Z/m): iota(h) = h n/k, pi(x) = a x mod m."""
    kernel, total, base = one_object_group(k), one_object_group(n), one_object_group(m)
    iota = CatFunctor(kernel, total, {"*": "*"},
                      {f"t{h}": f"t{h * n // k}" for h in range(k)})
    pi = CatFunctor(total, base, {"*": "*"}, {f"t{x}": f"t{a * x % m}" for x in range(n)})
    return CatExtension(kernel, total, base, iota, pi)


@pytest.mark.parametrize("n,k,m,a", [(n, k, m, a) for n in (4, 6)
                                     for k in range(1, n + 1) if n % k == 0
                                     for m in range(1, n + 1) if n % m == 0
                                     for a in (1, 5) if a < m or a == 1])
def test_torsor_check_matches_all_pairs_reference(n, k, m, a):
    e = cyclic_extension(n, k, m, a)
    rep = check_extension(e)
    assert [(v.code, v.witness) for v in rep.violations] == reference_torsor_violations(e)
    assert rep.ok == (k * m == n)


def test_fiber_extension_guards_before_building_the_kernel(monkeypatch):
    """An 11-dimensional right module over k on the point: Gr(A, N) has
    (2 * 2^11)^2 = 16,777,216 entries and is rejected by the table guard.
    The kernel, whose 4,194,304 entries have no guard of their own, is never
    built."""
    def kernel(n):
        raise AssertionError("the kernel was built before Gr(A, N)")
    monkeypatch.setattr(extcheck, "disjoint_fiber_category", kernel)
    c = trivial_category()
    a = constant_precosheaf(c, field_algebra(F2))
    x, = c.objects
    n = PrecosheafModule(a, {x: AlgModule(a.at(x), 11, "right", right_action=[F2.eye(11)])},
                         {c.identity[x]: F2.eye(11)})
    start = time.perf_counter()
    with pytest.raises(ValueError, match="composition table with 16777216 entries exceeds"):
        fiber_extension(c, a, n)
    with pytest.raises(ValueError, match="composition table with 16777216 entries exceeds"):
        n.extension
    assert time.perf_counter() - start < 1
