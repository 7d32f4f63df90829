"""Named fixtures: small categories, algebras and coefficient systems.

These are the desk-scale inputs behind the CLI presets, the scripts and the
acceptance tests, and are shared by the other tests; a fixture that only a
unit test uses lives in that test.  Everything is generated into explicit
structure-constant / composition-table form.
"""
from __future__ import annotations

import numpy as np

from .coeffsys import AlgebraPrecosheaf, PrecosheafModule
from .exactlin import FieldSpec
from .fdalgebra import (AlgHom, AlgModule, FDAlgebra, basis_products, field_algebra,
                        free_module, group_algebra, zero_module)
from .fincat import FinCategory

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
QQ = FieldSpec.rationals()


# -- categories ------------------------------------------------------------

def trivial_category() -> FinCategory:
    return FinCategory(("*",), {"id": ("*", "*")}, {"*": "id"},
                       {("id", "id"): "id"}, name="pt")


def discrete_category(n: int) -> FinCategory:
    objs = tuple(str(i) for i in range(n))
    mor = {f"id{i}": (str(i), str(i)) for i in range(n)}
    ident = {str(i): f"id{i}" for i in range(n)}
    compose = {(f"id{i}", f"id{i}"): f"id{i}" for i in range(n)}
    return FinCategory(objs, mor, ident, compose, name=f"discrete({n})")


def poset_a2() -> FinCategory:
    """Two objects 0 -> 1 with a single non-identity arrow."""
    mor = {"i0": ("0", "0"), "i1": ("1", "1"), "a": ("0", "1")}
    compose = {("i0", "i0"): "i0", ("i1", "i1"): "i1",
               ("i0", "a"): "a", ("a", "i1"): "a"}
    return FinCategory(("0", "1"), mor, {"0": "i0", "1": "i1"}, compose, name="A2")


def cyclic_monoid(n: int, r: int) -> FinCategory:
    """One object; endomorphisms 1, t, ..., t^(n-1) with t^n = t^r."""
    if not (0 <= r < n):
        raise ValueError("need 0 <= r < n")
    def norm(e: int) -> int:
        period = n - r
        return e if e < n else r + (e - r) % period
    mor = {f"t{e}": ("*", "*") for e in range(n)}
    compose = {(f"t{e}", f"t{d}"): f"t{norm(e + d)}" for e in range(n) for d in range(n)}
    return FinCategory(("*",), mor, {"*": "t0"}, compose, name=f"cyclic({n},{r})")


def one_object_group(n: int) -> FinCategory:
    """B(Z/n): the cyclic group of order n as a one-object groupoid."""
    return cyclic_monoid(n, 0)


# -- algebras ----------------------------------------------------------------

def field_product(k: FieldSpec, n: int) -> FDAlgebra:
    """k x k x ... x k with the idempotent coordinate basis."""
    idempotents = basis_products(k, [(i, i, i) for i in range(n)])
    return FDAlgebra(field=k, dim=n, constants=idempotents, unit=k.array([1] * n),
                     basis_labels=tuple(f"e{i}" for i in range(n)), name=f"k^{n}")


# -- precosheaves ------------------------------------------------------------

def constant_precosheaf(cat: FinCategory, alg: FDAlgebra) -> AlgebraPrecosheaf:
    eye = alg.field.eye(alg.dim)
    maps = {f: AlgHom(alg, alg, eye) for f in cat.mor}
    return AlgebraPrecosheaf(cat, {x: alg for x in cat.objects}, maps,
                             name=f"const({alg.name})")


def precosheaf_from(cat: FinCategory, algebras: dict, edge_maps: dict) -> AlgebraPrecosheaf:
    """Fill identity maps automatically; edge_maps covers the rest by id."""
    maps = {}
    for f, (x, y) in cat.mor.items():
        if f in edge_maps:
            maps[f] = edge_maps[f]
        elif f == cat.identity[x] and x == y:
            a = algebras[x]
            maps[f] = AlgHom(a, a, a.field.eye(a.dim))
        else:
            raise ValueError(f"no algebra map supplied for morphism {f!r}")
    return AlgebraPrecosheaf(cat, algebras, maps)


def a2_augmentation_precosheaf(k: FieldSpec) -> AlgebraPrecosheaf:
    """A2 with k[Z/2] at the source, k at the sink, augmentation along the arrow."""
    cat = poset_a2()
    kz2 = group_algebra([2], k)
    kk = field_algebra(k)
    aug = AlgHom(kz2, kk, k.array([[1, 1]]))
    return precosheaf_from(cat, {"0": kz2, "1": kk}, {"a": aug})


# -- bimodule / right-module systems ------------------------------------------

def _module_system(pre: AlgebraPrecosheaf, side: str, regular: bool) -> PrecosheafModule:
    """A(x) or 0 at every object x as a module of the given side; maps A(f) or 0."""
    mods = {x: free_module(pre.at(x), 1, side) if regular else zero_module(pre.at(x), side)
            for x in pre.base.objects}
    maps = {f: np.array(pre.on(f).matrix, copy=True) if regular else pre.field.zeros(0, 0)
            for f in pre.base.mor}
    return PrecosheafModule(pre, mods, maps, name="regular" if regular else "zero")


def regular_bimodule_system(pre: AlgebraPrecosheaf) -> PrecosheafModule:
    return _module_system(pre, "bi", regular=True)


def zero_bimodule_system(pre: AlgebraPrecosheaf) -> PrecosheafModule:
    return _module_system(pre, "bi", regular=False)


def regular_right_module_system(pre: AlgebraPrecosheaf) -> PrecosheafModule:
    return _module_system(pre, "right", regular=True)


def zero_right_module_system(pre: AlgebraPrecosheaf) -> PrecosheafModule:
    return _module_system(pre, "right", regular=False)


def projection_bimodule_system(k: FieldSpec) -> PrecosheafModule:
    """Trivial category, algebra k x k, carrier k.

    Left action through the first coordinate, right action through the
    second: e0 . m = m and m . e1 = m, all other basis actions vanish.
    """
    cat = trivial_category()
    kk = field_product(k, 2)
    pre = constant_precosheaf(cat, kk)
    mod = AlgModule(kk, 1, "bi",
                    left_action=[k.array([[1]]), k.array([[0]])],
                    right_action=[k.array([[0]]), k.array([[1]])])
    maps = {f: k.eye(1) for f in cat.mor}
    return PrecosheafModule(pre, {"*": mod}, maps, name="projection")
