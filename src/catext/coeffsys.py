"""Coefficient systems on a finite category.

A precosheaf of algebras assigns an FDAlgebra to every object and a unital
algebra homomorphism to every morphism, covariantly.  A precosheaf of modules
(a bimodule or a right-module system) adds per-object module structure plus
per-morphism linear maps that are compatible with the algebra maps.  The
validators check the functor laws of the algebra and module maps through
`fincat.functor_failures`, then every compatibility equation on all basis
pairs, one stacked comparison per morphism and law, and report witnesses.

What is derived from a system is kept on it, built on first use and shared:
the verdict and Gr(A) on a precosheaf, Gr(A, M) and the extension category
algebra A |x M on a bimodule system, and Gr(A, N), the fibers N(x) with
their generators and the extension fibers -> Gr(A, N) -> Gr(A) on a
right-module system.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import product as iproduct
from math import prod

import numpy as np

from .exactlin import FieldSpec
from .fdalgebra import FDAlgebra, AlgHom, AlgModule, validate_algebra, validate_hom, validate_module
from .fincat import TABLE_LIMIT, FinCategory, functor_failures, validate_category
from .validation import Report


@dataclass(eq=False)
class AlgebraPrecosheaf:
    """The verdict of `validate_precosheaf` is computed on first use and
    kept, so the algebras and maps must not be changed after it."""
    base: FinCategory
    algebras: dict  # ObjId -> FDAlgebra
    maps: dict  # MorId -> AlgHom
    name: str = ""

    @cached_property
    def _verdict(self) -> Report:
        return _check_precosheaf(self)

    @cached_property
    def gr(self) -> FinCategory:
        """Gr(A), built on first use and kept."""
        from .constructions import gr_algebra  # constructions imports this module
        return gr_algebra(self.base, self)

    @property
    def field(self) -> FieldSpec:
        return next(iter(self.algebras.values())).field

    def at(self, x) -> FDAlgebra:
        return self.algebras[x]

    def on(self, f) -> AlgHom:
        return self.maps[f]


@dataclass(eq=False)
class PrecosheafModule:
    """A precosheaf of A-modules: a module at every object and a linear map
    M(f): M(dom f) -> M(cod f) at every morphism.  A bimodule system when its
    modules have side "bi", a right-module system when they have side "right"."""
    precosheaf: AlgebraPrecosheaf
    modules: dict  # ObjId -> AlgModule
    maps: dict  # MorId -> ndarray
    name: str = ""

    @property
    def base(self) -> FinCategory:
        return self.precosheaf.base

    @cached_property
    def gr(self) -> FinCategory:
        """Gr(A, M) of a bimodule system, Gr(A, N) of a right-module system;
        built on first use and kept."""
        from .constructions import gr_bimodule, gr_right_module  # they import this module
        bi = any(mod.side == "bi" for mod in self.modules.values())
        return (gr_bimodule if bi else gr_right_module)(self.base, self.precosheaf, self)

    @cached_property
    def extension_algebra(self) -> FDAlgebra:
        """A |x M of a bimodule system, built on first use and kept."""
        from .constructions import extension_algebra  # constructions imports this module
        return extension_algebra(self.base, self.precosheaf, self)

    @cached_property
    def fibers(self) -> dict:
        """x -> N(x) as a one-object group category; built on first use and kept."""
        return {x: underlying_group_category(self, x) for x in self.base.objects}

    @cached_property
    def fiber_generators(self) -> dict:
        """x -> the positions in N(x) of its basis vectors, which generate it."""
        p = self.precosheaf.field.characteristic
        return {x: abelian_group_generators((p,) * self.at(x).dim) for x in self.base.objects}

    @cached_property
    def extension(self):
        """fibers -> Gr(A, N) -> Gr(A) with total `gr` and base `precosheaf.gr`;
        built on first use and kept, so N must not change."""
        from .extcheck import fiber_extension  # extcheck imports this module
        return fiber_extension(self.base, self.precosheaf, self)

    def at(self, x) -> AlgModule:
        return self.modules[x]

    def on(self, f) -> np.ndarray:
        return self.maps[f]


def validate_precosheaf(a: AlgebraPrecosheaf) -> Report:
    """Category, per-object algebras, per-morphism algebra maps and the
    functor laws.  The verdict is computed once per precosheaf object; each
    call returns its own copy of it."""
    return Report(list(a._verdict.violations))


def _check_precosheaf(a: AlgebraPrecosheaf) -> Report:
    rep = Report()
    cat = a.base
    cat_rep = validate_category(cat)
    if not cat_rep.ok:
        rep.extend(cat_rep)
        return rep
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
    objects, pairs = functor_failures(cat, a.field, {f: h.matrix for f, h in a.maps.items()},
                                      contravariant=False)
    for x in objects:
        rep.add("functor", "map at identity is not the identity", object=x)
    for f, g in pairs:
        rep.add("functor", "A(fg) != A(g) . A(f)", f=f, g=g)
    return rep


# side -> (violation code, name of the system, wording of a wrong side and of
# an invalid module)
_SIDES = {"bi": ("bimodule", "M", "a bimodule", "bimodule"),
          "right": ("right-module", "N", "right-sided", "module")}


def _validate_system(m: PrecosheafModule, side: str) -> Report:
    """The precosheaf, the module at every object, the map shapes, the functor
    laws, then for every f: x -> y, basis r of A(x) and basis m of M(x) the
    compatibility law of each action the side carries, left before right:
        M(f)(r . m) = A(f)(r) . M(f)(m)     (left)
        M(f)(m . s) = M(f)(m) . A(f)(s)     (right)
    Each law at f is one stacked comparison over the basis of A(x); each
    failing basis index is reported with its first failing m.
    """
    code, sym, wrong, invalid = _SIDES[side]
    rep = validate_precosheaf(m.precosheaf)
    if not rep.ok:
        return rep
    cat = m.base
    k = m.precosheaf.field
    for x in cat.objects:
        if x not in m.modules:
            rep.add(code, "no module at object", object=x)
            continue
        if m.at(x).side != side:
            rep.add(code, f"module at object is not {wrong}", object=x)
            continue
        sub = validate_module(m.at(x))
        if not sub.ok:
            rep.add(code, f"invalid {invalid} at object", object=x,
                    first=sub.violations[0].code)
    if not rep.ok:
        return rep
    for f, (x, y) in cat.mor.items():
        mf = m.maps.get(f)
        if mf is None or mf.shape != (m.at(y).dim, m.at(x).dim):
            rep.add(code, "module map missing or mis-shaped", f=f)
    if not rep.ok:
        return rep
    objects, pairs = functor_failures(cat, k, m.maps, contravariant=False)
    for x in objects:
        rep.add("functor", "module map at identity is not the identity", object=x)
    for f, g in pairs:
        rep.add("functor", "M(fg) != M(g) . M(f)", f=f, g=g)
    left_law = f"{sym}(f)(r.m) != A(f)(r).{sym}(f)(m)"
    right_law = f"{sym}(f)(m.s) != {sym}(f)(m).A(f)(s)"
    for f, (x, y) in cat.mor.items():
        images = m.precosheaf.on(f).matrix.T  # row i is A(f)(e_i)
        basis = k.eye(len(images))
        mf, mx, my = m.on(f), m.at(x), m.at(y)
        laws = [("r", left_law, mx.left_of, my.left_of)] if side == "bi" else []
        laws.append(("s", right_law, mx.right_of, my.right_of))
        # [law][i, j]: the law at e_i fails in column j
        bad = [(k.matmul(mf, at_x(basis)) != k.matmul(at_y(images), mf)).any(axis=1)
               for _, _, at_x, at_y in laws]
        for i in np.flatnonzero(np.any(bad, axis=(0, 2))).tolist():
            for (key, msg, _, _), b in zip(laws, bad):
                if b[i].any():
                    rep.add("compatibility", msg, f=f, **{key: i}, m=int(b[i].argmax()))
    return rep


def validate_bimodule(m: PrecosheafModule) -> Report:
    return _validate_system(m, "bi")


def validate_right_module(n: PrecosheafModule) -> Report:
    return _validate_system(n, "right")


def abelian_group_category(orders, x) -> FinCategory:
    """Z/n1 x ... x Z/nr as a one-object category on x: a morphism (x, e) for
    every element e, in `iproduct` order (the order of `FieldSpec.vectors`
    when every n_i is p), composed by addition; the identity is (x, 0...0)."""
    if any(n < 1 for n in orders):
        raise ValueError("cyclic orders must be >= 1")
    entries = prod(orders) ** 2
    if entries > TABLE_LIMIT:
        raise ValueError(f"composition table with {entries} entries exceeds desk scale")
    elems = list(iproduct(*(range(n) for n in orders)))
    compose = {((x, e), (x, g)): (x, tuple((a + b) % n for a, b, n in zip(e, g, orders)))
               for e in elems for g in elems}
    return FinCategory((x,), {(x, e): (x, x) for e in elems}, {x: (x, (0,) * len(orders))},
                       compose, name="x".join(f"Z/{n}" for n in orders))


def abelian_group_generators(orders) -> list:
    """Positions of the unit vectors of the cyclic factors in
    `abelian_group_category(orders, x)`, which generate it, in position
    order: factor i's sits at prod(orders[i + 1:]), and a factor of order 1
    has none."""
    return [prod(orders[i + 1:]) for i in reversed(range(len(orders))) if orders[i] > 1]


def underlying_group_category(n: PrecosheafModule, x) -> FinCategory:
    """One-object groupoid of the additive group of N(x) = F_p^d; prime field
    only.  It is `abelian_group_category((p,) * d, x)`, so its basis vectors,
    which generate it, sit at the positions `abelian_group_generators` names:
    1, p, ..., p^(d - 1)."""
    k = n.precosheaf.field
    if not k.is_prime_field:
        raise ValueError("underlying group category needs a finite carrier (prime field)")
    return replace(abelian_group_category((k.characteristic,) * n.at(x).dim, x),
                   name=f"N({x})")


def disjoint_fiber_category(n: PrecosheafModule) -> FinCategory:
    """Disjoint union of the one-object groupoids N(x), one per object of C.

    Objects are those of the base category; hom(x, x) = elements of N(x),
    no morphisms between distinct objects.
    """
    mor, identity, compose = {}, {}, {}
    for fiber in n.fibers.values():
        mor.update(fiber.mor)
        identity.update(fiber.identity)
        compose.update(fiber.compose)
    return FinCategory(tuple(n.base.objects), mor, identity, compose, name="N_disjoint")
