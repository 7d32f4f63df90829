"""Coefficient systems on a finite category.

A precosheaf of algebras assigns an FDAlgebra to every object and a unital
algebra homomorphism to every morphism, covariantly.  Bimodule / right-module
systems add per-object module structure plus per-morphism linear maps that
are compatible with the algebra maps.  Validators check every compatibility
equation on all basis triples and report witnesses.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exactlin import FieldSpec
from .fdalgebra import FDAlgebra, AlgHom, AlgModule, validate_algebra, validate_hom, validate_module
from .fincat import FinCategory, validate_category
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

    @property
    def field(self) -> FieldSpec:
        return next(iter(self.algebras.values())).field

    def at(self, x) -> FDAlgebra:
        return self.algebras[x]

    def on(self, f) -> AlgHom:
        return self.maps[f]


@dataclass(eq=False)
class PrecosheafBimodule:
    precosheaf: AlgebraPrecosheaf
    modules: dict  # ObjId -> AlgModule with side "bi"
    maps: dict  # MorId -> ndarray, M(f): M(dom f) -> M(cod f)
    name: str = ""

    @property
    def base(self) -> FinCategory:
        return self.precosheaf.base

    def at(self, x) -> AlgModule:
        return self.modules[x]

    def on(self, f) -> np.ndarray:
        return self.maps[f]


@dataclass(eq=False)
class PrecosheafRightModule:
    precosheaf: AlgebraPrecosheaf
    modules: dict  # ObjId -> AlgModule with side "right"
    maps: dict  # MorId -> ndarray
    name: str = ""

    @property
    def base(self) -> FinCategory:
        return self.precosheaf.base

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


def _module_functoriality(rep: Report, sys_) -> None:
    cat = sys_.base
    k = sys_.precosheaf.field
    for x in cat.objects:
        if not k.equal(sys_.on(cat.identity[x]), k.eye(sys_.at(x).dim)):
            rep.add("functor", "module map at identity is not the identity", object=x)
    for (f, g), h in cat.compose.items():
        if not k.equal(sys_.on(h), k.matmul(sys_.on(g), sys_.on(f))):
            rep.add("functor", "M(fg) != M(g) . M(f)", f=f, g=g)


def validate_bimodule(m: PrecosheafBimodule) -> Report:
    """Per-object bimodules, functoriality, and both compatibility laws.

    For every f: x -> y and all basis r of A(x), basis m of M(x):
        M(f)(r . m) = A(f)(r) . M(f)(m)     (left)
        M(f)(m . s) = M(f)(m) . A(f)(s)     (right)
    """
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
    _module_functoriality(rep, m)
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


def validate_right_module(n: PrecosheafRightModule) -> Report:
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
    _module_functoriality(rep, n)
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


def forget_left_action(m: PrecosheafBimodule) -> PrecosheafRightModule:
    mods = {x: AlgModule(mod.algebra, mod.dim, "right",
                         right_action=[np.array(r, copy=True) for r in mod.right_action])
            for x, mod in m.modules.items()}
    return PrecosheafRightModule(m.precosheaf, mods, dict(m.maps),
                                 name=f"{m.name}-as-right" if m.name else "")


def underlying_group_category(n: PrecosheafRightModule, x) -> FinCategory:
    """One-object groupoid of the additive group of N(x); prime field only."""
    k = n.precosheaf.field
    if not k.is_prime_field:
        raise ValueError("underlying group category needs a finite carrier (prime field)")
    elems = k.vectors(n.at(x).dim)
    zero = tuple(0 for _ in range(n.at(x).dim))
    mor = {(x, e): (x, x) for e in elems}
    compose = {}
    p = k.characteristic
    for e in elems:
        for g in elems:
            s = tuple((a + b) % p for a, b in zip(e, g))
            compose[((x, e), (x, g))] = (x, s)
    return FinCategory((x,), mor, {x: (x, zero)}, compose, name=f"N({x})")


def disjoint_fiber_category(n: PrecosheafRightModule) -> FinCategory:
    """Disjoint union of the one-object groupoids N(x), one per object of C.

    Objects are those of the base category; hom(x, x) = elements of N(x),
    no morphisms between distinct objects.
    """
    k = n.precosheaf.field
    if not k.is_prime_field:
        raise ValueError("fiber category needs a finite carrier (prime field)")
    base = n.base
    p = k.characteristic
    mor = {}
    identity = {}
    compose = {}
    for x in base.objects:
        elems = k.vectors(n.at(x).dim)
        for e in elems:
            mor[(x, e)] = (x, x)
        identity[x] = (x, tuple(0 for _ in range(n.at(x).dim)))
        for e in elems:
            for g in elems:
                s = tuple((a + b) % p for a, b in zip(e, g))
                compose[((x, e), (x, g))] = (x, s)
    return FinCategory(tuple(base.objects), mor, identity, compose, name="N_disjoint")
