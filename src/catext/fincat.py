"""Finite categories as explicit data: objects, morphisms, composition tables.

Composition is stored diagrammatically: compose[(f, g)] is "f then g" and is
defined exactly when cod(f) == dom(g).  Morphism and object ids are arbitrary
hashables (strings in hand-built fixtures, tuples in generated categories).
"""
from __future__ import annotations

from dataclasses import dataclass, field as dfield
from functools import cached_property
from typing import Hashable

import numpy as np

from .exactlin import FieldSpec
from .validation import Report

ObjId = Hashable
MorId = Hashable


@dataclass(frozen=True, eq=False)
class CatIndex:
    """Integer view of a category's tables, built once per category.

    Morphisms are numbered in the order of `mor`.  `table[i][j]` is the
    position of "i then j", or None where no entry names three morphisms;
    `follow[i]` lists, in position order, the morphisms that can follow i
    (those whose domain is cod i); `hom[(x, y)]` lists the morphisms x -> y.
    Entries of a damaged table that name unknown morphisms are left out:
    `validate_category` reports them.
    """
    labels: tuple
    pos: dict
    follow: tuple
    hom: dict
    table: list

    @classmethod
    def of(cls, c: "FinCategory") -> "CatIndex":
        labels = tuple(c.mor)
        pos = {f: i for i, f in enumerate(labels)}
        out: dict = {}
        hom: dict = {}
        for i, ends in enumerate(c.mor.values()):
            out.setdefault(ends[0], []).append(i)
            hom.setdefault(ends, []).append(i)
        follow = tuple(tuple(out.get(cod_, ())) for _, cod_ in c.mor.values())
        table = [[None] * len(labels) for _ in labels]
        for (f, g), h in c.compose.items():
            i, j, k = pos.get(f), pos.get(g), pos.get(h)
            if i is not None and j is not None and k is not None:
                table[i][j] = k
        return cls(labels, pos, follow, {e: tuple(v) for e, v in hom.items()}, table)


@dataclass(frozen=True, eq=False)
class FinCategory:
    """A finite category given by its tables.

    `index` and the verdict of `validate_category` are computed on first use
    and kept, so the tables must not be changed after construction."""
    objects: tuple
    mor: dict  # MorId -> (dom, cod)
    identity: dict  # ObjId -> MorId
    compose: dict  # (MorId f, MorId g) -> MorId, defined iff cod f == dom g
    name: str = ""

    @cached_property
    def index(self) -> CatIndex:
        return CatIndex.of(self)

    @cached_property
    def _verdict(self) -> Report:
        return _check_category(self)

    @property
    def morphisms(self) -> list:
        return list(self.mor)

    def dom(self, f: MorId) -> ObjId:
        return self.mor[f][0]

    def cod(self, f: MorId) -> ObjId:
        return self.mor[f][1]

    def then(self, f: MorId, g: MorId) -> MorId:
        """Composite "f then g"."""
        return self.compose[(f, g)]

    def composable(self, f: MorId, g: MorId) -> bool:
        return self.cod(f) == self.dom(g)

    def hom(self, x: ObjId, y: ObjId) -> list:
        ix = self.index
        return [ix.labels[i] for i in ix.hom.get((x, y), ())]

    def endos(self, x: ObjId) -> list:
        return self.hom(x, x)


def validate_category(c: FinCategory) -> Report:
    """Check every category axiom; violations are reported with witnesses.

    The verdict is computed once per category object; each call returns its
    own copy of it."""
    return Report(list(c._verdict.violations))


def _check_category(c: FinCategory) -> Report:
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
    # the composition table must be total on composable pairs and empty elsewhere
    ix = c.index
    labels, pos, follow = ix.labels, ix.pos, ix.follow
    misplaced = []  # (pos f, pos g, message)
    for i, f in enumerate(labels):
        for j in follow[i]:
            if (f, labels[j]) not in c.compose:
                misplaced.append((i, j, "missing composite"))
    entries = []  # (code, message, f, g, h), in table order
    for (f, g), h in c.compose.items():
        known = f in pos and g in pos
        if known and not c.composable(f, g):
            misplaced.append((pos[f], pos[g], "composite defined for non-composable pair"))
        if h not in pos:
            entries.append(("composition", "composite not a morphism", f, g, h))
        elif not known:
            entries.append(("composition", "composite of unknown morphisms", f, g, h))
        elif c.composable(f, g) and c.mor[h] != (c.dom(f), c.cod(g)):
            entries.append(("dom-cod", "composite has wrong endpoints", f, g, h))
    for i, j, message in sorted(misplaced):
        rep.add("composition", message, f=labels[i], g=labels[j])
    for code, message, f, g, h in entries:
        rep.add(code, message, f=f, g=g, h=h)
    if not rep.ok:
        return rep  # structural damage; law checks below assume a total table
    table = ix.table
    for i, (f, (d, cod_)) in enumerate(c.mor.items()):
        if table[pos[c.identity[d]]][i] != i:
            rep.add("identity-law", "left identity fails", f=f)
        if table[i][pos[c.identity[cod_]]] != i:
            rep.add("identity-law", "right identity fails", f=f)
    # exactly the composable triples f -> g -> h, in position order
    for i, row_f in enumerate(table):
        for j in follow[i]:
            row_fg, row_g = table[row_f[j]], table[j]
            for k in [k for k in follow[j] if row_fg[k] != row_f[row_g[k]]]:
                rep.add("associativity", "(fg)h != f(gh)",
                        f=labels[i], g=labels[j], h=labels[k])
    return rep


def functor_failures(c: FinCategory, k: FieldSpec, mats: dict, contravariant: bool):
    """The objects x with mats[1_x] != id, and the table entries (f, g), in
    table order, with mats[fg] != mats[g] mats[f], or mats[f] mats[g] when
    contravariant; entries with equal factor shapes share one stacked product."""
    objects = [x for x in c.objects if not k.equal(e := mats[c.identity[x]], k.eye(len(e)))]
    groups: dict = {}  # factor shapes -> [(f, g, left factor, right factor, fg)]
    for (f, g), h in c.compose.items():
        left, right = (f, g) if contravariant else (g, f)
        groups.setdefault((mats[left].shape, mats[right].shape), []).append((f, g, left, right, h))
    bad = set()
    for entries in groups.values():
        left, right, h = (np.stack([mats[e[i]] for e in entries]) for i in (2, 3, 4))
        wrong = (k.matmul(left, right) != h).any(axis=(1, 2))
        bad.update(e[:2] for e, w in zip(entries, wrong) if w)
    return objects, [fg for fg in c.compose if fg in bad]


def opposite(c: FinCategory) -> FinCategory:
    """Reverse all arrows; involutive."""
    rep = validate_category(c)
    if not rep.ok:
        raise ValueError(f"opposite of invalid category: {rep.summary()}")
    mor = {f: (cod_, d) for f, (d, cod_) in c.mor.items()}
    compose = {(g, f): h for (f, g), h in c.compose.items()}
    return FinCategory(c.objects, mor, dict(c.identity), compose,
                       name=f"{c.name}^op" if c.name else "op")


def nerve_chains(c: FinCategory, n: int, normalized: bool = False,
                 limit: int = 500_000) -> list[tuple]:
    """All length-n composable morphism sequences (x0 -> x1 -> ... -> xn).

    Degree 0 chains are the objects, returned as 1-tuples (x,).  The
    unnormalized nerve (identities included) is the default; normalized=True
    drops every chain containing an identity.  A degree of more than `limit`
    chains is refused before it is built: the nerve route is a desk oracle.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n == 0:
        return [(x,) for x in c.objects]
    idents = set(c.identity.values())
    mors = [f for f in c.mor if not (normalized and f in idents)]
    starting: dict = {}  # object -> the morphisms from it, in `mor` order
    for f in mors:
        starting.setdefault(c.dom(f), []).append(f)
    chains = [(f,) for f in mors]
    for _ in range(n - 1):
        count = sum(len(starting.get(c.cod(ch[-1]), ())) for ch in chains)
        if count > limit:
            raise ValueError(f"nerve enumeration of {count} chains exceeds "
                             f"desk-scale limit {limit}")
        chains = [ch + (g,) for ch in chains for g in starting.get(c.cod(ch[-1]), ())]
    return chains


def linearize(c: FinCategory, k: FieldSpec):
    """Category algebra of c over k: basis indexed by the morphisms.

    The product follows the algebra-side order used by the skew and extension
    category algebras (right-to-left relative to the diagrammatic composition
    table): e_f * e_g = e_{gf} when dom(f) == cod(g), else 0.  With this
    orientation a contravariant functor on c becomes a right module on the
    nose, and the skew algebra of the constant coefficient system coincides
    with linearize structure-constant-for-structure-constant.
    """
    from .fdalgebra import FDAlgebra, basis_products

    rep = validate_category(c)
    if not rep.ok:
        raise ValueError(f"cannot linearize invalid category: {rep.summary()}")
    labels, index = c.index.labels, c.index.pos
    d = len(labels)
    products = [(index[f], index[g], index[h])  # table entry: g then f
                for (g, f), h in c.compose.items()]
    unit = k.zeros(d)
    for x in c.objects:
        unit[index[c.identity[x]]] = k.one
    return FDAlgebra(field=k, dim=d, constants=basis_products(k, products), unit=unit,
                     basis_labels=tuple(labels),
                     name=f"k[{c.name}]" if c.name else "k[C]")


@dataclass(eq=False)
class CatFunctor:
    source: FinCategory
    target: FinCategory
    obj_map: dict = dfield(default_factory=dict)
    mor_map: dict = dfield(default_factory=dict)

    def on_obj(self, x: ObjId) -> ObjId:
        return self.obj_map[x]

    def on_mor(self, f: MorId) -> MorId:
        return self.mor_map[f]


def validate_functor(fun: CatFunctor) -> Report:
    rep = Report()
    s, t = fun.source, fun.target
    for x in s.objects:
        if fun.obj_map.get(x) not in t.objects:
            rep.add("functor", "object image missing", object=x)
    for f in s.mor:
        img = fun.mor_map.get(f)
        if img not in t.mor:
            rep.add("functor", "morphism image missing", f=f)
            continue
        if t.mor[img] != (fun.obj_map.get(s.dom(f)), fun.obj_map.get(s.cod(f))):
            rep.add("functor", "image endpoints wrong", f=f, image=img)
    if not rep.ok:
        return rep
    for x in s.objects:
        if fun.on_mor(s.identity[x]) != t.identity[fun.on_obj(x)]:
            rep.add("functor", "identity not preserved", object=x)
    for (f, g), h in s.compose.items():
        if t.then(fun.on_mor(f), fun.on_mor(g)) != fun.on_mor(h):
            rep.add("functor", "composition not preserved", f=f, g=g)
    return rep


def is_isomorphism(fun: CatFunctor) -> bool:
    """True iff fun is bijective on objects and morphisms and a functor."""
    if not validate_functor(fun).ok:
        return False
    s, t = fun.source, fun.target
    objs = set(fun.obj_map[x] for x in s.objects)
    mors = set(fun.mor_map[f] for f in s.mor)
    return len(objs) == len(s.objects) == len(t.objects) \
        and len(mors) == len(s.mor) == len(t.mor)
