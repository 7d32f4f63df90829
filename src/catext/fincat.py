"""Finite categories as explicit data: objects, morphisms, composition tables.

Composition is stored diagrammatically: compose[(f, g)] is "f then g" and is
defined exactly when cod(f) == dom(g).  Morphism and object ids are arbitrary
hashables (strings in hand-built fixtures, tuples in generated categories).
"""
from __future__ import annotations

from dataclasses import dataclass, field as dfield
from functools import cached_property
from itertools import chain, repeat
from typing import Hashable

import numpy as np

from .exactlin import FieldSpec
from .validation import Report

ObjId = Hashable
MorId = Hashable


CELL_LIMIT = 2 ** 24  # cells of the dense composition table (a 64 MB int32 array)
TABLE_LIMIT = 2_000_000  # entries of a table built by enumerating elements
CHUNK = 2 ** 15  # table cells per gather of the associativity and functor checks
NERVE_LIMIT = 500_000  # chains of one degree of the nerve


@dataclass(frozen=True, eq=False)
class CatIndex:
    """Integer view of a category's tables, built once per category.

    Morphisms are numbered in the order of `mor`.  `entries` is a read-only
    3 x E int32 array: column e holds the positions of f, g and h of the e-th
    entry (f, g) -> h of `compose`, in table order, with -1 for an id that
    names no morphism.  `table` is the read-only n x n int32 array with
    `table[i, j]` the position of "i then j", or -1 where no entry names three
    morphisms; a damaged table keeps its holes, and `validate_category` reports
    the entries left out.  `follow[i]` lists, in position order, the morphisms
    that can follow i (those whose domain is cod i); `hom[(x, y)]` lists the
    morphisms x -> y.  A category of more than CELL_LIMIT cells (n^2) is
    refused before anything is allocated.
    """
    labels: tuple
    pos: dict
    follow: tuple
    hom: dict
    entries: np.ndarray
    table: np.ndarray

    @classmethod
    def of(cls, c: "FinCategory") -> "CatIndex":
        n = len(c.mor)
        if n * n > CELL_LIMIT:
            raise ValueError(f"composition table of {n} x {n} = {n * n} cells exceeds "
                             f"desk-scale limit {CELL_LIMIT}")
        labels = tuple(c.mor)
        pos = {f: i for i, f in enumerate(labels)}
        out: dict = {}
        hom: dict = {}
        for i, ends in enumerate(c.mor.values()):
            out.setdefault(ends[0], []).append(i)
            hom.setdefault(ends, []).append(i)
        follow = tuple(tuple(out.get(cod_, ())) for _, cod_ in c.mor.values())
        count = len(c.compose)
        names = chain(*zip(*c.compose), c.compose.values())  # every f, every g, every h
        entries = np.fromiter(map(pos.get, names, repeat(-1)), np.int32, 3 * count)
        entries = entries.reshape(3, count)
        table = np.full((n, n), -1, dtype=np.int32)
        f, g, h = entries[:, entries.min(axis=0) >= 0]
        table[f, g] = h
        entries.flags.writeable = table.flags.writeable = False
        return cls(labels, pos, follow, {e: tuple(v) for e, v in hom.items()}, entries, table)


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

    def dom(self, f: MorId) -> ObjId:
        return self.mor[f][0]

    def cod(self, f: MorId) -> ObjId:
        return self.mor[f][1]

    def then(self, f: MorId, g: MorId) -> MorId:
        """Composite "f then g"."""
        return self.compose[(f, g)]

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
    ix = c.index
    labels, n = ix.labels, len(ix.labels)
    f, g, h = entries = ix.entries
    # endpoint ids (dom, cod) per position, the objects first; position -1 (no
    # morphism) reads the sentinels (-1, -2), which match no endpoint id
    ids = {x: i for i, x in enumerate(c.objects)}
    dom, cod = np.array([[ids.setdefault(x, len(ids)), ids.setdefault(y, len(ids))]
                         for x, y in c.mor.values()] + [[-1, -2]], np.int32).T
    # the composition table must be total on composable pairs and empty elsewhere
    composable = cod[f] == dom[g]
    bad = (entries.min(axis=0) < 0) | composable & ((dom[h] != dom[f]) | (cod[h] != cod[g]))
    pairs = []
    defined = np.count_nonzero(composable)  # entries of composable pairs
    if defined < len(f):  # entries of known, non-composable pairs
        e = ((f >= 0) & (g >= 0) & ~composable).nonzero()[0]
        pairs = [(i, j, "composite defined for non-composable pair")
                 for i, j in zip(f[e].tolist(), g[e].tolist())]
    if defined < np.bincount(dom[:n], minlength=len(ids))[cod[:n]].sum():
        keyed = set(zip(f[composable].tolist(), g[composable].tolist()))
        pairs += [(i, j, "missing composite") for i in range(n) for j in ix.follow[i]
                  if (i, j) not in keyed]
    for i, j, message in sorted(pairs):
        rep.add("composition", message, f=labels[i], g=labels[j])
    if np.count_nonzero(bad):
        items = list(c.compose.items())
        for e in bad.nonzero()[0].tolist():
            (fe, ge), he = items[e]
            if h[e] < 0:
                rep.add("composition", "composite not a morphism", f=fe, g=ge, h=he)
            elif f[e] < 0 or g[e] < 0:
                rep.add("composition", "composite of unknown morphisms", f=fe, g=ge, h=he)
            else:
                rep.add("dom-cod", "composite has wrong endpoints", f=fe, g=ge, h=he)
    if not rep.ok:
        return rep  # structural damage; law checks below assume a total table
    table, at = ix.table, np.arange(n)
    ident = np.array([ix.pos[c.identity[x]] for x in c.objects], np.int32)
    left = table[ident[dom[:n]], at] != at
    right = table[at, ident[cod[:n]]] != at
    for i in (left | right).nonzero()[0].tolist():
        if left[i]:
            rep.add("identity-law", "left identity fails", f=labels[i])
        if right[i]:
            rep.add("identity-law", "right identity fails", f=labels[i])
    for i, j, k in _associativity_failures(table, entries):
        rep.add("associativity", "(fg)h != f(gh)", f=labels[i], g=labels[j], h=labels[k])
    return rep


def _associativity_failures(table: np.ndarray, entries: np.ndarray) -> list:
    """The composable triples (i, j, k) with (ij)k != i(jk), in position order,
    of a table defined exactly on the composable pairs.  For each entry
    (i, j) -> ij, the rows of ij and j in the table hold (ij)k and jk for every
    k that can follow j, and -1 elsewhere; i(jk) is one gather.  The entries
    are taken CHUNK table cells at a time."""
    n = len(table)
    flat = table.ravel()
    step = max(1, CHUNK // max(1, n))
    failures = []
    for a in range(0, entries.shape[1], step):
        f, g, h = entries[:, a:a + step]
        jk = table[g]
        wrong = (table[h] != flat[(f * n)[:, None] + jk]) & (jk >= 0)
        if np.count_nonzero(wrong):
            e, k = wrong.nonzero()
            failures.append(np.stack([f[e], g[e], k]))
    if not failures:
        return []
    i, j, k = np.concatenate(failures, axis=1)
    return sorted(zip(i.tolist(), j.tolist(), k.tolist()))


def functor_failures(c: FinCategory, k: FieldSpec, mats: dict, contravariant: bool):
    """The objects x with mats[1_x] != id, and the table entries (f, g), in
    table order, with mats[fg] != mats[g] mats[f], or mats[f] mats[g] when
    contravariant, of a valid category and matrices of its endpoints' shapes.
    The matrices are stacked by position, zero-padded to one square size
    (which changes no product or comparison), and the entries are gathered
    from the stack in slices of at most CHUNK matrix cells."""
    objects = [x for x in c.objects if not k.equal(e := mats[c.identity[x]], k.eye(len(e)))]
    ix = c.index
    size = max((max(mats[f].shape) for f in ix.labels), default=0)
    stack = k.zeros(len(ix.labels), size, size)
    for t, f in enumerate(ix.labels):
        stack[t, :len(mats[f]), :mats[f].shape[1]] = mats[f]
    step = max(1, CHUNK // max(1, size * size))
    bad = []
    for a in range(0, ix.entries.shape[1], step):
        f, g, h = ix.entries[:, a:a + step]
        left, right = (f, g) if contravariant else (g, f)
        wrong = (k.matmul(stack[left], stack[right]) != stack[h]).any(axis=(1, 2))
        bad += (a + np.flatnonzero(wrong)).tolist()
    keys = list(c.compose) if bad else []
    return objects, [keys[e] for e in bad]


def nerve_chains(c: FinCategory, n: int, normalized: bool = False) -> list[tuple]:
    """All length-n composable morphism sequences (x0 -> x1 -> ... -> xn).

    Degree 0 chains are the objects, returned as 1-tuples (x,).  The
    unnormalized nerve (identities included) is the default; normalized=True
    drops every chain containing an identity.  A degree of more than
    NERVE_LIMIT chains is refused before it is built: the nerve route is a
    desk oracle.
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
        if count > NERVE_LIMIT:
            raise ValueError(f"nerve enumeration of {count} chains exceeds "
                             f"desk-scale limit {NERVE_LIMIT}")
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
    g, f, h = c.index.entries  # table entry g then f: e_f e_g = e_h
    unit = k.zeros(d)
    for x in c.objects:
        unit[index[c.identity[x]]] = k.one
    return FDAlgebra(field=k, dim=d, constants=basis_products(k, np.stack([f, g, h], 1)),
                     unit=unit, basis_labels=tuple(labels),
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
    # an entry naming no morphism of s has no image; every other entry is
    # checked as one gather from the table of t
    img = np.array([t.index.pos[fun.mor_map[f]] for f in s.mor], np.int64)
    f, g, h = s.index.entries
    wrong = (f < 0) | (g < 0) | (h < 0)
    known = ~wrong
    wrong[known] = t.index.table[img[f[known]], img[g[known]]] != img[h[known]]
    if wrong.any():
        keys = list(s.compose)
        for e in np.flatnonzero(wrong).tolist():
            rep.add("functor", "composition not preserved", f=keys[e][0], g=keys[e][1])
    return rep
