"""Skew and extension category algebras and the Grothendieck constructions.

Conventions.  Category composition stays diagrammatic ("f then g" = fg); the
algebra products are right-to-left relative to that, as in `linearize`: for
basis elements the product  (s at g) * (r at f)  is supported at fg and is
nonzero only when dom(g) == cod(f).  Inside the fiber the later morphism's
coefficient stays on the left, s A(g)(r), so on the one-morphism category the
skew algebra is A(*) and the extension algebra is the square-zero extension
A(*) |x M(*), not their opposites.

The Grothendieck composition laws read "first argument then second".
`gr_algebra`, `gr_bimodule` (over a bimodule M) and `gr_right_module` (over a
right module N) share one enumerator, `_grothendieck`, which owns the
morphism labels, identities, iteration order and size guards; each hands it
only its fiber and its composite law.  A law takes the whole fibers of f
and g as arrays and returns the composites' factors through the `FieldSpec`
kernels:

    Gr(A):     (r,f)   o (s,g)   = (A(g)(r) s,                             fg)
    Gr(A, M):  (r,m,f) o (s,n,g) = (s A(g)(r),  s.M(g)(m) + n.A(g)(r),  fg)
    Gr(A, N):  (r,m,f) o (s,n,g) = (A(g)(r) s,  n + N(g)(m).s,          fg)

Gr(A, M) follows the algebra's fiber order, so that transporting it into the
extension algebra reverses composition.  `gr_algebra` and Gr(A, N) put the
first argument's coefficient on the left: for a right A-module N the module
term is associative only with that algebra term, and the fiber extensions
(`extcheck`, `lhsengine`) are built on these two, kept on the systems as
`AlgebraPrecosheaf.gr` and `PrecosheafModule.gr`.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

import numpy as np

from .coeffsys import AlgebraPrecosheaf, PrecosheafModule
from .fdalgebra import BLOCK_TERMS, FDAlgebra, join_constants, opposite_algebra, trivial_extension
from .fincat import TABLE_LIMIT, FinCategory


def skew_algebra(c: FinCategory, a: AlgebraPrecosheaf) -> FDAlgebra:
    """Skew category algebra: basis (f, i) with i a basis index of A(cod f).

    Product: (e_j at g) * (e_i at f) = (e_j A(g)(e_i)  at  fg) when
    dom(g) == cod(f), else 0.  The later morphism's coefficient stays on the
    left, so on the one-morphism category this is A(*) itself.
    """
    k = a.field
    dims = {f: a.at(c.cod(f)).dim for f in c.mor}
    start = dict(zip(c.mor, np.cumsum([0, *dims.values()]).tolist()))  # first basis index
    blocks = []
    for (f, g), h in c.compose.items():  # f then g; product order is (g-part)*(f-part)
        # [l, j, i]: coefficient of e_l in e_j A(g)(e_i)
        prods = a.at(c.cod(g)).right_mult_matrix(a.on(g).matrix)
        l, j, i = np.nonzero(prods)
        blocks.append((start[g] + j, start[f] + i, start[h] + l, prods[l, j, i]))
    unit = k.zeros(sum(dims.values()))
    for x in c.objects:
        f = c.identity[x]
        unit[start[f]:start[f] + dims[f]] = a.at(x).unit
    return FDAlgebra(field=k, dim=len(unit), constants=join_constants(blocks), unit=unit,
                     basis_labels=tuple((f, i) for f in c.mor for i in range(dims[f])),
                     name="A[C]")


def extension_algebra(c: FinCategory, a: AlgebraPrecosheaf,
                      m: PrecosheafModule) -> FDAlgebra:
    """Extension category algebra: per morphism f an A(cod f)-block and an
    M(cod f)-block; the product extends

        (s,n at g) * (r,m at f) = (t, w at fg),
        t = s A(g)(r),   w = s.M(g)(m) + n.A(g)(r),

    bilinearly, and vanishes unless dom(g) == cod(f).  On the one-morphism
    category this is the square-zero extension A(*) |x M(*) with
    (s,n)(r,m) = (sr, s.m + n.r).  A bimodule system keeps the one built
    for it as `PrecosheafModule.extension_algebra`.
    """
    k = a.field
    da = {f: a.at(c.cod(f)).dim for f in c.mor}
    dm = {f: m.at(c.cod(f)).dim for f in c.mor}
    start = dict(zip(c.mor, np.cumsum([0] + [da[f] + dm[f] for f in c.mor]).tolist()))
    mstart = {f: start[f] + da[f] for f in c.mor}
    blocks = []
    for (f, g), h in c.compose.items():
        ag = a.on(g).matrix
        alg_z, mod_z = a.at(c.cod(g)), m.at(c.cod(g))
        # (e_j at g) * (e_i at f) = e_j A(g)(e_i): entry [l, j, i]
        prods = alg_z.right_mult_matrix(ag)
        l, j, i = np.nonzero(prods)
        blocks.append((start[g] + j, start[f] + i, start[h] + l, prods[l, j, i]))
        # (m_j at g) * (e_i at f) = m_j.A(g)(e_i): entry [i, l, j]
        rights = mod_z.right_of(ag.T)
        i, l, j = np.nonzero(rights)
        blocks.append((mstart[g] + j, start[f] + i, mstart[h] + l, rights[i, l, j]))
        if mod_z.dim and alg_z.dim:
            # (e_j at g) * (m_i at f) = e_j.M(g)(m_i): entry [j, l, i]
            w = k.matmul(np.stack(mod_z.left_action), m.on(g))
            j, l, i = np.nonzero(w)
            blocks.append((start[g] + j, mstart[f] + i, mstart[h] + l, w[j, l, i]))
        # (m at g) * (m at f) = 0
    unit = k.zeros(sum(da.values()) + sum(dm.values()))
    for x in c.objects:
        f = c.identity[x]
        unit[start[f]:start[f] + da[f]] = a.at(x).unit
    basis = tuple(b for f in c.mor for b in [(f, "a", i) for i in range(da[f])]
                  + [(f, "m", j) for j in range(dm[f])])
    return FDAlgebra(field=k, dim=len(unit), constants=join_constants(blocks), unit=unit,
                     basis_labels=basis, name="A|xM")


# -- Grothendieck constructions ------------------------------------------------

def _require_finite(k) -> None:
    if not k.is_prime_field:
        raise ValueError("Grothendieck constructions enumerate elements; need a prime field")


def _guard_table(c: FinCategory, fiber_sizes: dict) -> None:
    total = sum(fiber_sizes[f] * fiber_sizes[g] for (f, g) in c.compose)
    if total > TABLE_LIMIT:
        raise ValueError(f"composition table with {total} entries exceeds desk scale")


def _grothendieck(c: FinCategory, a: AlgebraPrecosheaf, systems: tuple, law,
                  name: str) -> FinCategory:
    """The one enumerator behind the three Grothendieck constructions.

    The fiber at f is A(cod f) times the carrier at cod f of each module
    system in `systems` (none for Gr(A), one for Gr(A, M) and Gr(A, N)).
    Morphisms (*e, f) for e in the fiber: (r, f) or (r, m, f); identities
    (1, 0, 1_x).  The law is called once per composable pair (f, g), as
    `law(g, *ef, *eg)`: ef and eg hold the fibers of f and g, one array of
    factor elements per factor in `FieldSpec.vectors` order, each factor on
    an axis of its own (f's first) with its vectors along the last axis.  It
    returns the factors of every composite (*e, f) o (*e', g) = (*e'', fg),
    arrays that broadcast over those axes; their digits give the position
    of e'' in the fiber of fg, whose label `compose` reuses."""
    k = a.field
    _require_finite(k)
    width = 1 + len(systems)
    factors = {x: [a.at(x).elements(), *(k.vectors(s.at(x).dim) for s in systems)]
               for x in dict.fromkeys(map(c.cod, c.mor))}
    _guard_table(c, {f: prod(map(len, factors[c.cod(f)])) for f in c.mor})
    labels = {f: [(*e, f) for e in product(*factors[c.cod(f)])] for f in c.mor}
    mor = {u: c.mor[f] for f in c.mor for u in labels[f]}
    identity = {x: (tuple(a.at(x).unit.tolist()), *((0,) * s.at(x).dim for s in systems),
                    c.identity[x]) for x in c.objects}

    def fiber(x, first):
        return tuple(np.expand_dims(np.array(fs, dtype=np.int64),
                                    tuple(j for j in range(2 * width) if j != first + i))
                     for i, fs in enumerate(factors[x]))
    as_f = {x: fiber(x, 0) for x in factors}
    as_g = {x: fiber(x, width) for x in factors}
    compose = {}
    for (f, g), h in c.compose.items():
        y, z = c.cod(f), c.cod(g)
        digits = [d for part in law(g, *as_f[y], *as_g[z]) for d in np.moveaxis(part, -1, 0)]
        pos = np.ravel_multi_index(digits, (k.p,) * len(digits))
        pos = np.broadcast_to(pos, [len(fs) for fs in factors[y] + factors[z]])
        compose.update(zip(product(labels[f], labels[g]),
                           map(labels[h].__getitem__, pos.ravel().tolist())))
    return FinCategory(tuple(c.objects), mor, identity, compose, name=name)


def gr_algebra(c: FinCategory, a: AlgebraPrecosheaf) -> FinCategory:
    """Category with morphisms (r, f), r in A(cod f);
    (r,f) o (s,g) = (A(g)(r) s, fg).

    The first argument's coefficient multiplies from the left, matching
    `gr_right_module` (see the module docstring)."""
    k = a.field

    def law(g, r, s):
        return (a.at(c.cod(g)).mul(k.matmul(r, a.on(g).matrix.T), s),)
    return _grothendieck(c, a, (), law, "Gr(A)")


def gr_bimodule(c: FinCategory, a: AlgebraPrecosheaf,
                m: PrecosheafModule) -> FinCategory:
    """Morphisms (r, m, f); composition
    (r,m,f) o (s,n,g) = (s A(g)(r), s.M(g)(m) + n.A(g)(r), fg).

    The later morphism's coefficient multiplies from the left, as in
    `extension_algebra`, so the transport (r,m,f) -> (r,m at f) reverses
    composition into multiplication (`check_composition_antihom`).  With
    M = 0 this agrees with `gr_algebra` only when the fiber algebras are
    commutative."""
    k = a.field

    def law(g, r, mm, s, n):
        mod_z = m.at(c.cod(g))
        agr = k.matmul(r, a.on(g).matrix.T)
        mg = k.matmul(mm, m.on(g).T)[..., None]  # M(g)(m) as columns
        w = k.matmul(mod_z.left_of(s), mg) + k.matmul(mod_z.right_of(agr), n[..., None])
        return a.at(c.cod(g)).mul(s, agr), k.reduce(w[..., 0])  # s.M(g)(m) + n.A(g)(r)
    return _grothendieck(c, a, (m,), law, "Gr(A,M)")


def gr_right_module(c: FinCategory, a: AlgebraPrecosheaf,
                    n: PrecosheafModule) -> FinCategory:
    """Morphisms (r, m, f); composition
    (r,m,f) o (s,n,g) = (A(g)(r)s, n + N(g)(m).s, fg).

    N carries only a right action, so the module term can absorb the later
    coefficient s only from the right; associativity then forces the algebra
    term A(g)(r)s of `gr_algebra`, not the s A(g)(r) of `gr_bimodule`."""
    k = a.field

    def law(g, r, mm, s, nn):
        mod_z = n.at(c.cod(g))
        t = a.at(c.cod(g)).mul(k.matmul(r, a.on(g).matrix.T), s)
        ng = k.matmul(mm, n.on(g).T)[..., None]  # N(g)(m) as columns
        return t, k.reduce(nn + k.matmul(mod_z.right_of(s), ng)[..., 0])  # n + N(g)(m).s
    return _grothendieck(c, a, (n,), law, "Gr(A,N)")


# -- verdicts -------------------------------------------------------------------

@dataclass
class CheckVerdict:
    passed: bool
    detail: str = ""
    witness: dict | None = None
    pairs_checked: int = 0

    def as_dict(self) -> dict:
        return {"passed": self.passed, "detail": self.detail,
                "witness": None if self.witness is None
                else {k: repr(v) for k, v in self.witness.items()},
                "pairs_checked": self.pairs_checked}


def check_composition_antihom(c: FinCategory, a: AlgebraPrecosheaf,
                              m: PrecosheafModule) -> CheckVerdict:
    """Transport every composable pair of Gr(A, M) = `m.gr` into the
    extension algebra `m.extension_algebra`.

    For morphisms u = (r,m,f) and v = (s,n,g) with u then v defined, checks

        embed(u o v) = embed(v) * embed(u)

    in the extension category algebra, i.e. the transport reverses
    composition into multiplication.  Each morphism is embedded once, as the
    row at its position in `gr.index`, and the pairs are read as slices of
    `gr.index.entries`, in table order, each slice multiplied in one stacked
    product of at most BLOCK_TERMS terms.  Exhaustive; returns the first
    failing pair in table order as a witness.
    """
    gr, ext = m.gr, m.extension_algebra
    k = ext.field
    index = {b: t for t, b in enumerate(ext.basis_labels)}
    embed = k.zeros(len(gr.mor), ext.dim)  # row t embeds the morphism at position t
    for t, (r, mm, f) in enumerate(gr.mor):
        cols = [index[(f, "a", i)] for i in range(len(r))] \
            + [index[(f, "m", j)] for j in range(len(mm))]
        embed[t, cols] = k.array([*r, *mm])
    # pairs per block: the stacked product holds pairs x constants terms
    size = max(1, BLOCK_TERMS // max(1, len(ext.constants[0])))
    count = len(gr.compose)
    if count and gr.index.entries.min() < 0:
        raise ValueError("Gr(A, M) table has an entry that names no morphism")
    for s in range(0, count, size):
        u, v, w = gr.index.entries[:, s:s + size]
        bad = np.flatnonzero(np.any(embed[w] != ext.mul(embed[v], embed[u]), axis=1))
        if len(bad):
            e, labels = int(bad[0]), gr.index.labels
            return CheckVerdict(False, "composition transport mismatch",
                                {"u": labels[u[e]], "v": labels[v[e]]}, s + e + 1)
    return CheckVerdict(True, f"all {count} composable pairs agree", None, count)


def _products(alg: FDAlgebra) -> tuple:
    """The constants as {(i, j, l): c} and the unit: equal iff the algebras are."""
    i, j, l, c = alg.constants
    return dict(zip(zip(i.tolist(), j.tolist(), l.tolist()), c.tolist())), alg.unit.tolist()


def check_degeneration(kind: str, c: FinCategory, a: AlgebraPrecosheaf,
                       m: PrecosheafModule) -> CheckVerdict:
    """Structure-constant equality in the two degenerate situations.

    kind="trivial-ext": C must be the one-object, one-morphism category; the
    extension algebra must equal the square-zero extension of A(*) by M(*).
    kind="skew": M must be the zero system; the extension algebra must equal
    the skew algebra on the same basis.  The extension algebra is the one
    kept on M (`m.extension_algebra`).
    """
    ext = m.extension_algebra
    if kind == "trivial-ext":
        if len(c.objects) != 1 or len(c.mor) != 1:
            raise ValueError("trivial-ext degeneration needs the one-morphism category")
        x = c.objects[0]
        te = trivial_extension(a.at(x), m.at(x))
        ours, theirs = _products(ext), _products(te)
        if ours == theirs:
            return CheckVerdict(True, "extension algebra vs square-zero extension")
        # if the fiber products were taken in the wrong order, the one-object
        # extension algebra would be the opposite square-zero extension; name
        # that case in the verdict detail
        witness = sorted(e for e in ours[0].keys() | theirs[0].keys()
                         if ours[0].get(e) != theirs[0].get(e))[:4]
        detail = ("equality fails; the opposite square-zero extension matches exactly"
                  if ours == _products(opposite_algebra(te)) else "equality fails")
        return CheckVerdict(False, detail, {"entries": witness})
    if kind == "skew":
        if any(m.at(x).dim != 0 for x in c.objects):
            raise ValueError("skew degeneration needs the zero bimodule")
        # with M = 0 the bases (f,"a",i) and (f,i) enumerate identically
        same = _products(ext) == _products(skew_algebra(c, a))
        return CheckVerdict(same, "extension algebra vs skew algebra",
                            None if same else {"dim": ext.dim})
    raise ValueError(f"unknown degeneration kind {kind!r}")
