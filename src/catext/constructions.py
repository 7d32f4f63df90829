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
only its fiber and its composite law:

    Gr(A):     (r,f)   o (s,g)   = (A(g)(r) s,                             fg)
    Gr(A, M):  (r,m,f) o (s,n,g) = (s A(g)(r),  s.M(g)(m) + n.A(g)(r),  fg)
    Gr(A, N):  (r,m,f) o (s,n,g) = (A(g)(r) s,  n + N(g)(m).s,          fg)

Gr(A, M) follows the algebra's fiber order, so that transporting it into the
extension algebra reverses composition.  `gr_algebra` and Gr(A, N) put the
first argument's coefficient on the left: for a right A-module N the module
term is associative only with that algebra term, and the fiber extensions
(`extcheck`, `lhsengine`) are built on these two.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from math import prod

import numpy as np

from .coeffsys import AlgebraPrecosheaf, PrecosheafModule
from .fdalgebra import FDAlgebra
from .fincat import FinCategory

_TABLE_LIMIT = 2_000_000


def skew_algebra(c: FinCategory, a: AlgebraPrecosheaf) -> FDAlgebra:
    """Skew category algebra: basis (f, i) with i a basis index of A(cod f).

    Product: (e_j at g) * (e_i at f) = (e_j A(g)(e_i)  at  fg) when
    dom(g) == cod(f), else 0.  The later morphism's coefficient stays on the
    left, so on the one-morphism category this is A(*) itself.
    """
    k = a.field
    basis = [(f, i) for f in c.mor for i in range(a.at(c.cod(f)).dim)]
    index = {b: t for t, b in enumerate(basis)}
    d = len(basis)
    structure = k.zeros(d, d, d)
    for (f, g), h in c.compose.items():  # f then g; product order is (g-part)*(f-part)
        ag = a.on(g).matrix
        target = a.at(c.cod(g))
        for i in range(a.at(c.cod(f)).dim):
            agi = ag[:, i]
            for j in range(target.dim):
                prod = target.mul(target.basis_vector(j), agi)
                row = index[(g, j)]
                col = index[(f, i)]
                for l in range(target.dim):
                    if prod[l] != 0:
                        structure[row, col, index[(h, l)]] = prod[l]
    unit = k.zeros(d)
    for x in c.objects:
        for i, u in enumerate(a.at(x).unit):
            unit[index[(c.identity[x], i)]] = u
    return FDAlgebra(field=k, dim=d, structure=structure, unit=unit,
                     basis_labels=tuple(basis), name="A[C]")


def extension_algebra(c: FinCategory, a: AlgebraPrecosheaf,
                      m: PrecosheafModule) -> FDAlgebra:
    """Extension category algebra: per morphism f an A(cod f)-block and an
    M(cod f)-block; the product extends

        (s,n at g) * (r,m at f) = (t, w at fg),
        t = s A(g)(r),   w = s.M(g)(m) + n.A(g)(r),

    bilinearly, and vanishes unless dom(g) == cod(f).  On the one-morphism
    category this is the square-zero extension A(*) |x M(*) with
    (s,n)(r,m) = (sr, s.m + n.r).
    """
    k = a.field
    basis = []
    for f in c.mor:
        y = c.cod(f)
        basis.extend((f, "a", i) for i in range(a.at(y).dim))
        basis.extend((f, "m", j) for j in range(m.at(y).dim))
    index = {b: t for t, b in enumerate(basis)}
    d = len(basis)
    structure = k.zeros(d, d, d)
    for (f, g), h in c.compose.items():
        y = c.cod(f)
        z = c.cod(g)
        ag = a.on(g).matrix
        mg = m.on(g)
        alg_z = a.at(z)
        mod_z = m.at(z)
        da_f, dm_f = a.at(y).dim, m.at(y).dim
        for i in range(da_f):
            agi = ag[:, i]
            right_agi = mod_z.right_of(agi) if mod_z.dim else None
            for j in range(alg_z.dim):
                # (e_j at g) * (e_i at f): algebra part t = e_j A(g)(e_i)
                prod = alg_z.mul(alg_z.basis_vector(j), agi)
                row, col = index[(g, "a", j)], index[(f, "a", i)]
                for l in range(alg_z.dim):
                    if prod[l] != 0:
                        structure[row, col, index[(h, "a", l)]] = prod[l]
            # (m_j at g) * (e_i at f): w = m_j.A(g)(e_i)
            for j in range(mod_z.dim):
                w = right_agi[:, j]
                row, col = index[(g, "m", j)], index[(f, "a", i)]
                for l in range(mod_z.dim):
                    if w[l] != 0:
                        structure[row, col, index[(h, "m", l)]] = w[l]
        for i in range(dm_f):
            if mod_z.dim == 0:
                break
            mgi = mg[:, i]
            for j in range(alg_z.dim):
                # (e_j at g) * (m_i at f): w = e_j.M(g)(m_i)
                w = k.matmul(mod_z.left_action[j], mgi)
                row, col = index[(g, "a", j)], index[(f, "m", i)]
                for l in range(mod_z.dim):
                    if w[l] != 0:
                        structure[row, col, index[(h, "m", l)]] = w[l]
            # (m at g) * (m at f) = 0
    unit = k.zeros(d)
    for x in c.objects:
        for i, u in enumerate(a.at(x).unit):
            unit[index[(c.identity[x], "a", i)]] = u
    return FDAlgebra(field=k, dim=d, structure=structure, unit=unit,
                     basis_labels=tuple(basis), name="A|xM")


# -- Grothendieck constructions ------------------------------------------------

def _require_finite(k) -> None:
    if not k.is_prime_field:
        raise ValueError("Grothendieck constructions enumerate elements; need a prime field")


def _guard_table(c: FinCategory, fiber_sizes: dict) -> None:
    total = sum(fiber_sizes[f] * fiber_sizes[g] for (f, g) in c.compose)
    if total > _TABLE_LIMIT:
        raise ValueError(f"composition table with {total} entries exceeds desk scale")


def _ints(v: np.ndarray) -> tuple:
    return tuple(v.tolist())


def _sum_mod(p: int):
    """Sum of two residue tuples mod p, memoized: few distinct pairs occur."""
    return cache(lambda u, v: tuple((x + y) % p for x, y in zip(u, v)))


def _grothendieck(c: FinCategory, a: AlgebraPrecosheaf, systems: tuple, law,
                  name: str) -> FinCategory:
    """The one enumerator behind the three Grothendieck constructions.

    The fiber at f is A(cod f) times the carrier at cod f of each module
    system in `systems` (none for Gr(A), one for Gr(A, M) and Gr(A, N)).
    Morphisms (*e, f) for e in the fiber: (r, f) or (r, m, f); identities
    (1, 0, 1_x).  For each composable pair (f, g), `law(g)(*e, *e')` is the
    fiber element e'' of the composite (*e, f) o (*e', g) = (*e'', fg).  The
    law is taken once per g, so what it memoizes serves every f before g."""
    k = a.field
    _require_finite(k)
    factors = {f: [a.at(c.cod(f)).elements()]
               + [k.vectors(s.at(c.cod(f)).dim) for s in systems] for f in c.mor}
    _guard_table(c, {f: prod(map(len, fs)) for f, fs in factors.items()})
    fibers = {f: list(product(*fs)) for f, fs in factors.items()}
    labels = {f: [(*e, f) for e in fibers[f]] for f in c.mor}
    mor = {u: c.mor[f] for f in c.mor for u in labels[f]}
    identity = {x: (_ints(a.at(x).unit), *((0,) * s.at(x).dim for s in systems),
                    c.identity[x]) for x in c.objects}
    law = cache(law)
    compose = {}
    for (f, g), h in c.compose.items():
        comp = law(g)
        for e, u in zip(fibers[f], labels[f]):
            for e2, v in zip(fibers[g], labels[g]):
                compose[u, v] = (*comp(*e, *e2), h)
    return FinCategory(tuple(c.objects), mor, identity, compose, name=name)


def gr_algebra(c: FinCategory, a: AlgebraPrecosheaf) -> FinCategory:
    """Category with morphisms (r, f), r in A(cod f);
    (r,f) o (s,g) = (A(g)(r) s, fg).

    The first argument's coefficient multiplies from the left, matching
    `gr_right_module` (see the module docstring)."""
    k = a.field

    def law(g):
        ag, alg_z = a.on(g).matrix, a.at(c.cod(g))
        agr = cache(lambda r: k.matmul(ag, k.array(r)))
        return cache(lambda r, s: (_ints(alg_z.mul(agr(r), k.array(s))),))
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
    add = _sum_mod(k.p)

    def law(g):
        ag, mg = a.on(g).matrix, m.on(g)
        alg_z, mod_z = a.at(c.cod(g)), m.at(c.cod(g))
        agr = cache(lambda r: k.matmul(ag, k.array(r)))
        t = cache(lambda r, s: _ints(alg_z.mul(k.array(s), agr(r))))
        right_agr = cache(lambda r: mod_z.right_of(agr(r)))
        left_s = cache(lambda s: mod_z.left_of(k.array(s)))
        mgm = cache(lambda mm: k.matmul(mg, k.array(mm)))
        s_mgm = cache(lambda mm, s: _ints(k.matmul(left_s(s), mgm(mm))))  # s.M(g)(m)
        n_agr = cache(lambda r, n: _ints(k.matmul(right_agr(r), k.array(n))))  # n.A(g)(r)
        return lambda r, mm, s, n: (t(r, s), add(s_mgm(mm, s), n_agr(r, n)))
    return _grothendieck(c, a, (m,), law, "Gr(A,M)")


def gr_right_module(c: FinCategory, a: AlgebraPrecosheaf,
                    n: PrecosheafModule) -> FinCategory:
    """Morphisms (r, m, f); composition
    (r,m,f) o (s,n,g) = (A(g)(r)s, n + N(g)(m).s, fg).

    N carries only a right action, so the module term can absorb the later
    coefficient s only from the right; associativity then forces the algebra
    term A(g)(r)s of `gr_algebra`, not the s A(g)(r) of `gr_bimodule`."""
    k = a.field
    add = _sum_mod(k.p)

    def law(g):
        ag, ng = a.on(g).matrix, n.on(g)
        alg_z, mod_z = a.at(c.cod(g)), n.at(c.cod(g))
        agr = cache(lambda r: k.matmul(ag, k.array(r)))
        t = cache(lambda r, s: _ints(alg_z.mul(agr(r), k.array(s))))
        right_s = cache(lambda s: mod_z.right_of(k.array(s)))
        ngm = cache(lambda mm: k.matmul(ng, k.array(mm)))
        ngm_s = cache(lambda mm, s: _ints(k.matmul(right_s(s), ngm(mm))))  # N(g)(m).s
        return lambda r, mm, s, nn: (t(r, s), add(nn, ngm_s(mm, s)))
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


def _embed_triple(alg: FDAlgebra, index: dict, r, mm, f) -> np.ndarray:
    k = alg.field
    v = k.zeros(alg.dim)
    for i, ri in enumerate(r):
        if ri != 0:
            v[index[(f, "a", i)]] = k.coerce(ri)
    for j, mj in enumerate(mm):
        if mj != 0:
            v[index[(f, "m", j)]] = k.coerce(mj)
    return v


def check_composition_antihom(c: FinCategory, a: AlgebraPrecosheaf,
                              m: PrecosheafModule,
                              gr: FinCategory | None = None,
                              ext: FDAlgebra | None = None) -> CheckVerdict:
    """Transport every composable pair of Gr(A, M) into the extension algebra.

    For morphisms u = (r,m,f) and v = (s,n,g) with u then v defined, checks

        embed(u o v) = embed(v) * embed(u)

    in the extension category algebra, i.e. the transport reverses
    composition into multiplication.  Exhaustive; returns the first failing
    pair as a witness.
    """
    gr = gr if gr is not None else gr_bimodule(c, a, m)
    ext = ext if ext is not None else extension_algebra(c, a, m)
    index = {b: t for t, b in enumerate(ext.basis_labels)}
    checked = 0
    k = ext.field
    for (u, v), w in gr.compose.items():
        ru, mu, fu = u
        rv, mv, fv = v
        rw, mw, fw = w
        lhs = _embed_triple(ext, index, rw, mw, fw)
        rhs = ext.mul(_embed_triple(ext, index, rv, mv, fv),
                      _embed_triple(ext, index, ru, mu, fu))
        checked += 1
        if not k.equal(lhs, rhs):
            return CheckVerdict(False, "composition transport mismatch",
                                {"u": u, "v": v}, checked)
    return CheckVerdict(True, f"all {checked} composable pairs agree", None, checked)


def check_degeneration(kind: str, c: FinCategory, a: AlgebraPrecosheaf,
                       m: PrecosheafModule) -> CheckVerdict:
    """Structure-constant equality in the two degenerate situations.

    kind="trivial-ext": C must be the one-object, one-morphism category; the
    extension algebra must equal the square-zero extension of A(*) by M(*).
    kind="skew": M must be the zero system; the extension algebra must equal
    the skew algebra on the same basis.
    """
    from .fdalgebra import opposite_algebra, trivial_extension

    k = a.field
    ext = extension_algebra(c, a, m)
    if kind == "trivial-ext":
        if len(c.objects) != 1 or len(c.mor) != 1:
            raise ValueError("trivial-ext degeneration needs the one-morphism category")
        x = c.objects[0]
        te = trivial_extension(a.at(x), m.at(x))
        same = k.equal(ext.structure, te.structure) and k.equal(ext.unit, te.unit)
        if same:
            return CheckVerdict(True, "extension algebra vs square-zero extension")
        # if the fiber products were taken in the wrong order, the one-object
        # extension algebra would be the opposite square-zero extension; name
        # that case in the verdict detail
        op = opposite_algebra(te)
        anti = k.equal(ext.structure, op.structure) and k.equal(ext.unit, op.unit)
        witness = [tuple(w) for w in np.argwhere(ext.structure != te.structure)[:4].tolist()]
        detail = ("equality fails; the opposite square-zero extension matches exactly"
                  if anti else "equality fails")
        return CheckVerdict(False, detail, {"entries": witness})
    if kind == "skew":
        if any(m.at(x).dim != 0 for x in c.objects):
            raise ValueError("skew degeneration needs the zero bimodule")
        sk = skew_algebra(c, a)
        # with M = 0 the bases (f,"a",i) and (f,i) enumerate identically
        same = ext.dim == sk.dim and k.equal(ext.structure, sk.structure) \
            and k.equal(ext.unit, sk.unit)
        return CheckVerdict(same, "extension algebra vs skew algebra",
                            None if same else {"dim": ext.dim})
    raise ValueError(f"unknown degeneration kind {kind!r}")
