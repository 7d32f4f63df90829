"""Two-sided verification data for the LHS-style spectral sequences.

For the extension  fibers -> Gr(A, N) -> Gr(A)  the engine computes, fully
independently:

  * the E2 page  Ext^p over Gr(A) with coefficients in the degree-q fiber
    cohomology local system, and
  * the abutment  Ext^(p+q) over Gr(A, N),

then compares dimensions per total degree.  First-quadrant convergence forces
sum(E2 diagonal) >= abutment in every degree, with equality whenever the
computed page is supported on a single row or column (nothing for the
differentials to do).  Differentials of the pages r >= 2 are never computed.

The fiber at x is N(x) = `n.fibers[x]`, a component of the kernel of
`n.extension`, with F restricted along iota; its bar cochains live on fiber
positions, on which a lift u acts through F(u) and conjugation by u.

Coefficient modules carry their own field, which may differ from the prime
field the coefficient systems A and N live over: the constructions only use
the finite category structure.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffsys import AlgebraPrecosheaf, PrecosheafModule
from .constructions import _check_system
from .fincat import CatFunctor, FinCategory, linearize
from .homengine import (CatModule, bar_cochain_complex, bar_pullback, bar_subquotients,
                        cat_ext_dims, ext_dims_from_resolution, free_resolution, restrict,
                        to_algebra_module, validate_cat_module)


@dataclass(eq=False)
class HLocalSystem:
    degree: int
    module: CatModule  # over Gr(A)


@dataclass(eq=False)
class SpectralReport:
    caps: tuple  # (P, Q, N)
    e2: dict  # (p, q) -> dim
    abutment_dims: list  # n -> dim
    verdicts: list  # n -> "equal" | "bounded" | "violation"
    collapse: str  # "row" | "column" | "empty" | "none"

    @property
    def ok(self) -> bool:
        return "violation" not in self.verdicts

    def e2_diagonal_sum(self, n: int) -> int:
        return sum(d for (p, q), d in self.e2.items() if p + q == n)

    def as_dict(self) -> dict:
        return {
            "caps": {"p": self.caps[0], "q": self.caps[1], "n": self.caps[2]},
            "e2": {f"{p},{q}": int(d) for (p, q), d in sorted(self.e2.items())},
            "abutment": [int(d) for d in self.abutment_dims],
            "verdicts": list(self.verdicts),
            "collapse": self.collapse,
            "ok": self.ok,
        }


class _LhsContext:
    """The subquotients of the bar complexes of the fibers N(x), per degree,
    over the extension `n.extension` kept on the system, whose category and
    precosheaf c and a must be (or copies with the same tables and maps)."""

    def __init__(self, c: FinCategory, a: AlgebraPrecosheaf,
                 n: PrecosheafModule, f: CatModule, qmax: int):
        _check_system(c, a, n)
        self.c, self.n, self.f = c, n, f
        self.ext = n.extension
        total = self.ext.total
        if f.cat is not total and set(f.cat.mor) != set(total.mor):
            raise ValueError("coefficient module is not over Gr(A, N)")
        self.k = f.field
        self.fibers = n.fibers
        self.subqs = {}
        for x in c.objects:  # each bar complex is dropped before the next is built
            fx = fiber_restriction(n, f, x)
            self.subqs[x] = bar_subquotients(fx.cat, bar_cochain_complex(fx.cat, fx, qmax),
                                             n.fiber_generators[x])

    # -- induced maps -----------------------------------------------------
    def alpha(self, lift) -> list:
        """Group homomorphism N(x) -> N(y) of a lift u: x -> y on positions,
        conjugation by u read from the table of Gr(A, N): m -> the h with
        iota(m) then u = u then iota(h), which is N(f)(m) . r for u = (r, _, f)."""
        total, iota = self.ext.total, self.ext.iota
        x, y = total.mor[lift]
        h_of = {total.then(lift, iota.on_mor(h)): j
                for j, h in enumerate(self.fibers[y].index.labels)}
        return [h_of[total.then(iota.on_mor(m), lift)] for m in self.fibers[x].index.labels]

    def induced_class_map(self, lift, q: int) -> np.ndarray:
        """Map on H^q classes induced by an arbitrary lift (r, m, f) of the
        Gr(A)-morphism (r, f): the class coordinates of the representatives
        at y pulled back to x; shape (dim H^q at x, dim H^q at y)."""
        x, y = self.c.mor[lift[-1]]
        sx, sy = self.subqs[x][q], self.subqs[y][q]
        if sx.dim == 0 or sy.dim == 0:
            return self.k.zeros(sx.dim, sy.dim)
        return sx.project(bar_pullback(self.k, self.fibers[x], self.fibers[y], self.alpha(lift),
                                       self.f.on(lift), sy.reps, q))

    def canonical_lift(self, base_mor):
        r, fbase = base_mor
        y = self.c.cod(fbase)
        zero = tuple(0 for _ in range(self.n.at(y).dim))
        return (r, zero, fbase)

    def local_system(self, q: int) -> HLocalSystem:
        gr_a = self.ext.base
        dims = {x: self.subqs[x][q].dim for x in self.c.objects}
        mats = {u: self.induced_class_map(self.canonical_lift(u), q) for u in gr_a.mor}
        return HLocalSystem(q, CatModule(gr_a, self.k, dims, mats, name=f"H^{q}(fibers)"))


def fiber_restriction(n: PrecosheafModule, f: CatModule, x) -> CatModule:
    """F restricted along iota to the fiber N(x) = `n.fibers[x]`."""
    fiber = n.fibers[x]
    iota = n.extension.iota
    return restrict(f, CatFunctor(fiber, iota.target, {x: x},
                                  {m: iota.on_mor(m) for m in fiber.mor}))


def h_local_system(c: FinCategory, a: AlgebraPrecosheaf, n: PrecosheafModule,
                   f: CatModule, q: int) -> HLocalSystem:
    ctx = _LhsContext(c, a, n, f, qmax=q)
    return ctx.local_system(q)


def e2_page(c: FinCategory, a: AlgebraPrecosheaf, n: PrecosheafModule,
            g: CatModule, f: CatModule, cap_p: int, cap_q: int) -> dict:
    """E2[(p, q)] = dim Ext^p over Gr(A) of g against the fiber H^q system."""
    ctx = _LhsContext(c, a, n, f, qmax=cap_q)
    gr_a = ctx.ext.base
    if g.cat is not gr_a and set(g.cat.mor) != set(gr_a.mor):
        raise ValueError("weight module is not over Gr(A)")
    if not (rep := validate_cat_module(g)).ok:
        raise ValueError(f"weight module is not a module over Gr(A): {rep.violations[0]}")
    alg = linearize(gr_a, g.field)
    res = free_resolution(alg, to_algebra_module(g, alg), cap_p + 1)
    table = {}
    for q in range(cap_q + 1):
        hq = ctx.local_system(q).module
        dims = ext_dims_from_resolution(res, to_algebra_module(hq, alg), cap_p)
        for p in range(cap_p + 1):
            table[(p, q)] = int(dims[p])
    return table


def abutment(c: FinCategory, a: AlgebraPrecosheaf, n: PrecosheafModule,
             g: CatModule, f: CatModule, cap_n: int) -> list:
    """dim Ext^m over Gr(A, N) of the pullback of g against f, m <= cap_n."""
    _check_system(c, a, n)
    res_g = restrict(g, n.extension.pi)
    return [int(v) for v in cat_ext_dims(n.extension.total, res_g, f, cap_n)]


def lhs_report(c: FinCategory, a: AlgebraPrecosheaf, n: PrecosheafModule,
               g: CatModule, f: CatModule, caps: tuple = (2, 2, 2)) -> SpectralReport:
    """Compare E2 diagonals against the abutment, degree by degree.

    Verdicts: "equal" when the sums match, "bounded" when the E2 sum strictly
    dominates (differentials may be collapsing classes), "violation" when the
    abutment exceeds the E2 bound or when equality is forced by single-row /
    single-column support but fails.
    """
    cap_p, cap_q, cap_n = caps
    cap_p = max(cap_p, cap_n)
    cap_q = max(cap_q, cap_n)
    table = e2_page(c, a, n, g, f, cap_p, cap_q)
    abut = abutment(c, a, n, g, f, cap_n)
    rows = {q for (p, q), d in table.items() if d}
    cols = {p for (p, q), d in table.items() if d}
    if not rows:
        collapse = "empty"
    elif len(rows) == 1:
        collapse = "row"
    elif len(cols) == 1:
        collapse = "column"
    else:
        collapse = "none"
    rep = SpectralReport((cap_p, cap_q, cap_n), table, abut, [], collapse)
    for m in range(cap_n + 1):
        total = rep.e2_diagonal_sum(m)
        if total < abut[m]:
            rep.verdicts.append("violation")
        elif total == abut[m]:
            rep.verdicts.append("equal")
        else:
            rep.verdicts.append("bounded" if collapse == "none" else "violation")
    return rep
