"""Extensions of categories: kernel -> total -> base with torsor fibers.

An extension is a pair of functors iota: K -> E and pi: E -> B, all three
categories sharing one object set, with iota injective and pi surjective on
morphisms, both the identity on objects, and: pi(f) = pi(g) iff there is a
unique h in Mor K with (f then iota(h)) = g.  The checker verifies the iff
in both directions for every morphism pair: per f it counts the hits of
h -> f then iota(h) over the kernel endomorphisms at cod f, and compares
them with every g parallel to f, a set that holds the fiber pi^-1(pi f).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .coeffsys import AlgebraPrecosheaf, PrecosheafModule, disjoint_fiber_category
from .fincat import CatFunctor, FinCategory, validate_category, validate_functor
from .validation import Report


@dataclass(eq=False)
class CatExtension:
    kernel: FinCategory
    total: FinCategory
    base: FinCategory
    iota: CatFunctor
    pi: CatFunctor


def check_extension(e: CatExtension) -> Report:
    rep = Report()
    if not (set(e.kernel.objects) == set(e.total.objects) == set(e.base.objects)):
        raise ValueError("extension categories must share one object set")
    for cat, nm in ((e.kernel, "kernel"), (e.total, "total"), (e.base, "base")):
        sub = validate_category(cat)
        if not sub.ok:
            rep.add("category", f"{nm} category invalid", first=sub.violations[0].code)
    if not rep.ok:
        return rep
    for fun, nm in ((e.iota, "iota"), (e.pi, "pi")):
        sub = validate_functor(fun)
        if not sub.ok:
            rep.add("functor", f"{nm} is not a functor", first=sub.violations[0].code)
        for x in fun.source.objects:
            if fun.obj_map.get(x) != x:
                rep.add("objects", f"{nm} is not the identity on objects", object=x)
    if not rep.ok:
        return rep
    images = [e.iota.on_mor(h) for h in e.kernel.mor]
    if len(set(images)) != len(images):
        rep.add("injective", "iota identifies distinct kernel morphisms")
    if set(e.pi.on_mor(f) for f in e.total.mor) != set(e.base.mor):
        rep.add("surjective", "pi misses base morphisms")
    if not rep.ok:
        return rep

    ix = e.total.index
    base_pos = e.base.index.pos
    pi_of = [base_pos[e.pi.on_mor(f)] for f in ix.labels]
    kernel_at = {x: [ix.pos[e.iota.on_mor(h)] for h in e.kernel.endos(x)]
                 for x in e.total.objects}
    # f then iota(h) is parallel to f, so only g parallel to f can connect to
    # it; and pi is a functor that is the identity on objects, so every g with
    # pi(g) = pi(f) is parallel to f too.  Other pairs satisfy neither side.
    failures = []
    for i, (ends, row) in enumerate(zip(e.total.mor.values(), ix.table.tolist())):
        hits = Counter(row[h] for h in kernel_at[ends[1]])
        for j in ix.hom[ends]:
            count = hits[j]
            same_image = pi_of[i] == pi_of[j]
            if same_image and count != 1:
                failures.append(("exists" if not count else "unique", i, j, count))
            if not same_image and count == 1:
                failures.append(("converse", i, j, 1))
    for code, i, j, count in failures:
        f, g = ix.labels[i], ix.labels[j]
        if code == "exists":
            rep.add("torsor-existence", "pi(f)=pi(g) but no connecting kernel morphism",
                    f=f, g=g)
        elif code == "unique":
            rep.add("torsor-uniqueness", "connecting kernel morphism not unique",
                    f=f, g=g, count=count)
        else:
            rep.add("torsor-converse", "connecting morphism exists but pi(f) != pi(g)",
                    f=f, g=g)
    return rep


def fiber_extension(c: FinCategory, a: AlgebraPrecosheaf,
                    n: PrecosheafModule) -> CatExtension:
    """The extension  N_fibers -> Gr(A, N) -> Gr(A), with total `n.gr` and
    base `a.gr`.

    iota sends the fiber element m at x to (1_{A(x)}, m, 1_x); pi forgets the
    module component.  Gr(A, N) is built first: its table guard also bounds
    Gr(A) and the kernel, whose table of sum |N(x)|^2 entries has no guard
    of its own.  `PrecosheafModule.extension` keeps the one built per system.
    """
    total = n.gr
    base = a.gr
    kernel = disjoint_fiber_category(n)
    unit_of = {x: tuple(int(v) for v in a.at(x).unit) for x in c.objects}
    iota = CatFunctor(kernel, total,
                      obj_map={x: x for x in kernel.objects},
                      mor_map={(x, m): (unit_of[x], m, c.identity[x])
                               for (x, m) in kernel.mor})
    pi = CatFunctor(total, base,
                    obj_map={x: x for x in total.objects},
                    mor_map={(r, m, f): (r, f) for (r, m, f) in total.mor})
    return CatExtension(kernel, total, base, iota, pi)
