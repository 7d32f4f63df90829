"""End-to-end acceptance checks.

Each test exercises one acceptance criterion at its stated budget and prints
one pass/fail line (collected into the pytest terminal summary).  Everything
is exact; the only tolerances are wall-clock budgets.
"""
import json
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import product
from pathlib import Path

import pytest

from catext.coeffsys import abelian_group_category
from catext.constructions import (check_composition_antihom, check_degeneration,
                                  extension_algebra, skew_algebra)
from catext.extcheck import check_extension, fiber_extension
from catext.fdalgebra import (field_algebra, group_algebra, validate_algebra)
from catext.homengine import (cohomology_dims, constant_module, group_cohomology_dims,
                              nerve_cohomology_dims)
from catext.lhsengine import _LhsContext, e2_page, lhs_report
from catext.presets import (F2, F3, QQ, a2_augmentation_precosheaf, constant_precosheaf,
                            cyclic_monoid, discrete_category, one_object_group, poset_a2,
                            projection_bimodule_system, regular_bimodule_system,
                            regular_right_module_system, trivial_category,
                            zero_bimodule_system, zero_right_module_system)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


@contextmanager
def criterion(log, num, desc, budget):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        log.append(f"criterion {num:2d} FAIL  {desc}")
        raise
    elapsed = time.perf_counter() - t0
    line = f"criterion {num:2d} PASS  {desc}  ({elapsed:.2f}s / {budget:.0f}s)"
    log.append(line)
    print(line)
    assert elapsed < budget, f"budget exceeded: {elapsed:.2f}s >= {budget}s"


def test_criterion_01_trivial_extension_degeneration(acceptance_log):
    # The first two fixtures are commutative with symmetric bimodules, where
    # the square-zero extension equals its opposite.  The third, k x k acting
    # on k through the two projections, tells the two apart, so it fails if
    # the fiber products are taken in the opposite order.
    with criterion(acceptance_log, 1, "one-object extension algebra = square-zero extension", 1.0):
        ct = trivial_category()
        for pre, bim in [
            (constant_precosheaf(ct, field_algebra(QQ)), None),
            (constant_precosheaf(ct, group_algebra([2], F2)), None),
            (projection_bimodule_system(F2).precosheaf, projection_bimodule_system(F2)),
        ]:
            bim = bim if bim is not None else regular_bimodule_system(pre)
            verdict = check_degeneration("trivial-ext", ct, pre, bim)
            assert verdict.passed, f"{bim.name}: {verdict.detail} {verdict.witness}"


def test_criterion_02_skew_degeneration(acceptance_log):
    with criterion(acceptance_log, 2, "zero-bimodule extension algebra = skew algebra", 1.0):
        for cat in (poset_a2(), cyclic_monoid(3, 1)):
            pre = constant_precosheaf(cat, field_algebra(F2))
            assert check_degeneration("skew", cat, pre, zero_bimodule_system(pre)).passed


def test_criterion_03_extension_algebra_axioms(acceptance_log):
    with criterion(acceptance_log, 3, "extension algebras associative with the block-sum unit", 10.0):
        ct, c2, cz = trivial_category(), poset_a2(), one_object_group(2)
        fixtures = [
            (ct, constant_precosheaf(ct, field_algebra(F2))),
            (c2, constant_precosheaf(c2, field_algebra(F2))),
            (c2, a2_augmentation_precosheaf(F2)),  # non-identity algebra maps
            (cz, constant_precosheaf(cz, group_algebra([2], F2))),
        ]
        for cat, pre in fixtures:
            bim = regular_bimodule_system(pre)
            assert any(bim.at(x).dim > 0 for x in cat.objects)
            ext = extension_algebra(cat, pre, bim)
            assert validate_algebra(ext).ok  # exhaustive associativity + unit
            idx = {b: t for t, b in enumerate(ext.basis_labels)}
            expected = ext.field.zeros(ext.dim)
            for x in cat.objects:
                ux = pre.at(x).unit
                for i in range(pre.at(x).dim):
                    expected[idx[(cat.identity[x], "a", i)]] = ux[i]
            assert ext.field.equal(ext.unit, expected)


def test_criterion_04_composition_antihomomorphism(acceptance_log):
    with criterion(acceptance_log, 4, "composition transport reverses products on every pair", 10.0):
        ct = trivial_category()
        pre1 = constant_precosheaf(ct, group_algebra([2], F2))
        v1 = check_composition_antihom(ct, pre1, regular_bimodule_system(pre1))
        assert v1.passed and v1.pairs_checked >= 100
        cz = one_object_group(2)
        pre2 = constant_precosheaf(cz, group_algebra([2], F2))
        v2 = check_composition_antihom(cz, pre2, regular_bimodule_system(pre2))
        assert v2.passed and v2.pairs_checked >= 100


def test_criterion_05_fiber_extension(acceptance_log):
    with criterion(acceptance_log, 5, "fibers -> Gr(A,N) -> Gr(A) is an extension of categories", 30.0):
        ct = trivial_category()
        at = constant_precosheaf(ct, field_algebra(F2))
        c2 = poset_a2()
        a2 = constant_precosheaf(c2, field_algebra(F2))
        fixtures = [
            (ct, at, regular_right_module_system(at)),
            (c2, a2, zero_right_module_system(a2)),   # N = 0
            (c2, a2, regular_right_module_system(a2)),  # two objects, fibers Z/2
        ]
        for cat, pre, nsys in fixtures:
            assert check_extension(fiber_extension(cat, pre, nsys)).ok


def test_criterion_06_cohomology_oracle_equivalence(acceptance_log):
    with criterion(acceptance_log, 6, "resolution route = nerve route on the three fixtures", 60.0):
        cases = [
            (poset_a2(), [1, 0, 0, 0]),
            (discrete_category(2), [2, 0, 0, 0]),
            (one_object_group(2), [1, 1, 1, 1]),
        ]
        for cat, expected in cases:
            k = constant_module(cat, F2)
            res_route = cohomology_dims(cat, k, 3)
            nerve_route = nerve_cohomology_dims(cat, k, 3)
            assert res_route == nerve_route == expected


def test_criterion_07_group_cohomology_closed_form(acceptance_log):
    with criterion(acceptance_log, 7, "cyclic group cohomology matches the closed form", 30.0):
        for p, field in ((2, F2), (3, F3)):
            g = abelian_group_category((p,), "*")
            assert group_cohomology_dims(g, constant_module(g, field), 4) == [1] * 5
        g2 = abelian_group_category((2,), "*")
        assert group_cohomology_dims(g2, constant_module(g2, F3), 4) == [1, 0, 0, 0, 0]


def test_criterion_08_lhs_zero_fiber_collapse(acceptance_log):
    with criterion(acceptance_log, 8, "zero fibers: E2 bottom row = abutment for n <= 3", 60.0):
        for cat in (trivial_category(), poset_a2()):
            pre = constant_precosheaf(cat, field_algebra(F2))
            nsys = zero_right_module_system(pre)
            ext = fiber_extension(cat, pre, nsys)
            rep = lhs_report(cat, pre, nsys, constant_module(ext.base, F2),
                             constant_module(ext.total, F2), (3, 3, 3))
            assert rep.verdicts == ["equal"] * 4
            for m in range(4):
                assert rep.e2.get((m, 0), 0) == rep.abutment_dims[m]
                for q in range(1, 4):
                    assert rep.e2.get((m, q), 0) == 0


def test_criterion_09_lhs_semisimple_fibers(acceptance_log):
    with criterion(acceptance_log, 9, "order-2 fibers over F3: rows q>0 vanish, equality", 60.0):
        for cat in (trivial_category(), poset_a2()):
            pre = constant_precosheaf(cat, field_algebra(F2))
            nsys = regular_right_module_system(pre)
            ext = fiber_extension(cat, pre, nsys)
            rep = lhs_report(cat, pre, nsys, constant_module(ext.base, F3),
                             constant_module(ext.total, F3), (2, 2, 2))
            for (p, q), d in rep.e2.items():
                if q > 0:
                    assert d == 0
            assert rep.verdicts == ["equal"] * 3


# -- criterion 10: brute-force oracle, computed set-theoretically -----------------------

def _brute_fiber_column_oracle(cap_p=2, cap_q=2):
    """E2 column dims for the one-object fixture, using nothing but pointwise
    cochain enumeration over finite sets (no shared linear algebra).

    Fiber group Z/2 acts trivially on F2 coefficients; the base monoid {0,1}
    acts on fiber cochains through m -> m*u.  Every cocycle / coboundary count
    is obtained by exhaustive enumeration.
    """
    G = [0, 1]

    def dom(q):
        return list(product(G, repeat=q))

    def all_cochains(q):
        d = dom(q)
        return [dict(zip(d, bits)) for bits in product([0, 1], repeat=len(d))]

    def coboundary(phi, q):
        out = {}
        for t in dom(q + 1):
            val = phi[t[1:]]
            for i in range(1, q + 1):
                merged = t[:i - 1] + ((t[i - 1] + t[i]) % 2,) + t[i + 1:]
                val ^= phi[merged]
            val ^= phi[t[:q]]
            out[t] = val
        return out

    def freeze(phi):
        return tuple(sorted(phi.items()))

    def is_cocycle(phi, q):
        return all(v == 0 for v in coboundary(phi, q).values())

    fiber = {}
    for q in range(cap_q + 1):
        cocycles = [phi for phi in all_cochains(q) if is_cocycle(phi, q)]
        if q == 0:
            boundaries = {freeze({t: 0 for t in dom(q)})}
        else:
            boundaries = {freeze(coboundary(psi, q - 1)) for psi in all_cochains(q - 1)}
        dim_h = (len(cocycles) // len(boundaries)).bit_length() - 1
        rep = next(phi for phi in cocycles if freeze(phi) not in boundaries) \
            if dim_h else None
        # induced scalar of the base monoid element u on H^q
        scalars = {}
        for u in (0, 1):
            if rep is None:
                scalars[u] = 0
                continue
            pulled = {t: rep[tuple((m * u) % 2 for m in t)] for t in dom(q)}
            scalars[u] = 0 if freeze(pulled) in boundaries else 1
        fiber[q] = (dim_h, scalars)

    # nerve cochains of the one-object base monoid {0,1} under multiplication
    M = [0, 1]
    table = {}
    for q in range(cap_q + 1):
        dim_h, scalars = fiber[q]
        if dim_h == 0:
            for p in range(cap_p + 1):
                table[(p, q)] = 0
            continue

        def chains(p):
            return list(product(M, repeat=p))

        def cochains(p):
            d = chains(p)
            return [dict(zip(d, bits)) for bits in product([0, 1], repeat=len(d))]

        def cob(phi, p):
            out = {}
            for t in chains(p + 1):
                val = scalars[t[0]] * phi[t[1:]]
                for i in range(1, p + 1):
                    val ^= phi[t[:i - 1] + (t[i - 1] * t[i],) + t[i + 1:]]
                val ^= phi[t[:p]]
                out[t] = val % 2
            return out

        def frz(phi):
            return tuple(sorted(phi.items()))

        for p in range(cap_p + 1):
            zs = [phi for phi in cochains(p) if all(v == 0 for v in cob(phi, p).values())]
            if p == 0:
                bs = {frz({t: 0 for t in chains(0)})}
            else:
                bs = {frz(cob(psi, p - 1)) for psi in cochains(p - 1)}
            table[(p, q)] = (len(zs) // len(bs)).bit_length() - 1
    return table


def test_criterion_10_lhs_subquotient_bound(acceptance_log):
    with criterion(acceptance_log, 10, "nontrivial fibers: bound holds; E2 = brute-force oracle", 300.0):
        oracle = _brute_fiber_column_oracle()
        frozen = {(0, 0): 1, (1, 0): 0, (2, 0): 0,
                  (0, 1): 0, (1, 1): 0, (2, 1): 0,
                  (0, 2): 0, (1, 2): 0, (2, 2): 0}
        assert oracle == frozen
        ct = trivial_category()
        pre = constant_precosheaf(ct, field_algebra(F2))
        nsys = regular_right_module_system(pre)
        ext = fiber_extension(ct, pre, nsys)
        g = constant_module(ext.base, F2)
        f = constant_module(ext.total, F2)
        table = e2_page(ct, pre, nsys, g, f, 2, 2)
        assert table == oracle
        rep = lhs_report(ct, pre, nsys, g, f, (2, 2, 2))
        assert all(v in ("equal", "bounded") for v in rep.verdicts)
        for m in range(3):
            assert rep.e2_diagonal_sum(m) >= rep.abutment_dims[m]


def test_criterion_11_lift_independence(acceptance_log):
    with criterion(acceptance_log, 11, "induced maps on fiber cohomology agree for all lifts", 60.0):
        ct = trivial_category()
        pre = constant_precosheaf(ct, field_algebra(F2))
        nsys = regular_right_module_system(pre)
        ext = fiber_extension(ct, pre, nsys)
        f = constant_module(ext.total, F2)
        ctx = _LhsContext(ct, pre, nsys, f, qmax=2)
        for q in range(3):
            for base_mor in ext.base.mor:
                lifts = [m for m in ext.total.mor if ext.pi.on_mor(m) == base_mor]
                assert len(lifts) >= 2
                maps = [ctx.induced_class_map(lift, q) for lift in lifts]
                for other in maps[1:]:
                    assert F2.equal(maps[0], other)


def test_criterion_12_negative_controls(acceptance_log):
    with criterion(acceptance_log, 12, "mutated tables and corrupted actions exit 1 with witnesses", 10.0):
        for name, code_field in (("broken_category.yaml", "dom-cod"),
                                 ("corrupt_bimodule.yaml", "bimodule")):
            res = subprocess.run(
                [sys.executable, "-m", "catext.cli", "validate",
                 str(PROBLEMS / name), "--format", "structured"],
                capture_output=True, text=True)
            assert res.returncode == 1
            doc = json.loads(res.stdout)
            violations = doc["validation"]["violations"]
            assert violations and any(v["code"] == code_field for v in violations)
            assert all(isinstance(v["witness"], dict) for v in violations)
