#!/usr/bin/env python3
"""Survey the spectral comparison over a family of desk-scale fixtures.

For every combination of base category, fiber system and coefficient field,
print the E2 page, the independently computed abutment, and the per-degree
verdicts.  A "violation" anywhere is an implementation bug by construction.

Usage: python scripts/lhs_survey.py [--cap N]
"""
import argparse
import sys
import time
from pathlib import Path

# import the catext of this checkout, not whichever one is installed
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from catext.exactlin import FieldSpec  # noqa: E402
from catext.extcheck import check_extension, fiber_extension  # noqa: E402
from catext.fdalgebra import field_algebra, group_algebra  # noqa: E402
from catext.homengine import constant_module, representable_module  # noqa: E402
from catext.lhsengine import lhs_report  # noqa: E402
from catext.presets import (constant_precosheaf, one_object_group, poset_a2,  # noqa: E402
                            regular_right_module_system, trivial_category,
                            zero_right_module_system)

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)


def fixtures():
    pt, a2, bz2 = trivial_category(), poset_a2(), one_object_group(2)
    for cat, label in ((pt, "point"), (a2, "A2"), (bz2, "B(Z/2)")):
        pre = constant_precosheaf(cat, field_algebra(F2))
        yield f"{label} / zero fibers / F2", cat, pre, zero_right_module_system(pre), F2
        yield f"{label} / Z2 fibers / F2", cat, pre, regular_right_module_system(pre), F2
        yield f"{label} / Z2 fibers /F3", cat, pre, regular_right_module_system(pre), F3
    pre = constant_precosheaf(a2, group_algebra([2], F2))
    yield "A2, k[Z/2] coefficients / Z2^2 fibers / F2", a2, pre, \
        regular_right_module_system(pre), F2


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--cap", type=int, default=2)
    ap.add_argument("--weight", choices=("constant", "representable"), default="constant")
    args = ap.parse_args()
    cap = args.cap

    failures = 0
    for label, cat, pre, nsys, coeff in fixtures():
        t0 = time.perf_counter()
        ext = fiber_extension(cat, pre, nsys)
        assert check_extension(ext).ok, label
        if args.weight == "constant":
            g = constant_module(ext.base, coeff)
        else:
            g = representable_module(ext.base, coeff, ext.base.objects[-1])
        f = constant_module(ext.total, coeff)
        rep = lhs_report(cat, pre, nsys, g, f, (cap, cap, cap))
        elapsed = time.perf_counter() - t0
        print(f"== {label}  ({len(ext.total.mor)} total morphisms, {elapsed:.2f}s)")
        for q in range(cap, -1, -1):
            row = " ".join(str(rep.e2.get((p, q), 0)) for p in range(cap + 1))
            print(f"   q={q}: {row}")
        print(f"   abutment: {' '.join(str(v) for v in rep.abutment_dims)}")
        print(f"   verdicts: {' '.join(rep.verdicts)}   collapse: {rep.collapse}")
        if not rep.ok:
            failures += 1
    print(f"\n{failures} violation(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
