"""Outside-in layer tracing for catext.

``Tracer.install()`` wraps public functions of the ``catext`` modules from
the benchmark's side and ``uninstall()`` restores them.  A wrapped function
is replaced under every name it is reachable by: each ``catext`` module
global that holds it (``lhsengine.free_resolution`` as well as
``homengine.free_resolution``) and, for methods, the class attribute.

Each call opens a span on a stack.  When the span closes, its duration is
added to its parent's child time, and duration minus child time is added to
the layer's self time, so self times of all layers sum to the traced wall
time.  A call into a layer from inside the same layer (``rank`` calling
``rref``) is folded into the enclosing span and not counted again.

Counters sit at the same boundaries: calls, Grothendieck sizes, resolution
ranks, eliminated cells, Echelon acceptance, object-path matmuls.  Sizes are
also kept per job (see ``begin_job``) so that two commits can be shown to
have done the same work.
"""
from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

_FAST_PRIME_BOUND = 1 << 15


class Layer:
    __slots__ = ("self_s", "calls")

    def __init__(self):
        self.self_s = 0.0
        self.calls = 0


class Tracer:
    def __init__(self):
        self.layers = defaultdict(Layer)
        self.counts = defaultdict(int)
        self.stack: list = []
        self.jobs: dict = {}
        self._job = None
        self._validated: list = []
        self._validated_ids: set = set()
        self._patched: list = []

    # -- per-job bookkeeping ------------------------------------------------
    def begin_job(self, job_id: str) -> None:
        self._job = self.jobs.setdefault(job_id, {"gr_morphisms": 0, "compose_entries": 0,
                                                  "betti": [], "cells": 0})
        self._validated = []  # holds the objects, so ids stay unique
        self._validated_ids = set()

    def end_job(self) -> None:
        self._job = None
        self._validated = []
        self._validated_ids = set()

    def reset(self) -> None:
        for st in self.layers.values():  # wrappers hold these objects
            st.self_s = 0.0
            st.calls = 0
        self.counts.clear()
        self.jobs.clear()

    # -- wrappers -------------------------------------------------------------
    def _span(self, layer: str, fn, before=None, after=None):
        stats = self.layers[layer]
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            stats.calls += 1
            if before is not None:
                before(args, kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                stats.self_s += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(result)
            return result
        return wrapper

    def _gr_after(self, cat) -> None:
        self.counts["gr.morphisms"] += len(cat.mor)
        self.counts["gr.compose_entries"] += len(cat.compose)
        if self._job is not None:
            self._job["gr_morphisms"] += len(cat.mor)
            self._job["compose_entries"] += len(cat.compose)

    def _validate_before(self, args, kwargs) -> None:
        cat = args[0] if args else kwargs["c"]
        if id(cat) in self._validated_ids:
            self.counts["validate_category.repeats"] += 1
        else:
            self._validated_ids.add(id(cat))
            self._validated.append(cat)

    def _linearize_after(self, alg) -> None:
        self.counts["linearize.structure_mb"] += alg.dim ** 3 * 8 / 1e6

    def _resolution_after(self, res) -> None:
        self.counts["resolution.betti_sum"] += sum(res.ranks)
        if self._job is not None:
            self._job["betti"].append(list(res.ranks))

    def _cells(self, n: int) -> None:
        self.counts["eliminate.cells"] += n
        if self._job is not None:
            self._job["cells"] += n

    def _matrix_before(self, args, kwargs) -> None:
        m = args[0] if args else kwargs["m"]
        self._cells(m.rows * m.cols)

    def _solve_before(self, args, kwargs) -> None:
        a, b = args[0], args[1]
        self._cells(a.rows * (a.cols + b.cols))

    def _echelon_add(self, fn):
        counts = self.counts
        span = self._span("exactlin.echelon", fn)

        @functools.wraps(fn)
        def add(ech, v):
            grew = span(ech, v)
            counts["echelon.adds"] += 1
            if grew:
                counts["echelon.accepted"] += 1
            return grew
        return add

    def _matmul_counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def matmul(k, a, b):
            if k.is_prime_field and k.characteristic >= _FAST_PRIME_BOUND:
                counts["matmul.object_path_calls"] += 1
            return fn(k, a, b)
        return matmul

    # -- install / uninstall --------------------------------------------------
    def _functions(self):
        """(module, name, layer, before, after) for every traced function."""
        g = self._gr_after
        return [
            ("cliio", "parse", "cliio.parse", None, None),
            ("cliio", "run", "cliio.run", None, None),
            ("cliio", "render", "cliio.render", None, None),
            ("coeffsys", "validate_precosheaf", "coeffsys.validate", None, None),
            ("coeffsys", "validate_bimodule", "coeffsys.validate", None, None),
            ("coeffsys", "validate_right_module", "coeffsys.validate", None, None),
            ("constructions", "gr_algebra", "constructions.gr", None, g),
            ("constructions", "gr_right_module", "constructions.gr", None, g),
            ("constructions", "gr_bimodule", "constructions.gr", None, g),
            ("constructions", "skew_algebra", "constructions.algebra", None, None),
            ("constructions", "extension_algebra", "constructions.algebra", None, None),
            ("constructions", "check_degeneration", "constructions.algebra", None, None),
            ("constructions", "check_composition_antihom", "constructions.algebra",
             None, None),
            ("extcheck", "check_extension", "extcheck.check_extension", None, None),
            ("extcheck", "fiber_extension", "extcheck.fiber_extension", None, None),
            ("fincat", "validate_category", "fincat.validate_category",
             self._validate_before, None),
            ("fincat", "linearize", "fincat.linearize", None, self._linearize_after),
            ("fdalgebra", "free_module", "fdalgebra.free_module", None, None),
            ("homengine", "free_resolution", "homengine.free_resolution", None,
             self._resolution_after),
            ("homengine", "module_generators", "homengine.module_generators", None, None),
            ("homengine", "ext_dims_from_resolution", "homengine.ext_dims_from_resolution",
             None, None),
            ("homengine", "to_algebra_module", "homengine.to_algebra_module", None, None),
            ("homengine", "bar_cochain_complex", "homengine.bar_cochain_complex", None, None),
            ("homengine", "subquotient", "homengine.subquotient", None, None),
            ("homengine", "nerve_cochain_complex", "homengine.nerve_cochain_complex",
             None, None),
            ("lhsengine", "e2_page", "lhsengine.e2_page", None, None),
            ("lhsengine", "abutment", "lhsengine.abutment", None, None),
            ("exactlin", "rref", "exactlin.eliminate", self._matrix_before, None),
            ("exactlin", "rank", "exactlin.eliminate", self._matrix_before, None),
            ("exactlin", "kernel_basis", "exactlin.eliminate", self._matrix_before, None),
            ("exactlin", "solve_matrix", "exactlin.eliminate", self._solve_before, None),
        ]

    def _methods(self, mods):
        return [
            (mods["fdalgebra"].FDAlgebra, "right_mult_matrix",
             lambda fn: self._span("fdalgebra.mult_matrix", fn)),
            (mods["fdalgebra"].FDAlgebra, "left_mult_matrix",
             lambda fn: self._span("fdalgebra.mult_matrix", fn)),
            (mods["lhsengine"]._LhsContext, "local_system",
             lambda fn: self._span("lhsengine.local_system", fn)),
            (mods["exactlin"].Echelon, "add", self._echelon_add),
            (mods["exactlin"].Echelon, "contains",
             lambda fn: self._span("exactlin.echelon", fn)),
            (mods["exactlin"].FieldSpec, "matmul", self._matmul_counter),
        ]

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        import catext.cliio  # noqa: F401  (loads every catext module)
        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("catext.") and mod is not None}
        for modname, fname, layer, before, after in self._functions():
            orig = getattr(mods[modname], fname)
            wrapped = self._span(layer, orig, before, after)
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
        for cls, name, make in self._methods(mods):
            orig = cls.__dict__[name]
            self._patched.append((cls, name, orig))
            setattr(cls, name, make(orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []

    # -- results ---------------------------------------------------------------
    def summary(self) -> dict:
        """Per-layer self times and counters, as flat name -> value."""
        out = {}
        for layer, st in self.layers.items():
            out[f"{layer}.self_s"] = st.self_s
            out[f"{layer}.calls"] = st.calls
        c = self.counts
        out["constructions.gr.morphisms"] = c["gr.morphisms"]
        out["constructions.gr.compose_entries"] = c["gr.compose_entries"]
        calls = self.layers["fincat.validate_category"].calls
        out["fincat.validate_category.repeat_ratio"] = (
            c["validate_category.repeats"] / calls if calls else 0.0)
        out["fincat.linearize.structure_mb"] = c["linearize.structure_mb"]
        out["homengine.resolution.betti_sum"] = c["resolution.betti_sum"]
        out["exactlin.eliminate.cells"] = c["eliminate.cells"]
        adds = c["echelon.adds"]
        out["exactlin.echelon.accept_ratio"] = c["echelon.accepted"] / adds if adds else 0.0
        out["exactlin.matmul.object_path_calls"] = c["matmul.object_path_calls"]
        return out
