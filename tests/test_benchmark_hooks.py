"""The benchmark's layer tracer (perfbench/layertrace.py) wraps catext
functions and methods by name; each of those names must still resolve.  Its
catalog generator (perfbench/make_catalog.py) cross-checks stored answers
through the catext API; those calls must still run."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import catext.cliio  # noqa: F401  (loads every catext module)

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str, filename: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / filename)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _layertrace():
    return _load("layertrace_hooks", "layertrace.py")


def test_every_traced_name_resolves():
    """Read the tracer's lists without installing it: every wrapped function
    is a global of its module and every wrapped method is in its class body."""
    tracer = _layertrace().Tracer()
    mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("catext.") and mod is not None}
    missing = [f"{modname}.{name}" for modname, name, *_ in tracer._functions()
               if not callable(getattr(mods[modname], name, None))]
    missing += [f"{cls.__name__}.{name}" for cls, name, _ in tracer._methods(mods)
                if name not in cls.__dict__]
    assert not missing


@pytest.mark.parametrize("workload,job_id,local_systems", [
    ("gr_ladder", "gr/lhs/a2-f2-c222", 2),
    ("fiber_bar", "fiber/bz2-f5-q3-modular/l5", 3),
])
def test_catalog_cross_check_runs_on_stored_jobs(monkeypatch, workload, job_id, local_systems):
    """`xcheck_lhs` rebuilds Gr(A) and Gr(A, N) and the fiber local systems
    through the API and checks a stored lhs-report against the nerve route."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the generator prepends its paths
    gen = _load("make_catalog_hooks", "make_catalog.py")
    jobs = json.loads((ROOT / "perfbench" / "catalog" / f"{workload}.json").read_text())["jobs"]
    job = next(j for j in jobs if j["id"] == job_id)
    calls = []

    def counted(*args, _orig=gen.lhsengine.h_local_system):
        calls.append(args[-1])
        return _orig(*args)
    monkeypatch.setattr(gen.lhsengine, "h_local_system", counted)
    gen.xcheck_lhs(job["problem"], job["expect"])
    assert len(calls) == local_systems
