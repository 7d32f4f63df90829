"""The benchmark's layer tracer (perfbench/layertrace.py) wraps catext
functions and methods by name; each of those names must still resolve."""
import importlib.util
import sys
from pathlib import Path

import catext.cliio  # noqa: F401  (loads every catext module)

ROOT = Path(__file__).resolve().parent.parent


def _layertrace():
    spec = importlib.util.spec_from_file_location(
        "layertrace_hooks", ROOT / "perfbench" / "layertrace.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


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
