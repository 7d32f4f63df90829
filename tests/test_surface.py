"""The package keeps only what the rest of the program names.

A public module-level function or class of ``src/catext``, and a public
method of such a class, must be named by another part of the package, by
the benchmark (``perfbench``), by a script or by the acceptance tests.
Names reached only from the unit tests belong in those tests, as fixtures
or references."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "catext"

# independent oracles and documented entry points that nothing else calls
ALLOWED = {
    "hom_space_dim": "independent oracle: dim Hom_A by one linear system, against Ext^0",
    "validate_resolution": "independent oracle: exactness of a resolution by ranks",
    "emit": "the canonical writer of a result document that README promises",
    "CochainComplex.validate": "independent oracle: d o d = 0 and the differential shapes",
}


def _names(tree) -> set:
    """Every name an ast.Name, an ast.Attribute or an import spells."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def _public_definitions() -> set:
    """(module, qualified name) of every public module-level function and
    class of the package and of every public method of those classes."""
    out = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            out.add((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                out |= {(path.stem, f"{node.name}.{item.name}") for item in node.body
                        if isinstance(item, ast.FunctionDef) and item.name[0] != "_"}
    return out


def _unnamed() -> list:
    used = set()
    for path in [*sorted((ROOT / "perfbench").glob("*.py")),
                 *sorted((ROOT / "scripts").glob("*.py")),
                 ROOT / "tests" / "test_acceptance.py"]:
        used |= _names(ast.parse(path.read_text(), str(path)))
    tracer = ast.parse((ROOT / "perfbench" / "layertrace.py").read_text())
    used |= {node.value for node in ast.walk(tracer)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    # inside the package a name counts when it is spelled outside its own
    # definition: the whole of a module-level one, or a method's body
    inner: dict = {}  # name -> the (module, qualified owner) it is spelled in
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            parts = [(None, node)]
            if isinstance(node, ast.FunctionDef):
                parts = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                parts = [(f"{node.name}.{item.name}" if isinstance(item, ast.FunctionDef)
                          else node.name, item) for item in node.body]
                parts += [(node.name, base) for base in node.bases + node.decorator_list]
            for owner, part in parts:
                for name in _names(part):
                    inner.setdefault(name, set()).add((path.stem, owner))

    def spelled_elsewhere(mod: str, qual: str) -> bool:
        name = qual.rsplit(".", 1)[-1]
        return any(m != mod or q is None or (q != qual and not q.startswith(qual + "."))
                   for m, q in inner.get(name, ()))
    return sorted(f"{mod}.{qual}" for mod, qual in _public_definitions()
                  if qual.rsplit(".", 1)[-1] not in used and not spelled_elsewhere(mod, qual))


def test_every_public_name_is_used_by_the_program():
    unnamed = [q for q in _unnamed() if q.split(".", 1)[1] not in ALLOWED]
    assert not unnamed, "public names only the unit tests reach: " + ", ".join(unnamed)


def test_allowlist_names_only_unused_definitions():
    assert {q.split(".", 1)[1] for q in _unnamed()} == set(ALLOWED)
