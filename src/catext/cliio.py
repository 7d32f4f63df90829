"""Declarative problem files, canonical emission, and command dispatch.

One human-writable YAML format describes everything: the field, a category
(preset or explicit composition table), a precosheaf of algebras, optional
bimodule / right-module systems, coefficient modules, and a task.  parse()
normalizes and schema-checks the document (reporting every error with its
path); emit() writes the canonical form back, so emit . parse is idempotent.

Reports are emitted as deterministic JSON (structured) or aligned text
(table).  Exit codes: 0 clean, 1 mathematical violation found, 2 input error.
"""
from __future__ import annotations

import json
import random
from collections.abc import Hashable
from dataclasses import dataclass, field as dfield

import yaml

from . import constructions, extcheck, lhsengine, presets
from .coeffsys import (PrecosheafModule, validate_bimodule, validate_precosheaf,
                       validate_right_module)
from .exactlin import FieldSpec
from .fdalgebra import (AlgHom, AlgModule, FDAlgebra, dual_numbers, field_algebra,
                        group_algebra, upper_triangular_algebra, validate_algebra)
from .fincat import FinCategory, validate_category
from .homengine import (CatModule, cat_ext_dims, cohomology_dims, constant_module,
                        nerve_cohomology_dims, representable_module, validate_cat_module)
from .validation import Report

_CATEGORY_BUILDERS = {
    "trivial": lambda b: presets.trivial_category(),
    "poset-a2": lambda b: presets.poset_a2(),
    "discrete": lambda b: presets.discrete_category(b["count"]),
    "cyclic-monoid": lambda b: presets.cyclic_monoid(b["size"], b["loop"]),
    "one-object-group": lambda b: presets.one_object_group(b["order"]),
}
CATEGORY_PRESETS = tuple(_CATEGORY_BUILDERS)
_ALGEBRA_BUILDERS = {
    "field": lambda b, k: field_algebra(k),
    "dual-numbers": lambda b, k: dual_numbers(k),
    "group-algebra": lambda b, k: group_algebra(b["orders"], k),
    "upper-triangular": lambda b, k: upper_triangular_algebra(b["size"], k),
    "field-product": lambda b, k: presets.field_product(k, b["count"]),
    "explicit": lambda b, k: FDAlgebra(field=k, dim=b["dim"], structure=k.array(b["tensor"]),
                                       unit=k.array(b["unit"]), name="explicit"),
}
ALGEBRA_PRESETS = tuple(_ALGEBRA_BUILDERS)


class InputError(Exception):
    """Schema or reference errors, each tagged with its document path."""

    def __init__(self, errors: list):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class ProblemSpec:
    payload: dict


# -- parsing -------------------------------------------------------------------

def _err(errors, path, msg):
    errors.append(f"{path}: {msg}")


def _check_matrix(errors, path, m, rows=None, cols=None):
    if not isinstance(m, list) or any(not isinstance(r, list) for r in m):
        _err(errors, path, "expected a list of rows")
        return
    widths = {len(r) for r in m}
    if len(widths) > 1:
        _err(errors, path, "ragged matrix")
        return
    if rows is not None and len(m) != rows:
        _err(errors, path, f"expected {rows} rows, got {len(m)}")
    if cols is not None and m and len(m[0]) != cols:
        _err(errors, path, f"expected {cols} columns, got {len(m[0])}")
    for r in m:
        for v in r:
            if not isinstance(v, int):
                _err(errors, path, f"matrix entries must be integers, got {v!r}")
                return


def _int(errors, path, value, least=0):
    """value as an integer >= least, or None after recording an error."""
    try:
        if int(value) >= least:
            return int(value)
    except (TypeError, ValueError):
        pass
    _err(errors, path, f"need an integer >= {least}, got {value!r}")
    return None


def _name(errors, path, value) -> bool:
    """True for a scalar name; a list or a mapping is recorded as an error."""
    if isinstance(value, Hashable):
        return True
    _err(errors, path, f"need a scalar name, got {value!r}")
    return False


def _mapping(errors, path, value) -> dict:
    """value as a mapping: missing or empty is {}, anything else an error."""
    if value and not isinstance(value, dict):
        _err(errors, path, "expected a mapping")
    return value if isinstance(value, dict) else {}


def _norm_field(errors, path, block):
    if block is None:
        _err(errors, path, "missing field block")
        return None
    if not isinstance(block, dict):
        _err(errors, path, "expected a mapping")
        return None
    kind = block.get("kind")
    if kind in ("prime", "prime-field"):
        p = block.get("characteristic")
        if not isinstance(p, int) or p < 2:
            _err(errors, path + ".characteristic", "need a prime integer >= 2")
            return None
        try:
            FieldSpec.prime(p)
        except ValueError as exc:
            _err(errors, path + ".characteristic", str(exc))
            return None
        return {"kind": "prime-field", "characteristic": p}
    if kind == "rationals":
        return {"kind": "rationals"}
    _err(errors, path + ".kind", f"unknown field kind {kind!r}")
    return None


def _norm_category(errors, path, block):
    if block is None:
        _err(errors, path, "missing category block")
        return None
    if not isinstance(block, dict):
        _err(errors, path, "expected a mapping")
        return None
    if "preset" in block:
        preset = block["preset"]
        if preset not in CATEGORY_PRESETS:
            _err(errors, path + ".preset", f"unknown preset {preset!r}")
            return None
        out = {"preset": preset}
        if preset == "discrete":
            out["count"] = _int(errors, path + ".count", block.get("count", 2), 1)
        if preset == "cyclic-monoid":
            out["size"] = _int(errors, path + ".size", block.get("size", 3), 1)
            out["loop"] = _int(errors, path + ".loop", block.get("loop", 1))
            if out["size"] is not None and out["loop"] is not None \
                    and out["loop"] >= out["size"]:
                _err(errors, path + ".loop", "need loop < size")
        if preset == "one-object-group":
            out["order"] = _int(errors, path + ".order", block.get("order", 2), 1)
        return out
    objs = block.get("objects")
    mors = block.get("morphisms")
    idents = block.get("identities")
    table = block.get("compose")
    if not isinstance(objs, list) or not objs:
        _err(errors, path + ".objects", "need a non-empty object list")
        return None
    if not isinstance(mors, list):
        _err(errors, path + ".morphisms", "need a morphism list")
        return None
    for i, x in enumerate(objs):
        _name(errors, path + f".objects[{i}]", x)
    ids = set()
    for i, m in enumerate(mors):
        if not isinstance(m, dict) or not {"id", "dom", "cod"} <= set(m):
            _err(errors, path + f".morphisms[{i}]", "need id/dom/cod")
            continue
        if not _name(errors, path + f".morphisms[{i}].id", m["id"]):
            continue
        if m["id"] in ids:
            _err(errors, path + f".morphisms[{i}]", f"duplicate morphism id {m['id']!r}")
        ids.add(m["id"])
        for end in ("dom", "cod"):
            if m[end] not in objs:
                _err(errors, path + f".morphisms[{i}].{end}",
                     f"dangling object reference {m[end]!r}")
    if not isinstance(idents, dict):
        _err(errors, path + ".identities", "need an object -> morphism map")
        idents = {}
    for x, f in idents.items():
        if x not in objs:
            _err(errors, path + ".identities", f"dangling object reference {x!r}")
        if _name(errors, path + ".identities", f) and f not in ids:
            _err(errors, path + ".identities", f"dangling morphism reference {f!r}")
    if not isinstance(table, list):
        _err(errors, path + ".compose", "need a list of {first, then, equals}")
        table = []
    for i, row in enumerate(table):
        if not isinstance(row, dict) or not {"first", "then", "equals"} <= set(row):
            _err(errors, path + f".compose[{i}]", "need first/then/equals")
            continue
        for kk in ("first", "then", "equals"):
            entry = path + f".compose[{i}].{kk}"
            if _name(errors, entry, row[kk]) and row[kk] not in ids:
                _err(errors, entry, f"dangling morphism reference {row[kk]!r}")
    return {"objects": list(objs),
            "morphisms": [dict(m) for m in mors],
            "identities": dict(idents),
            "compose": [dict(r) for r in table]}


def _norm_algebra(errors, path, block):
    if not isinstance(block, dict) or "preset" not in block:
        _err(errors, path, "need an algebra block with a preset")
        return None
    preset = block["preset"]
    if preset not in ALGEBRA_PRESETS:
        _err(errors, path + ".preset", f"unknown algebra preset {preset!r}")
        return None
    out = {"preset": preset}
    if preset == "group-algebra":
        orders = block.get("orders", [2])
        if not isinstance(orders, list) or any(not isinstance(n, int) or n < 1 for n in orders):
            _err(errors, path + ".orders", "need positive integer orders")
        out["orders"] = list(orders)
    if preset == "upper-triangular":
        out["size"] = _int(errors, path + ".size", block.get("size", 2), 1)
    if preset == "field-product":
        out["count"] = _int(errors, path + ".count", block.get("count", 2), 1)
    if preset == "explicit":
        dim = block.get("dim")
        if not isinstance(dim, int) or dim < 0:
            _err(errors, path + ".dim", "need a nonnegative dimension")
            return None
        out["dim"] = dim
        tensor = block.get("tensor")
        if not isinstance(tensor, list) or len(tensor) != dim:
            _err(errors, path + ".tensor", f"need {dim} slabs of a {dim}^3 tensor")
        else:
            for i, slab in enumerate(tensor):
                _check_matrix(errors, path + f".tensor[{i}]", slab, dim, dim)
        unit = block.get("unit")
        if not isinstance(unit, list) or len(unit) != dim \
                or any(not isinstance(v, int) for v in unit):
            _err(errors, path + ".unit", f"need an integer vector of length {dim}")
        out["tensor"] = tensor
        out["unit"] = unit
    return out


def _load_yaml(text: str):
    """yaml.safe_load through libyaml when it is built in.  A document the C
    loader rejects is parsed again by the pure-Python SafeLoader, whose error
    messages are the ones reported; the C loader words many of them
    differently and fails on lone surrogates with a UnicodeEncodeError."""
    if yaml.__with_libyaml__:
        try:
            return yaml.load(text, Loader=yaml.CSafeLoader)
        except (yaml.YAMLError, UnicodeError):
            pass
    return yaml.safe_load(text)


def parse(text: str) -> ProblemSpec:
    """Normalize and schema-check a problem document."""
    try:
        raw = _load_yaml(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f"line {mark.line + 1}, column {mark.column + 1}" if mark else "document"
        raise InputError([f"{loc}: YAML syntax error: {getattr(exc, 'problem', exc)}"])
    if not isinstance(raw, dict):
        raise InputError(["document: expected a mapping at the top level"])
    errors: list = []
    out: dict = {}
    out["field"] = _norm_field(errors, "field", raw.get("field"))
    if "coefficient_field" in raw:
        out["coefficient_field"] = _norm_field(errors, "coefficient_field",
                                               raw.get("coefficient_field"))
    out["category"] = _norm_category(errors, "category", raw.get("category"))

    alg = raw.get("algebra")
    if alg is not None:
        if not isinstance(alg, dict):
            _err(errors, "algebra", "expected a mapping")
        elif "constant" in alg:
            out["algebra"] = {"constant": _norm_algebra(errors, "algebra.constant",
                                                        alg["constant"])}
        elif "at" in alg:
            entry = {"at": {}, "maps": {}}
            for x, blk in _mapping(errors, "algebra.at", alg["at"]).items():
                entry["at"][x] = _norm_algebra(errors, f"algebra.at.{x}", blk)
            for f, mat in _mapping(errors, "algebra.maps", alg.get("maps")).items():
                _check_matrix(errors, f"algebra.maps.{f}", mat)
                entry["maps"][f] = mat
            out["algebra"] = entry
        else:
            _err(errors, "algebra", "need 'constant' or per-object 'at'")

    for key in ("bimodule", "right_module"):
        blk = raw.get(key)
        if blk is None:
            continue
        if not isinstance(blk, dict):
            _err(errors, key, "expected a mapping")
            continue
        if "preset" in blk:
            if blk["preset"] not in ("regular", "zero"):
                _err(errors, key + ".preset", f"unknown preset {blk['preset']!r}")
            else:
                out[key] = {"preset": blk["preset"]}
            continue
        if "at" not in blk:
            _err(errors, key, "need a preset or per-object 'at'")
            continue
        entry = {"at": {}, "maps": {}}
        sides = ("left", "right") if key == "bimodule" else ("right",)
        for x, data in _mapping(errors, key + ".at", blk["at"]).items():
            path = f"{key}.at.{x}"
            if not isinstance(data, dict) or "dim" not in data:
                _err(errors, path, "need dim plus per-basis action matrices")
                continue
            dim = _int(errors, path + ".dim", data["dim"])
            if dim is None:
                continue
            entry["at"][x] = {"dim": dim}
            for side in sides:
                mats = data.get(side)
                if not isinstance(mats, list):
                    _err(errors, path + f".{side}", "need one matrix per algebra basis element")
                    continue
                for i, mat in enumerate(mats):
                    _check_matrix(errors, path + f".{side}[{i}]", mat, dim, dim)
                entry["at"][x][side] = mats
        for f, mat in _mapping(errors, key + ".maps", blk.get("maps")).items():
            _check_matrix(errors, f"{key}.maps.{f}", mat)
            entry["maps"][f] = mat
        out[key] = entry

    mods = raw.get("modules")
    if mods is not None:
        if not isinstance(mods, dict):
            _err(errors, "modules", "expected a name -> module mapping")
        else:
            out["modules"] = {}
            for name, blk in mods.items():
                path = f"modules.{name}"
                if not isinstance(blk, dict):
                    _err(errors, path, "expected a mapping")
                    continue
                over = blk.get("over", "base")
                if over not in ("base", "gr-a", "gr-an"):
                    _err(errors, path + ".over", f"unknown category {over!r}")
                preset = blk.get("preset", "constant")
                if preset not in ("constant", "representable", "explicit"):
                    _err(errors, path + ".preset", f"unknown module preset {preset!r}")
                    continue
                entry = {"over": over, "preset": preset}
                if preset == "representable":
                    entry["at"] = blk.get("at")
                if preset == "explicit":
                    if over != "base":
                        _err(errors, path, "explicit modules are supported over 'base' only")
                    entry["dims"] = {x: _int(errors, f"{path}.dims.{x}", d) for x, d
                                     in _mapping(errors, path + ".dims", blk.get("dims")).items()}
                    entry["mats"] = {}
                    for f, mat in _mapping(errors, path + ".mats", blk.get("mats")).items():
                        _check_matrix(errors, path + f".mats.{f}", mat)
                        entry["mats"][f] = mat
                out["modules"][name] = entry

    task = raw.get("task") or {}
    if not isinstance(task, dict):
        _err(errors, "task", "expected a mapping")
        task = {}
    command = task.get("command", "validate")
    if command not in COMMANDS:
        _err(errors, "task.command", f"unknown command {command!r}")
    caps = _mapping(errors, "task.caps", task.get("caps"))
    norm_task = {"command": command,
                 "caps": {c: _int(errors, f"task.caps.{c}", caps.get(c, 2))
                          for c in ("p", "q", "n")}}
    for key in ("module", "modules", "category", "weight", "coefficients", "kind"):
        if key in task:
            norm_task[key] = task[key]
    for key in ("module", "weight", "coefficients"):
        if key in task:
            _name(errors, f"task.{key}", task[key])
    modules = task.get("modules") or []
    if not isinstance(modules, list):
        _err(errors, "task.modules", "need a list of module names")
        modules = []
    for i, name in enumerate(modules):
        _name(errors, f"task.modules[{i}]", name)
    out["task"] = norm_task
    if errors:
        raise InputError(errors)
    return ProblemSpec(out)


def emit(spec: ProblemSpec) -> str:
    """Canonical text form; emit(parse(emit(parse(t)))) == emit(parse(t))."""
    return yaml.safe_dump(spec.payload, sort_keys=True, default_flow_style=None)


# -- building ---------------------------------------------------------------------

@dataclass(eq=False)
class Built:
    """One problem's context.  The Grothendieck categories, the named modules
    and the fiber extension are built on first use and kept, so every command
    reads the same objects: the extension's total and base categories are
    `category_for("gr-an")` and `category_for("gr-a")`."""
    field: FieldSpec
    coeff_field: FieldSpec
    category: FinCategory
    precosheaf: object = None
    bimodule: PrecosheafModule | None = None
    right_module: PrecosheafModule | None = None
    modules: dict = dfield(default_factory=dict)  # name -> normalized module block
    task: dict = dfield(default_factory=dict)
    _cats: dict = dfield(default_factory=dict, init=False, repr=False)
    _mods: dict = dfield(default_factory=dict, init=False, repr=False)
    _ext: extcheck.CatExtension | None = dfield(default=None, init=False, repr=False)

    def category_for(self, over: str) -> FinCategory:
        """The category a module lives over: "base", "gr-a" or "gr-an"."""
        if over == "base":
            return self.category
        if over not in self._cats:
            if self.precosheaf is None:
                raise InputError([f"task: category '{over}' needs an algebra block"])
            if over == "gr-a":
                cat = constructions.gr_algebra(self.category, self.precosheaf)
            elif over == "gr-an" and self.right_module is not None:
                cat = constructions.gr_right_module(self.category, self.precosheaf,
                                                    self.right_module)
            elif over == "gr-an":
                raise InputError(["task: category 'gr-an' needs a right_module block"])
            else:
                raise InputError([f"task: unknown category {over!r}"])
            self._cats[over] = cat
        return self._cats[over]

    def module(self, name: str) -> CatModule:
        """The named coefficient module, over the category it names."""
        if name not in self._mods:
            if name not in self.modules:
                raise InputError([f"task: dangling module reference {name!r}"])
            blk = self.modules[name]
            cat = self.category_for(blk["over"])
            kc = self.coeff_field
            if blk["preset"] == "constant":
                mod = constant_module(cat, kc)
            elif blk["preset"] == "representable":
                at = blk.get("at")
                if blk["over"] != "base":
                    raise InputError([f"modules.{name}: representable modules are supported "
                                      "over 'base' only"])
                if at not in cat.objects:
                    raise InputError([f"modules.{name}.at: dangling object reference {at!r}"])
                mod = representable_module(cat, kc, at)
            else:
                missing = [x for x in cat.objects if x not in blk["dims"]]
                if missing:
                    raise InputError([f"modules.{name}.dims: no dimension at object "
                                      f"{missing[0]!r}"])
                _known_objects(cat, blk["dims"], f"modules.{name}.dims")
                _known_morphisms(cat, blk["mats"], f"modules.{name}.mats")
                mats = {}
                for f in cat.mor:
                    if f not in blk["mats"]:
                        raise InputError([f"modules.{name}.mats: no matrix at morphism {f!r}"])
                    mats[f] = kc.array(blk["mats"][f])
                mod = CatModule(cat, kc, {x: blk["dims"][x] for x in cat.objects}, mats,
                                name=name)
            self._mods[name] = mod
        return self._mods[name]

    def extension(self) -> extcheck.CatExtension:
        """N_fibers -> Gr(A, N) -> Gr(A); needs the algebra and right_module blocks."""
        if self._ext is None:
            self._ext = extcheck.fiber_extension(
                self.category, self.precosheaf, self.right_module,
                _total=self.category_for("gr-an"), _base=self.category_for("gr-a"))
        return self._ext


def _known_objects(cat: FinCategory, keys, path: str) -> None:
    """Every key of an at or dims block must name an object of cat."""
    for x in keys:
        if x not in cat.objects:
            raise InputError([f"{path}.{x}: dangling object reference"])


def _known_morphisms(cat: FinCategory, keys, path: str) -> None:
    """Every key of a maps or mats block must name a morphism of cat."""
    for f in keys:
        if f not in cat.mor:
            raise InputError([f"{path}.{f}: dangling morphism reference"])


def _build_field(block) -> FieldSpec:
    if block["kind"] == "rationals":
        return FieldSpec.rationals()
    return FieldSpec.prime(block["characteristic"])


def _build_category(block) -> FinCategory:
    if "preset" in block:
        return _CATEGORY_BUILDERS[block["preset"]](block)
    mor = {m["id"]: (m["dom"], m["cod"]) for m in block["morphisms"]}
    compose = {(r["first"], r["then"]): r["equals"] for r in block["compose"]}
    return FinCategory(tuple(block["objects"]), mor, dict(block["identities"]),
                       compose, name="explicit")


def _build_algebra(block, k: FieldSpec) -> FDAlgebra:
    return _ALGEBRA_BUILDERS[block["preset"]](block, k)


def _explicit_system(built: Built, blk: dict, key: str):
    """Per-object modules plus morphism maps; identity maps default to eye."""
    k = built.field
    cat = built.category
    pre = built.precosheaf
    mods = {}
    for x in cat.objects:
        if x not in blk["at"]:
            raise InputError([f"{key}.at: no module at object {x!r}"])
        data = blk["at"][x]
        dim = data["dim"]
        alg = pre.at(x)
        def mats_of(side):
            mats = data.get(side)
            if mats is None or len(mats) != alg.dim:
                raise InputError([f"{key}.at.{x}.{side}: need {alg.dim} matrices"])
            return [k.array(m) for m in mats]
        if key == "bimodule":
            mods[x] = AlgModule(alg, dim, "bi", right_action=mats_of("right"),
                                left_action=mats_of("left"))
        else:
            mods[x] = AlgModule(alg, dim, "right", right_action=mats_of("right"))
    _known_objects(cat, blk["at"], f"{key}.at")
    _known_morphisms(cat, blk["maps"], f"{key}.maps")
    maps = {}
    for f, (x, y) in cat.mor.items():
        if f in blk["maps"]:
            maps[f] = k.array(blk["maps"][f])
        elif f == cat.identity[x] and x == y:
            maps[f] = k.eye(mods[x].dim)
        else:
            raise InputError([f"{key}.maps: no map at morphism {f!r}"])
    return PrecosheafModule(pre, mods, maps, name="explicit")


_PRESET_SYSTEMS = {("bimodule", "regular"): presets.regular_bimodule_system,
                   ("bimodule", "zero"): presets.zero_bimodule_system,
                   ("right_module", "regular"): presets.regular_right_module_system,
                   ("right_module", "zero"): presets.zero_right_module_system}


def build(spec: ProblemSpec) -> Built:
    p = spec.payload
    k = _build_field(p["field"])
    kc = _build_field(p["coefficient_field"]) if "coefficient_field" in p else k
    cat = _build_category(p["category"])
    built = Built(field=k, coeff_field=kc, category=cat, task=dict(p["task"]))
    alg_block = p.get("algebra")
    if alg_block:
        if "constant" in alg_block:
            built.precosheaf = presets.constant_precosheaf(
                cat, _build_algebra(alg_block["constant"], k))
        else:
            algebras = {x: _build_algebra(blk, k) for x, blk in alg_block["at"].items()}
            missing = [x for x in cat.objects if x not in algebras]
            if missing:
                raise InputError([f"algebra.at: no algebra at object {missing[0]!r}"])
            _known_objects(cat, algebras, "algebra.at")
            _known_morphisms(cat, alg_block["maps"], "algebra.maps")
            edge_maps = {}
            for f, mat in alg_block["maps"].items():
                x, y = cat.mor[f]
                edge_maps[f] = AlgHom(algebras[x], algebras[y], k.array(mat))
            try:
                built.precosheaf = presets.precosheaf_from(cat, algebras, edge_maps)
            except ValueError as exc:
                raise InputError([f"algebra.maps: {exc}"])
    for key in ("bimodule", "right_module"):
        if key not in p:
            continue
        if built.precosheaf is None:
            raise InputError([f"{key}: needs an algebra block"])
        blk = p[key]
        if "preset" in blk:
            system = _PRESET_SYSTEMS[key, blk["preset"]](built.precosheaf)
        else:
            system = _explicit_system(built, blk, key)
        setattr(built, key, system)
    built.modules = dict(p.get("modules") or {})
    return built


# -- running ---------------------------------------------------------------------

def _validate_all(built: Built) -> Report:
    rep = Report()
    rep.extend(validate_category(built.category))
    if built.precosheaf is not None:
        rep.extend(validate_precosheaf(built.precosheaf))
        if built.bimodule is not None:
            rep.extend(validate_bimodule(built.bimodule))
        if built.right_module is not None:
            rep.extend(validate_right_module(built.right_module))
    if rep.ok:
        for name in built.modules:
            for v in validate_cat_module(built.module(name)).violations:
                rep.add(v.code, f"module {name}: {v.message}", **v.witness)
    return rep


def _spot_checks(built: Built, seed: int, rounds: int = 25) -> dict:
    """Randomized element-level law checks, complementing the exhaustive
    basis-level validators: associativity and unit of the algebra at a random
    object, on random elements.  Module actions are not spot-checked."""
    rng = random.Random(seed)
    if built.precosheaf is None:
        return {"seed": seed, "rounds": 0, "failures": 0}
    k = built.field

    def rand_vec(dim):
        if k.is_prime_field:
            return k.array([rng.randrange(k.characteristic) for _ in range(dim)])
        return k.array([rng.randint(-9, 9) for _ in range(dim)])

    failures = 0
    for _ in range(rounds):
        x = rng.choice(built.category.objects)
        alg = built.precosheaf.at(x)
        u, v, w = (rand_vec(alg.dim) for _ in range(3))
        if not k.equal(alg.mul(alg.mul(u, v), w), alg.mul(u, alg.mul(v, w))):
            failures += 1
        if not k.equal(alg.mul(alg.unit, u), u):
            failures += 1
    return {"seed": seed, "rounds": rounds, "failures": failures}


def _algebra_payload(alg: FDAlgebra) -> dict:
    entries = []
    k = alg.field
    for i in range(alg.dim):
        for j in range(alg.dim):
            for l in range(alg.dim):
                v = alg.structure[i, j, l]
                if v != 0:
                    entries.append([i, j, l, str(v)])
    return {"dim": alg.dim,
            "basis": [str(b) for b in alg.basis_labels],
            "unit": [str(v) for v in alg.unit],
            "products": entries}


def _cmd_build_algebra(built: Built, caps: dict) -> tuple[dict, bool]:
    if built.bimodule is not None:
        alg = constructions.extension_algebra(built.category, built.precosheaf,
                                              built.bimodule)
        kind = "extension-category-algebra"
    else:
        alg = constructions.skew_algebra(built.category, built.precosheaf)
        kind = "skew-category-algebra"
    arep = validate_algebra(alg)
    return {"kind": kind, "algebra": _algebra_payload(alg),
            "validation": arep.as_dict()}, arep.ok


def _cmd_check_theorem_a(built: Built, caps: dict) -> tuple[dict, bool]:
    c, pre, m = built.category, built.precosheaf, built.bimodule
    verdicts = {}
    if len(c.mor) == 1:
        verdicts["trivial-extension-degeneration"] = constructions.check_degeneration(
            "trivial-ext", c, pre, m)
    if all(m.at(x).dim == 0 for x in c.objects):
        verdicts["skew-degeneration"] = constructions.check_degeneration("skew", c, pre, m)
    ext_alg = constructions.extension_algebra(c, pre, m)
    arep = validate_algebra(ext_alg)
    if built.field.is_prime_field:
        verdicts["composition-antihomomorphism"] = constructions.check_composition_antihom(
            c, pre, m, ext=ext_alg)
    checks = {name: v.as_dict() for name, v in verdicts.items()}
    checks["extension-algebra-axioms"] = arep.as_dict()
    return {"checks": checks}, arep.ok and all(v.passed for v in verdicts.values())


def _cmd_check_extension(built: Built, caps: dict) -> tuple[dict, bool]:
    ext = built.extension()
    erep = extcheck.check_extension(ext)
    return {"sizes": {"kernel": len(ext.kernel.mor), "total": len(ext.total.mor),
                      "base": len(ext.base.mor)},
            "extension": erep.as_dict()}, erep.ok


def _cmd_cohomology(built: Built, caps: dict) -> tuple[dict, bool]:
    name = built.task.get("module")
    if not name:
        raise InputError(["task.module: cohomology needs a module name"])
    mod = built.module(name)
    res_route = cohomology_dims(mod.cat, mod, caps["n"])
    nerve_route = nerve_cohomology_dims(mod.cat, mod, caps["n"])
    return {"dims": [int(v) for v in res_route],
            "nerve_dims": [int(v) for v in nerve_route],
            "routes_agree": res_route == nerve_route}, res_route == nerve_route


def _cmd_ext(built: Built, caps: dict) -> tuple[dict, bool]:
    names = built.task.get("modules")
    if not names or len(names) != 2:
        raise InputError(["task.modules: ext needs exactly two module names"])
    gmod = built.module(names[0])
    fmod = built.module(names[1])
    if gmod.cat is not fmod.cat:
        raise InputError(["task.modules: ext modules must live over one category"])
    return {"dims": [int(v) for v in cat_ext_dims(gmod.cat, gmod, fmod, caps["n"])]}, True


def _cmd_lhs_report(built: Built, caps: dict) -> tuple[dict, bool]:
    wname = built.task.get("weight")
    fname = built.task.get("coefficients")
    g = (built.module(wname) if wname
         else constant_module(built.category_for("gr-a"), built.coeff_field))
    f = (built.module(fname) if fname
         else constant_module(built.category_for("gr-an"), built.coeff_field))
    report = lhsengine.lhs_report(built.category, built.precosheaf, built.right_module,
                                  g, f, (caps["p"], caps["q"], caps["n"]),
                                  _ext=built.extension())
    return {"report": report.as_dict()}, report.ok


# name -> (Built blocks the command needs, wording of the "needs" message, handler)
_COMMANDS = {
    "validate": ((), None, None),
    "build-algebra": (("precosheaf",), "an algebra block", _cmd_build_algebra),
    "check-theorem-a": (("precosheaf", "bimodule"), "algebra and bimodule blocks",
                        _cmd_check_theorem_a),
    "check-extension": (("precosheaf", "right_module"), "algebra and right_module blocks",
                        _cmd_check_extension),
    "cohomology": ((), None, _cmd_cohomology),
    "ext": ((), None, _cmd_ext),
    "lhs-report": (("precosheaf", "right_module"), "algebra and right_module blocks",
                   _cmd_lhs_report),
}
COMMANDS = tuple(_COMMANDS)


def run(spec: ProblemSpec, command: str | None = None,
        caps: dict | None = None, seed: int | None = None) -> tuple[dict, int]:
    """Execute the task; returns (report document, exit code).  With a seed, a
    clean `validate` also runs the randomized spot checks on the same build."""
    try:
        built = build(spec)
    except InputError as exc:
        return {"command": command or spec.payload["task"]["command"],
                "input_errors": exc.errors}, 2
    cmd = command or built.task["command"]
    overrides = {c: v for c, v in (caps or {}).items() if v is not None}
    caps_eff = {**built.task["caps"], **overrides}
    doc: dict = {"command": cmd, "caps": caps_eff}
    try:
        errors: list = []
        for c, v in overrides.items():
            _int(errors, f"task.caps.{c}", v)
        if errors:
            raise InputError(errors)
        rep = _validate_all(built)
        if cmd == "validate" or not rep.ok:
            fields, ok = {"validation": rep.as_dict()}, rep.ok
            if cmd == "validate" and ok and seed is not None:
                fields["spot_checks"] = _spot_checks(built, seed)
                ok = not fields["spot_checks"]["failures"]
        else:
            if cmd not in _COMMANDS:
                raise InputError([f"task.command: unhandled command {cmd!r}"])
            needs, wording, handler = _COMMANDS[cmd]
            if any(getattr(built, block) is None for block in needs):
                raise InputError([f"{cmd}: needs {wording}"])
            fields, ok = handler(built, caps_eff)
    except InputError as exc:
        doc["input_errors"] = exc.errors
        return doc, 2
    except ValueError as exc:
        doc["input_errors"] = [str(exc)]
        return doc, 2
    doc.update(fields)
    return doc, 0 if ok else 1


# -- rendering ---------------------------------------------------------------------

def _violation_lines(title: str, rep: dict) -> list:
    lines = [f"{title}: {'ok' if rep['ok'] else 'FAILED'}"]
    for item in rep["violations"]:
        w = ", ".join(f"{k}={val}" for k, val in sorted(item["witness"].items()))
        lines.append(f"  [{item['code']}] {item['message']}  ({w})")
    return lines


def render(doc: dict, fmt: str = "structured") -> str:
    if fmt == "structured":
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    lines = [f"command: {doc.get('command')}"]
    if "input_errors" in doc:
        lines.append("input errors:")
        lines.extend(f"  - {e}" for e in doc["input_errors"])
        return "\n".join(lines) + "\n"
    if "validation" in doc:
        lines.extend(_violation_lines("validation", doc["validation"]))
    if "spot_checks" in doc:
        sc = doc["spot_checks"]
        lines.append(f"spot checks: seed {sc['seed']}, {sc['rounds']} rounds, "
                     f"{sc['failures']} failures")
    if "algebra" in doc:
        a = doc["algebra"]
        lines.append(f"kind: {doc.get('kind')}")
        lines.append(f"dim: {a['dim']}")
        lines.append("unit: " + " ".join(a["unit"]))
        lines.append("nonzero products (i j -> l : coeff):")
        for i, j, l, cval in a["products"]:
            lines.append(f"  {i} {j} -> {l} : {cval}")
    if "checks" in doc:
        for name, chk in sorted(doc["checks"].items()):
            if "passed" in chk:
                status = "pass" if chk["passed"] else "FAIL"
                extra = f" ({chk.get('detail', '')})" if chk.get("detail") else ""
            else:
                status = "pass" if chk["ok"] else "FAIL"
                extra = ""
            lines.append(f"{name}: {status}{extra}")
    if "sizes" in doc:
        s = doc["sizes"]
        lines.append(f"kernel/total/base morphisms: {s['kernel']}/{s['total']}/{s['base']}")
    if "extension" in doc:
        lines.extend(_violation_lines("extension axioms", doc["extension"]))
    if "dims" in doc:
        lines.append("dims: " + " ".join(str(v) for v in doc["dims"]))
    if "nerve_dims" in doc:
        lines.append("nerve dims: " + " ".join(str(v) for v in doc["nerve_dims"]))
        lines.append(f"routes agree: {doc['routes_agree']}")
    if "report" in doc:
        r = doc["report"]
        caps = r["caps"]
        lines.append(f"caps: p<={caps['p']} q<={caps['q']} n<={caps['n']}")
        lines.append("E2 page (rows q, columns p):")
        for q in range(caps["q"], -1, -1):
            row = [str(r["e2"].get(f"{p},{q}", 0)) for p in range(caps["p"] + 1)]
            lines.append(f"  q={q}: " + " ".join(row))
        lines.append("abutment: " + " ".join(str(v) for v in r["abutment"]))
        lines.append("verdicts: " + " ".join(r["verdicts"]))
        lines.append(f"collapse: {r['collapse']}   ok: {r['ok']}")
    return "\n".join(lines) + "\n"
