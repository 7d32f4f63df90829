"""Declarative problem files, canonical emission, and command dispatch.

One human-writable YAML format describes everything: the field, a category
(preset or explicit composition table), a precosheaf of algebras, optional
bimodule / right-module systems, coefficient modules, and a task.  One table
per block lists its keys, their kinds and defaults, and which keys name
objects or morphisms.  parse() walks the tables, normalizing the document and
reporting every error with its path (a key no table lists is one); build()
checks names against the built category.  emit() writes the canonical form
back, so emit . parse is idempotent.

Reports are emitted as deterministic JSON (structured) or aligned text
(table).  Exit codes: 0 clean, 1 mathematical violation found, 2 input error.
"""
from __future__ import annotations

import json
import random
from collections.abc import Callable, Hashable
from dataclasses import dataclass, field as dfield
from functools import cache
from math import prod
from typing import NamedTuple

import numpy as np
import yaml

from . import constructions, extcheck, lhsengine, presets
from .coeffsys import (PrecosheafModule, validate_bimodule, validate_precosheaf,
                       validate_right_module)
from .exactlin import FieldSpec
from .fdalgebra import (AlgHom, AlgModule, FDAlgebra, dual_numbers, field_algebra,
                        group_algebra, upper_triangular_algebra, validate_algebra)
from .fincat import TABLE_LIMIT, FinCategory, validate_category
from .homengine import (CatModule, cat_ext_dims, cohomology_dims, constant_module,
                        nerve_cohomology_dims, representable_module, validate_cat_module)
from .validation import Report

_SPOT_ROUNDS = 25  # rounds of the element-level spot checks of validate --seed


class InputError(Exception):
    """Schema or reference errors, each tagged with its document path."""

    def __init__(self, errors: list):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class ProblemSpec:
    payload: dict


# -- the problem format -------------------------------------------------------
#
# A kind reads one value: kind(errors, path, value, out) records what is wrong
# and returns the normal form (out: the enclosing block's so far).  The names
# of a key marked `names` (its value) or `keys` (its mapping's keys) are
# checked by parse() inside an explicit category, elsewhere by build().

_NO = object()  # an absent key without a default, or a null no-block: left out


class _Errors(list):
    names = None  # inside an explicit category: its objects and morphism ids so far


class _Key(NamedTuple):
    """One key of a block: how its value is read."""
    kind: Callable
    default: object = _NO     # read for an absent key; None makes the key required
    null: object = None       # what a null value is: _NO (no block) or the error
    names: str | None = None  # "object" or "morphism"
    keys: str | None = None   # "object" or "morphism"
    stop: bool = False        # an error here rejects the rest of the block
    new: bool = False         # the value is a new morphism id, not a reference


def _err(errors, path, msg):
    errors.append(f"{path}: {msg}")


def _read(errors, path, value, keys, out) -> bool:
    """Put the normal forms of value's keys into out; False once a stop key fails."""
    scope = errors.names
    for key, (kind, default, null, names, _, stop, new) in keys.items():
        raw = value.get(key, default)
        if raw is _NO or (raw is None and null is _NO):
            continue
        kpath = f"{path}.{key}" if path else key
        if raw is None and null:
            _err(errors, kpath, null)
            continue
        before = len(errors)
        out[key] = kind(errors, kpath, raw, out)
        if len(errors) > before:
            if stop:
                return False
        elif scope is not None and new:
            if raw in scope["morphism"]:
                _err(errors, path, f"duplicate morphism id {raw!r}")
            scope["morphism"].add(raw)
        elif scope is not None and names and raw not in scope[names]:
            _err(errors, kpath, f"dangling {names} reference {raw!r}")
    return True


def _block(keys, tag=None, cases=None, check=None, required=(), need="expected a mapping",
           empty=False):
    """A mapping with the listed keys, read in order.  With a tag, that key's
    value picks the case whose keys come next.  check(errors, path, value, out)
    runs before those keys; False rejects the block.  need is the error for a
    value that is not a mapping or lacks a required key; with empty, any falsy
    value reads as {}."""
    required = frozenset(required)

    def read(errors, path, value, outer=None):
        if empty and not value:
            value = {}
        if not isinstance(value, dict) or required and not required <= value.keys():
            return _err(errors, path, need)
        out, rest, scope = {}, keys, errors.names
        if tag is not None:
            if not _read(errors, path, value, keys, out):
                return None
            rest = cases[out[tag]]
        if check and check(errors, path, value, out) is False:
            return None
        done = _read(errors, path, value, rest, out)
        errors.names = scope
        if not done:
            return None
        for key in value:
            if key not in keys and key not in rest:
                _err(errors, f"{path}.{key}" if path else key, "unknown key")
        return out
    return read


def _either(blocks, otherwise):
    """A mapping read by the block of the first listed key it has, or else by
    otherwise: a block, or the error."""
    def read(errors, path, value, out=None):
        if not isinstance(value, dict):
            return _err(errors, path, "expected a mapping")
        block = next((b for key, b in blocks.items() if key in value), otherwise)
        return _err(errors, path, block) if isinstance(block, str) else block(errors, path, value)
    return read


def _map(kind, need=None):
    """A mapping from names to values of one kind.  Without need (the error for
    a value that is not a mapping), any falsy value reads as {}."""
    def read(errors, path, value, out=None):
        if need is None and not value:
            return {}
        if not isinstance(value, dict):
            return _err(errors, path, need or "expected a mapping")
        return {k: kind(errors, f"{path}.{k}", v, out) for k, v in value.items()}
    return read


def _seq(item, need=None):
    """A list of values of one kind; need is the error for anything else."""
    def read(errors, path, value, out=None):
        if not isinstance(value, list):
            return _err(errors, path, need)
        return [item(errors, f"{path}[{i}]", v, out) for i, v in enumerate(value)]
    return read


def _distinct(item, need, names, what):
    """A list of values of one kind, no two with the same names: names(value)
    is a tuple of names, and what(*names) says what is repeated.  A value that
    could not be read, or with a name that is not a scalar, is not compared."""
    items = _seq(item, need)

    def read(errors, path, value, out=None):
        got, seen = items(errors, path, value, out), set()
        for i, v in enumerate(got or ()):
            key = () if v is None else names(v)
            if key and all(isinstance(n, Hashable) for n in key):
                if key in seen:
                    _err(errors, f"{path}[{i}]", f"duplicate {what(*key)}")
                seen.add(key)
        return got
    return read


def _one(noun, choices, alias=None):
    """One of choices; an alias reads as the choice it stands for."""
    alias = alias or {}

    def read(errors, path, value, out=None):
        if isinstance(value, Hashable) and alias.get(value, value) in choices:
            return alias.get(value, value)
        _err(errors, path, f"unknown {noun} {value!r}")
        return value
    return read


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _int_of(least):
    """An integer >= least: an int or a whole float, read as an int (None
    after an error).  A bool, a fraction and a numeric string are not one."""
    def read(errors, path, value, out=None):
        whole = _is_int(value) or isinstance(value, float) and value.is_integer()
        if whole and int(value) >= least:
            return int(value)
        return _err(errors, path, f"need an integer >= {least}, got {value!r}")
    return read


def _name(errors, path, value, out=None):
    """A scalar name: a list or a mapping is an error."""
    if not isinstance(value, Hashable):
        _err(errors, path, f"need a scalar name, got {value!r}")
    return value


def _any(errors, path, value, out=None):
    return value


def _matrix(errors, path, m, out=None, rows=None, cols=None):
    """An integer matrix (a list of rows), of the given shape if any."""
    if not isinstance(m, list) or any(not isinstance(r, list) for r in m):
        _err(errors, path, "expected a list of rows")
    elif len({len(r) for r in m}) > 1:
        _err(errors, path, "ragged matrix")
    else:
        if rows is not None and len(m) != rows:
            _err(errors, path, f"expected {rows} rows, got {len(m)}")
        if cols is not None and m and len(m[0]) != cols:
            _err(errors, path, f"expected {cols} columns, got {len(m[0])}")
        bad = [v for r in m for v in r if not _is_int(v)]
        if bad:
            _err(errors, path, f"matrix entries must be integers, got {bad[0]!r}")
    return m


def _square(errors, path, m, out):
    """A dim x dim integer matrix, dim being the enclosing block's."""
    return _matrix(errors, path, m, out, out["dim"], out["dim"])


# -- the tables -----------------------------------------------------------------

def _characteristic(errors, path, p, out):
    if not isinstance(p, int) or p < 2:
        return _err(errors, path, "need a prime integer >= 2")
    try:
        FieldSpec.prime(p)
    except ValueError as exc:
        _err(errors, path, str(exc))
    return p


def _loop(errors, path, value, out):
    loop = _int_of(0)(errors, path, value)
    if None not in (loop, out["size"]) and loop >= out["size"]:
        _err(errors, path, "need loop < size")
    return loop


def _orders(errors, path, orders, out):
    if not isinstance(orders, list) or any(not _is_int(n) or n < 1 for n in orders):
        return _err(errors, path, "need positive integer orders")
    return list(orders)


def _dim(errors, path, dim, out):
    if not _is_int(dim) or dim < 0:
        _err(errors, path, "need a nonnegative dimension")
    return dim


def _tensor(errors, path, tensor, out):
    dim = out["dim"]
    if isinstance(tensor, list) and len(tensor) == dim:
        return _seq(_square)(errors, path, tensor, out)
    return _err(errors, path, f"need {dim} slabs of a {dim}^3 tensor")


def _unit(errors, path, unit, out):
    dim = out["dim"]
    if isinstance(unit, list) and len(unit) == dim and all(_is_int(v) for v in unit):
        return unit
    return _err(errors, path, f"need an integer vector of length {dim}")


def _identities(errors, path, idents, out):
    if not isinstance(idents, dict):
        return _err(errors, path, "need an object -> morphism map")
    for x, f in idents.items():
        if x not in errors.names["object"]:
            _err(errors, path, f"dangling object reference {x!r}")
        if isinstance(f, Hashable) and f not in errors.names["morphism"]:
            _err(errors, path, f"dangling morphism reference {f!r}")
        _name(errors, path, f)
    return dict(idents)


def _lists(errors, path, value, out):
    """An explicit category's lists come first; errors.names then holds its names."""
    if not isinstance(value.get("objects"), list) or not value["objects"]:
        _err(errors, path + ".objects", "need a non-empty object list")
        return False
    if not isinstance(value.get("morphisms"), list):
        _err(errors, path + ".morphisms", "need a morphism list")
        return False
    errors.names = {"object": value["objects"], "morphism": set()}


def _base_only(errors, path, value, out):
    if out["preset"] == "explicit" and out["over"] != "base":
        _err(errors, path, "explicit modules are supported over 'base' only")


def _command(errors, path, value, out):
    return _one("command", COMMANDS)(errors, path, value, out)


class _Preset(NamedTuple):
    build: Callable  # called with the normal form of the block (and the field)
    keys: dict = {}  # its parameters
    size: Callable | None = None  # entries of its table (n x n for a category)


def _presets(noun, table, tag="preset", alias=None, entries=None, **block):
    """A block whose tag names an entry of table; its keys are that entry's.
    An entry with a size that asks for more than the desk-scale limit of
    entries (what entries names) is an error, found before anything is built."""
    read = _block({tag: _Key(_one(noun, table, alias), None, stop=True)}, tag=tag,
                  cases={name: p.keys for name, p in table.items()}, **block)

    def bounded(errors, path, value, out=None):
        before = len(errors)
        b = read(errors, path, value)
        size = len(errors) == before and table[b[tag]].size
        if size and size(b) > TABLE_LIMIT:
            _err(errors, path, f"{entries} of {size(b)} entries exceeds the limit "
                               f"of {TABLE_LIMIT}")
        return b
    return bounded


def _explicit_algebra(b: dict, k: FieldSpec) -> FDAlgebra:
    """The algebra of a dense structure tensor, read once for its non-zero entries."""
    tensor = k.array(b["tensor"]).reshape((b["dim"],) * 3)
    nz = np.nonzero(tensor)
    return FDAlgebra(field=k, dim=b["dim"], constants=(*nz, tensor[nz]),
                     unit=k.array(b["unit"]), name="explicit")


_FIELDS = {"prime-field": _Preset(lambda b: FieldSpec.prime(b["characteristic"]),
                                  {"characteristic": _Key(_characteristic, None)}),
           "rationals": _Preset(lambda b: FieldSpec.rationals())}
_CATEGORY_PRESETS = {
    "trivial": _Preset(lambda b: presets.trivial_category()),
    "poset-a2": _Preset(lambda b: presets.poset_a2()),
    "discrete": _Preset(lambda b: presets.discrete_category(b["count"]),
                        {"count": _Key(_int_of(1), 2)}, lambda b: b["count"] ** 2),
    "cyclic-monoid": _Preset(lambda b: presets.cyclic_monoid(b["size"], b["loop"]),
                             {"size": _Key(_int_of(1), 3), "loop": _Key(_loop, 1)},
                             lambda b: b["size"] ** 2),
    "one-object-group": _Preset(lambda b: presets.one_object_group(b["order"]),
                                {"order": _Key(_int_of(1), 2)}, lambda b: b["order"] ** 2),
}
_ALGEBRA_PRESETS = {
    "field": _Preset(lambda b, k: field_algebra(k)),
    "dual-numbers": _Preset(lambda b, k: dual_numbers(k)),
    "group-algebra": _Preset(lambda b, k: group_algebra(b["orders"], k),
                             {"orders": _Key(_orders, [2])}, lambda b: prod(b["orders"]) ** 3),
    "upper-triangular": _Preset(lambda b, k: upper_triangular_algebra(b["size"], k),
                                {"size": _Key(_int_of(1), 2)},
                                lambda b: (b["size"] * (b["size"] + 1) // 2) ** 3),
    "field-product": _Preset(lambda b, k: presets.field_product(k, b["count"]),
                             {"count": _Key(_int_of(1), 2)}, lambda b: b["count"] ** 3),
    "explicit": _Preset(_explicit_algebra,
                        {"dim": _Key(_dim, None, stop=True), "tensor": _Key(_tensor, None),
                         "unit": _Key(_unit, None)}),
}
_SYSTEM_PRESETS = {
    "bimodule": {"regular": _Preset(presets.regular_bimodule_system),
                 "zero": _Preset(presets.zero_bimodule_system)},
    "right_module": {"regular": _Preset(presets.regular_right_module_system),
                     "zero": _Preset(presets.zero_right_module_system)},
}
_MODULE_PRESETS = {"constant": {},
                   "representable": {"at": _Key(_any, None, names="object")},
                   "explicit": {"dims": _Key(_map(_int_of(0)), {}, keys="object"),
                                "mats": _Key(_map(_matrix), {}, keys="morphism")}}


def _at_maps(entry):
    """Keys of a per-object block: its entries at objects, its matrices at morphisms."""
    return {"at": _Key(_map(entry), None, keys="object"),
            "maps": _Key(_map(_matrix), {}, keys="morphism")}


_MORPHISM = _block({"id": _Key(_name, None, stop=True, new=True),
                    "dom": _Key(_any, None, names="object"),
                    "cod": _Key(_any, None, names="object")},
                   required=("id", "dom", "cod"), need="need id/dom/cod")
_COMPOSITE = _block({key: _Key(_name, None, names="morphism")
                     for key in ("first", "then", "equals")},
                    required=("first", "then", "equals"), need="need first/then/equals")
_ALGEBRA = _presets("algebra preset", _ALGEBRA_PRESETS, required=("preset",),
                    need="need an algebra block with a preset",
                    entries="a left regular representation (dim^3)")
_ALGEBRA_AT = _at_maps(_ALGEBRA)
_SYSTEM_AT = {key: _at_maps(_block(
    {"dim": _Key(_int_of(0), None, stop=True),
     **{side: _Key(_seq(_square, "need one matrix per algebra basis element"), None)
        for side in sides}},
    required=("dim",), need="need dim plus per-basis action matrices"))
    for key, sides in (("bimodule", ("left", "right")), ("right_module", ("right",)))}
_CAPS = _block({cap: _Key(_int_of(0), 2) for cap in "pqn"}, empty=True)
_NAMES = _seq(_name, "need a list of module names")
_FIELD = _presets("field kind", _FIELDS, "kind", {"prime": "prime-field"})

_DOCUMENT = _block({
    "field": _Key(_FIELD, None, null="missing field block"),
    "coefficient_field": _Key(_FIELD, null="missing field block"),
    "category": _Key(_either(
        {"preset": _presets("preset", _CATEGORY_PRESETS, entries="a composition table")},
        _block({"objects": _Key(_distinct(_name, None, lambda x: (x,),
                                          lambda x: f"object {x!r}"), None),
                "morphisms": _Key(_seq(_MORPHISM), None),
                "identities": _Key(_identities, None),
                "compose": _Key(_distinct(_COMPOSITE, "need a list of {first, then, equals}",
                                          lambda r: (r["first"], r["then"]),
                                          lambda f, g: f"composite of {f!r} then {g!r}"),
                                None)},
               check=_lists)), None, null="missing category block"),
    "algebra": _Key(_either({"constant": _block({"constant": _Key(_ALGEBRA, None)}),
                             "at": _block(_ALGEBRA_AT)},
                            "need 'constant' or per-object 'at'"), null=_NO),
    **{key: _Key(_either({"preset": _presets("preset", _SYSTEM_PRESETS[key]),
                          "at": _block(at)}, "need a preset or per-object 'at'"), null=_NO)
       for key, at in _SYSTEM_AT.items()},
    "modules": _Key(_map(_block({"over": _Key(_one("category", ("base", "gr-a", "gr-an")), "base"),
                                 "preset": _Key(_one("module preset", _MODULE_PRESETS),
                                                "constant", stop=True)},
                                tag="preset", cases=_MODULE_PRESETS, check=_base_only),
                         "expected a name -> module mapping"), null=_NO),
    "task": _Key(_block({"command": _Key(_command, "validate"),
                         "caps": _Key(_CAPS, {}),
                         "module": _Key(_name), "weight": _Key(_name),
                         "coefficients": _Key(_name),
                         "modules": _Key(lambda errors, path, names, out:
                                         _NAMES(errors, path, names) if names else names)},
                        empty=True), {}),
})


@cache
def _unique_keys(loader: type) -> type:
    """The safe `loader` refusing a key repeated in one mapping.  A mapping's
    own keys are checked the first time it is flattened, before the keys its
    `<<` merges supply join them, so it may override a merged key."""

    class Unique(loader):
        def __init__(self, stream):
            super().__init__(stream)
            self.checked = set()

        def flatten_mapping(self, node):
            own = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
            super().flatten_mapping(node)
            if node in self.checked:
                return
            self.checked.add(node)
            seen = set()
            for key_node in own:
                key = self.construct_object(key_node)
                if not isinstance(key, Hashable):  # construct_mapping refuses it
                    continue
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"duplicate key {key!r}", key_node.start_mark)
                seen.add(key)
    return Unique


def _load_yaml(text: str):
    """yaml.safe_load through libyaml when it is built in, refusing repeated
    keys.  A document the C loader rejects is parsed again by the pure-Python
    SafeLoader, whose error messages are the ones reported; the C loader
    words many of them differently and fails on lone surrogates with a
    UnicodeEncodeError."""
    if yaml.__with_libyaml__:
        try:
            return yaml.load(text, Loader=_unique_keys(yaml.CSafeLoader))
        except (yaml.YAMLError, UnicodeError):
            pass
    return yaml.load(text, Loader=_unique_keys(yaml.SafeLoader))


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
    errors = _Errors()
    payload = _DOCUMENT(errors, "", raw)
    if errors:
        raise InputError(errors)
    return ProblemSpec(payload)


def emit(spec: ProblemSpec) -> str:
    """Canonical text form; emit(parse(emit(parse(t)))) == emit(parse(t))."""
    return yaml.safe_dump(spec.payload, sort_keys=True, default_flow_style=None)


# -- building ---------------------------------------------------------------------

@dataclass(eq=False)
class Built:
    """One problem's context: the named modules, built on first use and kept.
    Gr(A), A |x M, Gr(A, N) and the fiber extension are kept on the systems
    they come from, so every command reads the same `precosheaf.gr`,
    `bimodule.extension_algebra`, `right_module.gr` and
    `right_module.extension`."""
    field: FieldSpec
    coeff_field: FieldSpec
    category: FinCategory
    precosheaf: object = None
    bimodule: PrecosheafModule | None = None
    right_module: PrecosheafModule | None = None
    modules: dict = dfield(default_factory=dict)  # name -> normalized module block
    task: dict = dfield(default_factory=dict)
    _mods: dict = dfield(default_factory=dict, init=False, repr=False)

    def category_for(self, over: str) -> FinCategory:
        """The category a module lives over: "base", "gr-a" or "gr-an"."""
        if over == "base":
            return self.category
        if self.precosheaf is None:
            raise InputError([f"task: category '{over}' needs an algebra block"])
        if over == "gr-a":
            return self.precosheaf.gr
        if self.right_module is None:
            raise InputError(["task: category 'gr-an' needs a right_module block"])
        return self.right_module.gr

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
                if blk["over"] != "base":
                    raise InputError([f"modules.{name}: representable modules are supported "
                                      "over 'base' only"])
                _known(cat, blk, _MODULE_PRESETS["representable"], f"modules.{name}")
                mod = representable_module(cat, kc, blk["at"])
            else:
                _every(cat.objects, blk["dims"], f"modules.{name}.dims", "dimension at object")
                _known(cat, blk, _MODULE_PRESETS["explicit"], f"modules.{name}")
                _every(cat.mor, blk["mats"], f"modules.{name}.mats", "matrix at morphism")
                mod = CatModule(cat, kc, {x: blk["dims"][x] for x in cat.objects},
                                {f: kc.array(blk["mats"][f]) for f in cat.mor}, name=name)
            self._mods[name] = mod
        return self._mods[name]


def _every(names, block, path: str, what: str) -> None:
    """Every object (or morphism) in names has an entry in block."""
    for x in names:
        if x not in block:
            raise InputError([f"{path}: no {what} {x!r}"])


def _known(cat: FinCategory, block: dict, keys: dict, path: str) -> None:
    """Every value the table marks with names, and every key of a mapping it
    marks with keys, must name an object or a morphism (as marked) of cat."""
    names = {"object": cat.objects, "morphism": cat.mor}
    for key, spec in keys.items():
        for x in block[key] if spec.keys else ():
            if x not in names[spec.keys]:
                raise InputError([f"{path}.{key}.{x}: dangling {spec.keys} reference"])
        if spec.names and block[key] not in names[spec.names]:
            raise InputError([f"{path}.{key}: dangling {spec.names} reference {block[key]!r}"])


def _build_category(block) -> FinCategory:
    if "preset" in block:
        return _CATEGORY_PRESETS[block["preset"]].build(block)
    mor = {m["id"]: (m["dom"], m["cod"]) for m in block["morphisms"]}
    compose = {(r["first"], r["then"]): r["equals"] for r in block["compose"]}
    return FinCategory(tuple(block["objects"]), mor, dict(block["identities"]),
                       compose, name="explicit")


def _explicit_system(built: Built, blk: dict, key: str):
    """Per-object modules plus morphism maps; identity maps default to eye."""
    k, cat, pre = built.field, built.category, built.precosheaf
    mods = {}
    for x in cat.objects:
        if x not in blk["at"]:
            raise InputError([f"{key}.at: no module at object {x!r}"])
        data, alg, actions = blk["at"][x], pre.at(x), {}
        for side in ("right", "left") if key == "bimodule" else ("right",):
            if len(data[side]) != alg.dim:
                raise InputError([f"{key}.at.{x}.{side}: need {alg.dim} matrices"])
            actions[f"{side}_action"] = [k.array(m) for m in data[side]]
        mods[x] = AlgModule(alg, data["dim"], "bi" if key == "bimodule" else "right",
                            **actions)
    _known(cat, blk, _SYSTEM_AT[key], key)
    missing = [f for f, (x, y) in cat.mor.items()
               if f not in blk["maps"] and (f != cat.identity[x] or x != y)]
    if missing:
        raise InputError([f"{key}.maps: no map at morphism {missing[0]!r}"])
    maps = {f: k.array(blk["maps"][f]) if f in blk["maps"] else k.eye(mods[x].dim)
            for f, (x, _) in cat.mor.items()}
    return PrecosheafModule(pre, mods, maps, name="explicit")


def build(spec: ProblemSpec) -> Built:
    p = spec.payload
    k = _FIELDS[p["field"]["kind"]].build(p["field"])
    kc = _FIELDS[p["coefficient_field"]["kind"]].build(p["coefficient_field"]) \
        if "coefficient_field" in p else k
    cat = _build_category(p["category"])
    built = Built(field=k, coeff_field=kc, category=cat, task=dict(p["task"]))
    alg_block = p.get("algebra")
    if alg_block:
        if "constant" in alg_block:
            built.precosheaf = presets.constant_precosheaf(
                cat, _ALGEBRA_PRESETS[alg_block["constant"]["preset"]].build(
                    alg_block["constant"], k))
        else:
            algebras = {x: _ALGEBRA_PRESETS[blk["preset"]].build(blk, k)
                        for x, blk in alg_block["at"].items()}
            _every(cat.objects, algebras, "algebra.at", "algebra at object")
            _known(cat, alg_block, _ALGEBRA_AT, "algebra")
            edge_maps = {}
            for f, mat in alg_block["maps"].items():
                x, y = cat.mor[f]
                edge_maps[f] = AlgHom(algebras[x], algebras[y], k.array(mat))
            try:
                built.precosheaf = presets.precosheaf_from(cat, algebras, edge_maps)
            except ValueError as exc:
                raise InputError([f"algebra.maps: {exc}"])
    for key in (key for key in _SYSTEM_AT if key in p):
        if built.precosheaf is None:
            raise InputError([f"{key}: needs an algebra block"])
        blk = p[key]
        setattr(built, key, _SYSTEM_PRESETS[key][blk["preset"]].build(built.precosheaf)
                if "preset" in blk else _explicit_system(built, blk, key))
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


def _spot_checks(built: Built, seed: int) -> dict:
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
    for _ in range(_SPOT_ROUNDS):
        x = rng.choice(built.category.objects)
        alg = built.precosheaf.at(x)
        u, v, w = (rand_vec(alg.dim) for _ in range(3))
        if not k.equal(alg.mul(alg.mul(u, v), w), alg.mul(u, alg.mul(v, w))):
            failures += 1
        if not k.equal(alg.mul(alg.unit, u), u):
            failures += 1
    return {"seed": seed, "rounds": _SPOT_ROUNDS, "failures": failures}


def _algebra_payload(alg: FDAlgebra) -> dict:
    i, j, l, c = alg.constants
    return {"dim": alg.dim,
            "basis": [str(b) for b in alg.basis_labels],
            "unit": [str(v) for v in alg.unit],
            "products": [[*ijl, str(v)]
                         for *ijl, v in zip(i.tolist(), j.tolist(), l.tolist(), c)]}


def _cmd_build_algebra(built: Built, caps: dict) -> tuple[dict, bool]:
    if built.bimodule is not None:
        alg = built.bimodule.extension_algebra
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
    arep = validate_algebra(m.extension_algebra)
    if built.field.is_prime_field:
        verdicts["composition-antihomomorphism"] = constructions.check_composition_antihom(
            c, pre, m)
    checks = {name: v.as_dict() for name, v in verdicts.items()}
    checks["extension-algebra-axioms"] = arep.as_dict()
    return {"checks": checks}, arep.ok and all(v.passed for v in verdicts.values())


def _cmd_check_extension(built: Built, caps: dict) -> tuple[dict, bool]:
    ext = built.right_module.extension
    erep = extcheck.check_extension(ext)
    return {"sizes": {"kernel": len(ext.kernel.mor), "total": len(ext.total.mor),
                      "base": len(ext.base.mor)},
            "extension": erep.as_dict()}, erep.ok


def _cmd_cohomology(built: Built, caps: dict) -> tuple[dict, bool]:
    name = built.task.get("module")
    if not name:
        raise InputError(["task.module: cohomology needs a module name"])
    mod = built.module(name)
    # the nerve route first: its desk-scale limits refuse a job before any resolution
    nerve_route = nerve_cohomology_dims(mod.cat, mod, caps["n"])
    res_route = cohomology_dims(mod.cat, mod, caps["n"])
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
                                  g, f, (caps["p"], caps["q"], caps["n"]))
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
        errors = _Errors()
        _CAPS(errors, "task.caps", overrides)
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
