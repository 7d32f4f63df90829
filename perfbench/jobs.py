"""Job catalogs and the seeded job-list generator.

A catalog (``catalog/<workload>.json``) lists every job a workload can run,
each with the structured document and exit code it must produce.  Jobs that
share a ``slot`` are interchangeable: they cost the same and the seed picks
one of them per slot.  The seed also picks, per job, an equivalent
presentation of the problem (preset or explicit category table with fresh
ids, equivalent algebra presets, renamed coefficient modules, field-kind
alias) and a YAML surface form (key order, flow style, comments).  None of
these choices changes the expected document, so one stored answer covers
every text the generator can emit for a job.

Jobs marked ``known_defect`` in a catalog are never drawn into the timed
list; they form the probe that ``worker.py`` checks after timing.

This module imports only PyYAML, so ``make_catalog.py`` and the tests can use
it without catext.
"""
from __future__ import annotations

import copy
import json
import random
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
CATALOG_DIR = HERE / "catalog"
WORKLOADS = ("desk_batch", "gr_ladder", "fiber_bar")


def load_catalog(workload: str) -> list:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    with open(CATALOG_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


# -- presentations ----------------------------------------------------------------

def _preset_table(block: dict) -> dict:
    """The explicit table of a category preset, in the preset's own order."""
    preset = block["preset"]
    if preset == "trivial":
        return {"objects": ["*"], "morphisms": [("id", "*", "*")],
                "identities": {"*": "id"}, "compose": [("id", "id", "id")]}
    if preset == "discrete":
        n = block.get("count", 2)
        return {"objects": [str(i) for i in range(n)],
                "morphisms": [(f"id{i}", str(i), str(i)) for i in range(n)],
                "identities": {str(i): f"id{i}" for i in range(n)},
                "compose": [(f"id{i}", f"id{i}", f"id{i}") for i in range(n)]}
    if preset == "poset-a2":
        return {"objects": ["0", "1"],
                "morphisms": [("i0", "0", "0"), ("i1", "1", "1"), ("a", "0", "1")],
                "identities": {"0": "i0", "1": "i1"},
                "compose": [("i0", "i0", "i0"), ("i1", "i1", "i1"),
                            ("i0", "a", "a"), ("a", "i1", "a")]}
    if preset in ("cyclic-monoid", "one-object-group"):
        if preset == "cyclic-monoid":
            n, r = block.get("size", 3), block.get("loop", 1)
        else:
            n, r = block.get("order", 2), 0

        def norm(e):
            return e if e < n else r + (e - r) % (n - r)
        return {"objects": ["*"],
                "morphisms": [(f"t{e}", "*", "*") for e in range(n)],
                "identities": {"*": "t0"},
                "compose": [(f"t{e}", f"t{d}", f"t{norm(e + d)}")
                            for e in range(n) for d in range(n)]}
    raise ValueError(f"no explicit table for preset {preset!r}")


def _explicit_category(block: dict, rng: random.Random) -> dict:
    """The preset as an explicit table with fresh object and morphism ids."""
    table = _preset_table(block)
    tag = "".join(rng.choice("abcdefghjkmnpqrstuvwxz") for _ in range(3))
    obj = {x: f"{tag}{i}" for i, x in enumerate(table["objects"])}
    mor = {f: f"{tag}_{i}" for i, (f, _, _) in enumerate(table["morphisms"])}
    return {"objects": [obj[x] for x in table["objects"]],
            "morphisms": [{"id": mor[f], "dom": obj[d], "cod": obj[c]}
                          for f, d, c in table["morphisms"]],
            "identities": {obj[x]: mor[f] for x, f in table["identities"].items()},
            "compose": [{"first": mor[f], "then": mor[g], "equals": mor[h]}
                        for f, g, h in table["compose"]]}


def category_variants(block: dict) -> list:
    """Preset blocks that build the same category up to the names of ids."""
    preset = block["preset"]
    if preset == "trivial":
        return [block, {"preset": "discrete", "count": 1},
                {"preset": "one-object-group", "order": 1},
                {"preset": "cyclic-monoid", "size": 1, "loop": 0}]
    if preset == "one-object-group":
        return [block, {"preset": "cyclic-monoid", "size": block.get("order", 2), "loop": 0}]
    return [block]


def _group_tensor(n: int) -> dict:
    tensor = [[[1 if (i + j) % n == l else 0 for l in range(n)] for j in range(n)]
              for i in range(n)]
    return {"preset": "explicit", "dim": n, "tensor": tensor,
            "unit": [1] + [0] * (n - 1)}


def algebra_variants(block: dict) -> list:
    """Algebra blocks that build the same algebra on the same basis."""
    preset = block.get("preset")
    if preset == "field":
        return [block, {"preset": "group-algebra", "orders": [1]},
                {"preset": "field-product", "count": 1},
                {"preset": "upper-triangular", "size": 1},
                {"preset": "explicit", "dim": 1, "tensor": [[[1]]], "unit": [1]}]
    if preset == "dual-numbers":
        return [block, {"preset": "explicit", "dim": 2,
                        "tensor": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], "unit": [1, 0]}]
    if preset == "group-algebra" and len(block.get("orders", [2])) == 1:
        return [block, _group_tensor(block.get("orders", [2])[0])]
    return [block]


def may_rename(problem: dict) -> bool:
    """Whether object and morphism ids may change: the problem refers to no
    id itself, and the document does not list them (build-algebra prints
    basis labels, which carry morphism ids)."""
    blocks = [problem.get(key) or {} for key in ("algebra", "bimodule", "right_module")]
    return not any("at" in b for b in blocks) \
        and all(m.get("preset") == "constant" for m in (problem.get("modules") or {}).values()) \
        and (problem.get("task") or {}).get("command") != "build-algebra"


def present(problem: dict, rng: random.Random) -> dict:
    """An equivalent presentation of a valid problem, chosen by rng.

    Only rewrites that leave the structured document unchanged for a job
    that runs clean: ids do not reach such documents, and every rewrite keeps
    the order in which morphisms and basis elements are enumerated.
    """
    doc = copy.deepcopy(problem)
    fld = doc.get("field")
    if isinstance(fld, dict) and fld.get("kind") in ("prime", "prime-field"):
        fld["kind"] = rng.choice(("prime", "prime-field"))
    cat = doc.get("category")
    if isinstance(cat, dict) and "preset" in cat and may_rename(doc):
        choice = rng.choice(category_variants(cat) + ["explicit"])
        doc["category"] = _explicit_category(cat, rng) if choice == "explicit" else choice
    alg = doc.get("algebra")
    if isinstance(alg, dict) and "constant" in alg:
        alg["constant"] = copy.deepcopy(rng.choice(algebra_variants(alg["constant"])))
    mods = doc.get("modules")
    task = doc.get("task") or {}
    if mods:
        fresh = {}
        for name in mods:
            fresh[name] = f"{name}{rng.randrange(100)}"
        doc["modules"] = {fresh[n]: m for n, m in mods.items()}
        for key in ("module", "weight", "coefficients"):
            if key in task:
                task[key] = fresh[task[key]]
        if "modules" in task:
            task["modules"] = [fresh[n] for n in task["modules"]]
    return doc


def _shuffle_keys(obj, rng: random.Random):
    if isinstance(obj, dict):
        keys = list(obj)
        rng.shuffle(keys)
        return {k: _shuffle_keys(obj[k], rng) for k in keys}
    if isinstance(obj, list):
        return [_shuffle_keys(v, rng) for v in obj]
    return obj


def render(problem: dict, rng: random.Random, shuffle: bool, label: str) -> str:
    """YAML text of a problem in a seeded surface form."""
    body = _shuffle_keys(problem, rng) if shuffle else problem
    style = rng.choice((None, False, True))
    text = yaml.safe_dump(body, sort_keys=False, default_flow_style=style, width=100)
    head = f"# {label}\n" if rng.random() < 0.5 else ""
    if rng.random() < 0.3:
        head += "---\n"
    return head + text


# -- job lists --------------------------------------------------------------------

def job_text(entry: dict, rng: random.Random) -> str:
    """Problem text for one catalog entry.

    ``surface`` says how much the generator may vary: ``full`` (presentation
    and key order), ``style`` (flow style and comments only; error order in
    the expected document depends on key order) or ``verbatim`` (the text
    itself is the input, as for YAML syntax errors).
    """
    surface = entry["surface"]
    if surface == "verbatim":
        return entry["text"]
    problem = entry["problem"]
    if surface == "full":
        problem = present(problem, rng)
    return render(problem, rng, shuffle=surface == "full", label=entry["id"])


def job_list(workload: str, seed: int) -> list:
    """The seeded job list: one entry per slot, in a seeded order, each with
    its generated problem text.  Returns (entry, text) pairs."""
    rng = random.Random(f"{workload}:{seed}")
    slots: dict = {}
    for entry in load_catalog(workload):
        if not entry.get("known_defect"):
            slots.setdefault(entry["slot"], []).append(entry)
    chosen = [rng.choice(slots[s]) for s in sorted(slots)]
    rng.shuffle(chosen)
    return [(entry, job_text(entry, rng)) for entry in chosen]


def probe_list(workload: str) -> list:
    """Known-defect jobs in canonical form, checked outside the timed loop."""
    rng = random.Random(0)
    return [(e, render(e["problem"], rng, shuffle=False, label=e["id"]))
            for e in load_catalog(workload) if e.get("known_defect")]
