"""Build the job catalogs and their expected documents, with cross-checks.

    python3 perfbench/make_catalog.py [workload ...]

For every job the script runs catext on the canonical text, then checks the
answer against a route that does not share the code under test before it is
stored:

* cohomology: the nerve route must agree, and closed forms where they exist
  (contractible and discrete categories, B(Z/n) over F_p and Q);
* ext: Yoneda (a representable module is projective);
* lhs-report: row q = 0 of E2 and the abutment against nerve cohomology of
  Gr(A) and Gr(A, N); rows q > 0 vanish when the coefficient characteristic
  does not divide the fiber order, and otherwise the fiber cohomology local
  system has the closed-form dimensions of elementary abelian groups and its
  E2 row is recomputed on the nerve of Gr(A);
* word-size coefficient primes: the stored answer is the one at two small
  primes above every group order in the problem (the same divisibility
  class), which must agree; a job whose answer differs is kept and marked
  ``known_defect``;
* check-extension: the closed-form sizes of kernel, total and base;
* build-algebra: the skew algebra of constant field coefficients must equal
  the linearization, otherwise the basis size must be sum of dim A(cod f);
* check-theorem-a: every check passes for commutative algebras with the
  regular bimodule, over the closed-form number of composable pairs;
* validate: negative controls report the declared violation codes, the same
  at every prime; malformed inputs exit 2 naming the broken path.

Every equivalent presentation the generator can choose is run too and must
give the same document.  Building all three catalogs takes a few minutes.
"""
from __future__ import annotations

import json
import math
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import yaml  # noqa: E402

import jobs as joblib  # noqa: E402
from worker import canonical, differences, run_job  # noqa: E402
from catext import cliio, constructions, lhsengine  # noqa: E402
from catext.fincat import linearize, nerve_chains  # noqa: E402
from catext.homengine import constant_module, nerve_cohomology_dims  # noqa: E402

WORD_PRIMES = (65521, 2147483647)
TRIV = {"preset": "trivial"}
A2 = {"preset": "poset-a2"}
BZ2 = {"preset": "one-object-group", "order": 2}
BZ3 = {"preset": "one-object-group", "order": 3}
CYC31 = {"preset": "cyclic-monoid", "size": 3, "loop": 1}
CYC42 = {"preset": "cyclic-monoid", "size": 4, "loop": 2}
DISC3 = {"preset": "discrete", "count": 3}
FIELD = {"preset": "field"}
KZ2 = {"preset": "group-algebra", "orders": [2]}
DUAL = {"preset": "dual-numbers"}
REG = {"preset": "regular"}
CONST_GF = {"G": {"over": "gr-a", "preset": "constant"},
            "F": {"over": "gr-an", "preset": "constant"}}


def fld(p):
    return {"kind": "prime", "characteristic": p} if p else {"kind": "rationals"}


def problem(p, cat, task, alg=None, coeff=None, **blocks) -> dict:
    doc = {"field": fld(p)}
    if coeff:
        doc["coefficient_field"] = fld(coeff)
    doc["category"] = cat
    if alg is not None:
        doc["algebra"] = {"constant": alg}
    doc.update(blocks)
    doc["task"] = task
    return doc


def lhs(p, cat, alg, caps, coeff=None) -> dict:
    return problem(p, cat, {"command": "lhs-report",
                            "caps": dict(zip("pqn", caps)), "weight": "G",
                            "coefficients": "F"},
                   alg, coeff, right_module=REG, modules=CONST_GF)


def entry(name, prob=None, *, slot=None, surface="full", text=None, command=None,
          expect_exit=0, codes=None, error_path=None) -> dict:
    e = {"id": name, "slot": slot or name,
         "command": command or (prob or {}).get("task", {}).get("command", "validate"),
         "surface": surface, "exit": expect_exit}
    if text is not None:
        e["text"] = text
        e["surface"] = "verbatim"
    else:
        e["problem"] = prob
    if codes is not None:
        e["_codes"] = codes
    if error_path is not None:
        e["_error_path"] = error_path
    return e


# -- workloads -------------------------------------------------------------------

def desk_entries() -> list:
    out = []
    for path in sorted((ROOT / "problems").glob("*.yaml")):
        prob = yaml.safe_load(path.read_text())
        negative = path.stem.startswith(("broken", "corrupt"))
        codes = {"broken_category": ["dom-cod"], "corrupt_bimodule": ["bimodule"]}
        out.append(entry(f"desk/file/{path.stem}", prob,
                         surface="style" if negative else "full",
                         expect_exit=1 if negative else 0, codes=codes.get(path.stem)))
        if prob["field"].get("kind") != "prime":
            continue
        for p in (2, 3, 5):
            if p == prob["field"]["characteristic"]:
                continue
            if p == 5 and path.stem in ("lemma_fiber_extension", "group_base_lhs",
                                        "one_object_lhs"):
                continue  # beyond desk scale (over 0.1 s)
            var = json.loads(json.dumps(prob))
            var["field"]["characteristic"] = p
            if path.stem == "semisimple_fibers_lhs":
                var["coefficient_field"]["characteristic"] = 3 if p != 3 else 2
            out.append(entry(f"desk/file/{path.stem}/p{p}", var,
                             surface="style" if negative else "full",
                             expect_exit=1 if negative else 0,
                             codes=codes.get(path.stem)))
    # every category preset, cohomology with constant coefficients
    for cname, cat in (("pt", TRIV), ("a2", A2), ("disc3", DISC3), ("cyc31", CYC31),
                       ("cyc42", CYC42), ("bz3", BZ3)):
        for p in (2, 3, 5, 0):
            n = 3 if p in (2, 3) else 2
            out.append(entry(f"desk/cohomology/{cname}/{'q' if p == 0 else f'p{p}'}",
                             problem(p, cat, {"command": "cohomology", "caps": {"n": n},
                                              "module": "F"},
                                     modules={"F": {"over": "base", "preset": "constant"}})))
    # Ext from representables (Yoneda) and from the constant module
    for cname, cat, at in (("a2", A2, "0"), ("a2", A2, "1"), ("cyc31", CYC31, "*"),
                           ("bz2", BZ2, "*")):
        for p in (2, 3):
            mods = {"G": {"over": "base", "preset": "representable", "at": at},
                    "F": {"over": "base", "preset": "constant"}}
            out.append(entry(f"desk/ext/{cname}/rep{at}/p{p}",
                             problem(p, cat, {"command": "ext", "caps": {"n": 3},
                                              "modules": ["G", "F"]}, modules=mods)))
    # algebra builds, Theorem A checks, extension checks, clean validation
    for p in (2, 3, 5):
        out.append(entry(f"desk/build/a2-dual/p{p}",
                         problem(p, A2, {"command": "build-algebra"}, DUAL)))
        out.append(entry(f"desk/build/pt-dual-ext/p{p}",
                         problem(p, TRIV, {"command": "build-algebra"}, DUAL, bimodule=REG)))
        if p < 5:
            out.append(entry(f"desk/theorem-a/a2-field/p{p}",
                             problem(p, A2, {"command": "check-theorem-a"}, FIELD,
                                     bimodule=REG)))
        out.append(entry(f"desk/extension/pt-field/p{p}",
                         problem(p, TRIV, {"command": "check-extension"}, FIELD,
                                 right_module=REG)))
        out.append(entry(f"desk/validate/cyc31-kz2/p{p}",
                         problem(p, CYC31, {"command": "validate"}, KZ2, right_module=REG,
                                 bimodule=REG)))
    out.append(entry("desk/theorem-a/pt-kz2/p2",
                     problem(2, TRIV, {"command": "check-theorem-a"}, KZ2, bimodule=REG)))
    out.append(entry("desk/lhs/cyc31-field/p2", lhs(2, CYC31, FIELD, (1, 1, 1))))
    for p in (2, 3):
        out.append(entry(f"desk/extension/bz2-field/p{p}",
                         problem(p, BZ2, {"command": "check-extension"}, FIELD,
                                 right_module=REG)))
    for caps in ((1, 1, 1), (2, 3, 2), (3, 3, 3)):
        out.append(entry(f"desk/lhs/pt-f2/c{''.join(map(str, caps))}",
                         lhs(2, TRIV, FIELD, caps)))
    # negative controls: same violation codes at every prime
    for p in (2, 3, 5):
        bad_unit = {"preset": "explicit", "dim": 2,
                    "tensor": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "unit": [1, 0]}
        out.append(entry(f"desk/negative/bad-unit/p{p}",
                         problem(p, A2, {"command": "validate"}, bad_unit),
                         surface="style", expect_exit=1, codes=["precosheaf"]))
        mods = {"F": {"over": "base", "preset": "explicit", "dims": {"0": 1, "1": 1},
                      "mats": {"i0": [[0]], "i1": [[1]], "a": [[1]]}}}
        out.append(entry(f"desk/negative/not-functor/p{p}",
                         problem(p, A2, {"command": "cohomology", "module": "F"},
                                 modules=mods),
                         surface="style", expect_exit=1, codes=["functor"]))
    # malformed inputs: exit 2 with the broken path named first
    base = problem(2, TRIV, {"command": "validate"}, FIELD)
    bad = [
        ("unknown-preset", dict(base, category={"preset": "klein-bottle"}), "category.preset"),
        ("dangling-identity", dict(base, category={
            "objects": ["x"], "morphisms": [{"id": "f", "dom": "x", "cod": "x"}],
            "identities": {"x": "g"}, "compose": [{"first": "f", "then": "f", "equals": "f"}]}),
         "category.identities"),
        ("characteristic-1", dict(base, field={"kind": "prime", "characteristic": 1}),
         "field.characteristic"),
        ("field-kind", dict(base, field={"kind": "reals"}), "field.kind"),
        ("unknown-command", dict(base, task={"command": "prove"}), "task.command"),
        ("ragged-tensor", dict(base, algebra={"constant": {
            "preset": "explicit", "dim": 2, "tensor": [[[1, 0], [0]], [[0, 1], [1, 0]]],
            "unit": [1, 0]}}), "algebra.constant.tensor[0]"),
        ("fractional-entry", dict(base, right_module={
            "at": {"*": {"dim": 1, "right": [[[0.5]]]}}}), "right_module.at.*.right[0]"),
        ("module-over", dict(base, modules={"F": {"over": "gr-x"}}), "modules.F.over"),
        ("explicit-over-gr", dict(base, modules={"F": {
            "over": "gr-a", "preset": "explicit", "dims": {}, "mats": {}}}), "modules.F"),
        ("missing-category", {k: v for k, v in base.items() if k != "category"}, "category"),
        ("dangling-representable", problem(2, A2, {"command": "cohomology", "module": "F"},
                                           modules={"F": {"over": "base",
                                                          "preset": "representable",
                                                          "at": "z"}}), "modules.F.at"),
        ("lhs-without-module", problem(2, TRIV, {"command": "lhs-report"}, FIELD),
         "lhs-report"),
    ]
    for name, prob, path in bad:
        out.append(entry(f"desk/malformed/{name}", prob, surface="style", expect_exit=2,
                         error_path=path))
    out.append(entry("desk/malformed/yaml-syntax", command="validate", expect_exit=2,
                     text="field: {kind: prime, characteristic: 2\ncategory: [\n",
                     error_path="line"))
    out.append(entry("desk/malformed/top-level-list", command="validate", expect_exit=2,
                     text="- field\n- category\n", error_path="document"))
    return out


def ladder_entries() -> list:
    # Thirteen jobs whose times (at the seed) sit apart around the 7th and the
    # 10th: with an odd number of passes the median and the tail sample then
    # fall inside one job's samples, not between two jobs of different size,
    # where noise would make them jump.
    rungs = [
        ("lhs/a2-f2-c222", lhs(2, A2, FIELD, (2, 2, 2))),
        ("lhs/cyc31-f2-c111", lhs(2, CYC31, FIELD, (1, 1, 1))),
        ("lhs/bz2-f3-c111", lhs(3, BZ2, FIELD, (1, 1, 1))),
        ("lhs/a2-f3-c111", lhs(3, A2, FIELD, (1, 1, 1))),
        ("lhs/a2-f3-c222", lhs(3, A2, FIELD, (2, 2, 2))),
        ("lhs/cyc31-f3-c111", lhs(3, CYC31, FIELD, (1, 1, 1))),
        ("ext/cyc31-kz2f2", problem(2, CYC31, {"command": "check-extension"}, KZ2,
                                    right_module=REG)),
        ("lhs/cyc31-kz2f2-c111", lhs(2, CYC31, KZ2, (1, 1, 1))),
        ("lhs/bz2-f5-c111", lhs(5, BZ2, FIELD, (1, 1, 1))),
        ("lhs/a2-f5-c111", lhs(5, A2, FIELD, (1, 1, 1))),
        ("ext/a2-f7", problem(7, A2, {"command": "check-extension"}, FIELD, right_module=REG)),
        ("ext/bz2-f7", problem(7, BZ2, {"command": "check-extension"}, FIELD,
                               right_module=REG)),
        ("lhs/cyc31-f5-c111", lhs(5, CYC31, FIELD, (1, 1, 1))),
    ]
    return [entry(f"gr/{name}", prob) for name, prob in rungs]


def fiber_entries() -> list:
    out = []
    slots = [  # an odd number of jobs, as in ladder_entries
        # (slot, base, algebra, construction prime, caps, coefficient primes)
        ("pt-f5-q4-coprime", TRIV, FIELD, 5, (1, 4, 1), (3, 7)),
        ("pt-f5-q4-modular", TRIV, FIELD, 5, (1, 4, 1), (5,)),
        ("pt-f7-q3-coprime", TRIV, FIELD, 7, (1, 3, 1), (3, 5)),
        ("pt-f7-q3-modular", TRIV, FIELD, 7, (1, 3, 1), (7,)),
        ("pt-f2cubed-q3", TRIV, {"preset": "field-product", "count": 3}, 2, (1, 3, 1),
         (3, 5, 7)),
        ("bz2-f5-q3-modular", BZ2, FIELD, 5, (1, 3, 1), (5,)),
        ("bz2-f5-q3-coprime", BZ2, FIELD, 5, (1, 3, 1), (3, 7)),
        ("pt-f7-q3-word", TRIV, FIELD, 7, (1, 3, 1), WORD_PRIMES),
        ("pt-f5-q3-word", TRIV, FIELD, 5, (2, 3, 2), WORD_PRIMES),
    ]
    for slot, cat, alg, p, caps, coeffs in slots:
        for ell in coeffs:
            out.append(entry(f"fiber/{slot}/l{ell}", lhs(p, cat, alg, caps, coeff=ell),
                             slot=slot))
    # known defects at the seed, checked outside the timed loop
    out.append(entry("fiber/probe/pt-f5-c242-l2147483647",
                     lhs(5, TRIV, FIELD, (2, 4, 2), coeff=2147483647), slot="probe"))
    out.append(entry("fiber/probe/pt-kz2f3-c131-l2147483647",
                     lhs(3, TRIV, KZ2, (1, 3, 1), coeff=2147483647), slot="probe"))
    return out


BUILDERS = {"desk_batch": desk_entries, "gr_ladder": ladder_entries,
            "fiber_bar": fiber_entries}


# -- cross-checks ------------------------------------------------------------------

class CrossCheckFailed(AssertionError):
    pass


def require(cond, what):
    if not cond:
        raise CrossCheckFailed(what)


def _text(prob) -> str:
    return yaml.safe_dump(prob, sort_keys=False)


def _built(prob):
    return cliio.build(cliio.parse(_text(prob)))


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _primes_above(n: int, count: int) -> list:
    out, q = [], n + 1
    while len(out) < count:
        if _is_prime(q):
            out.append(q)
        q += 1
    return out


def closed_form_cohomology(prob) -> list | None:
    cat = prob["category"]
    p = prob["field"].get("characteristic", 0)
    n = prob["task"]["caps"]["n"]
    preset = cat.get("preset")
    if preset in ("trivial", "poset-a2"):
        return [1] + [0] * n
    if preset == "discrete":
        return [cat["count"]] + [0] * n
    if preset == "one-object-group":
        order = cat["order"]
        return [1] + [1 if p and order % p == 0 else 0] * n
    return None


def xcheck_cohomology(prob, doc):
    require(doc["dims"] == doc["nerve_dims"] and doc["routes_agree"], "nerve route disagrees")
    closed = closed_form_cohomology(prob)
    if closed is not None:
        require(doc["dims"] == closed, f"closed form {closed}")


def xcheck_ext(prob, doc):
    g = prob["modules"][prob["task"]["modules"][0]]
    if g.get("preset") == "representable":
        n = prob["task"]["caps"]["n"]
        require(doc["dims"] == [1] + [0] * n, "Yoneda: Ext(Hom(-,y), k) = k(y) in degree 0")


def xcheck_extension(prob, doc):
    b = _built(prob)
    c, a, n = b.category, b.precosheaf, b.right_module
    p = b.field.characteristic
    size_a = {x: p ** a.at(x).dim for x in c.objects}
    size_n = {x: p ** n.at(x).dim for x in c.objects}
    want = {"kernel": sum(size_n.values()),
            "base": sum(size_a[c.cod(f)] for f in c.mor),
            "total": sum(size_a[c.cod(f)] * size_n[c.cod(f)] for f in c.mor)}
    require(doc["sizes"] == want, f"closed-form sizes {want}")
    require(doc["extension"] == {"ok": True, "violations": []}, "Lemma: always an extension")


def xcheck_build(prob, doc):
    b = _built(prob)
    c, a = b.category, b.precosheaf
    if "bimodule" not in prob and prob["algebra"]["constant"] == FIELD:
        lin = linearize(c, b.field)
        want = sorted([i, j, l, "1"] for i in range(lin.dim) for j in range(lin.dim)
                      for l in range(lin.dim) if lin.structure[i, j, l])
        require(sorted(doc["algebra"]["products"]) == want, "skew algebra != linearization")
    dim = sum(a.at(c.cod(f)).dim for f in c.mor)
    if b.bimodule is not None:
        dim += sum(b.bimodule.at(c.cod(f)).dim for f in c.mor)
    require(doc["algebra"]["dim"] == dim, f"basis size {dim}")
    require(doc["validation"]["ok"], "algebra axioms")


def xcheck_theorem_a(prob, doc):
    b = _built(prob)
    c = b.category
    size = b.field.characteristic ** (2 * b.precosheaf.at(c.objects[0]).dim)
    for name, chk in doc["checks"].items():
        require(chk.get("passed", chk.get("ok")), f"{name} must pass (commutative, regular)")
    anti = doc["checks"]["composition-antihomomorphism"]
    require(anti["pairs_checked"] == len(c.compose) * size * size, "composable pair count")


def _fiber_cohomology_dim(fiber_char: int, dim: int, ell: int, q: int) -> int:
    """dim H^q((Z/fiber_char)^dim; F_ell), trivial action."""
    if q == 0 or dim == 0:
        return 1 if q == 0 else 0
    if ell != fiber_char:
        return 0
    return math.comb(q + dim - 1, dim - 1)


def _nerve_fits(cat, cap: int, limit: int = 10_000_000) -> bool:
    """Whether the normalized nerve complex up to degree cap + 1 stays small."""
    idents = set(cat.identity.values())
    arrows = len(cat.mor) - len(idents)
    if arrows ** (cap + 1) > 2_000_000:
        return False
    sizes = [len(nerve_chains(cat, q, normalized=True)) for q in range(cap + 2)]
    return max(a * b for a, b in zip(sizes, sizes[1:])) <= limit


def xcheck_lhs(prob, doc):
    b = _built(prob)
    c, a, n, kc = b.category, b.precosheaf, b.right_module, b.coeff_field
    rep = doc["report"]
    cap_p, cap_q, cap_n = rep["caps"]["p"], rep["caps"]["q"], rep["caps"]["n"]
    e2 = {tuple(map(int, key.split(","))): v for key, v in rep["e2"].items()}
    gr_a = constructions.gr_algebra(c, a)
    gr_an = constructions.gr_right_module(c, a, n)
    require(_nerve_fits(gr_a, cap_p), "Gr(A) too large for the nerve route")
    row0 = nerve_cohomology_dims(gr_a, constant_module(gr_a, kc), cap_p, normalized=True)
    require([e2[(p, 0)] for p in range(cap_p + 1)] == row0, f"E2 row 0 vs nerve {row0}")
    fchar = b.field.characteristic
    for q in range(1, cap_q + 1):
        dims = {x: _fiber_cohomology_dim(fchar, n.at(x).dim, kc.characteristic, q)
                for x in c.objects}
        if not any(dims.values()):
            require(all(e2[(p, q)] == 0 for p in range(cap_p + 1)), f"E2 row {q} must vanish")
            continue
        f = constant_module(gr_an, kc)
        hq = lhsengine.h_local_system(c, a, n, f, q).module
        require(hq.dims == dims, f"fiber H^{q} dims {dims}")
        row = nerve_cohomology_dims(gr_a, hq, cap_p, normalized=True)
        require([e2[(p, q)] for p in range(cap_p + 1)] == row, f"E2 row {q} vs nerve {row}")
    if _nerve_fits(gr_an, cap_n):
        abut = nerve_cohomology_dims(gr_an, constant_module(gr_an, kc), cap_n, normalized=True)
        require(rep["abutment"] == abut, f"abutment vs nerve {abut}")


XCHECKS = {"cohomology": xcheck_cohomology, "ext": xcheck_ext,
           "check-extension": xcheck_extension, "build-algebra": xcheck_build,
           "check-theorem-a": xcheck_theorem_a, "lhs-report": xcheck_lhs}


def _run(e, text):
    code, out = run_job(cliio, e["command"], text)
    return code, json.loads(out)


def expected_for(e) -> tuple:
    """(exit code, document, known-defect note) after the cross-checks."""
    if e["surface"] == "verbatim":
        text = e["text"]
    else:
        text = _text(e["problem"])
    code, doc = _run(e, text)
    note = None
    prob = e.get("problem")
    coeff = (prob or {}).get("coefficient_field", {}).get("characteristic", 0)
    if coeff in WORD_PRIMES:
        b = _built(prob)
        gr_an = constructions.gr_right_module(b.category, b.precosheaf, b.right_module)
        refs = []
        for ell in _primes_above(len(gr_an.mor), 2):
            ref = json.loads(json.dumps(prob))
            ref["coefficient_field"]["characteristic"] = ell
            refs.append((ref, _run(e, _text(ref))))
        require(refs[0][1] == refs[1][1],
                f"reference primes disagree: {refs[0][1]} vs {refs[1][1]}")
        ref_prob, (ref_code, ref_doc) = refs[0]
        xcheck_lhs(ref_prob, ref_doc)
        if (code, doc) != (ref_code, ref_doc):
            diffs = [d for d in differences(doc, ref_doc) if ".e2." in d]
            note = (f"int64 overflow at coefficient prime {coeff}: E2 entries "
                    f"{'; '.join(d.split('.e2.')[1] for d in diffs)} (the same job at "
                    f"{ref_prob['coefficient_field']['characteristic']} is the answer)")
        code, doc = ref_code, ref_doc
    elif code == 0 and e["command"] in XCHECKS:
        XCHECKS[e["command"]](prob, doc)
    require(code == e["exit"], f"exit code {code}, declared {e['exit']}")
    if "_codes" in e:
        got = sorted({v["code"] for v in doc["validation"]["violations"]})
        require(got == sorted(e["_codes"]), f"violation codes {got}, declared {e['_codes']}")
    if "_error_path" in e:
        require(doc["input_errors"] and doc["input_errors"][0].startswith(e["_error_path"]),
                f"first input error {doc['input_errors'][:1]} should name {e['_error_path']}")
    return code, doc, note


def presentations(e) -> list:
    """Texts for every presentation choice taken alone, plus two random mixes."""
    if e["surface"] != "full":
        return [joblib.job_text(e, random.Random(s)) for s in (1, 2)]
    prob = e["problem"]
    texts = []
    alg = prob.get("algebra", {}).get("constant")
    for variant in joblib.algebra_variants(alg)[1:] if alg else []:
        texts.append(_text(dict(prob, algebra={"constant": variant})))
    if "preset" in prob["category"] and joblib.may_rename(prob):
        for variant in joblib.category_variants(prob["category"])[1:]:
            texts.append(_text(dict(prob, category=variant)))
        texts.append(_text(dict(prob, category=joblib._explicit_category(
            prob["category"], random.Random(0)))))
    texts += [joblib.job_text(e, random.Random(s)) for s in (1, 2)]
    return texts


def build(workload: str) -> list:
    entries = BUILDERS[workload]()
    catalog = []
    for e in entries:
        t0 = time.perf_counter()
        code, doc, note = expected_for(e)
        took = time.perf_counter() - t0
        want = canonical(doc)
        if note is None:
            for text in presentations(e):
                got_code, got = run_job(cliio, e["command"], text)
                require((got_code, got) == (code, want),
                        f"{e['id']}: a presentation changes the answer:\n{text}")
        require((e["slot"] == "probe") == bool(note),
                f"{e['id']}: probe jobs are exactly the known defects")
        stored = {k: v for k, v in e.items() if not k.startswith("_")}
        stored.update(expect=doc, exit=code)
        if note:
            stored["known_defect"] = note
        catalog.append(stored)
        print(f"{took:8.3f}s  {e['id']}" + (f"  KNOWN DEFECT: {note}" if note else ""),
              flush=True)
    return catalog


def main(argv) -> int:
    for workload in argv or joblib.WORKLOADS:
        catalog = build(workload)
        joblib.CATALOG_DIR.mkdir(exist_ok=True)
        path = joblib.CATALOG_DIR / f"{workload}.json"
        path.write_text(json.dumps({"workload": workload, "jobs": catalog},
                                   indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}: {len(catalog)} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
