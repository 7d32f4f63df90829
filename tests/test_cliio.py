import hashlib
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
import yaml

from catext import (cli, cliio, coeffsys, constructions, extcheck, fdalgebra, fincat,
                    homengine, lhsengine)
from catext.cliio import InputError, emit, parse, render, run

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

MINIMAL = """
field: {kind: prime, characteristic: 2}
category: {preset: trivial}
task: {command: validate}
"""

EXPLICIT_A2 = """
field: {kind: prime, characteristic: 2}
category:
  objects: ["0", "1"]
  morphisms:
    - {id: i0, dom: "0", cod: "0"}
    - {id: i1, dom: "1", cod: "1"}
    - {id: a, dom: "0", cod: "1"}
  identities: {"0": i0, "1": i1}
  compose:
    - {first: i0, then: i0, equals: i0}
    - {first: i1, then: i1, equals: i1}
    - {first: i0, then: a, equals: a}
    - {first: a, then: i1, equals: a}
algebra:
  constant: {preset: field}
bimodule: {preset: regular}
task:
  command: check-theorem-a
  caps: {p: 2, q: 2, n: 2}
"""


def test_parse_minimal():
    spec = parse(MINIMAL)
    assert spec.payload["field"] == {"kind": "prime-field", "characteristic": 2}
    assert spec.payload["task"]["command"] == "validate"


DANGLING = MINIMAL.replace("{preset: trivial}", """
  objects: [x]
  morphisms: [{id: ix, dom: x, cod: x}]
  identities: {x: ix}
  compose: [{first: ix, then: ghost, equals: ix}]
""")


def test_parse_reports_dangling_reference_with_id():
    with pytest.raises(InputError) as exc:
        parse(DANGLING)
    assert any("ghost" in e for e in exc.value.errors)


def test_parse_reports_yaml_position():
    with pytest.raises(InputError) as exc:
        parse("field: {kind: prime\ncategory: bad")
    assert any("line" in e for e in exc.value.errors)


def test_parse_unknown_preset():
    with pytest.raises(InputError) as exc:
        parse(MINIMAL.replace("trivial", "moebius"))
    assert any("moebius" in e for e in exc.value.errors)


def test_roundtrip_canonical_form():
    spec = parse(EXPLICIT_A2)
    once = emit(spec)
    twice = emit(parse(once))
    assert once == twice
    assert parse(once).payload == spec.payload


def test_run_validate_on_explicit_a2():
    doc, code = run(parse(EXPLICIT_A2), command="validate")
    assert code == 0
    assert doc["validation"]["ok"]


def test_run_check_theorem_a():
    doc, code = run(parse(EXPLICIT_A2))
    assert code == 0
    assert doc["checks"]["extension-algebra-axioms"]["ok"]
    assert doc["checks"]["composition-antihomomorphism"]["passed"]


def test_build_algebra_emits_dual_numbers():
    text = """
field: {kind: rationals}
category: {preset: trivial}
algebra:
  constant: {preset: field}
bimodule: {preset: regular}
task: {command: build-algebra}
"""
    doc, code = run(parse(text))
    assert code == 0
    alg = doc["algebra"]
    assert alg["dim"] == 2
    assert alg["unit"] == ["1", "0"]
    # nonzero products of k[e]/(e^2): 1*1=1, 1*e=e, e*1=e
    assert sorted(alg["products"]) == [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]]


def test_run_broken_category_exit_one():
    text = (PROBLEMS / "broken_category.yaml").read_text()
    doc, code = run(parse(text))
    assert code == 1
    assert not doc["validation"]["ok"]
    assert doc["validation"]["violations"][0]["witness"]


def test_run_corrupt_bimodule_exit_one():
    text = (PROBLEMS / "corrupt_bimodule.yaml").read_text()
    doc, code = run(parse(text))
    assert code == 1
    assert any(v["code"] == "bimodule" for v in doc["validation"]["violations"])


def test_run_lhs_report_zero_fibers():
    text = """
field: {kind: prime, characteristic: 2}
category: {preset: poset-a2}
algebra:
  constant: {preset: field}
right_module: {preset: zero}
modules:
  G: {over: gr-a, preset: constant}
  F: {over: gr-an, preset: constant}
task:
  command: lhs-report
  caps: {p: 2, q: 2, n: 2}
  weight: G
  coefficients: F
"""
    doc, code = run(parse(text))
    assert code == 0
    assert doc["report"]["verdicts"] == ["equal", "equal", "equal"]


def test_run_cohomology_routes_agree():
    doc, code = run(parse((PROBLEMS / "z2_cohomology.yaml").read_text()),
                    caps={"n": 3})
    assert code == 0
    assert doc["dims"] == [1, 1, 1, 1]
    assert doc["routes_agree"]


def test_run_ext_command():
    text = """
field: {kind: prime, characteristic: 2}
category: {preset: poset-a2}
modules:
  G: {over: base, preset: representable, at: "1"}
  F: {over: base, preset: constant}
task:
  command: ext
  caps: {n: 2}
  modules: [G, F]
"""
    doc, code = run(parse(text))
    assert code == 0
    assert doc["dims"][1:] == [0, 0]  # representable modules are projective


def test_run_missing_blocks_is_input_error():
    doc, code = run(parse(MINIMAL), command="check-extension")
    assert code == 2
    assert doc["input_errors"]


def test_rationals_rejected_for_constructions():
    text = """
field: {kind: rationals}
category: {preset: trivial}
algebra:
  constant: {preset: field}
right_module: {preset: regular}
task: {command: check-extension}
"""
    doc, code = run(parse(text))
    assert code == 2


def test_render_structured_deterministic():
    spec = parse(EXPLICIT_A2)
    doc1, _ = run(spec)
    doc2, _ = run(parse(EXPLICIT_A2))
    assert render(doc1, "structured") == render(doc2, "structured")
    json.loads(render(doc1, "structured"))  # valid JSON


def test_render_table_mentions_verdicts():
    text = (PROBLEMS / "one_object_lhs.yaml").read_text()
    doc, code = run(parse(text))
    out = render(doc, "table")
    assert "verdicts:" in out and "equal" in out


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "catext.cli", *args],
                          capture_output=True, text=True)


def test_cli_exit_codes():
    ok = _cli("lhs-report", str(PROBLEMS / "one_object_lhs.yaml"))
    assert ok.returncode == 0
    bad = _cli("validate", str(PROBLEMS / "broken_category.yaml"))
    assert bad.returncode == 1
    missing = _cli("validate", str(PROBLEMS / "no_such_file.yaml"))
    assert missing.returncode == 2


def test_cli_non_utf8_file_is_an_input_error(tmp_path):
    """Undecodable bytes are an input error (exit 2), like a missing file,
    not a crash: exit 1 means a mathematical violation."""
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"category: {preset: trivial}\n\xff\n")
    res = _cli("validate", str(bad), "--format", "structured")
    assert res.returncode == 2
    assert res.stderr.startswith("input error: ") and "Traceback" not in res.stderr


def test_cli_structured_output_parses():
    res = _cli("check-extension", str(PROBLEMS / "lemma_fiber_extension.yaml"),
               "--format", "structured")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["extension"]["ok"]


def test_cli_seed_spot_checks():
    res = _cli("validate", str(PROBLEMS / "a2_skew.yaml"), "--seed", "7",
               "--format", "structured")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["spot_checks"]["failures"] == 0


def test_cli_caps_flags():
    res = _cli("lhs-report", str(PROBLEMS / "one_object_lhs.yaml"),
               "--cap-n", "1", "--format", "structured")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert len(doc["report"]["verdicts"]) == 2


@pytest.mark.parametrize("cap", ["p", "q", "n"])
def test_negative_cap_flags_exit_two(capsys, cap):
    code = cli.main(["lhs-report", str(PROBLEMS / "one_object_lhs.yaml"),
                     f"--cap-{cap}", "-1", "--format", "structured"])
    out = capsys.readouterr()
    assert code == 2
    assert json.loads(out.out)["input_errors"] == [
        f"task.caps.{cap}: need an integer >= 0, got -1"]
    assert "Traceback" not in out.err


def test_table_output_shows_spot_checks(capsys):
    problem = str(PROBLEMS / "a2_skew.yaml")
    assert cli.main(["validate", problem, "--seed", "3"]) == 0
    assert capsys.readouterr().out == ("command: validate\nvalidation: ok\n"
                                       "spot checks: seed 3, 25 rounds, 0 failures\n")
    assert cli.main(["validate", problem]) == 0
    assert capsys.readouterr().out == "command: validate\nvalidation: ok\n"


ZERO_ALGEBRA = """
field: {kind: prime, characteristic: 2}
category: {preset: trivial}
algebra:
  constant: {preset: explicit, dim: 0, tensor: [], unit: []}
bimodule: {preset: zero}
task: {command: validate}
"""


def test_explicit_zero_algebra_builds_and_validates(tmp_path, capsys):
    """The schema accepts dim 0; the zero algebra has no products."""
    problem = tmp_path / "zero.yaml"
    problem.write_text(ZERO_ALGEBRA)
    assert cli.main(["validate", str(problem), "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["validation"]["ok"]
    assert cli.main(["build-algebra", str(problem), "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["algebra"]["dim"] == 0 and doc["algebra"]["products"] == []
    assert doc["validation"]["ok"]


# -- the command table --------------------------------------------------------------

ALGEBRA_ONLY = MINIMAL.replace("task:", "algebra:\n  constant: {preset: field}\ntask:")


@pytest.mark.parametrize("text,command,message", [
    (MINIMAL, "build-algebra", "build-algebra: needs an algebra block"),
    (MINIMAL, "check-theorem-a", "check-theorem-a: needs algebra and bimodule blocks"),
    (ALGEBRA_ONLY, "check-theorem-a", "check-theorem-a: needs algebra and bimodule blocks"),
    (MINIMAL, "check-extension", "check-extension: needs algebra and right_module blocks"),
    (ALGEBRA_ONLY, "check-extension",
     "check-extension: needs algebra and right_module blocks"),
    (MINIMAL, "lhs-report", "lhs-report: needs algebra and right_module blocks"),
    (ALGEBRA_ONLY, "lhs-report", "lhs-report: needs algebra and right_module blocks"),
    (MINIMAL, "prove", "task.command: unhandled command 'prove'"),
])
def test_missing_blocks_are_named(text, command, message):
    doc, code = run(parse(text), command=command)
    assert code == 2
    assert doc["input_errors"] == [message]


# -- one problem context --------------------------------------------------------

@pytest.fixture
def gr_builds(monkeypatch):
    """Counts Grothendieck, category algebra and fiber extension builds,
    wrapping each construction under every catext module global that holds it."""
    counts = Counter()
    for module, name in ((constructions, "gr_algebra"), (constructions, "gr_right_module"),
                         (constructions, "gr_bimodule"), (constructions, "skew_algebra"),
                         (constructions, "extension_algebra"), (extcheck, "fiber_extension")):
        orig = getattr(module, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("catext") and mod is not None:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        monkeypatch.setattr(mod, attr, counted)
    return counts


EXT_OVER_GR_AN = """
field: {kind: prime, characteristic: 2}
category: {preset: trivial}
algebra:
  constant: {preset: field}
right_module: {preset: regular}
modules:
  F: {over: gr-an, preset: constant}
task:
  command: ext
  caps: {n: 2}
  modules: [F, F]
"""
ALL_THREE = {"gr_algebra": 1, "gr_right_module": 1, "fiber_extension": 1}
ZERO_THEOREM_A = """
field: {kind: prime, characteristic: 2}
category: {preset: trivial}
algebra:
  constant: {preset: field}
bimodule: {preset: zero}
task: {command: check-theorem-a}
"""


_JOBS = [
    ("one_object_lhs", "lhs-report", ALL_THREE),  # named weight and coefficient modules
    ("lemma_fiber_extension", "lhs-report", ALL_THREE),  # default constant modules
    ("one_object_lhs", "check-extension", ALL_THREE),  # modules validated, then the extension
    ("lemma_fiber_extension", "check-extension", ALL_THREE),
    # modules over gr-a and gr-an: Gr(A) and Gr(A, N), but no extension
    ("one_object_lhs", "validate", {"gr_algebra": 1, "gr_right_module": 1}),
    ("ext_over_gr_an", "ext", {"gr_right_module": 1}),  # modules over gr-an only: Gr(A, N) alone
    # the three checks of theorem A share the A |x M kept on the bimodule system
    ("dual_numbers_degeneration", "check-theorem-a", {"extension_algebra": 1, "gr_bimodule": 1}),
    ("dual_numbers_degeneration", "build-algebra", {"extension_algebra": 1}),
    ("a2_skew", "build-algebra", {"skew_algebra": 1}),
    ("zero_theorem_a", "check-theorem-a",
     {"extension_algebra": 1, "skew_algebra": 1, "gr_bimodule": 1}),
]
_INLINE = {"ext_over_gr_an": EXT_OVER_GR_AN, "zero_theorem_a": ZERO_THEOREM_A}


@pytest.mark.parametrize("problem,command,builds", _JOBS, ids=[f"{p}-{c}" for p, c, _ in _JOBS])
def test_each_job_builds_gr_once(gr_builds, problem, command, builds):
    text = _INLINE.get(problem) or (PROBLEMS / f"{problem}.yaml").read_text()
    doc, code = run(parse(text), command=command)
    assert code == 0, doc
    assert gr_builds == builds


def test_gr_an_modules_live_over_the_extension_total(gr_builds):
    """A validate job reads the named modules over the categories kept on
    the systems: Gr(A) on the precosheaf, Gr(A, N) on the right-module
    system, which the extension takes as its total."""
    built = cliio.build(parse((PROBLEMS / "one_object_lhs.yaml").read_text()))
    assert {b["over"] for b in built.modules.values()} == {"gr-a", "gr-an"}
    assert cliio._validate_all(built).ok
    assert built.module("G").cat is built.precosheaf.gr
    assert built.module("F").cat is built.right_module.gr
    assert built.module("F").cat is built.right_module.extension.total
    assert built.right_module.extension.base is built.precosheaf.gr
    assert gr_builds == {"gr_algebra": 1, "gr_right_module": 1, "fiber_extension": 1}


EXPLICIT_RIGHT_LHS = """
field: {kind: prime, characteristic: 2}
category: {preset: one-object-group, order: 2}
algebra:
  constant: {preset: group-algebra, orders: [2]}
right_module:
  at:
    "*": {dim: 2, right: [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}
  maps: {t1: [[1, 0], [0, 1]]}
modules:
  G: {over: gr-a, preset: constant}
  F: {over: gr-an, preset: constant}
task:
  command: lhs-report
  caps: {p: 1, q: 1, n: 1}
  weight: G
  coefficients: F
"""


def test_lhs_report_builds_no_free_module(monkeypatch):
    """Resolutions act on their stages through the structure constants; with
    an explicit right module (a regular preset builds its system with
    free_module) an lhs-report job builds no free module at all.  The base
    is one object with two morphisms, so the constant weight is no
    projective and its resolutions have kernel stages."""
    calls, ranks = [], []

    def counted(*args, _orig=fdalgebra.free_module, **kwargs):
        calls.append(args)
        return _orig(*args, **kwargs)

    def resolved(*args, _orig=homengine.free_resolution, **kwargs):
        res = _orig(*args, **kwargs)
        ranks.append(res.ranks)
        return res
    for orig, wrapped in ((fdalgebra.free_module, counted),
                          (homengine.free_resolution, resolved)):
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("catext") and mod is not None:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        monkeypatch.setattr(mod, attr, wrapped)
    doc, code = run(parse(EXPLICIT_RIGHT_LHS))
    assert code == 0, doc
    assert any(r[1:] and r[1] for r in ranks)  # some resolution has a kernel stage
    assert calls == []


@pytest.mark.parametrize("problem,command,objects", [
    ("one_object_lhs", "lhs-report", 1),            # right_module block
    ("lemma_fiber_extension", "check-extension", 2),
    ("dual_numbers_degeneration", None, 1),         # bimodule block
    ("corrupt_bimodule", None, 1),                  # broken bimodule, valid precosheaf
])
def test_each_job_checks_its_precosheaf_once(monkeypatch, problem, command, objects):
    """The precosheaf check validates one algebra per object of the category."""
    calls = []
    orig = coeffsys.validate_algebra

    def counted(a):
        calls.append(a)
        return orig(a)
    monkeypatch.setattr(coeffsys, "validate_algebra", counted)
    run(parse((PROBLEMS / f"{problem}.yaml").read_text()), command=command)
    assert len(calls) == objects


# -- word-size coefficient primes -----------------------------------------------

PT_F5_LHS = """
field: {kind: prime, characteristic: 5}
coefficient_field: {kind: prime, characteristic: %d}
category: {preset: trivial}
algebra:
  constant: {preset: field}
right_module: {preset: regular}
modules:
  G: {over: gr-a, preset: constant}
  F: {over: gr-an, preset: constant}
task:
  command: lhs-report
  caps: {p: 2, q: 4, n: 2}
  weight: G
  coefficients: F
"""


def test_word_size_coefficient_prime_matches_small_prime():
    """Fibers of order 5: every prime coprime to 5 gives the same cohomology,
    so F_(2^31 - 1) must report exactly what F_7 reports."""
    reports = []
    for p in (2**31 - 1, 7):
        doc, code = run(parse(PT_F5_LHS % p))
        assert code == 0, doc
        reports.append(doc["report"])
    assert reports[0] == reports[1]
    assert set(reports[0]["e2"].values()) == {0, 1}


# -- malformed scalars and blocks -------------------------------------------------

MALFORMED_EDITS = [
    (("{preset: trivial}", "{preset: discrete, count: abc}"), "category.count"),
    (("{preset: trivial}", "{preset: discrete, count: -1}"), "category.count"),
    (("{preset: trivial}", "{preset: cyclic-monoid, size: 0}"), "category.size"),
    (("{preset: trivial}", "{preset: cyclic-monoid, size: 2, loop: 2}"), "category.loop"),
    (("{command: validate}", "{command: validate, caps: {p: x}}"), "task.caps.p"),
    (("task:", "algebra: {at: [1, 2]}\ntask:"), "algebra.at"),
    (("{preset: trivial}", "5"), "category"),
    (("{kind: prime, characteristic: 2}", "[prime, 2]"), "field"),
    (("task:", "modules: {F: {preset: explicit, dims: {'*': x}}}\ntask:"), "modules.F.dims.*"),
]


@pytest.mark.parametrize("edit,path", MALFORMED_EDITS)
def test_malformed_scalars_and_blocks_exit_two(tmp_path, capsys, edit, path):
    problem = tmp_path / "problem.yaml"
    problem.write_text(MINIMAL.replace(*edit))
    assert cli.main(["validate", str(problem), "--format", "structured"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert any(e.startswith(path + ":") for e in doc["input_errors"]), doc


A2_MODULE = "modules: {F: {preset: explicit, dims: {'0': 1, '1': 1}, mats: %s}}\ntask:"


@pytest.mark.parametrize("text,edit,errors", [
    (EXPLICIT_A2, ("n: 2}", "n: 1.9}"), ["task.caps.n: need an integer >= 0, got 1.9"]),
    (EXPLICIT_A2, ("q: 2,", "q: true,"), ["task.caps.q: need an integer >= 0, got True"]),
    (MINIMAL, ("{preset: trivial}", "{preset: discrete, count: 2.5}"),
     ["category.count: need an integer >= 1, got 2.5"]),
    (EXPLICIT_A2, ("task:", A2_MODULE % "{i0: [[true]], i1: [[1]], a: [[false]]}"),
     ["modules.F.mats.i0: matrix entries must be integers, got True",
      "modules.F.mats.a: matrix entries must be integers, got False"]),
    (EXPLICIT_A2, ("{preset: field}", "{preset: group-algebra, orders: [true]}"),
     ["algebra.constant.orders: need positive integer orders"]),
    (EXPLICIT_A2, ("{preset: field}", "{preset: explicit, dim: true, tensor: [[[1]]], unit: [1]}"),
     ["algebra.constant.dim: need a nonnegative dimension"]),
    (EXPLICIT_A2, ("{preset: field}", "{preset: explicit, dim: 1, tensor: [[[1]]], unit: [true]}"),
     ["algebra.constant.unit: need an integer vector of length 1"]),
    (EXPLICIT_A2, ("n: 2}", "n: '3'}"), ["task.caps.n: need an integer >= 0, got '3'"]),
    (EXPLICIT_A2, ("q: 2,", "q: \"2.0\","), ["task.caps.q: need an integer >= 0, got '2.0'"]),
    (MINIMAL, ("{preset: trivial}", "{preset: discrete, count: '2'}"),
     ["category.count: need an integer >= 1, got '2'"]),
], ids=["caps-fraction", "caps-bool", "count-fraction", "mats-bool", "orders-bool", "dim-bool",
        "unit-bool", "caps-string", "caps-float-string", "count-string"])
def test_bool_or_fraction_is_no_integer(text, edit, errors):
    """int() reads True as 1, truncates 1.9 to 1 and reads the string '3' as
    3; the format reads none of them as an integer."""
    with pytest.raises(InputError) as exc:
        parse(text.replace(*edit))
    assert exc.value.errors == errors


def test_whole_float_is_an_integer():
    spec = parse(EXPLICIT_A2.replace("n: 2}", "n: 2.0}"))
    assert spec.payload["task"]["caps"]["n"] == 2


# -- libyaml and the pure-Python loader -------------------------------------------

# libyaml words each of these differently from the pure-Python loader, and
# fails on the lone surrogate with a UnicodeEncodeError
YAML_SYNTAX_ERRORS = ["field: {kind: prime\ncategory: bad", "a: [1, 2", "a: b: c",
                      "- a\nb: c", "a:\n\t- b", "a: &x 1\nb: *y", "a: @b", "\x00",
                      "a: \ud800"]


def _parse_outcome(text):
    try:
        return "spec", parse(text).payload
    except InputError as exc:
        return "errors", exc.errors


def test_libyaml_parse_matches_safe_loader(monkeypatch):
    texts = [path.read_text() for path in sorted(PROBLEMS.glob("*.yaml"))]
    texts += [MINIMAL, EXPLICIT_A2, PT_F5_LHS % 7, DANGLING,
              MINIMAL.replace("trivial", "moebius")]
    texts += [MINIMAL.replace(*edit) for edit, _ in MALFORMED_EDITS] + YAML_SYNTAX_ERRORS
    with_libyaml = [_parse_outcome(t) for t in texts]
    monkeypatch.setattr(yaml, "__with_libyaml__", False)
    assert [_parse_outcome(t) for t in texts] == with_libyaml


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_parse_loads_through_libyaml(monkeypatch):
    loaded = []

    class Recording(yaml.CSafeLoader):
        def __init__(self, stream):
            loaded.append(stream)
            super().__init__(stream)
    monkeypatch.setattr(yaml, "CSafeLoader", Recording)
    parse(MINIMAL)
    assert loaded == [MINIMAL]


# -- field characteristics ----------------------------------------------------------

@pytest.mark.parametrize("edit,path", [
    (("characteristic: 2}", "characteristic: 4}"), "field.characteristic"),
    (("task:", "coefficient_field: {kind: prime, characteristic: 9}\ntask:"),
     "coefficient_field.characteristic"),
    (("characteristic: 2}", "characteristic: 2147483659}"), "field.characteristic"),
])
def test_non_prime_or_too_large_characteristic_exits_two(tmp_path, capsys, edit, path):
    """FieldSpec's own rule (a prime below 2^31) is an input error, not a crash."""
    problem = tmp_path / "problem.yaml"
    problem.write_text(MINIMAL.replace(*edit))
    assert cli.main(["validate", str(problem), "--format", "structured"]) == 2
    out = capsys.readouterr()
    errors = json.loads(out.out)["input_errors"]
    assert len(errors) == 1 and errors[0].startswith(path + ": "), errors
    assert "Traceback" not in out.err


def test_seeded_validate_builds_once(monkeypatch, capsys):
    builds = []
    orig = cliio.build

    def counted(spec):
        builds.append(spec)
        return orig(spec)
    monkeypatch.setattr(cliio, "build", counted)
    assert cli.main(["validate", str(PROBLEMS / "a2_skew.yaml"), "--seed", "3"]) == 0
    assert "spot checks: seed 3, 25 rounds, 0 failures" in capsys.readouterr().out
    assert len(builds) == 1


# -- names and morphism references ------------------------------------------------

NAMED_POINT = """
field: {kind: prime, characteristic: 2}
category:
  objects: [x]
  morphisms: [{id: ix, dom: x, cod: x}]
  identities: {x: ix}
  compose: [{first: ix, then: ix, equals: ix}]
algebra:
  constant: {preset: field}
bimodule:
  at:
    x: {dim: 1, left: [[[1]]], right: [[[1]]]}
  maps: {ix: [[1]]}
right_module:
  at:
    x: {dim: 1, right: [[[1]]]}
  maps: {ix: [[1]]}
modules:
  G: {over: gr-a, preset: constant}
  F: {over: gr-an, preset: constant}
  E: {preset: explicit, dims: {x: 1}, mats: {ix: [[1]]}}
task:
  command: lhs-report
  caps: {p: 1, q: 1, n: 1}
  module: E
  modules: [E, E]
  weight: G
  coefficients: F
"""


def _run_main(tmp_path, capsys, text, command):
    problem = tmp_path / "problem.yaml"
    problem.write_text(text)
    code = cli.main([command, str(problem), "--format", "structured"])
    out = capsys.readouterr()
    assert "Traceback" not in out.err
    return code, json.loads(out.out)


KLEIN_FIBER_LHS = """
field: {kind: prime, characteristic: 2}
category: {preset: trivial}
algebra:
  constant: {preset: field-product, count: 2}
right_module: {preset: regular}
task:
  command: lhs-report
  caps: {p: 2, q: 2, n: 2}
"""


@pytest.mark.parametrize("text,command,limit,rows,cols", [
    # the nerve of B(Z/2) up to degree 4: d[3] is 16 x 8
    ((PROBLEMS / "z2_cohomology.yaml").read_text(), "cohomology", 100, 16, 8),
    # bar cochains of the (Z/2)^2 fiber: the constant weight reads H^0 only,
    # so d[0], 3 x 1, is the one differential built
    (KLEIN_FIBER_LHS, "lhs-report", 2, 3, 1),
], ids=["nerve", "bar"])
def test_cochain_differential_past_the_limit_exits_two(tmp_path, capsys, monkeypatch,
                                                       text, command, limit, rows, cols):
    """With the limit lowered below a differential the job builds, that
    differential is reported with its size and the limit."""
    monkeypatch.setattr(homengine, "CELL_LIMIT", limit)
    code, doc = _run_main(tmp_path, capsys, text, command)
    assert code == 2
    assert doc["input_errors"] == [f"cochain differential of {rows} x {cols} = "
                                   f"{rows * cols} entries exceeds desk-scale limit {limit}"]


def test_constant_weight_builds_no_fiber_differential_past_degree_zero(tmp_path, capsys,
                                                                       monkeypatch):
    """The (Z/2)^2 fiber's d[2] is 27 x 9, past a limit of 100 entries; the
    constant weight reads no row q > 0, so the job never builds it and
    writes the document of an unlimited run."""
    code, unlimited = _run_main(tmp_path, capsys, KLEIN_FIBER_LHS, "lhs-report")
    monkeypatch.setattr(homengine, "CELL_LIMIT", 100)
    assert _run_main(tmp_path, capsys, KLEIN_FIBER_LHS, "lhs-report") == (code, unlimited)
    assert code == 0 and "input_errors" not in unlimited


def test_cohomology_past_the_nerve_limit_builds_no_resolution(tmp_path, capsys, monkeypatch):
    """The nerve route runs first, so a job its limits refuse exits 2 before
    the resolution route starts."""
    calls = []
    resolve = homengine.free_resolution
    monkeypatch.setattr(homengine, "free_resolution",
                        lambda *args: calls.append(args) or resolve(*args))
    text = (PROBLEMS / "z2_cohomology.yaml").read_text().replace("order: 2", "order: 40")
    code, doc = _run_main(tmp_path, capsys, text, "cohomology")
    assert code == 2
    assert doc["input_errors"] == [
        "nerve enumeration of 2560000 chains exceeds desk-scale limit 500000"]
    assert calls == []
    code, doc = _run_main(tmp_path, capsys, (PROBLEMS / "z2_cohomology.yaml").read_text(),
                          "cohomology")
    assert code == 0 and len(calls) == 1


@pytest.mark.parametrize("command", ["validate", "cohomology", "ext", "lhs-report"])
def test_named_point_runs_clean(tmp_path, capsys, command):
    code, doc = _run_main(tmp_path, capsys, NAMED_POINT, command)
    assert code == 0 and "input_errors" not in doc, doc


@pytest.mark.parametrize("command,edit,path", [
    ("validate", ("objects: [x]", "objects: [[x], y]"), "category.objects[0]"),
    ("validate", ("[{id: ix, dom", "[{id: [ix], dom"), "category.morphisms[0].id"),
    ("cohomology", ("module: E", "module: [E]"), "task.module"),
    ("lhs-report", ("weight: G", "weight: [G]"), "task.weight"),
    ("lhs-report", ("coefficients: F", "coefficients: [F]"), "task.coefficients"),
    ("ext", ("modules: [E, E]", "modules: [[E], E]"), "task.modules[0]"),
])
def test_non_scalar_name_exits_two(tmp_path, capsys, command, edit, path):
    """A list where a name belongs is an input error at its path, not a
    TypeError from hashing it."""
    code, doc = _run_main(tmp_path, capsys, NAMED_POINT.replace(*edit), command)
    assert code == 2
    assert any(e.startswith(path + ": need a scalar name") for e in doc["input_errors"]), doc


@pytest.mark.parametrize("command,edit,path", [
    ("validate", ("maps: {ix: [[1]]}\nright_module", "maps: {ix: [[1]], zz: [[5]]}\n"
                  "right_module"), "bimodule.maps.zz"),
    ("validate", ("maps: {ix: [[1]]}\nmodules", "maps: {ix: [[1]], zz: [[5]]}\nmodules"),
     "right_module.maps.zz"),
    ("cohomology", ("mats: {ix: [[1]]}", "mats: {ix: [[1]], zz: [[5]]}"), "modules.E.mats.zz"),
])
def test_map_of_no_morphism_exits_two(tmp_path, capsys, command, edit, path):
    """A maps or mats key that names no morphism is reported as algebra.maps
    reports it, not ignored."""
    text = NAMED_POINT.replace(*edit)
    assert text != NAMED_POINT
    code, doc = _run_main(tmp_path, capsys, text, command)
    assert code == 2
    assert doc["input_errors"] == [f"{path}: dangling morphism reference"]


@pytest.mark.parametrize("command,edit,path", [
    ("validate", ("constant: {preset: field}", "at: {x: {preset: field}, zz: {preset: field}}"),
     "algebra.at.zz"),
    ("validate", ("    x: {dim: 1, left: [[[1]]], right: [[[1]]]}\n",
                  "    x: {dim: 1, left: [[[1]]], right: [[[1]]]}\n"
                  "    zz: {dim: 1, left: [[[1]]], right: [[[1]]]}\n"), "bimodule.at.zz"),
    ("validate", ("    x: {dim: 1, right: [[[1]]]}\n",
                  "    x: {dim: 1, right: [[[1]]]}\n    yy: {dim: 1, right: [[[1]]]}\n"),
     "right_module.at.yy"),
    ("cohomology", ("dims: {x: 1}", "dims: {x: 1, zz: 4}"), "modules.E.dims.zz"),
])
def test_key_of_no_object_exits_two(tmp_path, capsys, command, edit, path):
    """An at or dims key that names no object is reported as a maps key
    that names no morphism is, not ignored."""
    text = NAMED_POINT.replace(*edit)
    assert text != NAMED_POINT
    code, doc = _run_main(tmp_path, capsys, text, command)
    assert code == 2
    assert doc["input_errors"] == [f"{path}: dangling object reference"]


EXPLICIT_Z2 = """
field: {kind: prime, characteristic: 2}
category:
  objects: [x]
  morphisms: [{id: e, dom: x, cod: x}, {id: t, dom: x, cod: x}]
  identities: {x: e}
  compose:
    - {first: e, then: e, equals: e}
    - {first: e, then: t, equals: t}
    - {first: t, then: e, equals: t}
    - {first: t, then: t, equals: e}
modules:
  F: {over: base, preset: constant}
task: {command: cohomology, caps: {n: 2}, module: F}
"""
_T_T = "    - {first: t, then: t, equals: e}\n"
_T_T_T = "    - {first: t, then: t, equals: t}\n"


@pytest.mark.parametrize("command", ["validate", "cohomology"])
@pytest.mark.parametrize("edit,line", [
    (("objects: [x]", "objects: [x, x]"), "category.objects[1]: duplicate object 'x'"),
    (("[{id: e, dom: x, cod: x}, ", "[{id: e, dom: x, cod: x}, {id: e, dom: x, cod: x}, "),
     "category.morphisms[1]: duplicate morphism id 'e'"),
    ((_T_T, _T_T + _T_T_T), "category.compose[4]: duplicate composite of 't' then 't'"),
    ((_T_T, _T_T_T + _T_T), "category.compose[4]: duplicate composite of 't' then 't'"),
], ids=["object", "morphism-id", "pair", "pair-swapped"])
def test_repeated_name_in_explicit_category_exits_two(tmp_path, capsys, command, edit, line):
    """A repeated object, morphism id or composition pair is an input error at
    its path: not a failed generator search later, and not a rule that
    silently wins over the other."""
    assert _run_main(tmp_path, capsys, EXPLICIT_Z2, command)[0] == 0
    text = EXPLICIT_Z2.replace(*edit)
    assert text != EXPLICIT_Z2
    code, doc = _run_main(tmp_path, capsys, text, command)
    assert code == 2
    assert doc["input_errors"] == [line]


STRAY_KEYS = [
    (NAMED_POINT + "colour: red\n", "colour: unknown key"),
    (NAMED_POINT.replace("characteristic: 2}", "characteristic: 2, size: 4}"),
     "field.size: unknown key"),
    (MINIMAL.replace("{preset: trivial}", "{preset: trivial, count: 3}"),
     "category.count: unknown key"),
    (NAMED_POINT.replace("  objects: [x]", "  name: pt\n  objects: [x]"),
     "category.name: unknown key"),
    (NAMED_POINT.replace("[{id: ix, dom: x, cod: x}]", "[{id: ix, dom: x, cod: x, label: one}]"),
     "category.morphisms[0].label: unknown key"),
    (NAMED_POINT.replace("[{first: ix, then: ix, equals: ix}]",
                         "[{first: ix, then: ix, equals: ix, order: 1}]"),
     "category.compose[0].order: unknown key"),
    (NAMED_POINT.replace("  constant: {preset: field}", "  constant: {preset: field}\n  name: k"),
     "algebra.name: unknown key"),
    (NAMED_POINT.replace("{preset: field}", "{preset: field, size: 2}"),
     "algebra.constant.size: unknown key"),
    (NAMED_POINT.replace("{dim: 1, left: [[[1]]], right: [[[1]]]}",
                         "{dim: 1, left: [[[1]]], right: [[[1]]], middle: []}"),
     "bimodule.at.x.middle: unknown key"),
    (NAMED_POINT.replace("mats: {ix: [[1]]}}", "mats: {ix: [[1]]}, at: x}"),
     "modules.E.at: unknown key"),
    (NAMED_POINT.replace("  module: E\n", "  module: E\n  kind: lhs\n"), "task.kind: unknown key"),
    (NAMED_POINT.replace("  module: E\n", "  module: E\n  category: gr-a\n"),
     "task.category: unknown key"),
    (NAMED_POINT.replace("{p: 1, q: 1, n: 1}", "{p: 1, q: 1, n: 1, r: 1}"),
     "task.caps.r: unknown key"),
]


@pytest.mark.parametrize("text,line", STRAY_KEYS, ids=[line for _, line in STRAY_KEYS])
def test_unknown_key_exits_two(tmp_path, capsys, text, line):
    """A key that the problem format does not list is an input error at its
    path, at every level of the format, not silently ignored."""
    assert text not in (NAMED_POINT, MINIMAL)
    code, doc = _run_main(tmp_path, capsys, text, "validate")
    assert code == 2
    assert doc["input_errors"] == [line]


Z2_COHOMOLOGY = (PROBLEMS / "z2_cohomology.yaml").read_text()
REPEATED_KEYS = [
    (Z2_COHOMOLOGY + "task: {command: validate}\n", "cohomology",
     "line 10, column 1: YAML syntax error: duplicate key 'task'"),
    (EXPLICIT_Z2.replace("caps: {n: 2}", "caps: {n: 3, n: 1}"), "cohomology",
     "line 14, column 42: YAML syntax error: duplicate key 'n'"),
    (EXPLICIT_Z2.replace("  F: {over: base, preset: constant}\n",
                         "  F: {over: base, preset: constant}\n" * 2),
     "validate", "line 14, column 3: YAML syntax error: duplicate key 'F'"),
]


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "python"])
@pytest.mark.parametrize("text,command,line", REPEATED_KEYS, ids=["task", "caps-n", "module"])
def test_repeated_key_exits_two(tmp_path, capsys, monkeypatch, libyaml, text, command, line):
    """A key given twice in one mapping is an input error at the repeat, not
    a last value that silently wins."""
    monkeypatch.setattr(yaml, "__with_libyaml__", libyaml and yaml.__with_libyaml__)
    code, doc = _run_main(tmp_path, capsys, text, command)
    assert code == 2
    assert doc["input_errors"] == [line]


MERGED_Z2 = """
field: &f {kind: prime, characteristic: 2}
coefficient_field: {<<: *f}
category: {preset: one-object-group, order: 2}
modules:
  F: &constant {over: base, preset: constant}
  G: {<<: *constant, preset: constant}
  H: {<<: [{preset: representable, at: "*"}, *constant], over: base}
task: {command: cohomology, caps: {n: 3}, module: F}
"""
PLAIN_Z2 = """
field: {kind: prime, characteristic: 2}
coefficient_field: {kind: prime, characteristic: 2}
category: {preset: one-object-group, order: 2}
modules:
  F: {over: base, preset: constant}
  G: {over: base, preset: constant}
  H: {over: base, preset: representable, at: "*"}
task: {command: cohomology, caps: {n: 3}, module: F}
"""


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "python"])
def test_merge_keys_parse_as_written_out(monkeypatch, libyaml):
    """`<<` merges are no repeats: a key a merge supplies may be overridden,
    and a merged document parses as the one with the keys written out."""
    monkeypatch.setattr(yaml, "__with_libyaml__", libyaml and yaml.__with_libyaml__)
    assert parse(MERGED_Z2).payload == parse(PLAIN_Z2).payload
    with pytest.raises(InputError) as exc:
        parse("base: &b {kind: prime, characteristic: 2}\nfield: {<<: *b}\n"
              "category: {preset: trivial}\n")
    assert exc.value.errors == ["base: unknown key"]


# -- preset sizes -----------------------------------------------------------------

_LIMIT = fincat.TABLE_LIMIT
_CATEGORY_TABLE = "a composition table"
_ALGEBRA_TENSOR = "a left regular representation (dim^3)"
# (path, table, preset block with %s for the parameter, its first value past
# the limit, the number of entries a value asks for)
PRESET_BOUNDS = [
    ("category", _CATEGORY_TABLE, "{preset: discrete, count: %s}", 1415, lambda n: n * n),
    ("category", _CATEGORY_TABLE, "{preset: cyclic-monoid, size: %s}", 1415, lambda n: n * n),
    ("category", _CATEGORY_TABLE, "{preset: one-object-group, order: %s}", 1415,
     lambda n: n * n),
    ("algebra.constant", _ALGEBRA_TENSOR, "{preset: group-algebra, orders: [%s]}", 126,
     lambda n: n ** 3),
    ("algebra.constant", _ALGEBRA_TENSOR, "{preset: upper-triangular, size: %s}", 16,
     lambda n: (n * (n + 1) // 2) ** 3),
    ("algebra.constant", _ALGEBRA_TENSOR, "{preset: field-product, count: %s}", 126,
     lambda n: n ** 3),
]


def _preset_document(path: str, block: str) -> str:
    if path == "category":
        return MINIMAL.replace("{preset: trivial}", block)
    return MINIMAL + f"algebra:\n  constant: {block}\n"


@pytest.mark.parametrize("path,table,block,first,size", PRESET_BOUNDS,
                         ids=[b.split(",")[0][9:] for _, _, b, _, _ in PRESET_BOUNDS])
@pytest.mark.parametrize("past", ["limit+1", "2^31+11"])
def test_preset_past_the_table_limit_exits_two(tmp_path, capsys, path, table, block, first,
                                               size, past):
    """A preset whose table would exceed the desk-scale limit is an input
    error, reported with the limit and the size asked for before anything is
    built; the largest value within the limit is accepted."""
    value = first if past == "limit+1" else 2**31 + 11
    assert size(first - 1) <= _LIMIT < size(first) <= size(value)
    parse(_preset_document(path, block % (first - 1)))
    code, doc = _run_main(tmp_path, capsys, _preset_document(path, block % value), "validate")
    assert code == 2
    assert doc["input_errors"] == [
        f"{path}: {table} of {size(value)} entries exceeds the limit of {_LIMIT}"]


def test_resolution_stage_past_the_limit_exits_two(tmp_path, capsys, monkeypatch):
    """With the limit lowered to 3 entries, the first stage of B(Z/2)'s
    resolution (a 1 x 2 cover, whose kernel has up to 2 x 2 entries) is
    reported with its size and the limit."""
    monkeypatch.setattr(homengine, "STAGE_LIMIT", 3)
    code, doc = _run_main(tmp_path, capsys, (PROBLEMS / "z2_cohomology.yaml").read_text(),
                          "cohomology")
    assert code == 2
    assert doc["input_errors"] == ["resolution stage of 2 x 2 = 4 entries exceeds "
                                   "desk-scale limit 3"]


def test_lhs_report_on_the_768_morphism_rung(monkeypatch):
    """BENCH_7's paper rung with the fiber algebra F2[(Z/2)^2]: Gr(A, N) has
    768 morphisms.  The constant weight is the projective P_{u_t} at A2's
    terminal object t, so every resolution stops at stage 0, and the
    structured document is the 243-morphism rung's."""
    resolved = []

    def resolve(algebra, *args, _orig=homengine.free_resolution):
        res = _orig(algebra, *args)
        resolved.append((algebra.dim, res.ranks))
        return res
    for mod in (homengine, lhsengine):
        monkeypatch.setattr(mod, "free_resolution", resolve)
    problem = json.loads((PROBLEMS.parent / "BENCH_7.json").read_text())["paper_rung"]["problem"]
    problem["field"]["characteristic"] = 2
    problem["algebra"]["constant"]["orders"] = [2, 2]
    doc, code = run(parse(yaml.safe_dump(problem)), command="lhs-report")
    assert code == 0
    out = render(doc, "structured").encode()
    assert hashlib.md5(out).hexdigest() == "84ca7df58f0019a6bb68d3573b605daf"
    assert 768 in [dim for dim, _ in resolved]
    assert all(ranks == [1] + [0] * (len(ranks) - 1) for _, ranks in resolved)
