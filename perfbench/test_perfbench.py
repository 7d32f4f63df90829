"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

cliio = worker.import_catext()


def desk_jobs(seed=3, count=12):
    return jobs.job_list("desk_batch", seed)[:count]


def test_same_seed_same_job_list():
    for workload in jobs.WORKLOADS:
        first = [(e["id"], text) for e, text in jobs.job_list(workload, 7)]
        again = [(e["id"], text) for e, text in jobs.job_list(workload, 7)]
        other = [(e["id"], text) for e, text in jobs.job_list(workload, 8)]
        assert first == again
        assert first != other


def test_seed_keeps_the_work_per_slot():
    """Seeds change texts and order, never the set of slots in a pass."""
    for workload in jobs.WORKLOADS:
        slots = [sorted(e["slot"] for e, _ in jobs.job_list(workload, s)) for s in (1, 2, 3)]
        assert slots[0] == slots[1] == slots[2]


def test_known_defects_stay_out_of_the_timed_list():
    for workload in jobs.WORKLOADS:
        timed = {e["id"] for e, _ in jobs.job_list(workload, 1)}
        probed = {e["id"] for e, _ in jobs.probe_list(workload)}
        assert not timed & probed
    assert jobs.probe_list("fiber_bar"), "the word-size-prime defect must be probed"


def test_generated_texts_give_the_expected_documents():
    for entry, text in desk_jobs(seed=11, count=40):
        code, out = worker.run_job(cliio, entry["command"], text)
        assert worker.check(entry, (code, out, None)) is None, (entry["id"], text)


def test_checker_flags_a_perturbed_document():
    entry, text = next((e, t) for e, t in desk_jobs(count=200) if e["exit"] == 0)
    code, out = worker.run_job(cliio, entry["command"], text)
    assert worker.check(entry, (code, out, None)) is None
    doc = json.loads(out)
    doc["command"] = doc["command"] + "x"
    bad = worker.canonical(doc)
    assert "document differs at command" in worker.check(entry, (code, bad, None))
    assert "exit code" in worker.check(entry, (code + 1, out, None))
    assert worker.check(entry, (code, out.replace("\n", " "), None)) is not None


def test_a_raising_job_fails_without_ending_the_run(monkeypatch):
    # jobs that parse, so that every one of them reaches cliio.run
    job_list = [j for j in desk_jobs(count=40) if j[0]["exit"] != 2][:8]
    victim = job_list[4][0]["id"]
    real_run = cliio.run
    calls = []

    def flaky(spec, command=None, caps=None):
        calls.append(command)
        if len(calls) == 5:
            raise RuntimeError("boom")
        return real_run(spec, command=command, caps=caps)
    monkeypatch.setattr(cliio, "run", flaky)
    account = worker.Account()
    wall, times, results = worker.run_pass(cliio, job_list)
    account.add(job_list, results)
    assert len(times) == len(job_list) and wall > 0
    assert account.attempted == len(job_list)
    assert account.failed == 1
    assert account.reasons == {victim: "raised RuntimeError: boom"}


def test_tail_has_ten_samples_above():
    value, pct, n = worker.tail([float(i) for i in range(100)])
    assert (value, n) == (89.0, 100)
    assert sum(1 for i in range(100) if i > value) == 10
    assert pct == 90.0
    assert worker.tail([1.0, 2.0])[0] == 1.0


def test_tracer_restores_and_counts_repeat():
    from catext import exactlin, homengine, lhsengine
    from layertrace import Tracer
    originals = (homengine.free_resolution, lhsengine.free_resolution,
                 exactlin.Echelon.add, exactlin.FieldSpec.matmul)
    job_list = [j for j in jobs.job_list("desk_batch", 5)
                if j[0]["command"] in ("lhs-report", "cohomology")][:6]
    tracer = Tracer()
    runs = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        assert lhsengine.free_resolution is homengine.free_resolution
        assert lhsengine.free_resolution is not originals[0]
        try:
            wall, _, results = worker.run_pass(cliio, job_list, tracer)
        finally:
            tracer.uninstall()
        assert all(worker.check(e, r) is None for (e, _), r in zip(job_list, results))
        summary = tracer.summary()
        runs.append(({k: v for k, v in summary.items() if not k.endswith("self_s")},
                     json.loads(json.dumps(tracer.jobs))))
        self_total = sum(v for k, v in summary.items() if k.endswith("self_s"))
        assert 0 < self_total <= wall
        assert not tracer.stack
    assert runs[0] == runs[1]
    assert runs[0][0]["homengine.resolution.betti_sum"] > 0
    assert (homengine.free_resolution, lhsengine.free_resolution,
            exactlin.Echelon.add, exactlin.FieldSpec.matmul) == originals


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_explicit_category_matches_its_preset():
    rng = random.Random(0)
    for block in ({"preset": "poset-a2"}, {"preset": "cyclic-monoid", "size": 4, "loop": 2},
                  {"preset": "discrete", "count": 3}, {"preset": "one-object-group",
                                                       "order": 3}):
        explicit = jobs._explicit_category(block, rng)
        a = cliio._build_category(block)
        b = cliio._build_category(cliio.parse(jobs.render(
            {"field": {"kind": "prime", "characteristic": 2}, "category": explicit},
            rng, shuffle=True, label="t")).payload["category"])
        obj = dict(zip(a.objects, b.objects))
        rename = dict(zip(a.mor, b.mor))
        assert {rename[f]: (obj[d], obj[c]) for f, (d, c) in a.mor.items()} == b.mor
        assert {obj[x]: rename[f] for x, f in a.identity.items()} == b.identity
        assert {(rename[f], rename[g]): rename[h] for (f, g), h in a.compose.items()} \
            == b.compose


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
