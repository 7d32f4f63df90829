"""Run one workload in this (fresh) interpreter and print its figures.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Each job goes the way a user's does: YAML text -> cliio.parse -> cliio.run ->
cliio.render(..., "structured"), one job after another in this process (a
closed loop with one client).  A pass runs the whole seeded job list; a run
makes as many passes as fit in --seconds at the seed commit's speed.  Every
output is checked against the catalog after its pass, outside the timed
region.  A job that raises is counted as failed and the run goes on.

With --trace 0 the figures are the end-to-end ones.  With --trace 1 untraced
and traced passes alternate; the traced ones give per-layer self times and
counters, and their difference gives the tracing overhead.  With --probe the
known-defect jobs of the catalog run once after timing, untraced, and are
reported by name.

The last line of stdout is one JSON object for run.py.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

import jobs as joblib
from layertrace import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Seconds one pass takes at the seed commit on a two-core Intel Xeon virtual
# machine with Python 3.11.  A run makes --seconds / REFERENCE_PASS_S passes,
# rounded to an odd number, so every run of a workload times the same number
# of passes and job samples, however fast the code or the machine happens to be.
REFERENCE_PASS_S = {"desk_batch": 1.0, "gr_ladder": 8.0, "fiber_bar": 10.5}


def import_catext():
    """catext from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from catext import cliio
    if not Path(cliio.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"catext imported from {cliio.__file__}, not from {src}")
    return cliio


def run_job(cliio, command: str, text: str) -> tuple:
    """(exit code, rendered structured document), as the CLI produces them."""
    try:
        spec = cliio.parse(text)
    except cliio.InputError as exc:
        doc, code = {"command": command, "input_errors": exc.errors}, 2
    else:
        doc, code = cliio.run(spec, command=command)
    return code, cliio.render(doc, "structured")


def canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def differences(got, want, path: str = "") -> list:
    """Every leaf where got and want differ, as "path: got != want"."""
    if isinstance(got, dict) and isinstance(want, dict):
        out = []
        for key in sorted(set(got) | set(want)):
            if key not in got:
                out.append(f"{path}{key}: missing")
            elif key not in want:
                out.append(f"{path}{key}: unexpected")
            elif got[key] != want[key]:
                out += differences(got[key], want[key], f"{path}{key}.")
        return out
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        return [d for i, (g, w) in enumerate(zip(got, want)) if g != w
                for d in differences(g, w, f"{path}{i}.")]
    return [f"{path.rstrip('.')}: {json.dumps(got)} != {json.dumps(want)}"]


def check(entry: dict, result: tuple) -> str | None:
    """None if the job produced its expected exit code and document, else why not."""
    code, out, error = result
    if error is not None:
        return f"raised {error}"
    if code != entry["exit"]:
        return f"exit code {code}, expected {entry['exit']}"
    if out == canonical(entry["expect"]):
        return None
    try:
        got = json.loads(out)
    except ValueError:
        return "output is not JSON"
    diffs = differences(got, entry["expect"])
    more = f" (+{len(diffs) - 4} more)" if len(diffs) > 4 else ""
    return "document differs at " + "; ".join(diffs[:4]) + more


def run_pass(cliio, jobs: list, tracer=None) -> tuple:
    """Run the job list once; returns (wall seconds, per-job seconds, results)."""
    times, results = [], []
    start = perf_counter()
    for entry, text in jobs:
        if tracer is not None:
            tracer.begin_job(entry["id"])
        t0 = perf_counter()
        try:
            code, out = run_job(cliio, entry["command"], text)
            result = (code, out, None)
        except Exception as exc:  # a failing job must not end the run
            result = (None, None, f"{type(exc).__name__}: {exc}")
        times.append(perf_counter() - t0)
        if tracer is not None:
            tracer.end_job()
        results.append(result)
    return perf_counter() - start, times, results


def tail(samples: list) -> tuple:
    """Value at the highest percentile with at least ten samples above it:
    (value, percentile, sample count), or the maximum when there are <= 10."""
    xs = sorted(samples)
    n = len(xs)
    i = max(0, n - 11)
    return xs[i], 100.0 * (i + 1) / n, n


class Account:
    """Attempted and failed jobs, with the reason of each distinct failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: dict = {}

    def add(self, jobs: list, results: list) -> None:
        for (entry, _), result in zip(jobs, results):
            self.attempted += 1
            why = check(entry, result)
            if why is not None:
                self.failed += 1
                self.reasons.setdefault(entry["id"], why)


def timed_loop(cliio, jobs: list, passes: int, account: Account,
               tracer=None) -> dict:
    """Run the job list `passes` times, checking every output after its pass.
    With a tracer, the first pass warms up and traced and untraced passes
    alternate after it, at least one of each."""
    plain, traced, job_times, layer_runs = [], [], {}, []
    total = max(passes, 3) if tracer is not None else passes
    for i in range(total):
        if tracer is not None and i % 2 == 0 and i > 0:
            tracer.reset()
            tracer.install()
            try:
                wall, times, results = run_pass(cliio, jobs, tracer)
            finally:
                tracer.uninstall()
            traced.append(wall)
            layer_runs.append((tracer.summary(), json.loads(json.dumps(tracer.jobs))))
        else:
            wall, times, results = run_pass(cliio, jobs)
            plain.append(wall)
            for (entry, _), t in zip(jobs, times):
                job_times.setdefault(entry["id"], []).append(t)
        account.add(jobs, results)
    return {"plain": plain, "traced": traced, "job_times": job_times,
            "layer_runs": layer_runs}


def probe(cliio, workload: str) -> list:
    """Run and check the catalog's known-defect jobs once, untimed."""
    probe_jobs = joblib.probe_list(workload)
    _, times, results = run_pass(cliio, probe_jobs)
    out = []
    for (entry, _), t, result in zip(probe_jobs, times, results):
        why = check(entry, result)
        out.append({"id": entry["id"], "defect": entry["known_defect"],
                    "status": "fails" if why else "passes", "why": why,
                    "seconds": round(t, 3)})
    return out


def end_to_end(loop: dict) -> dict:
    samples = [t for ts in loop["job_times"].values() for t in ts]
    value, pct, n = tail(samples)
    return {"metrics": {
                "batch_s": statistics.median(loop["plain"]),
                "job_s.p50": statistics.median(samples),
                "job_s.tail": value,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0},
            "detail": {"passes": len(loop["plain"]), "pass_s": loop["plain"],
                       "tail_percentile": round(pct, 2), "job_samples": n}}


def per_layer(loop: dict, jobs: list) -> dict:
    summaries = [s for s, _ in loop["layer_runs"]]
    first, sizes = loop["layer_runs"][0]
    metrics = {}
    for name, value in first.items():
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(s[name] for s in summaries)
        else:
            metrics[name] = value
    batch = statistics.median(loop["plain"][1:])
    metrics["trace.batch_s"] = statistics.median(loop["traced"])
    metrics["trace.overhead_s"] = metrics["trace.batch_s"] - batch
    counts_repeat = all({k: v for k, v in s.items() if not k.endswith("self_s")}
                        == {k: v for k, v in first.items() if not k.endswith("self_s")}
                        for s in summaries)
    per_job = [dict(id=e["id"], s=statistics.median(loop["job_times"][e["id"]]),
                    **sizes.get(e["id"], {})) for e, _ in jobs]
    fingerprint = hashlib.sha256(json.dumps(
        sorted((j["id"], {k: v for k, v in j.items() if k not in ("id", "s")})
               for j in per_job), sort_keys=True).encode()).hexdigest()[:16]
    return {"metrics": metrics,
            "detail": {"untraced_pass_s": loop["plain"][1:], "warmup_pass_s": loop["plain"][0],
                       "traced_pass_s": loop["traced"],
                       "counts_repeat": counts_repeat, "work_fingerprint": fingerprint,
                       "per_job": per_job}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--probe", action="store_true",
                    help="also check the catalog's known-defect jobs after timing")
    args = ap.parse_args(argv)

    cliio = import_catext()
    jobs = joblib.job_list(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    account = Account()
    passes = max(1, round(args.seconds / REFERENCE_PASS_S[args.workload]))
    passes -= 1 - passes % 2  # odd, see the job lists in make_catalog.py
    if args.trace:
        loop = timed_loop(cliio, jobs, passes, account, Tracer())
        result = per_layer(loop, jobs)
    else:
        loop = timed_loop(cliio, jobs, passes, account)
        result = end_to_end(loop)
    result.update(ready=ready, workload=args.workload, seed=args.seed,
                  jobs_per_pass=len(jobs), attempted=account.attempted,
                  failed=account.failed, failures=account.reasons,
                  probe=probe(cliio, args.workload) if args.probe else [])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
