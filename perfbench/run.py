"""catext benchmark: one workload per fresh process, end to end or traced.

    python3 perfbench/run.py --workload desk_batch|gr_ladder|fiber_bar|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up is timed by starting fresh
interpreters that import catext and generate the seeded job list, several
times, and taking the median.  The workload itself then runs in one more
fresh interpreter (worker.py), so its peak RSS is its own.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones (BENCHMARK.json "end_to_end"), with
--trace 1 the per-layer ones.  ``--workload all`` runs every workload and
prefixes each metric with its workload.  Traced runs and ``all`` also check
the catalog's known-defect jobs and name each one that still fails.  Exits
non-zero, printing no result, when catext cannot be imported or a worker
fails.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("desk_batch", "gr_ladder", "fiber_bar")
SETUP_RUNS = 5
CHILD_TIMEOUT = 170

END_TO_END = {"batch_s": "s", "job_s.p50": "s", "job_s.tail": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
# (name, unit) of every per-layer metric; the same list as BENCHMARK.json
PER_LAYER = (
    ("cliio.parse.self_s", "s"), ("cliio.run.self_s", "s"), ("cliio.render.self_s", "s"),
    ("coeffsys.validate.self_s", "s"), ("coeffsys.validate.calls", "count"),
    ("constructions.gr.self_s", "s"), ("constructions.gr.calls", "count"),
    ("constructions.gr.morphisms", "count"), ("constructions.gr.compose_entries", "count"),
    ("constructions.algebra.self_s", "s"),
    ("extcheck.check_extension.self_s", "s"), ("extcheck.fiber_extension.calls", "count"),
    ("fincat.validate_category.self_s", "s"), ("fincat.validate_category.calls", "count"),
    ("fincat.validate_category.repeat_ratio", "ratio"),
    ("fincat.linearize.self_s", "s"), ("fincat.linearize.structure_mb", "MB"),
    ("fdalgebra.mult_matrix.self_s", "s"), ("fdalgebra.mult_matrix.calls", "count"),
    ("fdalgebra.free_module.self_s", "s"),
    ("homengine.free_resolution.self_s", "s"), ("homengine.module_generators.self_s", "s"),
    ("homengine.ext_dims_from_resolution.self_s", "s"),
    ("homengine.to_algebra_module.self_s", "s"),
    ("homengine.resolution.betti_sum", "count"),
    ("homengine.bar_cochain_complex.self_s", "s"), ("homengine.subquotient.self_s", "s"),
    ("homengine.nerve_cochain_complex.self_s", "s"),
    ("lhsengine.e2_page.self_s", "s"), ("lhsengine.local_system.self_s", "s"),
    ("lhsengine.abutment.self_s", "s"),
    ("exactlin.eliminate.self_s", "s"), ("exactlin.eliminate.calls", "count"),
    ("exactlin.eliminate.cells", "count"),
    ("exactlin.echelon.self_s", "s"), ("exactlin.echelon.accept_ratio", "ratio"),
    ("exactlin.matmul.object_path_calls", "count"),
    ("trace.batch_s", "s"), ("trace.overhead_s", "s"),
)


class WorkerFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("CATEXT_WORKERS", None)  # library default: no thread pool
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every run
    return env


def _worker(args: list, timeout: float) -> tuple:
    """Run worker.py; returns (monotonic time at spawn, parsed last line)."""
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER), *args], capture_output=True,
                          text=True, timeout=timeout, env=_child_env())
    if proc.returncode != 0:
        raise WorkerFailed(proc.stderr.strip().splitlines()[-1] if proc.stderr.strip()
                           else f"worker exited with {proc.returncode}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def setup_times(workload: str, seed: int, count: int) -> list:
    out = []
    for _ in range(count):
        spawned, res = _worker(["--workload", workload, "--seed", str(seed),
                                "--setup-only"], timeout=60)
        out.append(res["ready"] - spawned)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 probe: bool) -> dict:
    setups = [] if trace else setup_times(workload, seed, SETUP_RUNS - 1)
    spawned, res = _worker(["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", str(trace)]
                           + ["--probe"] * probe, timeout=CHILD_TIMEOUT)
    setups.append(res["ready"] - spawned)
    measured = dict(res["metrics"], setup_s=statistics.median(setups))
    units = dict(PER_LAYER) if trace else END_TO_END
    res["metrics"] = {name: {"value": measured[name], "unit": unit}
                      for name, unit in units.items()}
    return res


def report(res: dict, trace: int) -> None:
    """Human-readable lines for one workload."""
    d = res["detail"]
    print(f"== {res['workload']} seed {res['seed']}: {res['jobs_per_pass']} jobs per pass, "
          f"{res['failed']}/{res['attempted']} failed "
          f"(fail_frac {res['failed'] / res['attempted']:.4f})")
    for name, m in sorted(res["metrics"].items()):
        extra = ""
        if name == "job_s.tail":
            extra = (f"  (p{d['tail_percentile']} of {d['job_samples']} job samples, "
                     "10 above)")
        if name == "batch_s":
            extra = f"  (median of {d['passes']} passes)"
        print(f"   {name:42s} {m['value']:14.6g} {m['unit']}{extra}")
    if trace:
        print(f"   counts repeat across traced passes: {d['counts_repeat']}; "
              f"work fingerprint {d['work_fingerprint']}")
        for job in d["per_job"]:
            sizes = {k: v for k, v in job.items() if k not in ("id", "s")}
            print(f"   job {job['id']}: {job['s']:.4f} s {json.dumps(sizes)}")
    for job_id, why in sorted(res["failures"].items()):
        print(f"   FAILED {job_id}: {why}")
    for item in res["probe"]:
        print(f"   known defect {item['id']} {item['status']}: "
              f"{item['why'] or 'matches the cross-checked answer'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            # the known-defect probe costs 16 s on fiber_bar, so the plain
            # runs of one workload skip it
            probe = bool(args.trace) or args.workload == "all"
            res = run_workload(name, args.seed, args.seconds, args.trace, probe)
            report(res, args.trace)
            results.append(res)
    except (WorkerFailed, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
