#!/usr/bin/env python3
"""Run the 243-morphism paper rung through the CLI and print one JSON line.

The rung is the `A2 / k[Z/2] / F3` lhs-report recorded in BENCH_7.json
(Gr(A, N) of 243 morphisms).  It runs as `python3 -m catext.cli` in a child
process; the line gives the caps, the exit code, the wall time from spawn to
exit, the child's peak RSS (getrusage(RUSAGE_CHILDREN)) and the md5 of its
stdout.

Usage: python scripts/paper_rung.py [--caps P,Q,N]
"""
import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent


def _caps(text: str) -> dict:
    values = [int(v) for v in text.split(",")]
    if len(values) != 3 or min(values) < 0:
        raise argparse.ArgumentTypeError("need three non-negative integers P,Q,N")
    return dict(zip("pqn", values))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--caps", type=_caps, default=_caps("1,1,1"), help="P,Q,N")
    args = ap.parse_args()

    problem = json.loads((ROOT / "BENCH_7.json").read_text())["paper_rung"]["problem"]
    problem["task"]["caps"] = args.caps
    # run the catext of this checkout, not whichever one is installed
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.yaml"
        path.write_text(yaml.safe_dump(problem, sort_keys=True))
        start = time.perf_counter()
        res = subprocess.run(
            [sys.executable, "-m", "catext.cli", "lhs-report", str(path),
             "--format", "structured"],
            capture_output=True, env=env)
        wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"caps": [args.caps[c] for c in "pqn"], "exit": res.returncode,
                      "wall_s": round(wall, 2), "peak_rss_mb": round(peak_kb / 1024, 1),
                      "md5": hashlib.md5(res.stdout).hexdigest()}))
    if res.returncode:
        sys.stderr.write(res.stderr.decode(errors="replace"))
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
