#!/usr/bin/env python3
"""Run every problem file in problems/ through the CLI and tabulate results.

Usage: python scripts/run_problems.py [--format table|structured]
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--format", choices=("table", "structured"), default="table")
    args = ap.parse_args()

    # run the catext of this checkout, not whichever one is installed
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    worst = 0
    for path in sorted((ROOT / "problems").glob("*.yaml")):
        command = yaml.safe_load(path.read_text())["task"]["command"]
        res = subprocess.run(
            [sys.executable, "-m", "catext.cli", command, str(path),
             "--format", args.format],
            capture_output=True, text=True, env=env)
        expected_fail = path.stem.startswith(("broken", "corrupt"))
        status = "ok" if res.returncode == 0 else f"exit {res.returncode}"
        # a traceback also exits 1; a violation comes with its report on stdout
        expected = expected_fail and res.returncode == 1 and res.stdout.strip() != ""
        marker = "(expected)" if expected else ""
        print(f"== {path.name} [{command}] -> {status} {marker}")
        print("\n".join("   " + line for line in res.stdout.rstrip().splitlines()))
        if res.returncode != 0 and not expected:
            worst = max(worst, res.returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
