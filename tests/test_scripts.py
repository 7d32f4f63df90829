"""The scripts in scripts/ run from a checkout, with PYTHONPATH unset."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _script(tmp_path, name, *args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, cwd=tmp_path)


@pytest.mark.parametrize("args, md5", [((), "0b570113003d749a00763ab258d4c5d9"),
                                       (("--format", "structured"),
                                        "fe2785936e67994907c28d16a60fc142")],
                         ids=["table", "structured"])
def test_run_problems_runs_from_checkout(tmp_path, args, md5):
    """Every problem file keeps its output, in both formats."""
    res = _script(tmp_path, "run_problems.py", *args)
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    assert hashlib.md5(res.stdout.encode()).hexdigest() == md5


def test_lhs_survey_runs_from_checkout(tmp_path):
    res = _script(tmp_path, "lhs_survey.py", "--cap", "1")
    assert res.returncode == 0, res.stderr
    assert res.stdout.rstrip().endswith("0 violation(s)")


@pytest.mark.parametrize("caps, md5", [((1, 1, 1), "84ca7df58f0019a6bb68d3573b605daf"),
                                       ((2, 2, 2), "6ef33f5f1fd4418eb0a41aa91c620f41"),
                                       ((3, 3, 3), "f39aa0e390f17b080e541b7c4d9f36ee")],
                         ids=["1-1-1", "2-2-2", "3-3-3"])
def test_paper_rung_runs_from_checkout(tmp_path, caps, md5):
    """The 243-morphism rung keeps the output recorded in BENCH_7.json at
    caps (1,1,1), the one recorded at caps (2,2,2) and the one recorded in
    BENCH_31.json at caps (3,3,3), where the abutment runs three resolution
    stages."""
    res = _script(tmp_path, "paper_rung.py", "--caps", ",".join(map(str, caps)))
    assert res.returncode == 0, res.stderr
    line = json.loads(res.stdout)
    assert line["caps"] == list(caps) and line["exit"] == 0
    assert line["md5"] == md5
    assert line["wall_s"] > 0 and line["peak_rss_mb"] > 0
    # 172 MB while the algebra of Gr(A, N) was held as a dense 243^3 tensor
    assert line["peak_rss_mb"] < 120
