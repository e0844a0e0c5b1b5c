"""Every lp-bounds and exact-ic4 golden job in bench/golden.json, checked on each test run.

The benchmark's smoke slice checks a few profiles; this runs the whole
lp-bounds corpus (under a second, float rules included) and all 120 jobs of
the exact-ic4 corpus at n = 50, 200 and 1000 (about half a second):

    python3 -m pytest tests/test_golden.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _full_run(workload):
    """The summary line of `bench/run.py --workload <workload> --full`."""
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                           "--full"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_every_lp_bounds_golden_job_is_correct():
    recorded = json.loads((ROOT / "bench" / "golden.json").read_text())["lp-bounds"]
    result = _full_run("lp-bounds")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(recorded)


def test_every_exact_ic4_golden_job_is_correct():
    result = _full_run("exact-ic4")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 120
