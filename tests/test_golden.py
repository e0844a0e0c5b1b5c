"""Every lp-bounds job recorded in bench/golden.json, checked on each test run.

The benchmark's smoke slice checks one lp-bounds profile; this runs the whole
lp-bounds corpus once (under a second), float rules included:

    python3 -m pytest tests/test_golden.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_lp_bounds_golden_job_is_correct():
    recorded = json.loads((ROOT / "bench" / "golden.json").read_text())["lp-bounds"]
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "lp-bounds",
                           "--full"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(recorded)
