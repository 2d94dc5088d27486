import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_footprint_reports_every_stage_in_its_own_interpreter():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "footprint.py"), "--horizon", "5",
                          "--json"], cwd=ROOT, env=env, capture_output=True, text=True,
                         check=True)
    report = json.loads(out.stdout)
    assert list(report) == ["import", "agent", "block", "sweep"]
    for stage, row in report.items():
        assert row["wall_s"] > 0 and row["maxrss_mb"] > 0
        # only the sweep starts child processes, its two pool workers
        assert (row["children_mb"] > 0) == (stage == "sweep")
        assert row["loaded"] == (["concurrent.futures.process"] if stage == "sweep" else [])
