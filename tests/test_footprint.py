import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "footprint.py"


def test_footprint_watches_scipy_and_its_special_functions():
    # with them watched, the report test below checks that no stage loads either
    spec = importlib.util.spec_from_file_location("footprint", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert {"scipy", "scipy.special"} <= set(tool.WATCHED)


def test_footprint_reports_every_stage_in_its_own_interpreter():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(TOOL), "--horizon", "5", "--json"], cwd=ROOT,
                         env=env, capture_output=True, text=True, check=True)
    report = json.loads(out.stdout)
    assert list(report) == ["import", "agent", "block", "sweep"]
    for stage, row in report.items():
        assert row["wall_s"] > 0 and row["maxrss_mb"] > 0
        # only the sweep starts child processes, its two pool workers
        assert (row["children_mb"] > 0) == (stage == "sweep")
        assert row["loaded"] == (["concurrent.futures.process"] if stage == "sweep" else [])
