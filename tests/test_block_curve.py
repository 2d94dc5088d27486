import importlib.util
import json
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "block_curve.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("block_curve", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules["block_curve"] = module
    spec.loader.exec_module(module)
    return module


def test_block_curve_covers_every_grouping_and_size(capsys):
    tool = _load_tool()
    horizon = 12
    assert tool.main(["--sizes", "1", "2", "--horizon", str(horizon), "--repeats", "1",
                      "--json"]) == 0
    curve = json.loads(capsys.readouterr().out)
    assert sorted(curve) == ["graph", "pooled", "set", "singletons"]
    for grouping, rows in curve.items():
        assert sorted(rows) == ["1", "2"]
        for row in rows.values():
            assert row["lockstep"] > 0 and row["agents"] > 0 and row["peak_mb"] > 0
            assert row["calls/step"] > 0 and row["calls/round"] > 0
            # each step advances every live chain, so no block takes more steps than rounds
            assert 1 <= row["steps"] <= horizon
    # a pooled block ranks each round once, for all its seeds together
    assert curve["pooled"]["1"]["steps"] == curve["pooled"]["2"]["steps"] == horizon


def test_block_curve_prints_a_table(capsys):
    tool = _load_tool()
    assert tool.main(["--sizes", "2", "--horizon", "5", "--repeats", "1",
                      "--groupings", "singletons"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split()[:3] == ["grouping", "S", "lockstep"]
    assert row.split()[:2] == ["singletons", "2"]
