"""Smoke test of tools/paired_speed.py: the same tree twice, on a tiny code."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("paired_speed", ROOT / "tools" / "paired_speed.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_paired_speed_same_tree_twice():
    tool = _tool()
    bench = tool.load_bench()
    workload = dataclasses.replace(bench.WORKLOADS["lowerr-cf"], block_trials=2)
    lines = []
    result = tool.paired_blocks(ROOT, ROOT, workload, rounds=2, spec=bench.CodeSpec(80, 40, 10, seed=3),
                                out=lines.append)
    assert result["blocks"]["pairs"] == 2 * bench.REFERENCE_BLOCKS and result["rounds"]["pairs"] == 2
    for key in ("blocks", "rounds"):
        s = result[key]
        assert 0 < s["q1"] <= s["median"] <= s["q3"] and 0 <= s["change_wins"] <= s["pairs"]
    assert len(lines) == 4 and lines[0].startswith("round 1/2")
    parent, change = sys.modules["qbp_parent_tree"], sys.modules["qbp_change_tree"]
    assert parent is not change and parent.run_simulation is not change.run_simulation
