"""Smoke test of tools/paired_speed.py: the same tree twice, on a tiny code."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

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


def test_paired_setup_same_tree_twice():
    tool = _tool()
    bench = tool.load_bench()
    lines = []
    result = tool.paired_setup(ROOT, ROOT, calls=3, spec=bench.CodeSpec(80, 40, 10, seed=3), out=lines.append)
    s = result["setup"]
    assert result["setup_calls"] == 3 and s["pairs"] == 3
    assert 0 < s["q1"] <= s["median"] <= s["q3"] and 0 <= s["change_wins"] <= 3
    assert all(seconds > 0 for seconds in result["median_s"].values())
    assert len(lines) == 2 and lines[1].startswith("setup: median ratio")


def test_paired_speed_usage_errors(capsys):
    tool = _tool()
    for argv in (["--setup", "0"], ["--setup", "3", "--rounds", "2"], ["--workload", "lowerr-cf"], []):
        with pytest.raises(SystemExit) as exc:
            tool.main([str(ROOT), str(ROOT), *argv])
        assert exc.value.code == 2
    assert "--setup" in capsys.readouterr().err
