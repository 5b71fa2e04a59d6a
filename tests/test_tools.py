"""Smoke tests of the tooling: tools/paired_speed.py on the same tree twice,
and bench/spans.py's tracer over traced sweeps, both on tiny codes."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import qbp

ROOT = Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tool():
    return _load("paired_speed", ROOT / "tools" / "paired_speed.py")


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
    assert result["numpy"]["version"] == np.__version__


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
    assert result["numpy"]["version"] == np.__version__


def test_paired_iterations_same_tree_twice():
    tool = _tool()
    bench = tool.load_bench()
    lines = []
    result = tool.paired_iterations(ROOT, ROOT, decodes=3, spec=bench.CodeSpec(80, 40, 10, seed=3), out=lines.append)
    s = result["iterations"]
    assert result["decodes"] == 3 and result["eps"] == 0.04 and s["pairs"] == 3
    assert 0 < s["q1"] <= s["median"] <= s["q3"] and 0 <= s["change_wins"] <= 3
    assert all(us > 0 for us in result["median_us"].values()) and result["mean_iterations"] >= 1
    assert len(lines) == 2 and lines[1].startswith("iterations: median ratio")
    runtime = result["numpy"]
    assert runtime["version"] == np.__version__ and isinstance(runtime["simd_found"], list)


def test_paired_speed_usage_errors(capsys):
    tool = _tool()
    for argv in (["--setup", "0"], ["--setup", "3", "--rounds", "2"], ["--workload", "lowerr-cf"], [],
                 ["--iterations", "0"], ["--iterations", "3", "--workload", "lowerr-cf"],
                 ["--iterations", "3", "--setup", "3"]):
        with pytest.raises(SystemExit) as exc:
            tool.main([str(ROOT), str(ROOT), *argv])
        assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--setup" in err and "--iterations" in err


def test_traced_sweeps_call_every_span_but_three():
    # bench/spans.py wraps qbp's entry points by name.  A sweep that stops
    # calling one more of them shows up in the benchmark only as one more
    # per-layer metric reading 0, so the set never called is pinned here.
    spans = _load("bench_spans", ROOT / "bench" / "spans.py")
    code = qbp.generate_bicycle(qbp.BicycleSpec(40, 20, 6, seed=1))
    with spans.Tracer() as tracer:
        for heuristic in ("collision_freeze", "collision_perturb"):
            qbp.run_simulation(code, [0.05], 200, qbp.DecodeConfig(heuristic=heuristic), master_seed=1,
                               max_failures=None)
    assert tracer.missing == []
    never = {span for _, _, span in spans.ENTRY_POINTS if tracer.calls[span] == 0}
    assert never == {"bp.qubit_update", "codes.halting_test", "pauli.from_letters"}
