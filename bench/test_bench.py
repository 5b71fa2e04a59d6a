"""Smoke test of the benchmark itself: every workload shape, both modes, on a tiny code."""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402

TINY = bench.CodeSpec(80, 40, 10, seed=3)
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert SPEC["command"][1] == "bench/run.py"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_every_metric_is_emitted(name, trace, tmp_path):
    workload = dataclasses.replace(bench.WORKLOADS[name], chunk_trials=4, block_trials=2)
    result = bench.run(workload, seed=1, seconds=0.05, trace=bool(trace), spec=TINY, out_dir=tmp_path)

    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in section} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    record = json.loads((tmp_path / f"result-{name}-seed1-trace{trace}.json").read_text())
    assert record["environment"]["seed"] == 1
    if trace:
        assert record["missing_entry_points"] == []
        spans = json.loads((tmp_path / f"spans-{name}-seed1.json").read_text())
        assert spans["calls"]["simulate.run_trial"] == result["metrics"]["simulate.trials_traced"]["value"]
    else:
        assert result["metrics"]["trials_per_s_norm"]["value"] > 0


def test_tracer_restores_entry_points():
    qbp = bench.import_qbp()
    before = qbp.bp.check_update, qbp.StabilizerCode.__dict__["syndrome"], qbp.PauliOperator.__dict__["from_letters"]
    with bench.Tracer():
        assert qbp.bp.check_update is not before[0]
    after = qbp.bp.check_update, qbp.StabilizerCode.__dict__["syndrome"], qbp.PauliOperator.__dict__["from_letters"]
    assert after == before
