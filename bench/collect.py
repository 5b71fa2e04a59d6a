"""Run bench/run.py over seeds and workloads and write one BENCH_<label>.json.

    python3 bench/collect.py --label 0 --seeds 1-10 --trace 0 1

Each run is its own process, run one after another.  The file records every
run's result line and seed, the medians and quartiles of each metric per
workload, the spread (q3 - q1) / median, the reference-block failure counts
that run.py's Wilson check reads, and the environment (git sha, Python and
numpy versions, nproc).  It exits with status 1 if any run failed or was not
correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((bench.OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", nargs="+", default=sorted(bench.WORKLOADS))
    parser.add_argument("--trace", nargs="+", type=int, default=[0, 1], choices=(0, 1))
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = {"label": args.label, "command": spec["command"], "seconds": args.seconds,
           "seeds": seed_list(args.seeds), "environment": None, "reference": {}, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs, metrics = [], {}
        for trace in args.trace:
            for seed in out["seeds"]:
                result, record = one_run(workload, seed, args.seconds, trace)
                env = dict(record["environment"])
                env.pop("seed")
                out["environment"] = out["environment"] or env
                runs.append({"seed": seed, "trace": trace, "correct": result["correct"],
                             "attempted": result["attempted"], "failed": result["failed"],
                             "timed_trials": record["timed_trials"]})
                if "self_s" in record:
                    runs[-1]["self_s"] = record["self_s"]
                ok &= result["correct"] and result["failed"] == 0
                if "reference" in record:
                    ref = dict(record["reference"])
                    ref.pop("wilson_check")
                    out["reference"][workload] = ref
                for name, m in result["metrics"].items():
                    metrics.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
                print(f"{workload} trace={trace} seed={seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
        summary = {name: {"unit": m["unit"], **spread(m["values"])} for name, m in metrics.items()}
        out["workloads"][workload] = {"runs": runs, "metrics": summary}
        for name, bound in bounds.items():
            if name in summary:
                s = summary[name]
                print(f"{workload:14s} {name:14s} median {s['median']:.6g} spread {s['spread']:.4f} "
                      f"(bound {bound}, a third {bound / 3:.4f})", file=sys.stderr)

    path = BENCH_DIR / "results" / f"BENCH_{args.label}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
