"""qbp sweep benchmark: trials per second of run_simulation on a bicycle code.

    python3 bench/run.py --workload lowerr-cf --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; qbp is imported from ./src, and the
run exits with status 2 if it is not there.  One process, jobs=1, one
closed-loop caller.  A run:

1. builds the code SETUP_REPEATS times (generate_bicycle plus the lazy
   per-code structures the first trial would build) and reports the median
   as setup_s;
2. with --trace 0, runs passes over the workload's fixed reference block
   until --seconds have passed.  The block is REFERENCE_BLOCKS sub-blocks
   of `block_trials` trials, sub-block j at a master seed derived from
   (REFERENCE_SEED, j), the same on every run; --seed shuffles the order of
   the sub-blocks in each pass.  A speed probe runs before every sub-block.
   It reports trials_per_s_norm, the block's trials over the sum of each
   sub-block's median time over the passes, scaled to the probe's reference
   speed; peak_rss_mb, the process's peak resident set; and bler, the
   block's block error rate, checked against the committed baseline's
   Wilson interval;
3. with --trace 1, runs the seed's chunks, run_simulation calls of
   `chunk_trials` trials each, chunk j at a master seed derived from
   (--seed, j), until --seconds have passed.  Every chunk runs twice, once
   untraced and once with every layer entry point wrapped (spans.py); the
   two results must be byte-identical.  It reports per-layer metrics and
   the tracing overhead.

The last stdout line is the JSON result; the same result, with the run's
environment, the sub-block times or the self times per span and layer, is
written under bench/out/.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os

# One thread per process: a BLAS pool would compete with the sweep for two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
BASELINE = BENCH_DIR / "results" / "BENCH_0.json"

# Master seed of the reference block; independent of --seed so that the
# untraced run times and classifies the same decodes on every run, and only a
# change in the code moves trials_per_s_norm or bler.
REFERENCE_SEED = 7
REFERENCE_BLOCKS = 6
MIN_PASSES = 3
# A fixed scale: trials_per_s_norm is trials per second on a machine whose
# speed_probe median is this long.  It came from a first measurement on the
# baseline's 2-core VM; the probe medians of the baseline runs were 0.032-0.043 s.
PROBE_REFERENCE_S = 0.045
SETUP_REPEATS = 5


@dataclass(frozen=True)
class CodeSpec:
    n: int
    m: int
    w: int
    seed: int


HEADLINE = CodeSpec(800, 400, 30, seed=11)


@dataclass(frozen=True)
class Workload:
    name: str
    epsilon: float
    heuristic: str
    chunk_trials: int   # traced run: trials per run_simulation call, about 2 s at the parent commit
    block_trials: int   # untraced run: trials per reference sub-block, about 1 s at the parent commit


# Why each workload exists, and which layers it isolates, is in README.md.
WORKLOADS = {w.name: w for w in (
    Workload("lowerr-cf", 0.02, "collision_freeze", chunk_trials=200, block_trials=100),
    Workload("higherr-cf", 0.04, "collision_freeze", chunk_trials=12, block_trials=8),
    Workload("higherr-plain", 0.04, "none", chunk_trials=20, block_trials=12),
)}


def import_qbp():
    """Import qbp from this checkout's src/, never from anywhere else."""
    if not (SRC / "qbp" / "__init__.py").is_file():
        raise ImportError(f"no qbp sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qbp
    if not Path(qbp.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"qbp was imported from {qbp.__file__}, not from {SRC}")
    return qbp


def environment(seed: int) -> dict:
    """What a result depends on besides the code: versions, CPUs and the seed."""
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
    }


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without starting git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- set-up ------------------------------------------------------------------

def setup(qbp, spec: CodeSpec):
    """Build the code and the lazy structures its first trial would build."""
    t0 = time.perf_counter()
    code = qbp.generate_bicycle(qbp.BicycleSpec(spec.n, spec.m, spec.w, seed=spec.seed))
    t1 = time.perf_counter()
    code.edges
    code.residual_class(qbp.PauliOperator.identity(code.n))
    t2 = time.perf_counter()
    return code, t1 - t0, t2 - t1


# -- sweeps ------------------------------------------------------------------

class Ledger:
    """Trials attempted and failed, and the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, trials: int, message: str):
        self.failed += trials
        if len(self.errors) < 20:
            self.errors.append(message)
        print(f"FAILED: {message}", file=sys.stderr)


def sweep_once(qbp, code, workload: Workload, master_seed: int, trials: int, ledger: Ledger):
    """One run_simulation call with its output checks; returns (stats, json) or None."""
    config = qbp.DecodeConfig(heuristic=workload.heuristic)
    ledger.attempted += trials
    try:
        stats = qbp.run_simulation(code, [workload.epsilon], trials=trials, config=config,
                                   master_seed=master_seed, jobs=1, max_failures=None)
    except Exception:
        ledger.fail(trials, f"run_simulation(master_seed={master_seed}) raised:\n{traceback.format_exc()}")
        return None
    p = stats.points[0] if len(stats.points) == 1 else None
    if p is None or p.trials != trials:
        ledger.fail(trials, f"master_seed={master_seed}: expected one point of {trials} trials")
        return None
    if p.detected + p.logical != p.failures or not 0 <= p.failures <= trials:
        ledger.fail(trials, f"master_seed={master_seed}: detected {p.detected} + logical "
                            f"{p.logical} != failures {p.failures}")
        return None
    return stats, qbp.stats_to_json(stats)


def chunk_seed(seed: int, j: int) -> int:
    return int(np.random.SeedSequence([seed, j]).generate_state(1, np.uint64)[0])


_PROBE_RNG = np.random.default_rng(0)
_PROBE_X = _PROBE_RNG.random((12_000, 4))
_PROBE_IDX = _PROBE_RNG.integers(0, 12_000, 12_000)


def speed_probe() -> float:
    """Seconds for a fixed mix of interpreter and numpy work that does not use qbp.

    A shared VM's speed drifts by up to 30% over tens of seconds; the
    probe's median over a run moves with it, and no change to qbp moves it.
    """
    t = time.perf_counter()
    s = 0
    for i in range(200_000):
        s += i * i % 7
    x = _PROBE_X
    for _ in range(40):
        x = np.tanh(x[_PROBE_IDX] * 0.5) + 0.1
    return time.perf_counter() - t


def reference_sweep(qbp, code, workload: Workload, seed: int, seconds: float, ledger: Ledger):
    """Passes over the reference sub-blocks, in a seeded order, until `seconds` pass.

    At least MIN_PASSES passes run, and a pass starts only if it is expected
    to end in time.  Every pass of a sub-block must give byte-identical
    stats_to_json.  Returns (failures in one pass, each sub-block's wall
    times, the probe times before each of them).
    """
    order = np.random.default_rng(seed)
    first: dict[int, str] = {}
    failures = 0
    times: list[list[float]] = [[] for _ in range(REFERENCE_BLOCKS)]
    probes: list[list[float]] = [[] for _ in range(REFERENCE_BLOCKS)]
    passes = 0
    t0 = time.perf_counter()
    while passes < MIN_PASSES or (time.perf_counter() - t0) * (passes + 1) / passes <= seconds:
        for j in order.permutation(REFERENCE_BLOCKS).tolist():
            master = chunk_seed(REFERENCE_SEED, j)
            probes[j].append(speed_probe())
            t = time.perf_counter()
            out = sweep_once(qbp, code, workload, master, workload.block_trials, ledger)
            times[j].append(time.perf_counter() - t)
            if out is None:
                continue
            if j not in first:
                first[j] = out[1]
                failures += out[0].points[0].failures
            elif out[1] != first[j]:
                ledger.fail(workload.block_trials, f"master_seed={master}: stats_to_json differs between passes")
        passes += 1
    return failures, times, probes


def paired_sweep(qbp, code, workload: Workload, seed: int, seconds: float,
                 tracer: Tracer, ledger: Ledger):
    """Each chunk untraced and traced, alternating which runs first, until `seconds` pass.

    A chunk pair starts only if it is expected to end in time.  The two
    results of a chunk must be byte-identical.  Returns (chunks, untraced
    seconds, traced seconds).
    """
    plain_s = traced_s = 0.0
    chunks = 0
    t0 = time.perf_counter()
    while not chunks or (time.perf_counter() - t0) * (chunks + 1) / chunks <= seconds:
        master = chunk_seed(seed, chunks)
        outs = []
        for traced in (False, True) if chunks % 2 == 0 else (True, False):
            t = time.perf_counter()
            if traced:
                with tracer:
                    out = sweep_once(qbp, code, workload, master, workload.chunk_trials, ledger)
                traced_s += time.perf_counter() - t
            else:
                out = sweep_once(qbp, code, workload, master, workload.chunk_trials, ledger)
                plain_s += time.perf_counter() - t
            outs.append(out)
        if None not in outs and outs[0][1] != outs[1][1]:
            ledger.fail(workload.chunk_trials, f"master_seed={master}: traced stats_to_json differs")
        chunks += 1
    return chunks, plain_s, traced_s


def reference_block(workload: Workload, spec: CodeSpec) -> dict:
    """What identifies the reference block, as the baseline records it."""
    return {"code": dataclasses.asdict(spec), "master_seed": REFERENCE_SEED, "blocks": REFERENCE_BLOCKS,
            "block_trials": workload.block_trials, "trials": REFERENCE_BLOCKS * workload.block_trials}


def wilson_check(qbp, workload: Workload, spec: CodeSpec, failures: int, ledger: Ledger) -> str:
    """bler must lie in the baseline's 95% Wilson interval for the same reference block."""
    try:
        ref = json.loads(BASELINE.read_text())["reference"][workload.name]
    except (OSError, KeyError, ValueError):
        return "skipped: no baseline"
    if ref != dict(reference_block(workload, spec), failures=ref.get("failures")):
        return "skipped: baseline is for another reference block"
    lo, hi = qbp.wilson_interval(ref["failures"], ref["trials"])
    bler = failures / ref["trials"]
    if not lo <= bler <= hi:
        ledger.fail(ref["trials"], f"bler {bler} outside baseline Wilson interval [{lo}, {hi}]")
        return "failed"
    return "passed"


# -- one run -----------------------------------------------------------------

def run(workload: Workload, seed: int, seconds: float, trace: bool,
        spec: CodeSpec = HEADLINE, out_dir: Path = OUT_DIR) -> dict:
    """One benchmark run; returns the result line as a dict and writes the full record."""
    qbp = import_qbp()
    ledger = Ledger()
    builds = [setup(qbp, spec) for _ in range(SETUP_REPEATS)]
    code = builds[-1][0]
    gen_s = statistics.median(b[1] for b in builds)
    lazy_s = statistics.median(b[2] for b in builds)
    record = {"workload": dataclasses.asdict(workload), "code": dataclasses.asdict(spec),
              "seconds": seconds, "trace": int(trace), "environment": environment(seed)}

    out_dir.mkdir(parents=True, exist_ok=True)
    sweep_once(qbp, code, workload, REFERENCE_SEED, 1, ledger)  # warm-up, untimed
    if not trace:
        failures, block_s, probe_s = reference_sweep(qbp, code, workload, seed, seconds, ledger)
        ref = reference_block(workload, spec)
        record["reference"] = dict(ref, failures=failures,
                                   wilson_check=wilson_check(qbp, workload, spec, failures, ledger))
        raw = ref["trials"] / sum(statistics.median(t) for t in block_s)
        probe = statistics.median(x for t in probe_s for x in t)
        record.update(block_seconds=block_s, probe_seconds=probe_s, raw_trials_per_s=raw, probe_median_s=probe)
        trials = ref["trials"] * len(block_s[0])
        values = {
            "trials_per_s_norm": raw * probe / PROBE_REFERENCE_S,
            "setup_s": statistics.median(b[1] + b[2] for b in builds),
            "bler": failures / ref["trials"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = metric_units("end_to_end")
    else:
        tracer = Tracer()
        chunks, plain_s, traced_s = paired_sweep(qbp, code, workload, seed, seconds, tracer, ledger)
        trials = chunks * workload.chunk_trials
        values = tracer.summary()
        values["constructions.generate_bicycle_s"] = gen_s
        values["codes.lazy_setup_s"] = lazy_s
        values["trace.overhead"] = 1.0 - plain_s / traced_s
        units = metric_units("per_layer")
        record["self_s"] = tracer.self_seconds()
        record["missing_entry_points"] = tracer.missing
        (out_dir / f"spans-{workload.name}-seed{seed}.json").write_text(json.dumps(tracer.spans_json()))

    record["timed_trials"] = trials
    record["errors"] = ledger.errors
    result = {
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record["result"] = result
    (out_dir / f"result-{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return result


def metric_units(section: str) -> dict:
    """Name -> unit of every metric BENCHMARK.json lists in `section`; run() must emit them all."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"cannot import qbp: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
