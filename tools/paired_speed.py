"""Paired speed of two qbp source trees on one benchmark workload, in one process.

    python3 tools/paired_speed.py PARENT_TREE CHANGE_TREE --workload lowerr-cf --rounds 10
    python3 tools/paired_speed.py PARENT_TREE CHANGE_TREE --setup 60
    python3 tools/paired_speed.py PARENT_TREE CHANGE_TREE --iterations 200

Each tree's qbp (TREE/src/qbp) is loaded under its own module name, so both
run in one process, side by side on the same machine state.  The workload,
the headline code and the reference block come from bench/run.py, which is
imported and not edited: sub-block j is a run_simulation call of
`block_trials` trials at master seed chunk_seed(REFERENCE_SEED, j), run
through the benchmark's own sweep_once and its output checks.

Each round runs every sub-block on both trees back to back, the parent first
when round + sub-block is even, the change first otherwise.  The two
stats_to_json of a pair must be byte-identical.  The script prints, for the
paired ratios parent seconds / change seconds (above 1: the change is
faster), their median and quartiles and how many pairs the change won, per
sub-block and per round (a round's summed seconds).  The JSON summary is the
last line.

--setup CALLS times bench/run.py's setup() instead, the benchmark's setup_s:
the headline code's build and the lazy structures its first trial builds.
It alternates the trees CALLS times each, in the same order rule, checks
that both build the same code: its fingerprint, and its `edges` arrays,
`anti_words` and `basis` byte for byte.  It prints the same summary of the
paired ratios parent seconds / change seconds and each tree's median.

--iterations DECODES times the BP kernel alone: each tree decodes the same
DECODES syndromes of the headline code at eps 0.04 by plain BP (qbp.decode),
most of which run all max_iterations, alternating in the same order rule.
Each pair's correction, iteration count and final beliefs must be equal,
byte for byte; the beliefs are read after the timing.  It prints the same
summary of the paired ratios parent / change of µs per iteration (a
decode's seconds over its iterations) and each tree's median.  A kernel
change of a few percent is resolved here where sub-blocks, whose
quartiles span ~8%, cannot.

Every mode's JSON summary records numpy's version and the SIMD targets it
runs: its baseline and the dispatched targets this CPU has.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH_RUN = ROOT / "bench" / "run.py"

# --iterations: plain BP at the high-error workloads' strength
ITERATIONS_EPS = 0.04


def load_module(name: str, path: Path, package: bool = False):
    """Import the file at path (a package's __init__.py when package) as module `name`."""
    locations = [str(path.parent)] if package else None
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=locations)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_bench():
    """bench/run.py as a module, loaded once; it imports its sibling spans.py by plain name."""
    if "qbp_bench_run" in sys.modules:
        return sys.modules["qbp_bench_run"]
    if str(BENCH_RUN.parent) not in sys.path:
        sys.path.insert(0, str(BENCH_RUN.parent))
    return load_module("qbp_bench_run", BENCH_RUN)


def load_tree(tree: Path, name: str):
    """The qbp package of a source tree, imported as `name`."""
    init = Path(tree).resolve() / "src" / "qbp" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"no qbp sources under {tree}")
    return load_module(name, init, package=True)


def numpy_runtime() -> dict:
    """numpy's version and SIMD targets: its baseline and the dispatched targets this CPU has."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return {"version": np.__version__, "simd_baseline": list(umath.__cpu_baseline__),
            "simd_found": [target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target)]}


def quartiles(values) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile); a single value is all three."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(ratios) -> dict:
    q1, median, q3 = quartiles(ratios)
    return {"pairs": len(ratios), "median": median, "q1": q1, "q3": q3,
            "change_wins": sum(r > 1 for r in ratios)}


def paired_blocks(parent: Path, change: Path, workload, rounds: int, spec=None, out=print) -> dict:
    """Run `rounds` rounds of the workload's reference block on both trees; returns the summary."""
    bench = load_bench()
    spec = spec or bench.HEADLINE
    trees = {"parent": load_tree(parent, "qbp_parent_tree"), "change": load_tree(change, "qbp_change_tree")}
    ledger = bench.Ledger()
    codes = {}
    for side, qbp in trees.items():
        codes[side] = bench.setup(qbp, spec)[0]
        bench.sweep_once(qbp, codes[side], workload, bench.REFERENCE_SEED, 1, ledger)  # warm-up, untimed
    block_ratios, round_ratios = [], []
    for r in range(rounds):
        totals = dict.fromkeys(trees, 0.0)
        for j in range(bench.REFERENCE_BLOCKS):
            master = bench.chunk_seed(bench.REFERENCE_SEED, j)
            order = ("parent", "change") if (r + j) % 2 == 0 else ("change", "parent")
            seconds, outputs = {}, {}
            for side in order:
                t = time.perf_counter()
                result = bench.sweep_once(trees[side], codes[side], workload, master, workload.block_trials, ledger)
                seconds[side] = time.perf_counter() - t
                if result is None:
                    raise RuntimeError(f"{side} tree failed sub-block {j}: {ledger.errors[-1]}")
                outputs[side] = result[1]
            if outputs["parent"] != outputs["change"]:
                raise AssertionError(f"stats_to_json differs between the trees on sub-block {j} (master seed {master})")
            block_ratios.append(seconds["parent"] / seconds["change"])
            for side in trees:
                totals[side] += seconds[side]
        round_ratios.append(totals["parent"] / totals["change"])
        out(f"round {r + 1}/{rounds}: parent {totals['parent']:.3f} s, change {totals['change']:.3f} s, "
            f"ratio {round_ratios[-1]:.4f}")
    result = {"workload": workload.name, "block_trials": workload.block_trials, "code": dataclasses.asdict(spec),
              "blocks": summary(block_ratios), "rounds": summary(round_ratios), "numpy": numpy_runtime()}
    for key in ("blocks", "rounds"):
        s = result[key]
        out(f"{key}: median ratio {s['median']:.4f} (quartiles {s['q1']:.4f}-{s['q3']:.4f}), "
            f"change faster in {s['change_wins']}/{s['pairs']}")
    return result


def built_structures(code) -> dict:
    """The code's fingerprint and its derived arrays, each as (dtype, shape, bytes)."""
    arrays = {f"edges.{f.name}": getattr(code.edges, f.name) for f in dataclasses.fields(code.edges)}
    arrays.update(anti_words=code.anti_words, basis_pivots=code.basis[0], basis_rows=code.basis[1])
    return {"fingerprint": code.fingerprint(),
            **{name: (a.dtype.str, a.shape, a.tobytes()) for name, a in arrays.items()}}


def paired_setup(parent: Path, change: Path, calls: int, spec=None, out=print) -> dict:
    """Alternate bench/run.py's setup() on both trees `calls` times each; returns the summary."""
    bench = load_bench()
    spec = spec or bench.HEADLINE
    trees = {"parent": load_tree(parent, "qbp_parent_tree"), "change": load_tree(change, "qbp_change_tree")}
    for qbp in trees.values():
        bench.setup(qbp, spec)  # warm-up, untimed
    ratios, seconds = [], {side: [] for side in trees}
    for i in range(calls):
        built = {}
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            code, build_s, lazy_s = bench.setup(trees[side], spec)
            seconds[side].append(build_s + lazy_s)
            built[side] = built_structures(code)
        differ = [name for name in built["parent"] if built["parent"][name] != built["change"][name]]
        if differ:
            raise AssertionError(f"the trees build different {', '.join(differ)} on set-up call {i + 1}")
        ratios.append(seconds["parent"][-1] / seconds["change"][-1])
    result = {"setup_calls": calls, "code": dataclasses.asdict(spec), "setup": summary(ratios),
              "median_s": {side: statistics.median(values) for side, values in seconds.items()},
              "numpy": numpy_runtime()}
    s = result["setup"]
    out(f"setup: parent median {result['median_s']['parent'] * 1e3:.2f} ms, "
        f"change median {result['median_s']['change'] * 1e3:.2f} ms")
    out(f"setup: median ratio {s['median']:.4f} (quartiles {s['q1']:.4f}-{s['q3']:.4f}), "
        f"change faster in {s['change_wins']}/{s['pairs']}")
    return result


def decoded(result) -> tuple:
    """A DecodeResult's correction positions, convergence, iteration count and final belief bytes."""
    return (result.correction.positions().tobytes(), result.converged, result.iterations_used,
            result.final_beliefs.tobytes())


def paired_iterations(parent: Path, change: Path, decodes: int, spec=None, out=print) -> dict:
    """Alternate plain BP decodes of the same syndromes on both trees; returns the µs-per-iteration summary."""
    bench = load_bench()
    spec = spec or bench.HEADLINE
    trees = {"parent": load_tree(parent, "qbp_parent_tree"), "change": load_tree(change, "qbp_change_tree")}
    codes = {side: bench.setup(qbp, spec)[0] for side, qbp in trees.items()}
    qbp = trees["parent"]
    prior = qbp.depolarizing_prior(codes["parent"].n, ITERATIONS_EPS)
    syndromes = [codes["parent"].syndrome(qbp.sample_error(prior, np.random.default_rng([bench.REFERENCE_SEED, i])))
                 for i in range(decodes)]
    for side, qbp in trees.items():
        qbp.decode(codes[side], prior, syndromes[0])  # warm-up, untimed
    ratios, per_iteration, iterations = [], {side: [] for side in trees}, 0
    for i, syndrome in enumerate(syndromes):
        results = {}
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            t = time.perf_counter()
            results[side] = trees[side].decode(codes[side], prior, syndrome)
            per_iteration[side].append((time.perf_counter() - t) / results[side].iterations_used * 1e6)
        if decoded(results["parent"]) != decoded(results["change"]):
            raise AssertionError(f"the trees decode syndrome {i} differently")
        ratios.append(per_iteration["parent"][-1] / per_iteration["change"][-1])
        iterations += results["parent"].iterations_used
    result = {"decodes": decodes, "eps": ITERATIONS_EPS, "code": dataclasses.asdict(spec),
              "mean_iterations": iterations / decodes, "iterations": summary(ratios),
              "median_us": {side: statistics.median(values) for side, values in per_iteration.items()},
              "numpy": numpy_runtime()}
    s = result["iterations"]
    out(f"iterations: {result['mean_iterations']:.1f} per decode; parent median "
        f"{result['median_us']['parent']:.1f} µs, change median {result['median_us']['change']:.1f} µs per iteration")
    out(f"iterations: median ratio {s['median']:.4f} (quartiles {s['q1']:.4f}-{s['q3']:.4f}), "
        f"change faster in {s['change_wins']}/{s['pairs']}")
    return result


def main(argv=None) -> int:
    bench = load_bench()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", choices=sorted(bench.WORKLOADS))
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--setup", type=int, metavar="CALLS",
                        help="time the set-up CALLS times per tree, in place of --workload and --rounds")
    parser.add_argument("--iterations", type=int, metavar="DECODES",
                        help="time DECODES plain BP decodes per tree per iteration, in place of --workload and --rounds")
    args = parser.parse_args(argv)
    modes = {"--setup": (args.setup, paired_setup), "--iterations": (args.iterations, paired_iterations)}
    chosen = [flag for flag, (value, _) in modes.items() if value is not None]
    if len(chosen) > 1:
        parser.error("--setup and --iterations are two modes; give one")
    if chosen:
        flag = chosen[0]
        count, run = modes[flag]
        if args.workload is not None or args.rounds is not None:
            parser.error(f"{flag} replaces --workload and --rounds")
        if count < 1:
            parser.error(f"{flag} must be >= 1")
        result = run(args.parent, args.change, count)
    else:
        if args.workload is None or args.rounds is None:
            parser.error("--workload and --rounds are required without --setup or --iterations")
        if args.rounds < 1:
            parser.error("--rounds must be >= 1")
        result = paired_blocks(args.parent, args.change, bench.WORKLOADS[args.workload], args.rounds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
