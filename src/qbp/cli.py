"""Command-line interface: generate, inspect, decode, simulate, oracle-check.

Exit codes: 0 on success, 1 for usage errors, 2 for data errors (bad files,
invalid codes, oracle size limits).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import __version__
from .bp import HEURISTICS, DecodeConfig, depolarizing_prior
from .codes import (
    CodeFormatError,
    StabilizerCode,
    checked_integer,
    checked_real,
    design_rate,
    syndrome_from_string,
    syndrome_to_string,
)
from .constructions import BicycleSpec, GenerationError, builtin, check_matrix, generate_bicycle
from .heuristics import decode_with_heuristics
from .oracle import exact_marginals
from .pauli import LETTERS, PauliOperator
from .simulate import classify_residual, run_simulation, sample_error, stats_to_csv, stats_to_json

_HEURISTIC_FLAGS = {h.replace("_", "-"): h for h in HEURISTICS}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_code_source(p: _Parser):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--code", metavar="PATH", help="code file (n m header, one check per line)")
    group.add_argument("--builtin", choices=("two_qubit_toy", "five_qubit"))
    group.add_argument("--bicycle", metavar="N,M,W", help="generate a bicycle code (uses --seed)")


def _add_decode_config(p: _Parser):
    p.add_argument("--heuristic", choices=sorted(_HEURISTIC_FLAGS), default="none")
    p.add_argument("--max-iter", type=int, default=90)
    p.add_argument("--t-pert", type=int, default=6)
    p.add_argument("--delta", type=float, default=0.1)


def _usage_checked(parser: _Parser, check, *args, **kwargs):
    """check(*args, **kwargs), with its ValueError reported as a usage error (exit 1)."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def _parse_bicycle(parser: _Parser, text: str, seed) -> BicycleSpec:
    parts = text.split(",")
    if len(parts) != 3:
        parser.error(f"--bicycle expects N,M,W, got {text!r}")
    try:
        n, m, w = (int(p) for p in parts)
        return BicycleSpec(n=n, m=m, w=w, seed=seed)
    except ValueError as exc:
        parser.error(f"invalid bicycle spec: {exc}")


def _resolve_code(parser: _Parser, args) -> StabilizerCode:
    if args.code:
        return StabilizerCode.load(args.code)
    if args.builtin:
        return builtin(args.builtin)
    spec = _parse_bicycle(parser, args.bicycle, getattr(args, "seed", None))
    return generate_bicycle(spec)


def _decode_config(parser: _Parser, args) -> DecodeConfig:
    return _usage_checked(parser, DecodeConfig, max_iterations=args.max_iter, t_pert=args.t_pert, delta=args.delta,
                          heuristic=_HEURISTIC_FLAGS[args.heuristic], seed=getattr(args, "seed", None))


def _cmd_generate(parser: _Parser, args) -> int:
    spec = _parse_bicycle(parser, args.bicycle, args.seed)
    code = generate_bicycle(spec, deletion=args.deletion)
    header = [
        f"qbp {__version__} bicycle code",
        f"spec n={spec.n} m={spec.m} w={spec.w} seed={spec.seed} deletion={args.deletion}",
        f"fingerprint {code.fingerprint()}",
    ]
    code.save(args.out, header_lines=header)
    h = check_matrix(code)
    h_path = args.h_out or args.out + ".h"
    with open(h_path, "w") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        for row in h:
            fh.write(" ".join(str(j) for j in np.flatnonzero(row)) + "\n")
    print(f"wrote {args.out} ({code.n} qubits, {code.m} checks, k={code.k}) and {h_path}")
    return 0


def _cmd_inspect(parser: _Parser, args) -> int:
    code = _resolve_code(parser, args)
    lam, rho = code.degree_distribution()
    loops, _ = code.four_loop_census()
    print(f"n {code.n}")
    print(f"m {code.m}")
    print(f"k {code.k}")
    print(f"rate {code.k / code.n}")
    print(f"design_rate {design_rate(lam, rho)}")
    print(f"lambda {[str(c) for c in lam]}")
    print(f"rho {[str(c) for c in rho]}")
    print(f"four_loops {loops}")
    print("checks_commute true")
    print(f"fingerprint {code.fingerprint()}")
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(code.to_dot())
        print(f"wrote {args.dot}")
    return 0


def _cmd_decode(parser: _Parser, args) -> int:
    _usage_checked(parser, checked_real, "--epsilon", args.epsilon, 0, 1)
    code = _resolve_code(parser, args)
    config = _decode_config(parser, args)
    prior = depolarizing_prior(code.n, args.epsilon)
    injected = None
    if args.inject:
        injected = PauliOperator.from_string(args.inject)
        if injected.n != code.n:
            raise CodeFormatError(f"injected error acts on {injected.n} qubits, code has {code.n}")
        syndrome = code.syndrome(injected)
    else:
        syndrome = syndrome_from_string(args.syndrome)
        if len(syndrome) != code.m:
            raise CodeFormatError(f"syndrome has {len(syndrome)} bits, code has {code.m} checks")
    trace = [] if args.trace else None
    result, events = decode_with_heuristics(code, prior, syndrome, config, trace=trace)
    print(f"syndrome {syndrome_to_string(syndrome)}")
    print(f"correction {result.correction}")
    print(f"converged {str(result.converged).lower()}")
    print(f"iterations {result.iterations_used}")
    if injected is not None:
        print(f"classification {classify_residual(code, injected, result.correction)}")
    event_lines = []
    for ev in events:
        deltas = "-" if ev.deltas is None else ";".join(",".join(f"{d:.6g}" for d in t) for t in ev.deltas)
        trigger = ":".join(str(x) for x in ev.trigger)
        qubits = ",".join(str(q) for q in ev.qubits)
        event_lines.append(f"event kind={ev.kind} iter={ev.iteration} trigger={trigger} qubits={qubits} deltas={deltas}")
    for line in event_lines:
        print(line)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(f"# qbp {__version__}\n")
            fh.write(f"# config {json.dumps(dataclasses.asdict(config), sort_keys=True)}\n")
            fh.write("iteration,qubit,b_I,b_X,b_Y,b_Z\n")
            for iteration, beliefs in trace:
                for q in range(code.n):
                    row = ",".join(repr(float(v)) for v in beliefs[q])
                    fh.write(f"{iteration},{q},{row}\n")
            for line in event_lines:
                fh.write(f"# {line}\n")
        print(f"wrote {args.trace}")
    return 0


def _parse_epsilons(parser: _Parser, args) -> list:
    if args.epsilon_sweep:
        parts = args.epsilon_sweep.split(":")
        if len(parts) != 3:
            parser.error(f"--epsilon-sweep expects LO:HI:STEPS, got {args.epsilon_sweep!r}")
        try:
            lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            parser.error(f"invalid sweep {args.epsilon_sweep!r}")
        if not (0 < lo <= hi <= 1 and steps >= 1):
            parser.error("--epsilon-sweep needs 0 < lo <= hi <= 1 and steps >= 1")
        return [float(e) for e in np.geomspace(lo, hi, steps)]
    return [_usage_checked(parser, checked_real, "--epsilon", e, 0, 1) for e in args.epsilon]


def _cmd_simulate(parser: _Parser, args) -> int:
    _usage_checked(parser, checked_integer, "--trials", args.trials, 1)
    code = _resolve_code(parser, args)
    config = _decode_config(parser, args)
    epsilons = _parse_epsilons(parser, args)
    _usage_checked(parser, checked_integer, "--max-failures", args.max_failures, 0)  # 0 disables the early stop
    _usage_checked(parser, checked_integer, "--jobs", args.jobs, 1)
    max_failures = None if args.max_failures == 0 else args.max_failures
    stats = run_simulation(
        code, epsilons, args.trials, config,
        master_seed=args.seed, jobs=args.jobs, max_failures=max_failures,
    )
    csv_text = stats_to_csv(stats)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(csv_text)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(stats_to_json(stats))
        print(f"wrote {args.json}")
    return 0


def _cmd_oracle_check(parser: _Parser, args) -> int:
    _usage_checked(parser, checked_real, "--epsilon", args.epsilon, 0, 1)
    _usage_checked(parser, checked_integer, "--trials", args.trials, 1)
    code = _resolve_code(parser, args)
    config = _decode_config(parser, args)
    prior = depolarizing_prior(code.n, args.epsilon)
    rng = np.random.default_rng(args.seed)
    rows = ["trial,qubit,pauli,bp_belief,exact_marginal,abs_diff"]
    worst = 0.0
    for trial in range(args.trials):
        error = sample_error(prior, rng)
        syndrome = code.syndrome(error)
        result, _ = decode_with_heuristics(code, prior, syndrome, config)
        # one read of the beliefs per trial, as Python floats
        beliefs, exact = result.final_beliefs.tolist(), exact_marginals(code, prior, syndrome).tolist()
        for q in range(code.n):
            for v in range(4):
                diff = abs(beliefs[q][v] - exact[q][v])
                worst = max(worst, diff)
                rows.append(f"{trial},{q},{LETTERS[v]},{beliefs[q][v]!r},{exact[q][v]!r},{diff!r}")
    text = f"# qbp {__version__}\n# config {json.dumps(dataclasses.asdict(config), sort_keys=True)}\n"
    text += "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    print(f"max_abs_diff {worst!r}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="qbp", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qbp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a bicycle code file")
    p.add_argument("--bicycle", metavar="N,M,W", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deletion", choices=("balanced", "random"), default="balanced")
    p.add_argument("--out", required=True)
    p.add_argument("--h-out", default=None, help="sparse H output path (default: OUT.h)")
    p.set_defaults(func=functools.partial(_cmd_generate, p))

    p = sub.add_parser("inspect", help="report code structure")
    _add_code_source(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dot", default=None, help="write the decorated Tanner graph in DOT form")
    p.set_defaults(func=functools.partial(_cmd_inspect, p))

    p = sub.add_parser("decode", help="decode one syndrome or injected error")
    _add_code_source(p)
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--syndrome", metavar="+-...", help="syndrome string over {+,-}")
    what.add_argument("--inject", metavar="PAULI", help="error to inject, e.g. IX")
    p.add_argument("--epsilon", type=float, default=0.1)
    _add_decode_config(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default=None, help="write per-iteration beliefs CSV")
    p.set_defaults(func=functools.partial(_cmd_decode, p))

    p = sub.add_parser("simulate", help="Monte Carlo block-error sweep")
    _add_code_source(p)
    points = p.add_mutually_exclusive_group(required=True)
    points.add_argument("--epsilon", type=float, action="append", default=None)
    points.add_argument("--epsilon-sweep", metavar="LO:HI:STEPS", default=None, help="log-spaced sweep")
    p.add_argument("--trials", type=int, required=True)
    _add_decode_config(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--max-failures", type=int, default=100, help="early stop per point; 0 disables")
    p.add_argument("--out", default=None, help="results CSV path (default: stdout)")
    p.add_argument("--json", default=None, help="also write a JSON results file")
    p.set_defaults(func=functools.partial(_cmd_simulate, p))

    p = sub.add_parser("oracle-check", help="compare BP beliefs against exact marginals")
    _add_code_source(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    _add_decode_config(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=functools.partial(_cmd_oracle_check, p))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (CodeFormatError, GenerationError, OSError, ValueError) as exc:
        print(f"qbp: error: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
