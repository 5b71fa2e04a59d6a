"""Monte Carlo block-error evaluation over depolarizing channels.

Each trial draws a Pauli error, decodes its syndrome, and classifies the
residual (error times correction): a nontrivial residual syndrome is a
detected failure, a residual inside the stabilizer group is a success, and
anything else is a logical (undetected) failure.  A correction equal to the
error, the usual case, is a success without forming the residual.  Trials use
counter-based RNG streams derived from (master seed, epsilon index, trial
index), so results are bit-identical regardless of how many workers run
them.

A trial's error is drawn as positions (pauli's one array layout, and the
one form a PauliOperator stores) from a letter-major (3, n) sampling table,
and its syndrome is read from them; the decoder's correction holds the
positions of its decision, and the two are compared as positions: only a
correction other than the error forms their product.  No trial calls
`letters` or `from_letters`.

A sweep is one ordered stream of chunks of trials, point by point and in
trial order, however many workers run them.  run_simulation folds it into
each point's counts up to the early-stop cut, so no outcome outlives its
chunk and memory does not grow with the trial count.  Each sweep has its
own chunk runner, in the calling process or in each pool worker; nothing
is kept in the module between sweeps.

The runner builds what depends only on the sweep point once per point:
the prior, its sampling table and the decoder's read-only start
record (bp.point_start): the floored working prior and its log, the opening
messages and the first check update's tables for either syndrome sign.
Each decode copies the working prior, which the heuristics mutate, and its
first iteration selects from the tables by its syndrome's signs.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bp import DecodeConfig, depolarizing_prior, validate_prior
from . import bp, codes
from .codes import StabilizerCode, checked_integer, checked_real
from .heuristics import decode_with_heuristics
from .pauli import PauliOperator

SUCCESS = "success"
DETECTED = "detected"
LOGICAL = "logical"

_TRIAL_CLASS = {codes.STABILIZER: SUCCESS, codes.DETECTABLE: DETECTED, codes.LOGICAL: LOGICAL}

_CHUNK_TRIALS = 50


@dataclass(frozen=True)
class TrialOutcome:
    classification: str
    iterations_used: int
    perturbations: int
    error_weight: int


@dataclass
class PointStats:
    epsilon: float
    trials: int
    failures: int
    detected: int
    logical: int
    bler: float
    ci_low: float
    ci_high: float
    mean_iterations: float
    early_stopped: bool


@dataclass
class SimStats:
    points: list
    master_seed: int
    trials_requested: int
    max_failures: int | None
    config: DecodeConfig
    code_fingerprint: str


def wilson_interval(failures: int, trials: int, z: float = 1.959963984540054):
    """95% Wilson score interval for a binomial proportion."""
    trials = checked_integer("trials", trials, 1)
    failures = checked_integer("failures", failures, -math.inf)  # its range is [0, trials], below
    if not 0 <= failures <= trials:
        raise ValueError(f"failures must lie in [0, trials] = [0, {trials}], got {failures}")
    p = failures / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    lo = 0.0 if failures == 0 else max(0.0, center - half)
    hi = 1.0 if failures == trials else min(1.0, center + half)
    return lo, hi


def sampling_table(prior: np.ndarray) -> np.ndarray:
    """The validated prior's cumulative I, X, Y sums, letter-major (3, n): row
    l - 1 is the threshold a draw reaches for letter l or above in sample_error."""
    prior = np.asarray(prior, dtype=np.float64)
    prior = validate_prior(prior, prior.shape[0] if prior.ndim else 0)
    return np.ascontiguousarray(np.cumsum(prior, axis=1)[:, :3].T)


def sample_error(prior: np.ndarray, rng, table: np.ndarray | None = None) -> PauliOperator:
    """Independent per-qubit draw from the channel prior.

    A sweep passes table, the prior's sampling_table, built once per point.
    A qubit's letter l is where its draw reaches threshold l - 1 but not l.
    """
    if table is None:
        table = sampling_table(prior)
    reached = rng.random(table.shape[1]) >= table
    reached[:2] &= ~reached[1:]
    return PauliOperator._from_positions(table.shape[1], np.flatnonzero(reached))


def classify_residual(code: StabilizerCode, error: PauliOperator, correction: PauliOperator) -> str:
    """The trial class of the residual error * correction; a correction equal
    to the error, the usual one, is a success without forming the product."""
    if error == correction:
        return SUCCESS
    return _TRIAL_CLASS[code.residual_class(error * correction)]


def run_trial(code: StabilizerCode, prior: np.ndarray, config: DecodeConfig, rng,
              table: np.ndarray | None = None, start: bp.PointStart | None = None) -> TrialOutcome:
    """One sampled error, decoded and classified.

    table is passed on to sample_error, and start, the prior's
    bp.point_start record, to the decoder.  Only the event log's len() is
    read, so no event is built.
    """
    error = sample_error(prior, rng, table)
    syndrome = code.syndrome(error)
    result, events = decode_with_heuristics(code, prior, syndrome, config, rng=rng, _start=start)
    return TrialOutcome(
        classification=classify_residual(code, error, result.correction),
        iterations_used=result.iterations_used,
        perturbations=len(events),
        error_weight=error.weight,
    )


# -- sweep plumbing ----------------------------------------------------------

class _Sweep:
    """One sweep's chunk runner: a point's prior, sampling table and
    bp.point_start record are built on its first chunk and shared by its
    trials.  run_trial is looked up in the module, where bench/spans.py wraps it."""

    def __init__(self, code: StabilizerCode, config: DecodeConfig, master_seed: int):
        self.code, self.config, self.master_seed = code, config, master_seed
        self.points = {}

    def __call__(self, chunk) -> list:
        """The outcomes of chunk (eps_index, eps, start, stop), in trial order."""
        eps_index, eps, start, stop = chunk
        point = self.points.get(eps_index)
        if point is None:
            prior = depolarizing_prior(self.code.n, eps)
            point = self.points[eps_index] = (prior, sampling_table(prior), bp.point_start(self.code, prior))
        prior, table, begin = point
        code, config, seed = self.code, self.config, self.master_seed
        return [run_trial(code, prior, config, np.random.default_rng([seed, eps_index, t]), table, begin)
                for t in range(start, stop)]


_worker_sweep: _Sweep | None = None  # a pool worker's own runner; the caller's process never sets it


def _init_worker(code: StabilizerCode, config: DecodeConfig, master_seed: int):
    global _worker_sweep
    _worker_sweep = _Sweep(code, config, master_seed)


def _run_chunk(chunk) -> list:
    return _worker_sweep(chunk)


def _bounded_map(pool: ProcessPoolExecutor, chunks, ahead: int):
    """pool.map(_run_chunk, chunks) with at most `ahead` chunks unread; closing it cancels those not started."""
    pending = collections.deque(pool.submit(_run_chunk, chunk) for chunk in itertools.islice(chunks, ahead))
    try:
        while pending:
            outcomes = pending.popleft().result()
            pending.extend(pool.submit(_run_chunk, chunk) for chunk in itertools.islice(chunks, 1))
            yield outcomes
    finally:
        for future in pending:
            future.cancel()


def _chunk_stream(code: StabilizerCode, epsilons, trials: int, config: DecodeConfig,
                  master_seed: int, jobs: int):
    """For each point in order, an iterator over its chunks' outcome lists in
    chunk order.  A pool of jobs > 1 workers lives as long as the stream;
    dropping a point's iterator cancels its chunks not yet started."""
    if jobs > 1:
        pool = ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker, initargs=(code, config, master_seed))
        run_chunks = functools.partial(_bounded_map, pool, ahead=2 * jobs)
    else:
        pool, run_chunks = None, functools.partial(map, _Sweep(code, config, master_seed))
    try:
        for eps_index, eps in enumerate(epsilons):
            yield run_chunks((eps_index, eps, start, min(start + _CHUNK_TRIALS, trials))
                             for start in range(0, trials, _CHUNK_TRIALS))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def run_simulation(code: StabilizerCode, epsilons, trials: int, config: DecodeConfig,
                   master_seed: int, jobs: int = 1, max_failures: int | None = 100) -> SimStats:
    """Sweep the depolarizing strengths; deterministic for a fixed master seed.

    max_failures, when set, stops each sweep point after the failure count is
    reached on the trial-index-ordered prefix (the cut is identical however
    many workers are used).  Pass None to always run every trial.
    """
    # Python numbers from here on: a numpy integer would not write as JSON
    trials, jobs = checked_integer("trials", trials, 1), checked_integer("jobs", jobs, 1)
    master_seed = checked_integer("master_seed", master_seed, 0)
    max_failures = None if max_failures is None else checked_integer("max_failures", max_failures, 1)
    epsilons = [checked_real(f"epsilons[{i}]", eps, 0, 1) for i, eps in enumerate(epsilons)]
    points = []
    with contextlib.closing(_chunk_stream(code, epsilons, trials, config, master_seed, jobs)) as stream:
        for eps, chunks in zip(epsilons, stream):
            ran = detected = logical = iterations = 0
            for outcome in itertools.chain.from_iterable(chunks):
                ran += 1
                iterations += outcome.iterations_used
                if outcome.classification == DETECTED:
                    detected += 1
                elif outcome.classification == LOGICAL:
                    logical += 1
                else:
                    continue
                if max_failures is not None and detected + logical >= max_failures:
                    break
            failures = detected + logical
            lo, hi = wilson_interval(failures, ran)
            points.append(PointStats(epsilon=eps, trials=ran, failures=failures, detected=detected,
                                     logical=logical, bler=failures / ran, ci_low=lo, ci_high=hi,
                                     mean_iterations=iterations / ran, early_stopped=ran < trials))
    return SimStats(points=points, master_seed=master_seed, trials_requested=trials, max_failures=max_failures,
                    config=config, code_fingerprint=code.fingerprint())


# -- serialization -----------------------------------------------------------

def _config_echo(stats: SimStats) -> dict:
    return {
        "version": __version__,
        "config": dataclasses.asdict(stats.config),
        "master_seed": stats.master_seed,
        "trials_requested": stats.trials_requested,
        "max_failures": stats.max_failures,
        "code_fingerprint": stats.code_fingerprint,
    }


def stats_to_csv(stats: SimStats) -> str:
    lines = [f"# qbp {__version__}", f"# {json.dumps(_config_echo(stats), sort_keys=True)}"]
    lines.append("epsilon,trials,failures,detected,logical,bler,ci_low,ci_high,mean_iterations")
    for p in stats.points:
        lines.append(
            f"{p.epsilon},{p.trials},{p.failures},{p.detected},{p.logical},"
            f"{p.bler},{p.ci_low},{p.ci_high},{p.mean_iterations}"
        )
    return "\n".join(lines) + "\n"


def stats_to_json(stats: SimStats) -> str:
    payload = _config_echo(stats)
    payload["points"] = [dataclasses.asdict(p) for p in stats.points]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
