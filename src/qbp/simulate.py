"""Monte Carlo block-error evaluation over depolarizing channels.

Each trial draws a Pauli error, decodes its syndrome, and classifies the
residual (error times correction): a nontrivial residual syndrome is a
detected failure, a residual inside the stabilizer group is a success, and
anything else is a logical (undetected) failure.  An identity residual, the
usual case, is a success without a syndrome.  Trials use counter-based RNG
streams derived from (master seed, epsilon index, trial index), so results
are bit-identical regardless of how many workers run them.

A trial's error is drawn as positions (pauli's one array layout) from a
letter-major (3, n) sampling table, and its syndrome is read from them; no
trial builds per-qubit letters.

What depends only on the sweep point is built once per point in each
worker: the prior, its sampling table and the decoder's read-only start
record (bp.point_start): the floored working prior and its log, the opening
messages and the first check update's tables for either syndrome sign.
Each decode copies the two priors, which the heuristics mutate, and its
first iteration selects from the tables by its syndrome's signs.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bp import DecodeConfig, depolarizing_prior, validate_prior
from . import bp, codes
from .codes import StabilizerCode
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
    if trials <= 0:
        raise ValueError("trials must be positive")
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
    """The trial class of the residual error * correction; an identity
    residual, the usual one, is a success without computing its syndrome."""
    residual = error * correction
    if residual.is_identity:
        return SUCCESS
    return _TRIAL_CLASS[code.residual_class(residual)]


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


# -- parallel plumbing -------------------------------------------------------

_WORKER: dict = {}


def _init_worker(code: StabilizerCode, config: DecodeConfig, master_seed: int):
    _WORKER["code"] = code
    _WORKER["config"] = config
    _WORKER["master_seed"] = master_seed
    _WORKER["points"] = {}


def _run_chunk(args):
    eps_index, eps, start, stop = args
    code = _WORKER["code"]
    config = _WORKER["config"]
    master_seed = _WORKER["master_seed"]
    point = _WORKER["points"].get(eps_index)
    if point is None:
        prior = depolarizing_prior(code.n, eps)
        point = _WORKER["points"][eps_index] = (prior, sampling_table(prior), bp.point_start(code, prior))
    prior, table, begin = point
    return [
        run_trial(code, prior, config, np.random.default_rng([master_seed, eps_index, t]), table, begin)
        for t in range(start, stop)
    ]


def _aggregate(eps: float, outcomes, early_stopped: bool) -> PointStats:
    trials = len(outcomes)
    detected = sum(1 for o in outcomes if o.classification == DETECTED)
    logical = sum(1 for o in outcomes if o.classification == LOGICAL)
    failures = detected + logical
    total_iters = sum(o.iterations_used for o in outcomes)
    lo, hi = wilson_interval(failures, trials)
    return PointStats(
        epsilon=eps,
        trials=trials,
        failures=failures,
        detected=detected,
        logical=logical,
        bler=failures / trials,
        ci_low=lo,
        ci_high=hi,
        mean_iterations=total_iters / trials,
        early_stopped=early_stopped,
    )


def run_simulation(code: StabilizerCode, epsilons, trials: int, config: DecodeConfig,
                   master_seed: int, jobs: int = 1, max_failures: int | None = 100) -> SimStats:
    """Sweep the depolarizing strengths; deterministic for a fixed master seed.

    max_failures, when set, stops each sweep point after the failure count is
    reached on the trial-index-ordered prefix (the cut is identical however
    many workers are used).  Pass None to always run every trial.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if max_failures is not None and max_failures < 1:
        raise ValueError("max_failures must be >= 1, or None to run every trial")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if master_seed < 0:
        raise ValueError(f"master_seed must be non-negative, got {master_seed}")
    epsilons = [float(e) for e in epsilons]
    for eps in epsilons:
        if not 0 <= eps <= 1:
            raise ValueError(f"depolarizing strength must lie in [0, 1], got {eps}")
    points = []
    executor = None
    try:
        if jobs > 1:
            executor = ProcessPoolExecutor(
                max_workers=jobs, initializer=_init_worker, initargs=(code, config, master_seed)
            )
        else:
            _init_worker(code, config, master_seed)
        for eps_index, eps in enumerate(epsilons):
            chunks = [
                (eps_index, eps, start, min(start + _CHUNK_TRIALS, trials))
                for start in range(0, trials, _CHUNK_TRIALS)
            ]
            if executor is not None:
                results = executor.map(_run_chunk, chunks)
            else:
                results = map(_run_chunk, chunks)
            outcomes = []
            failures = 0
            for outcome in itertools.chain.from_iterable(results):
                outcomes.append(outcome)
                if outcome.classification != SUCCESS:
                    failures += 1
                    if max_failures is not None and failures >= max_failures:
                        break
            points.append(_aggregate(eps, outcomes, len(outcomes) < trials))
    finally:
        if executor is not None:
            executor.shutdown(cancel_futures=True)
    return SimStats(
        points=points,
        master_seed=master_seed,
        trials_requested=trials,
        max_failures=max_failures,
        config=config,
        code_fingerprint=code.fingerprint(),
    )


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
