"""Degeneracy-breaking interventions wrapped around the BP decoder.

Plain BP assigns identical beliefs to symmetric degenerate errors and stalls.
The interventions below break that symmetry when the decoder has run t_pert
iterations without satisfying the halting condition: freezing pins one
qubit's working prior to the identity, random perturbation tilts the X/Y/Z
prior entries of qubits touching frustrated checks, and collision targeting
narrows either intervention to the shared qubits of a pair of frustrated
checks.  All randomness flows through one per-decode generator, so a seed
replays the exact event sequence.

The event log is built only when asked for: `decode_with_heuristics`
returns it to `qbp decode`, the tests and replay.  A Monte Carlo sweep only
counts interventions; its steps make the same draws and prior updates but
build no PerturbationEvent and no per-qubit delta tuple.

Perturbations accumulate on the working prior and keep no other state.  The
freeze schedule keeps one FreezeRegistry per decode call: the qubits tried
for each trigger, the qubits frozen now, and the active freeze, which the
next step retries while its trigger stays frustrated and keeps once it is
satisfied.  No step reports which priors it changed: the decode loop finds
them by comparing the working prior with its copy from before the step, and
refreshes only those qubits' outgoing messages.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import bp
from .codes import StabilizerCode, segment_positions

_FROZEN_PRIOR = np.maximum(np.array([1.0, 0.0, 0.0, 0.0]), bp.EPS_FLOOR)


@dataclass(frozen=True)
class PerturbationEvent:
    """One intervention, recorded for deterministic replay."""

    kind: str                      # "freeze" | "perturb"
    iteration: int
    trigger: tuple                 # ("check", c) or ("collision", c, c2)
    qubits: tuple[int, ...]
    deltas: tuple[tuple[float, float, float], ...] | None = None  # per qubit, perturb only


def collision_targets(code: StabilizerCode, frustrated) -> tuple[int, int, tuple[int, ...]] | None:
    """First (lexicographic) pair of frustrated checks sharing at least one qubit."""
    return next(_colliding_pairs(code, frustrated), None)


def _colliding_pairs(code: StabilizerCode, frustrated):
    for i, c in enumerate(frustrated):
        for c2 in frustrated[i + 1:]:
            shared = code.shared_qubits(c, c2)
            if shared:
                yield c, c2, shared


def perturb_step(state: bp.MessageState, code: StabilizerCode, frustrated, rng,
                 delta: float, iteration: int = 0, targets=None, trigger=None,
                 log: bool = True) -> list[PerturbationEvent] | int:
    """Scale the X/Y/Z prior entries of the target qubits by independent (1 + U[0, delta]).

    With no explicit targets, every qubit of every frustrated check is
    perturbed once per (check, qubit) incidence.  Perturbations accumulate on
    the working prior for the rest of the decode call.  Returns one event per
    target group; with log=False only their number, from the same draws.
    """
    ea = code.edges
    if targets is not None:
        touched = np.asarray(targets, dtype=ea.qubit.dtype)
    else:
        # each frustrated check's qubits in group order
        touched = ea.qubit[segment_positions(ea.check_start, frustrated)]
    shape = (len(touched), 3)
    # one draw for all incidences consumes the generator exactly as one
    # draw per group would, in group order
    draws = rng.uniform(0.0, delta, size=shape) if delta > 0 else np.zeros(shape)
    if delta > 0 and len(touched):
        # each qubit's factors multiplied in incidence order, as a running
        # product from 1 would take them; a stable sort on the narrowest
        # unsigned type is a radix sort for n <= 65 536, in the same order
        order = np.argsort(touched.astype(np.min_scalar_type(code.n - 1)), kind="stable")
        ordered = touched[order]
        heads = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
        factors = np.multiply.reduceat(1.0 + draws[order], heads, axis=0)
        idx = ordered[heads]
        wp = state.working_prior
        rows = wp[idx]
        rows[:, 1:] *= factors
        wp[idx] = bp._normalize_rows(rows)
    if not log:
        return 1 if targets is not None else len(frustrated)
    groups = [(trigger, tuple(targets))] if targets is not None else [
        (("check", c), code.check_qubits[c]) for c in frustrated
    ]
    deltas = map(tuple, draws.tolist())
    return [PerturbationEvent("perturb", iteration, trig, qubits, tuple(itertools.islice(deltas, len(qubits))))
            for trig, qubits in groups]


@dataclass
class FreezeRegistry:
    """The freeze schedule's state for one decode call.

    tried maps each trigger to the qubits already frozen for it; frozen holds
    the qubits pinned now; active is the latest freeze as (trigger,
    candidates, qubit, saved prior row), or None.  A trigger's checks are
    trigger[1:].
    """

    tried: dict = field(default_factory=dict)
    frozen: set = field(default_factory=set)
    active: tuple | None = None


def freeze_step(state: bp.MessageState, code: StabilizerCode, frustrated, rng,
                registry: FreezeRegistry, iteration: int = 0,
                collision: bool = False, log: bool = True) -> PerturbationEvent | bool | None:
    """One step of the freeze schedule; returns its event (True with log=False), or None to escalate.

    While the active trigger stays frustrated, its frozen qubit is restored
    and an untried candidate is frozen instead; when the trigger runs out of
    candidates the caller is told to escalate to a perturbation.  A satisfied
    trigger keeps its qubit frozen and the next trigger is selected: the
    first colliding pair with untried shared qubits when collision targeting
    is on, else the lowest frustrated check with untried neighbors.
    """
    wp = state.working_prior

    def freeze(trigger, candidates):
        used = registry.tried.setdefault(trigger, set())
        remaining = sorted(set(candidates) - used - registry.frozen)
        if not remaining:
            return None
        q = int(rng.choice(remaining))
        used.add(q)
        registry.frozen.add(q)
        registry.active = (trigger, candidates, q, wp[q].copy())
        wp[q] = _FROZEN_PRIOR
        return PerturbationEvent("freeze", iteration, trigger, (q,)) if log else True

    if registry.active is not None:
        trigger, candidates, q, saved = registry.active
        registry.active = None
        if not set(frustrated).isdisjoint(trigger[1:]):
            wp[q] = saved
            registry.frozen.discard(q)
            return freeze(trigger, candidates)
        # trigger satisfied: its qubit stays frozen, move on
    pairs = _colliding_pairs(code, frustrated) if collision else ()
    for trigger, candidates in itertools.chain(
            ((("collision", c, c2), shared) for c, c2, shared in pairs),
            ((("check", c), code.check_qubits[c]) for c in frustrated)):
        event = freeze(trigger, candidates)
        if event is not None:
            return event
    return None


def decode_with_heuristics(code: StabilizerCode, prior: np.ndarray, syndrome: np.ndarray,
                           config: bp.DecodeConfig | None = None, rng=None, trace=None, *,
                           _log: bool = True, _start: bp.MessageState | None = None):
    """BP decoding with the configured degeneracy-breaking schedule.

    Returns (DecodeResult, events).  With heuristic "none" this is exactly
    the plain decoder, no generator is built and the event log is empty.
    With _log=False, as sweeps call it, the decode and its draws are the
    same, but the second item is the number of interventions, len(events).
    _start, when given, is bp.init_messages(code, prior), built once by the
    caller (a sweep builds one per point): the decode starts from a copy of
    its working prior and shares its read-only edge arrays.
    """
    config = config or bp.DecodeConfig()
    events: list[PerturbationEvent] = []
    count = 0
    intervene = None
    if config.heuristic != "none":
        if rng is None:
            rng = np.random.default_rng(config.seed)
        registry = FreezeRegistry()
        collision = config.heuristic.startswith("collision")
        freezing = config.heuristic.endswith("freeze")

        def intervene(state: bp.MessageState, iteration: int, frustrated: list):
            nonlocal count
            targets = trigger = None
            if freezing:
                event = freeze_step(state, code, frustrated, rng, iteration=iteration,
                                    registry=registry, collision=collision, log=_log)
                if event is not None:
                    if _log:
                        events.append(event)
                    else:
                        count += 1
                    return
                # exhausted freeze triggers escalate to the full random
                # perturbation over every frustrated check
            elif collision:
                pair = collision_targets(code, frustrated)
                if pair is not None:
                    c, c2, shared = pair
                    targets, trigger = shared, ("collision", c, c2)
            perturbed = perturb_step(state, code, frustrated, rng, config.delta,
                                     iteration=iteration, targets=targets, trigger=trigger, log=_log)
            if _log:
                events.extend(perturbed)
            else:
                count += perturbed

    result = bp._run(code, prior, syndrome, config, intervene=intervene, trace=trace, start=_start)
    return result, events if _log else count
