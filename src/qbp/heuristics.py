"""Degeneracy-breaking interventions wrapped around the BP decoder.

Plain BP assigns identical beliefs to symmetric degenerate errors and stalls.
The interventions below break that symmetry when the decoder has run t_pert
iterations without satisfying the halting condition: freezing pins one
qubit's working prior to the identity, random perturbation tilts the X/Y/Z
prior entries of qubits touching frustrated checks, and collision targeting
narrows either intervention to the shared qubits of a pair of frustrated
checks.  All randomness flows through one per-decode generator, so a seed
replays the exact event sequence.

Each step returns one compact Intervention record: its kind, iteration,
trigger and qubits or the frustrated checks, and its draws array.  A decode
returns its records as an EventLog, whose len() counts the events without
building any; a Monte Carlo sweep reads only that.  Reading the log expands
the records into PerturbationEvents, with their per-qubit delta tuples, for
`qbp decode`, the tests and replay.

Perturbations accumulate on the working prior and keep no other state.  The
freeze schedule keeps one FreezeRegistry per decode call: the qubits tried
for each trigger, the qubits frozen now, and the active freeze, which the
next step retries while its trigger stays frustrated and keeps once it is
satisfied.  No step reports which priors it changed: after every step the
decode loop refreshes the outgoing messages of every qubit.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import bp
from .codes import StabilizerCode, checked_real, checked_syndrome, segment_positions

_FROZEN_PRIOR = np.maximum(np.array([1.0, 0.0, 0.0, 0.0]), bp.EPS_FLOOR)


@dataclass(frozen=True)
class PerturbationEvent:
    """One intervention, recorded for deterministic replay."""

    kind: str                      # "freeze" | "perturb"
    iteration: int
    trigger: tuple                 # ("check", c) or ("collision", c, c2)
    qubits: tuple[int, ...]
    deltas: tuple[tuple[float, float, float], ...] | None = None  # per qubit, perturb only


@dataclass(eq=False, slots=True)
class Intervention:
    """One heuristic step as it ran, kept compact until its events are read.

    A freeze, or a perturbation of given targets, is one group: trigger and
    qubits.  A perturbation over every frustrated check keeps those checks
    instead (trigger and qubits None), each one its own ("check", c) group
    over the check's qubits.  draws holds a perturbation's (incidences, 3)
    uniform draws in group order.
    """

    kind: str                      # "freeze" | "perturb"
    iteration: int
    trigger: tuple | None = None
    qubits: tuple | None = None
    checks: tuple | None = None
    draws: np.ndarray | None = None

    def events(self, code: StabilizerCode) -> list[PerturbationEvent]:
        """One PerturbationEvent per group, in group order."""
        if self.checks is None:
            groups = [(self.trigger, self.qubits)]
        else:
            groups = [(("check", c), code.check_qubits[c]) for c in self.checks]
        if self.draws is None:
            return [PerturbationEvent(self.kind, self.iteration, trig, qubits) for trig, qubits in groups]
        deltas = map(tuple, self.draws.tolist())
        return [PerturbationEvent(self.kind, self.iteration, trig, qubits, tuple(itertools.islice(deltas, len(qubits))))
                for trig, qubits in groups]


class EventLog(Sequence):
    """A decode's PerturbationEvents, expanded from its Intervention records on first read.

    len() counts the events without building any.  Indexing, iteration and
    == (with another log or a list) read the expanded events.
    """

    def __init__(self, code: StabilizerCode, records: list[Intervention]):
        self.code = code
        self.records = records

    def __len__(self) -> int:
        return sum(1 if r.checks is None else len(r.checks) for r in self.records)

    @cached_property
    def _events(self) -> list[PerturbationEvent]:
        return [event for r in self.records for event in r.events(self.code)]

    def __getitem__(self, index):
        return self._events[index]

    def __eq__(self, other):
        if isinstance(other, EventLog):
            other = other._events
        return self._events == other if isinstance(other, list) else NotImplemented


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
                 delta: float, iteration: int = 0, targets=None, trigger=None) -> Intervention:
    """Scale the X/Y/Z prior entries of the target qubits by independent (1 + U[0, delta]).

    With no explicit targets, every qubit of every frustrated check is
    perturbed once per (check, qubit) incidence.  Perturbations accumulate on
    the working prior for the rest of the decode call.  Returns the step's
    record: the given trigger and targets, or the frustrated checks, and the
    draws.
    """
    delta = checked_real("delta", delta, 0)
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
    if targets is not None:
        return Intervention("perturb", iteration, trigger, tuple(targets), draws=draws)
    return Intervention("perturb", iteration, checks=tuple(frustrated), draws=draws)


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
                collision: bool = False) -> Intervention | None:
    """One step of the freeze schedule; returns its record, or None to escalate.

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
        q = remaining[rng.integers(len(remaining))]  # the draw rng.choice(remaining) makes
        used.add(q)
        registry.frozen.add(q)
        registry.active = (trigger, candidates, q, wp[q].copy())
        wp[q] = _FROZEN_PRIOR
        return Intervention("freeze", iteration, trigger, (q,))

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
        record = freeze(trigger, candidates)
        if record is not None:
            return record
    return None


def decode_with_heuristics(code: StabilizerCode, prior: np.ndarray, syndrome: np.ndarray,
                           config: bp.DecodeConfig | None = None, rng=None, trace=None, *,
                           _start: bp.PointStart | None = None) -> tuple[bp.DecodeResult, EventLog]:
    """BP decoding with the configured degeneracy-breaking schedule.

    Returns (DecodeResult, EventLog).  With heuristic "none" this is exactly
    the plain decoder, no generator is built and the event log is empty.
    The log holds one record per intervention: a sweep reads only its len(),
    and reading it builds the events.
    The decode starts from bp.point_start(code, prior), built here after the
    syndrome is validated unless the caller passes it as _start (a sweep
    builds one per point): the decode copies its working prior and takes its
    first iteration's check messages from its tables.
    """
    config = config or bp.DecodeConfig()
    records: list[Intervention] = []
    intervene = None
    if config.heuristic != "none":
        if rng is None:
            rng = np.random.default_rng(config.seed)
        registry = FreezeRegistry()
        collision = config.heuristic.startswith("collision")
        freezing = config.heuristic.endswith("freeze")

        def intervene(state: bp.MessageState, iteration: int, frustrated: list):
            targets = trigger = None
            if freezing:
                record = freeze_step(state, code, frustrated, rng, iteration=iteration,
                                     registry=registry, collision=collision)
                if record is not None:
                    records.append(record)
                    return
                # exhausted freeze triggers escalate to the full random
                # perturbation over every frustrated check
            elif collision:
                pair = collision_targets(code, frustrated)
                if pair is not None:
                    c, c2, shared = pair
                    targets, trigger = shared, ("collision", c, c2)
            records.append(perturb_step(state, code, frustrated, rng, config.delta,
                                        iteration=iteration, targets=targets, trigger=trigger))

    if _start is None:
        syndrome = checked_syndrome(syndrome, code.m)
        _start = bp.point_start(code, prior)
    result = bp._run(code, _start, syndrome, config, intervene=intervene, trace=trace)
    return result, EventLog(code, records)
