"""Degeneracy-breaking interventions wrapped around the BP decoder.

Plain BP assigns identical beliefs to symmetric degenerate errors and stalls.
The interventions below break that symmetry when the decoder has run t_pert
iterations without satisfying the halting condition: freezing pins one
qubit's working prior to the identity, random perturbation tilts the X/Y/Z
prior entries of qubits touching frustrated checks, and collision targeting
narrows either intervention to the shared qubits of a pair of frustrated
checks.  All randomness flows through one per-decode generator, so a seed
replays the exact event sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bp
from .codes import StabilizerCode

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
                 delta: float, iteration: int = 0, targets=None, trigger=None) -> list[PerturbationEvent]:
    """Scale the X/Y/Z prior entries of the target qubits by independent (1 + U[0, delta]).

    With no explicit targets, every qubit of every frustrated check is
    perturbed once per (check, qubit) incidence.  Perturbations accumulate on
    the working prior for the rest of the decode call.
    """
    groups = [(trigger, tuple(targets))] if targets is not None else [
        (("check", c), code.check_qubits[c]) for c in frustrated
    ]
    touched = [q for _, qubits in groups for q in qubits]
    shape = (len(touched), 3)
    # one draw for all incidences consumes the generator exactly as one
    # draw per group would, in group order
    draws = rng.uniform(0.0, delta, size=shape) if delta > 0 else np.zeros(shape)
    deltas = [tuple(row) for row in draws.tolist()]
    events = []
    start = 0
    for trig, qubits in groups:
        stop = start + len(qubits)
        events.append(PerturbationEvent("perturb", iteration, trig, qubits, tuple(deltas[start:stop])))
        start = stop
    if delta > 0 and touched:
        idx, where = np.unique(touched, return_inverse=True)
        factors = np.ones((len(idx), 3))
        np.multiply.at(factors, where, 1.0 + draws)
        wp = state.working_prior
        rows = wp[idx]
        rows[:, 1:] *= factors
        rows /= rows.sum(axis=1, keepdims=True)
        np.maximum(rows, bp.EPS_FLOOR, out=rows)
        wp[idx] = rows
    return events


@dataclass
class FreezeTracker:
    """The active freeze trigger and the qubit currently pinned for it."""

    trigger: tuple
    trigger_checks: tuple[int, ...]
    candidates: tuple[int, ...]
    frozen_qubit: int
    saved_prior: np.ndarray


@dataclass
class FreezeRegistry:
    """Per-decode memory: qubits already tried per trigger, and active freezes."""

    tried: dict = field(default_factory=dict)
    frozen: set = field(default_factory=set)

    def untried(self, trigger: tuple, candidates) -> list:
        used = self.tried.setdefault(trigger, set())
        return sorted(set(candidates) - used - self.frozen)


def freeze_step(state: bp.MessageState, code: StabilizerCode, frustrated, rng,
                iteration: int = 0, tracker: FreezeTracker | None = None,
                registry: FreezeRegistry | None = None, collision: bool = False):
    """One step of the freeze schedule; returns (tracker, events, escalate).

    While the active trigger stays frustrated, its frozen qubit is restored
    and an untried neighbor is frozen instead; when the trigger runs out of
    candidates the caller is told to escalate to a perturbation.  A satisfied
    trigger keeps its qubit frozen and the next trigger is selected: the
    first colliding pair with untried shared qubits when collision targeting
    is on, else the lowest frustrated check with untried neighbors.  Tried
    sets persist for the whole decode call via the registry.
    """
    registry = registry if registry is not None else FreezeRegistry()
    frustrated_set = set(frustrated)
    events: list[PerturbationEvent] = []

    def freeze(trigger, trigger_checks, candidates, q):
        registry.tried[trigger].add(q)
        registry.frozen.add(q)
        tr = FreezeTracker(
            trigger=trigger,
            trigger_checks=trigger_checks,
            candidates=tuple(candidates),
            frozen_qubit=q,
            saved_prior=state.working_prior[q].copy(),
        )
        state.working_prior[q] = _FROZEN_PRIOR
        events.append(PerturbationEvent("freeze", iteration, trigger, (q,)))
        return tr

    if tracker is not None:
        if frustrated_set & set(tracker.trigger_checks):
            state.working_prior[tracker.frozen_qubit] = tracker.saved_prior
            registry.frozen.discard(tracker.frozen_qubit)
            remaining = registry.untried(tracker.trigger, tracker.candidates)
            if remaining:
                q = int(rng.choice(remaining))
                return freeze(tracker.trigger, tracker.trigger_checks, tracker.candidates, q), events, False
            return None, events, True
        tracker = None  # trigger satisfied: leave its qubit frozen, move on

    if collision:
        for c, c2, shared in _colliding_pairs(code, frustrated):
            trigger = ("collision", c, c2)
            remaining = registry.untried(trigger, shared)
            if remaining:
                q = int(rng.choice(remaining))
                return freeze(trigger, (c, c2), shared, q), events, False
    for c in frustrated:
        trigger = ("check", c)
        neighbors = code.check_qubits[c]
        remaining = registry.untried(trigger, neighbors)
        if remaining:
            q = int(rng.choice(remaining))
            return freeze(trigger, (c,), neighbors, q), events, False
    return None, events, True


class _Controller:
    def __init__(self, code: StabilizerCode, config: bp.DecodeConfig, rng, events: list):
        self.code = code
        self.config = config
        self.rng = rng
        self.events = events
        self.tracker: FreezeTracker | None = None
        self.registry = FreezeRegistry()
        self.collision = config.heuristic.startswith("collision")
        self.freezing = config.heuristic.endswith("freeze")

    def __call__(self, state: bp.MessageState, iteration: int, frustrated: list):
        if not frustrated:
            return
        if self.freezing:
            self.tracker, events, escalate = freeze_step(
                state, self.code, frustrated, self.rng, iteration=iteration,
                tracker=self.tracker, registry=self.registry, collision=self.collision,
            )
            self.events.extend(events)
            if not escalate:
                return
            # exhausted freeze triggers escalate to the full random
            # perturbation over every frustrated check
            self.events.extend(
                perturb_step(state, self.code, frustrated, self.rng, self.config.delta,
                             iteration=iteration)
            )
            return
        targets = trigger = None
        if self.collision:
            pair = collision_targets(self.code, frustrated)
            if pair is not None:
                c, c2, shared = pair
                targets, trigger = shared, ("collision", c, c2)
        self.events.extend(
            perturb_step(state, self.code, frustrated, self.rng, self.config.delta,
                         iteration=iteration, targets=targets, trigger=trigger)
        )


def decode_with_heuristics(code: StabilizerCode, prior: np.ndarray, syndrome: np.ndarray,
                           config: bp.DecodeConfig | None = None, rng=None, trace=None):
    """BP decoding with the configured degeneracy-breaking schedule.

    Returns (DecodeResult, events).  With heuristic "none" this is exactly
    the plain decoder and the event log is empty.
    """
    config = config or bp.DecodeConfig()
    if config.heuristic == "none":
        return bp._run(code, prior, syndrome, config, intervene=None, trace=trace), []
    if rng is None:
        rng = np.random.default_rng(config.seed)
    events: list[PerturbationEvent] = []
    controller = _Controller(code, config, rng, events)
    result = bp._run(code, prior, syndrome, config, intervene=controller, trace=trace)
    return result, events
