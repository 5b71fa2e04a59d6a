"""Quaternary belief propagation on the decorated Tanner graph.

Each directed Tanner edge carries one float.  The check update only reads an
incoming message through its commutation bias d = P(commute) - P(anticommute)
against the edge decoration, so qubit-to-check messages are kept as d.  The
syndrome constraint sees the product of the other biases, and the outgoing
4-vector t * sign + 1/4 splits the two-way mass evenly over the commuting
and anticommuting letters, so check-to-qubit messages are kept as t.  This
equals the naive sum over all neighbor assignments at O(degree) cost.

The qubit update works letter-major: its per-edge 4-vectors are (4, E)
arrays over the qubit-sorted edges (`EdgeArrays.sign` has the same layout),
so each letter's products, leave-one-out quotients and normalisation run
over contiguous rows.  It keeps the float operations, and their order, of
the earlier (E, 4) kernel, so decodes are bit-identical with it; in
particular the projection onto d sums its four terms as
(r0 + s2 r2) + (s1 r1 + s3 r3), the order numpy's einsum used.

The schedule is synchronous flooding: all checks update, then all qubits,
then beliefs, hard decision, and the halting test, once per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codes import EdgeArrays, StabilizerCode
from .pauli import PauliOperator

# Strictly positive floor applied to message and belief entries after each
# normalization so that no letter is ever absorbed at exactly zero.  The value
# must stay far below every oracle-equivalence tolerance: a floored entry
# renormalizes to roughly floor / (consistent mass), which at 1e-12 already
# exceeds 1e-10 for low-mass rows.
EPS_FLOOR = 1e-30

HEURISTICS = ("none", "freeze", "perturb", "collision_freeze", "collision_perturb")


def depolarizing_prior(n: int, eps: float) -> np.ndarray:
    """Per-qubit prior (1-eps, eps/3, eps/3, eps/3) as an (n, 4) array."""
    if not 0 <= eps <= 1:
        raise ValueError(f"depolarizing strength must lie in [0, 1], got {eps}")
    row = np.array([1.0 - eps, eps / 3.0, eps / 3.0, eps / 3.0])
    return np.tile(row, (n, 1))


def validate_prior(prior: np.ndarray, n: int) -> np.ndarray:
    prior = np.asarray(prior, dtype=np.float64)
    if prior.shape != (n, 4):
        raise ValueError(f"prior must have shape ({n}, 4), got {prior.shape}")
    if (prior < 0).any():
        raise ValueError("prior has negative entries")
    if np.abs(prior.sum(axis=1) - 1.0).max() > 1e-12:
        raise ValueError("prior rows must sum to 1")
    return prior


@dataclass(frozen=True)
class DecodeConfig:
    max_iterations: int = 90
    t_pert: int = 6
    delta: float = 0.1
    heuristic: str = "none"
    seed: int | None = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 1 <= self.t_pert <= self.max_iterations:
            raise ValueError("need 1 <= t_pert <= max_iterations")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if self.heuristic not in HEURISTICS:
            raise ValueError(f"unknown heuristic {self.heuristic!r}; choose from {HEURISTICS}")


@dataclass
class MessageState:
    """Mutable per-decode state: one scalar per directed edge plus the working priors.

    Edge arrays are check-major.  With s the letters' commutation signs
    against edge e's decoration, d_qc[e] = <m, s> for the qubit-to-check
    4-vector m, and the check-to-qubit 4-vector is t_cq[e] * s + 1/4.  The
    4-vectors themselves exist only inside the qubit update, as letter-major
    (4, E) arrays in qubit-sorted order.  The working prior starts as the
    channel prior; heuristics mutate it in place.
    """

    working_prior: np.ndarray  # (n, 4)
    d_qc: np.ndarray           # (E,) qubit-to-check commutation bias
    t_cq: np.ndarray           # (E,) check-to-qubit scalar


@dataclass
class DecodeResult:
    correction: PauliOperator
    converged: bool
    iterations_used: int
    final_beliefs: np.ndarray = field(repr=False)


def _spread(rows: np.ndarray, ea: EdgeArrays) -> np.ndarray:
    """Per-qubit (n, 4) rows repeated onto the qubit-sorted edges, as (4, E)."""
    return np.repeat(rows.T[:, ea.active_qubits], np.diff(ea.qubit_start), axis=1)


def _project(rows: np.ndarray, ea: EdgeArrays) -> np.ndarray:
    """Commutation bias of (4, E) qubit-sorted rows, returned check-major.

    The sum order (r0 + s2 r2) + (s1 r1 + s3 r3) is fixed: it is the order
    numpy's einsum("ij,ij->i") summed four columns in the (E, 4) kernel, so
    decodes stay bit-identical with it.  Letter I commutes with every label,
    so s0 = 1.
    """
    sign = ea.sign
    d = sign[2] * rows[2]
    d += rows[0]
    rest = sign[1] * rows[1]
    rest += sign[3] * rows[3]
    d += rest
    return d.take(ea.qubit_rank)


def init_messages(code: StabilizerCode, prior: np.ndarray) -> MessageState:
    """Each qubit opens by sending its prior; check messages start uniform (t = 0)."""
    prior = validate_prior(prior, code.n)
    wp = np.maximum(prior, EPS_FLOOR)
    ea = code.edges
    d_qc = _project(_spread(wp, ea), ea)
    return MessageState(working_prior=wp, d_qc=d_qc, t_cq=np.zeros(len(ea.qubit)))


def check_update(state: MessageState, code: StabilizerCode, syndrome: np.ndarray) -> None:
    """Refresh every check-to-qubit message for the given syndrome.

    The outgoing value for letter E is (1 + s_c * sign(E) * prod) / 4 where
    prod multiplies the commute/anticommute biases of all other incoming
    messages; zero biases are handled exactly.  Stores t = s_c * prod / 4.
    """
    ea = code.edges
    s_edge = syndrome.astype(np.float64)[ea.check]
    d = state.d_qc
    zero = d == 0.0
    if zero.any():
        d1 = np.where(zero, 1.0, d)
        total = np.multiply.reduceat(d1, ea.check_start[:-1])
        nzero = np.add.reduceat(zero.astype(np.int64), ea.check_start[:-1])
        tot_e = total[ea.check]
        nz_e = nzero[ea.check]
        prod_excl = np.where(nz_e == 0, tot_e / d1, np.where((nz_e == 1) & zero, tot_e, 0.0))
    else:
        total = np.multiply.reduceat(d, ea.check_start[:-1])
        prod_excl = total[ea.check] / d
    t = s_edge * prod_excl
    t *= 0.25
    state.t_cq = t


def _qubit_products(state: MessageState, code: StabilizerCode):
    """Unnormalized beliefs (prior times all incoming messages), and the
    incoming t * sign + 1/4 as (4, E) qubit-sorted rows."""
    ea = code.edges
    w = state.t_cq.take(ea.qubit_order) * ea.sign
    w += 0.25
    np.maximum(w, EPS_FLOOR, out=w)
    prod = np.multiply.reduceat(w, ea.qubit_start[:-1], axis=1)
    bu = state.working_prior.copy()
    bu[ea.active_qubits] *= prod.T
    return bu, w


def _normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Normalize (k, 4) rows in place; a (4, E) array is passed transposed."""
    totals = rows[:, 0] + rows[:, 1] + rows[:, 2] + rows[:, 3]
    dead = totals <= 0.0
    if dead.any():
        rows[dead] = 0.25
        totals[dead] = 1.0
    rows /= totals[:, None]
    np.maximum(rows, EPS_FLOOR, out=rows)
    return rows


def qubit_update(state: MessageState, code: StabilizerCode) -> np.ndarray:
    """Refresh every qubit-to-check message; returns the fresh beliefs."""
    ea = code.edges
    bu, w = _qubit_products(state, code)
    out = np.divide(_spread(bu, ea), w, out=w)
    _normalize_rows(out.T)
    state.d_qc = _project(out, ea)
    return _normalize_rows(bu)


def compute_beliefs(state: MessageState, code: StabilizerCode) -> np.ndarray:
    """Normalized per-qubit beliefs from the current check messages."""
    bu, _ = _qubit_products(state, code)
    return _normalize_rows(bu)


def hard_decision(beliefs: np.ndarray) -> PauliOperator:
    """Per-qubit argmax with deterministic tie-break order I < X < Y < Z."""
    return PauliOperator.from_letters(np.argmax(beliefs, axis=1).astype(np.int8))


def _run(code, prior, syndrome, config, intervene=None, trace=None) -> DecodeResult:
    """Flooding-schedule driver shared by the plain and heuristic decoders.

    intervene, when given, is called as intervene(state, iteration, frustrated)
    after every t_pert unconverged iterations, with frustrated listing the
    checks whose syndrome bit disagrees with the current hard decision (never
    empty, since the decode has not halted).
    """
    syndrome = np.asarray(syndrome, dtype=np.int8)
    if syndrome.shape != (code.m,):
        raise ValueError(f"syndrome must have {code.m} bits, got shape {syndrome.shape}")
    state = init_messages(code, prior)
    target01 = ((1 - syndrome) // 2).astype(np.uint8)
    since_intervention = 0
    for iteration in range(1, config.max_iterations + 1):
        check_update(state, code, syndrome)
        beliefs = qubit_update(state, code)
        letters = np.argmax(beliefs, axis=1).astype(np.int8)
        if trace is not None:
            trace.append((iteration, beliefs.copy()))
        violated = code.syndrome01_of_letters(letters)
        if np.array_equal(violated, target01):
            return DecodeResult(
                correction=PauliOperator.from_letters(letters),
                converged=True,
                iterations_used=iteration,
                final_beliefs=beliefs,
            )
        since_intervention += 1
        if intervene is not None and since_intervention >= config.t_pert and iteration < config.max_iterations:
            frustrated = np.flatnonzero(violated != target01)
            intervene(state, iteration, [int(c) for c in frustrated])
            # outgoing qubit messages must reflect the mutated priors in the
            # very next iteration (a no-op for untouched qubits)
            qubit_update(state, code)
            since_intervention = 0
    return DecodeResult(
        correction=PauliOperator.from_letters(letters),
        converged=False,
        iterations_used=iteration,
        final_beliefs=beliefs,
    )


def decode(code: StabilizerCode, prior: np.ndarray, syndrome: np.ndarray,
           config: DecodeConfig | None = None, trace=None) -> DecodeResult:
    """Plain BP decoding: iterate to the first syndrome-matching hard decision.

    Non-convergence within max_iterations is reported via converged=False,
    not as an error.  A config naming a heuristic is rejected: those decodes
    go through heuristics.decode_with_heuristics.
    """
    config = config or DecodeConfig()
    if config.heuristic != "none":
        raise ValueError(f"decode runs plain BP; use decode_with_heuristics for heuristic {config.heuristic!r}")
    return _run(code, prior, syndrome, config, intervene=None, trace=trace)
