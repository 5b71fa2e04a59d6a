"""Quaternary belief propagation on the decorated Tanner graph.

Each directed Tanner edge carries one float.  The check update only reads an
incoming message through its commutation bias d = P(commute) - P(anticommute)
against the edge decoration, so qubit-to-check messages are kept as d.  The
syndrome constraint sees the product of the other biases, and the outgoing
4-vector t * sign + 1/4 splits the two-way mass evenly over the commuting
and anticommuting letters, so check-to-qubit messages are kept as t.  This
equals the naive sum over all neighbor assignments at O(degree) cost.

The qubit update works in the log domain on the same scalars.  An incoming
check message takes two values: a = 1/4 + t on I and the edge's label, and
b = 1/4 - t on the other two letters.  Summed over a qubit's edges, log b
is the same for all four letters, a per-qubit constant that the shift to a
row maximum cancels, so it is dropped: the log-belief is log p_l + S_l for
l != I, S_l the sum of log(a / b) over the edges labelled l, and log p_I +
(S_X + S_Y) + S_Z for I, as every edge has one non-identity label.  One
bincount writes S_X, S_Y and S_Z into rows 1-3 of one letter-major (4, n)
table, its row 0 is their sum, and the log prior is added in one pass.  The
outgoing bias is d = tanh(x / 2), x = log(B_I + B_label) - log(B_other1 +
B_other2) - log(a / b), the leave-one-out of the edge's own message with no
division; one table of the first two terms, a row per label, is gathered
per edge.  No product is formed, so nothing underflows.

A code's first decode caches a plan on it (_plan): the labels its edges
carry, the letter pairs whose sums those labels read, and each edge's slot
in the outgoing table and in the belief table.  The outgoing pass forms
sums and logs only for the labels present: two of three on a CSS code,
whose edges carry no Y.

EPS_FLOOR applies where the linear-domain kernel applied it: to a and b (a
frozen t = +-1/4 gives log EPS_FLOOR, not -inf), the working prior and the
returned beliefs.  The B of the leave-one-out are the unfloored beliefs,
shifted to a row maximum of 1 and clipped only where exp would underflow.
Floored ones would divide a floored letter by its floored message to 1 and
hand back a letter that the other checks rule out.

The schedule is synchronous flooding: all checks update, then all qubits,
then beliefs, hard decision, and the halting test, once per iteration.  The
decode loop redoes no work whose inputs are unchanged and forms no message
that nothing reads, and stays bit for bit the decode that does.  It forms
the outgoing qubit messages only when a check update follows.  Every decode
starts from the PointStart of its prior (point_start), which a sweep builds
once per point and decode per call: its first check messages come from the
start's tables, selected by the syndrome's signs.
It takes the hard decision from the unnormalized beliefs (their column
maximum is exactly 1, and normalizing can only tie a letter within a few
ulp of it, which is checked) and normalizes only the beliefs it traces.
It returns its last unnormalized beliefs, and DecodeResult normalizes them
on the first read of final_beliefs, which a sweep never makes.  The
decision and the correction built from it are positions (pauli's one array
layout), not n letters.  The halting test runs only when those positions
changed, and XORs the code's packed anticommutation rows at them into a few
syndrome words, compared with the packed target word for word; it touches
no per-edge array.  The loop keeps the log working prior
between interventions.  After an intervention it takes the log of the
working prior afresh and recomputes every qubit's outgoing messages from the
log(a / b) it already holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import StabilizerCode, checked_integer, checked_real, checked_syndrome
from .pauli import PauliOperator

# Strictly positive floor, applied where the module docstring says, so that
# no letter is absorbed at exactly zero.  It must stay far below every oracle
# tolerance: a floored entry renormalizes to about floor / (consistent mass).
EPS_FLOOR = 1e-30

# Lower clip on log-beliefs shifted to a row maximum of 0, so that exp stays
# a normal float.  A clipped letter cannot move an outgoing bias, since an
# edge's own |log(a / b)| is at most log(0.5 / EPS_FLOOR) < 70.
_LOG_CLIP = -700.0

# The smallest check product whose quarter is a normal float: scaling such a
# product by 1/4 before the division by a bias |d| <= 1 rounds as scaling
# the quotient would.
_NORMAL_PROD = 2.0 ** -1020

# A letter whose unnormalized belief reaches this may divide to a tie with
# the row maximum of 1; below it, normalizing cannot change the argmax.
_NEAR_ONE = 1.0 - 2.0 ** -48

_LETTER_ROWS = np.arange(4).reshape(4, 1)  # I, X, Y, Z against (k,) letters

# The six letter pairs whose sums the outgoing bias reads, as two row gathers:
# I+X, I+Y, I+Z, then the letters anticommuting with X, Y, Z.
_PAIR_FIRST = np.array([1, 2, 3, 2, 1, 1])
_PAIR_SECOND = np.array([0, 0, 0, 3, 3, 2])

HEURISTICS = ("none", "freeze", "perturb", "collision_freeze", "collision_perturb")


def depolarizing_prior(n: int, eps: float) -> np.ndarray:
    """Per-qubit prior (1-eps, eps/3, eps/3, eps/3) as an (n, 4) array."""
    n, eps = checked_integer("n", n, 0), checked_real("eps", eps, 0, 1)
    row = np.array([1.0 - eps, eps / 3.0, eps / 3.0, eps / 3.0])
    return np.tile(row, (n, 1))


def validate_prior(prior: np.ndarray, n: int) -> np.ndarray:
    prior = np.asarray(prior, dtype=np.float64)
    if prior.shape != (n, 4):
        raise ValueError(f"prior must have shape ({n}, 4), got {prior.shape}")
    if not (prior >= 0).all():  # false for NaN, as is the row-sum test below
        raise ValueError("prior has negative or NaN entries")
    if not (np.abs(prior.sum(axis=1) - 1.0) <= 1e-12).all():
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
        # each number is stored as a Python int or float, which a JSON echo can write
        object.__setattr__(self, "max_iterations", checked_integer("max_iterations", self.max_iterations, 1))
        object.__setattr__(self, "t_pert", checked_integer("t_pert", self.t_pert, 1))
        if self.t_pert > self.max_iterations:
            raise ValueError("need 1 <= t_pert <= max_iterations")
        object.__setattr__(self, "delta", checked_real("delta", self.delta, 0))
        if self.heuristic not in HEURISTICS:
            raise ValueError(f"unknown heuristic {self.heuristic!r}; choose from {HEURISTICS}")
        if self.seed is not None:
            object.__setattr__(self, "seed", checked_integer("seed", self.seed, 0))


@dataclass
class MessageState:
    """Mutable per-decode state: one scalar per directed edge plus the working priors.

    Edge arrays are check-major.  With s the letters' commutation signs
    against edge e's decoration, d_qc[e] = <m, s> for the qubit-to-check
    4-vector m, and the check-to-qubit 4-vector is t_cq[e] * s + 1/4.  No
    4-vector is ever formed per edge.  The working prior starts as the
    channel prior, floored at EPS_FLOOR; heuristics mutate it in place.
    """

    working_prior: np.ndarray  # (n, 4)
    d_qc: np.ndarray           # (E,) qubit-to-check commutation bias
    t_cq: np.ndarray           # (E,) check-to-qubit scalar


class DecodeResult:
    """A decode's correction, convergence, iteration count and (n, 4) final beliefs.

    The decode loop hands over its last letter-major (4, n) unnormalized
    beliefs, which the first read of final_beliefs normalizes in place; a
    sweep never reads them.  Built by hand, it returns the array it is given.
    """

    def __init__(self, correction: PauliOperator, converged: bool, iterations_used: int,
                 final_beliefs: np.ndarray):
        self.correction = correction
        self.converged = converged
        self.iterations_used = iterations_used
        self._final_beliefs = final_beliefs
        self._unnormalized = None

    @classmethod
    def _of_loop(cls, code: StabilizerCode, positions: np.ndarray, converged: bool, iterations_used: int,
                 cols: np.ndarray) -> DecodeResult:
        result = cls(PauliOperator._from_positions(code.n, positions), converged, iterations_used, None)
        result._unnormalized = cols
        return result

    @property
    def final_beliefs(self) -> np.ndarray:
        if self._unnormalized is not None:
            self._final_beliefs, self._unnormalized = _normalize_rows(self._unnormalized.T), None
        return self._final_beliefs

    def __repr__(self) -> str:
        return (f"DecodeResult(correction={self.correction!r}, converged={self.converged!r}, "
                f"iterations_used={self.iterations_used!r})")


@dataclass(frozen=True)
class _Plan:
    """The decode loop's index arrays for one code, built by _plan on its first decode.

    rows are l - 1 of the non-identity labels the code's edges carry,
    ascending: all three in general, X and Z on a CSS code.  first and
    second are the rows of the letter pairs whose sums the outgoing bias
    reads for them, I + label for each row, then the two letters
    anticommuting with each label.  slot places each edge in the flattened
    (len(rows), n) table of its label's rank and its qubit, belief_slot in
    rows 1-3 of the flattened letter-major (4, n) belief table.
    """

    rows: np.ndarray         # (r,) l - 1 per label present
    first: np.ndarray        # (2r,) pair rows, as _PAIR_FIRST
    second: np.ndarray       # (2r,) pair rows, as _PAIR_SECOND
    slot: np.ndarray         # (E,) rank * n + qubit
    belief_slot: np.ndarray  # (E,) label * n + qubit


def _plan(code: StabilizerCode) -> _Plan:
    """The code's _Plan, cached on the code like its check degrees."""
    def build():
        slot, n = code.edges.slot, code.n
        label, qubit = np.divmod(slot, n)
        present = np.bincount(label, minlength=3) > 0
        rows = np.flatnonzero(present)
        rank = np.cumsum(present) - 1
        pairs = np.concatenate((rows, rows + 3))
        return _Plan(rows=rows, first=_PAIR_FIRST[pairs], second=_PAIR_SECOND[pairs],
                     slot=rank[label] * n + qubit, belief_slot=slot + n)
    return code._cached("bp_plan", build)


def _outgoing(cols: np.ndarray, plan: _Plan, log_ab: np.ndarray | None = None) -> np.ndarray:
    """Per-edge bias d = tanh(x / 2) from positive letter-major (4, n) beliefs B of any scale.

    x = log(B_I + B_label) - log(B_other1 + B_other2), less the edge's own
    log(a / b) when given: the leave-one-out of its incoming message.  Only
    the pair sums of the labels the plan's code has are formed.
    """
    sums = cols[plan.first]
    sums += cols[plan.second]
    logs = np.log(sums, out=sums)
    x = logs[:len(plan.rows)]
    x -= logs[len(plan.rows):]
    x = x.ravel().take(plan.slot)
    if log_ab is not None:
        x -= log_ab
    x *= 0.5
    return np.tanh(x, out=x)


def init_messages(code: StabilizerCode, prior: np.ndarray) -> MessageState:
    """Each qubit opens by sending its prior; check messages start uniform (t = 0)."""
    prior = validate_prior(prior, code.n)
    wp = np.maximum(prior, EPS_FLOOR)
    d_qc = _outgoing(wp.T, _plan(code))
    return MessageState(working_prior=wp, d_qc=d_qc, t_cq=np.zeros(len(d_qc)))


@dataclass(frozen=True)
class PointStart:
    """What every decode from one prior starts with, built once by point_start; read-only.

    working_prior and log_prior are init_messages' floored working prior and
    its letter-major (4, n) log; each decode copies only the working prior,
    which the heuristics mutate.  d_qc is the opening qubit-to-check bias,
    the same for every decode, so a first check update differs between
    decodes only by the syndrome's signs: rows 0 and 1 of t_cq are
    check_update's output on the all-(+1) and the all-(-1) syndrome, and
    those of log_ab the kernel's log(a / b) of each.  Both rows are the
    kernel's own output, not a negation: a zero bias gives t = +0.0 for
    either sign.
    """

    working_prior: np.ndarray  # (n, 4)
    log_prior: np.ndarray      # (4, n)
    d_qc: np.ndarray           # (E,)
    t_cq: np.ndarray           # (2, E)
    log_ab: np.ndarray         # (2, E)

    def first_messages(self, code: StabilizerCode, syndrome: np.ndarray):
        """(t_cq, log(a / b)) of the first check update on a checked syndrome:
        each edge's entry from the row of its check's sign."""
        minus = np.repeat(syndrome < 0, code.check_degrees)
        t_cq, log_ab = self.t_cq[0].copy(), self.log_ab[0].copy()
        np.copyto(t_cq, self.t_cq[1], where=minus)
        np.copyto(log_ab, self.log_ab[1], where=minus)
        return t_cq, log_ab


def point_start(code: StabilizerCode, prior: np.ndarray) -> PointStart:
    """The PointStart of a prior: init_messages, then the first check update
    on each all-equal syndrome and its log(a / b)."""
    state = init_messages(code, prior)
    t_cq, log_ab = [], []
    for sign in (1, -1):
        check_update(state, code, np.full(code.m, sign, dtype=np.int8), _checked=True)
        t_cq.append(state.t_cq)
        log_ab.append(_log_ratio(state.t_cq))
    start = PointStart(state.working_prior, _log_working_prior(state), state.d_qc, np.stack(t_cq), np.stack(log_ab))
    for array in vars(start).values():
        array.flags.writeable = False
    return start


def check_update(state: MessageState, code: StabilizerCode, syndrome: np.ndarray, *,
                 _checked: bool = False) -> None:
    """Refresh every check-to-qubit message for the given +-1 syndrome.

    The outgoing value for letter E is (1 + s_c * sign(E) * prod) / 4 where
    prod multiplies the commute/anticommute biases of all other incoming
    messages; zero biases are handled exactly.  Stores t = s_c * prod / 4; s_c
    and the 1/4 multiply each check's product before it is repeated over its
    edges, which is exact unless the scaled product is subnormal.  Only a
    check whose full product is zero or that small takes the zero test, with
    the 1/4 applied per edge; a product that underflowed with no zero bias
    gets the same t there.  _checked=True, as the decode loop passes it,
    skips the syndrome's validation.
    """
    if not _checked:
        syndrome = checked_syndrome(syndrome, code.m)
    starts = code.edges.check_start
    degrees = code.check_degrees
    d = state.d_qc
    prod = np.multiply.reduceat(d, starts[:-1])
    if np.abs(prod).min() >= _NORMAL_PROD:
        scaled = syndrome * prod
        scaled *= 0.25
        t = np.repeat(scaled, degrees)
        t /= d
    else:
        zero = d == 0.0
        d1 = np.where(zero, 1.0, d)
        total = np.repeat(syndrome * np.multiply.reduceat(d1, starts[:-1]), degrees)
        nzero = np.repeat(np.add.reduceat(zero.astype(np.int64), starts[:-1]), degrees)
        t = np.where(nzero == 0, total / d1, np.where((nzero == 1) & zero, total, 0.0))
        t *= 0.25
    state.t_cq = t


def _log_ratio(t: np.ndarray) -> np.ndarray:
    """log(a / b) of check messages t, elementwise, with a = 1/4 + t and
    b = 1/4 - t floored at EPS_FLOOR."""
    a, b = t + 0.25, 0.25 - t
    # inside (-1/4, 1/4) both are at least 2**-55, and the floor changes
    # nothing; an empty t, NaN or +-1/4 takes the floored path
    if not (len(t) and -0.25 < t.min() and t.max() < 0.25):
        np.maximum(a, EPS_FLOOR, out=a)
        np.maximum(b, EPS_FLOOR, out=b)
    return np.log(np.divide(a, b, out=a), out=a)


def _beliefs(log_ab: np.ndarray, plan: _Plan, log_prior: np.ndarray) -> np.ndarray:
    """Unnormalized letter-major (4, n) beliefs with a maximum of exactly 1
    per qubit (clipped below at exp(_LOG_CLIP)).

    log_ab holds the log(a / b) of the plan's edges, log_prior the (4, n)
    log working prior.  Each qubit's column depends only on its own edges,
    in their given order.
    """
    logs = np.bincount(plan.belief_slot, log_ab, log_prior.size).reshape(log_prior.shape)
    # row I is every edge's term: (X + Y) + Z, row by row
    np.add.reduce(logs[1:], axis=0, out=logs[0])
    logs += log_prior
    logs -= logs.max(axis=0)
    np.maximum(logs, _LOG_CLIP, out=logs)
    return np.exp(logs, out=logs)


def _log_working_prior(state: MessageState) -> np.ndarray:
    """The letter-major (4, n) log working prior."""
    return np.log(state.working_prior.T, order="C")


def _normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Normalize positive (k, 4) rows in place and floor them at EPS_FLOOR;
    a letter-major (4, k) array is passed transposed."""
    cols = rows.T
    cols /= cols[0] + cols[1] + cols[2] + cols[3]
    np.maximum(cols, EPS_FLOOR, out=cols)
    return rows


def qubit_update(state: MessageState, code: StabilizerCode) -> np.ndarray:
    """Refresh every qubit-to-check message; returns the fresh (n, 4) beliefs.

    The decode loop runs the same passes itself, on the log(a / b) and the
    log working prior it already holds.
    """
    plan = _plan(code)
    log_ab = _log_ratio(state.t_cq)
    cols = _beliefs(log_ab, plan, _log_working_prior(state))
    state.d_qc = _outgoing(cols, plan, log_ab)
    return _normalize_rows(cols.T)


def _first_argmax(cols: np.ndarray) -> np.ndarray:
    """int8 letter of each column's first maximum in letter-major (4, k)
    values, as np.argmax over (k, 4) rows gives it: ties go to the lower letter."""
    c0, c1, c2, c3 = cols
    right = np.maximum(c2, c3) > np.maximum(c0, c1)
    letters = np.where(right, c3 > c2, c1 > c0).view(np.int8)
    letters += right
    letters += right
    return letters


def _hard_positions(cols: np.ndarray) -> np.ndarray:
    """Ascending positions (l - 1) * k + q of the non-identity letters of the
    first argmax of the normalized beliefs, from letter-major (4, k) beliefs
    with a column maximum of exactly 1.  Two decisions are equal exactly
    when their positions are.

    Dividing a column by its sum is monotone, so it can only turn a letter
    within a few ulp of the maximum into a tie; only when some column has
    such a letter is a normalized copy decided on.
    """
    top = cols >= _NEAR_ONE
    if np.count_nonzero(top) != cols.shape[1]:
        letters = _first_argmax(_normalize_rows(cols.T.copy()).T)
        top = letters == _LETTER_ROWS
    return np.flatnonzero(top[1:])


def _run(code, start, syndrome, config, intervene=None, trace=None) -> DecodeResult:
    """Flooding-schedule driver shared by the plain and heuristic decoders.

    start is point_start(code, prior) for the decode's prior, built once by
    the caller (a sweep builds one per point): the decode copies its working
    prior, which the heuristics mutate, and takes its first check messages
    from its tables.  It writes into none of the start's arrays.

    intervene, when given, is called as intervene(state, iteration, frustrated)
    after every t_pert unconverged iterations, with frustrated listing the
    checks whose syndrome bit disagrees with the current hard decision (never
    empty, since the decode has not halted).

    Each iteration runs the belief half of the qubit update, the hard
    decision and the halting test, and every iteration after the first
    opens with a check update.  The outgoing half runs only when another
    check update follows: not on the iteration that halts, not on the last
    one, and not before the refresh after an intervention, which runs both
    halves over every qubit on the current log(a / b) and a fresh log of
    the working prior.

    The loop skips work whose inputs did not change.  The log working prior
    is taken again only after an intervention.  Beliefs are normalized only
    when traced, or when the result's final_beliefs is read.  An iteration
    whose hard decision (its positions) equals the last one has the same
    violated checks, so it cannot halt and runs no halting test.  Syndrome
    bits are unpacked only to list frustrated checks.
    """
    syndrome = checked_syndrome(syndrome, code.m)
    plan = _plan(code)
    t_cq, log_ab = start.first_messages(code, syndrome)
    state = MessageState(start.working_prior.copy(), start.d_qc, t_cq)
    log_prior = start.log_prior
    target = code.pack_checks(syndrome < 0)
    # arrays of one dtype compare as their bytes, at a tenth of np.array_equal's cost
    target_bytes = target.tobytes()
    decided = None
    since_intervention = 0
    for iteration in range(1, config.max_iterations + 1):
        cols = _beliefs(log_ab, plan, log_prior)
        if trace is not None:
            trace.append((iteration, _normalize_rows(cols.T.copy())))
        positions = _hard_positions(cols)
        key = positions.tobytes()
        if key != decided:
            decided = key
            words = code.syndrome_words(positions)
            if words.tobytes() == target_bytes:
                return DecodeResult._of_loop(code, positions, True, iteration, cols)
        if iteration == config.max_iterations:
            break
        since_intervention += 1
        if intervene is not None and since_intervention >= config.t_pert:
            frustrated = np.flatnonzero(code.unpack_checks(words ^ target))
            intervene(state, iteration, frustrated.tolist())
            # the next check update reads outgoing messages of the mutated priors
            log_prior = _log_working_prior(state)
            state.d_qc = _outgoing(_beliefs(log_ab, plan, log_prior), plan, log_ab)
            since_intervention = 0
        else:
            state.d_qc = _outgoing(cols, plan, log_ab)
        check_update(state, code, syndrome, _checked=True)
        log_ab = _log_ratio(state.t_cq)
    return DecodeResult._of_loop(code, positions, False, iteration, cols)


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
    syndrome = checked_syndrome(syndrome, code.m)
    return _run(code, point_start(code, prior), syndrome, config, trace=trace)
