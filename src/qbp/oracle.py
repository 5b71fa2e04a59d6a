"""Brute-force reference decoders for small instances.

These enumerate the full Pauli group (or the full stabilizer group), so they
are exact by construction and guarded by hard size limits rather than
silently approximating.  They exist to check the message-passing decoder and
to expose the gap between most-likely-error and most-likely-coset decoding.

`syndrome_tables` enumerates the 4^n operators of a code once per prior and
files each under its packed syndrome word, so one pass answers every
syndrome: `exact_marginals` and `exact_map` are lookups into it, and callers
that loop over syndromes build it once.  `coset_decode` enumerates the
stabilizer group instead, one syndrome at a time, which reaches codes of any
n with few checks and logicals.  A syndrome of probability 0 under the prior
has no conditional distribution, and all three raise on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import StabilizerCode, checked_syndrome
from .bp import validate_prior
from .pauli import PauliOperator

MAX_ENUM_QUBITS = 12
MAX_COSET_CHECKS = 16
MAX_COSET_LOGICALS = 4

_CHUNK = 1 << 16


def _block_probs(slots: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """Prior probabilities of operators given as (n, count) slots 4q + l,
    letter l on qubit q, multiplied in qubit order."""
    return prior.take(slots).prod(axis=0)


def _possible(mass: np.ndarray) -> np.ndarray:
    """mass, the nonnegative probability mass of one syndrome, if any of it is nonzero."""
    if not mass.any():
        raise RuntimeError("the syndrome has probability 0 under the prior")
    return mass


@dataclass(frozen=True, eq=False)
class SyndromeTables:
    """Every syndrome's exact marginal mass and MAP operator, one row per
    packed syndrome word (check c at bit c)."""

    code: StabilizerCode
    mass: np.ndarray         # (2^m, n, 4) unnormalized: each qubit's row sums to p(s)
    map_letters: np.ndarray  # (2^m, n) letters of the lexicographically first most likely operator

    def word(self, syndrome: np.ndarray) -> int:
        """The row of a +1/-1 syndrome: its packed violation bits."""
        return int(self.code.pack_checks(checked_syndrome(syndrome, self.code.m) < 0)[0])

    def marginals(self, syndrome: np.ndarray) -> np.ndarray:
        """Exact conditional marginals p_q(E_q | s), (n, 4)."""
        mass = _possible(self.mass[self.word(syndrome)])
        return mass / mass.sum(axis=1, keepdims=True)

    def map(self, syndrome: np.ndarray) -> PauliOperator:
        """A most likely syndrome-consistent error; ties go to the lexicographically first."""
        w = self.word(syndrome)
        _possible(self.mass[w])
        return PauliOperator.from_letters(self.map_letters[w])


def syndrome_tables(code: StabilizerCode, prior: np.ndarray) -> SyndromeTables:
    """One enumeration of every n-qubit operator, in chunks and in
    lexicographic order, filed by syndrome word.

    Per chunk, one bincount per qubit, keyed by (word, qubit, letter), adds
    each operator's probability to its syndrome's marginal mass in index
    order, and a maximum by word gives each word's first most likely
    operator in the chunk, which replaces the running one only if it is
    more likely.  The marginal table holds 2^m * 4n floats, 1.6 MB at
    n = m = 12.
    """
    if code.n > MAX_ENUM_QUBITS:
        raise ValueError(f"exact enumeration is limited to {MAX_ENUM_QUBITS} qubits, code has {code.n}")
    prior = validate_prior(prior, code.n)
    n, size = code.n, 1 << code.m
    # the checks are independent and commute, so m <= n <= MAX_ENUM_QUBITS
    # < 64 and a packed syndrome is one word: table[q, l] is the checks that
    # letter l on qubit q anticommutes with, code.anti_words' rows with an
    # identity row on top, taken qubit-major
    table = np.concatenate((np.zeros(n, "<u8"), code.anti_words[:, 0])).reshape(4, n).T.astype(np.intp)
    # operator i's slot 4q + l on qubit q: its letter l is base-4 digit
    # n - 1 - q of i, so index order is lexicographic operator order
    shifts, offsets = 2 * np.arange(n - 1, -1, -1)[:, None], 4 * np.arange(n)[:, None]
    mass = np.zeros(size * n * 4)
    best_p = np.full(size, -1.0)
    best = np.zeros((size, n), dtype=np.int8)
    for start in range(0, 4 ** n, _CHUNK):
        slots = (np.arange(start, min(start + _CHUNK, 4 ** n)) >> shifts) & 3 | offsets
        probs = _block_probs(slots, prior)
        words = np.bitwise_xor.reduce(table.take(slots), axis=0)
        for q in range(n):
            mass += np.bincount(4 * n * words + slots[q], weights=probs, minlength=len(mass))
        # a word's first operator in the chunk at a new maximum replaces the
        # earlier chunks' one; a tie keeps the earlier
        before = best_p.copy()
        np.maximum.at(best_p, words, probs)
        hits = np.flatnonzero((probs == best_p[words]) & (probs > before[words]))
        first = hits[np.unique(words[hits], return_index=True)[1]]
        best[words[first]] = slots[:, first].T & 3
    return SyndromeTables(code, mass.reshape(size, n, 4), best)


def exact_marginals(code: StabilizerCode, prior: np.ndarray, syndrome: np.ndarray) -> np.ndarray:
    """Exact conditional marginals p_q(E_q | s) by full enumeration."""
    return syndrome_tables(code, prior).marginals(syndrome)


def exact_map(code: StabilizerCode, prior: np.ndarray, syndrome: np.ndarray) -> PauliOperator:
    """A most likely syndrome-consistent error; ties go to the lexicographically first."""
    return syndrome_tables(code, prior).map(syndrome)


@dataclass(frozen=True)
class CosetTable:
    """Probability mass of every logical class for one syndrome."""

    logicals: tuple[PauliOperator, ...]   # class representatives (logical part only)
    raw_mass: np.ndarray                  # unnormalized: sums to p(s) over classes

    @property
    def normalized(self) -> np.ndarray:
        return self.raw_mass / self.raw_mass.sum()


def coset_decode(code: StabilizerCode, prior: np.ndarray, syndrome: np.ndarray):
    """Most likely logical class given the syndrome, with the full class table.

    Sums p(S * t(s) * L) over the whole stabilizer group for every logical
    class L; the recovery operator for the winning class is t(s) * L.
    Returns (L_star, CosetTable).
    """
    if code.m > MAX_COSET_CHECKS:
        raise ValueError(f"coset enumeration is limited to {MAX_COSET_CHECKS} checks, code has {code.m}")
    if code.k > MAX_COSET_LOGICALS:
        raise ValueError(f"coset enumeration is limited to {MAX_COSET_LOGICALS} logical qubits, code has {code.k}")
    prior = validate_prior(prior, code.n)
    t_letters = code.pure_error_for_syndrome(syndrome).letters()
    # the stabilizer group as one (2^m, n) block of slots 4q + l, element i
    # the product of the checks on the set bits of i: XORing letters keeps
    # each slot's 4q
    group = 4 * np.arange(code.n)[None, :]
    for check in code.checks:
        group = np.concatenate((group, group ^ check.letters()))
    _, logicals = code.canonical_generators()

    mass = np.zeros(1 << (2 * code.k))
    reps = []
    for ell in range(len(mass)):
        # class ell's representative: the product of the logicals on its set bits
        rep = math.prod((op for b, op in enumerate(logicals) if (ell >> b) & 1), start=PauliOperator.identity(code.n))
        # summed in group order, one element at a time
        mass[ell] = sum(_block_probs((group ^ (t_letters ^ rep.letters())).T, prior).tolist())
        reps.append(rep)
    table = CosetTable(logicals=tuple(reps), raw_mass=_possible(mass))
    best = int(np.argmax(mass))
    return reps[best], table
