"""Brute-force reference decoders for small instances.

These enumerate the full Pauli group (or the full stabilizer group), so they
are exact by construction and guarded by hard size limits rather than
silently approximating.  They exist to check the message-passing decoder and
to expose the gap between most-likely-error and most-likely-coset decoding.
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


def _letters_block(n: int, start: int, stop: int) -> np.ndarray:
    """Letter codes for enumeration indices [start, stop); qubit 0 is the most
    significant base-4 digit, so index order is lexicographic operator order."""
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((stop - start, n), dtype=np.int8)
    for q in range(n):
        out[:, q] = (idx >> (2 * (n - 1 - q))) & 3
    return out


def _block_probs(letters: np.ndarray, prior: np.ndarray) -> np.ndarray:
    probs = np.ones(letters.shape[0])
    for q in range(letters.shape[1]):
        probs *= prior[q, letters[:, q]]
    return probs


def _consistent_blocks(code: StabilizerCode, prior: np.ndarray, syndrome: np.ndarray):
    """Enumerate every n-qubit operator in chunks, in lexicographic order.

    Yields (letters, probs, consistent): each chunk's letter codes, their
    prior probabilities and whether their syndrome equals the given one.
    """
    if code.n > MAX_ENUM_QUBITS:
        raise ValueError(f"exact enumeration is limited to {MAX_ENUM_QUBITS} qubits, code has {code.n}")
    prior = validate_prior(prior, code.n)
    # independent commuting checks number at most n <= MAX_ENUM_QUBITS < 64,
    # so a packed syndrome is one word: table[l, q] is the checks that
    # letter l on qubit q anticommutes with, code.anti_words' rows with an
    # identity row on top
    table = np.zeros((4, code.n), dtype="<u8")
    table[1:] = code.anti_words[:, 0].reshape(3, code.n)
    target = code.pack_checks(checked_syndrome(syndrome, code.m) < 0)[0]
    total = 1 << (2 * code.n)
    for start in range(0, total, _CHUNK):
        letters = _letters_block(code.n, start, min(start + _CHUNK, total))
        words = np.zeros(len(letters), dtype="<u8")
        for q in range(code.n):
            words ^= table[letters[:, q], q]
        yield letters, _block_probs(letters, prior), words == target


def exact_marginals(code: StabilizerCode, prior: np.ndarray, syndrome: np.ndarray) -> np.ndarray:
    """Exact conditional marginals p_q(E_q | s) by full enumeration."""
    mass = np.zeros((code.n, 4))
    for letters, probs, consistent in _consistent_blocks(code, prior, syndrome):
        probs[~consistent] = 0.0
        for q in range(code.n):
            for v in range(4):
                mass[q, v] += probs[letters[:, q] == v].sum()
    norm = mass.sum(axis=1, keepdims=True)
    if (norm <= 0).any():
        raise RuntimeError("no operator is consistent with the syndrome")
    return mass / norm


def exact_map(code: StabilizerCode, prior: np.ndarray, syndrome: np.ndarray) -> PauliOperator:
    """A most likely syndrome-consistent error; ties go to the lexicographically first."""
    best_p = -1.0
    best_letters = None
    for letters, probs, consistent in _consistent_blocks(code, prior, syndrome):
        probs[~consistent] = -1.0
        i = int(np.argmax(probs))
        if probs[i] > best_p:
            best_p = probs[i]
            best_letters = letters[i].copy()
    if best_letters is None or best_p < 0:
        raise RuntimeError("no operator is consistent with the syndrome")
    return PauliOperator.from_letters(best_letters)


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
    # the stabilizer group as one (2^m, n) letter block, element i the
    # product of the checks on the set bits of i
    group = np.zeros((1, code.n), dtype=np.int8)
    for check in code.checks:
        group = np.concatenate((group, group ^ check.letters()))
    _, logicals = code.canonical_generators()

    mass = np.zeros(1 << (2 * code.k))
    reps = []
    for ell in range(len(mass)):
        # class ell's representative: the product of the logicals on its set bits
        rep = math.prod((op for b, op in enumerate(logicals) if (ell >> b) & 1), start=PauliOperator.identity(code.n))
        # summed in group order, one element at a time
        mass[ell] = sum(_block_probs(group ^ (t_letters ^ rep.letters()), prior).tolist())
        reps.append(rep)
    table = CosetTable(logicals=tuple(reps), raw_mass=mass)
    best = int(np.argmax(mass))
    return reps[best], table
