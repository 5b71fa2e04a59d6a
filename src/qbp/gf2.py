"""GF(2) linear algebra on bit-packed integer row vectors.

Rows are Python ints; column j is bit j.  Pivots are chosen at the lowest
set bit, so for symplectic (x|z) layouts with x in the low half the X block
is eliminated first.  packed_echelon runs the same elimination on a whole
matrix of rows held as little-endian uint64 words, with the same result.
"""

from __future__ import annotations

import numpy as np


def lowest_bit(v: int) -> int:
    return (v & -v).bit_length() - 1


def packed_echelon(words: np.ndarray) -> list[tuple[int, int]]:
    """echelon() of the rows of an (m, w) uint64 array, column j at bit j % 64 of word j // 64.

    Gauss-Jordan in input order: each row, reduced by the pivots before it,
    takes its lowest set bit as pivot and is XORed into every other row
    holding that bit.  The reduced echelon form of a span for this pivot rule
    is unique, so the (pivot, row) pairs equal echelon's, as Python ints.
    Stops at the first row that reduces to zero, so the basis is shorter
    than m exactly when that row, at index len(basis), is dependent.
    """
    w = np.array(words, dtype="<u8")  # a copy: the rows are reduced in place
    pivots = []
    for i in range(len(w)):
        row = w[i].copy()
        p = lowest_bit(int.from_bytes(row.tobytes(), "little"))
        if p < 0:
            break
        w[np.flatnonzero(w[:, p >> 6] & np.uint64(1 << (p & 63)))] ^= row
        w[i] = row
        pivots.append(p)
    return [(p, int.from_bytes(r.tobytes(), "little")) for p, r in zip(pivots, w)]


def insert(basis: list[tuple[int, int]], v: int) -> int:
    """Reduce v against a reduced echelon basis and, if nonzero, add it in place.

    Returns the reduced v, which is 0 exactly when v was already in the span.
    """
    v = reduce_vector(v, basis)
    if v:
        p = lowest_bit(v)
        for i, (p2, r2) in enumerate(basis):
            if (r2 >> p) & 1:
                basis[i] = (p2, r2 ^ v)
        basis.append((p, v))
    return v


def echelon(rows) -> list[tuple[int, int]]:
    """Reduced row-echelon basis as (pivot, row) pairs."""
    basis: list[tuple[int, int]] = []
    for r in rows:
        insert(basis, r)
    return basis


def reduce_vector(v: int, basis) -> int:
    for p, row in basis:
        if (v >> p) & 1:
            v ^= row
    return v


def in_rowspan(v: int, basis) -> bool:
    return reduce_vector(v, basis) == 0


def nullspace(rows, ncols: int) -> list[int]:
    """Basis of {v : parity(row & v) = 0 for every row}."""
    basis = echelon(rows)
    pivots = {p for p, _ in basis}
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = 1 << f
        for p, row in basis:
            if (row >> f) & 1:
                v |= 1 << p
        out.append(v)
    return out


def solve_unit_targets(rows) -> list[int]:
    """For full-row-rank constraints, vectors v_c with parity(rows[j] & v_c) = [j == c].

    Raises ValueError if the rows are dependent.
    """
    basis: list[tuple[int, int, int]] = []  # (pivot, row, combination tag)
    for i, r in enumerate(rows):
        tag = 1 << i
        for p, row, t in basis:
            if (r >> p) & 1:
                r ^= row
                tag ^= t
        if r == 0:
            raise ValueError(f"row {i} is dependent on earlier rows")
        p = lowest_bit(r)
        for j, (p2, r2, t2) in enumerate(basis):
            if (r2 >> p) & 1:
                basis[j] = (p2, r2 ^ r, t2 ^ tag)
        basis.append((p, r, tag))
    sols = []
    for c in range(len(rows)):
        v = 0
        for p, _row, tag in basis:
            if (tag >> c) & 1:
                v |= 1 << p
        sols.append(v)
    return sols
