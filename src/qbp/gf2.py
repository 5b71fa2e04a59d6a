"""GF(2) linear algebra on bit-packed rows.

A matrix is an (r, w) array of little-endian uint64 words, column j at bit
j % 64 of word j // 64.  packed_echelon is the one elimination: Gauss-Jordan
in input order with pivots at the lowest set bit, so for symplectic (x|z)
layouts with x in the low half the X block is eliminated first.  The reduced
echelon form of a span for this pivot rule is unique, and in_rowspan tests
membership against it with one gather and XOR.
"""

from __future__ import annotations

import numpy as np


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """(r, c) 0/1 rows as (r, ceil(c / 64)) little-endian uint64 words."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view("<u8")


def unpack_rows(words: np.ndarray, count: int) -> np.ndarray:
    """The first `count` columns of (r, w) uint64 rows as (r, count) uint8 bits."""
    return np.unpackbits(np.ascontiguousarray(words, "<u8").view(np.uint8), axis=1, count=count, bitorder="little")


def packed_echelon(words: np.ndarray):
    """Gauss-Jordan of the rows of an (r, w) uint64 array, in input order.

    Each row is reduced by the pivots before it.  A row that reduces to zero,
    being in the span of the rows before it, is skipped; any other takes its
    lowest set bit as pivot and is XORed into every other row holding that
    bit.  Returns (kept, pivots, rows, inserted): the indices of the kept
    rows and their pivots, as intp arrays, the fully reduced basis, and each
    kept row as it was inserted, reduced by the pivots before it only.
    """
    w = np.array(words, dtype="<u8")  # a copy: the rows are reduced in place
    inserted = np.empty_like(w)
    kept, pivots = [], []
    for i in range(len(w)):
        row = w[i].copy()
        v = int.from_bytes(row.tobytes(), "little")
        if not v:
            continue
        p = (v & -v).bit_length() - 1
        w[np.flatnonzero(w[:, p >> 6] & np.uint64(1 << (p & 63)))] ^= row
        w[i] = inserted[len(kept)] = row
        kept.append(i)
        pivots.append(p)
    return np.array(kept, np.intp), np.array(pivots, np.intp), w[kept], inserted[:len(kept)]


def in_rowspan(v: np.ndarray, basis) -> bool:
    """Whether the (w,) uint64 row v lies in the span of a fully reduced basis
    (pivots, rows): exactly when v is the XOR of the rows at its pivot bits."""
    pivots, rows = basis
    picks = np.unpackbits(np.ascontiguousarray(v).view(np.uint8), bitorder="little")[pivots].view(bool)
    return not (np.bitwise_xor.reduce(rows[picks], axis=0) ^ v).any()


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) uint8 GF(2) inner products of two sets of packed rows,
    in chunks of rows of a of ~2 MB of ANDed words each."""
    step = max(1, (1 << 18) // max(1, b.size))
    x = np.concatenate([np.bitwise_xor.reduce(a[i:i + step, None] & b, axis=-1) for i in range(0, len(a), step)]
                       or [np.zeros((0, len(b)), "<u8")])
    for shift in (32, 16, 8, 4, 2, 1):
        x ^= x >> np.uint64(shift)
    return (x & np.uint64(1)).astype(np.uint8)


def product(a: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The GF(2) product of an (r, s) 0/1 matrix and (s, w) packed rows, (r, w) packed."""
    out = np.zeros((len(a), words.shape[1]), dtype="<u8")
    for i, row in enumerate(a.astype(bool)):
        out[i] = np.bitwise_xor.reduce(words[row], axis=0)
    return out
