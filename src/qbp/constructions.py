"""Generators for bicycle CSS codes and the bundled pedagogical codes.

A bicycle code starts from a sparse cyclic matrix C built from a random
weight-w/2 vector, forms the self-dual block H0 = (C | C^T), deletes rows
down to the target check count, and emits one Z-type and one X-type check
per remaining row.  Self-duality of H makes all checks commute.  Each draw
works on whole arrays: C is built once, the greedy deletion keeps a mask of
live rows, and duplicate columns are found among the packed columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .codes import DependentChecksError, NonCommutingChecksError, StabilizerCode, checked_integer
from .pauli import PauliOperator

_BUILTINS = {
    "two_qubit_toy": ("XX", "ZZ"),
    "five_qubit": ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"),
}


class GenerationError(RuntimeError):
    """Raised when bicycle generation exhausts its retry budget."""


@dataclass(frozen=True)
class BicycleSpec:
    n: int
    m: int
    w: int
    seed: int | None = None

    def __post_init__(self):
        for name in ("n", "m", "w"):
            object.__setattr__(self, name, checked_integer(name, getattr(self, name), 0))
        if self.seed is not None:
            object.__setattr__(self, "seed", checked_integer("seed", self.seed, 0))
        if self.n % 2 or self.m % 2 or self.w % 2:
            raise ValueError(f"n, m, w must all be even, got {(self.n, self.m, self.w)}")
        if not 0 < self.m < self.n:
            raise ValueError(f"need 0 < m < n, got m={self.m}, n={self.n}")
        if not 0 < self.w // 2 <= self.n // 2:
            raise ValueError(f"row weight w={self.w} out of range for n={self.n}")


def cyclic_matrix(a: np.ndarray) -> np.ndarray:
    """Circulant binary matrix with C[i, j] = a[(j - i) mod d].

    Row i is the generating vector cyclically shifted right by i, so all row
    and column weights equal weight(a).  Note the j - i index: the symmetric
    i + j variant would make C its own transpose and give the two halves of a
    bicycle block identical columns, i.e. weight-2 undetectable errors.
    """
    a = np.asarray(a, dtype=np.uint8)
    d = a.shape[0]
    if d < 1:
        raise ValueError("empty generating vector")
    # window k of (a, a) is a shifted left by k, so row i is window d - i
    return np.ascontiguousarray(sliding_window_view(np.concatenate([a, a]), d)[d:0:-1])


def _checks_from_matrix(h: np.ndarray) -> list[PauliOperator]:
    """The Z-type checks of the rows of the 0/1 uint8 matrix h, then its X-type checks."""
    m, n = h.shape
    # flatnonzero of a bool view is many times faster than of uint8, or a 2-D nonzero
    row, qubit = np.divmod(np.flatnonzero(h.view(bool)), n)
    return PauliOperator._from_rows(n, np.concatenate((row, row + m)), np.concatenate((qubit + 2 * n, qubit)), 2 * m)


def css_from_matrix(h: np.ndarray) -> StabilizerCode:
    """CSS code from a self-dual full-rank binary matrix: Z rows then X rows.

    The code's constructor does the validation.  Its first anticommuting pair
    is (Z check i, X check j) for the row-major first odd overlap (i, j) of H.
    """
    h = np.asarray(h, dtype=np.uint8) % 2
    if h.ndim != 2 or h.size == 0:
        raise ValueError("expected a nonempty binary matrix")
    try:
        return StabilizerCode(_checks_from_matrix(h))
    except NonCommutingChecksError as exc:
        i, j = exc.pair
        raise ValueError(f"matrix is not self-dual: rows {i} and {j - len(h)} have odd overlap") from None
    except DependentChecksError:
        raise ValueError("matrix is rank deficient") from None


def _balanced_deletion(h0: np.ndarray, keep: int) -> np.ndarray:
    """Greedily delete rows, minimizing the column-weight variance at each step.

    Every row of a bicycle block has the same weight w, so deleting row r
    leaves column weights colw - h0[r] whose mean, (sum(colw) - w) / n, is
    the same for every r, and whose variance, (sum(colw**2) - 2 * h0[r] @
    colw + w) / n less that mean squared, falls exactly as the integer
    overlap h0[r] @ colw rises.  So the least variance is the live row of
    largest overlap, the first on a tie, found in integers with no rounding
    to merge or split ties.  Rows of unequal weight are rejected.  A deleted
    row's overlap is set to -1 and only falls after, while a live row's is
    at least 0.
    """
    weights = h0.sum(axis=1)
    if len(weights) and (weights != weights[0]).any():
        raise ValueError("balanced deletion needs rows of equal weight")
    overlap = h0 @ h0.sum(axis=0, dtype=np.int64)
    columns = np.ascontiguousarray(h0.T)
    deleted = np.zeros(h0.shape[0], dtype=bool)
    for _ in range(h0.shape[0] - keep):
        row = int(np.argmax(overlap))
        deleted[row] = True
        overlap -= columns[h0[row] == 1].sum(axis=0, dtype=np.int32)  # each sum is at most n
        overlap[row] = -1
    return np.flatnonzero(~deleted)


def _has_duplicate_columns(h: np.ndarray) -> bool:
    """Whether two columns of the binary matrix are equal, compared as packed bytes."""
    packed = np.ascontiguousarray(np.packbits(h, axis=0).T)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    return len(np.unique(keys)) < h.shape[1]


def generate_bicycle(spec: BicycleSpec, deletion: str = "balanced", max_attempts: int = 100) -> StabilizerCode:
    """Draw a random bicycle code for the given block parameters.

    Deterministic for a fixed spec (including seed).  Retries with fresh
    randomness when the deleted matrix has a zero-weight column or dependent
    rows, and fails after max_attempts draws.
    """
    if deletion not in ("balanced", "random"):
        raise ValueError(f"unknown deletion mode {deletion!r}")
    max_attempts = checked_integer("max_attempts", max_attempts, 1)
    if spec.m * spec.w < 2 * spec.n:
        raise GenerationError(
            f"infeasible spec {spec}: {spec.m // 2} rows of weight {spec.w} cannot cover "
            f"{spec.n} columns, so a zero-weight column is unavoidable"
        )
    rng = np.random.default_rng(spec.seed)
    d = spec.n // 2
    keep = spec.m // 2
    for attempt in range(max_attempts):
        a = np.zeros(d, dtype=np.uint8)
        a[rng.choice(d, size=spec.w // 2, replace=False)] = 1
        c = cyclic_matrix(a)
        h0 = np.hstack([c, c.T])
        deletion_tries = 1 if deletion == "balanced" else 5
        for _ in range(deletion_tries):
            if deletion == "balanced":
                rows = _balanced_deletion(h0, keep)
            else:
                rows = np.sort(rng.choice(d, size=keep, replace=False))
            h = h0[rows]
            if (h.sum(axis=0) == 0).any():
                continue
            # Duplicate columns pair up into weight-2 undetectable errors, so
            # avoid them while fresh draws remain; tiny instances may not
            # admit distinct columns at all, so relax once the budget is half
            # spent rather than failing outright.
            if attempt < max_attempts // 2 and _has_duplicate_columns(h):
                continue
            try:
                return StabilizerCode(_checks_from_matrix(h))
            except DependentChecksError:
                continue
    raise GenerationError(f"no valid bicycle code after {max_attempts} attempts for {spec}")


def check_matrix(code: StabilizerCode) -> np.ndarray:
    """Recover the binary matrix H of a code whose checks are H's rows as
    Z-type then as X-type, as css_from_matrix and generate_bicycle build
    them; any other code is a ValueError."""
    half, n = code.m // 2, code.n
    if code.m % 2 or any((x.positions() >= n).any() or not np.array_equal(z.positions(), x.positions() + 2 * n)
                         for z, x in zip(code.checks[:half], code.checks[half:])):
        raise ValueError("the checks are not the rows of one matrix as Z-type then as X-type")
    h = np.zeros((half, n), dtype=np.uint8)
    for c, x in enumerate(code.checks[half:]):
        h[c, x.positions()] = 1
    return h


def builtin(name: str) -> StabilizerCode:
    """One of the bundled codes: two_qubit_toy or five_qubit."""
    try:
        checks = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown builtin code {name!r}; choose from {sorted(_BUILTINS)}") from None
    return StabilizerCode(checks)
